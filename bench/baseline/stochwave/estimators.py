"""Monte Carlo assembly of the weighted energy and stability estimates.

Every term is a discrete integral of a squared field against an
exponential weight factor, evaluated path by path and then averaged.
Weight factors are computed at the mesh coordinates where the integrand
lives: primal nodes for y-squared terms, dual space points for |Dx y|^2,
the dual-adjacent point x = dx/2 for the boundary flux, and dual-dual
points for the mixed second difference.  Data terms (initial data,
sources) do not vary across paths, so their standard error is zero by
construction.

Both reports flag an undefined ratio instead of dividing by zero, and
the stability report carries the terminal norm under the two readings
of the printed estimate (terminal norm squared vs unsquared); the
unsquared reading is the dimensionally consistent one used by the
acceptance checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CouplingError, MeshMismatchError
from .grids import Grid, GridFunction, integrate, norm, trace
from .operators import diff_t, diff_x, t_plus
from .solver import Ensemble, ProblemData, observe
from .weights import (
    WeightParams,
    check_admissible,
    eval_weights,
    r_squared,
)

_MAX_EXP = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True)
class MCStatistic:
    """Sample mean with its Monte Carlo standard error."""

    mean: float
    stderr: float
    paths: int


def _stat(per_path) -> MCStatistic:
    a = np.asarray(per_path, dtype=np.float64)
    n = a.shape[0]
    stderr = float(np.std(a, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return MCStatistic(mean=float(np.mean(a)), stderr=stderr, paths=n)


def _const_stat(value: float, paths: int) -> MCStatistic:
    return MCStatistic(mean=float(value), stderr=0.0, paths=paths)


def _ratio(num: float, den: float):
    """(ratio, defined) with zero denominators flagged, not propagated."""
    if den == 0.0:
        return None, False
    return num / den, True


def _check_nonnegative(terms: dict, label: str):
    for key, stat in terms.items():
        if not (stat.mean >= 0.0):
            raise FloatingPointError(
                f"{label} term {key} is negative: {stat.mean!r}"
            )


# ---------------------------------------------------------------------------
# weighted energy terms


@dataclass(frozen=True)
class CarlemanReport:
    """Term-by-term weighted energy estimate with Monte Carlo errors.

    lhs holds L1..L7, rhs holds R1..R4 (R4 = s^3 e^{kappa s} XT^2 with
    the configured kappa); xt_norm is the raw unscaled terminal norm for
    reference.  ratio = sum(lhs means) / sum(rhs means) with R4 entering
    at its kappa = 0 scaling s^3 XT^2, so the ratio is comparable across
    kappa choices; it coincides with the plain sum at the default."""

    lhs: dict
    rhs: dict
    xt_norm: MCStatistic
    ratio: float
    ratio_defined: bool
    admissible: bool
    admissibility: object
    s: float
    lam: float
    kappa: float


def _weight_gf(grid, factor, space_tag, time_tag) -> GridFunction:
    sax = grid.space_axis(space_tag) if space_tag else None
    tax = grid.time_axis(time_tag) if time_tag else None
    return GridFunction(grid, factor, sax, tax)


def carleman_terms(
    ens: Ensemble,
    w: WeightParams,
    data: ProblemData,
    grid: Grid,
    kappa: float = 0.0,
) -> CarlemanReport:
    """Assemble the seven weighted interior/initial terms and the four
    observation-side terms.  An inadmissible configuration still
    computes everything; only the report flag records the violation."""
    if ens.grid != grid or data.grid != grid:
        raise MeshMismatchError("ensemble/data live on a different grid")
    rep = check_admissible(w, grid)

    s, lam = w.s, w.lam
    xp = grid.space_primal[:, None]
    xd = grid.space_dual[:, None]
    tp = grid.time_primal[None, :]
    td = grid.time_dual[None, :]

    def w1(x, t):
        return s * lam * eval_weights(w, x, t).varphi

    # interior factors
    w1_pp = w1(xp, tp)
    r2_pp = r_squared(w, xp, tp)
    f_L1 = _weight_gf(grid, w1_pp**3 * r2_pp, "primal", "primal")
    f_L2 = _weight_gf(grid, w1_pp * r2_pp, "primal", "primal")
    f_L3 = _weight_gf(grid, w1(xd, tp) * r_squared(w, xd, tp), "dual", "primal")
    f_R1 = _weight_gf(grid, r2_pp, "primal", "primal")
    # initial-time factors
    w1_p0 = w1(grid.space_primal, 0.0)
    r2_p0 = r_squared(w, grid.space_primal, 0.0)
    f_L5 = _weight_gf(grid, w1_p0**3 * r2_p0, "primal", None)
    f_L7 = _weight_gf(grid, w1_p0 * r2_p0, "primal", None)
    f_L6 = _weight_gf(
        grid,
        w1(grid.space_dual, 0.0) * r_squared(w, grid.space_dual, 0.0),
        "dual",
        None,
    )
    # boundary and mixed factors (no r^2, following the printed terms)
    f_R2 = _weight_gf(
        grid, w1(0.5 * grid.dx, tp).ravel(), None, "primal"
    )
    f_R3 = _weight_gf(
        grid, s * lam * lam * eval_weights(w, xd, td).varphi, "dual", "dual"
    )

    if kappa * s > _MAX_EXP:
        raise FloatingPointError(
            f"e^(kappa*s) overflows float64 for kappa*s = {kappa * s}"
        )
    r4_scale = s**3 * math.exp(kappa * s)

    # data terms, identical on every path
    P = ens.paths
    gp = data.g
    L4 = integrate(f_L2 * (gp * gp), "MxN")
    y0p = data.y0.restrict(space="primal")
    dxy0 = diff_x(data.y0)
    y1p = data.y1.restrict(space="primal")
    L5 = integrate(f_L5 * (y0p * y0p), "M")
    L6 = integrate(f_L6 * (dxy0 * dxy0), "M*")
    L7 = integrate(f_L7 * (y1p * y1p), "M")
    if data.f is not None:
        R1 = integrate(f_R1 * (data.f * data.f), "MxN")
    else:
        R1 = 0.0

    per = {
        key: [] for key in ("L1", "L2", "L3", "R2", "R3", "R4", "XT", "XT2")
    }
    for traj in ens.trajectories:
        y = traj.y
        ypp = y.restrict(space="primal", time="primal")
        per["L1"].append(integrate(f_L1 * (ypp * ypp), "MxN"))

        dty = diff_t(y)
        fwd = t_plus(dty * dty).restrict(space="primal", time="primal")
        per["L2"].append(integrate(f_L2 * fwd, "MxN"))

        dxy = diff_x(y)
        dxy2 = (dxy * dxy).restrict(time="primal")
        per["L3"].append(integrate(f_L3 * dxy2, "M*xN"))

        obs = observe(traj, grid)
        fl = obs.flux
        per["R2"].append(integrate(f_R2 * (fl * fl), "N"))

        dtdx = diff_t(dxy).restrict(time="dual")
        per["R3"].append(
            grid.dx**2 * integrate(f_R3 * (dtdx * dtdx), "M*xN*")
        )

        xt = norm((obs.terminal_y, obs.terminal_v), "XT")
        per["XT"].append(xt)
        per["XT2"].append(xt * xt)
        per["R4"].append(r4_scale * xt * xt)

    lhs = {
        "L1": _stat(per["L1"]),
        "L2": _stat(per["L2"]),
        "L3": _stat(per["L3"]),
        "L4": _const_stat(L4, P),
        "L5": _const_stat(L5, P),
        "L6": _const_stat(L6, P),
        "L7": _const_stat(L7, P),
    }
    rhs = {
        "R1": _const_stat(R1, P),
        "R2": _stat(per["R2"]),
        "R3": _stat(per["R3"]),
        "R4": _stat(per["R4"]),
    }
    _check_nonnegative(lhs, "lhs")
    _check_nonnegative(rhs, "rhs")
    den = (
        rhs["R1"].mean
        + rhs["R2"].mean
        + rhs["R3"].mean
        + s**3 * float(np.mean(per["XT2"]))
    )
    ratio, defined = _ratio(sum(t.mean for t in lhs.values()), den)
    return CarlemanReport(
        lhs=lhs,
        rhs=rhs,
        xt_norm=_stat(per["XT"]),
        ratio=ratio,
        ratio_defined=defined,
        admissible=rep.overall,
        admissibility=rep,
        s=s,
        lam=lam,
        kappa=kappa,
    )


# ---------------------------------------------------------------------------
# stability terms


@dataclass(frozen=True)
class StabilityReport:
    """Data-difference norms against observation-difference norms.

    lhs holds G (mode-labeled), Y0, Y1; rhs holds FLUX, XT, DTDX with XT
    unsquared; xt_squared carries the squared reading of the printed
    estimate.  ratio_unsquared sums rhs with XT, ratio_printed with
    XT^2."""

    lhs: dict
    rhs: dict
    xt_squared: MCStatistic
    ratio_unsquared: float
    ratio_unsquared_defined: bool
    ratio_printed: float
    ratio_printed_defined: bool
    g_mode: str


def _check_coupled(ensA: Ensemble, ensB: Ensemble, grid: Grid):
    if ensA.grid != grid or ensB.grid != grid:
        raise CouplingError("ensembles live on different grids")
    if ensA.paths != ensB.paths:
        raise CouplingError(
            f"path counts differ: {ensA.paths} vs {ensB.paths}"
        )
    for k, (ta, tb) in enumerate(zip(ensA.trajectories, ensB.trajectories)):
        if ta.path.seed != tb.path.seed:
            raise CouplingError(
                f"path {k} seeds differ ({ta.path.seed} vs {tb.path.seed}); "
                "the difference system needs common noise"
            )
    ca, cb = ensA.coeffs, ensB.coeffs
    if (ca is None) != (cb is None):
        raise CouplingError("only one ensemble carries its coefficients")
    if ca is not None:
        for name in ("a", "b", "c", "d"):
            if not np.array_equal(
                getattr(ca, name).values, getattr(cb, name).values
            ):
                raise CouplingError(
                    f"coefficient {name} differs between the ensembles"
                )


def stability_terms(
    ensA: Ensemble,
    ensB: Ensemble,
    dataA: ProblemData,
    dataB: ProblemData,
    grid: Grid,
    g_mode: str = "space_time",
) -> StabilityReport:
    """Norms of the data differences vs the observation differences of
    two ensembles driven by identical noise and coefficients."""
    if g_mode not in ("space_time", "space_only"):
        raise ValueError(f"unknown g_mode {g_mode!r}")
    if dataA.grid != grid or dataB.grid != grid:
        raise MeshMismatchError("problem data lives on a different grid")
    _check_coupled(ensA, ensB, grid)
    P = ensA.paths

    gdiff = dataA.g - dataB.g
    if g_mode == "space_only":
        cols = gdiff.values
        if not np.all(cols == cols[:, :1]):
            raise ValueError(
                "g_mode='space_only' but the g difference varies in time"
            )
        gslice = GridFunction(
            grid, cols[:, 0], grid.space_axis("primal"), None
        )
        G = norm(gslice, "L2")
    else:
        G = norm(gdiff, "L2")
    Y0 = norm(dataA.y0 - dataB.y0, "H1")
    Y1 = norm(
        dataA.y1.restrict(space="primal") - dataB.y1.restrict(space="primal"),
        "L2",
    )

    sax = grid.space_axis("closure")
    N = grid.N
    per = {key: [] for key in ("FLUX", "XT", "XT2", "DTDX")}
    for ta, tb in zip(ensA.trajectories, ensB.trajectories):
        ydiff = GridFunction(
            grid, ta.y.values - tb.y.values, sax, grid.time_axis("closure")
        )
        fl = trace(diff_x(ydiff), "left").restrict(time="primal")
        per["FLUX"].append(norm(fl, "L2"))

        ty = GridFunction(grid, ydiff.values[:, N].copy(), sax, None)
        tv = GridFunction(
            grid,
            (ydiff.values[:, N + 1] - ydiff.values[:, N]) / grid.dt,
            sax,
            None,
        )
        xt = norm((ty, tv), "XT")
        per["XT"].append(xt)
        per["XT2"].append(xt * xt)

        dtdx = diff_t(diff_x(ydiff)).restrict(time="dual")
        per["DTDX"].append(grid.dx * norm(dtdx, "L2"))

    lhs = {
        "G": _const_stat(G, P),
        "Y0": _const_stat(Y0, P),
        "Y1": _const_stat(Y1, P),
    }
    rhs = {
        "FLUX": _stat(per["FLUX"]),
        "XT": _stat(per["XT"]),
        "DTDX": _stat(per["DTDX"]),
    }
    xt2 = _stat(per["XT2"])
    _check_nonnegative(lhs, "lhs")
    _check_nonnegative(rhs, "rhs")
    num = sum(t.mean for t in lhs.values())
    r_u, d_u = _ratio(num, rhs["FLUX"].mean + rhs["XT"].mean + rhs["DTDX"].mean)
    r_p, d_p = _ratio(num, rhs["FLUX"].mean + xt2.mean + rhs["DTDX"].mean)
    return StabilityReport(
        lhs=lhs,
        rhs=rhs,
        xt_squared=xt2,
        ratio_unsquared=r_u,
        ratio_unsquared_defined=d_u,
        ratio_printed=r_p,
        ratio_printed_defined=d_p,
        g_mode=g_mode,
    )


# ---------------------------------------------------------------------------
# martingale statistic


def martingale_check(ens: Ensemble, grid: Grid) -> MCStatistic:
    """Mean and standard error of the adapted Ito-type sum

        sum_{j=1..M, n=1..N} y^n_j dB^n dx dt

    whose expectation vanishes because y^n depends only on increments
    before n.  Needs at least 100 paths for a meaningful error bar."""
    if ens.grid != grid:
        raise MeshMismatchError("ensemble lives on a different grid")
    if ens.paths < 100:
        raise ValueError(
            f"martingale check needs >= 100 paths, got {ens.paths}"
        )
    M, N = grid.M, grid.N
    factor = grid.dx * grid.dt
    vals = []
    for traj in ens.trajectories:
        v = traj.y.values[1 : M + 1, 1 : N + 1]
        inc = traj.path.increments[1 : N + 1]
        vals.append(float(np.sum(v * inc[None, :])) * factor)
    return _stat(vals)
