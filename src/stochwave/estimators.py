"""Monte Carlo assembly of the weighted energy and stability estimates.

Every term is a discrete integral of a squared field against an
exponential weight factor, evaluated path by path and then averaged.
Weight factors are computed at the mesh coordinates where the integrand
lives: primal nodes for y-squared terms, dual space points for |Dx y|^2,
the dual-adjacent point x = dx/2 for the boundary flux, and dual-dual
points for the mixed second difference.  Data terms (initial data,
sources) do not vary across paths, so their standard error is zero by
construction.

Each estimator takes one Ensemble or an iterable of Ensembles, the
consecutive path blocks of one path family (stochwave.cli streams every
stepping subcommand this way).  A block is reduced to per-path scalars
before the next one is drawn, and the statistics are taken once over
all paths, so the results do not depend on the block size.

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

from .errors import MeshMismatchError
from .grids import Grid, GridFunction, integrate, norm, xt_norm_values
from .operators import diff_x
from .solver import Ensemble, ProblemData
from .solver import observe  # noqa: F401  (bound for bench/tracer.py)
from .weights import (
    WeightParams,
    check_admissible,
    eval_weights,
    r_squared,
)

_MAX_EXP = math.log(np.finfo(np.float64).max)
_MAX_CUBE_ROOT = float(np.finfo(np.float64).max) ** (1 / 3)

# node products per reduction of martingale_check (512 KB of scratch)
_MARTINGALE_BLOCK_NODES = 1 << 16


@dataclass(frozen=True)
class MCStatistic:
    """Sample mean with its Monte Carlo standard error."""

    mean: float
    stderr: float
    paths: int


def _reduce_blocks(ens, grid: Grid, reduce) -> list:
    """[reduce(block) for each block of ens], holding no block once it
    is reduced: the next block is drawn only after this one is freed.
    One Ensemble is a single block; anything else is an iterable of
    blocks."""
    parts = []
    for block in (ens,) if isinstance(ens, Ensemble) else ens:
        if block.grid != grid:
            raise MeshMismatchError("ensemble lives on a different grid")
        parts.append(reduce(block))
        del block
    return parts


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


def _weight_set(w: WeightParams, data: ProblemData, grid: Grid):
    """Weight factors of the per-path terms L1, L2, L3, R2, R3, as
    (space, time) arrays at the mesh points where each integrand lives,
    and the data terms L4..L7, R1, which are equal on every path."""
    s, lam = w.s, w.lam
    xp = grid.space_primal[:, None]
    xd = grid.space_dual[:, None]
    tp = grid.time_primal[None, :]
    td = grid.time_dual[None, :]

    def w1(x, t):
        return s * lam * eval_weights(w, x, t).varphi

    # dual-space factors first: their evaluation temporaries are then
    # freed before the primal ones are made, which keeps the peak low
    f = {
        "L3": w1(xd, tp) * r_squared(w, xd, tp),
        # mixed factor, no r^2, following the printed term
        "R3": s * lam * lam * eval_weights(w, xd, td).varphi,
    }
    w1_pp = w1(xp, tp)
    r2_pp = r_squared(w, xp, tp)
    f["L1"] = w1_pp**3 * r2_pp
    f["L2"] = w1_pp * r2_pp
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
    # boundary factor (no r^2, following the printed term)
    f["R2"] = w1(0.5 * grid.dx, tp).ravel()

    gp = data.g
    y0p = data.y0.restrict(space="primal")
    dxy0 = diff_x(data.y0)
    y1p = data.y1.restrict(space="primal")
    f_L2 = _weight_gf(grid, f["L2"], "primal", "primal")
    d = {
        "L4": integrate(f_L2 * (gp * gp), "MxN"),
        "L5": integrate(f_L5 * (y0p * y0p), "M"),
        "L6": integrate(f_L6 * (dxy0 * dxy0), "M*"),
        "L7": integrate(f_L7 * (y1p * y1p), "M"),
        "R1": 0.0,
    }
    if data.f is not None:
        f_R1 = _weight_gf(grid, r2_pp, "primal", "primal")
        d["R1"] = integrate(f_R1 * (data.f * data.f), "MxN")
    return f, d


_PATH_TERMS = ("L1", "L2", "L3", "R2", "R3")


def _carleman_block(ens: Ensemble, factors, grid: Grid):
    """Per-path terms of one block against every weight set: a dict of
    (weight sets, paths) arrays and the paths' XT norms.  Each path's
    fields are computed once; ensemble arrays and fields are indexed
    [n, j], the weight factors (space, time)."""
    N, M = grid.N, grid.M
    dx, dt = grid.dx, grid.dt
    dxdt = dx * dt
    P = ens.paths
    per = {key: np.empty((len(factors), P)) for key in _PATH_TERMS}
    xts = np.empty(P)
    for p in range(P):
        y = ens.Y[p]
        ypp = y[1 : N + 1, 1 : M + 1]
        y2 = ypp * ypp
        dty2 = (y[2 : N + 2, 1 : M + 1] - ypp) / dt  # forward Dt, t^1..t^N
        dty2 *= dty2
        dxy = (y[:, 1:] - y[:, :-1]) / dx
        dxy_p = dxy[1 : N + 1]
        dxy2 = dxy_p * dxy_p
        fl = dxy_p[:, 0]  # boundary flux at x = dx/2
        fl2 = fl * fl
        dtdx2 = (dxy[1 : N + 1] - dxy[:N]) / dt  # Dt Dx y at dual times
        dtdx2 *= dtdx2
        xts[p] = xt_norm_values(y[N], (y[N + 1] - y[N]) / dt, dx)
        for k, f in enumerate(factors):
            per["L1"][k, p] = float(np.sum(f["L1"] * y2.T) * dxdt)
            per["L2"][k, p] = float(np.sum(f["L2"] * dty2.T) * dxdt)
            per["L3"][k, p] = float(np.sum(f["L3"] * dxy2.T) * dxdt)
            per["R2"][k, p] = float(np.sum(f["R2"] * fl2) * dt)
            per["R3"][k, p] = dx**2 * float(
                np.sum(f["R3"] * dtdx2.T) * dxdt
            )
    return per, xts


def carleman_terms(
    ens,
    w,
    data: ProblemData,
    grid: Grid,
    kappa=0.0,
):
    """Assemble the seven weighted interior/initial terms and the four
    observation-side terms.  An inadmissible configuration still
    computes everything; only the report flag records the violation.
    ens is one Ensemble or an iterable of path blocks.

    w is one WeightParams, giving one CarlemanReport, or a sequence of
    them, giving a list of reports in the same order; kappa is then a
    float for all of them or a sequence of the same length.  Each
    path's squared fields do not depend on the weights, so they are
    computed once per path and reduced against every weight set."""
    if data.grid != grid:
        raise MeshMismatchError("problem data lives on a different grid")
    single = isinstance(w, WeightParams)
    ws = [w] if single else list(w)
    kappas = [kappa] * len(ws) if np.ndim(kappa) == 0 else list(kappa)
    if len(kappas) != len(ws):
        raise ValueError(
            f"{len(kappas)} kappa values for {len(ws)} weight parameter sets"
        )

    reps, factors, data_terms, r4_scales = [], [], [], []
    for wk, kap in zip(ws, kappas):
        reps.append(check_admissible(wk, grid))
        f, d = _weight_set(wk, data, grid)
        factors.append(f)
        data_terms.append(d)
        if kap * wk.s > _MAX_EXP or wk.s > _MAX_CUBE_ROOT:
            raise FloatingPointError(
                f"s^3 e^(kappa*s) overflows float64 for s = {wk.s}, "
                f"kappa*s = {kap * wk.s}"
            )
        r4_scales.append(wk.s**3 * math.exp(kap * wk.s))

    parts = _reduce_blocks(
        ens, grid, lambda block: _carleman_block(block, factors, grid)
    )
    per = {
        key: np.concatenate([part[0][key] for part in parts], axis=1)
        for key in _PATH_TERMS
    }
    xts = np.concatenate([part[1] for part in parts])
    P = xts.shape[0]
    xt2 = xts * xts
    xt_stat = _stat(xts)

    out = []
    for k, (wk, kap, rep, d) in enumerate(zip(ws, kappas, reps, data_terms)):
        lhs = {
            "L1": _stat(per["L1"][k]),
            "L2": _stat(per["L2"][k]),
            "L3": _stat(per["L3"][k]),
            "L4": _const_stat(d["L4"], P),
            "L5": _const_stat(d["L5"], P),
            "L6": _const_stat(d["L6"], P),
            "L7": _const_stat(d["L7"], P),
        }
        rhs = {
            "R1": _const_stat(d["R1"], P),
            "R2": _stat(per["R2"][k]),
            "R3": _stat(per["R3"][k]),
            "R4": _stat(r4_scales[k] * xts * xts),
        }
        _check_nonnegative(lhs, "lhs")
        _check_nonnegative(rhs, "rhs")
        den = (
            rhs["R1"].mean
            + rhs["R2"].mean
            + rhs["R3"].mean
            + wk.s**3 * float(np.mean(xt2))
        )
        ratio, defined = _ratio(sum(t.mean for t in lhs.values()), den)
        out.append(
            CarlemanReport(
                lhs=lhs,
                rhs=rhs,
                xt_norm=xt_stat,
                ratio=ratio,
                ratio_defined=defined,
                admissible=rep.overall,
                admissibility=rep,
                s=wk.s,
                lam=wk.lam,
                kappa=kap,
            )
        )
    return out[0] if single else out


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


def _stability_block(Y, grid: Grid):
    """Per-path FLUX, XT and DTDX norms of a block of the difference
    system: Y[p] is path p's z = yA - yB as an [n, j] array."""
    N = grid.N
    dx, dt = grid.dx, grid.dt
    per = {key: np.empty(Y.shape[0]) for key in ("FLUX", "XT", "DTDX")}
    for p, ydiff in enumerate(Y):
        dxy = (ydiff[:, 1:] - ydiff[:, :-1]) / dx
        fl = dxy[1 : N + 1, 0]  # boundary flux at x = dx/2
        per["FLUX"][p] = float(np.sqrt(float(np.sum(fl * fl) * dt)))
        per["XT"][p] = xt_norm_values(
            ydiff[N], (ydiff[N + 1] - ydiff[N]) / dt, dx
        )
        dtdx = (dxy[1 : N + 1] - dxy[:N]) / dt  # Dt Dx at dual times
        per["DTDX"][p] = dx * float(
            np.sqrt(float(np.sum(dtdx * dtdx) * (dx * dt)))
        )
    return per


def stability_terms(
    ens, diff: ProblemData, grid: Grid, *, g_mode: str = "space_time"
) -> StabilityReport:
    """Norms of the data differences vs the observation differences of
    two problems driven by identical noise and coefficients.

    ens is the difference system itself: the paths z = yA - yB stepped
    from diff = dataA.difference(dataB) with the pair's coefficients
    and master seed (the scheme is linear in its data, so one stepped
    family gives the path-wise difference of the two solutions).  ens
    is one Ensemble or an iterable of path blocks."""
    if g_mode not in ("space_time", "space_only"):
        raise ValueError(f"unknown g_mode {g_mode!r}")
    if diff.grid != grid:
        raise MeshMismatchError("problem data lives on a different grid")
    parts = _reduce_blocks(
        ens, grid, lambda block: _stability_block(block.Y, grid)
    )
    per = {
        key: np.concatenate([part[key] for part in parts])
        for key in ("FLUX", "XT", "DTDX")
    }
    # data terms after the stepping: computed first, their 2 MB
    # temporaries (127 x 2048 mesh) left the heap about 2 MB larger
    # under the resident block
    if g_mode == "space_only":
        cols = diff.g.values
        if not np.all(cols == cols[:, :1]):
            raise ValueError(
                "g_mode='space_only' but the g difference varies in time"
            )
        gslice = GridFunction(
            grid, cols[:, 0], grid.space_axis("primal"), None
        )
        G = norm(gslice, "L2")
    else:
        G = norm(diff.g, "L2")
    Y0 = norm(diff.y0, "H1")
    Y1 = norm(diff.y1.restrict(space="primal"), "L2")
    P = per["XT"].shape[0]

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
    xt2 = _stat(per["XT"] * per["XT"])
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


def _martingale_sums(ens: Ensemble, grid: Grid) -> np.ndarray:
    """Per-path sums of y^n_j dB^n over the interior, one reduction per
    run of _MARTINGALE_BLOCK_NODES node products.  Each path's N x M
    products are one contiguous run of the product array, so its sum is
    that of the path alone: the result does not depend on the run
    length."""
    M, N = grid.M, grid.N
    step = max(1, _MARTINGALE_BLOCK_NODES // (N * M))
    vals = np.empty(ens.paths)
    for p in range(0, ens.paths, step):
        y = ens.Y[p : p + step, 1 : N + 1, 1 : M + 1]
        inc = ens.dB[p : p + step, 1 : N + 1, None]
        vals[p : p + step] = (y * inc).sum(axis=(1, 2))
    return vals


def martingale_check(ens, grid: Grid) -> MCStatistic:
    """Mean and standard error of the adapted Ito-type sum

        sum_{j=1..M, n=1..N} y^n_j dB^n dx dt

    whose expectation vanishes because y^n depends only on increments
    before n.  ens is one Ensemble or an iterable of path blocks.
    Needs at least 100 paths for a meaningful error bar."""
    parts = _reduce_blocks(
        ens, grid, lambda block: _martingale_sums(block, grid)
    )
    vals = np.concatenate(parts) if parts else np.empty(0)
    if vals.shape[0] < 100:
        raise ValueError(
            f"martingale check needs >= 100 paths, got {vals.shape[0]}"
        )
    vals *= grid.dx * grid.dt
    return _stat(vals)
