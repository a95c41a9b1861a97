"""Monte Carlo assembly of the weighted energy and stability estimates.

Every term is a discrete integral of a squared field against an
exponential weight factor, evaluated path by path and then averaged.
Weight factors are computed at the mesh coordinates where the integrand
lives: primal nodes for y-squared terms, dual space points for |Dx y|^2,
the dual-adjacent point x = dx/2 for the boundary flux, and dual-dual
points for the mixed second difference.  Data terms (initial data,
sources) do not vary across paths, so their standard error is zero by
construction.

Each estimator takes one Window, or an iterable of Windows: the window
stream of solver.stream_windows (stochwave.cli streams every stepping
subcommand this way), or whole Windows from run_ensemble, the
consecutive path blocks of one path family.  Every term is a sum over
time levels, so it is folded window by window into per-path
accumulators, vectorized over the paths of a window; a whole Window is
reduced through the same windows, as views of its history.  _fold is
the one home of this block protocol: each estimator passes it a
reducer that returns only one window's per-path sums, so the window's
temporaries are freed before the next window is stepped.

The squared fields y^2, (Dt y)^2, (Dx y)^2 and (Dt Dx y)^2 come from
_native.fields(): compiled loops or the NumPy reference they equal bit
for bit, imported and loaded at the first window, so neither importing
the package nor a run without these estimators pays for them.  Each
writes into one buffer per window that the reducer reuses; the squared
boundary flux, every row sum and every einsum stay in NumPy.  carleman
reduces each squared field against its factors as soon as it is made,
and stability reduces a window in path chunks of _CHUNK_NODES nodes,
holding one chunk's fields at a time.  A path's sums read only its own rows, through
element-wise operations, row sums and einsum dot products (never BLAS,
whose rounding can depend on the row count), and the statistics are
taken once over all paths, so the results do not depend on the block
or chunk size, nor on which field implementation ran.

Every term must come out finite: a term that overflows raises
FloatingPointError naming it, instead of reaching a report as inf or
nan.

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
from .solver import ProblemData, Window
from .solver import observe  # noqa: F401  (bound for bench/tracer.py)
from .weights import (
    WeightParams,
    check_admissible,
    eval_varphi,
    r_squared,
)
from .weights import eval_weights  # noqa: F401  (bound for bench/tracer.py)

# nodes of a window (paths x (L+2) x (M+2)) whose Dx y fields stability
# holds at a time; fixed like solver._BLOCK_NODES, so the chunking
# depends only on the mesh
_CHUNK_NODES = 1 << 15

_MAX_EXP = math.log(np.finfo(np.float64).max)
_MAX_CUBE_ROOT = float(np.finfo(np.float64).max) ** (1 / 3)

# the estimators report an overflow through their finite checks, as one
# FloatingPointError naming the term, not as NumPy warnings on the way
_quiet_overflow = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class MCStatistic:
    """Sample mean with its Monte Carlo standard error."""

    mean: float
    stderr: float
    paths: int


def _fold(ens, grid: Grid, reduce, xt: bool = True):
    """Sum reduce(win), one window's per-path sums with the paths on
    the last axis, over the stream windows of ens (one Window or an
    iterable of them; a whole Window is split by Window.windows()) and
    concatenate the path blocks in order.  Returns (sums, xts): xts
    holds the paths' terminal XT norms, taken from each block's last
    window, which holds levels N and N+1, or is None if xt is False."""
    blocks, xts = [], []
    for item in (ens,) if isinstance(ens, Window) else ens:
        if not isinstance(item, Window):
            raise TypeError(f"expected a Window, got {type(item).__name__}")
        if item.grid != grid:
            raise MeshMismatchError("ensemble lives on a different grid")
        for win in item.windows():
            if win.n0 == 0:
                acc = 0.0  # +0.0: a block's sums are never -0.0
            acc = acc + reduce(win)
            if win.last:
                blocks.append(acc)
                if xt:
                    yN = win.Y[:, -2]
                    dty = (win.Y[:, -1] - yN) / grid.dt
                    xts.append(xt_norm_values(yN, dty, grid.dx))
    return (np.concatenate(blocks, axis=-1),
            np.concatenate(xts) if xt else None)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Sum of each path's entries of x (P, ...)."""
    return x.reshape(x.shape[0], -1).sum(axis=1)


def _stat(per_path) -> MCStatistic:
    a = np.asarray(per_path, dtype=np.float64)
    n = a.shape[0]
    stderr = float(np.std(a, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return MCStatistic(mean=float(np.mean(a)), stderr=stderr, paths=n)


def _const_stat(value: float, paths: int) -> MCStatistic:
    return MCStatistic(mean=float(value), stderr=0.0, paths=paths)


def _ratio(num: float, den: float):
    """(ratio, defined) with zero denominators flagged, not propagated."""
    ratio = num / den if den != 0.0 else 0.0
    if not (math.isfinite(num) and math.isfinite(den)
            and math.isfinite(ratio)):
        raise FloatingPointError(f"ratio {num!r} / {den!r} is not finite")
    if den == 0.0:
        return None, False
    return ratio, True


def _check_finite(terms: dict, label: str):
    for key, stat in terms.items():
        if not (math.isfinite(stat.mean) and math.isfinite(stat.stderr)):
            raise FloatingPointError(
                f"{label} term {key} is not finite: mean {stat.mean!r}, "
                f"stderr {stat.stderr!r}"
            )


def _check_terms(terms: dict, label: str):
    """Every term's mean is finite and >= 0 and its error finite."""
    _check_finite(terms, label)
    for key, stat in terms.items():
        if stat.mean < 0.0:
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
        return s * lam * eval_varphi(w, x, t)

    # dual-space factors first: their evaluation temporaries are then
    # freed before the primal ones are made, which keeps the peak low
    f = {
        "L3": w1(xd, tp) * r_squared(w, xd, tp),
        # mixed factor, no r^2, following the printed term
        "R3": s * lam * lam * eval_varphi(w, xd, td),
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


def _weighted(x: np.ndarray, F: np.ndarray, n0: int) -> np.ndarray:
    """(P, K) sums of a window's field x (P, L, ...) against the rows
    n0 .. n0+L-1 of every weight set's factor F (K, N, ...): one einsum
    dot product of each path's row with each factor row."""
    P, K, L = x.shape[0], F.shape[0], x.shape[1]
    return np.einsum(
        "pk,wk->pw", x.reshape(P, -1), F[:, n0 : n0 + L].reshape(K, -1)
    )


def _carleman_window(win: Window, stacks: dict, grid: Grid) -> np.ndarray:
    """One window's (terms, K, P) sums of every path term against
    stacks[key]; each squared field is made in one reused buffer and
    reduced as soon as it is made."""
    from . import _native  # at the first window: importing costs setup

    Y, P, L, M, n0 = win.Y, win.paths, win.levels, grid.M, win.n0
    f, dx, dt = _native.fields(), grid.dx, grid.dt
    out = np.empty((len(_PATH_TERMS), stacks["L1"].shape[0], P))
    buf = np.empty(P * L * (M + 1))
    interior, dual = buf[: P * L * M].reshape(P, L, M), buf.reshape(P, L, -1)
    f.y2(Y, interior, dx, dt)
    out[0] = _weighted(interior, stacks["L1"], n0).T
    f.dty2(Y, interior, dx, dt)
    out[1] = _weighted(interior, stacks["L2"], n0).T
    f.dxy2(Y, dual, dx, dt)
    out[2] = _weighted(dual, stacks["L3"], n0).T
    out[3] = _weighted(_native.flux2(Y, dx), stacks["R2"], n0).T
    f.dtdx2(Y, dual, dx, dt)
    out[4] = _weighted(dual, stacks["R3"], n0).T
    return out


def _carleman_sums(ens, stacks: dict, grid: Grid):
    """Per-path terms against every weight set, a dict of (weight sets,
    paths) arrays, and the paths' XT norms.  Each window's squared
    fields are computed once and reduced against stacks[key], the
    factors of every weight set stacked time-major as contiguous
    (K, N, ...) rows."""
    sums, xts = _fold(
        ens, grid, lambda win: _carleman_window(win, stacks, grid)
    )
    per = dict(zip(_PATH_TERMS, sums))
    for key in ("L1", "L2", "L3", "R3"):
        per[key] *= grid.dx * grid.dt
    per["R2"] *= grid.dt
    per["R3"] *= grid.dx**2
    return per, xts


@_quiet_overflow
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
    ens is one Window or an iterable of Windows.

    w is one WeightParams, giving one CarlemanReport, or a sequence of
    them, giving a list of reports in the same order; kappa is then a
    float for all of them or a sequence of the same length.  The
    squared fields do not depend on the weights, so they are computed
    once per window and reduced against every weight set.

    Each weight set's factors are moved into one time-major (K, N, ...)
    stack per term as soon as the set is evaluated, so the stacks are
    the only copy of the factors while the paths are stepped.  The
    stacks are allocated once the first set's evaluation temporaries
    are freed."""
    if data.grid != grid:
        raise MeshMismatchError("problem data lives on a different grid")
    single = isinstance(w, WeightParams)
    ws = [w] if single else list(w)
    kappas = [kappa] * len(ws) if np.ndim(kappa) == 0 else list(kappa)
    if len(kappas) != len(ws):
        raise ValueError(
            f"{len(kappas)} kappa values for {len(ws)} weight parameter sets"
        )

    stacks, reps, data_terms, r4_scales = {}, [], [], []
    for k, (wk, kap) in enumerate(zip(ws, kappas)):
        reps.append(check_admissible(wk, grid))
        f, d = _weight_set(wk, data, grid)
        for key in _PATH_TERMS:
            row = f.pop(key).T
            if k == 0:
                stacks[key] = np.empty((len(ws),) + row.shape)
            stacks[key][k] = row
        data_terms.append(d)
        if kap * wk.s > _MAX_EXP or wk.s > _MAX_CUBE_ROOT:
            raise FloatingPointError(
                f"s^3 e^(kappa*s) overflows float64 for s = {wk.s}, "
                f"kappa*s = {kap * wk.s}"
            )
        r4_scales.append(wk.s**3 * math.exp(kap * wk.s))

    per, xts = _carleman_sums(ens, stacks, grid)
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
        _check_terms(lhs, "lhs")
        _check_terms(rhs, "rhs")
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


def _stability_window(Y: np.ndarray, grid: Grid) -> np.ndarray:
    """(2, P) row sums of the squared boundary flux and (Dt Dx y)^2 of
    one window's Y, reduced in path chunks of at most _CHUNK_NODES nodes
    (at least one path): one chunk's fields are held at a time, in one
    reused buffer, and each path's sums read only its own rows, so the
    chunk size does not change them."""
    from . import _native  # at the first window: importing costs setup

    P, L, M = Y.shape[0], Y.shape[1] - 2, Y.shape[2] - 2
    f = _native.fields()
    step = max(1, _CHUNK_NODES // (Y.shape[1] * Y.shape[2]))
    buf = np.empty(min(step, P) * L * (M + 1))
    out = np.empty((2, P))
    for p in range(0, P, step):
        y = Y[p : p + step]
        dtdx2 = buf[: y.shape[0] * L * (M + 1)].reshape(-1, L, M + 1)
        f.dtdx2(y, dtdx2, grid.dx, grid.dt)
        out[0, p : p + step] = _row_sums(_native.flux2(y, grid.dx))
        out[1, p : p + step] = _row_sums(dtdx2)
    return out


def _stability_sums(ens, grid: Grid):
    """Per-path FLUX, XT and DTDX norms of the difference system's paths
    z = yA - yB, folded window by window."""
    (fl, dtdx), xts = _fold(
        ens, grid, lambda win: _stability_window(win.Y, grid)
    )
    dx, dt = grid.dx, grid.dt
    return {
        "FLUX": np.sqrt(fl * dt),
        "XT": xts,
        "DTDX": dx * np.sqrt(dtdx * (dx * dt)),
    }


@_quiet_overflow
def stability_terms(
    ens, diff: ProblemData, grid: Grid, *, g_mode: str = "space_time"
) -> StabilityReport:
    """Norms of the data differences vs the observation differences of
    two problems driven by identical noise and coefficients.

    ens is the difference system itself: the paths z = yA - yB stepped
    from diff = dataA.difference(dataB) with the pair's coefficients
    and master seed (the scheme is linear in its data, so one stepped
    family gives the path-wise difference of the two solutions).  ens
    is one Window or an iterable of Windows."""
    if g_mode not in ("space_time", "space_only"):
        raise ValueError(f"unknown g_mode {g_mode!r}")
    if diff.grid != grid:
        raise MeshMismatchError("problem data lives on a different grid")
    per = _stability_sums(ens, grid)
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
    _check_terms(lhs, "lhs")
    _check_terms(dict(rhs, XT_squared=xt2), "rhs")
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


@_quiet_overflow
def martingale_check(ens, grid: Grid) -> MCStatistic:
    """Mean and standard error of the adapted Ito-type sum

        sum_{j=1..M, n=1..N} y^n_j dB^n dx dt

    whose expectation vanishes because y^n depends only on increments
    before n.  ens is one Window or an iterable of Windows.  Needs at
    least 100 paths for a meaningful error bar."""
    M = grid.M

    def reduce(win):
        n0, L = win.n0, win.levels
        return np.einsum(
            "pnj,pn->p",
            win.Y[:, 1 : L + 1, 1 : M + 1],
            win.dB[:, n0 + 1 : n0 + L + 1],
        )

    vals, _ = _fold(ens, grid, reduce, xt=False)
    if vals.shape[0] < 100:
        raise ValueError(
            f"martingale check needs >= 100 paths, got {vals.shape[0]}"
        )
    vals *= grid.dx * grid.dt
    st = _stat(vals)
    _check_finite({"sum": st}, "martingale")
    return st
