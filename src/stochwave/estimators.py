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
subcommand this way), or whole Windows: run_ensemble's consecutive
path blocks of one path family, or solve's one path.  Every term is a
sum over time levels, so it is folded window by window into per-path
accumulators, vectorized over the paths of a window; a whole Window is
reduced through the same windows, as views of its history.  _fold is
the one home of this block protocol: each estimator passes it a
reducer that returns only one window's per-path sums, so the window's
temporaries are freed before the next window is stepped.

The squared fields y^2, (Dt y)^2, (Dx y)^2 and (Dt Dx y)^2 come from
_native.fields(): compiled loops or the NumPy reference they equal bit
for bit, imported and loaded at the first window, so neither importing
the package nor a run without these estimators pays for them.  Each
writes into one buffer per window that the reducer reuses.  The
boundary flux and the terminal pair come from solver.observe, which
_fold calls once per window, and the reducer squares the flux
in place; every row sum and every einsum stays in NumPy.  carleman
reduces each squared field against its factors as soon as it is made,
and stability reduces a window in path chunks of _CHUNK_NODES nodes,
holding one chunk's fields at a time.  A path's sums read only its own rows, through
element-wise operations, row sums and einsum dot products (never BLAS,
whose rounding can depend on the row count), and the statistics are
taken once over all paths, so the results do not depend on the block
or chunk size, nor on which field implementation ran.

carleman's weight factors are evaluated before any path is stepped,
by carleman_weights, straight into one time-major stack per term for
all weight sets: each point set of a weight set (dual x primal, dual x
dual, primal x primal, the two t = 0 slices, x = dx/2) evaluates
varphi once, makes r^2 from it, writes its factors into the stack rows
and frees its arrays before the next point set is evaluated.

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
from .solver import ProblemData, Window, observe
from .weights import (
    _MAX_EXP,
    WeightParams,
    check_admissible,
    eval_varphi,
    r_squared_of,
)
from .weights import eval_weights, r_squared  # noqa: F401  (bound for bench/tracer.py)

# nodes of a window (paths x (L+2) x (M+2)) whose Dx y fields stability
# holds at a time; fixed like solver._BLOCK_NODES, so the chunking
# depends only on the mesh
_CHUNK_NODES = 1 << 15

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


def _fold(ens, grid: Grid, reduce, observed: bool = True):
    """Sum reduce(win, flux), one window's per-path sums with the paths
    on the last axis, over the stream windows of ens (one Window or an
    iterable of them; a whole Window is split by Window.windows()) and
    concatenate the path blocks in order.  With observed, each window's
    observation is formed once, by solver.observe: reduce gets
    its flux rows, which it may overwrite, and the terminal pair of each
    block's last window gives the paths' XT norms.  Returns (sums, xts),
    xts None and flux None without observed."""
    blocks, xts, flux = [], [], None
    for item in (ens,) if isinstance(ens, Window) else ens:
        if not isinstance(item, Window):
            raise TypeError(f"expected a Window, got {type(item).__name__}")
        if item.grid != grid:
            raise MeshMismatchError("ensemble lives on a different grid")
        for win in item.windows():
            if win.n0 == 0:
                acc = 0.0  # +0.0: a block's sums are never -0.0
            if observed:
                flux, terminal = observe(win, grid)
                if terminal is not None:
                    xts.append(xt_norm_values(*terminal, grid.dx))
            acc = acc + reduce(win, flux)
            if win.last:
                blocks.append(acc)
    return (np.concatenate(blocks, axis=-1),
            np.concatenate(xts) if observed else None)


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


def _weight_set(w: WeightParams, data: ProblemData, grid: Grid,
                rows: dict) -> dict:
    """Write the weight factors of the per-path terms L1, L2, L3, R2, R3
    into rows[key], each term's (time, space) row of its stack, at the
    mesh points where the integrand lives, and return the data terms
    L4..L7, R1, which are equal on every path.

    Each point set's varphi is evaluated once and its r^2 made from it,
    and the set's arrays are freed before the next set's are made."""
    s, lam = w.s, w.lam
    xp = grid.space_primal[:, None]
    xd = grid.space_dual[:, None]
    tp = grid.time_primal[None, :]
    td = grid.time_dual[None, :]

    def w1_r2(x, t):
        """s*lam*varphi and r^2 at (x, t), from one varphi."""
        w1 = eval_varphi(w, x, t)
        r2 = r_squared_of(w, w1)
        w1 *= s * lam
        return w1, r2

    w1, r2 = w1_r2(xd, tp)
    np.multiply(w1, r2, out=rows["L3"].T)
    del w1, r2
    # mixed factor, no r^2, following the printed term
    np.multiply(s * lam * lam, eval_varphi(w, xd, td), out=rows["R3"].T)

    w1, r2 = w1_r2(xp, tp)
    buf = np.multiply(w1, r2)
    rows["L2"].T[...] = buf
    # L4 and R1 are summed over C-ordered (space, time) products, not
    # over the transposed stack rows, whose sums round differently
    buf *= (data.g * data.g).values
    L4 = integrate(_weight_gf(grid, buf, "primal", "primal"), "MxN")
    np.multiply(np.power(w1, 3, out=buf), r2, out=rows["L1"].T)
    del w1, buf
    R1 = integrate(_weight_gf(grid, r2, "primal", "primal")
                   * (data.f * data.f), "MxN")
    del r2

    # initial-time factors
    w1, r2 = w1_r2(grid.space_primal, 0.0)
    f_L5 = _weight_gf(grid, w1**3 * r2, "primal", None)
    f_L7 = _weight_gf(grid, w1 * r2, "primal", None)
    w1, r2 = w1_r2(grid.space_dual, 0.0)
    f_L6 = _weight_gf(grid, w1 * r2, "dual", None)
    # boundary factor (no r^2, following the printed term)
    np.multiply(s * lam, eval_varphi(w, 0.5 * grid.dx, tp).ravel(),
                out=rows["R2"])

    y0p = data.y0.restrict(space="primal")
    dxy0 = diff_x(data.y0)
    y1p = data.y1.restrict(space="primal")
    return {
        "L4": L4,
        "L5": integrate(f_L5 * (y0p * y0p), "M"),
        "L6": integrate(f_L6 * (dxy0 * dxy0), "M*"),
        "L7": integrate(f_L7 * (y1p * y1p), "M"),
        "R1": R1,
    }


_PATH_TERMS = ("L1", "L2", "L3", "R2", "R3")


def carleman_stack_shapes(grid: Grid, K: int) -> dict:
    """The shape of carleman_weights' time-major factor stack of each
    path term for K weight sets: (K,) and the term's (time, space) mesh
    points, as _weight_set places them."""
    tp, td = grid.time_primal.size, grid.time_dual.size
    xp, xd = grid.space_primal.size, grid.space_dual.size
    return {"L1": (K, tp, xp), "L2": (K, tp, xp), "L3": (K, tp, xd),
            "R2": (K, tp), "R3": (K, td, xd)}


def _weighted(x: np.ndarray, F: np.ndarray, n0: int) -> np.ndarray:
    """(P, K) sums of a window's field x (P, L, ...) against the rows
    n0 .. n0+L-1 of every weight set's factor F (K, N, ...): one einsum
    dot product of each path's row with each factor row."""
    P, K, L = x.shape[0], F.shape[0], x.shape[1]
    return np.einsum(
        "pk,wk->pw", x.reshape(P, -1), F[:, n0 : n0 + L].reshape(K, -1)
    )


def _carleman_window(win: Window, flux: np.ndarray, stacks: dict,
                     grid: Grid) -> np.ndarray:
    """One window's (terms, K, P) sums of every path term against
    stacks[key]; each squared field is made in one reused buffer and
    reduced as soon as it is made, R2's by squaring the window's flux
    rows (observe) in place."""
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
    flux *= flux
    out[3] = _weighted(flux, stacks["R2"], n0).T
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
        ens, grid, lambda win, flux: _carleman_window(win, flux, stacks, grid)
    )
    per = dict(zip(_PATH_TERMS, sums))
    for key in ("L1", "L2", "L3", "R3"):
        per[key] *= grid.dx * grid.dt
    per["R2"] *= grid.dt
    per["R3"] *= grid.dx**2
    return per, xts


@dataclass(frozen=True)
class CarlemanWeights:
    """What carleman_terms reduces the windows against, for K weight
    sets in order: their params, kappas and admissibility reports, one
    time-major (K, N, ...) factor stack per path term, their data terms
    and their R4 scales s^3 e^(kappa*s).  single says that one
    WeightParams was given."""

    params: list
    kappas: list
    reports: list
    stacks: dict
    data_terms: list
    r4_scales: list
    single: bool


@_quiet_overflow
def carleman_weights(w, data: ProblemData, grid: Grid,
                     kappa=0.0) -> CarlemanWeights:
    """Evaluate the weight sets of carleman_terms (its w, data, grid and
    kappa) before any path is stepped, with the same errors: a factor
    or an R4 scale that overflows float64 raises here.

    The time-major (K, N, ...) stack of each term is allocated first,
    and each weight set's factors are written straight into its rows,
    so the stacks are the only copy of the factors.  A set is evaluated
    one point set at a time, with one varphi each, and a point set's
    arrays are freed before the next one's are made."""
    if data.grid != grid:
        raise MeshMismatchError("problem data lives on a different grid")
    single = isinstance(w, WeightParams)
    ws = [w] if single else list(w)
    kappas = [kappa] * len(ws) if np.ndim(kappa) == 0 else list(kappa)
    if len(kappas) != len(ws):
        raise ValueError(
            f"{len(kappas)} kappa values for {len(ws)} weight parameter sets"
        )

    stacks = {key: np.empty(shape) for key, shape
              in carleman_stack_shapes(grid, len(ws)).items()}
    reps, data_terms, r4_scales = [], [], []
    for k, (wk, kap) in enumerate(zip(ws, kappas)):
        reps.append(check_admissible(wk, grid))
        rows = {key: stack[k] for key, stack in stacks.items()}
        data_terms.append(_weight_set(wk, data, grid, rows))
        if kap * wk.s > _MAX_EXP or wk.s > _MAX_CUBE_ROOT:
            raise FloatingPointError(
                f"s^3 e^(kappa*s) overflows float64 for s = {wk.s}, "
                f"kappa*s = {kap * wk.s}"
            )
        r4_scales.append(wk.s**3 * math.exp(kap * wk.s))
    return CarlemanWeights(ws, kappas, reps, stacks, data_terms, r4_scales,
                           single)


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
    float for all of them or a sequence of the same length.  w may also
    be carleman_weights(w, data, grid, kappa), evaluated before the
    stream was made; kappa is then not read.  The squared fields do not
    depend on the weights, so they are computed once per window and
    reduced against every weight set."""
    cw = (w if isinstance(w, CarlemanWeights)
          else carleman_weights(w, data, grid, kappa))
    ws, kappas, reps = cw.params, cw.kappas, cw.reports
    data_terms, r4_scales, stacks = cw.data_terms, cw.r4_scales, cw.stacks

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
    return out[0] if cw.single else out


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


def _stability_window(Y: np.ndarray, flux: np.ndarray,
                      grid: Grid) -> np.ndarray:
    """(2, P) row sums of the squared boundary flux, from the window's
    flux rows (observe) squared in place, and of (Dt Dx y)^2 of
    its Y, reduced in path chunks of at most _CHUNK_NODES nodes (at
    least one path): one chunk's fields are held at a time, in one
    reused buffer.  Each path's sums read only its own rows, so the
    chunk size does not change them."""
    from . import _native  # at the first window: importing costs setup

    P, L, M = Y.shape[0], Y.shape[1] - 2, Y.shape[2] - 2
    f = _native.fields()
    step = max(1, _CHUNK_NODES // (Y.shape[1] * Y.shape[2]))
    buf = np.empty(min(step, P) * L * (M + 1))
    out = np.empty((2, P))
    flux *= flux
    out[0] = _row_sums(flux)
    for p in range(0, P, step):
        y = Y[p : p + step]
        dtdx2 = buf[: y.shape[0] * L * (M + 1)].reshape(-1, L, M + 1)
        f.dtdx2(y, dtdx2, grid.dx, grid.dt)
        out[1, p : p + step] = _row_sums(dtdx2)
    return out


def _stability_sums(ens, grid: Grid):
    """Per-path FLUX, XT and DTDX norms of the difference system's paths
    z = yA - yB, folded window by window."""
    (fl, dtdx), xts = _fold(
        ens, grid, lambda win, flux: _stability_window(win.Y, flux, grid)
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
        # a zero-stride time axis holds one column: nothing to compare
        if cols.strides[1] and not np.all(cols == cols[:, :1]):
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


# fewest paths whose standard error martingale_check trusts
MARTINGALE_MIN_PATHS = 100


@_quiet_overflow
def martingale_check(ens, grid: Grid) -> MCStatistic:
    """Mean and standard error of the adapted Ito-type sum

        sum_{j=1..M, n=1..N} y^n_j dB^n dx dt

    whose expectation vanishes because y^n depends only on increments
    before n.  ens is one Window or an iterable of Windows.  Needs at
    least 100 paths for a meaningful error bar."""
    M = grid.M

    def reduce(win, flux):
        return np.einsum(
            "pnj,pn->p", win.Y[:, 1:-1, 1 : M + 1], win.dB[:, 1:]
        )

    vals, _ = _fold(ens, grid, reduce, observed=False)
    if vals.shape[0] < MARTINGALE_MIN_PATHS:
        raise ValueError(
            f"martingale check needs >= {MARTINGALE_MIN_PATHS} paths, got "
            f"{vals.shape[0]}"
        )
    vals *= grid.dx * grid.dt
    st = _stat(vals)
    _check_finite({"sum": st}, "martingale")
    return st
