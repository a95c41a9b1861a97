"""Explicit leapfrog stepping of the stochastic wave scheme.

The interior update for n = 1..N, j = 1..M reads

    y[n+1] (1 - c dt) = 2 y[n] - y[n-1]
                        + dt^2 (Dx2 y[n] + a y[n] + b AxDx y[n])
                        - c dt y[n]
                        + dt ((d y[n] + g) dB[n] + f dt)

with Dx2 the three-point second difference, AxDx the wide central
difference over 2 dx, dB[n] = B(t^{n+1}) - B(t^n), homogeneous Dirichlet
values pinned exactly to zero at j = 0 and j = M+1 for every stored
level, and start values y[0] = y0, y[1] = y0 + dt y1 (interior; the
boundary of y1 is overridden by the pinning).  Stepping runs to n = N
so the stored trajectory covers levels 0..N+1; the one-past-T level is
what makes forward time differences available at t = T.

The division by (1 - c dt) resolves the single-node implicitness of the
c-term in closed form, and a zero denominator anywhere is rejected as
SingularUpdateError when the SchemeCoefficients are built.  The
stepping kernel (_stepper_np) folds the constants into per-node weights
and evaluates each level as a weighted sum, equal to the update above
up to rounding, which scheme_residual checks.  solve, run_ensemble and
stream_windows all step through one loop, _step_blocks, in windows of
_WINDOW_LEVELS levels.
A family of paths is held as a Window of levels: stream_windows yields
them one _WINDOW_LEVELS span at a time, and run_ensemble returns one
whole Window that holds every level 0 .. N+1.
dt > dx sets a CFL warning flag instead of failing, since the explicit
scheme's stability limit is a modeling concern, not an API violation.

The inverse problem's observation of a path is the left boundary flux
(y_1^n - y_0^n) / dx at n = 1..N and the terminal pair y^N,
(y^{N+1} - y^N) / dt.  observe_window forms it on one Window, and is
the only code that does: the estimators read it window by window, and
observe reads it on a trajectory viewed as a one-path whole Window.

Reproducibility: Brownian increments are the standard normals of
NumPy's Generator(Philox(key=seed)), times sqrt(dt), and ensemble path
seeds are derived from (master_seed, path_index) by the splitmix64-style
mixer `path_seed`, whose constants are part of the package interface.
Same seeds, same inputs: bitwise-identical results on every backend and
schedule.  Philox is counter-based, so a path's stream is an 88-byte
record (key, counter and a 4-word buffer), and _native.normals draws
each from it in C through NumPy's own normal sampler, or, without the
compiled library, through one Generator per path, with the same bits.
A streamed block draws its increments one window at a time, so that
its memory does not grow with N; the draws are the same bits as at
once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._stepper_np import step_paths
from .errors import (
    BlowUpError,
    IncompleteTrajectoryError,
    MeshMismatchError,
    SingularUpdateError,
)
from .grids import Grid, GridFunction

# the name of step_paths, the one kernel; no setting selects another
backend_name = "numpy"

# splitmix64 mixing constants; part of the reproducibility interface
SEED_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

# nodes per time level of one path block: the kernel's rolling (M+2, B)
# levels stay cache-resident
_BLOCK_NODES = 1 << 14

# time levels a streamed block is stepped and reduced per window: a
# (B, 18, M+2) window is still in cache while the estimators read it.
# Fixed, not derived from B or the mesh, so that every path's sums run
# over the same windows whatever the block size.
_WINDOW_LEVELS = 16

# bytes budgeted per path for its noise stream: the reference
# sampler's Generator(Philox(key=seed)), about 700 with NumPy 2.4 (the
# compiled sampler's record is 88)
_GENERATOR_BYTES = 1024


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijection with good avalanche."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & _MASK64
    return z ^ (z >> 31)


def path_seed(master_seed: int, path_index: int) -> int:
    """Per-path seed: output path_index of the splitmix64 stream seeded
    by master_seed.  Injective in path_index for a fixed master seed
    (distinct mix64 inputs, and mix64 is bijective)."""
    if path_index < 0:
        raise ValueError(f"path_index must be >= 0, got {path_index}")
    return mix64((master_seed + (path_index + 1) * SEED_GAMMA) & _MASK64)


@dataclass(frozen=True)
class BrownianPath:
    """Increments dB[n] = B(t^{n+1}) - B(t^n) for n = 0..N.

    The scheme consumes n = 1..N (entry 0 is a same-distribution guard
    so the array aligns with time indexing); entry N reaches B(T+dt).
    """

    increments: np.ndarray
    seed: int

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=np.float64)
        if inc.ndim != 1 or inc.shape[0] < 2:
            raise ValueError(
                f"increments must be 1-D of length N+1 >= 2, got shape "
                f"{inc.shape}"
            )
        object.__setattr__(self, "increments", inc)


def _sampler(seeds, dt: float):
    """draw(out): row k of out receives the next out.shape[1]
    increments of the Philox stream keyed by seeds[k], standard
    normals times sqrt(dt) (_native.normals)."""
    from . import _native  # at the first draw: importing costs setup

    return _native.normals(seeds, math.sqrt(dt))


def sample_brownian(N: int, dt: float, seed: int) -> BrownianPath:
    """N+1 i.i.d. Normal(0, dt) increments from a Philox stream keyed
    by seed.  Same (N, dt, seed) gives the same array bit for bit, and
    the same array as row k of run_ensemble's dB for
    seed = path_seed(master_seed, first + k)."""
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt!r}")
    seed = int(seed) & _MASK64
    inc = np.empty((1, N + 1))
    _sampler([seed], dt)(inc)
    return BrownianPath(increments=inc[0], seed=seed)


def _require(cond: bool, msg: str):
    if not cond:
        raise MeshMismatchError(msg)


def _time_blocks(values: np.ndarray):
    """The distinct values of a (space, time) array, each axis of stride
    0 cut to length 1, in blocks of _WINDOW_LEVELS time columns: a check
    walked over them keeps its temporaries one block in size, and reads
    a constant coefficient's one value once."""
    values = values[tuple(slice(None, 1 if s == 0 else None)
                          for s in values.strides)]
    return (
        values[:, n0 : n0 + _WINDOW_LEVELS]
        for n0 in range(0, values.shape[1], _WINDOW_LEVELS)
    )


@dataclass(frozen=True)
class ProblemData:
    """Initial data and sources: y0, y1 on the space closure; g (and the
    optional deterministic forcing f) on the interior M x N frame.  The
    compatibility condition y0(0) = y0(1) = 0 is enforced exactly."""

    y0: GridFunction
    y1: GridFunction
    g: GridFunction
    f: GridFunction = None

    def __post_init__(self):
        grid = self.y0.grid
        for name, u, stag, ttag in (
            ("y0", self.y0, "closure", None),
            ("y1", self.y1, "closure", None),
            ("g", self.g, "primal", "primal"),
        ):
            _require(u.grid == grid, f"{name} lives on a different grid")
            _require(
                u.space_tag == stag,
                f"{name} must carry space tag {stag!r}, got {u.space_tag!r}",
            )
            want_t = ttag if ttag is not None else "slice"
            _require(
                u.time_tag == want_t,
                f"{name} must carry time tag {want_t!r}, got {u.time_tag!r}",
            )
        if self.f is not None:
            _require(self.f.grid == grid, "f lives on a different grid")
            _require(
                self.f.space_tag == "primal" and self.f.time_tag == "primal",
                "f must live on the interior M x N frame",
            )
        if self.y0.values[0] != 0.0 or self.y0.values[-1] != 0.0:
            raise ValueError(
                "y0 must vanish exactly at both boundary nodes, got "
                f"({self.y0.values[0]!r}, {self.y0.values[-1]!r})"
            )

    @property
    def grid(self) -> Grid:
        return self.y0.grid

    def difference(self, other: ProblemData) -> ProblemData:
        """Data of the difference system y_self - y_other: every field
        minus the other's, a missing f counting as zero (None when
        neither side has one, or both hold the same f object, which
        cancels exactly).  The scheme is linear in (y0, y1, g, f), so
        under common noise and coefficients stepping this data gives the
        path-wise difference of the two solutions, to rounding."""
        _require(other.grid == self.grid, "problem data live on different grids")
        if self.f is other.f:
            f = None
        elif self.f is None:
            f = -other.f
        else:
            f = self.f if other.f is None else self.f - other.f
        return ProblemData(
            y0=self.y0 - other.y0,
            y1=self.y1 - other.y1,
            g=self.g - other.g,
            f=f,
        )


@dataclass(frozen=True)
class SchemeCoefficients:
    """Lower-order and noise coefficients a, b, c, d on closure x nbar,
    checked when built: finite, and 1 - c dt != 0 (SingularUpdateError)."""

    a: GridFunction
    b: GridFunction
    c: GridFunction
    d: GridFunction

    def __post_init__(self):
        grid = self.a.grid
        for name, u in (("a", self.a), ("b", self.b), ("c", self.c), ("d", self.d)):
            _require(u.grid == grid, f"{name} lives on a different grid")
            _require(
                u.space_tag == "closure" and u.time_tag == "nbar",
                f"{name} must live on closure x nbar, got "
                f"({u.space_tag}, {u.time_tag})",
            )
            for block in _time_blocks(u.values):
                if not np.isfinite(block).all():
                    raise ValueError(f"coefficient {name} contains non-finite values")
                if name == "c" and np.any(1.0 - block * grid.dt == 0.0):
                    raise SingularUpdateError(
                        "c*dt equals 1 somewhere, the update denominator vanishes")

    @classmethod
    def constant(cls, grid: Grid, a=0.0, b=0.0, c=0.0, d=0.0):
        from .fields import constant_coefficient

        return cls(
            a=constant_coefficient(grid, a),
            b=constant_coefficient(grid, b),
            c=constant_coefficient(grid, c),
            d=constant_coefficient(grid, d),
        )

    @property
    def grid(self) -> Grid:
        return self.a.grid


@dataclass(frozen=True)
class Trajectory:
    """Solved path: y on closure x closure plus its driving noise."""

    y: GridFunction
    path: BrownianPath
    cfl_warning: bool = False

    def __post_init__(self):
        _require(
            self.y.space_tag == "closure" and self.y.time_tag == "closure",
            "trajectory must live on closure x closure, got "
            f"({self.y.space_tag}, {self.y.time_tag})",
        )
        v = self.y.values
        if np.any(v[0] != 0.0) or np.any(v[-1] != 0.0):
            raise ValueError("trajectory boundary rows must be exactly zero")

    @property
    def grid(self) -> Grid:
        return self.y.grid


@dataclass(frozen=True)
class Observation:
    """Boundary flux over interior times plus the terminal pair."""

    flux: GridFunction
    terminal_y: GridFunction
    terminal_v: GridFunction


@dataclass(frozen=True)
class Window:
    """Time levels n0 .. n0+L+1 of one block of paths.

    Y (P, L+2, M+2) holds them, Y[p, i] being path p at level n0 + i,
    and dB (P, L+1) holds their own increments dB[n0 .. n0+L].  A window
    serves the reductions of levels n = n0+1 .. n0+L, each of which
    reads its neighbours n-1 and n+1; the windows of a block start at
    n0 = 0, 16, 32, ... (_WINDOW_LEVELS apart), and the last one
    (n0 + L = N) also holds the terminal pair N, N+1.  A whole window
    (n0 = 0, L = N) holds every level, as run_ensemble returns it; its
    boundary columns are checked to be exactly zero, and estimators
    reduce it through windows(), as views of its Y and dB."""

    grid: Grid
    Y: np.ndarray
    dB: np.ndarray
    n0: int

    def __post_init__(self):
        N, M = self.grid.N, self.grid.M
        Y = np.asarray(self.Y, dtype=np.float64)
        dB = np.asarray(self.dB, dtype=np.float64)
        P, L = (Y.shape[0], Y.shape[1] - 2) if Y.ndim == 3 else (0, 0)
        if P < 1 or L < 1 or Y.shape[2] != M + 2:
            raise ValueError(
                f"Y must have shape (paths >= 1, L+2 >= 3, M+2 = {M + 2}), "
                f"got {Y.shape}"
            )
        if not 0 <= self.n0 <= self.n0 + L <= N:
            raise ValueError(
                f"levels n0 .. n0+L = {self.n0} .. {self.n0 + L} must lie "
                f"in 0 .. N = {N}"
            )
        if dB.shape != (P, L + 1):
            raise ValueError(f"dB must have shape {(P, L + 1)}, got {dB.shape}")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "dB", dB)
        if self.whole and (np.any(Y[:, :, 0] != 0.0)
                           or np.any(Y[:, :, -1] != 0.0)):
            raise ValueError("trajectory boundary rows must be exactly zero")

    @property
    def paths(self) -> int:
        return self.Y.shape[0]

    @property
    def levels(self) -> int:
        """L, the number of levels n this window serves."""
        return self.Y.shape[1] - 2

    @property
    def last(self) -> bool:
        return self.n0 + self.levels == self.grid.N

    @property
    def whole(self) -> bool:
        """Whether this window holds every level 0 .. N+1."""
        return self.n0 == 0 and self.last

    def windows(self):
        """The windows of stream_windows over a whole window, as views of
        Y and dB, so that it is reduced exactly as a stream is; any
        other window is its own one window."""
        if not self.whole:
            return (self,)
        return (
            Window(self.grid, self.Y[:, n0 : n0 + L + 2],
                   self.dB[:, n0 : n0 + L + 1], n0)
            for n0, L in _window_spans(self.grid.N)
        )


def _window_spans(N: int):
    """(n0, L) of every window of a block on N steps, in order, made one
    at a time: nothing a stream holds grows with N."""
    return (
        (n0, min(_WINDOW_LEVELS, N - n0))
        for n0 in range(0, N, _WINDOW_LEVELS)
    )


# ---------------------------------------------------------------------------
# stepping


def _table_rows(data: ProblemData, coeffs: SchemeCoefficients, grid: Grid,
                n0: int, L: int) -> tuple:
    """Rows n = n0 .. n0+L of the kernel's six tables A, B, C, D, G, F,
    each (L+1, M+2).  The coefficients at level n are views of their
    values, so a constant one keeps its zero strides.  A g or f that is
    None or holds one value (zero data) is a zero-stride block of that
    value; any other is copied, padded onto the same (n, j) frame, zero
    at n = 0 and at the boundary nodes."""
    M = grid.M
    sources = []
    # g and f hold levels 1..N in columns 0..N-1
    lo = max(n0, 1)
    for u in (data.g, data.f):
        if u is None or not any(u.values.strides):
            one = 0.0 if u is None else u.values[0, 0]
            table = np.broadcast_to(one, (L + 1, M + 2))
        else:
            table = np.zeros((L + 1, M + 2))
            table[lo - n0 :, 1 : M + 1] = u.values[:, lo - 1 : n0 + L].T
        sources.append(table)
    return (
        *(u.values[:, n0 : n0 + L + 1].T
          for u in (coeffs.a, coeffs.b, coeffs.c, coeffs.d)),
        *sources,
    )


def _start_levels(data: ProblemData, grid: Grid) -> np.ndarray:
    """Levels 0 and 1 shared by every path, (2, M+2), boundary zero."""
    M = grid.M
    start = np.zeros((2, M + 2))
    start[0] = data.y0.values
    start[1, 1 : M + 1] = (
        data.y0.values[1 : M + 1] + grid.dt * data.y1.values[1 : M + 1]
    )
    return start


def _check_match(data: ProblemData, coeffs: SchemeCoefficients, grid: Grid):
    if data.grid != grid:
        raise MeshMismatchError("problem data lives on a different grid")
    if coeffs.grid != grid:
        raise MeshMismatchError("coefficients live on a different grid")


def solve(
    data: ProblemData,
    coeffs: SchemeCoefficients,
    path: BrownianPath,
    grid: Grid,
) -> Trajectory:
    """Advance one path of the scheme; see the module docstring for the
    update.  Raises BlowUpError, and MemoryError as run_ensemble does;
    dt > dx only flags cfl_warning on the result."""
    _check_match(data, coeffs, grid)
    if path.increments.shape[0] != grid.N + 1:
        raise ValueError(
            f"path holds {path.increments.shape[0]} increments, "
            f"need N+1 = {grid.N + 1}"
        )
    _check_memory(1, grid, history=True)
    Y = _history(data, coeffs, grid, 0, path.increments[None, :])
    return Trajectory(
        y=GridFunction(
            grid, Y[0].T, grid.space_axis("closure"), grid.time_axis("closure")
        ),
        path=path,
        cfl_warning=grid.cfl_warning,
    )


def block_paths(grid: Grid) -> int:
    """Paths per block of a streamed ensemble: _BLOCK_NODES nodes per
    time level, at least one path.  Reads only the mesh."""
    return max(1, _BLOCK_NODES // grid.M)


def _physical_bytes():
    """Installed memory in bytes, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_paths(paths):
    if not (isinstance(paths, (int, np.integer)) and paths >= 1):
        raise ValueError(f"paths must be a positive integer, got {paths!r}")


def _check_memory(paths: int, grid: Grid, history: bool = False):
    """Refuse, with MemoryError, a block of `paths` paths whose arrays
    exceed physical memory: one window of L+2 levels, L+1 rows of the
    six tables, and per path one window's L+1 increments and its noise
    stream (_GENERATOR_BYTES, the reference sampler's generator).  With
    `history` all N+2 levels and all N+1 increments per path, as
    run_ensemble holds them; its noise streams are freed before the
    levels are allocated, so they are not counted there."""
    N, M = grid.N, grid.M
    L = min(_WINDOW_LEVELS, N)
    K = N if history else L
    levels = N + 2 if history else L + 2
    need_y = paths * levels * (M + 2) * 8
    need = (paths * ((L + 2) * (M + 2) + K + 1) + 6 * (L + 1) * (M + 2)) * 8
    if history:
        need += need_y
        noise = f"its {N + 1} increments per path"
    else:
        need += paths * _GENERATOR_BYTES
        noise = (f"one window's {L + 1} of its {N + 1} increments and a "
                 f"{_GENERATOR_BYTES}-byte noise stream per path")
    phys = _physical_bytes()
    if phys is not None and need > phys:
        window = f"a window of {L + 2} levels, " if history else ""
        raise MemoryError(
            f"a block of {paths} path(s) holding {levels} of the "
            f"{N + 2} time levels of a {M} x {N} mesh needs {need_y} "
            f"bytes for its trajectories and {need} bytes with {window}"
            f"{noise} and {L + 1} rows of the six coefficient and data "
            f"tables, more than the {phys} bytes of physical memory"
        )


def stream_block(grid: Grid, paths: int) -> int:
    """Paths per block of stream_windows' stream of `paths` paths,
    refused with MemoryError (_check_memory) if a block does not fit in
    physical memory: its window, table rows, one window's increments
    and its paths' noise streams, none of which grows with N.  This is
    the check stream_windows makes, which a caller can also make before
    it builds anything."""
    size = min(block_paths(grid), paths)
    _check_memory(size, grid)
    return size


def check_array_memory(arrays):
    """Refuse, with MemoryError, the first of the float64 arrays given
    as (name, shape) pairs whose size alone exceeds physical memory."""
    phys = _physical_bytes()
    for name, shape in arrays:
        need = 8 * math.prod(shape)
        if phys is not None and need > phys:
            raise MemoryError(
                f"the {name}, a {' x '.join(map(str, shape))} float64 "
                f"array, needs {need} bytes, more than the {phys} bytes "
                "of physical memory"
            )


def _sample_block(master_seed: int, first: int, paths: int, dt: float):
    """The sampler of paths first .. first+paths-1 of the family seeded
    by master_seed, the one seam that fills increment rows: draw(out)
    fills row k of out with the next out.shape[1] increments of path
    first + k, from seed path_seed(master_seed, first + k)."""
    seeds = [path_seed(master_seed, first + k) for k in range(paths)]
    return _sampler(seeds, dt)


def _window_draws(draw, noise: np.ndarray):
    """increments(n0, L) of a streamed block whose sampler is draw: the
    window's (P, L+1) increments dB[n0 .. n0+L], in noise, a reused
    (P, min(N, _WINDOW_LEVELS) + 1) buffer.  The first window draws L+1
    columns; each later one carries the previous window's last
    increment from column _WINDOW_LEVELS to column 0 and draws L new
    columns after it.  Windows must come in order."""

    def increments(n0, L):
        if n0:
            noise[:, 0] = noise[:, _WINDOW_LEVELS]
        draw(noise[:, 1 if n0 else 0 : L + 1])
        return noise[:, : L + 1]

    return increments


def _step_blocks(data: ProblemData, coeffs: SchemeCoefficients, grid: Grid,
                 size: int, blocks):
    """Step each block (first, increments) of `blocks`, at most `size`
    paths whose row 0 is global path `first`, and yield its Windows of
    _WINDOW_LEVELS levels: the one loop that calls step_paths, once per
    window on the window's rows of the six tables (_table_rows: a field
    that holds one value per level has stride 0 along j, which the
    kernel narrows to one value per level) in one reused
    (size, L+2, M+2) buffer.  increments(n0, L) returns the block's
    (P, L+1) increments dB[n0 .. n0+L], and is called once per window,
    in order, when the window comes up (_window_draws draws them then);
    they are valid until the next call.  A yielded window is valid
    until the next is drawn.  A blow-up ends the yields, but later
    blocks are stepped, and their increments drawn, only as far as an
    earlier level could fail, so the BlowUpError raised is the
    lexicographic minimum over (n, path, j)."""
    start = _start_levels(data, grid)
    window = np.zeros((size, min(_WINDOW_LEVELS, grid.N) + 2, grid.M + 2))
    blown = None
    for first, increments in blocks:
        for n0, L in _window_spans(grid.N):
            # levels n0+2 .. n0+L+1 come next: only an earlier level than
            # a blow-up already found can replace it
            if blown is not None and n0 + 2 >= blown.n:
                break
            inc = increments(n0, L)
            if n0 == 0:
                Y = window[: inc.shape[0]]
                Y[:, :2] = start
            hit, bn, bp, bj = step_paths(
                Y[:, : L + 2], *_table_rows(data, coeffs, grid, n0, L), inc,
                grid.dt, grid.dx,
            )
            if hit:
                if blown is None or n0 + bn < blown.n:
                    blown = BlowUpError(j=bj, n=n0 + bn, path=first + bp)
                break
            if blown is None:
                yield Window(grid, Y[:, : L + 2], inc, n0)
            Y[:, :2] = Y[:, L : L + 2]
    if blown is not None:
        raise blown


def _history(data: ProblemData, coeffs: SchemeCoefficients, grid: Grid,
             first: int, dB: np.ndarray) -> np.ndarray:
    """All N+2 levels of the paths first.. driven by dB, (P, N+2, M+2),
    copied out of their stepped windows; dB holds all N+1 increments
    of each path, and each window steps with a view of it."""
    Y = np.empty((dB.shape[0], grid.N + 2, grid.M + 2))
    block = (first, lambda n0, L: dB[:, n0 : n0 + L + 1])
    for win in _step_blocks(data, coeffs, grid, dB.shape[0], [block]):
        Y[:, win.n0 : win.n0 + win.levels + 2] = win.Y
    return Y


def run_ensemble(
    data: ProblemData,
    coeffs: SchemeCoefficients,
    grid: Grid,
    paths: int,
    master_seed: int,
    first: int = 0,
) -> Window:
    """Solve paths first .. first+paths-1 of the family seeded by
    master_seed, path k with seed path_seed(master_seed, k), as one
    block of stream_windows' windows, and return their whole history
    as one whole Window (n0 = 0, levels 0 .. N+1).

    Results do not depend on backend or on how the family is split into
    blocks; a BlowUpError names the global path index.  A block whose
    history, increments and window exceed physical memory is refused
    with MemoryError before anything is allocated."""
    _check_match(data, coeffs, grid)
    _check_paths(paths)
    if not (isinstance(first, (int, np.integer)) and first >= 0):
        raise ValueError(f"first must be an integer >= 0, got {first!r}")
    _check_memory(paths, grid, history=True)
    dB = np.empty((paths, grid.N + 1))
    # every increment in one draw, as the whole Window returns them
    _sample_block(master_seed, first, paths, grid.dt)(dB)
    return Window(grid, _history(data, coeffs, grid, first, dB), dB, 0)


def stream_windows(
    data: ProblemData,
    coeffs: SchemeCoefficients,
    grid: Grid,
    paths: int,
    master_seed: int,
):
    """Step paths 0 .. paths-1 of the family seeded by master_seed and
    yield them as Windows (_step_blocks), block after block of
    block_paths(grid) paths.  A block's increments are drawn
    (_sample_block) one window at a time into one reused
    (B, _WINDOW_LEVELS+1) buffer (_window_draws), each path's Philox
    stream kept between windows.  Memory is one window, the window's
    table rows and increments and the noise streams, none of which
    grows with N, refused with MemoryError up front if over physical
    memory; the levels and a BlowUpError are run_ensemble's bit for
    bit."""
    _check_match(data, coeffs, grid)
    _check_paths(paths)
    size = stream_block(grid, paths)

    def blocks():
        noise = np.empty((size, min(grid.N, _WINDOW_LEVELS) + 1))
        for first in range(0, paths, size):
            block = min(size, paths - first)
            draw = _sample_block(master_seed, first, block, grid.dt)
            yield first, _window_draws(draw, noise[:block])

    yield from _step_blocks(data, coeffs, grid, size, blocks())


# ---------------------------------------------------------------------------
# observation and residual


def observe_window(win: Window, grid: Grid):
    """The inverse problem's observation on one window, the one place it
    is formed: (flux, terminal).  flux (P, L) holds the left boundary
    flux (y_1 - y_0) / dx at the window's levels n0+1 .. n0+L.  On the
    last window terminal is the pair y^N and (y^{N+1} - y^N) / dt, each
    (P, M+2), y^N a view of Y; on any other window it is None.  Each
    value is one subtraction followed by one division."""
    Y = win.Y
    flux = np.subtract(Y[:, 1:-1, 1], Y[:, 1:-1, 0])
    flux /= grid.dx
    if not win.last:
        return flux, None
    velocity = np.subtract(Y[:, -1], Y[:, -2])
    velocity /= grid.dt
    return flux, (Y[:, -2], velocity)


def observe(traj: Trajectory, grid: Grid) -> Observation:
    """observe_window on one trajectory, as GridFunctions: the left
    boundary flux over the interior times 1..N, the terminal slice
    y(T), and the forward terminal velocity (y^{N+1} - y^N)/dt."""
    if traj.grid != grid:
        raise MeshMismatchError("trajectory lives on a different grid")
    y = traj.y
    if y.time_axis != grid.time_axis("closure"):
        raise IncompleteTrajectoryError(
            "observation needs the full time closure through t^{N+1}"
        )
    win = Window(grid, y.values.T[None], traj.path.increments[None], 0)
    flux, (terminal_y, terminal_v) = observe_window(win, grid)
    sax = grid.space_axis("closure")
    return Observation(
        flux=GridFunction(grid, flux[0], None, grid.time_axis("primal")),
        terminal_y=GridFunction(grid, terminal_y[0].copy(), sax, None),
        terminal_v=GridFunction(grid, terminal_v[0], sax, None),
    )


def scheme_residual(
    y: GridFunction,
    coeffs: SchemeCoefficients,
    g: GridFunction,
    f: GridFunction,
    path: BrownianPath,
    grid: Grid,
) -> float:
    """Max interior defect of the update, normalized by max(1, |y|_inf).

    Recomputes the right-hand side at every interior node from the
    stored trajectory values and compares with y[n+1] (1 - c dt); a
    trajectory produced by solve satisfies this to rounding, and so
    does the path-wise difference of two solves driven by the same
    noise with differenced data."""
    if y.grid != grid:
        raise MeshMismatchError("trajectory lives on a different grid")
    _require(
        y.space_tag == "closure" and y.time_tag == "closure",
        "scheme_residual needs a closure x closure trajectory",
    )
    M, N = grid.M, grid.N
    dt, dx = grid.dt, grid.dx
    v = y.values
    yc = v[1 : M + 1, 1 : N + 1]
    ym = v[1 : M + 1, 0:N]
    yp = v[1 : M + 1, 2 : N + 2]
    ypl = v[2 : M + 2, 1 : N + 1]
    ymn = v[0:M, 1 : N + 1]
    a = coeffs.a.values[1 : M + 1, 1 : N + 1]
    b = coeffs.b.values[1 : M + 1, 1 : N + 1]
    c = coeffs.c.values[1 : M + 1, 1 : N + 1]
    d = coeffs.d.values[1 : M + 1, 1 : N + 1]
    gv = g.values if g is not None else 0.0
    fv = f.values if f is not None else 0.0
    db = path.increments[1 : N + 1][None, :]
    num = (
        2.0 * yc
        - ym
        + dt * dt * ((ypl - 2.0 * yc + ymn) / (dx * dx) + a * yc + b * (ypl - ymn) / (2.0 * dx))
        - (c * dt) * yc
        + dt * ((d * yc + gv) * db + fv * dt)
    )
    defect = yp * (1.0 - c * dt) - num
    scale = max(1.0, float(np.max(np.abs(v))))
    return float(np.max(np.abs(defect)) / scale)
