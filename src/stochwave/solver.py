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
c-term in closed form, and a zero denominator anywhere is rejected up
front as SingularUpdateError.  The stepping kernel (_stepper_np) folds
the constants into per-node weights and evaluates each level as a
weighted sum, equal to the update above up to rounding, which
scheme_residual checks.  solve, run_ensemble and stream_windows all step
through one loop, _step_blocks, in windows of _WINDOW_LEVELS levels.
dt > dx sets a CFL warning flag instead of failing, since the explicit
scheme's stability limit is a modeling concern, not an API violation.

Reproducibility: Brownian increments come from a counter-based
generator (Philox) keyed by a 64-bit seed, and ensemble path seeds are
derived from (master_seed, path_index) by the splitmix64-style mixer
`path_seed`, whose constants are part of the package interface.  Same
seeds, same inputs: bitwise-identical results on every backend and
schedule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ._kernels import step_paths
from .errors import (
    BlowUpError,
    IncompleteTrajectoryError,
    MeshMismatchError,
    SingularUpdateError,
)
from .grids import Grid, GridFunction, trace
from .operators import diff_x

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


def _philox_normals(seeds, out: np.ndarray) -> np.ndarray:
    """Fill row k of `out` with the leading standard normals of the
    Philox stream keyed by seeds[k].

    One generator serves every row: resetting its key to [seed, 0],
    its counter to zero and its output buffer to empty gives exactly
    the stream of a fresh Philox(key=seed) (a counter-based generator's
    state is its key and counter).  Returns `out`."""
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state  # fresh: zero counter, empty buffer
    key = state["state"]["key"]
    for row, seed in zip(out, seeds):
        key[0] = seed
        bitgen.state = state
        rng.standard_normal(out=row)
    return out


def sample_brownian(N: int, dt: float, seed: int) -> BrownianPath:
    """N+1 i.i.d. Normal(0, dt) increments from a Philox stream keyed
    by seed.  Same (N, dt, seed) gives the same array bit for bit, and
    the same array as row k of run_ensemble's dB for seed = seeds[k]."""
    if not (isinstance(N, (int, np.integer)) and N >= 1):
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be > 0, got {dt!r}")
    seed = int(seed) & _MASK64
    inc = _philox_normals([seed], np.empty((1, N + 1)))[0]
    inc *= np.sqrt(dt)
    return BrownianPath(increments=inc, seed=seed)


def _require(cond: bool, msg: str):
    if not cond:
        raise MeshMismatchError(msg)


def _time_blocks(values: np.ndarray):
    """A (space, time) array in blocks of _WINDOW_LEVELS time columns:
    a check walked over them keeps its temporaries one block in size,
    also on a zero-stride constant coefficient."""
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
    """Lower-order and noise coefficients a, b, c, d on closure x nbar."""

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
            if not all(np.isfinite(b).all() for b in _time_blocks(u.values)):
                raise ValueError(f"coefficient {name} contains non-finite values")

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
class Ensemble:
    """Solved paths as arrays: Y (P, N+2, M+2) holds every stepped
    level, Y[p, n, j] being path p at time level n and node j; dB
    (P, N+1) holds each path's increments and seeds (P,) the uint64
    Philox keys they were drawn with, seeds[p] = path_seed(master_seed,
    first + p) for the run_ensemble block that starts at path `first`.
    Estimators read these arrays through `windows()`; `trajectory(k)`
    and `trajectories` are views that share memory with Y and dB."""

    grid: Grid
    Y: np.ndarray
    dB: np.ndarray
    seeds: np.ndarray
    master_seed: int

    def __post_init__(self):
        N, M = self.grid.N, self.grid.M
        Y = np.asarray(self.Y, dtype=np.float64)
        dB = np.asarray(self.dB, dtype=np.float64)
        seeds = np.asarray(self.seeds, dtype=np.uint64)
        P = Y.shape[0] if Y.ndim == 3 else 0
        if P < 1 or Y.shape != (P, N + 2, M + 2):
            raise ValueError(
                f"Y must have shape (paths >= 1, N+2, M+2) = (P, {N + 2}, "
                f"{M + 2}), got {Y.shape}"
            )
        if dB.shape != (P, N + 1) or seeds.shape != (P,):
            raise ValueError(
                f"dB and seeds must have shapes ({P}, {N + 1}) and ({P},), "
                f"got {dB.shape} and {seeds.shape}"
            )
        if np.any(Y[:, :, 0] != 0.0) or np.any(Y[:, :, -1] != 0.0):
            raise ValueError("trajectory boundary rows must be exactly zero")
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "dB", dB)
        object.__setattr__(self, "seeds", seeds)

    @property
    def paths(self) -> int:
        return self.Y.shape[0]

    @property
    def cfl_warning(self) -> bool:
        """The grid's dt > dx flag (Grid.cfl_warning)."""
        return self.grid.cfl_warning

    def trajectory(self, k: int) -> Trajectory:
        """View of path k as a Trajectory on closure x closure."""
        grid = self.grid
        return Trajectory(
            y=GridFunction(
                grid,
                self.Y[k].T,
                grid.space_axis("closure"),
                grid.time_axis("closure"),
            ),
            path=BrownianPath(self.dB[k], int(self.seeds[k])),
            cfl_warning=self.cfl_warning,
        )

    @property
    def trajectories(self) -> tuple:
        """Views of every path, built on each access."""
        return tuple(self.trajectory(k) for k in range(self.paths))

    def windows(self):
        """The Windows of stream_windows over this block, as views of Y,
        so that a whole ensemble is reduced exactly as a stream is."""
        return (
            Window(self.grid, self.Y[:, n0 : n0 + L + 2], self.dB, n0)
            for n0, L in _window_spans(self.grid.N)
        )

    def values(self) -> np.ndarray:
        """(paths, M+2, N+2) view of all trajectories."""
        return self.Y.transpose(0, 2, 1)

    def mean_values(self) -> np.ndarray:
        return self.values().mean(axis=0)


@dataclass(frozen=True)
class Window:
    """Time levels n0 .. n0+L+1 of one block of paths.

    Y (P, L+2, M+2) holds them, Y[p, i] being path p at level n0 + i,
    and dB (P, N+1) is the block's whole increment array.  A window
    serves the reductions of levels n = n0+1 .. n0+L, each of which
    reads its neighbours n-1 and n+1; the windows of a block start at
    n0 = 0, 16, 32, ... (_WINDOW_LEVELS apart), and the last one
    (n0 + L = N) also holds the terminal pair N, N+1."""

    grid: Grid
    Y: np.ndarray
    dB: np.ndarray
    n0: int

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


def _window_spans(N: int):
    """(n0, L) of every window of a block on N steps."""
    return [
        (n0, min(_WINDOW_LEVELS, N - n0))
        for n0 in range(0, N, _WINDOW_LEVELS)
    ]


# ---------------------------------------------------------------------------
# stepping


def _check_singular(coeffs: SchemeCoefficients, grid: Grid):
    """Refuse a vanishing 1 - c dt at any node."""
    for c in _time_blocks(coeffs.c.values):
        if np.any(1.0 - c * grid.dt == 0.0):
            raise SingularUpdateError(
                "c*dt equals 1 somewhere, the update denominator vanishes"
            )


def _table_rows(data: ProblemData, coeffs: SchemeCoefficients, grid: Grid,
                n0: int, L: int) -> np.ndarray:
    """Rows n = n0 .. n0+L of the kernel's six tables A, B, C, D, G, F,
    as one (6, L+1, M+2) array: the coefficients at level n, and g and
    f padded onto the same (n, j) frame, zero at n = 0, at the boundary
    nodes and where f is None."""
    M = grid.M
    rows = np.zeros((6, L + 1, M + 2))
    for table, u in zip(rows, (coeffs.a, coeffs.b, coeffs.c, coeffs.d)):
        table[:] = u.values[:, n0 : n0 + L + 1].T
    # g and f hold levels 1..N in columns 0..N-1
    lo = max(n0, 1)
    for table, u in zip(rows[4:], (data.g, data.f)):
        if u is not None:
            table[lo - n0 :, 1 : M + 1] = u.values[:, lo - 1 : n0 + L].T
    return rows


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
    update.  Raises SingularUpdateError / BlowUpError, and MemoryError
    as run_ensemble does; dt > dx only flags cfl_warning on the result."""
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
    exceed physical memory: one window of L+2 levels, N+1 increments per
    path and L+1 rows of the six tables, and with `history` all N+2
    levels per path on top."""
    N, M = grid.N, grid.M
    L = min(_WINDOW_LEVELS, N)
    levels = N + 2 if history else L + 2
    need_y = paths * levels * (M + 2) * 8
    need = (paths * ((L + 2) * (M + 2) + N + 1) + 6 * (L + 1) * (M + 2)) * 8
    need += need_y if history else 0
    phys = _physical_bytes()
    if phys is not None and need > phys:
        window = f"a window of {L + 2} levels, " if history else ""
        raise MemoryError(
            f"a block of {paths} path(s) holding {levels} of the "
            f"{N + 2} time levels of a {M} x {N} mesh needs {need_y} "
            f"bytes for its trajectories and {need} bytes with {window}"
            f"its {N + 1} increments per path and {L + 1} rows of the "
            "six coefficient and data tables, more than the "
            f"{phys} bytes of physical memory"
        )


def _sample_block(master_seed: int, first: int, dB: np.ndarray, dt: float):
    """Fill row k of dB with the increments of path first + k."""
    seeds = np.array(
        [path_seed(master_seed, first + k) for k in range(dB.shape[0])],
        dtype=np.uint64,
    )
    _philox_normals(seeds, dB)
    dB *= np.sqrt(dt)
    return seeds


def _step_blocks(data: ProblemData, coeffs: SchemeCoefficients, grid: Grid,
                 size: int, blocks):
    """Step each block (first, dB) of `blocks`, at most `size` paths
    whose row 0 is global path `first`, and yield its Windows of
    _WINDOW_LEVELS levels: the one loop that calls step_paths, once per
    window on the window's rows of the six tables (_table_rows) in one
    reused (size, L+2, M+2) buffer.  A yielded window is valid until
    the next is drawn.  A blow-up ends the yields, but later blocks are
    stepped as far as an earlier level could fail, so the BlowUpError
    raised is the lexicographic minimum over (n, path, j)."""
    _check_singular(coeffs, grid)
    spans = _window_spans(grid.N)
    start = _start_levels(data, grid)
    window = np.zeros((size, spans[0][1] + 2, grid.M + 2))
    blown = None
    for first, dB in blocks:
        Y = window[: dB.shape[0]]
        Y[:, :2] = start
        for n0, L in spans:
            # levels n0+2 .. n0+L+1 come next: only an earlier level than
            # a blow-up already found can replace it
            if blown is not None and n0 + 2 >= blown.n:
                break
            hit, bn, bp, bj = step_paths(
                Y[:, : L + 2], *_table_rows(data, coeffs, grid, n0, L),
                dB[:, n0 : n0 + L + 1], grid.dt, grid.dx,
            )
            if hit:
                if blown is None or n0 + bn < blown.n:
                    blown = BlowUpError(j=bj, n=n0 + bn, path=first + bp)
                break
            if blown is None:
                yield Window(grid, Y[:, : L + 2], dB, n0)
            Y[:, :2] = Y[:, L : L + 2]
    if blown is not None:
        raise blown


def _history(data: ProblemData, coeffs: SchemeCoefficients, grid: Grid,
             first: int, dB: np.ndarray) -> np.ndarray:
    """All N+2 levels of the paths first.. driven by dB, (P, N+2, M+2),
    copied out of their stepped windows."""
    Y = np.empty((dB.shape[0], grid.N + 2, grid.M + 2))
    for win in _step_blocks(data, coeffs, grid, dB.shape[0], [(first, dB)]):
        Y[:, win.n0 : win.n0 + win.levels + 2] = win.Y
    return Y


def run_ensemble(
    data: ProblemData,
    coeffs: SchemeCoefficients,
    grid: Grid,
    paths: int,
    master_seed: int,
    first: int = 0,
) -> Ensemble:
    """Solve paths first .. first+paths-1 of the family seeded by
    master_seed, path k with seed path_seed(master_seed, k), as one
    block of stream_windows' windows, and keep their whole history.

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
    seeds = _sample_block(master_seed, first, dB, grid.dt)
    return Ensemble(
        grid=grid,
        Y=_history(data, coeffs, grid, first, dB),
        dB=dB,
        seeds=seeds,
        master_seed=int(master_seed),
    )


def stream_windows(
    data: ProblemData,
    coeffs: SchemeCoefficients,
    grid: Grid,
    paths: int,
    master_seed: int,
):
    """Step paths 0 .. paths-1 of the family seeded by master_seed and
    yield them as Windows (_step_blocks), block after block of
    block_paths(grid) paths sampled into one reused (B, N+1) buffer.
    Memory is one window, one block's increments and the window's table
    rows, refused with MemoryError up front if over physical memory; the
    levels and a BlowUpError are run_ensemble's bit for bit."""
    _check_match(data, coeffs, grid)
    _check_paths(paths)
    size = min(block_paths(grid), paths)
    _check_memory(size, grid)

    def blocks():
        noise = np.empty((size, grid.N + 1))
        for first in range(0, paths, size):
            dB = noise[: paths - first]
            _sample_block(master_seed, first, dB, grid.dt)
            yield first, dB

    yield from _step_blocks(data, coeffs, grid, size, blocks())


# ---------------------------------------------------------------------------
# observation and residual


def observe(traj: Trajectory, grid: Grid) -> Observation:
    """Extract the inverse-problem observation: the left boundary flux
    over interior times, the terminal slice y(T), and the forward
    terminal velocity (y^{N+1} - y^N)/dt."""
    if traj.grid != grid:
        raise MeshMismatchError("trajectory lives on a different grid")
    y = traj.y
    if y.time_axis != grid.time_axis("closure"):
        raise IncompleteTrajectoryError(
            "observation needs the full time closure through t^{N+1}"
        )
    N = grid.N
    flux = trace(diff_x(y), "left").restrict(time="primal")
    sax = grid.space_axis("closure")
    terminal_y = GridFunction(grid, y.values[:, N].copy(), sax, None)
    terminal_v = GridFunction(
        grid, (y.values[:, N + 1] - y.values[:, N]) / grid.dt, sax, None
    )
    return Observation(flux=flux, terminal_y=terminal_y, terminal_v=terminal_v)


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
