"""Staggered primal/dual meshes on [0, 1] x [0, T] and discrete integrals.

Space is divided into M+1 cells of width dx = 1/(M+1).  The primal mesh
holds the M interior nodes x_j = j*dx, the dual mesh the M+1 midpoints
x_{j+1/2} = (j+1/2)*dx, and the closure adds the boundary nodes x_0 = 0 and
x_{M+1} = 1.  Time uses dt = T/N with primal levels t^n = n*dt (n = 1..N),
dual levels t^{n+1/2} (n = 0..N-1), and a closure 0..T+dt: the extra level
t^{N+1} is what lets forward differences of a trajectory exist at t = T.

A GridFunction pairs a value array with explicit index ranges on each axis,
so every operator application knows exactly which points survive.  Ranges
that coincide with a named mesh report the canonical tag ("primal", "dual",
"closure", and "nbar" for t^0..t^N); anything else prints as a window.

Discrete integrals follow the cell convention: interior space sums carry
dx, interior time sums carry dt, and boundary sums carry no factor.  A
product region multiplies the factors of its parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import IncompleteTrajectoryError, MeshMismatchError


@dataclass(frozen=True)
class Axis:
    """Index range on one axis: point i sits at (start+i)*delta for an
    "int" axis and at (start+i+1/2)*delta for a "half" axis."""

    kind: str
    start: int
    count: int

    def __post_init__(self):
        if self.kind not in ("int", "half"):
            raise ValueError(f"axis kind must be 'int' or 'half', got {self.kind!r}")
        if self.count < 1:
            raise ValueError(f"axis count must be >= 1, got {self.count}")

    def coords(self, delta: float) -> np.ndarray:
        offset = 0.5 if self.kind == "half" else 0.0
        return (np.arange(self.count) + self.start + offset) * delta

    def contains(self, other: "Axis") -> bool:
        return (
            self.kind == other.kind
            and self.start <= other.start
            and other.start + other.count <= self.start + self.count
        )


class Grid:
    """Uniform staggered grid for the unit interval and the horizon T."""

    def __init__(self, M: int, N: int, T: float):
        if not isinstance(M, (int, np.integer)) or M < 1:
            raise ValueError(f"M must be a positive integer, got {M!r}")
        if not isinstance(N, (int, np.integer)) or N < 1:
            raise ValueError(f"N must be a positive integer, got {N!r}")
        T = float(T)
        if not np.isfinite(T) or T <= 0.0:
            raise ValueError(f"T must be a positive real, got {T!r}")
        self.M = int(M)
        self.N = int(N)
        self.T = T
        self.dx = 1.0 / (self.M + 1)
        self.dt = T / self.N
        if self.dt == 0.0:
            raise ValueError(f"dt = T/N underflows to zero for T = {T!r}")
        # canonical axes, built once: tag lookups are on every hot path
        M, N = self.M, self.N
        self.space_axes = MappingProxyType({
            "primal": Axis("int", 1, M),
            "dual": Axis("half", 0, M + 1),
            "closure": Axis("int", 0, M + 2),
        })
        self.time_axes = MappingProxyType({
            "primal": Axis("int", 1, N),
            "dual": Axis("half", 0, N),
            "closure": Axis("int", 0, N + 2),
            "nbar": Axis("int", 0, N + 1),
        })

    def space_axis(self, tag: str) -> Axis:
        try:
            return self.space_axes[tag]
        except KeyError:
            raise ValueError(f"unknown space tag {tag!r}") from None

    def time_axis(self, tag: str) -> Axis:
        try:
            return self.time_axes[tag]
        except KeyError:
            raise ValueError(f"unknown time tag {tag!r}") from None

    @property
    def cfl_warning(self) -> bool:
        """dt > dx: the explicit scheme's stability limit is exceeded."""
        return self.dt > self.dx

    # coordinate arrays --------------------------------------------------

    @property
    def space_primal(self) -> np.ndarray:
        return self.space_axes["primal"].coords(self.dx)

    @property
    def space_dual(self) -> np.ndarray:
        return self.space_axes["dual"].coords(self.dx)

    @property
    def space_closure(self) -> np.ndarray:
        return self.space_axes["closure"].coords(self.dx)

    @property
    def time_primal(self) -> np.ndarray:
        return self.time_axes["primal"].coords(self.dt)

    @property
    def time_dual(self) -> np.ndarray:
        return self.time_axes["dual"].coords(self.dt)

    @property
    def time_closure(self) -> np.ndarray:
        return self.time_axes["closure"].coords(self.dt)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and (self.M, self.N, self.T) == (other.M, other.N, other.T)
        )

    def __hash__(self):
        return hash((self.M, self.N, self.T))

    def __repr__(self):
        return f"Grid(M={self.M}, N={self.N}, T={self.T})"


def build_grid(M: int, N: int, T: float) -> Grid:
    """Construct the staggered grid with dx = 1/(M+1) and dt = T/N."""
    return Grid(M, N, T)


def _tag_name(axis, canonical: dict) -> str:
    if axis is None:
        return "slice"
    for name, cax in canonical.items():
        if axis == cax:
            return name
    return f"{axis.kind}[{axis.start}..{axis.start + axis.count})"


class GridFunction:
    """Array of nodal values tagged with the meshes it lives on.

    values is space-major: shape (space_count, time_count) when both axes
    are present, 1-D otherwise.  A missing time axis marks a purely spatial
    slice; a missing space axis marks a time signal (e.g. a boundary flux).
    """

    def __init__(self, grid: Grid, values, space_axis, time_axis):
        if space_axis is None and time_axis is None:
            raise ValueError("a GridFunction needs at least one axis")
        self.grid = grid
        self.space_axis = space_axis
        self.time_axis = time_axis
        values = np.asarray(values, dtype=np.float64)
        expected = tuple(
            ax.count for ax in (space_axis, time_axis) if ax is not None
        )
        if values.shape != expected:
            raise ValueError(
                f"values shape {values.shape} does not match axes {expected}"
            )
        self.values = values

    # tags ---------------------------------------------------------------

    @property
    def space_tag(self) -> str:
        return _tag_name(self.space_axis, self.grid.space_axes)

    @property
    def time_tag(self) -> str:
        return _tag_name(self.time_axis, self.grid.time_axes)

    @property
    def x(self) -> np.ndarray:
        if self.space_axis is None:
            raise MeshMismatchError("function has no space axis")
        return self.space_axis.coords(self.grid.dx)

    @property
    def t(self) -> np.ndarray:
        if self.time_axis is None:
            raise MeshMismatchError("function has no time axis")
        return self.time_axis.coords(self.grid.dt)

    # construction helpers -------------------------------------------------

    @classmethod
    def from_callable(cls, grid: Grid, space_tag, time_tag, fn) -> "GridFunction":
        """Sample fn on the named meshes; fn takes (x, t) arrays, or (x,)
        when time_tag is None, or (t,) when space_tag is None."""
        sax = grid.space_axis(space_tag) if space_tag is not None else None
        tax = grid.time_axis(time_tag) if time_tag is not None else None
        if sax is not None and tax is not None:
            X, Tm = np.meshgrid(
                sax.coords(grid.dx), tax.coords(grid.dt), indexing="ij"
            )
            vals = fn(X, Tm)
        elif sax is not None:
            vals = fn(sax.coords(grid.dx))
        else:
            vals = fn(tax.coords(grid.dt))
        return cls(grid, vals, sax, tax)

    def copy(self) -> "GridFunction":
        return GridFunction(
            self.grid, self.values.copy(), self.space_axis, self.time_axis
        )

    # restriction ----------------------------------------------------------

    def restrict(self, space=None, time=None) -> "GridFunction":
        """Slice down to a sub-range on either axis (tag name or Axis)."""
        out_vals = self.values
        sax, tax = self.space_axis, self.time_axis
        if space is not None:
            target = (
                self.grid.space_axis(space) if isinstance(space, str) else space
            )
            if sax is None or not sax.contains(target):
                raise MeshMismatchError(
                    f"cannot restrict space axis {sax} to {target}"
                )
            lo = target.start - sax.start
            out_vals = out_vals[lo : lo + target.count]
            sax = target
        if time is not None:
            target = self.grid.time_axis(time) if isinstance(time, str) else time
            if tax is None or not tax.contains(target):
                raise MeshMismatchError(
                    f"cannot restrict time axis {tax} to {target}"
                )
            lo = target.start - tax.start
            out_vals = (
                out_vals[..., lo : lo + target.count]
                if self.space_axis is not None
                else out_vals[lo : lo + target.count]
            )
            tax = target
        return GridFunction(self.grid, out_vals, sax, tax)

    # arithmetic -----------------------------------------------------------

    def _check_aligned(self, other: "GridFunction"):
        if self.grid != other.grid:
            raise MeshMismatchError("operands live on different grids")
        if self.space_axis != other.space_axis or self.time_axis != other.time_axis:
            raise MeshMismatchError(
                f"operands live on different meshes: "
                f"({self.space_tag}, {self.time_tag}) vs "
                f"({other.space_tag}, {other.time_tag})"
            )

    def _binary(self, other, op):
        if isinstance(other, GridFunction):
            self._check_aligned(other)
            vals = op(self.values, other.values)
        elif np.isscalar(other):
            vals = op(self.values, other)
        else:
            return NotImplemented
        return GridFunction(self.grid, vals, self.space_axis, self.time_axis)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __radd__(self, other):
        return self._binary(other, lambda a, b: np.add(b, a))

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: np.subtract(b, a))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values, self.space_axis, self.time_axis)

    def __repr__(self):
        return (
            f"GridFunction(space={self.space_tag}, time={self.time_tag}, "
            f"shape={self.values.shape})"
        )


def intersect(u: GridFunction, v: GridFunction):
    """Restrict two functions to their common index ranges."""
    if u.grid != v.grid:
        raise MeshMismatchError("operands live on different grids")

    def common(a, b):
        if a is None or b is None:
            if a is not None or b is not None:
                raise MeshMismatchError("one operand lacks an axis the other has")
            return None
        if a.kind != b.kind:
            raise MeshMismatchError(f"axis kinds differ: {a.kind} vs {b.kind}")
        start = max(a.start, b.start)
        stop = min(a.start + a.count, b.start + b.count)
        if stop <= start:
            raise MeshMismatchError("axes have empty intersection")
        return Axis(a.kind, start, stop - start)

    sax = common(u.space_axis, v.space_axis)
    tax = common(u.time_axis, v.time_axis)
    return u.restrict(space=sax, time=tax), v.restrict(space=sax, time=tax)


# ---------------------------------------------------------------------------
# trace

def trace(u: GridFunction, side: str) -> "GridFunction | float":
    """Boundary trace of a dual-mesh function: the dual value nearest the
    boundary (x = dx/2 on the left, x = 1 - dx/2 on the right)."""
    if u.space_tag != "dual":
        raise MeshMismatchError(
            f"trace needs a function on the space dual mesh, got {u.space_tag}"
        )
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    idx = 0 if side == "left" else u.space_axis.count - 1
    vals = u.values[idx]
    if u.time_axis is None:
        return float(vals)
    return GridFunction(u.grid, vals, None, u.time_axis)


# ---------------------------------------------------------------------------
# regions and integrals

_REGION_PARTS = {
    "M": ("M", None),
    "M*": ("M*", None),
    "Mbar": ("Mbar", None),
    "dM": ("dM", None),
    "N": (None, "N"),
    "N*": (None, "N*"),
    "Nbar": (None, "Nbar"),
    "dN": (None, "dN"),
    "MxN": ("M", "N"),
    "M*xN": ("M*", "N"),
    "MxN*": ("M", "N*"),
    "M*xN*": ("M*", "N*"),
    "dMxN": ("dM", "N"),
    "MxdN": ("M", "dN"),
}

_SPACE_REGION_TAG = {"M": "primal", "M*": "dual", "Mbar": "closure"}
_TIME_REGION_TAG = {"N": "primal", "N*": "dual", "Nbar": "nbar"}


def normalize_region(region: str) -> str:
    """Map unicode spellings (×, ∂, overbars) onto the ASCII region names."""
    r = (
        region.replace("×", "x")
        .replace("∂", "d")
        .replace("M̄", "Mbar")
        .replace("N̄", "Nbar")
        .replace(" ", "")
    )
    if r not in _REGION_PARTS:
        raise ValueError(f"unknown region {region!r}")
    return r


def integrate(u: GridFunction, region: str) -> float:
    """Discrete integral of u over the named region.

    The function's mesh tags must match the region exactly: interior parts
    require the corresponding canonical mesh, boundary parts require the
    closure (restrict first if needed).
    """
    sp, tp = _REGION_PARTS[normalize_region(region)]

    if (tp is None) != (u.time_axis is None) and tp is None:
        raise MeshMismatchError(
            f"region {region!r} is space-only but function has a time axis"
        )
    if sp is None and u.space_axis is not None:
        raise MeshMismatchError(
            f"region {region!r} is time-only but function has a space axis"
        )
    if tp is not None and u.time_axis is None:
        raise MeshMismatchError(
            f"region {region!r} needs a time axis but function is a slice"
        )

    vals = u.values
    factor = 1.0

    if sp is not None:
        if sp == "dM":
            if u.space_tag != "closure":
                raise MeshMismatchError(
                    f"boundary region needs the space closure, got {u.space_tag}"
                )
            vals = vals[[0, u.space_axis.count - 1]]
        else:
            want = _SPACE_REGION_TAG[sp]
            if u.space_tag != want:
                raise MeshMismatchError(
                    f"region {region!r} needs space tag {want!r}, got {u.space_tag!r}"
                )
            factor *= u.grid.dx

    if tp is not None:
        if tp == "dN":
            if u.time_tag not in ("closure", "nbar"):
                raise MeshMismatchError(
                    f"boundary region needs the time closure, got {u.time_tag}"
                )
            sel = [0 - u.time_axis.start, u.grid.N - u.time_axis.start]
            vals = vals[..., sel] if u.space_axis is not None else vals[sel]
        else:
            want = _TIME_REGION_TAG[tp]
            if u.time_tag != want:
                raise MeshMismatchError(
                    f"region {region!r} needs time tag {want!r}, got {u.time_tag!r}"
                )
            factor *= u.grid.dt

    return float(np.sum(vals) * factor)


# ---------------------------------------------------------------------------
# norms

_L2_SPACE_REGION = {"primal": "M", "dual": "M*", "closure": "Mbar"}
_L2_TIME_REGION = {"primal": "N", "dual": "N*", "nbar": "Nbar"}


def _l2(u: GridFunction) -> float:
    sq = GridFunction(u.grid, u.values * u.values, u.space_axis, u.time_axis)
    parts = []
    if u.space_axis is not None:
        try:
            parts.append(_L2_SPACE_REGION[u.space_tag])
        except KeyError:
            raise MeshMismatchError(
                f"no canonical L2 region for space tag {u.space_tag!r}"
            ) from None
    if u.time_axis is not None:
        try:
            parts.append(_L2_TIME_REGION[u.time_tag])
        except KeyError:
            raise MeshMismatchError(
                f"no canonical L2 region for time tag {u.time_tag!r}"
            ) from None
    region = "x".join(parts)
    return float(np.sqrt(integrate(sq, region)))


def _h1(u: GridFunction) -> float:
    if u.time_axis is not None or u.space_tag != "closure":
        raise MeshMismatchError(
            "H1 norm needs a spatial slice on the space closure, got "
            f"({u.space_tag}, {u.time_tag})"
        )
    return _h1_values(u.values, u.grid.dx)


def _h1_values(v: np.ndarray, dx: float) -> float:
    du = (v[1:] - v[:-1]) / dx          # all M+1 dual differences
    grad_sq = float(np.sum(du * du) * dx)
    interior = v[1:-1]
    val_sq = float(np.sum(interior * interior) * dx)
    return float(np.sqrt(grad_sq + val_sq))


def xt_norm_values(y_T: np.ndarray, v_T: np.ndarray, dx: float) -> float:
    """The XT norm of `norm` for a terminal pair given as two arrays of
    space-closure values (the boundary entries of v_T are not used);
    equal bit for bit to norm((y, v), "XT") on the same values."""
    v = v_T[1:-1]
    return _h1_values(y_T, dx) + float(np.sqrt(float(np.sum(v * v) * dx)))


def _dt_norm(u: GridFunction) -> float:
    if u.time_axis is None:
        raise MeshMismatchError("Dt norm needs a time axis")
    if u.time_tag != "closure":
        raise IncompleteTrajectoryError(
            "Dt norm needs the full time closure including t^{N+1}, got "
            f"{u.time_tag}"
        )
    grid = u.grid
    dv = np.diff(u.values, axis=-1) / grid.dt    # half levels 1/2 .. N+1/2
    fwd = dv[..., 1 : grid.N + 1]                # t+(Dt u) at t^1..t^N
    factor = grid.dt
    if u.space_axis is not None:
        if u.space_tag not in _L2_SPACE_REGION:
            raise MeshMismatchError(
                f"no canonical measure for space tag {u.space_tag!r}"
            )
        factor *= grid.dx
    return float(np.sqrt(np.sum(fwd * fwd) * factor))


def _xt_norm(pair) -> float:
    y_term, v_term = pair
    h1 = _h1(y_term)
    if v_term.time_axis is not None:
        raise MeshMismatchError("XT norm needs spatial slices")
    if v_term.space_tag == "closure":
        v_term = v_term.restrict(space="primal")
    elif v_term.space_tag != "primal":
        raise MeshMismatchError(
            f"XT velocity slice must live on M or Mbar, got {v_term.space_tag}"
        )
    return h1 + _l2(v_term)


def norm(u, kind: str) -> float:
    """Norms over the carrier inferred from mesh tags.

    L2   weighted by the cell convention of `integrate`
    Linf max-abs over all stored values
    H1   sqrt(int_{M*} |Dx u|^2 + int_M |u|^2), u a slice on the closure
    Dt   sqrt(int t+(|Dt u|^2)) over primal times (needs the t^{N+1} slice)
    XT   pair (y(T), t+(Dt y)(T)): H1 of the first plus L2 of the second
    """
    if kind == "XT":
        if not (isinstance(u, tuple) and len(u) == 2):
            raise ValueError("XT norm takes a pair (terminal_y, terminal_v)")
        return _xt_norm(u)
    if not isinstance(u, GridFunction):
        raise ValueError(f"norm needs a GridFunction, got {type(u).__name__}")
    if kind == "L2":
        return _l2(u)
    if kind == "Linf":
        return float(np.max(np.abs(u.values)))
    if kind == "H1":
        return _h1(u)
    if kind == "Dt":
        return _dt_norm(u)
    raise ValueError(f"unknown norm kind {kind!r}")
