"""Translation, averaging, and difference operators on staggered meshes.

Half-step translations relabel points without touching values; averages and
differences combine neighbouring values and land on the opposite mesh kind,
shrinking the index range by one.  A closure-sized axis therefore maps onto
the full dual mesh, and a dual axis onto the primal mesh; starting from the
primal mesh there are not enough neighbours and the stencil check fails.
"""

from __future__ import annotations

from .errors import MeshMismatchError, StencilRangeError
from .grids import Axis, GridFunction


def _axis_of(u: GridFunction, dim: str) -> "Axis":
    ax = u.space_axis if dim == "space" else u.time_axis
    if ax is None:
        raise MeshMismatchError(
            f"operator needs a {dim} axis but the function is a slice"
        )
    return ax


def _with_axis(u: GridFunction, dim: str, axis, values) -> GridFunction:
    if dim == "space":
        return GridFunction(u.grid, values, axis, u.time_axis)
    return GridFunction(u.grid, values, u.space_axis, axis)


def _translate(u: GridFunction, dim: str, sign: int) -> GridFunction:
    """u(. + sign*delta/2): a pure relabelling between int and half axes."""
    ax = _axis_of(u, dim)
    if ax.kind == "int":
        # value at half point k comes from int point k+1 (sign +) or k (sign -)
        new = Axis("half", ax.start - 1 if sign > 0 else ax.start, ax.count)
    else:
        # value at int point k comes from half point k (sign +) or k-1 (sign -)
        new = Axis("int", ax.start if sign > 0 else ax.start + 1, ax.count)
    return _with_axis(u, dim, new, u.values)


def _stencil_pair(u: GridFunction, dim: str):
    ax = _axis_of(u, dim)
    if ax.count < 2:
        raise StencilRangeError(
            f"{dim} axis {ax} has fewer than two points; no stencil fits"
        )
    if ax.kind == "int":
        out = Axis("half", ax.start, ax.count - 1)
    else:
        out = Axis("int", ax.start + 1, ax.count - 1)
    v = u.values
    if dim == "space" or u.space_axis is None:
        lo, hi = v[:-1], v[1:]
    else:
        lo, hi = v[:, :-1], v[:, 1:]
    return out, lo, hi


def s_plus(u: GridFunction) -> GridFunction:
    """Space translation u(x + dx/2)."""
    return _translate(u, "space", +1)


def s_minus(u: GridFunction) -> GridFunction:
    """Space translation u(x - dx/2)."""
    return _translate(u, "space", -1)


def t_plus(u: GridFunction) -> GridFunction:
    """Time translation u(t + dt/2)."""
    return _translate(u, "time", +1)


def t_minus(u: GridFunction) -> GridFunction:
    """Time translation u(t - dt/2)."""
    return _translate(u, "time", -1)


def avg_x(u: GridFunction) -> GridFunction:
    """A_x u = (u(x+dx/2) + u(x-dx/2)) / 2."""
    out, lo, hi = _stencil_pair(u, "space")
    return _with_axis(u, "space", out, (hi + lo) / 2.0)


def diff_x(u: GridFunction) -> GridFunction:
    """D_x u = (u(x+dx/2) - u(x-dx/2)) / dx."""
    out, lo, hi = _stencil_pair(u, "space")
    return _with_axis(u, "space", out, (hi - lo) / u.grid.dx)


def avg_t(u: GridFunction) -> GridFunction:
    """A_t u = (u(t+dt/2) + u(t-dt/2)) / 2."""
    out, lo, hi = _stencil_pair(u, "time")
    return _with_axis(u, "time", out, (hi + lo) / 2.0)


def diff_t(u: GridFunction) -> GridFunction:
    """D_t u = (u(t+dt/2) - u(t-dt/2)) / dt."""
    out, lo, hi = _stencil_pair(u, "time")
    return _with_axis(u, "time", out, (hi - lo) / u.grid.dt)


def incr_t(u: GridFunction) -> GridFunction:
    """d_t u = dt * D_t u, assembled as the bare difference (exact)."""
    out, lo, hi = _stencil_pair(u, "time")
    return _with_axis(u, "time", out, hi - lo)


def diff_xx(u: GridFunction) -> GridFunction:
    """D_x^2 u: the three-point second difference, closure -> interior."""
    return diff_x(diff_x(u))


_OPS = {
    "s+": s_plus,
    "s-": s_minus,
    "t+": t_plus,
    "t-": t_minus,
    "Ax": avg_x,
    "Dx": diff_x,
    "At": avg_t,
    "Dt": diff_t,
    "dt_incr": incr_t,
    "Dx2": diff_xx,
}


def apply(op: str, u: GridFunction) -> GridFunction:
    """Apply one of the named operators {s+, s-, t+, t-, Ax, Dx, At, Dt,
    dt_incr, Dx2} with fail-fast mesh checking."""
    try:
        fn = _OPS[op]
    except KeyError:
        raise ValueError(f"unknown operator {op!r}") from None
    return fn(u)
