"""Exact discrete-calculus identities as a residual table.

Every identity below holds exactly in real arithmetic on the staggered
meshes, so residuals measure nothing but rounding error.  Writing A and D
for the half-step average and difference, s+/s- and t+/t- for the
half-step translations, and h for the mesh width:

  product rules      A(uv) = Au Av + (h^2/4) Du Dv
                     D(uv) = Du Av + Au Dv
                     D(uv) = Du s+v + s-u Dv   (and the s-/s+ mirror)
  reconstruction     u = A^2 u - (h^2/4) D^2 u
  space by parts     int_M  u Av = int_M* Au v - (h/2) sum_dM u tr(v)
                     int_M  u Dv = -int_M* Du v + sum_dM u tr(v) n_x
  time by parts      int_N  f t-g = int_N* t+f g
                     int_N  f t+g = int_N* t-f g + h sum_dN f t+(g) n_t
                     int_N  f Dg  = -int_N* g Df + sum_dN f t+(g) n_t
                     int_N  t-f Dg = -int_N Df t+g + sum_dN t+(fg) n_t
  squares            2 t+(f) Df = D(f^2) + h (Df)^2
                     2 t-(f) Df = D(f^2) - h (Df)^2

The last identity ("2.14") uses end-weighted dual-time sums: interior dual
points carry weight 1, the first and last carry 1/2, and the matching
boundary contribution averages the boundary value with its interior
neighbour.  With those weights the identity is again exact; it needs at
least two dual time levels, which the M >= 2, N >= 2 entry check
guarantees.

Space identities are evaluated pointwise in time and vice versa, so a
residual is the max over the passive axis.  Each residual is normalized by
max(1, |LHS|_inf, |RHS|_inf).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, GridFunction, integrate, intersect
from .operators import (
    avg_t,
    avg_x,
    diff_t,
    diff_x,
    diff_xx,
    s_minus,
    s_plus,
    t_minus,
    t_plus,
)

IDENTITY_IDS = (
    "2.3",
    "2.4",
    "2.5-op",
    "2.6",
    "2.7",
    "2.8",
    "2.9a",
    "2.9b",
    "2.10a",
    "2.10b",
    "2.11a",
    "2.11b",
    "2.12",
    "2.13",
    "2.14",
)


@dataclass
class ResidualTable:
    """Normalized residual per identity id; skipped ids carry no residual."""

    residuals: dict = field(default_factory=dict)
    skipped: set = field(default_factory=set)

    def max_residual(self) -> float:
        return max(self.residuals.values()) if self.residuals else 0.0

    def rows(self):
        """(id, residual-or-None) pairs in canonical order."""
        out = []
        for ident in IDENTITY_IDS:
            out.append(
                (ident, None if ident in self.skipped else self.residuals[ident])
            )
        return out


def _nres(lhs, rhs) -> float:
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    denom = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs)) / denom)


def _pointwise(u: GridFunction, v: GridFunction) -> float:
    a, b = intersect(u, v)
    return _nres(a.values, b.values)


def _aligned_prod(a: GridFunction, b: GridFunction) -> GridFunction:
    """Pointwise product on the common index range."""
    a, b = intersect(a, b)
    return a * b


def _time_integrals(u: GridFunction, region: str) -> np.ndarray:
    """integrate() over a time region, once per space row of u."""
    rows = np.atleast_2d(u.values)
    return np.array([
        integrate(GridFunction(u.grid, row, None, u.time_axis), region)
        for row in rows
    ])


def check_mesh(grid: Grid):
    """Refuse, with ValueError, a mesh too small for the suite."""
    if grid.M < 2 or grid.N < 2:
        raise ValueError("identity suite needs M >= 2 and N >= 2, got "
                         f"M={grid.M}, N={grid.N}")


def identity_residuals(u: GridFunction, v: GridFunction) -> ResidualTable:
    """Evaluate the full identity table for two space-time functions.

    u and v should live on the space closure x time closure; identities
    whose mesh demands the inputs cannot meet are reported as skipped,
    never silently passed.  Dual-mesh operands (the v of the by-parts
    identities, both operands of "2.13") are manufactured by averaging the
    given closures onto the dual meshes.
    """
    if u.grid != v.grid:
        raise ValueError("u and v must live on the same grid")
    grid = u.grid
    check_mesh(grid)
    dx, dt = grid.dx, grid.dt
    N = grid.N
    table = ResidualTable()

    sc = grid.space_axis("closure")
    tc = grid.time_axis("closure")
    have_space = (
        u.space_axis is not None
        and v.space_axis is not None
        and u.space_axis.contains(sc)
        and v.space_axis.contains(sc)
    )
    have_time = (
        u.time_axis is not None
        and v.time_axis is not None
        and u.time_axis.contains(tc)
        and v.time_axis.contains(tc)
    )

    space_ids = ("2.3", "2.4", "2.5-op", "2.6", "2.7", "2.8")
    time_ids = (
        "2.9a",
        "2.9b",
        "2.10a",
        "2.10b",
        "2.11a",
        "2.11b",
        "2.12",
        "2.13",
        "2.14",
    )
    if not have_space:
        table.skipped.update(space_ids)
    if not have_time:
        table.skipped.update(time_ids)

    if have_space:
        uc = u.restrict(space=sc)
        vc = v.restrict(space=sc)
        uv = uc * vc

        table.residuals["2.3"] = _pointwise(
            avg_x(uv),
            avg_x(uc) * avg_x(vc) + (dx * dx / 4.0) * (diff_x(uc) * diff_x(vc)),
        )
        table.residuals["2.4"] = _pointwise(
            diff_x(uv), diff_x(uc) * avg_x(vc) + avg_x(uc) * diff_x(vc)
        )

        duv = diff_x(uv)
        res_plus = _pointwise(
            duv,
            _aligned_prod(diff_x(uc), s_plus(vc)) + _aligned_prod(s_minus(uc), diff_x(vc)),
        )
        res_minus = _pointwise(
            duv,
            _aligned_prod(diff_x(uc), s_minus(vc)) + _aligned_prod(s_plus(uc), diff_x(vc)),
        )
        table.residuals["2.5-op"] = max(res_plus, res_minus)

        table.residuals["2.6"] = _pointwise(
            uc, avg_x(avg_x(uc)) - (dx * dx / 4.0) * diff_xx(uc)
        )

        # integration by parts: u on the closure, v's stand-in on the dual
        vd = avg_x(vc)
        up = uc.restrict(space="primal").values
        u_left = uc.values[0]
        u_right = uc.values[-1]
        tr_left = vd.values[0]
        tr_right = vd.values[-1]

        lhs = np.sum(up * avg_x(vd).values, axis=0) * dx
        rhs = np.sum(avg_x(uc).values * vd.values, axis=0) * dx - (dx / 2.0) * (
            u_left * tr_left + u_right * tr_right
        )
        table.residuals["2.7"] = _nres(lhs, rhs)

        lhs = np.sum(up * diff_x(vd).values, axis=0) * dx
        rhs = -np.sum(diff_x(uc).values * vd.values, axis=0) * dx + (
            u_right * tr_right - u_left * tr_left
        )
        table.residuals["2.8"] = _nres(lhs, rhs)

    if have_time:
        ut = u.restrict(time=tc)
        vt = v.restrict(time=tc)
        uv = ut * vt

        table.residuals["2.9a"] = _pointwise(
            diff_t(uv),
            _aligned_prod(diff_t(ut), t_minus(vt)) + _aligned_prod(t_plus(ut), diff_t(vt)),
        )
        table.residuals["2.9b"] = _pointwise(
            diff_t(uv),
            _aligned_prod(diff_t(ut), t_plus(vt)) + _aligned_prod(t_minus(ut), diff_t(vt)),
        )

        usq = ut * ut
        du = diff_t(ut)
        table.residuals["2.10a"] = _pointwise(
            2.0 * _aligned_prod(t_plus(ut), du), diff_t(usq) + dt * (du * du)
        )
        table.residuals["2.10b"] = _pointwise(
            2.0 * _aligned_prod(t_minus(ut), du), diff_t(usq) - dt * (du * du)
        )

        # integral identities, evaluated per space row on raw columns;
        # column n of f holds level t^n, column k of a dual array t^{k+1/2}
        f = np.atleast_2d(ut.values)
        g = np.atleast_2d(vt.values)
        g_dual = avg_t(vt)
        gd = np.atleast_2d(g_dual.values)  # dual levels 1/2 .. N+1/2
        fd = np.atleast_2d(avg_t(ut).values)

        # int_N f t-g = int_N* t+f g, each side assembled by its own
        # definition: the translations relabel the same values, so the
        # two sums agree bit for bit exactly when t+ and t- land on the
        # right levels; a wrong shift gives a residual of order one
        lhs = _time_integrals(
            _aligned_prod(ut.restrict(time="primal"), t_minus(g_dual)), "N"
        )
        rhs = _time_integrals(
            _aligned_prod(t_plus(ut), g_dual.restrict(time="dual")), "N*"
        )
        table.residuals["2.11a"] = _nres(lhs, rhs)

        lhs = np.sum(f[:, 1 : N + 1] * gd[:, 1 : N + 1], axis=1) * dt
        rhs = np.sum(f[:, 0:N] * gd[:, 0:N], axis=1) * dt + dt * (
            f[:, N] * gd[:, N] - f[:, 0] * gd[:, 0]
        )
        table.residuals["2.11b"] = _nres(lhs, rhs)

        lhs = np.sum(f[:, 1 : N + 1] * (gd[:, 1 : N + 1] - gd[:, 0:N]), axis=1)
        rhs = -np.sum(gd[:, 0:N] * (f[:, 1 : N + 1] - f[:, 0:N]), axis=1) + (
            f[:, N] * gd[:, N] - f[:, 0] * gd[:, 0]
        )
        table.residuals["2.12"] = _nres(lhs, rhs)

        lhs = np.sum(fd[:, 0:N] * (gd[:, 1 : N + 1] - gd[:, 0:N]), axis=1)
        rhs = -np.sum((fd[:, 1 : N + 1] - fd[:, 0:N]) * gd[:, 1 : N + 1], axis=1) + (
            fd[:, N] * gd[:, N] - fd[:, 0] * gd[:, 0]
        )
        table.residuals["2.13"] = _nres(lhs, rhs)

        w = np.ones(N)
        w[0] = 0.5
        w[N - 1] = 0.5
        h = f * g
        lhs = np.sum(
            w * f[:, 1 : N + 1] * (g[:, 1 : N + 1] - g[:, 0:N]), axis=1
        )
        rhs = -np.sum(
            w * g[:, 0:N] * (f[:, 1 : N + 1] - f[:, 0:N]), axis=1
        ) + (0.5 * (h[:, N] + h[:, N - 1]) - 0.5 * (h[:, 0] + h[:, 1]))
        table.residuals["2.14"] = _nres(lhs, rhs)

    return table
