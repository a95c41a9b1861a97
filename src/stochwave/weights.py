"""Exponential space-time weights and their discrete-calculus asymptotics.

The weight family is built from the quadratic

    phi(x, t) = (x - xstar)^2 - beta * (t - (T+1))^2 + mconst

through two exponentials: varphi = exp(lam * phi), l = s * varphi,
r = exp(l), rho = exp(-l) = 1/r.  Shifting the time center to T+1 keeps
d(phi)/dt = 2*beta*(T+1-t) strictly positive over the whole simulated
window [0, T+dt], and xstar > 1 keeps d(phi)/dx negative inside (0,1).

Because r explodes doubly exponentially in s and lam, evaluation refuses
to saturate: any exponent beyond the float64 range raises
WeightOverflowError carrying the attempted exponent, so callers can tell
how far out of range they are.

The first derivatives of rho against the r-weighting admit closed forms

    r * d(rho)/dx      = -s*lam*varphi * dphi_dx
    d/dx (r d(rho)/dx) = -s*lam*varphi * (lam*dphi_dx^2 + 2)
    d/dt (r d(rho)/dx) = -s*lam^2*varphi * dphi_dt * dphi_dx
    d/dx (r d(rho)/dt) = -s*lam^2*varphi * dphi_dx * dphi_dt

(the last two coincide, as mixed partials must; their discrete analogues
do not, which is exactly what makes both worth testing).  estimate_order
measures how fast four staggered-stencil evaluations approach these
closed forms under mesh refinement:

    id "r_dx_rho"     r * AxDx(rho)            vs  r d(rho)/dx
    id "dx_r_dx_rho"  AxDx( r * AxDx(rho) )    vs  d/dx (r d(rho)/dx)
    id "dt_r_dx_rho"  AtDt( r * AxDx(rho) )    vs  d/dt (r d(rho)/dx)
    id "dx_r_dt_rho"  AxDx( r * Dt(rho) )      vs  d/dx (r d(rho)/dt)

where AxDx g = (g(x+dx) - g(x-dx)) / (2 dx) is the wide central
difference produced by composing the half-step average and difference,
AtDt likewise in time, and Dt g = (g(t+dt/2) - g(t-dt/2)) / dt.  All
stencil shifts are evaluated through the smooth closed forms, so every
level can be probed on one common set of points: the coarsest level's
interior nodes.  The first two families are second order in dx; the
mixed families are first order when dt is tied to dx (second order in
practice for centered stencils, which the fit is allowed to report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOrderError, WeightOverflowError
from .grids import Grid

# largest argument exp() can take before the result leaves float64 range
_MAX_EXP = math.log(np.finfo(np.float64).max)

EXPRESSION_IDS = ("r_dx_rho", "dx_r_dx_rho", "dt_r_dx_rho", "dx_r_dt_rho")


@dataclass(frozen=True)
class WeightParams:
    """Parameters of the weight family.

    s and lam are the large parameters; beta in (0,1) shapes the time
    quadratic; xstar > 1 places the spatial center outside the domain;
    mconst shifts phi (choose it so phi stays positive where that is
    required); T is the time horizon the weights are centered against;
    epsilon in (0,1] bounds the mesh via s*dx <= epsilon and
    dt <= dt_mult * epsilon * dx^2.  s = 0 is allowed as the degenerate
    flat-weight limit used by tests.
    """

    s: float
    lam: float
    beta: float
    xstar: float
    mconst: float
    T: float
    epsilon: float = 0.5
    dt_mult: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.s) and self.s >= 0.0):
            raise ValueError(f"s must be >= 0, got {self.s!r}")
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be > 0, got {self.lam!r}")
        if not (np.isfinite(self.beta) and 0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0,1), got {self.beta!r}")
        if not (np.isfinite(self.xstar) and self.xstar > 1.0):
            raise ValueError(f"xstar must be > 1, got {self.xstar!r}")
        if not np.isfinite(self.mconst):
            raise ValueError(f"mconst must be finite, got {self.mconst!r}")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ValueError(f"T must be > 0, got {self.T!r}")
        if not (np.isfinite(self.epsilon) and 0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0,1], got {self.epsilon!r}")
        if not (np.isfinite(self.dt_mult) and self.dt_mult > 0.0):
            raise ValueError(f"dt_mult must be > 0, got {self.dt_mult!r}")


@dataclass(frozen=True)
class WeightValues:
    """Weight family evaluated at one point or an array of points."""

    phi: "float | np.ndarray"
    varphi: "float | np.ndarray"
    l: "float | np.ndarray"
    r: "float | np.ndarray"
    rho: "float | np.ndarray"
    dphi_dx: "float | np.ndarray"
    dphi_dt: "float | np.ndarray"


def _descalar(a: np.ndarray):
    return float(a) if np.ndim(a) == 0 else a


def _phi(params: WeightParams, x, t) -> np.ndarray:
    """The quadratic phi alone; never overflows."""
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    Tc = params.T + 1.0
    return (x - params.xstar) ** 2 - params.beta * (t - Tc) ** 2 + params.mconst


def _checked_exponent(params: WeightParams, phi) -> np.ndarray:
    """lam*phi, refused with WeightOverflowError beyond float64's exp."""
    arg = params.lam * phi
    peak = float(np.max(arg))
    if peak > _MAX_EXP:
        raise WeightOverflowError(
            "lam*phi exceeds the float64 exponent range; "
            "reduce lam or mconst",
            exponent=peak,
        )
    return arg


def _check_l(peak: float):
    """Refuse r = exp(l) whose largest exponent l = s*varphi is peak."""
    if peak > _MAX_EXP:
        raise WeightOverflowError(
            "s*varphi exceeds the float64 exponent range; "
            "reduce s or lam",
            exponent=peak,
        )


def eval_weights(params: WeightParams, x, t) -> WeightValues:
    """Evaluate phi, varphi, l, r, rho and the phi-derivatives at (x, t).

    x and t may be scalars or broadcastable arrays.  Raises
    WeightOverflowError instead of returning inf when lam*phi or s*varphi
    exceeds the exponent range of float64.
    """
    x = np.asarray(x, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    Tc = params.T + 1.0
    phi = _phi(params, x, t)
    varphi = np.exp(_checked_exponent(params, phi))

    l = params.s * varphi
    _check_l(float(np.max(l)))
    r = np.exp(l)
    rho = np.exp(-l)

    dphi_dx = 2.0 * (x - params.xstar)
    dphi_dt = 2.0 * params.beta * (Tc - t)
    # broadcast the derivative factors up to the phi shape
    dphi_dx, dphi_dt = np.broadcast_arrays(
        dphi_dx + 0.0 * phi, dphi_dt + 0.0 * phi
    )
    return WeightValues(
        phi=_descalar(phi),
        varphi=_descalar(varphi),
        l=_descalar(l),
        r=_descalar(r),
        rho=_descalar(rho),
        dphi_dx=_descalar(dphi_dx),
        dphi_dt=_descalar(np.asarray(dphi_dt)),
    )


def eval_varphi(params: WeightParams, x, t):
    """eval_weights(params, x, t).varphi, with the same overflow checks
    and errors, without making phi, l, r, rho or the derivative arrays:
    at most two arrays of the broadcast shape are held at once."""
    varphi = np.exp(_checked_exponent(params, _phi(params, x, t)))
    # s >= 0 and rounding is monotone, so s * max(varphi) is max(l) exactly
    _check_l(params.s * float(np.max(varphi)))
    return _descalar(varphi)


def r_squared_of(params: WeightParams, varphi) -> np.ndarray:
    """r^2 = exp(2 s varphi) from an evaluated varphi, made in one new
    array, and guarded separately since it overflows at half the
    exponent r itself tolerates."""
    r2 = np.asarray(params.s * varphi, dtype=np.float64)
    r2 *= 2.0
    peak = float(np.max(r2))
    if peak > _MAX_EXP:
        raise WeightOverflowError(
            "2*s*varphi exceeds the float64 exponent range; r^2 terms "
            "need smaller s or lam",
            exponent=peak,
        )
    return np.exp(r2, out=r2)


def r_squared(params: WeightParams, x, t):
    """r^2 = exp(2 s varphi) at (x, t), with the lam*phi and 2*s*varphi
    checks."""
    varphi = np.exp(_checked_exponent(params, _phi(params, x, t)))
    return _descalar(r_squared_of(params, varphi))


# ---------------------------------------------------------------------------
# closed-form weighted derivatives of rho


def exact_r_dx_rho(params: WeightParams, x, t):
    """r * d(rho)/dx = -s*lam*varphi*dphi_dx."""
    w = eval_weights(params, x, t)
    return -params.s * params.lam * w.varphi * w.dphi_dx


def exact_dx_r_dx_rho(params: WeightParams, x, t):
    """d/dx (r d(rho)/dx) = -s*lam*varphi*(lam*dphi_dx^2 + 2)."""
    w = eval_weights(params, x, t)
    return (
        -params.s
        * params.lam
        * w.varphi
        * (params.lam * w.dphi_dx * w.dphi_dx + 2.0)
    )


def exact_dt_r_dx_rho(params: WeightParams, x, t):
    """d/dt (r d(rho)/dx) = -s*lam^2*varphi*dphi_dt*dphi_dx."""
    w = eval_weights(params, x, t)
    return -params.s * params.lam**2 * w.varphi * w.dphi_dt * w.dphi_dx


def exact_dx_r_dt_rho(params: WeightParams, x, t):
    """d/dx (r d(rho)/dt) = -s*lam^2*varphi*dphi_dx*dphi_dt."""
    w = eval_weights(params, x, t)
    return -params.s * params.lam**2 * w.varphi * w.dphi_dx * w.dphi_dt


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the mesh and horizon checks, with margins.

    t_margin is T - sup_{x in (0,1)} |x - xstar| / beta (positive means
    the horizon is long enough); sdx_value is s*dx, tested against
    epsilon; dt_value is dt / (epsilon * dx^2), tested against dt_mult;
    phi_min is the smallest phi over the space-time closure grid.
    """

    t_condition: bool
    t_margin: float
    sdx_condition: bool
    sdx_value: float
    dt_condition: bool
    dt_value: float
    phi_positive: bool
    phi_min: float
    overall: bool


def check_admissible(params: WeightParams, grid: Grid) -> AdmissibilityReport:
    """Check the horizon and mesh conditions of the weighted estimates.

    Requires grid.T == params.T so the weights and the trajectory agree
    on the horizon.  Always returns a report; nothing raises on failure.
    """
    if grid.T != params.T:
        raise ValueError(
            f"grid horizon {grid.T} differs from weight horizon {params.T}"
        )
    sup_dist = max(abs(params.xstar), abs(1.0 - params.xstar))
    t_margin = params.T - sup_dist / params.beta
    t_condition = t_margin > 0.0

    sdx_value = params.s * grid.dx
    sdx_condition = sdx_value <= params.epsilon

    # epsilon * dx^2 may underflow to zero: dt_value is then infinite
    den = params.epsilon * grid.dx * grid.dx
    dt_value = grid.dt / den if den > 0.0 else math.inf
    dt_condition = dt_value <= params.dt_mult

    X = grid.space_closure[:, None]
    Tm = grid.time_closure[None, :]
    phi_min = float(np.min(_phi(params, X, Tm)))
    phi_positive = phi_min > 0.0

    overall = t_condition and sdx_condition and dt_condition and phi_positive
    return AdmissibilityReport(
        t_condition=t_condition,
        t_margin=t_margin,
        sdx_condition=sdx_condition,
        sdx_value=sdx_value,
        dt_condition=dt_condition,
        dt_value=dt_value,
        phi_positive=phi_positive,
        phi_min=phi_min,
        overall=overall,
    )


# ---------------------------------------------------------------------------
# asymptotic order estimation


@dataclass(frozen=True)
class OrderEstimate:
    """Least-squares slope of log(residual) against log(dx)."""

    expr: str
    dx: tuple
    residuals: tuple
    order: float
    fit_residual: float


def _rho_at(params: WeightParams, x, t):
    return eval_weights(params, x, t).rho


def _wide_dx_rho(params: WeightParams, x, t, dx):
    """r(x,t) * [rho(x+dx,t) - rho(x-dx,t)] / (2 dx)."""
    r = eval_weights(params, x, t).r
    return (
        r
        * (_rho_at(params, x + dx, t) - _rho_at(params, x - dx, t))
        / (2.0 * dx)
    )


def _half_dt_rho(params: WeightParams, x, t, dt):
    """r(x,t) * [rho(x,t+dt/2) - rho(x,t-dt/2)] / dt."""
    r = eval_weights(params, x, t).r
    return (
        r
        * (_rho_at(params, x, t + 0.5 * dt) - _rho_at(params, x, t - 0.5 * dt))
        / dt
    )


def _expr_residual(expr: str, params: WeightParams, grid: Grid, x, t) -> float:
    dx, dt = grid.dx, grid.dt
    if expr == "r_dx_rho":
        approx = _wide_dx_rho(params, x, t, dx)
        exact = exact_r_dx_rho(params, x, t)
    elif expr == "dx_r_dx_rho":
        approx = (
            _wide_dx_rho(params, x + dx, t, dx)
            - _wide_dx_rho(params, x - dx, t, dx)
        ) / (2.0 * dx)
        exact = exact_dx_r_dx_rho(params, x, t)
    elif expr == "dt_r_dx_rho":
        approx = (
            _wide_dx_rho(params, x, t + dt, dx)
            - _wide_dx_rho(params, x, t - dt, dx)
        ) / (2.0 * dt)
        exact = exact_dt_r_dx_rho(params, x, t)
    elif expr == "dx_r_dt_rho":
        approx = (
            _half_dt_rho(params, x + dx, t, dt)
            - _half_dt_rho(params, x - dx, t, dt)
        ) / (2.0 * dx)
        exact = exact_dx_r_dt_rho(params, x, t)
    else:
        raise ValueError(
            f"unknown expression id {expr!r}; valid ids: {EXPRESSION_IDS}"
        )
    return float(np.max(np.abs(np.asarray(approx) - np.asarray(exact))))


def check_coarsest_level(params: WeightParams, grid: Grid):
    """Refuse, with ValueError, a coarsest level with max(s*dx, s*dt) > 1."""
    sdx, sdt = params.s * grid.dx, params.s * grid.dt
    if max(sdx, sdt) > 1.0:
        raise ValueError("coarsest level violates max(s*dx, s*dt) <= 1: "
                         f"s*dx={sdx}, s*dt={sdt}")


def estimate_order(expr: str, params: WeightParams, levels) -> OrderEstimate:
    """Fit the refinement order of one stencil-vs-closed-form residual.

    levels must hold at least three grids, each halving dx relative to
    the previous one; the time-involving expressions additionally need
    dt halving (same T, doubled N).  All levels are probed at the same
    points, the coarsest level's interior nodes, so the residual decay
    reflects only the stencil width.  max(s*dx, s*dt) must not exceed 1
    on the coarsest level.  A residual already at rounding level on the
    coarsest grid raises DegenerateOrderError since no slope is
    measurable through noise.
    """
    if expr not in EXPRESSION_IDS:
        raise ValueError(
            f"unknown expression id {expr!r}; valid ids: {EXPRESSION_IDS}"
        )
    levels = list(levels)
    if len(levels) < 3:
        raise ValueError(f"need at least 3 refinement levels, got {len(levels)}")
    time_expr = expr in ("dt_r_dx_rho", "dx_r_dt_rho")
    for a, b in zip(levels, levels[1:]):
        if b.M + 1 != 2 * (a.M + 1):
            raise ValueError(
                f"levels must halve dx: M={a.M} is not refined by M={b.M}"
            )
        if time_expr and (b.T != a.T or b.N != 2 * a.N):
            raise ValueError(
                "time-involving expressions need dt halving across levels "
                f"(same T, doubled N); got (N={a.N}, T={a.T}) -> "
                f"(N={b.N}, T={b.T})"
            )
    coarse = levels[0]
    check_coarsest_level(params, coarse)

    x = coarse.space_primal[:, None]
    t = coarse.time_primal[None, :]
    residuals = [
        _expr_residual(expr, params, grid, x, t) for grid in levels
    ]
    if residuals[0] < 1e3 * np.finfo(np.float64).eps:
        raise DegenerateOrderError(
            f"expression {expr!r} is numerically exact on the coarsest "
            f"level (residual {residuals[0]:.3e}); no order is estimable"
        )

    log_dx = np.log([g.dx for g in levels])
    log_res = np.log(residuals)
    coeffs, ssr = np.polyfit(log_dx, log_res, 1, full=True)[:2]
    fit_residual = float(np.sqrt(ssr[0] / len(levels))) if len(ssr) else 0.0
    return OrderEstimate(
        expr=expr,
        dx=tuple(g.dx for g in levels),
        residuals=tuple(residuals),
        order=float(coeffs[0]),
        fit_residual=fit_residual,
    )
