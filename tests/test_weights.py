"""Exponential weight family: closed forms, overflow policy, admissibility,
and mesh-refinement orders of the discrete derivative residuals."""

import math

import numpy as np
import pytest
import sympy as sp

from stochwave import (
    DegenerateOrderError,
    EXPRESSION_IDS,
    WeightOverflowError,
    WeightParams,
    build_grid,
    check_admissible,
    estimate_order,
    eval_weights,
    r_squared,
)
from stochwave.weights import (
    exact_dt_r_dx_rho,
    exact_dx_r_dt_rho,
    exact_dx_r_dx_rho,
    exact_r_dx_rho,
)

SAFE = dict(s=0.7, lam=0.9, beta=0.3, xstar=1.3, mconst=0.25, T=0.8)


def test_param_validation():
    WeightParams(**SAFE)
    WeightParams(**{**SAFE, "s": 0.0})            # degenerate flat weight allowed
    WeightParams(**{**SAFE, "epsilon": 1.0})      # boundary of the mesh bound
    for bad in (
        {"lam": 0.0},
        {"beta": 0.0},
        {"beta": 1.0},
        {"xstar": 1.0},
        {"s": -1.0},
        {"epsilon": 0.0},
        {"epsilon": 1.5},
        {"dt_mult": 0.0},
        {"mconst": float("nan")},
    ):
        with pytest.raises(ValueError):
            WeightParams(**{**SAFE, **bad})


def test_pointwise_values():
    p = WeightParams(**SAFE)
    w = eval_weights(p, 0.5, 0.25)
    phi = (0.5 - p.xstar) ** 2 - p.beta * (0.25 - (p.T + 1.0)) ** 2 + p.mconst
    assert w.phi == pytest.approx(phi, rel=1e-15)
    assert w.varphi == pytest.approx(math.exp(p.lam * phi), rel=1e-15)
    assert w.l == pytest.approx(p.s * w.varphi, rel=1e-15)
    assert w.r == pytest.approx(math.exp(w.l), rel=1e-15)
    assert w.rho == pytest.approx(math.exp(-w.l), rel=1e-15)
    assert w.r * w.rho == pytest.approx(1.0, rel=1e-14)
    assert w.dphi_dx == pytest.approx(2.0 * (0.5 - p.xstar), rel=1e-15)
    assert w.dphi_dt == pytest.approx(2.0 * p.beta * (p.T + 1.0 - 0.25), rel=1e-15)


def test_r_squared_matches_eval():
    p = WeightParams(**SAFE)
    x = np.linspace(0.0, 1.0, 7)
    t = 0.3
    w = eval_weights(p, x, t)
    np.testing.assert_allclose(r_squared(p, x, t), w.r**2, rtol=1e-13)


def test_overflow_raises_with_exponent():
    p = WeightParams(**{**SAFE, "s": 1.0, "lam": 1.0, "mconst": 10.0})
    # varphi = e^10 at phi ~ 10, so r = exp(e^10) overflows
    with pytest.raises(WeightOverflowError) as exc:
        eval_weights(p, p.xstar, p.T + 1.0)
    assert exc.value.exponent > 700.0
    with pytest.raises(WeightOverflowError):
        r_squared(p, p.xstar, p.T + 1.0)


def test_closed_forms_against_sympy():
    p = WeightParams(**SAFE)
    xs, ts = sp.symbols("x t", real=True)
    phi = (xs - p.xstar) ** 2 - p.beta * (ts - (p.T + 1)) ** 2 + p.mconst
    l = p.s * sp.exp(p.lam * phi)
    r = sp.exp(l)
    rho = sp.exp(-l)
    cases = (
        (exact_r_dx_rho, r * sp.diff(rho, xs)),
        (exact_dx_r_dx_rho, sp.diff(r * sp.diff(rho, xs), xs)),
        (exact_dt_r_dx_rho, sp.diff(r * sp.diff(rho, xs), ts)),
        (exact_dx_r_dt_rho, sp.diff(r * sp.diff(rho, ts), xs)),
    )
    for fn, expr in cases:
        f = sp.lambdify((xs, ts), expr, "math")
        for x in (0.0, 0.31, 0.77, 1.0):
            for t in (0.0, 0.13, 0.5, 0.8):
                assert fn(p, x, t) == pytest.approx(f(x, t), rel=1e-12)


def test_mixed_partials_coincide_analytically():
    p = WeightParams(**SAFE)
    x, t = 0.4, 0.6
    assert exact_dt_r_dx_rho(p, x, t) == pytest.approx(
        exact_dx_r_dt_rho(p, x, t), rel=1e-14
    )


def test_admissibility_report():
    grid = build_grid(15, 8, 0.5)
    p = WeightParams(s=1.0, lam=1.0, beta=0.10, xstar=1.05, mconst=0.3, T=0.5)
    rep = check_admissible(p, grid)
    # T = 0.5 is far below sup|x - x*| / beta = 1.05 / 0.1
    assert not rep.t_condition
    assert rep.sdx_condition == (p.s * grid.dx <= p.epsilon)
    assert not rep.overall

    tall = build_grid(15, 8, 12.0)
    p2 = WeightParams(s=1.0, lam=1.0, beta=0.10, xstar=1.05, mconst=30.0, T=12.0)
    rep2 = check_admissible(p2, tall)
    assert rep2.t_condition and rep2.t_margin > 0.0
    assert rep2.phi_positive and rep2.phi_min > 0.0


def test_admissibility_dt_bound_with_underflowing_epsilon():
    # epsilon * dx^2 underflows to zero: the dt ratio is infinite
    grid = build_grid(15, 8, 0.5)
    p = WeightParams(s=1.0, lam=1.0, beta=0.10, xstar=1.05, mconst=0.3,
                     T=0.5, epsilon=5e-324)
    rep = check_admissible(p, grid)
    assert rep.dt_value == math.inf
    assert not rep.dt_condition and not rep.overall


def test_admissibility_requires_matching_horizon():
    grid = build_grid(7, 4, 1.0)
    p = WeightParams(**SAFE)      # T = 0.8 != 1.0
    with pytest.raises(ValueError):
        check_admissible(p, grid)


def order_levels(T=0.5):
    return [build_grid(M, (M + 1) // 2, T) for M in (15, 31, 63, 127)]


def test_estimate_order_space_expressions():
    p = WeightParams(s=1.0, lam=1.0, beta=0.10, xstar=1.05, mconst=0.3, T=0.5)
    for expr in ("r_dx_rho", "dx_r_dx_rho"):
        est = estimate_order(expr, p, order_levels())
        assert est.order >= 1.8, (expr, est.order)
        assert len(est.dx) == 4 and est.fit_residual < 0.1


def test_estimate_order_mixed_expressions():
    p = WeightParams(s=1.0, lam=1.0, beta=0.10, xstar=1.05, mconst=0.3, T=0.5)
    for expr in ("dt_r_dx_rho", "dx_r_dt_rho"):
        est = estimate_order(expr, p, order_levels())
        assert est.order >= 0.8, (expr, est.order)


def test_estimate_order_input_contract():
    p = WeightParams(s=1.0, lam=1.0, beta=0.10, xstar=1.05, mconst=0.3, T=0.5)
    with pytest.raises(ValueError):
        estimate_order("bogus", p, order_levels())
    with pytest.raises(ValueError):
        estimate_order("r_dx_rho", p, order_levels()[:2])
    # non-halving sequence
    bad = [build_grid(M, 8, 0.5) for M in (15, 31, 64, 127)]
    with pytest.raises(ValueError):
        estimate_order("r_dx_rho", p, bad)


def test_estimate_order_degenerate_weight():
    p = WeightParams(s=0.0, lam=1.0, beta=0.10, xstar=1.05, mconst=0.3, T=0.5)
    with pytest.raises(DegenerateOrderError):
        estimate_order("r_dx_rho", p, order_levels())


def test_expression_ids_frozen():
    assert EXPRESSION_IDS == (
        "r_dx_rho", "dx_r_dx_rho", "dt_r_dx_rho", "dx_r_dt_rho"
    )
