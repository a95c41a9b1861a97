"""Staggered shift, average, and difference operators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochwave import (
    GridFunction,
    StencilRangeError,
    apply,
    avg_t,
    avg_x,
    build_grid,
    diff_t,
    diff_x,
    diff_xx,
    incr_t,
    s_minus,
    s_plus,
    t_minus,
    t_plus,
)


def closure_fn(grid, fn):
    return GridFunction.from_callable(grid, "closure", "closure", fn)


def test_shift_relabels_axes():
    g = build_grid(5, 5, 1.0)
    u = closure_fn(g, lambda x, t: x + 0.0 * t)
    up = s_plus(u)
    # value at half point j+1/2 is the integer value at j+1
    assert up.space_axis.kind == "half"
    np.testing.assert_allclose(up.x + g.dx / 2.0, up.values[:, 0], rtol=1e-14)
    um = s_minus(u)
    np.testing.assert_allclose(um.x - g.dx / 2.0, um.values[:, 0], rtol=1e-14)


def test_average_and_difference_exact_on_linear():
    g = build_grid(6, 6, 1.2)
    u = closure_fn(g, lambda x, t: 2.0 * x + 3.0 * t)
    ax = avg_x(u)
    np.testing.assert_allclose(ax.values, 2.0 * ax.x[:, None] + 3.0 * ax.t[None, :], rtol=1e-14)
    dx = diff_x(u)
    np.testing.assert_allclose(dx.values, 2.0, rtol=1e-14)
    at = avg_t(u)
    np.testing.assert_allclose(at.values, 2.0 * at.x[:, None] + 3.0 * at.t[None, :], rtol=1e-14)
    dt = diff_t(u)
    np.testing.assert_allclose(dt.values, 3.0, rtol=1e-14)


def test_incr_t_is_bare_difference():
    g = build_grid(4, 8, 2.0)
    u = closure_fn(g, lambda x, t: 5.0 * t + 0.0 * x)
    inc = incr_t(u)
    np.testing.assert_allclose(inc.values, 5.0 * g.dt, rtol=1e-14)


def test_second_difference_composes():
    g = build_grid(9, 4, 1.0)
    u = closure_fn(g, lambda x, t: x * x + 0.0 * t)
    dxx = diff_xx(u)
    # exact second difference of x^2 is 2 everywhere
    np.testing.assert_allclose(dxx.values, 2.0, rtol=1e-12)
    assert dxx.space_axis.count == g.M


def test_quadratic_midpoint_identity():
    # on a quadratic, Ax u exceeds the midpoint value by dx^2/4
    g = build_grid(8, 2, 1.0)
    u = closure_fn(g, lambda x, t: x * x + 0.0 * t)
    mid = avg_x(u)
    exact = mid.x[:, None] ** 2 + 0.0 * mid.values
    np.testing.assert_allclose(mid.values - exact, g.dx**2 / 4.0, rtol=1e-12)


def test_stencil_exhaustion():
    g = build_grid(1, 2, 1.0)
    u = GridFunction(g, np.zeros((3, 4)), g.space_axis("closure"), g.time_axis("closure"))
    once = diff_x(u)           # 3 -> 2 points
    twice = diff_x(once)       # 2 -> 1 point
    with pytest.raises(StencilRangeError):
        diff_x(twice)


def test_apply_dispatch():
    g = build_grid(4, 4, 1.0)
    u = closure_fn(g, lambda x, t: x + t)
    for name, fn in (
        ("s+", s_plus),
        ("s-", s_minus),
        ("t+", t_plus),
        ("t-", t_minus),
        ("Ax", avg_x),
        ("Dx", diff_x),
        ("At", avg_t),
        ("Dt", diff_t),
        ("dt_incr", incr_t),
        ("Dx2", diff_xx),
    ):
        got = apply(name, u)
        ref = fn(u)
        np.testing.assert_array_equal(got.values, ref.values)
        assert got.space_axis == ref.space_axis
        assert got.time_axis == ref.time_axis
    with pytest.raises(ValueError):
        apply("nope", u)


def test_time_only_functions():
    g = build_grid(4, 6, 3.0)
    u = GridFunction.from_callable(g, None, "closure", lambda t: t * t)
    d = diff_t(u)
    # central first difference of t^2 at half points is exactly 2 t
    np.testing.assert_allclose(d.values, 2.0 * d.t, rtol=1e-13)


def test_adjoint_shift_pairs():
    # s+ then s- returns to integer points one index in
    g = build_grid(6, 4, 1.0)
    u = closure_fn(g, lambda x, t: np.sin(3.0 * x) + 0.0 * t)
    back = s_minus(s_plus(u))
    win = u.restrict(space=back.space_axis)
    np.testing.assert_array_equal(back.values, win.values)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    M=st.integers(2, 48),
    N=st.integers(2, 48),
    T=st.floats(0.25, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_operator_invariants_on_random_grids(M, N, T, seed):
    g = build_grid(M, N, T)
    rng = np.random.default_rng(seed)
    sax, tax = g.space_axis("closure"), g.time_axis("closure")
    u = GridFunction(g, rng.standard_normal((sax.count, tax.count)), sax, tax)
    v = u.values
    # the translations relabel the points and invert each other
    for there, back in ((s_plus, s_minus), (t_plus, t_minus)):
        w = back(there(u))
        assert w.space_axis == u.space_axis and w.time_axis == u.time_axis
        np.testing.assert_array_equal(w.values, v)
    # each stencil shrinks its axis by one onto the opposite mesh kind
    for op, dim in ((avg_x, "space"), (diff_x, "space"),
                    (avg_t, "time"), (diff_t, "time"), (incr_t, "time")):
        w = op(u)
        ax, wax = ((u.space_axis, w.space_axis) if dim == "space"
                   else (u.time_axis, w.time_axis))
        assert wax.count == ax.count - 1 and wax.kind != ax.kind
    # the stencils are the two-point formulas; Dx2 is the three-point one
    np.testing.assert_array_equal(avg_x(u).values, (v[1:] + v[:-1]) / 2.0)
    np.testing.assert_array_equal(diff_x(u).values, (v[1:] - v[:-1]) / g.dx)
    np.testing.assert_array_equal(
        diff_t(u).values, (v[:, 1:] - v[:, :-1]) / g.dt)
    np.testing.assert_array_equal(incr_t(u).values, v[:, 1:] - v[:, :-1])
    scale = np.max(np.abs(v))
    np.testing.assert_allclose(
        diff_xx(u).values, (v[2:] - 2.0 * v[1:-1] + v[:-2]) / g.dx**2,
        rtol=0.0, atol=1e-12 * scale / g.dx**2,
    )
    # space and time stencils commute
    for x_op, t_op in ((avg_x, avg_t), (avg_x, diff_t), (diff_x, avg_t),
                       (diff_x, diff_t)):
        a, b = x_op(t_op(u)), t_op(x_op(u))
        assert a.space_axis == b.space_axis and a.time_axis == b.time_axis
        bound = 1e-12 * scale * max(1.0, 1.0 / g.dx) * max(1.0, 1.0 / g.dt)
        np.testing.assert_allclose(a.values, b.values, rtol=0.0, atol=bound)
    # Ax and Dx are exact on data affine in x, At and Dt on data affine
    # in t
    lin = closure_fn(g, lambda x, t: 2.0 * x - 3.0 * t + 0.5)
    np.testing.assert_allclose(diff_x(lin).values, 2.0, rtol=1e-10)
    np.testing.assert_allclose(diff_t(lin).values, -3.0, rtol=1e-10)
    ax = avg_x(lin)
    np.testing.assert_allclose(
        ax.values, 2.0 * ax.x[:, None] - 3.0 * ax.t[None, :] + 0.5,
        rtol=0.0, atol=1e-12 * (1.0 + 3.0 * g.T),
    )
