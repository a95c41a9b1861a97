"""Mesh containers, restriction, quadrature, and norms."""

import tracemalloc

import numpy as np
import pytest

import oracles
from stochwave import (
    Grid,
    GridFunction,
    IncompleteTrajectoryError,
    MeshMismatchError,
    build_grid,
    integrate,
    intersect,
    norm,
    normalize_region,
    trace,
    zero_field,
)


def test_grid_spacing():
    g = build_grid(3, 4, 2.0)
    assert g.dx == 0.25
    assert g.dt == 0.5
    np.testing.assert_allclose(g.space_primal, [0.25, 0.5, 0.75])
    np.testing.assert_allclose(g.space_dual, [0.125, 0.375, 0.625, 0.875])
    assert g.space_closure.shape == (5,)
    assert g.time_closure.shape == (6,)
    # nbar carries t^0 .. t^N
    assert g.time_axis("nbar").count == 5


def test_canonical_axes_built_once_and_read_only():
    g = build_grid(3, 4, 2.0)
    assert g.space_axes is g.space_axes and g.time_axes is g.time_axes
    assert g.space_axis("closure") is g.space_axis("closure")
    with pytest.raises(TypeError):
        g.space_axes["primal"] = g.space_axes["dual"]
    with pytest.raises(TypeError):
        g.time_axes["nbar"] = g.time_axes["dual"]


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(0, 4, 1.0)
    with pytest.raises(ValueError):
        build_grid(4, 0, 1.0)
    with pytest.raises(ValueError):
        build_grid(4, 4, -1.0)


def test_grid_equality_and_smallest():
    assert build_grid(1, 2, 1.0) == Grid(1, 2, 1.0)
    assert build_grid(2, 2, 1.0) != build_grid(3, 2, 1.0)
    # the smallest admissible grid still carries every canonical axis
    g = build_grid(1, 2, 1.0)
    for tag in ("primal", "dual", "closure"):
        assert g.space_axis(tag).count >= 1


def test_gridfunction_shape_checks():
    g = build_grid(3, 4, 1.0)
    with pytest.raises(ValueError):
        GridFunction(g, np.zeros((4, 4)), g.space_axis("primal"), g.time_axis("primal"))
    u = GridFunction(g, np.zeros((3, 4)), g.space_axis("primal"), g.time_axis("primal"))
    assert u.space_tag == "primal" and u.time_tag == "primal"


def test_from_callable_and_restrict():
    g = build_grid(7, 6, 1.5)
    u = GridFunction.from_callable(
        g, "closure", "closure", lambda x, t: x + 10.0 * t
    )
    v = u.restrict(space="primal", time="primal")
    np.testing.assert_allclose(v.values, v.x[:, None] + 10.0 * v.t[None, :])
    # restriction to a non-contained axis fails
    from stochwave import Axis

    with pytest.raises(MeshMismatchError):
        v.restrict(space=Axis("int", 0, 9))


def test_arithmetic_alignment():
    g = build_grid(4, 4, 1.0)
    u = GridFunction(g, np.ones((4, 4)), g.space_axis("primal"), g.time_axis("primal"))
    w = GridFunction(g, np.ones((5, 4)), g.space_axis("dual"), g.time_axis("primal"))
    with pytest.raises(MeshMismatchError):
        _ = u + w
    assert np.all((u * 2.0).values == 2.0)
    assert np.all((u - u).values == 0.0)


# (3, 5) operands by the axes along which they hold one value
_FULL = (np.arange(15.0).reshape(3, 5) - 7.0) / 3.0
_FULL[0, 0] = -0.0
OPERANDS = {
    "dense": _FULL,
    "one-per-time": np.broadcast_to([[0.3, -0.0, 1.0 / 7.0, -2.5, 0.0]],
                                    (3, 5)),
    "one-per-space": np.broadcast_to([[-0.0], [0.1], [2.0 / 3.0]], (3, 5)),
    "one-value": np.broadcast_to(-1.0 / 3.0, (3, 5)),
}


def _check_like_dense(result, dense, *operands):
    """result holds the dense operation's bits, has stride 0 exactly
    where every operand has it, and is read-only."""
    assert result.values.shape == dense.shape
    assert result.values.tobytes() == dense.tobytes()
    assert [s == 0 for s in result.values.strides] == [
        all(v.strides[k] == 0 for v in operands) for k in range(2)]
    assert not result.values.flags.writeable


@pytest.mark.parametrize("b", OPERANDS)
@pytest.mark.parametrize("a", OPERANDS)
def test_arithmetic_keeps_one_value_axes(a, b):
    g = build_grid(3, 5, 1.0)
    va, vb = OPERANDS[a], OPERANDS[b]
    u, v = (GridFunction(g, x, g.space_axis("primal"), g.time_axis("primal"))
            for x in (va, vb))
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        _check_like_dense(op(u, v), op(np.array(va), np.array(vb)), va, vb)


@pytest.mark.parametrize("a", OPERANDS)
def test_scalar_arithmetic_and_negation_keep_one_value_axes(a):
    g = build_grid(3, 5, 1.0)
    va = OPERANDS[a]
    u = GridFunction(g, va, g.space_axis("primal"), g.time_axis("primal"))
    _check_like_dense(-u, -np.array(va), va)
    for s in (0.1, -0.0, 2):
        for op in (lambda x: x + s, lambda x: s + x, lambda x: x - s,
                   lambda x: s - x, lambda x: x * s, lambda x: s * x):
            _check_like_dense(op(u), op(np.array(va)), va)


def test_intersect_common_window():
    g = build_grid(5, 5, 1.0)
    u = GridFunction(
        g, np.arange(7.0)[:, None] * np.ones((1, 7)),
        g.space_axis("closure"), g.time_axis("closure"),
    )
    v = u.restrict(space="primal", time="primal")
    a, b = intersect(u, v)
    assert a.space_axis == b.space_axis
    assert a.time_axis == b.time_axis
    np.testing.assert_array_equal(a.values, b.values)


def test_region_normalization():
    assert normalize_region("MxN") == "MxN"
    assert normalize_region("M*xN*") == "M*xN*"
    with pytest.raises(ValueError):
        normalize_region("bogus")


def test_integrate_frozen_values():
    g = build_grid(3, 2, 1.0)
    x2 = GridFunction(g, g.space_primal**2, g.space_axis("primal"), None)
    assert integrate(x2, "M") == pytest.approx(oracles.INT_X2_M3, abs=1e-16)

    # interior space-time cell: dx * dt per node
    g2 = build_grid(4, 5, 1.0)
    one = GridFunction(
        g2, np.ones((4, 5)), g2.space_axis("primal"), g2.time_axis("primal")
    )
    assert integrate(one, "MxN") == pytest.approx(4 * 5 * g2.dx * g2.dt, rel=1e-15)


def test_integrate_boundary_regions():
    g = build_grid(3, 4, 1.0)
    u = GridFunction(
        g,
        np.arange(5.0)[:, None] * np.ones((1, 4)),
        g.space_axis("closure"),
        g.time_axis("primal"),
    )
    # dM picks the two boundary rows without a dx factor
    val = integrate(u, "dMxN")
    assert val == pytest.approx((0.0 + 4.0) * 4 * g.dt, rel=1e-15)


def test_integrate_tag_mismatch():
    g = build_grid(3, 4, 1.0)
    u = GridFunction(g, np.zeros(4), g.space_axis("dual"), None)
    with pytest.raises(MeshMismatchError):
        integrate(u, "M")


def test_trace_takes_dual_functions():
    g = build_grid(4, 4, 1.0)
    u = GridFunction(
        g,
        np.arange(5.0)[:, None] * np.ones((1, 6)),
        g.space_axis("dual"),
        g.time_axis("closure"),
    )
    left = trace(u, "left")
    assert left.space_axis is None
    assert np.all(left.values == 0.0)
    right = trace(u, "right")
    assert np.all(right.values == 4.0)
    primal = GridFunction(g, np.zeros(4), g.space_axis("primal"), None)
    with pytest.raises(MeshMismatchError):
        trace(primal, "left")


def test_norm_frozen_values():
    g = build_grid(3, 2, 1.0)
    ux = GridFunction(g, g.space_closure.copy(), g.space_axis("closure"), None)
    assert norm(ux, "H1") == pytest.approx(oracles.H1_OF_X_M3, abs=1e-15)
    one = GridFunction(g, np.ones(3), g.space_axis("primal"), None)
    assert norm(one, "L2") == pytest.approx(oracles.L2_OF_ONE_M3, abs=1e-15)


def test_norm_linf_and_dt():
    g = build_grid(3, 4, 2.0)
    vals = np.zeros((5, 6))
    vals[2, 3] = -7.0
    u = GridFunction(g, vals, g.space_axis("closure"), g.time_axis("closure"))
    assert norm(u, "Linf") == 7.0
    # Dt of a linear-in-time function: slope everywhere
    lin = GridFunction.from_callable(
        g, "primal", "closure", lambda x, t: 3.0 * t + 0.0 * x
    )
    # integral of 9 over M x N
    expected = np.sqrt(9.0 * 3 * 4 * g.dx * g.dt)
    assert norm(lin, "Dt") == pytest.approx(expected, rel=1e-14)
    short = lin.restrict(time="primal")
    with pytest.raises(IncompleteTrajectoryError):
        norm(short, "Dt")


def test_norm_xt_pair():
    g = build_grid(3, 2, 1.0)
    y = GridFunction(g, g.space_closure.copy(), g.space_axis("closure"), None)
    v = GridFunction(g, np.ones(5), g.space_axis("closure"), None)
    got = norm((y, v), "XT")
    assert got == pytest.approx(oracles.H1_OF_X_M3 + oracles.L2_OF_ONE_M3, abs=1e-14)
    with pytest.raises(ValueError):
        norm(y, "XT")


def test_l2_norm_of_zero_stride_zero_field_reads_it_once():
    # a full square of the 1000 x 1000 field would hold 8 MB
    g = build_grid(1000, 1000, 1.0)
    u = zero_field(g, "primal", "primal")
    tracemalloc.start()
    try:
        got = norm(u, "L2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 0.0 and not np.signbit(got)
    assert peak < 64 * 1024
    # the same as the norm of the dense zeros, and of a dense -0.0
    for fill in (0.0, -0.0):
        dense = GridFunction(g, np.full((1000, 1000), fill), u.space_axis,
                             u.time_axis)
        assert norm(dense, "L2") == got
