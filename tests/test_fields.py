"""Synthetic data builders: boundary compatibility and seed semantics."""

import numpy as np
import pytest

from stochwave import fields
from stochwave import (
    build_grid,
    constant_coefficient,
    preset_coefficient,
    random_field,
    random_slice,
    sine_field,
    sine_slice,
    zero_field,
)


def test_zero_field_tags():
    g = build_grid(5, 5, 1.0)
    u = zero_field(g)
    assert u.space_tag == "closure" and u.time_tag == "slice"
    assert np.all(u.values == 0.0)
    w = zero_field(g, "primal", "primal")
    assert w.values.shape == (5, 5)


def test_zero_field_is_a_zero_stride_read_only_view():
    g = build_grid(5, 5, 1.0)
    for u in (zero_field(g), zero_field(g, "primal", "primal")):
        assert set(u.values.strides) == {0}
        assert not u.values.flags.writeable
        with pytest.raises(ValueError):
            u.values[1] = 1.0
        copy = u.copy()
        copy.values[1] = 1.0
        assert np.all(u.values == 0.0)


def test_sine_slice_endpoints_exact():
    g = build_grid(9, 4, 1.0)
    for mode in (1, 2, 5):
        u = sine_slice(g, mode, 2.0)
        assert u.values[0] == 0.0 and u.values[-1] == 0.0
        interior = 2.0 * np.sin(np.pi * mode * u.x[1:-1])
        np.testing.assert_allclose(u.values[1:-1], interior, rtol=1e-14)
    with pytest.raises(ValueError):
        sine_slice(g, 0, 1.0)
    with pytest.raises(ValueError):
        sine_slice(g, 1.5, 1.0)


def test_random_slice_same_seed_same_function():
    coarse = build_grid(7, 4, 1.0)
    fine = build_grid(15, 4, 1.0)
    uc = random_slice(coarse, seed=42, amplitude=1.0)
    uf = random_slice(fine, seed=42, amplitude=1.0)
    # every coarse node exists on the fine grid at even index
    np.testing.assert_allclose(uc.values, uf.values[::2], rtol=1e-13, atol=1e-15)
    assert uc.values[0] == 0.0 and uc.values[-1] == 0.0
    other = random_slice(coarse, seed=43, amplitude=1.0)
    assert not np.allclose(uc.values, other.values)


def test_sine_field_replicates_over_time():
    g = build_grid(6, 5, 1.0)
    f = sine_field(g, 2, 0.7)
    assert f.space_tag == "primal" and f.time_tag == "primal"
    assert np.all(f.values == f.values[:, :1])


def test_random_field_space_only_flag():
    g = build_grid(6, 8, 1.0)
    full = random_field(g, 3, 1.0)
    flat = random_field(g, 3, 1.0, space_only=True)
    assert not np.all(full.values == full.values[:, :1])
    assert np.all(flat.values == flat.values[:, :1])


def test_random_field_closure_boundary_rows():
    g = build_grid(6, 6, 1.0)
    u = random_field(g, 5, 1.0, space_tag="closure", time_tag="closure")
    assert np.all(u.values[0] == 0.0) and np.all(u.values[-1] == 0.0)


def test_coefficient_builders():
    g = build_grid(4, 6, 1.0)
    c = constant_coefficient(g, 2.5)
    assert c.space_tag == "closure" and c.time_tag == "nbar"
    assert np.all(c.values == 2.5)
    ramp = preset_coefficient(g, "ramp_x")
    np.testing.assert_allclose(ramp.values, ramp.x[:, None] + 0.0 * ramp.values)
    assert np.all(preset_coefficient(g, "one").values == 1.0)
    with pytest.raises(ValueError):
        preset_coefficient(g, "nope")


# the presets as they were written for the full meshgrid
MESHGRID_PRESETS = {
    "zero": lambda x, t: np.zeros_like(x + t),
    "one": lambda x, t: np.ones_like(x + t),
    "ramp_x": lambda x, t: x + 0.0 * t,
    "ramp_t": lambda x, t: t + 0.0 * x,
    "sine_x": lambda x, t: np.sin(np.pi * x) + 0.0 * t,
}


@pytest.mark.parametrize("name, per_level", [
    ("zero", True), ("one", True), ("ramp_t", True),
    ("ramp_x", False), ("sine_x", False),
])
def test_presets_that_do_not_vary_in_x_are_zero_stride_along_x(
        name, per_level):
    g = build_grid(6, 9, 1.0)
    values = preset_coefficient(g, name).values
    assert values.shape == (g.M + 2, g.N + 1)
    assert not values.flags.writeable
    assert (values.strides[0] == 0) == per_level
    assert fields.preset_varies_in_x(name) == (not per_level)
    assert values.strides[1] != 0
    x, t = np.meshgrid(g.space_closure, g.time_axis("nbar").coords(g.dt),
                       indexing="ij")
    full = MESHGRID_PRESETS[name](x, t)
    assert np.array(values).tobytes() == full.tobytes()
