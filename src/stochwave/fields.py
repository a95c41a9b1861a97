"""Factories for initial data, sources, and coefficient fields.

Random data is built from a few low sine modes with seeded coefficients
rather than nodal noise, for two reasons: the fields stay smooth enough
for refinement studies, and the same seed describes the same continuum
function on every grid, so coupled experiments can sample one function
at two resolutions.  Endpoint values of closure-mesh slices are forced
to exactly 0.0 (sin(pi*m) evaluates to a rounding remnant, and the
solver requires exact boundary zeros).
"""

from __future__ import annotations

import numpy as np

from .grids import Grid, GridFunction

_SINE_MODES = 4


def zero_field(grid: Grid, space_tag="closure", time_tag=None) -> GridFunction:
    """Zero on the named meshes.  Like constant_coefficient, its values
    are a read-only, zero-stride broadcast of one 0.0: no memory grows
    with the mesh (copy() it to write into it)."""
    sax = grid.space_axis(space_tag) if space_tag is not None else None
    tax = grid.time_axis(time_tag) if time_tag is not None else None
    shape = tuple(ax.count for ax in (sax, tax) if ax is not None)
    return GridFunction(grid, np.broadcast_to(np.float64(0.0), shape), sax,
                        tax)


def _zero_closure_endpoints(values: np.ndarray, axis_tag: str) -> np.ndarray:
    if axis_tag == "closure":
        values[0] = 0.0
        values[-1] = 0.0
    return values


def sine_slice(
    grid: Grid, mode: int, amplitude: float, space_tag="closure"
) -> GridFunction:
    """amplitude * sin(pi * mode * x) on the named space mesh."""
    if not (isinstance(mode, (int, np.integer)) and mode >= 1):
        raise ValueError(f"mode must be a positive integer, got {mode!r}")
    ax = grid.space_axis(space_tag)
    vals = amplitude * np.sin(np.pi * mode * ax.coords(grid.dx))
    vals = _zero_closure_endpoints(vals, space_tag)
    return GridFunction(grid, vals, ax, None)


def sine_field(
    grid: Grid,
    mode: int,
    amplitude: float,
    space_tag="primal",
    time_tag="primal",
) -> GridFunction:
    """Space sine replicated across the named time mesh."""
    sl = sine_slice(grid, mode, amplitude, space_tag)
    tax = grid.time_axis(time_tag)
    vals = np.repeat(sl.values[:, None], tax.count, axis=1)
    return GridFunction(grid, vals, sl.space_axis, tax)


_MASK64 = (1 << 64) - 1


def _philox_words(seed, n: int) -> list:
    """The first n 64-bit words of the Philox4x64-10 stream keyed
    [np.uint64(seed), 0], as NumPy's Philox(key=seed).random_raw(n)
    gives them: the 256-bit counter is incremented before each block of
    four words, which takes 10 rounds with the constants of _native.c's
    philox_next.  In Python integers, so that a random field does not
    import numpy.random (about 2 MB of RSS)."""
    key = int(np.uint64(seed))  # OverflowError outside 0 .. 2^64 - 1
    words, ctr = [], 0
    while len(words) < n:
        ctr += 1
        c0, c1, c2, c3 = (ctr >> s & _MASK64 for s in (0, 64, 128, 192))
        k0, k1 = key, 0
        for r in range(10):
            if r:
                k0 = (k0 + 0x9E3779B97F4A7C15) & _MASK64
                k1 = (k1 + 0xBB67AE8584CAA73B) & _MASK64
            p0 = 0xD2E7470EE14C6C93 * c0
            p1 = 0xCA5A826395121157 * c2
            c0, c1, c2, c3 = (p1 >> 64 ^ c1 ^ k0, p1 & _MASK64,
                              p0 >> 64 ^ c3 ^ k1, p0 & _MASK64)
        words += (c0, c1, c2, c3)
    return words[:n]


def _combo_coeffs(seed: int, n: int) -> np.ndarray:
    """n coefficients in [-1, 1): the bits of
    Generator(Philox(key=np.uint64(seed))).uniform(-1.0, 1.0, n), each
    the top 53 bits of a _philox_words word times 2^-53, scaled by 2
    and shifted by -1 as NumPy's uniform does."""
    return np.array([-1.0 + 2.0 * ((w >> 11) * (1.0 / 9007199254740992.0))
                     for w in _philox_words(seed, n)])


def random_slice(
    grid: Grid, seed: int, amplitude: float, space_tag="closure"
) -> GridFunction:
    """Seeded smooth slice: amplitude-scaled combination of the first
    few sine modes.  The same seed denotes the same continuum function
    on every grid."""
    c = _combo_coeffs(seed, _SINE_MODES)
    ax = grid.space_axis(space_tag)
    x = ax.coords(grid.dx)
    vals = np.zeros_like(x)
    for m, cm in enumerate(c, start=1):
        vals += cm * np.sin(np.pi * m * x)
    vals *= amplitude
    vals = _zero_closure_endpoints(vals, space_tag)
    return GridFunction(grid, vals, ax, None)


def random_field(
    grid: Grid,
    seed: int,
    amplitude: float,
    space_tag="primal",
    time_tag="primal",
    space_only=False,
) -> GridFunction:
    """Seeded smooth space-time field: sine modes in space modulated by
    low cosine modes in t/T.  space_only=True drops the time modulation,
    replicating one spatial profile across all time levels."""
    sax = grid.space_axis(space_tag)
    tax = grid.time_axis(time_tag)
    x = sax.coords(grid.dx)
    if space_only:
        sl = random_slice(grid, seed, amplitude, space_tag)
        vals = np.repeat(sl.values[:, None], tax.count, axis=1)
        return GridFunction(grid, vals, sax, tax)
    t = tax.coords(grid.dt)
    c = _combo_coeffs(seed, _SINE_MODES * 2).reshape(_SINE_MODES, 2)
    vals = np.zeros((sax.count, tax.count))
    tt = t / grid.T
    for m in range(1, _SINE_MODES + 1):
        sx = np.sin(np.pi * m * x)[:, None]
        vals += sx * (
            c[m - 1, 0] * np.cos(np.pi * (m - 1) * tt)[None, :]
            + c[m - 1, 1] * np.sin(np.pi * m * tt)[None, :]
        )
    vals *= amplitude
    if space_tag == "closure":
        vals[0, :] = 0.0
        vals[-1, :] = 0.0
    return GridFunction(grid, vals, sax, tax)


def constant_coefficient(grid: Grid, value: float) -> GridFunction:
    """Constant field on the closure x nbar carrier used by scheme
    coefficients.  Its values are a read-only, zero-stride broadcast of
    the one value: no memory grows with the mesh."""
    sax = grid.space_axis("closure")
    tax = grid.time_axis("nbar")
    return GridFunction(
        grid,
        np.broadcast_to(np.float64(value), (sax.count, tax.count)),
        sax,
        tax,
    )


# zero, one and ramp_t do not read x: stride 0 along x (from_callable)
COEFF_PRESETS = {
    "zero": lambda x, t: np.zeros_like(t),
    "one": lambda x, t: np.ones_like(t),
    "ramp_x": lambda x, t: x + 0.0 * t,
    "ramp_t": lambda x, t: t + 0.0,
    "sine_x": lambda x, t: np.sin(np.pi * x) + 0.0 * t,
}


def preset_coefficient(grid: Grid, name: str) -> GridFunction:
    """Named coefficient field on closure x nbar; see COEFF_PRESETS."""
    try:
        fn = COEFF_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown coefficient preset {name!r}; "
            f"valid: {sorted(COEFF_PRESETS)}"
        ) from None
    return GridFunction.from_callable(grid, "closure", "nbar", fn)


def preset_varies_in_x(name: str) -> bool:
    """Whether preset_coefficient builds preset `name` as a full
    (M+2, N+1) array: only a preset that reads x does.  The others are
    one row of N+1 values broadcast along x with stride 0.  Read off
    the preset on a two-node open mesh, as from_callable samples it."""
    return COEFF_PRESETS[name](np.zeros((2, 1)), np.zeros((1, 1))).shape[0] > 1
