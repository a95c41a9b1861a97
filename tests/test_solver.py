"""Explicit leapfrog scheme: exactness, reproducibility, and failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stochwave import _stepper_np, solver
from stochwave import (
    BlowUpError,
    GridFunction,
    ProblemData,
    SchemeCoefficients,
    SingularUpdateError,
    Window,
    build_grid,
    constant_coefficient,
    observe,
    path_seed,
    preset_coefficient,
    random_field,
    random_slice,
    run_ensemble,
    sample_brownian,
    scheme_residual,
    sine_field,
    sine_slice,
    solve,
    stream_windows,
    zero_field,
)


def zero_path(grid):
    return np.zeros(grid.N + 1)


def closure_values(win):
    """Path 0 of a whole Window as a closure x closure GridFunction."""
    grid = win.grid
    return GridFunction(grid, win.Y[0].T, grid.space_axis("closure"),
                        grid.time_axis("closure"))


def wave_data(grid):
    return ProblemData(
        y0=sine_slice(grid, 1, 1.0),
        y1=zero_field(grid),
        g=zero_field(grid, "primal", "primal"),
    )


def test_path_seed_is_splitmix64():
    assert [path_seed(0, k) for k in range(5)] == list(oracles.SPLITMIX64_SEED0)
    # distinct masters decorrelate, same call is pure
    assert path_seed(1, 0) != path_seed(0, 0)
    assert path_seed(7, 3) == path_seed(7, 3)


def test_sample_brownian_moments():
    grid = build_grid(3, 10_000, 100.0)      # dt = 0.01
    path = sample_brownian(grid.N, grid.dt, seed=2024)
    assert path.shape == (grid.N + 1,)
    var = np.var(path, ddof=1)
    lo, hi = oracles.BROWNIAN_VAR_BAND_10K
    assert lo <= var <= hi
    # reproducible, and distinct seeds differ
    again = sample_brownian(grid.N, grid.dt, seed=2024)
    np.testing.assert_array_equal(path, again)
    assert not np.array_equal(
        path, sample_brownian(grid.N, grid.dt, seed=2025)
    )


def test_problem_data_validation():
    grid = build_grid(5, 5, 1.0)
    good = wave_data(grid)
    assert good.grid == grid
    bad_y0 = GridFunction(
        grid, np.ones(7), grid.space_axis("closure"), None
    )
    with pytest.raises(ValueError):
        ProblemData(y0=bad_y0, y1=zero_field(grid), g=zero_field(grid, "primal", "primal"))
    with pytest.raises(ValueError):
        ProblemData(
            y0=zero_field(grid, "primal", None),
            y1=zero_field(grid),
            g=zero_field(grid, "primal", "primal"),
        )


def test_absent_forcing_is_a_one_value_zero_field():
    grid = build_grid(5, 7, 1.0)
    f = wave_data(grid).f
    assert (f.space_tag, f.time_tag) == ("primal", "primal")
    assert f.values.shape == (5, 7) and f.values.strides == (0, 0)
    assert f.values.tobytes() == bytes(f.values.nbytes)
    # f is checked as g is
    with pytest.raises(ValueError, match="^f must carry space tag 'primal'"):
        ProblemData(y0=sine_slice(grid, 1, 1.0), y1=zero_field(grid),
                    g=zero_field(grid, "primal", "primal"),
                    f=zero_field(grid, "dual", "primal"))


def test_difference_of_zero_sources_holds_no_full_array():
    grid = build_grid(5, 7, 1.0)
    a = wave_data(grid)
    b = ProblemData(y0=sine_slice(grid, 2, 0.5), y1=sine_slice(grid, 1, 0.3),
                    g=zero_field(grid, "primal", "primal"))
    d = a.difference(b)
    for u in (d.g, d.f):
        assert u.values.shape == (5, 7) and u.values.strides == (0, 0)
        assert u.values.tobytes() == bytes(u.values.nbytes)
    assert np.array_equal(d.y0.values, a.y0.values - b.y0.values)


def test_matches_reference_stepper_exactly():
    grid = build_grid(7, 9, 0.9)
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0),
        y1=random_slice(grid, 2, 0.6),
        g=random_field(grid, 3, 0.7),
        f=random_field(grid, 4, 0.2),
    )
    coeffs = SchemeCoefficients.constant(grid, a=-0.3, b=0.25, c=0.4, d=0.5)
    path = sample_brownian(grid.N, grid.dt, 777)
    traj = solve(data, coeffs, path, grid)
    co = {k: np.asarray(getattr(coeffs, k).values) for k in "abcd"}
    Yref = oracles.reference_leapfrog(
        grid.M, grid.N, grid.T,
        data.y0.values, data.y1.values,
        co["a"], co["b"], co["c"], co["d"],
        data.g.values, data.f.values, path,
    )
    np.testing.assert_allclose(traj.Y[0].T, Yref, rtol=0, atol=1e-13)


def test_boundary_pinned_exactly():
    grid = build_grid(9, 30, 1.5)
    data = ProblemData(
        y0=random_slice(grid, 10, 1.0),
        y1=random_slice(grid, 11, 1.0),
        g=random_field(grid, 12, 1.0),
    )
    coeffs = SchemeCoefficients.constant(grid, a=1.0, b=0.5, c=0.2, d=0.8)
    traj = solve(data, coeffs, sample_brownian(grid.N, grid.dt, 5), grid)
    assert np.all(traj.Y[0].T[0] == 0.0)
    assert np.all(traj.Y[0].T[-1] == 0.0)


def test_unit_cfl_standing_wave_exact_at_integer_times():
    # dt = dx propagates the mode-1 standing wave exactly to t = 1: the
    # scheme's dispersion relation is exact there and the first-step
    # initialization error cancels at integer times
    for M in (15, 31):
        N = M + 1                       # T = 1, dt = dx
        grid = build_grid(M, N, 1.0)
        traj = solve(
            wave_data(grid),
            SchemeCoefficients.constant(grid),
            zero_path(grid),
            grid,
        )
        exact = np.array([oracles.dalembert(x, 1.0) for x in grid.space_closure])
        err = np.max(np.abs(traj.Y[0].T[:, N] - exact))
        assert err < 1e-12


def test_first_level_and_initial_slice():
    grid = build_grid(4, 4, 1.0)
    data = ProblemData(
        y0=sine_slice(grid, 1, 1.0),
        y1=sine_slice(grid, 2, 1.0),
        g=zero_field(grid, "primal", "primal"),
    )
    traj = solve(data, SchemeCoefficients.constant(grid), zero_path(grid), grid)
    np.testing.assert_array_equal(traj.Y[0].T[:, 0], data.y0.values)
    interior = data.y0.values[1:-1] + grid.dt * data.y1.values[1:-1]
    np.testing.assert_array_equal(traj.Y[0].T[1:-1, 1], interior)


def test_scheme_residual_of_solution_is_rounding():
    grid = build_grid(8, 12, 1.0)
    data = ProblemData(
        y0=random_slice(grid, 20, 1.0),
        y1=random_slice(grid, 21, 1.0),
        g=random_field(grid, 22, 1.0),
        f=random_field(grid, 23, 1.0),
    )
    coeffs = SchemeCoefficients.constant(grid, a=0.4, b=-0.2, c=0.5, d=0.9)
    path = sample_brownian(grid.N, grid.dt, 99)
    traj = solve(data, coeffs, path, grid)
    res = scheme_residual(closure_values(traj), coeffs, data.g, data.f, path,
                          grid)
    assert res < 1e-12


COEFF = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from(["zero", "one", "ramp_x", "ramp_t", "sine_x"]),
)


# derandomized: the same examples on every run
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    M=st.integers(1, 10),
    N=st.integers(1, 40),
    cfl=st.floats(0.05, 1.0),
    cdt=st.floats(-0.95, 0.95),
    abd=st.tuples(COEFF, COEFF, COEFF),
    seed=st.integers(0, 2**32),
)
def test_scheme_residual_of_solution_is_rounding_on_random_grids(
        M, N, cfl, cdt, abd, seed):
    # dt = cfl dx <= dx and |c dt| < 1: the update is regular, and the
    # weight form must satisfy the paper's update to rounding
    grid = build_grid(M, N, N * cfl / (M + 1))
    a, b, d = (
        preset_coefficient(grid, v) if isinstance(v, str)
        else constant_coefficient(grid, v)
        for v in abd
    )
    coeffs = SchemeCoefficients(
        a=a, b=b, c=constant_coefficient(grid, cdt / grid.dt), d=d
    )
    data = ProblemData(
        y0=random_slice(grid, seed, 1.0),
        y1=random_slice(grid, seed + 1, 1.0),
        g=random_field(grid, seed + 2, 1.0),
        f=random_field(grid, seed + 3, 1.0),
    )
    path = sample_brownian(grid.N, grid.dt, seed)
    traj = solve(data, coeffs, path, grid)
    assert scheme_residual(closure_values(traj), coeffs, data.g, data.f, path,
                           grid) < 1e-12


def test_singular_update_detected_upfront():
    grid = build_grid(5, 4, 1.0)          # dt = 0.25, c = 4 makes c dt = 1
    # refused where the coefficients are built, before any stepping
    with pytest.raises(SingularUpdateError):
        SchemeCoefficients.constant(grid, c=4.0)


def test_blow_up_reports_first_level():
    # dt >> dx, enough steps for the instability to reach infinity
    grid = build_grid(63, 512, 128.0)
    data = ProblemData(
        y0=sine_slice(grid, 4, 1.0),
        y1=zero_field(grid),
        g=zero_field(grid, "primal", "primal"),
    )
    with pytest.raises(BlowUpError) as exc:
        solve(data, SchemeCoefficients.constant(grid), zero_path(grid), grid)
    assert exc.value.n >= 2
    assert 1 <= exc.value.j <= grid.M
    assert exc.value.path == 0


def test_cfl_warning_flag():
    g1 = build_grid(7, 64, 1.0)           # dt = 1/64 < dx = 1/8
    t1 = solve(wave_data(g1), SchemeCoefficients.constant(g1), zero_path(g1), g1)
    assert not t1.grid.cfl_warning
    g2 = build_grid(7, 4, 1.0)            # dt = 0.25 > dx
    t2 = solve(wave_data(g2), SchemeCoefficients.constant(g2), zero_path(g2), g2)
    assert t2.grid.cfl_warning


def test_run_ensemble_reproducible_and_decorrelated():
    grid = build_grid(6, 10, 1.0)
    data = ProblemData(
        y0=sine_slice(grid, 1, 1.0),
        y1=zero_field(grid),
        g=sine_field(grid, 1, 1.0),
    )
    coeffs = SchemeCoefficients.constant(grid, d=0.7)
    e1 = run_ensemble(data, coeffs, grid, paths=4, master_seed=13)
    e2 = run_ensemble(data, coeffs, grid, paths=4, master_seed=13)
    np.testing.assert_array_equal(e1.Y, e2.Y)
    # path k is driven by the increments of seed path_seed(13, k), and
    # those differ from path to path
    seeds = [path_seed(13, k) for k in range(4)]
    assert len(set(seeds)) == 4
    for k, sd in enumerate(seeds):
        inc = sample_brownian(grid.N, grid.dt, sd)
        assert e1.dB[k].tobytes() == inc.tobytes()
    assert len({e1.dB[k].tobytes() for k in range(4)}) == 4
    # single-path ensemble equals a direct solve with the same path
    e3 = run_ensemble(data, coeffs, grid, paths=1, master_seed=13)
    direct = solve(data, coeffs, sample_brownian(grid.N, grid.dt, path_seed(13, 0)), grid)
    np.testing.assert_array_equal(e3.Y[0].T, direct.Y[0].T)
    np.testing.assert_array_equal(e3.Y.mean(axis=0).T, direct.Y[0].T)


def fresh_philox_increments(N, dt, seed):
    """The frozen per-path stream: a new Philox generator keyed by seed."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return rng.standard_normal(N + 1) * np.sqrt(dt)


def test_reused_philox_sampler_matches_fresh_generators():
    grid = build_grid(3, 40, 1.0)
    ens = run_ensemble(
        wave_data(grid), SchemeCoefficients.constant(grid, d=0.5), grid,
        paths=16, master_seed=99,
    )
    seeds = [path_seed(99, k) for k in range(ens.paths)]
    assert any(sd >= 2**63 for sd in seeds)
    for k, sd in enumerate(seeds):
        expected = fresh_philox_increments(grid.N, grid.dt, sd)
        assert ens.dB[k].tobytes() == expected.tobytes()
    for sd in (0, 2**63, 2**64 - 1):
        got = sample_brownian(grid.N, grid.dt, sd)
        expected = fresh_philox_increments(grid.N, grid.dt, sd)
        assert got.tobytes() == expected.tobytes()


def test_ensemble_views_equal_solve():
    grid = build_grid(5, 30, 1.0)
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0),
        y1=random_slice(grid, 2, 1.0),
        g=random_field(grid, 3, 1.0),
        f=random_field(grid, 4, 1.0),
    )
    coeffs = SchemeCoefficients.constant(grid, a=-0.3, b=0.2, c=0.1, d=0.6)
    ens = run_ensemble(data, coeffs, grid, paths=5, master_seed=21)
    assert ens.paths == 5 and ens.Y.shape == (5, grid.N + 2, grid.M + 2)
    assert ens.n0 == 0 and ens.whole
    assert not grid.cfl_warning
    for k in range(ens.paths):
        path = sample_brownian(grid.N, grid.dt, path_seed(21, k))
        direct = solve(data, coeffs, path, grid)
        np.testing.assert_array_equal(ens.Y[k].T, direct.Y[0].T)
        np.testing.assert_array_equal(ens.dB[k], path)
        assert grid.cfl_warning == direct.grid.cfl_warning


def test_ensemble_validation():
    grid = build_grid(3, 2, 1.0)           # dt = 0.5 > dx = 0.25
    good = dict(
        grid=grid,
        Y=np.zeros((2, grid.N + 2, grid.M + 2), dtype=np.float32),
        dB=np.zeros((2, grid.N + 1), dtype=np.float32),
        n0=0,
    )
    win = Window(**good)
    assert win.paths == 2 and win.whole and grid.cfl_warning
    assert win.Y.dtype == win.dB.dtype == np.float64
    for key, bad in (
        ("Y", np.zeros((2, grid.N + 2, grid.M + 1))),
        ("Y", np.zeros((0, grid.N + 2, grid.M + 2))),
        ("Y", np.zeros((2, 2, grid.M + 2))),          # L = 0
        ("Y", np.zeros((grid.N + 2, grid.M + 2))),
        ("dB", np.zeros((2, grid.N))),
        ("dB", np.zeros((3, grid.N + 1))),
        ("n0", -1),
        ("n0", 1),                                    # n0 + L = 3 > N
    ):
        with pytest.raises(ValueError):
            Window(**dict(good, **{key: bad}))
    pinned = np.zeros((2, grid.N + 2, grid.M + 2))
    pinned[1, 3, -1] = 1.0
    with pytest.raises(ValueError, match="boundary"):
        Window(**dict(good, Y=pinned))
    # a window of some levels is in range at n0 = 0 and n0 = 1, and its
    # boundary is not scanned: only a whole window is
    for n0 in (0, 1):
        part = Window(grid, pinned[:, 1:], good["dB"][:, :2], n0)
        assert part.levels == 1 and not part.whole
        assert part.last == (n0 == 1)
        wins = tuple(part.windows())
        assert len(wins) == 1 and wins[0] is part
    # a part window holds its own increments, not the block's N+1
    with pytest.raises(ValueError, match="dB"):
        Window(grid, pinned[:, 1:], good["dB"], 0)


def test_observe_flux_and_terminal():
    grid = build_grid(5, 4, 1.0)          # dt = 0.25 is exact in binary
    data = ProblemData(
        y0=sine_slice(grid, 1, 1.0),
        y1=sine_slice(grid, 2, 1.0),
        g=zero_field(grid, "primal", "primal"),
    )
    traj = solve(data, SchemeCoefficients.constant(grid), zero_path(grid), grid)
    flux, (terminal_y, terminal_v) = observe(traj, grid)
    y = traj.Y[0].T
    N = grid.N
    np.testing.assert_array_equal(terminal_y[0], y[:, N])
    expected_v = (y[:, N + 1] - y[:, N]) / grid.dt
    np.testing.assert_array_equal(terminal_v[0], expected_v)
    # flux = first difference across the left boundary at primal times
    expected_flux = (y[1, 1 : N + 1] - y[0, 1 : N + 1]) / grid.dx
    np.testing.assert_allclose(flux[0], expected_flux, rtol=1e-15)
    # the terminal pair needs the full time closure through t^{N+1}: a
    # window without level N+1 has none
    part = Window(grid, traj.Y[:, : N + 1], traj.dB[:, :N], 0)
    assert not part.whole and observe(part, grid)[1] is None


def observation_problem():
    """A 31 x 100 problem with random data and source and noise."""
    grid = build_grid(31, 100, 1.0)
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0), y1=random_slice(grid, 2, 0.5),
        g=random_field(grid, 3, 0.8),
    )
    return data, SchemeCoefficients.constant(grid, a=-0.4, d=0.6), grid


def brute_observations(Y, grid):
    """oracles.brute_observation of each path of Y (P, N+2, M+2), as
    arrays (P, N), (P, M+2), (P, M+2)."""
    obs = [oracles.brute_observation(y.T.tolist(), grid.M, grid.N, grid.T)
           for y in Y]
    return tuple(np.array(part) for part in zip(*obs))


def test_observe_window_matches_the_scalar_oracle_on_a_whole_window():
    data, coeffs, grid = observation_problem()
    ens = run_ensemble(data, coeffs, grid, paths=5, master_seed=11)
    flux, (yT, vT) = observe(ens, grid)
    for got, want in zip((flux, yT, vT), brute_observations(ens.Y, grid)):
        np.testing.assert_array_equal(got, want)


def test_observe_window_on_stream_windows_matches_the_scalar_oracle(
        monkeypatch):
    """Blocks of 2, 2 and 1 paths, windows of 16 levels but the last:
    the flux rows of each block's windows, concatenated, and its last
    window's terminal pair are the oracle's, and no other window has a
    pair."""
    data, coeffs, grid = observation_problem()
    monkeypatch.setattr(solver, "_BLOCK_NODES", 2 * grid.M)
    want = brute_observations(
        run_ensemble(data, coeffs, grid, paths=5, master_seed=11).Y, grid)
    flux, yT, vT, lasts = [], [], [], 0
    for win in stream_windows(data, coeffs, grid, 5, 11):
        rows, terminal = observe(win, grid)
        if win.n0 == 0:
            flux.append([])
        flux[-1].append(rows)
        assert (terminal is not None) == win.last
        if win.last:
            lasts += 1
            yT.append(terminal[0].copy())
            vT.append(terminal[1])
    assert lasts == len(flux) == 3
    flux = np.concatenate([np.concatenate(b, axis=1) for b in flux])
    for got, ref in zip((flux, np.concatenate(yT), np.concatenate(vT)), want):
        np.testing.assert_array_equal(got, ref)


def test_observe_of_path_0_is_observe_window_of_the_ensemble():
    """observe(solve(...)) of path 0 gives the oracle's observation and
    row 0 of observe on the ensemble's whole window."""
    data, coeffs, grid = observation_problem()
    ens = run_ensemble(data, coeffs, grid, paths=5, master_seed=11)
    path = sample_brownian(grid.N, grid.dt, path_seed(11, 0))
    one, (one_yT, one_vT) = observe(solve(data, coeffs, path, grid), grid)
    flux, (yT, vT) = observe(ens, grid)
    got = (one, one_yT, one_vT)
    for g, w, r in zip(got, (flux[:1], yT[:1], vT[:1]),
                       brute_observations(ens.Y[:1], grid)):
        np.testing.assert_array_equal(g, w)
        np.testing.assert_array_equal(g[0], r[0])


def test_brownian_path_validation():
    # solve takes one path's N+1 increments, nothing else
    grid = build_grid(3, 4, 1.0)
    for dB in (np.zeros((2, 2)), np.zeros(1), np.zeros((1, grid.N + 1))):
        with pytest.raises(ValueError):
            solve(wave_data(grid), SchemeCoefficients.constant(grid), dB,
                  grid)


# ---------------------------------------------------------------------------
# NumPy kernel against a per-node scalar reference


def scalar_step_paths(Y, A, B, C, D, G, F, dB, dt, dx):
    """The weight form of the _stepper_np docstring, one node at a time
    in Python floats, in the docstring's grouping.  Levels advance for
    all paths together; after the first level holding a non-finite
    value, stepping stops and the first offence in (p, j) order is
    reported."""
    P, Nt, Mf = Y.shape
    N, M = Nt - 2, Mf - 2
    dt2 = dt * dt
    lam = dt2 / (dx * dx)
    h = dt2 / (2.0 * dx)
    for n in range(1, N + 1):
        first = None
        for p in range(P):
            db = float(dB[p, n])
            for j in range(1, M + 1):
                cdt = float(C[n, j]) * dt
                kap = 1.0 / (1.0 - cdt)
                alp = (((2.0 - cdt) + dt2 * float(A[n, j])) - 2.0 * lam) * kap
                hb = h * float(B[n, j])
                bp = (lam + hb) * kap
                bm = (lam - hb) * kap
                dl = (dt * float(D[n, j])) * kap
                gh = (dt * float(G[n, j])) * kap
                fh = (dt2 * float(F[n, j])) * kap
                val = (
                    (
                        alp * float(Y[p, n, j])
                        + bp * float(Y[p, n, j + 1])
                        + bm * float(Y[p, n, j - 1])
                        - kap * float(Y[p, n - 1, j])
                    )
                    + (dl * float(Y[p, n, j]) + gh) * db
                ) + fh
                Y[p, n + 1, j] = val
                if first is None and not math.isfinite(val):
                    first = (n + 1, p, j)
        if first is not None:
            return (True,) + first
    return False, -1, -1, -1


def paper_step_paths(Y, A, B, C, D, G, F, dB, dt, dx):
    """The scheme's update as the paper writes it, numerator over
    (1 - c dt), one node at a time: the oracle the weight form must
    match to rounding.  Finite inputs only; returns nothing."""
    P, Nt, Mf = Y.shape
    N, M = Nt - 2, Mf - 2
    for n in range(1, N + 1):
        for p in range(P):
            for j in range(1, M + 1):
                yc, ym = Y[p, n, j], Y[p, n - 1, j]
                ypl, ymn = Y[p, n, j + 1], Y[p, n, j - 1]
                c = C[n, j]
                num = (
                    2.0 * yc
                    - ym
                    + dt * dt * ((ypl - 2.0 * yc + ymn) / (dx * dx)
                                 + A[n, j] * yc
                                 + B[n, j] * (ypl - ymn) / (2.0 * dx))
                    - c * dt * yc
                    + dt * ((D[n, j] * yc + G[n, j]) * dB[p, n] + F[n, j] * dt)
                )
                Y[p, n + 1, j] = num / (1.0 - c * dt)


# kinds of kernel tables: "varying" in n and j; "constant" everywhere;
# "level", constant along j but varying in n; "zero_f", an all-zero F as
# f = None gives; "signed_zero", level tables with a G that mixes -0.0
# and +0.0 along j, on data that make the sign of a zero show in Y;
# "zero_stride", read-only broadcasts of scalars and of per-level
# columns, as constant coefficients arrive; "transposed", varying tables
# that are .T views of (M+2, N+1) arrays, as preset coefficients arrive
KINDS = ["varying", "constant", "level", "zero_f", "signed_zero",
         "zero_stride", "transposed"]


def kernel_inputs(P, N, M, seed, kind="varying"):
    """Y with slices 0 and 1 filled and NaN in the levels to be written;
    six coefficient and source tables of the given kind."""
    rng = np.random.default_rng(seed)
    Y = np.full((P, N + 2, M + 2), np.nan)
    Y[:, :, 0] = Y[:, :, -1] = 0.0
    Y[:, 0:2, 1 : M + 1] = rng.uniform(-1.0, 1.0, (P, 2, M))
    if kind in ("varying", "zero_f"):
        tables = [rng.uniform(-0.5, 0.5, (N + 1, M + 2)) for _ in range(6)]
    elif kind == "constant":
        tables = [np.full((N + 1, M + 2), rng.uniform(-0.5, 0.5))
                  for _ in range(6)]
    elif kind == "zero_stride":
        # scalars in A, C, G, per-level columns in B, D, F
        values = [rng.uniform(-0.5, 0.5, (N + 1, 1)) if k % 2
                  else np.float64(rng.uniform(-0.5, 0.5)) for k in range(6)]
        tables = [np.broadcast_to(v, (N + 1, M + 2)) for v in values]
    elif kind == "transposed":
        tables = [rng.uniform(-0.5, 0.5, (M + 2, N + 1)).T for _ in range(6)]
    else:
        tables = [np.repeat(rng.uniform(-0.5, 0.5, (N + 1, 1)), M + 2, axis=1)
                  for _ in range(6)]
    dB = rng.normal(0.0, 0.2, (P, N + 1))
    if kind == "zero_f":
        tables[5] = np.zeros((N + 1, M + 2))
    if kind == "signed_zero":
        # y = +0.0, -0.0 at levels 0, 1 with d = 0 and f = -0.0: every
        # term of the update is a zero, and y at level 2 is -0.0 exactly
        # where g dB is, so a G row read as its first value alone would
        # give the wrong signs
        Y[:, 0, 1 : M + 1] = 0.0
        Y[:, 1, 1 : M + 1] = -0.0
        tables[3] = np.zeros((N + 1, M + 2))
        tables[4] = np.zeros((N + 1, M + 2))
        tables[4][:, 1::2] = -0.0
        tables[5] = np.full((N + 1, M + 2), -0.0)
    return Y, tables, dB


def assert_same_bits(a, b):
    assert a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    assert np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes()


def run_both(Y, tables, dB, dt, dx):
    """Run the NumPy kernel and the scalar reference on copies; check
    that the kernel left its inputs and the prefilled data untouched."""
    inputs = [t.copy() for t in tables] + [dB.copy()]
    Yk, Yr = Y.copy(), Y.copy()
    got = _stepper_np.step_paths(Yk, *tables, dB, dt, dx)
    want = scalar_step_paths(Yr, *tables, dB, dt, dx)
    for before, after in zip(inputs, list(tables) + [dB]):
        assert before.tobytes() == after.tobytes()
    assert Yk[:, 0:2].tobytes() == Y[:, 0:2].tobytes()
    assert Yk[:, :, [0, -1]].tobytes() == Y[:, :, [0, -1]].tobytes()
    return got, want, Yk, Yr


@pytest.mark.parametrize("P,kind", [
    pytest.param(P, kind, id=str(P) if kind == "varying" else f"{P}-{kind}")
    for kind in KINDS for P in (1, 3, 7)
])
def test_numpy_kernel_matches_scalar_reference_bitwise(P, kind):
    N, M = 12, 6
    Y, tables, dB = kernel_inputs(P, N, M, seed=40 + P, kind=kind)
    if kind != "signed_zero":
        assert np.all(tables[4][1:, 1:-1] != 0.0)   # G
    if kind not in ("zero_f", "signed_zero"):
        assert np.all(tables[5][1:, 1:-1] != 0.0)   # F
    got, want, Yk, Yr = run_both(Y, tables, dB, dt=0.05, dx=1.0 / (M + 1))
    assert got == want == (False, -1, -1, -1)
    assert np.isfinite(Yk).all()                     # every level written
    assert_same_bits(Yk, Yr)
    if kind == "signed_zero":
        level = Yk[:, 2, 1 : M + 1]
        assert not level.any()
        assert np.signbit(level).any() and not np.signbit(level).all()


@pytest.mark.parametrize("P,N,M,dt", [(3, 12, 6, 0.05), (2, 40, 15, 0.02)])
def test_numpy_kernel_matches_paper_form_to_rounding(P, N, M, dt):
    # the weight form regroups the paper's update, so the two agree to
    # a few roundings per level, set from the dtype beforehand
    Y, tables, dB = kernel_inputs(P, N, M, seed=90 + N)
    Yk, Yp = Y.copy(), Y.copy()
    assert _stepper_np.step_paths(Yk, *tables, dB, dt, 1.0 / (M + 1))[0] is False
    paper_step_paths(Yp, *tables, dB, dt, 1.0 / (M + 1))
    scale = max(1.0, float(np.max(np.abs(Yp))))
    tol = 16 * N * np.finfo(np.float64).eps * scale
    assert np.max(np.abs(Yk - Yp)) <= tol


def test_numpy_kernel_blow_up_report_is_lexicographic():
    # the noise term gh dB, gh = dt g / (1 - c dt), overflows where
    # dB = 1e308 meets |g| = 100 (|gh| near 5): path 2 at nodes 5 and 2
    # of level 4, path 0 at node 1 of level 6.  The earlier level wins
    # over the smaller path, the smaller node within a level.
    P, N, M = 3, 8, 6
    Y, tables, dB = kernel_inputs(P, N, M, seed=7)
    G = tables[4]
    G[3, 5] = G[3, 2] = 100.0
    G[5, 1] = -100.0
    dB[2, 3] = dB[0, 5] = 1e308
    got, want, Yk, Yr = run_both(Y, tables, dB, dt=0.05, dx=1.0 / (M + 1))
    assert got == want == (True, 4, 2, 2)
    assert np.isinf(Yk[2, 4, [2, 5]]).all()
    assert np.isnan(Yk[:, 5:, 1:-1]).all()           # stepping stopped
    assert_same_bits(Yk, Yr)
    # without path 2's spike, path 0's later blow-up is the report
    dB[2, 3] = 0.0
    got, want, Yk, Yr = run_both(Y, tables, dB, dt=0.05, dx=1.0 / (M + 1))
    assert got == want == (True, 6, 0, 1)
    assert_same_bits(Yk, Yr)
    # two paths at one level: alp y overflows (alp near 1.75) at path 1's
    # nodes 4..6 and path 2's nodes 1..3; the smaller path wins over the
    # smaller node
    Y, tables, dB = kernel_inputs(P, N, M, seed=8)
    Y[1, 1, 4:7] = Y[2, 1, 1:4] = 1.7e308
    got, want, Yk, Yr = run_both(Y, tables, dB, dt=0.05, dx=1.0 / (M + 1))
    assert got == want == (True, 2, 1, 4)
    assert np.isinf(Yk[1, 2, 4:7]).all() and np.isinf(Yk[2, 2, 1:4]).all()
    assert_same_bits(Yk, Yr)


@pytest.mark.parametrize("kind", KINDS)
def test_numpy_kernel_blow_up_report_on_every_table_kind(kind):
    # alp y overflows (alp near 1.75) at path 1's nodes 5..6 and path 2's
    # nodes 3..6 of level 2, whatever the tables' layout
    P, N, M = 3, 8, 6
    Y, tables, dB = kernel_inputs(P, N, M, seed=9, kind=kind)
    Y[1, 1, 5:-1] = Y[2, 1, 3:-1] = 1.7e308
    got, want, Yk, Yr = run_both(Y, tables, dB, dt=0.05, dx=1.0 / (M + 1))
    assert got == want == (True, 2, 1, 5)
    assert np.isnan(Yk[:, 3:, 1:-1]).all()           # stepping stopped
    assert_same_bits(Yk, Yr)


def test_weights_keep_one_value_per_level_only_where_constant_along_j(
        monkeypatch):
    # the stride alone decides: A, C, D and F are zero-stride views of
    # one value per level, B and G hold one value per level too but as
    # dense rows, and those keep their per-node weights
    N, M = 5, 4
    Y, tables, dB = kernel_inputs(1, N, M, seed=3, kind="level")
    A, B, C, D, G, F = tables
    A, C, D, F = (np.broadcast_to(t[:, :1], t.shape) for t in (A, C, D, F))
    G = G.copy()
    G[:, 1::2] = 0.0
    G[:, 0::2] = -0.0
    weights = _stepper_np._weights(A, B, C, D, G, F, 0.05, 0.2)
    # alp, bp, bm, kap, dl, gh, fh: B feeds bp and bm, G feeds gh
    narrow = [True, False, False, True, True, False, True]
    assert [w.shape == (N + 1, 1, 1) for w in weights] == narrow
    assert [w.shape == (N + 1, M, 1) for w in weights] == [
        not k for k in narrow]
    # every node keeps its weight: the same bits as the per-node tables
    monkeypatch.setattr(_stepper_np, "_per_level", lambda w: w)
    dense = _stepper_np._weights(A, B, C, D, G, F, 0.05, 0.2)
    for w, d in zip(weights, dense):
        assert np.broadcast_to(w, d.shape).tobytes() == d.tobytes()
    monkeypatch.undo()
    rows = B[:, :, None]
    assert _stepper_np._per_level(rows) is rows
    assert _stepper_np._per_level(A[:, :, None]).shape == (N + 1, 1, 1)


def test_weights_of_zero_stride_tables_are_one_value_per_level(monkeypatch):
    N, M = 5, 4
    _, tables, _ = kernel_inputs(1, N, M, seed=4, kind="zero_stride")
    assert all(t.strides[1] == 0 for t in tables)
    weights = _stepper_np._weights(*tables, 0.05, 0.2)
    assert all(w.shape == (N + 1, 1, 1) for w in weights)
    # the same bits as the per-node weights of the dense tables
    monkeypatch.setattr(_stepper_np, "_per_level", lambda t: t)
    dense = _stepper_np._weights(*(np.array(t) for t in tables), 0.05, 0.2)
    for w, d in zip(weights, dense):
        assert d.shape == (N + 1, M, 1)
        assert np.broadcast_to(w, d.shape).tobytes() == d.tobytes()


def test_numpy_kernel_finite_slice_with_overflowing_sum_not_reported():
    # every value is near 6e307: each is finite, their sum is not
    P, N, M = 2, 3, 4
    Y = np.zeros((P, N + 2, M + 2))
    Y[:, 0:2, 1 : M + 1] = 6e307
    tables = [np.zeros((N + 1, M + 2)) for _ in range(6)]
    dB = np.zeros((P, N + 1))
    got, want, Yk, Yr = run_both(Y, tables, dB, dt=1e-3, dx=1.0)
    assert got == want == (False, -1, -1, -1)
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(Yk[:, N + 1]))
    assert_same_bits(Yk, Yr)


# ---------------------------------------------------------------------------
# blow-up reports of solve and run_ensemble past the first window


def spiked_problem():
    """A 6 x 64 problem whose source is 1e12 at node 4 only: an
    increment of 1e300 at level n overflows that node at level n+1 and
    leaves every other node finite."""
    grid = build_grid(6, 64, 1.0)
    g = random_field(grid, 3, 0.8)
    values = np.array(g.values)
    values[3] = 1e12
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0), y1=random_slice(grid, 2, 0.5),
        g=GridFunction(grid, values, g.space_axis, g.time_axis),
    )
    coeffs = SchemeCoefficients(
        a=preset_coefficient(grid, "ramp_t"),
        b=constant_coefficient(grid, 0.2),
        c=constant_coefficient(grid, 0.3),
        d=preset_coefficient(grid, "ramp_x"),
    )
    return grid, data, coeffs


def scalar_report(data, coeffs, grid, dB):
    """scalar_step_paths' (n, p, j) on the full tables of every level."""
    Y = np.zeros((dB.shape[0], grid.N + 2, grid.M + 2))
    Y[:, :2] = solver._start_levels(data, grid)
    tables = solver._table_rows(data, coeffs, grid, 0, grid.N)
    blown, n, p, j = scalar_step_paths(Y, *tables, dB, grid.dt, grid.dx)
    assert blown and n > solver._WINDOW_LEVELS + 1
    return n, p, j


def test_solve_blow_up_past_the_first_window_is_the_scalar_report():
    grid, data, coeffs = spiked_problem()
    dB = sample_brownian(grid.N, grid.dt, 9).copy()
    dB[40] = 1e300
    with pytest.raises(BlowUpError) as exc:
        solve(data, coeffs, dB, grid)
    got = (exc.value.n, exc.value.path, exc.value.j)
    assert got == scalar_report(data, coeffs, grid, dB[None, :])


@pytest.mark.parametrize("first", [3, 40])
def test_run_ensemble_blow_up_past_the_first_window_is_the_scalar_report(
        monkeypatch, first):
    # block path 2 overflows after level 40, block path 0 after level 50
    grid, data, coeffs = spiked_problem()
    sample = solver._sample_block

    def poisoned(master_seed, first, paths, dt):
        draw = sample(master_seed, first, paths, dt)

        def draw_poisoned(dB):
            # run_ensemble draws all N+1 increments of dB in one call
            draw(dB)
            dB[2, 40] = dB[0, 50] = 1e300

        return draw_poisoned

    monkeypatch.setattr(solver, "_sample_block", poisoned)
    with pytest.raises(BlowUpError) as exc:
        run_ensemble(data, coeffs, grid, 4, 5, first=first)
    dB = np.empty((4, grid.N + 1))
    poisoned(5, first, 4, grid.dt)(dB)
    n, p, j = scalar_report(data, coeffs, grid, dB)
    assert (exc.value.n, exc.value.path, exc.value.j) == (n, first + p, j)
