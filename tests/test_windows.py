"""Time-windowed stepping: every stream steps a path block through
windows of solver._WINDOW_LEVELS levels in one reused buffer, on the
window's own rows of the coefficient and data tables, and the
estimators fold each window into per-path sums.  Per-path terms must
agree with exactly rounded full-history sums, a whole Window from
run_ensemble must reduce to the same bits as the CLI's stream, and a
blow-up in a later window must name its global level."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from stochwave import cli, estimators, solver
from stochwave.errors import BlowUpError, SingularUpdateError
from stochwave.fields import (
    constant_coefficient,
    preset_coefficient,
    random_field,
    random_slice,
    zero_field,
)
from stochwave.grids import GridFunction, build_grid
from stochwave.solver import (
    ProblemData,
    SchemeCoefficients,
    run_ensemble,
    scheme_residual,
    solve,
    stream_windows,
)
from stochwave.weights import WeightParams

L = solver._WINDOW_LEVELS
M, P, SEED = 4, 5, 17
WEIGHT = {"s": 2.0, "lam": 0.05, "beta": 0.5, "xstar": 1.5, "mconst": 10.0}

# N < L, N = L, N % L != 0 over several windows, and a single step
STEPS = [5, L, 2 * L + 5, 1]


def family(N, paths=P):
    grid = build_grid(M, N, 1.0)
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0), y1=random_slice(grid, 2, 0.5),
        g=random_field(grid, 3, 0.8), f=random_field(grid, 4, 0.3),
    )
    coeffs = SchemeCoefficients.constant(grid, a=-0.4, b=0.2, c=0.3, d=0.6)
    return grid, data, coeffs, run_ensemble(data, coeffs, grid, paths, SEED)


def fsum_sq(values, weights=None):
    """Exactly rounded sum of w * v**2 over all entries."""
    v = np.asarray(values, dtype=float).ravel()
    w = np.ones_like(v) if weights is None else np.asarray(weights).ravel()
    return math.fsum((w * v * v).tolist())


def full_history_terms(Y, grid, factors):
    """Per-path terms of one path's whole (N+2, M+2) history, each sum
    taken with math.fsum; factors are (space, time) arrays."""
    N, dx, dt = grid.N, grid.dx, grid.dt
    y = Y[1 : N + 1, 1 : M + 1]
    dty = (Y[2 : N + 2, 1 : M + 1] - y) / dt
    dxy = (Y[:, 1:] - Y[:, :-1]) / dx
    fl = dxy[1 : N + 1, 0]
    dtdx = (dxy[1 : N + 1] - dxy[:N]) / dt
    yN, vN = Y[N], (Y[N + 1] - Y[N]) / dt
    xt = math.sqrt(fsum_sq(np.diff(yN) / dx) * dx + fsum_sq(yN[1:-1]) * dx)
    xt += math.sqrt(fsum_sq(vN[1:-1]) * dx)
    out = {
        "FLUX": math.sqrt(fsum_sq(fl) * dt),
        "DTDX": dx * math.sqrt(fsum_sq(dtdx) * (dx * dt)),
        "XT": xt,
    }
    if factors is not None:
        out.update({
            "L1": fsum_sq(y, factors["L1"].T) * (dx * dt),
            "L2": fsum_sq(dty, factors["L2"].T) * (dx * dt),
            "L3": fsum_sq(dxy[1 : N + 1], factors["L3"].T) * (dx * dt),
            "R2": fsum_sq(fl, factors["R2"]) * dt,
            "R3": dx**2 * (fsum_sq(dtdx, factors["R3"].T) * (dx * dt)),
        })
    return out


@pytest.mark.parametrize("N", STEPS)
def test_window_spans_cover_every_level_once(N):
    spans = list(solver._window_spans(N))
    served = [n0 + k for n0, levels in spans for k in range(1, levels + 1)]
    assert served == list(range(1, N + 1))
    assert all(levels == L for _, levels in spans[:-1])


@pytest.mark.parametrize("N", STEPS)
def test_per_path_terms_match_full_history_fsum(N):
    grid, data, coeffs, ens = family(N)
    w = WeightParams(**WEIGHT, T=grid.T)
    factors, _ = estimators._weight_set(w, data, grid)
    stacks = {key: np.stack([factors[key].T]) for key in factors}
    carleman, xts = estimators._carleman_sums(ens, stacks, grid)
    stability = estimators._stability_sums(ens, grid)
    for p in range(P):
        ref = full_history_terms(ens.Y[p], grid, factors)
        for key in estimators._PATH_TERMS:
            assert carleman[key][0, p] == pytest.approx(
                ref[key], rel=1e-13, abs=0.0), (p, key)
        for key in ("FLUX", "XT", "DTDX"):
            assert stability[key][p] == pytest.approx(
                ref[key], rel=1e-13, abs=0.0), (p, key)
        assert xts[p] == stability["XT"][p]


@pytest.mark.parametrize("N", STEPS)
def test_martingale_sums_match_full_history_fsum(N):
    grid, data, coeffs, ens = family(N, paths=100)
    st = estimators.martingale_check(ens, grid)
    vals, scale = [], []
    for p in range(ens.paths):
        prod = (ens.Y[p, 1 : N + 1, 1 : M + 1]
                * ens.dB[p, 1 : N + 1, None]).ravel().tolist()
        vals.append(math.fsum(prod) * (grid.dx * grid.dt))
        scale.append(math.fsum(map(abs, prod)) * (grid.dx * grid.dt))
    # signed sums: the error is relative to the sum of magnitudes
    assert abs(st.mean - math.fsum(vals) / len(vals)) <= 1e-13 * max(scale)
    assert st.stderr == pytest.approx(
        np.std(vals, ddof=1) / math.sqrt(len(vals)), rel=1e-10)


def assert_stream_equals(monkeypatch, data, coeffs, grid, ens):
    # blocks of 2 paths: the buffer is reused by three blocks
    monkeypatch.setattr(solver, "_BLOCK_NODES", 2 * M)
    got = np.full_like(ens.Y, np.nan)
    block = -1
    for win in stream_windows(data, coeffs, grid, P, SEED):
        block += win.n0 == 0
        rows = slice(2 * block, 2 * block + win.paths)
        got[rows, win.n0 : win.n0 + win.levels + 2] = win.Y
        assert (win.dB.tobytes()
                == ens.dB[rows, win.n0 : win.n0 + win.levels + 1].tobytes())
    assert got.tobytes() == ens.Y.tobytes()


@pytest.mark.parametrize("N", STEPS)
def test_stream_levels_equal_run_ensemble(monkeypatch, N):
    grid, data, coeffs, ens = family(N)
    assert_stream_equals(monkeypatch, data, coeffs, grid, ens)


@pytest.mark.parametrize("windows", [1, 2])
@pytest.mark.parametrize("N", STEPS)
def test_stream_in_noise_chunks_equals_run_ensemble(monkeypatch, N, windows):
    # the block's sampler drawn `windows` windows at a time (on 37 steps,
    # chunks of 16, 16 and 6 levels or of 32 and 6) gives run_ensemble's
    # increments, which it draws at once, and the stream's, which it
    # draws a window at a time, each window's first column the previous
    # window's last increment
    grid, data, coeffs, ens = family(N)
    draw, dB = solver._sample_block(SEED, 0, P, grid.dt), np.empty((P, N + 1))
    for c0 in range(0, N + 1, windows * L):
        draw(dB[:, c0 : c0 + windows * L])
    assert dB.tobytes() == ens.dB.tobytes()
    assert_stream_equals(monkeypatch, data, coeffs, grid, ens)


STEPPED = {
    "grid": {"M": M, "N": 2 * L + 5, "T": 3.5},
    "coefficients": {"a": {"constant": -0.4}, "c": {"constant": 0.3},
                     "d": {"constant": 0.6}},
    "data": {
        "y0": {"random": {"seed": 1, "amplitude": 1.0}},
        "y1": {"random": {"seed": 2, "amplitude": 0.5}},
        "g": {"random": {"seed": 3, "amplitude": 0.8}},
        "f": {"random": {"seed": 4, "amplitude": 0.3}},
    },
    "weight": {"s": 2.0, "lambda": 0.05, "beta": 0.5, "xstar": 1.5,
               "mconst": 10.0},
    "mc": {"paths": 101, "master_seed": SEED},
}


def run_cli(monkeypatch, tmp_path, subcommand, raw):
    # 7 paths per block: 101 paths are 15 blocks of 3 windows each
    monkeypatch.setattr(solver, "_BLOCK_NODES", 7 * M)
    tmp_path.mkdir()
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(raw, output_dir=str(tmp_path / "o"))),
                 encoding="utf-8")
    assert cli.run(subcommand, cli.parse_config(p)) in (0, 6)
    name = {"stability": "stability.json", "martingale": "martingale.json",
            "carleman": "carleman.json"}[subcommand]
    return json.loads((tmp_path / "o" / name).read_text(encoding="utf-8"))


def library_inputs(raw):
    cfg = cli.RunConfig(raw, "")
    grid = cfg.grid
    data = cli._make_problem(cfg.data, cfg, grid)
    return cfg, grid, data, cli._make_coeffs(cfg, grid)


def test_whole_ensemble_reduces_to_the_streamed_bits(monkeypatch, tmp_path):
    cfg, grid, data, coeffs = library_inputs(STEPPED)
    ens = run_ensemble(data, coeffs, grid, 101, SEED)

    got = run_cli(monkeypatch, tmp_path / "m", "martingale", STEPPED)
    st = estimators.martingale_check(ens, grid)
    assert (got["mean"], got["stderr"]) == (st.mean, st.stderr)

    got = run_cli(monkeypatch, tmp_path / "c", "carleman", STEPPED)
    w = cfg.weight
    rep = estimators.carleman_terms(ens, w, data, grid)
    assert got == cli._report_obj(rep)

    # the default comparison problem: zero data under the same forcing
    got = run_cli(monkeypatch, tmp_path / "s", "stability", STEPPED)
    zero = ProblemData(
        y0=zero_field(grid, "closure", None),
        y1=zero_field(grid, "closure", None),
        g=zero_field(grid, "primal", "primal"), f=data.f,
    )
    diff = data.difference(zero)
    rep = estimators.stability_terms(
        run_ensemble(diff, coeffs, grid, 101, SEED), diff, grid
    )
    assert got == cli._report_obj(rep)


def test_blow_up_in_a_later_window_names_its_global_level(monkeypatch):
    # path 7 (third block of 3) gets an infinite increment at level 40
    # (its third window), path 1 at level 50: the earlier level wins
    N, paths = 4 * L, 10
    grid, data, coeffs, _ = family(N, paths=1)
    sample = solver._sample_block
    drawn = []

    def poisoned(master_seed, first, paths, dt):
        draw, at = sample(master_seed, first, paths, dt), 0

        def draw_poisoned(out):
            # out receives the increments at levels at .. at+n-1
            nonlocal at
            draw(out)
            drawn.append((first, at))
            for path, level in ((7, 40), (1, 50)):
                if (first <= path < first + paths
                        and at <= level < at + out.shape[1]):
                    out[path - first, level - at] = np.inf
            at += out.shape[1]

        return draw_poisoned

    monkeypatch.setattr(solver, "_sample_block", poisoned)
    with pytest.raises(BlowUpError) as whole:
        run_ensemble(data, coeffs, grid, paths, SEED)
    # increments drawn one window at a time: levels 40 and 50 lie in a
    # block's third and fourth windows
    monkeypatch.setattr(solver, "_BLOCK_NODES", 3 * M)
    drawn.clear()
    with pytest.raises(BlowUpError) as streamed:
        for _ in stream_windows(data, coeffs, grid, paths, SEED):
            pass
    assert (streamed.value.n, streamed.value.path, streamed.value.j) == (
        41, 7, 1)
    assert str(streamed.value) == str(whole.value)
    # the last block (path 9) draws the first window's 17 increments and
    # 16 for each later window, and none past level 41's window
    assert [at for first, at in drawn if first == 9] == [0, L + 1, 2 * L + 1]


def test_memory_budget_is_one_window_not_the_history(monkeypatch):
    # 3 paths on 3 x 64: a window of 18 levels (2160 B), the window's
    # increments (3 x 17 x 8 B = 408 B), the paths' noise streams
    # (3 x 1024 B) and the window's 17 rows of the six tables (6 x 17 x
    # 5 x 8 B = 4080 B) need 9720 B; the whole history would need
    # 3 * 66 * 5 * 8 = 7920 B for Y alone
    grid = build_grid(3, 64, 1.0)
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0), y1=random_slice(grid, 2, 0.5),
        g=random_field(grid, 3, 0.8),
    )
    coeffs = SchemeCoefficients.constant(grid, d=0.5)
    monkeypatch.setattr(solver, "_BLOCK_NODES", 3 * 3)
    monkeypatch.setattr(solver, "_physical_bytes", lambda: 9719)
    with pytest.raises(MemoryError, match="needs 2160 bytes for its "
                       "trajectories and 9720 bytes with one window's 17 "
                       "of its 65 increments and a 1024-byte noise stream "
                       "per path and 17 rows of the six"):
        next(stream_windows(data, coeffs, grid, 3, 1))
    monkeypatch.setattr(solver, "_physical_bytes", lambda: 9720)
    assert sum(1 for _ in stream_windows(data, coeffs, grid, 3, 1)) == 4
    with pytest.raises(MemoryError, match="needs 7920 bytes"):
        run_ensemble(data, coeffs, grid, 3, 1)


@pytest.mark.parametrize("stepper,need", [("run_ensemble", 15720),
                                          ("solve", 7960)])
def test_history_budget_is_the_history_on_top_of_one_window(monkeypatch,
                                                            stepper, need):
    # 3 paths on 3 x 64: the history (3 * 66 * 5 * 8 = 7920 B), the
    # increments (1560 B), one window of 18 levels (2160 B) and its 17
    # rows of the six tables (4080 B) need 15720 B; solve's one path
    # needs 2640 + 520 + 720 + 4080 = 7960 B
    grid = build_grid(3, 64, 1.0)
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0), y1=random_slice(grid, 2, 0.5),
        g=random_field(grid, 3, 0.8),
    )
    coeffs = SchemeCoefficients.constant(grid, d=0.5)
    path = solver.sample_brownian(grid.N, grid.dt, 1)
    run = {
        "run_ensemble": lambda: run_ensemble(data, coeffs, grid, 3, 1),
        "solve": lambda: solve(data, coeffs, path, grid),
    }[stepper]
    monkeypatch.setattr(solver, "_physical_bytes", lambda: need - 1)
    with pytest.raises(MemoryError, match=f"trajectories and {need} bytes "
                       "with a window of 18 levels, its 65 increments"):
        run()
    monkeypatch.setattr(solver, "_physical_bytes", lambda: need)
    run()


def test_every_kernel_call_steps_one_window(monkeypatch):
    N = 2 * L + 5
    grid, data, coeffs, _ = family(N)
    step, shapes, received = solver.step_paths, [], []

    def spy(Y, *args):
        shapes.append((Y.shape, [t.shape for t in args[:6]], args[6].shape))
        received.append(args[6])
        return step(Y, *args)

    monkeypatch.setattr(solver, "step_paths", spy)
    solve(data, coeffs, solver.sample_brownian(N, grid.dt, 1), grid)
    run_ensemble(data, coeffs, grid, P, SEED)
    for win in stream_windows(data, coeffs, grid, P, SEED):
        # a window carries the increments its kernel call stepped with
        assert win.dB.shape == received[-1].shape
        assert win.dB.tobytes() == received[-1].tobytes()
    assert len(shapes) == 3 * len(list(solver._window_spans(N)))
    for (paths, levels, width), tables, increments in shapes:
        assert levels <= L + 2 and width == M + 2
        assert tables == [(levels - 1, M + 2)] * 6
        assert increments == (paths, levels - 1)


def preset_family(N, forced):
    # varying coefficients in x and t, so every window's rows differ
    grid = build_grid(M, N, 1.0)
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0), y1=random_slice(grid, 2, 0.5),
        g=random_field(grid, 3, 0.8),
        f=random_field(grid, 4, 0.3) if forced else None,
    )
    coeffs = SchemeCoefficients(
        a=preset_coefficient(grid, "ramp_t"),
        b=constant_coefficient(grid, 0.2),
        c=preset_coefficient(grid, "sine_x"),
        d=preset_coefficient(grid, "ramp_x"),
    )
    return grid, data, coeffs


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("N", [5, L, 2 * L + 5])
def test_window_rows_equal_the_full_tables(monkeypatch, N, forced):
    grid, data, coeffs = preset_family(N, forced)
    full = np.array(solver._table_rows(data, coeffs, grid, 0, N))
    # the kernel's frame: coefficients at n = 0..N, sources at n = 1..N
    # on the interior nodes, zero elsewhere and for a missing f
    ref = np.zeros((6, N + 1, M + 2))
    for table, u in zip(ref, (coeffs.a, coeffs.b, coeffs.c, coeffs.d)):
        table[:] = u.values.T
    ref[4, 1:, 1 : M + 1] = data.g.values.T
    if forced:
        ref[5, 1:, 1 : M + 1] = data.f.values.T
    assert full.tobytes() == ref.tobytes()
    fields = (coeffs.a, coeffs.b, coeffs.c, coeffs.d)
    for n0, levels in solver._window_spans(N):
        rows = solver._table_rows(data, coeffs, grid, n0, levels)
        assert len(rows) == 6
        for table, want in zip(rows, full[:, n0 : n0 + levels + 1]):
            assert table.shape == want.shape
            assert table.tobytes() == want.tobytes()
        # coefficient rows are views, a constant's and ramp_t's along j
        # of stride 0; a random source is a padded copy, an absent f a
        # zero-stride block
        for table, u in zip(rows, fields):
            assert np.shares_memory(table, u.values)
        assert [t.strides[1] == 0 for t in rows[:4]] == [
            True, True, False, False]                  # ramp_t, b = 0.2
        assert rows[4].flags.c_contiguous
        assert not np.shares_memory(rows[4], data.g.values)
        if forced:
            assert rows[5].flags.c_contiguous
            assert not np.shares_memory(rows[5], data.f.values)
        else:
            assert rows[5].strides == (0, 0)
        # zero data is a zero-stride block of its one +0.0, equal to the
        # padded frame bit for bit
        zero = dataclasses.replace(data, g=zero_field(grid, "primal",
                                                      "primal"))
        G = solver._table_rows(zero, coeffs, grid, n0, levels)[4]
        assert G.strides == (0, 0)
        assert G.tobytes() == np.zeros(G.shape).tobytes()
    # and the stream built from them steps run_ensemble's levels
    ens = run_ensemble(data, coeffs, grid, P, SEED)
    assert_stream_equals(monkeypatch, data, coeffs, grid, ens)


def test_constant_coefficient_is_a_zero_stride_read_only_view():
    grid = build_grid(M, 2 * L + 5, 1.0)
    values = constant_coefficient(grid, 0.3).values
    assert values.shape == (M + 2, grid.N + 1)
    assert values.strides == (0, 0)
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[1, 1] = 1.0
    assert np.all(values == 0.3)


def test_zero_stride_coefficients_step_like_dense_ones():
    N = 2 * L + 5
    grid = build_grid(M, N, 1.0)
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0), y1=random_slice(grid, 2, 0.5),
        g=random_field(grid, 3, 0.8), f=random_field(grid, 4, 0.3),
    )
    views = SchemeCoefficients.constant(grid, a=-0.4, b=0.2, c=0.3, d=0.6)
    dense = SchemeCoefficients(*(
        GridFunction(grid, np.array(u.values), u.space_axis, u.time_axis)
        for u in (views.a, views.b, views.c, views.d)
    ))
    assert dense.a.values.strides != (0, 0)
    ens = run_ensemble(data, views, grid, P, SEED)
    assert ens.Y.tobytes() == run_ensemble(data, dense, grid, P,
                                           SEED).Y.tobytes()
    y = GridFunction(grid, ens.Y[P - 1].T, grid.space_axis("closure"),
                     grid.time_axis("closure"))
    dB = ens.dB[P - 1]
    res = scheme_residual(y, views, data.g, data.f, dB, grid)
    assert res == scheme_residual(y, dense, data.g, data.f, dB, grid)
    assert res < 1e-12


def test_singular_level_in_a_later_window_is_refused_before_stepping():
    # dt = 1/64 and c = 64 at level 40 only (the third window): the
    # update is singular there, and the coefficients are refused as they
    # are built, before any window can be stepped
    grid = build_grid(M, 64, 1.0)
    c = np.zeros((M + 2, grid.N + 1))
    c[2, 40] = 64.0
    zero = constant_coefficient(grid, 0.0)
    with pytest.raises(SingularUpdateError):
        SchemeCoefficients(
            a=zero, b=zero, d=zero,
            c=GridFunction(grid, c, zero.space_axis, zero.time_axis),
        )


def test_singular_check_walks_constant_c_in_blocks():
    # zero-stride constants over a 127 x 2048 mesh: building the
    # coefficients checks each for finite values and c for a singular
    # update, holding one block of L time columns, not the whole mesh (a
    # (129, 2049) bool array per coefficient, two (129, 2049) arrays for
    # the singular check)
    grid = build_grid(127, 2048, 1.0)     # dt = 1/2048
    tracemalloc.start()
    try:
        SchemeCoefficients.constant(grid, a=-0.4, b=0.2, c=0.3, d=0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * (grid.M + 2) * L * 8
    with pytest.raises(SingularUpdateError):
        SchemeCoefficients.constant(grid, c=2048.0)
    # the last time column, N, is checked too
    small = build_grid(M, 2 * L, 1.0)
    c = np.zeros((M + 2, small.N + 1))
    c[1, small.N] = 2.0 * L
    zero = constant_coefficient(small, 0.0)
    with pytest.raises(SingularUpdateError):
        SchemeCoefficients(
            a=zero, b=zero, d=zero,
            c=GridFunction(small, c, zero.space_axis, zero.time_axis),
        )


@pytest.mark.parametrize("column", [0, L - 1, L, 2 * L])
def test_finite_check_covers_every_time_column(column):
    grid = build_grid(M, 2 * L, 1.0)
    zero = constant_coefficient(grid, 0.0)
    values = np.zeros((M + 2, grid.N + 1))
    values[2, column] = np.nan
    bad = GridFunction(grid, values, zero.space_axis, zero.time_axis)
    with pytest.raises(ValueError, match="coefficient c contains non-finite"):
        SchemeCoefficients(a=zero, b=zero, c=bad, d=zero)
