"""Memory budget of the stepping subcommands.

From the moment the stream starts, `stability`, `simulate` and
`carleman` may hold only what is stepped and written: the stepped
problem's interior fields g and f, one window with the window's Dx y
and Dt Dx y fields and increments, its paths' noise streams, the
window's rows of the six tables, path 0's kept
levels (simulate), the weight factor stacks (carleman) and one block
of the CSV writer.  The budget is that sum, computed from the config,
times a fixed factor for the kernel's and the estimators'
temporaries; the peak is measured in-process with tracemalloc from the
first window on.  The stream alone does not grow with N: its peak at
fixed M and paths is the same on 512 and on 8192 steps, up to a few
Python ints.

The estimators themselves may hold one window's temporaries at a time
(one path chunk's for `stability`, one squared field besides Dx y for
`carleman`): what they add to the peak of draining the same window
stream alone stays within that.
"""

import collections
import json
import tracemalloc

import pytest

from stochwave import _native, cli, estimators, solver
from stochwave.fields import random_field, random_slice
from stochwave.grids import build_grid
from stochwave.solver import ProblemData, SchemeCoefficients

M, N = 63, 1024
FACTOR = 1.75
# a block of the CSV writer: rows of at most five cells (trajectory.csv)
# of at most 64 bytes of text each
WRITER_BYTES = 2048 * 5 * 64
SWEEP = [2.0, 4.0, 8.0]


def random(seed, amplitude):
    return {"random": {"seed": seed, "amplitude": amplitude}}


def config(tmp_path, subcommand, paths):
    raw = {
        "grid": {"M": M, "N": N, "T": 1.0},
        "coefficients": {
            "a": {"constant": -0.4}, "b": {"constant": 0.2},
            "c": {"constant": 0.3}, "d": {"constant": 0.6},
        },
        "data": {
            "y0": random(1, 1.0), "y1": random(2, 0.5),
            "g": random(3, 0.8), "f": random(4, 0.3),
        },
        "mc": {"paths": paths, "master_seed": 5},
        "output_dir": str(tmp_path / "out"),
    }
    if subcommand == "carleman":
        raw["grid"]["T"] = 3.5
        raw["weight"] = {"s": 2.0, "lambda": 0.05, "beta": 0.5,
                         "xstar": 1.5, "mconst": 10.0}
        raw["sweep"] = {"parameter": "weight.s", "values": SWEEP}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return cli.parse_config(path)


def budget(subcommand, paths):
    grid = build_grid(M, N, 1.0)
    L = solver._WINDOW_LEVELS
    P = min(paths, solver.block_paths(grid))
    # stability steps the difference from the zero problem under the
    # same forcing: f cancels and g is the one stepped field
    fields = (1 if subcommand == "stability" else 2) * M * N
    window = 3 * P * (L + 2) * (M + 2)
    # one window's increments, and each path's noise stream
    increments = P * (L + 1)
    generators = P * solver._GENERATOR_BYTES
    rows = 6 * (L + 1) * (M + 2)
    kept = (N + 2) * (M + 2) if subcommand == "simulate" else 0
    # the L1, L2, L3, R3 factors over (space, time), R2 over time
    stacks = len(SWEEP) * N * (4 * M + 3) if subcommand == "carleman" else 0
    words = fields + window + increments + rows + kept + stacks
    return FACTOR * (8 * words + generators + WRITER_BYTES)


def stream_peak(monkeypatch, subcommand, cfg):
    """Peak traced bytes of one run from the start of its stream."""
    stream = cli.stream_windows

    def reset_then_stream(*args):
        tracemalloc.reset_peak()
        return stream(*args)

    monkeypatch.setattr(cli, "stream_windows", reset_then_stream)
    tracemalloc.start()
    try:
        code = cli.run(subcommand, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    return peak


@pytest.mark.parametrize(
    "subcommand,paths", [("stability", 16), ("simulate", 1), ("carleman", 64)]
)
def test_stream_stays_within_budget(tmp_path, monkeypatch, subcommand, paths):
    cfg = config(tmp_path, subcommand, paths)
    peak = stream_peak(monkeypatch, subcommand, cfg)
    limit = budget(subcommand, paths)
    assert peak <= limit, (peak, limit)


def drain(windows):
    collections.deque(windows, maxlen=0)


def stream_peak_bytes(consume, make_stream):
    """Traced peak bytes of consume(windows) from the start of the
    stream to its end, over what was traced when it started.  The
    compiled library is built and loaded first, as an earlier run in
    the process would have, so that neither falls inside the trace."""
    _native.fields()
    box = {}

    def windows():
        box["start"] = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        yield from make_stream()
        box["peak"] = tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        consume(windows())
    finally:
        tracemalloc.stop()
    return box["peak"] - box["start"]


def stream_excess(consume, make_stream):
    """stream_peak_bytes of consume(windows) over that of draining the
    stream alone."""
    return (stream_peak_bytes(consume, make_stream)
            - stream_peak_bytes(drain, make_stream))


def dx_words(paths, L):
    """Words of one window's Dx y (L+2 levels), (Dt Dx y)^2 and squared
    boundary flux for `paths` paths."""
    return paths * ((L + 2) * (M + 1) + L * (M + 1) + L)


def test_stability_holds_one_chunk(tmp_path):
    # 128 paths in one block: four chunks of 28 paths and one of 16
    paths = 128
    cfg = config(tmp_path, "stability", paths)
    grid = cfg.grid
    diff, coeffs = cli._difference_system(cfg, grid)
    L = solver._WINDOW_LEVELS
    chunk = estimators._CHUNK_NODES // ((L + 2) * (M + 2))
    assert 1 < chunk < paths and paths % chunk
    excess = stream_excess(
        lambda ws: estimators.stability_terms(ws, diff, grid),
        lambda: solver.stream_windows(diff, coeffs, grid, paths, 5),
    )
    # the chunk's fields, and a few (paths, M+2) rows for the sums and
    # the terminal norm of the last window
    limit = 8 * (dx_words(chunk, L) + 4 * paths * (M + 2))
    assert excess <= limit, (excess, limit)


def test_carleman_holds_one_window(tmp_path):
    paths = 64
    cfg = config(tmp_path, "carleman", paths)
    grid = cfg.grid
    data = cli._make_problem(cfg.data, cfg, grid)
    coeffs = cli._make_coeffs(cfg, grid)
    weights = [w for w, _ in cfg.weights]
    L = solver._WINDOW_LEVELS
    excess = stream_excess(
        lambda ws: estimators.carleman_terms(ws, weights, data, grid),
        lambda: solver.stream_windows(data, coeffs, grid, paths, 5),
    )
    # each squared field is reduced as soon as it is made: at most the
    # Dx y fields, and the terminal norm's rows of the last window
    words = dx_words(paths, L)
    limit = 8 * (words + 4 * paths * (M + 2))
    assert excess <= limit, (excess, limit)


def test_stream_peak_does_not_grow_with_n():
    # 100 paths in one block, on 32 and on 512 windows of increments; a
    # random g and f are copied into each window's table rows
    def stream(N):
        grid = build_grid(15, N, 1.0)
        data = ProblemData(
            y0=random_slice(grid, 1, 1.0), y1=random_slice(grid, 2, 0.5),
            g=random_field(grid, 3, 0.8), f=random_field(grid, 4, 0.3),
        )
        coeffs = SchemeCoefficients.constant(grid, a=-0.4, c=0.3, d=0.6)
        return lambda: solver.stream_windows(data, coeffs, grid, 100, 5)

    # a traced peak also counts the small blocks that the interpreter's
    # and NumPy's free lists and caches keep once the stream has used
    # them (56-byte blocks first taken under ndarray.ctypes, a few more
    # per window until they are full).  How many are already there
    # depends on what ran before in the process, and moves a single
    # peak by up to 2 KB either way; the least of three measurements of
    # each stream, taken in turn, starts from full caches.
    short, long = stream(512), stream(8192)
    peaks = [(stream_peak_bytes(drain, short), stream_peak_bytes(drain, long))
             for _ in range(3)]
    short, long = (min(p) for p in zip(*peaks))
    # the longer stream's level counters pass 256, where CPython stops
    # caching ints: a handful of 32-byte ints, where one more level of
    # increments of 100 paths would be 800 B
    assert long <= short + 256, (short, long)
