"""Artifact invariance matrix: the stepping subcommands run in-process on
tiny configs, with constant and with space-varying preset coefficients,
in path blocks of 1, 3 and the default size, times increments drawn by
the loader's sampler (compiled sw_normals where cc exists) and by the
reference, one Generator(Philox(key=seed)) per path, times the
stability estimator's path chunks of 1, 3 (which leaves a chunk of 1
of a 10-path window) and the default size, times the estimators'
squared fields and CSV rows from the loader's choice and from the
NumPy and Python references.  Every run must give the exit code,
stdout, stderr and SHA-256 of every artifact, manifest.json included,
of the run in the default block and chunks with the loader's choice.
The martingale config steps 101 paths through three windows, in one,
34 or 101 blocks; one config blows up in a later block than the first,
at an earlier level than the first block does, in its nineteenth
window."""

import hashlib
import json
import shutil

import pytest

from stochwave import _native, cli, estimators, solver
from stochwave.grids import build_grid

M = 3
# paths per block; None leaves solver._BLOCK_NODES at its default, one
# block for every config below
BLOCKS = [None, 1, 3]
# the sampler: None leaves the loader's choice, "generator" forces the
# reference, whatever draws the fields and rows
SAMPLERS = [None, "generator"]
# paths per chunk of a full window; None leaves estimators._CHUNK_NODES
# at its default, one chunk for every window below
CHUNKS = [None, 1, 3]
# the estimators' squared fields and the CSV rows: None leaves the
# loader's choice, "numpy" forces the NumPy and Python references,
# whatever draws the increments
FIELDS = [None, "numpy"]

COEFFICIENTS = {
    "constant": {"a": {"constant": -0.5}, "b": {"constant": 0.2},
                 "c": {"constant": 0.3}, "d": {"constant": 0.5}},
    "preset": {"a": {"preset": "sine_x"}, "b": {"preset": "ramp_x"},
               "c": {"preset": "ramp_t"}, "d": {"preset": "one"}},
}
DATA = {
    "y0": {"sine": {"mode": 1, "amplitude": 1.0}},
    "y1": {"sine": {"mode": 2, "amplitude": 0.3}},
    "g": {"random": {"seed": 21, "amplitude": 0.5}},
    "f": {"random": {"seed": 22, "amplitude": 2.0}},
}
RUNS = {
    "simulate": {
        "grid": {"M": M, "N": 40, "T": 1.0},
        "data": DATA,
        "mc": {"paths": 5, "master_seed": 9},
    },
    "carleman": {
        "grid": {"M": M, "N": 64, "T": 3.5},
        "weight": {"s": 2.0, "lambda": 0.05, "beta": 0.5, "xstar": 1.5,
                   "mconst": 10.0},
        "data": DATA,
        "mc": {"paths": 10, "master_seed": 3},
        "sweep": {"parameter": "weight.s", "values": [2.0, 4.0]},
    },
    "stability": {
        "grid": {"M": M, "N": 40, "T": 1.0},
        "data": DATA,
        "data_b": {"y0": {"sine": {"mode": 2, "amplitude": 0.5}}},
        "mc": {"paths": 10, "master_seed": 5},
    },
    "martingale": {
        "grid": {"M": M, "N": 40, "T": 1.0},
        "data": DATA,
        "mc": {"paths": 101, "master_seed": 7},
    },
}
# dt = 0.5 > dx = 0.25: the noise-driven paths grow until they overflow
# at level 293, path 3 first; paths 0..2 overflow later.  Level 293 lies
# in the nineteenth window of increments
BLOW_UP = {
    "grid": {"M": M, "N": 400, "T": 200.0},
    "coefficients": {"d": {"constant": 0.5}},
    "data": {"g": {"random": {"seed": 21, "amplitude": 0.5}}},
    "mc": {"paths": 10, "master_seed": 3},
}

CASES = [
    pytest.param(sub, dict(raw, coefficients=COEFFICIENTS[kind]),
                 id=f"{sub}-{kind}")
    for sub, raw in RUNS.items()
    for kind in COEFFICIENTS
] + [pytest.param("stability", BLOW_UP, id="stability-blow-up")]


def run(monkeypatch, capsys, tmp_path, subcommand, block, sampler, chunk,
        fields):
    """One in-process run of the config at tmp_path / cfg.json into
    tmp_path / out; its exit code, stdout, stderr and artifact digests."""
    loaded = _native._choose()
    chosen = loaded
    if fields == "numpy":
        chosen = _native.FALLBACK._replace(normals=loaded.normals)
    if sampler == "generator":
        chosen = chosen._replace(normals=_native.generator_normals)
    with monkeypatch.context() as m:
        m.setattr(_native, "_chosen", chosen)
        if block is not None:
            m.setattr(solver, "_BLOCK_NODES", block * M)
            assert solver.block_paths(build_grid(M, 4, 1.0)) == block
        if chunk is not None:
            m.setattr(estimators, "_CHUNK_NODES",
                      chunk * (solver._WINDOW_LEVELS + 2) * (M + 2))
        code = cli._execute(subcommand, str(tmp_path / "cfg.json"),
                            str(tmp_path / "out"), None, None)
    out, err = capsys.readouterr()
    digests = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted((tmp_path / "out").iterdir())
    }
    shutil.rmtree(tmp_path / "out")
    return code, out, err, digests


@pytest.mark.parametrize("subcommand,raw", CASES)
def test_artifacts_independent_of_block_size(monkeypatch, capsys, tmp_path,
                                             subcommand, raw):
    (tmp_path / "cfg.json").write_text(json.dumps(raw), encoding="utf-8")
    seen = {(block, sampler, chunk, fields): run(monkeypatch, capsys,
                                                 tmp_path, subcommand,
                                                 block, sampler, chunk,
                                                 fields)
            for block in BLOCKS for sampler in SAMPLERS for chunk in CHUNKS
            for fields in FIELDS}
    code, out, err, digests = seen[None, None, None, None]
    if raw is BLOW_UP:
        assert code == 4
        assert err.endswith("time level n=293, path 3\n")
    else:
        assert code in (0, 6), err
        assert "manifest.json" in digests and len(digests) > 1
    for key in seen:
        assert seen[key] == seen[None, None, None, None], key
