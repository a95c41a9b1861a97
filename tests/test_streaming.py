"""Path-block streaming: every stepping subcommand steps its paths as
consecutive blocks of solver.block_paths(grid) paths and reduces each
block before the next is drawn.  A blow-up must be the one a
single-block run reports, and a block that cannot fit in memory must
end in exit 3, not a traceback.  That the artifacts do not depend on
the block size is test_invariance's matrix."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stochwave import cli, solver
from stochwave.errors import BlowUpError
from stochwave.estimators import MARTINGALE_MIN_PATHS
from stochwave.fields import random_field, random_slice
from stochwave.grids import build_grid
from stochwave.solver import (
    ProblemData,
    SchemeCoefficients,
    block_paths,
    path_seed,
    run_ensemble,
    sample_brownian,
)

M = 3
DATA = {
    "y0": {"sine": {"mode": 1, "amplitude": 1.0}},
    "y1": {"sine": {"mode": 2, "amplitude": 0.3}},
    "g": {"random": {"seed": 21, "amplitude": 0.5}},
    "f": {"random": {"seed": 22, "amplitude": 2.0}},
}
RUNS = {
    "martingale": {
        "grid": {"M": M, "N": 8, "T": 1.0},
        "coefficients": {"a": {"constant": -0.5}, "d": {"constant": 0.5}},
        "data": DATA,
        "mc": {"paths": 101, "master_seed": 7},
    },
    "stability": {
        "grid": {"M": M, "N": 16, "T": 1.0},
        "coefficients": {"c": {"constant": 0.3}, "d": {"constant": 0.6}},
        "data": DATA,
        "data_b": {"y0": {"sine": {"mode": 2, "amplitude": 0.5}}},
        "mc": {"paths": 10, "master_seed": 5},
    },
}


def run_cli(subcommand, raw, out_dir):
    p = out_dir.parent / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    cfg = cli.parse_config(p)
    cfg.output_dir = str(out_dir)
    return cli.run(subcommand, cfg)


def set_block(monkeypatch, paths_per_block):
    monkeypatch.setattr(solver, "_BLOCK_NODES", paths_per_block * M)


def test_block_rule_reads_only_the_mesh():
    assert block_paths(build_grid(15, 225, 1.0)) == 1092
    assert block_paths(build_grid(127, 2048, 1.0)) == 129
    assert block_paths(build_grid(1 << 15, 4, 1.0)) == 1


def test_first_offset_gives_the_rows_of_the_whole_family():
    grid = build_grid(4, 6, 1.0)
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0), y1=random_slice(grid, 2, 1.0),
        g=random_field(grid, 3, 1.0),
    )
    coeffs = SchemeCoefficients.constant(grid, d=0.5)
    whole = run_ensemble(data, coeffs, grid, 7, 11)
    part = run_ensemble(data, coeffs, grid, 3, 11, first=4)
    assert part.Y.tobytes() == whole.Y[4:].tobytes()
    assert part.dB.tobytes() == whole.dB[4:].tobytes()
    for k in (4, 5, 6):
        inc = sample_brownian(grid.N, grid.dt, path_seed(11, k))
        assert part.dB[k - 4].tobytes() == inc.tobytes()
    with pytest.raises(ValueError):
        run_ensemble(data, coeffs, grid, 3, 11, first=-1)


def poisoned_kernel(monkeypatch, grid, master_seed, poison):
    """Wrap the kernel so that path k gets an infinite increment at dB
    level poison[k]: it blows up at time level poison[k] + 1, whichever
    block it is stepped in."""
    rows = {
        sample_brownian(grid.N, grid.dt, path_seed(master_seed, k))
        .tobytes(): level
        for k, level in poison.items()
    }
    kernel = solver.step_paths

    def wrapper(Y, A, B, C, D, G, F, dB, dt, dx):
        for p in range(dB.shape[0]):
            level = rows.get(dB[p].tobytes())
            if level is not None:
                dB[p, level] = np.inf
        return kernel(Y, A, B, C, D, G, F, dB, dt, dx)

    monkeypatch.setattr(solver, "step_paths", wrapper)


@pytest.mark.parametrize(
    "subcommand,poison,expect",
    [
        # a later block blows up at an earlier level
        ("martingale", {1: 6, 7: 3, 8: 3}, (4, 7)),
        # same level: the lower path wins
        ("martingale", {2: 3, 7: 3}, (4, 2)),
        # only the short last block (path 99 of 100) blows up
        ("martingale", {99: 2}, (3, 99)),
        # stability steps one family, the difference system, so its
        # blow-up is that family's minimum as for any other subcommand
        ("stability", {1: 6, 7: 3}, (4, 7)),
        # the first block fails first: a later block failing at a later
        # level, after it, does not replace its error
        ("stability", {1: 2, 7: 5}, (3, 1)),
        # the second block fails at an earlier level than the first
        ("stability", {1: 2, 5: 1}, (2, 5)),
    ],
)
def test_blow_up_is_the_single_block_minimum(monkeypatch, tmp_path,
                                             subcommand, poison, expect):
    # martingale refuses fewer paths before stepping any
    paths = MARTINGALE_MIN_PATHS if subcommand == "martingale" else 10
    raw = dict(RUNS[subcommand], mc={"paths": paths, "master_seed": 5})
    grid = build_grid(M, raw["grid"]["N"], raw["grid"]["T"])
    errors = []
    for size in (1000, 3):
        poisoned_kernel(monkeypatch, grid, 5, poison)
        set_block(monkeypatch, size)
        with pytest.raises(BlowUpError) as exc:
            run_cli(subcommand, raw, tmp_path / f"b{size}")
        errors.append((exc.value.n, exc.value.path, exc.value.j,
                       str(exc.value)))
        monkeypatch.undo()
    assert errors[0][:3] == expect + (1,)
    assert errors[1] == errors[0]


def refused_before_writing(monkeypatch, tmp_path):
    """martingale on RUNS' config exits 3, having made no output_dir and
    no window stream."""
    stepped = []
    raw = dict(RUNS["martingale"], output_dir=str(tmp_path / "o"))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    with monkeypatch.context() as m:
        m.setattr(cli, "stream_windows", lambda *args: stepped.append(args))
        assert cli._execute("martingale", str(p), None, None, None) == 3
    assert not (tmp_path / "o").exists()
    assert stepped == []


def test_memory_refusal_is_exit_3(monkeypatch, tmp_path):
    # a block's Y (3 paths x 10 levels x 5 nodes x 8 B = 1200 B) exceeds
    # the physical memory reported: refused before anything is built
    monkeypatch.setattr(solver, "_physical_bytes", lambda: 1000)
    set_block(monkeypatch, 3)
    refused_before_writing(monkeypatch, tmp_path)
    with pytest.raises(MemoryError, match="needs 1200 bytes"):
        run_cli("martingale", RUNS["martingale"], tmp_path / "again")


def test_memory_refusal_counts_noise_and_tables(monkeypatch, tmp_path):
    # the same 3-path block: its Y (1200 B) fits in 2000 B, but with dB
    # (3 x 9 x 8 B = 216 B), the paths' noise streams (3 x 1024 B) and
    # the six tables' rows (N = 8 is below one 16-level window, so its 9
    # rows are all of them: 6 x 9 x 5 x 8 B = 2160 B) it needs 6648 B
    monkeypatch.setattr(solver, "_physical_bytes", lambda: 2000)
    set_block(monkeypatch, 3)
    refused_before_writing(monkeypatch, tmp_path)
    with pytest.raises(MemoryError, match="1200 bytes for its trajectories "
                       "and 6648 bytes with one window's 9 of its 9 "
                       "increments and a 1024-byte noise stream per path "
                       "and 9 rows of the six"):
        run_cli("martingale", RUNS["martingale"], tmp_path / "again")
    monkeypatch.setattr(solver, "_physical_bytes", lambda: 6648)
    assert run_cli("martingale", RUNS["martingale"], tmp_path / "fits") in (0, 6)


def _cap_address_space():
    limit = 1 << 30  # 1 GiB of address space, in the child only
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_out_of_memory_in_a_capped_child_is_exit_3(tmp_path):
    # the random g, a 30 x 5000000 array of 8 B values (1.2 GB), passes
    # the physical-memory preflight but cannot be allocated under the
    # child's 1 GiB cap; the stream would fit (546-path blocks: a window
    # of 546 * 18 * 32 * 8 B, 2.5 MB, and 17 levels of increments)
    raw = {
        "grid": {"M": 30, "N": 5_000_000, "T": 1.0},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 3, "amplitude": 0.5}}},
        "mc": {"paths": 1000, "master_seed": 1},
        "output_dir": str(tmp_path / "o"),
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # no bytecode: the run leaves no __pycache__ in the source tree
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run(
        [sys.executable, "-m", "stochwave.cli", "martingale", "--config",
         str(p)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_address_space,
    )
    assert res.returncode == 3, res.stderr
    assert "Traceback" not in res.stderr
    assert "out of memory: " in res.stderr
