"""The benchmark's tracer (bench/tracer.py) wraps package functions on
the module attributes callers look them up by.  A refactor that drops
or rebinds one of those names silently breaks `bench/run.py --trace 1`,
so these tests resolve every wrapped name and run one traced sweep."""

import json
from pathlib import Path
from types import ModuleType

import pytest

from stochwave import _stepper_np, cli, estimators, fields, grids, solver

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = {
    "cli": cli,
    "solver": solver,
    "estimators": estimators,
    "fields": fields,
    "grids": grids,
}


@pytest.fixture(scope="module")
def tracing():
    # executed from source so that nothing is written under bench/
    mod = ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         mod.__dict__)
    return mod


def test_traced_names_resolve(tracing):
    for mod, attr, _ in tracing.SPANNED + tracing.COUNTED:
        assert callable(getattr(MODULES[mod], attr, None)), f"{mod}.{attr}"
    assert callable(solver.step_paths)
    for method in ("csv", "json", "finish"):
        assert callable(getattr(cli.ArtifactWriter, method)), method
    assert callable(grids.GridFunction.__init__)


def traced_run(tracing, subcommand, raw, tmp_path, trajectories):
    """Run one subcommand under the benchmark's tracer; returns the exit
    code and the run's per-layer metrics."""
    raw = dict(raw, output_dir=str(tmp_path / "out"))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw), encoding="utf-8")
    cfg = cli.parse_config(p)
    tracer = tracing.Tracer()
    tracer.begin_run()
    tracer.install(MODULES)
    try:
        code = cli.run(subcommand, cfg)
    finally:
        tracer.uninstall()
    return code, tracer.run_metrics(0, trajectories=trajectories)


def test_traced_sweep_simulates_once(tracing, tmp_path):
    raw = {
        "grid": {"M": 3, "N": 64, "T": 3.5},
        "weight": {"s": 2.0, "lambda": 0.05, "beta": 0.5, "xstar": 1.5,
                   "mconst": 10.0},
        "coefficients": {"d": {"constant": 0.5}},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
        "mc": {"paths": 4, "master_seed": 3},
        "sweep": {"parameter": "weight.s", "values": [2.0, 4.0, 8.0]},
    }
    code, m = traced_run(tracing, "carleman", raw, tmp_path, trajectories=4 * 3)
    assert code == 0
    # one kernel call per 16-level window of the 64 steps, each over the
    # 4 paths once, for all three sweep values
    assert m["kernel.step_paths.calls"] == 64 // 16
    assert m["kernel.node_updates"] == 4 * 64 * 3
    assert m["kernel.paths_stepped"] == 4 * (64 // 16)
    assert m["kernel.useful_ratio"] == 1.0
    # the CLI streams windows (solver.stream_windows), not run_ensemble
    assert m["solver.run_ensemble.calls"] == 0
    # the estimators observe each window once, by the traced name
    assert m["solver.observe.calls"] == 64 // 16
    assert m["estimators.carleman_terms.busy_s"] > 0.0
    assert m["cli.write.bytes"] > 0
    # uninstall restored every wrapped name
    assert solver.step_paths is _stepper_np.step_paths
    assert cli.run_ensemble is solver.run_ensemble


def test_traced_simulate_counts_written_rows_and_bytes(tracing, tmp_path):
    raw = {
        "grid": {"M": 7, "N": 32, "T": 1.0},
        "coefficients": {"d": {"constant": 0.6}},
        "data": {"y0": {"random": {"seed": 1, "amplitude": 1.0}}},
        "mc": {"paths": 1, "master_seed": 5},
    }
    code, m = traced_run(tracing, "simulate", raw, tmp_path, trajectories=1)
    assert code == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert m["cli.write.rows"] == sum(e["rows"] for e in manifest["files"])
    assert m["cli.write.rows"] == 9 * 34 + 32 + 9
    assert m["cli.write.bytes"] == sum(f.stat().st_size for f in out.iterdir())
    assert m["cli.write.busy_s"] > 0.0
    # simulate observes path 0's whole window once
    assert m["solver.observe.calls"] == 1


def test_traced_martingale_counts_kernel_and_estimator(tracing, tmp_path):
    P, M, N = 100, 3, 8
    raw = {
        "grid": {"M": M, "N": N, "T": 1.0},
        "coefficients": {"d": {"constant": 0.5}},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
        "mc": {"paths": P, "master_seed": 2},
    }
    code, m = traced_run(tracing, "martingale", raw, tmp_path, trajectories=P)
    assert code == 0
    assert m["kernel.step_paths.calls"] == 1
    assert m["kernel.node_updates"] == P * N * M
    assert m["kernel.paths_stepped"] == P
    assert m["estimators.martingale_check.busy_s"] > 0.0


def test_traced_blocks_step_one_kernel_call_per_window(tracing, tmp_path,
                                                       monkeypatch):
    # 7 paths per block: 101 paths are 15 blocks, the last one of 3 paths;
    # 40 steps are windows of 16, 16 and 8 levels
    P, M, N = 101, 3, 40
    monkeypatch.setattr(solver, "_BLOCK_NODES", 7 * M)
    raw = {
        "grid": {"M": M, "N": N, "T": 1.0},
        "coefficients": {"d": {"constant": 0.5}},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
        "mc": {"paths": P, "master_seed": 2},
    }
    code, m = traced_run(tracing, "martingale", raw, tmp_path, trajectories=P)
    assert code == 0
    assert m["kernel.step_paths.calls"] == 15 * 3
    assert m["solver.run_ensemble.calls"] == 0
    assert m["solver.path_seed.calls"] == P
    assert m["kernel.node_updates"] == P * N * M
    assert m["kernel.paths_stepped"] == P * 3
    assert m["kernel.useful_ratio"] == 1.0
    # each call is handed exactly its window's levels, never N+2 of them
    assert m["kernel.ensemble_bytes"] == P * (18 + 18 + 10) * (M + 2) * 8
