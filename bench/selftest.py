"""Fast self-test of the benchmark harness on tiny grids.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit for every workload, in both modes, that wall_ratio sets each
checkout run against the baseline runs around it, and that the checks
fire: on a corrupted artifact, a wrong exit code, counts that do not
repeat, traced artifacts that differ from untraced ones, a kernel that
disagrees with the NumPy reference, and a baseline that cannot run.
Exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import types
from pathlib import Path

import child
import run
import tracer
import workloads

sys.path.insert(0, str(run.SRC))

from stochwave import _stepper_np, cli  # noqa: E402

PROBLEMS = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        PROBLEMS.append(what)


def metrics_emitted():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    expect(sorted(names) == sorted(workloads.WORKLOADS), "BENCHMARK.json lists every workload")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in names:
            line, _ = run.measure(name, 5, 0, trace, tiny=True, setup_samples=1)
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            expect(got == want, f"{name} trace={int(trace)}: every {key} metric with its unit")
            expect(line["correct"] and line["failed"] == 0, f"{name} trace={int(trace)}: clean run passes")


def _record(out_dir, sub, code=0):
    return {
        "phase": "timed",
        "wall_s": 1.0,
        "exit": code,
        "digest": child.artifact_digests(out_dir),
        "headline": child.headline(out_dir, sub),
    }


def corrupted_artifact(tmp):
    for name in workloads.WORKLOADS:
        sub = workloads.subcommand(name)
        path = tmp / f"{name}.json"
        path.write_text(json.dumps(workloads.config(name, 0, tiny=True)), encoding="utf-8")
        cfg = cli.parse_config(path)
        cfg.output_dir = str(tmp / name)
        expect(cli.run(sub, cfg) == 0, f"{name}: tiny run exits 0")
        good = _record(tmp / name, sub)
        reference = {"headline": good["headline"], "sha256": good["digest"]}
        failures, _ = run.check_runs([good, copy.deepcopy(good)], sub, reference)
        expect(not failures, f"{name}: identical runs pass")

        # nudge one headline number inside its artifact
        target, key = {
            "martingale": ("martingale.json", "mean"),
            "carleman": ("carleman_00.json", "ratio"),
            "stability": ("stability.json", "ratio_unsquared"),
            "simulate": ("flux.csv", None),
        }[sub]
        f = tmp / name / target
        if key is None:
            lines = f.read_text(encoding="utf-8").splitlines()
            *head, last = lines[-1].split(",")
            lines[-1] = ",".join(head + [repr(float(last) * (1 + 1e-6))])
            f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            obj = json.loads(f.read_text(encoding="utf-8"))
            obj[key] *= 1 + 1e-6
            f.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        bad = _record(tmp / name, sub)
        failures, _ = run.check_runs([good, good, bad], sub, reference)
        why = " ".join(failures.get(2, []))
        expect(
            list(failures) == [2] and "artifacts differ" in why and "headline" in why,
            f"{name}: corrupted {target} fails the determinism and headline checks",
        )

    wrong_exit = dict(good, exit=4)
    failures, _ = run.check_runs([good, wrong_exit], "simulate", None)
    expect(list(failures) == [1], "a run with exit 4 fails")
    gated = dict(good, exit=6)
    failures, n = run.check_runs([good, gated], "martingale", None)
    expect(not failures and n == 1, "martingale exit 6 at another seed is reported, not failed")
    failures, _ = run.check_runs([good, gated], "martingale", reference)
    expect(list(failures) == [1], "martingale exit 6 at the default seed fails")


def trace_checks():
    base = {key: 1 for key, _ in tracer.LAYER_METRICS}
    _, unsteady = tracer.summarize([base, dict(base)], 0.0)
    expect(not unsteady, "repeating counts pass")
    _, unsteady = tracer.summarize([base, dict(base, **{"grids.gridfunction_new": 2})], 0.0)
    expect(unsteady == ["grids.gridfunction_new"], "a count that does not repeat is caught")
    rec = {"phase": "untraced", "wall_s": 1.0, "digest": {"a": "0"}}
    traced = dict(rec, phase="traced", digest={"a": "1"})
    _, neutral, _ = run._layers([rec, traced], [base])
    expect(not neutral, "traced artifacts that differ from untraced ones are caught")


def parity_checks():
    import numpy as np

    def broken(Y, *rest):  # one ulp off in one node
        out = _stepper_np.step_paths(Y, *rest)
        Y[0, -1, 1] = np.nextafter(Y[0, -1, 1], np.inf)
        return out

    grid_inputs = _kernel_inputs()
    for kernel, want in ((_stepper_np.step_paths, "equal"), (broken, "DIFFER")):
        solver = types.SimpleNamespace(step_paths=kernel)
        cap = child._KernelCapture(solver)
        Y, *rest = grid_inputs
        solver.step_paths(np.copy(Y), *rest)
        cap.restore()
        expect(child.parity(cap)["status"] == want, f"parity reports {want}")
    expect(child.parity(None)["status"] == "skipped", "parity without a compiled kernel is skipped")


def paired_checks():
    def timed(walls):
        return [{"phase": "warmup", "wall_s": 9.0}] + [
            {"phase": "timed", "wall_s": w} for w in walls
        ]

    # the baseline speeds up 2x during the runs; the checkout is 1.5x slower
    res = {"records": timed([3.0, 1.5]), "baseline": timed([2.0, 2.0, 1.0]),
           "peak_rss_mb": 1.0}
    metrics = run._end_to_end("mc-wide", 0, True, [0.1], res, [])
    expect(metrics["wall_ratio"]["value"] == 1.25,
           "wall_ratio divides each checkout run by the mean of the baseline runs around it")

    saved = run.BASELINE
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        broken = Path(tmp) / "stochwave"
        broken.mkdir()
        (broken / "__init__.py").write_text('raise ImportError("broken baseline")\n')
        run.BASELINE = Path(tmp)
        try:
            run.measure("simulate-fine", 0, 0, False, tiny=True, setup_samples=0)
            caught = False
        except run.HarnessError:
            caught = True
        finally:
            run.BASELINE = saved
    expect(caught, "a baseline that cannot run is a harness error")


def _kernel_inputs():
    import numpy as np

    P, N, M = 3, 8, 5
    rng = np.random.default_rng(0)
    Y = np.zeros((P, N + 2, M + 2))
    Y[:, :2, 1:-1] = rng.standard_normal((P, 2, M))
    tables = [rng.standard_normal((N + 1, M + 2)) * 0.1 for _ in range(6)]
    dB = rng.standard_normal((P, N + 1)) * 0.1
    return (Y, *tables, dB, 0.01, 0.2)


def main():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        corrupted_artifact(Path(tmp))
    trace_checks()
    parity_checks()
    paired_checks()
    metrics_emitted()
    print(f"selftest: {len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
