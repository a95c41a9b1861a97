"""Outside-in benchmark of the stochwave CLI experiments.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) through stochwave.cli.parse_config
+ stochwave.cli.run, the code path of the `stochwave` entry point, and
checks every run's outputs.  With --trace 0 timed runs of the
checkout's src/ alternate with runs of the frozen copy of the package
in baseline/, in a sibling process, and the end-to-end metrics are
reported; with --trace 1 a separate traced run gives the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 10
MIN_RUNS = 2
CHILD_TIMEOUT_S = 150
HEADLINE_RTOL = 1e-9
# A martingale gate failure (exit 6) is a possible statistical outcome at
# seeds without reference values; it is reported, not counted as failed.
GATE_EXIT = {"martingale": 6}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_ratio": "1",
    "peak_rss_mb": "MB",
}


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed run)."""


def _child_env(package_root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(package_root)
    # The package's NumPy code is single-threaded; keep BLAS that way too.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    if package_root == BASELINE:
        env["STOCHWAVE_BACKEND"] = "numpy"  # the frozen copy has no compiled kernel
    return env


def _child(args, package_root=SRC):
    cmd = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(package_root), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{args[0]} child timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise HarnessError(
            f"{args[0]} child exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return proc.stdout


class _Server:
    """A `child.py serve` process: one warm-up run at start, then one run
    per request.  Its standard error goes to a file in its work dir."""

    def __init__(self, name, package_root, workload, config, work):
        self.name = name
        work = work / name
        work.mkdir()
        self.stderr_path = work / "stderr.txt"
        self.stderr = open(self.stderr_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), "serve", workload, str(config), str(work)],
            cwd=ROOT, env=_child_env(package_root), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.stderr, text=True,
        )
        self.records = [self._reply()]

    def _reply(self):
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close(kill=True)
            why = f"exited {self.proc.returncode}" if ready else \
                f"timed out after {CHILD_TIMEOUT_S} s"
            err = self.stderr_path.read_text(encoding="utf-8").strip()
            raise HarnessError(f"{self.name} child {why}:\n{err}")
        return json.loads(line)

    def ask(self, request):
        try:
            self.proc.stdin.write(request + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # _reply reports how the child ended
        return self._reply()

    def run(self):
        self.records.append(self.ask("run"))
        return self.records[-1]["wall_s"]

    def close(self, kill=False):
        """End the child (at once when `kill`) and wait for it."""
        try:
            self.proc.stdin.close()  # end of requests: the child returns
        except OSError:
            pass
        if kill:
            self.proc.kill()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# ---------------------------------------------------------------------------
# checks


def _close(a, b):
    return a == b or (
        isinstance(a, float) and isinstance(b, float)
        and math.isclose(a, b, rel_tol=HEADLINE_RTOL, abs_tol=0.0)
    )


def check_runs(records, subcommand, reference):
    """Failure reasons per run (index -> list of str), and how many runs
    ended in the statistical gate exit.  `reference` holds the headline
    values of the default seed, or is None at other seeds."""
    digests = [json.dumps(r["digest"], sort_keys=True) for r in records]
    common = max(set(digests), key=digests.count)
    gate = GATE_EXIT.get(subcommand) if reference is None else None
    failures, gated = {}, 0
    for i, rec in enumerate(records):
        why = []
        if rec["exit"] == gate:
            gated += 1
        elif rec["exit"] != 0:
            why.append(f"exit {rec['exit']!r}, expected 0")
        if digests[i] != common:
            why.append("artifacts differ from the other runs")
        if reference is not None:
            want = reference["headline"]
            got = rec["headline"]
            bad = [k for k in want if k not in got or not _close(got[k], want[k])]
            if bad or set(got) != set(want):
                why.append(f"headline numbers differ from the reference: {bad}")
        if why:
            failures[i] = why
    return failures, gated


def _tail(walls):
    """(percentile, value): the highest percentile with at least ten
    samples above it, or None when there are fewer than eleven."""
    n = len(walls)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(walls)[n - 11]


# ---------------------------------------------------------------------------
# one invocation


def _paired(workload, config, work, seconds):
    """Alternate runs of the frozen baseline copy and of the checkout,
    baseline first and last, until `seconds` have passed and the checkout
    has run at least MIN_RUNS times; every checkout run then lies between
    two baseline runs.  Returns (checkout server, baseline server,
    checkout's final report)."""
    servers = []
    try:
        program = _Server("checkout", SRC, workload, config, work)
        servers.append(program)
        baseline = _Server("baseline", BASELINE, workload, config, work)
        servers.append(baseline)
        start = time.perf_counter()
        baseline.run()
        while len(program.records) <= MIN_RUNS or time.perf_counter() - start < seconds:
            program.run()
            baseline.run()
        final = program.ask("end")
        baseline.ask("end")
    finally:
        for server in servers:
            server.close()
    return program, baseline, final


def _invoke(workload, seed, seconds, trace, tiny=False, setup_samples=0):
    """Write the workload config, time `setup_samples` fresh set-ups and
    run the measuring children.  Returns (result dict, set-up times); the
    result holds the checkout's records and, untraced, the baseline's."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    cpus = os.sched_getaffinity(0)
    # Every child runs on one CPU, so that the checkout and the baseline
    # see the same share of it (the host's speed per CPU drifts).
    os.sched_setaffinity(0, {min(cpus)})
    try:
        config = work / "config.json"
        config.write_text(
            json.dumps(workloads.config(workload, seed, tiny), indent=2) + "\n",
            encoding="utf-8",
        )

        # Half the set-up samples before the runs and half after, so that
        # their median spans the same stretch of machine load as the runs.
        def setup_times(n):
            return [float(_child(["setup", config])) for _ in range(n)]

        setup = setup_times(setup_samples // 2)
        if trace:
            result_path = work / "result.json"
            _child(["trace", workload, config, work, seconds, result_path])
            res = json.loads(result_path.read_text(encoding="utf-8"))
        else:
            program, baseline, res = _paired(workload, config, work, seconds)
            res.update(records=program.records, baseline=baseline.records)
        setup += setup_times(setup_samples - setup_samples // 2)
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)
    return res, setup


def measure(workload, seed, seconds, trace, tiny=False, reference=None,
            setup_samples=SETUP_SAMPLES):
    """Run `workload` and return (result line dict, report lines).
    `reference` applies only when given; main passes it at DEFAULT_SEED."""
    sub = workloads.subcommand(workload)
    res, setup = _invoke(workload, seed, seconds, trace, tiny,
                         0 if trace else setup_samples)
    records = res["records"]
    failures, gated = check_runs(records, sub, reference)
    lines = [f"env {json.dumps(res['env'], sort_keys=True)}"]
    for i, why in sorted(failures.items()):
        lines.append(f"FAILED run {i} ({records[i]['phase']}): {'; '.join(why)}")
    if gated:
        lines.append(f"martingale gate exit 6 in {gated} run(s): reported, not failed")
    lines.append(
        f"fail_ratio = {len(failures) / len(records):.6g} 1 "
        f"({len(failures)} of {len(records)} runs)"
    )
    if reference is None:
        lines.append("artifact sha256: no reference at this seed")
    else:
        same = records[0]["digest"] == reference["sha256"]
        lines.append(
            "artifact sha256: "
            + ("matches the reference" if same else "DIFFERS from the reference")
            + " (information only; rounding changes are allowed if declared)"
        )
    correct = not failures
    if not trace:
        # The baseline is fixed code: a failure there is the harness's.
        base_failures, _ = check_runs(res["baseline"], sub, None)
        if base_failures:
            raise HarnessError(f"the frozen baseline failed: {base_failures}")
        metrics = _end_to_end(workload, seed, tiny, setup, res, lines)
        lines.append(f"backend parity: {res['parity']['status']}: {res['parity']['reason']}")
        correct = correct and res["parity"]["status"] != "DIFFER"
    else:
        metrics, neutral, unsteady = _layers(records, res["layers"])
        lines.append(
            "traced artifacts byte-identical to untraced: " + ("yes" if neutral else "NO")
        )
        lines.append(
            "exact counts repeat across traced runs: "
            + ("yes" if not unsteady else f"NO {unsteady}")
        )
        for name, m in metrics.items():
            lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
        correct = correct and neutral and not unsteady
    line = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    return line, lines


def _timed_walls(records):
    return [r["wall_s"] for r in records if r["phase"] == "timed"]


def _end_to_end(workload, seed, tiny, setup, res, lines):
    walls = _timed_walls(res["records"])
    base_walls = _timed_walls(res["baseline"])
    wall = statistics.median(walls)
    # each checkout run against the mean of the baseline runs around it
    ratio = statistics.median(
        2.0 * w / (b0 + b1) for w, b0, b1 in zip(walls, base_walls, base_walls[1:])
    )
    cfg = workloads.config(workload, seed, tiny)
    paths = cfg["mc"]["paths"] * workloads.legs(workload)
    values = {
        "setup_s": statistics.median(setup),
        "wall_ratio": ratio,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    tail = _tail(walls)
    lines.append(
        f"setup_s = {values['setup_s']:.6g} s (median of {len(setup)} fresh interpreters)"
    )
    lines.append(
        f"wall_s = {wall:.6g} s median of n={len(walls)} timed runs after one warm-up; "
        + (f"p{tail[0]:.0f} {tail[1]:.6g} s" if tail else "too few runs for a tail percentile")
    )
    lines.append(f"paths_per_s = {paths / wall:.6g} paths/s ({paths} paths per run)")
    lines.append(
        f"wall_ratio = {ratio:.6g} 1 (median over {len(walls)} checkout runs of their wall "
        f"÷ the mean wall of the frozen-baseline runs just before and after; baseline median "
        f"{statistics.median(base_walls):.6g} s)"
    )
    lines.append(f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _layers(records, per_run):
    untraced = [r for r in records if r["phase"] in ("warmup", "untraced")]
    traced = [r for r in records if r["phase"] == "traced"]
    neutral = all(r["digest"] == untraced[0]["digest"] for r in traced)
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in untraced if r["phase"] == "untraced"
    )
    metrics, unsteady = tracer.summarize(per_run, overhead)
    return metrics, neutral, unsteady


# ---------------------------------------------------------------------------
# reference values


def load_reference(workload):
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload)


def write_reference(workload):
    """Record the default-seed headline numbers and artifact digests of
    `workload` in reference.json (after a declared numerical change)."""
    res, _ = _invoke(workload, workloads.DEFAULT_SEED, 0, False)
    rec = res["records"][0]  # the warm-up run
    if rec["exit"] != 0:
        raise HarnessError(f"{workload} exited {rec['exit']!r} at the default seed")
    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    refs[workload] = {"headline": rec["headline"], "sha256": rec["digest"]}
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--write-reference", action="store_true",
        help="record the default-seed reference values of the workload and exit",
    )
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "stochwave" / "cli.py").is_file():
        print(f"stochwave sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference(args.workload)
            return 0
        reference = None
        if args.seed == workloads.DEFAULT_SEED:
            reference = load_reference(args.workload)
            if reference is None:
                raise HarnessError(f"reference.json has no entry for {args.workload}")
        line, lines = measure(args.workload, args.seed, args.seconds, args.trace == 1,
                              reference=reference)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for text in lines:
        print(text)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
