"""One benchmark process: measures one workload in a fresh interpreter.

    child.py setup CONFIG
        time `import stochwave.cli` + `parse_config(CONFIG)`; print it.
    child.py serve WORKLOAD CONFIG WORKDIR
        run the workload once as a warm-up, then once more for every
        `run` line read from standard input, answering each with one
        JSON record (wall time, exit code, artifact digests, headline
        numbers).  `end` answers with peak RSS, environment and backend
        parity and exits.  run.py drives two of these in lockstep: one
        on the checkout's src/, one on the frozen copy in baseline/.
    child.py trace WORKLOAD CONFIG WORKDIR SECONDS RESULT
        one warm-up run, then untraced and traced runs alternating until
        SECONDS have passed (at least two of each); the records and the
        per-layer numbers of every traced run go to the JSON file RESULT.

run.py starts these with PYTHONPATH pointing at the package to measure.
Nothing but the standard library is imported before the setup timer
starts.
"""

from __future__ import annotations

import sys
import time


def setup(config):
    t0 = time.perf_counter()
    import stochwave.cli

    stochwave.cli.parse_config(config)
    print(time.perf_counter() - t0)


def artifact_digests(out_dir):
    import hashlib
    from pathlib import Path

    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(out_dir).iterdir())
    }


def _column_l2(path, col):
    import math

    with open(path, encoding="utf-8") as fh:
        next(fh)
        return math.sqrt(math.fsum(float(line.split(",")[col]) ** 2 for line in fh))


def headline(out_dir, subcommand):
    """The numbers a user reads off the run, parsed back from its artifacts."""
    import json
    from pathlib import Path

    out = Path(out_dir)

    def load(name):
        return json.loads((out / name).read_text(encoding="utf-8"))

    if subcommand == "martingale":
        rep = load("martingale.json")
        return {"mean": rep["mean"], "stderr": rep["stderr"]}
    if subcommand == "carleman":
        return {
            f"ratio[s={rep['s']}]": rep["ratio"]
            for rep in map(load, sorted(p.name for p in out.glob("carleman_[0-9]*.json")))
        }
    if subcommand == "stability":
        return {"ratio_unsquared": load("stability.json")["ratio_unsquared"]}
    return {
        "flux_l2": _column_l2(out / "flux.csv", 2),
        "terminal_y_l2": _column_l2(out / "terminal.csv", 2),
        "terminal_v_l2": _column_l2(out / "terminal.csv", 3),
    }


def environment():
    import os
    import platform

    import numpy
    import stochwave

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "backend": stochwave.backend_name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_to_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class _KernelCapture:
    """Keeps copies of the first paths of every kernel call's inputs, for
    the parity check against the NumPy reference kernel."""

    PATHS = 64

    def __init__(self, solver):
        self.solver = solver
        self.original = solver.step_paths
        self.calls = []
        solver.step_paths = self

    def __call__(self, Y, A, B, C, D, G, F, dB, dt, dx):
        k = min(Y.shape[0], self.PATHS)
        self.calls.append((Y[:k].copy(), A, B, C, D, G, F, dB[:k].copy(), dt, dx))
        return self.original(Y, A, B, C, D, G, F, dB, dt, dx)

    def restore(self):
        self.solver.step_paths = self.original


def parity(capture):
    """Compare the compiled kernel with _stepper_np.step_paths bit for bit
    on the captured inputs; `capture` is None when no compiled kernel is
    importable."""
    from stochwave import _stepper_np

    if capture is None:
        return {"status": "skipped", "reason": _no_compiled_reason()}
    for Y0, *tables, dB, dt, dx in capture.calls:
        y_ext, y_np = Y0.copy(), Y0.copy()
        flag_ext = capture.original(y_ext, *tables, dB, dt, dx)
        flag_np = _stepper_np.step_paths(y_np, *tables, dB, dt, dx)
        if tuple(flag_ext) != tuple(flag_np) or y_ext.tobytes() != y_np.tobytes():
            return {"status": "DIFFER", "reason": "compiled kernel differs from NumPy"}
    return {
        "status": "equal",
        "reason": f"{len(capture.calls)} kernel call(s), first "
        f"{_KernelCapture.PATHS} paths each",
    }


def _no_compiled_reason():
    try:
        from stochwave import _stepper  # noqa: F401
    except ImportError as exc:
        return f"no compiled kernel importable ({exc})"
    return "the NumPy kernel was forced by STOCHWAVE_BACKEND"


class Runner:
    """Runs one workload through cli.parse_config + cli.run in this
    interpreter and records each run."""

    def __init__(self, workload, config, workdir):
        from pathlib import Path

        from stochwave import cli

        import workloads

        self.cli = cli
        self.sub = workloads.subcommand(workload)
        self.config = config
        self.out_dir = Path(workdir) / "out"

    def one(self, phase, tracer=None):
        import shutil

        cli = self.cli
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.begin_run()
            cfg = tracer.span("cli.parse_config", cli.parse_config, self.config)
        else:
            cfg = cli.parse_config(self.config)
        cfg.output_dir = str(self.out_dir)
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                code = tracer.span("cli.run", cli.run, self.sub, cfg)
            else:
                code = cli.run(self.sub, cfg)
        except Exception as exc:  # a failed run is recorded, not fatal
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        digest, numbers = {}, {}
        try:
            digest = artifact_digests(self.out_dir)
            if code == 0:
                numbers = headline(self.out_dir, self.sub)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            code = f"unreadable artifacts: {type(exc).__name__}: {exc}"
        return {"phase": phase, "wall_s": wall, "exit": code, "digest": digest,
                "headline": numbers}

    def finish(self):
        import resource
        import shutil

        shutil.rmtree(self.out_dir, ignore_errors=True)
        return {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(),
        }


def serve(workload, config, workdir):
    import json
    import os

    import stochwave
    from stochwave import solver

    # Replies go to the original standard output; whatever the program
    # prints goes to the null device.
    reply = os.fdopen(os.dup(1), "w", encoding="utf-8")
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    def send(obj):
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    runner = Runner(workload, config, workdir)
    compiled = stochwave.backend_name != "numpy"
    capture = _KernelCapture(solver) if compiled else None
    send(runner.one("warmup"))
    if capture is not None:
        capture.restore()
    for line in sys.stdin:
        if line.strip() == "run":
            send(runner.one("timed"))
        else:
            send(dict(runner.finish(), parity=parity(capture)))
            return


def trace(workload, config, workdir, seconds, result_path):
    import json
    from pathlib import Path

    from stochwave import cli, estimators, fields, grids, solver

    import tracer as tracing
    import workloads

    runner = Runner(workload, config, workdir)
    records = [runner.one("warmup")]
    # Untraced and traced runs alternate, so that a change in machine
    # load between them does not show up as tracing overhead.
    tracer = tracing.Tracer()
    modules = {"cli": cli, "solver": solver, "estimators": estimators,
               "fields": fields, "grids": grids}
    start = time.perf_counter()
    while tracer.run_id < 1 or time.perf_counter() - start < seconds:
        records.append(runner.one("untraced"))
        tracer.install(modules)
        try:
            records.append(runner.one("traced", tracer))
        finally:
            tracer.uninstall()
    work = Path(workdir)
    tracer.dump(work.parent / f"spans-{workload}.jsonl")
    cfg = json.loads(Path(config).read_text(encoding="utf-8"))
    trajectories = (
        cfg["mc"]["paths"] * workloads.legs(workload)
        * len(cfg.get("sweep", {}).get("values", [0]))
    )
    result = {
        "layers": [tracer.run_metrics(r, trajectories) for r in range(tracer.run_id + 1)],
        "records": records,
    }
    result.update(runner.finish())
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(*args)
    elif mode == "serve":
        serve(*args)
    else:
        workload, config, workdir, seconds, result_path = args
        trace(workload, config, workdir, float(seconds), result_path)
