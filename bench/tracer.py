"""Spans and counters around the calls into each stochwave layer.

The package itself stays uninstrumented: `Tracer.install` replaces
public functions with timing wrappers from the outside.  Each wrapper
goes on the name the caller actually looks up, because the modules bind
names with `from ... import` (cli.run_ensemble, solver.step_paths,
estimators.eval_weights, ...).  Spans are kept in memory as
(name, start, end, parent, run) tuples and written out by `dump`;
`run_metrics` derives busy and self times and the exact counts from
them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
from time import perf_counter

# (module, attribute, span name).  A span name's first component is the
# layer the callee belongs to, not the module whose binding is replaced.
SPANNED = (
    ("cli", "run_ensemble", "solver.run_ensemble"),
    ("cli", "observe", "solver.observe"),
    ("cli", "carleman_terms", "estimators.carleman_terms"),
    ("cli", "stability_terms", "estimators.stability_terms"),
    ("cli", "martingale_check", "estimators.martingale_check"),
    ("cli", "random_field", "fields.random_field"),
    ("cli", "random_slice", "fields.random_slice"),
    ("cli", "sine_field", "fields.sine_field"),
    ("cli", "sine_slice", "fields.sine_slice"),
    ("cli", "zero_field", "fields.zero_field"),
    ("cli", "preset_coefficient", "fields.preset_coefficient"),
    # SchemeCoefficients.constant imports it from the module at call time
    ("fields", "constant_coefficient", "fields.constant_coefficient"),
    ("solver", "path_seed", "solver.path_seed"),
    ("solver", "sample_brownian", "solver.sample_brownian"),
    ("estimators", "observe", "solver.observe"),
    ("estimators", "check_admissible", "weights.check_admissible"),
    ("estimators", "eval_weights", "weights.eval_weights"),
    ("estimators", "r_squared", "weights.r_squared"),
)

# Cheap, frequent calls are counted without a span.
COUNTED = (
    ("estimators", "integrate", "grids.integrate.calls"),
    ("grids", "integrate", "grids.integrate.calls"),  # inside the L2-type norms
    ("estimators", "norm", "grids.norm.calls"),
)

# spans whose call count / total time is reported under its own name
CALLS = (
    "kernel.step_paths",
    "solver.path_seed",
    "solver.sample_brownian",
    "solver.run_ensemble",
    "solver.observe",
    "weights.eval_weights",
    "weights.r_squared",
)
BUSY = CALLS + (
    "estimators.carleman_terms",
    "estimators.stability_terms",
    "estimators.martingale_check",
    "weights.check_admissible",
)

ESTIMATORS = (
    "estimators.carleman_terms",
    "estimators.stability_terms",
    "estimators.martingale_check",
)

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("kernel.step_paths.calls", "count"),
    ("kernel.step_paths.busy_s", "s"),
    ("kernel.node_updates", "count"),
    ("kernel.node_updates_per_s", "1/s"),
    ("kernel.bytes_computed", "B"),
    ("kernel.ensemble_bytes", "B"),
    ("kernel.paths_stepped", "count"),
    ("kernel.useful_ratio", "1"),
    ("solver.path_seed.calls", "count"),
    ("solver.path_seed.busy_s", "s"),
    ("solver.sample_brownian.calls", "count"),
    ("solver.sample_brownian.busy_s", "s"),
    ("solver.run_ensemble.calls", "count"),
    ("solver.run_ensemble.busy_s", "s"),
    ("solver.run_ensemble.self_s", "s"),
    ("solver.observe.calls", "count"),
    ("solver.observe.busy_s", "s"),
    ("estimators.carleman_terms.busy_s", "s"),
    ("estimators.stability_terms.busy_s", "s"),
    ("estimators.martingale_check.busy_s", "s"),
    ("estimators.self_s", "s"),
    ("estimators.paths_per_s", "paths/s"),
    ("weights.check_admissible.busy_s", "s"),
    ("weights.eval_weights.calls", "count"),
    ("weights.eval_weights.busy_s", "s"),
    ("weights.r_squared.calls", "count"),
    ("weights.r_squared.busy_s", "s"),
    ("grids.gridfunction_new", "count"),
    ("grids.integrate.calls", "count"),
    ("grids.norm.calls", "count"),
    ("fields.busy_s", "s"),
    ("cli.write.busy_s", "s"),
    ("cli.write.bytes", "B"),
    ("cli.write.rows", "count"),
    ("cli.run.self_s", "s"),
    ("cli.parse_config.busy_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counts that must repeat exactly from one traced run to the next.
EXACT = (
    "kernel.node_updates",
    "kernel.paths_stepped",
    "kernel.useful_ratio",
    "grids.gridfunction_new",
    "grids.integrate.calls",
    "cli.write.bytes",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, run id)
        self._stack = []
        self.run_id = -1
        self.counts = []  # per run: {counter: value}
        self._keys = set()  # distinct trajectory keys of the current run
        self._restore = []

    # recording ----------------------------------------------------------

    def begin_run(self):
        self.run_id += 1
        self.counts.append({})
        self._keys = set()

    def add(self, counter, amount=1):
        c = self.counts[self.run_id]
        c[counter] = c.get(counter, 0) + amount

    def span(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.run_id)

    # wrappers -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    def _kernel(self, fn):
        @functools.wraps(fn)
        def wrapper(Y, A, B, C, D, G, F, dB, dt, dx):
            P, nt, mf = Y.shape
            self.add("kernel.node_updates", P * (nt - 2) * (mf - 2))
            self.add("kernel.paths_stepped", P)
            self.add("kernel.ensemble_bytes", Y.nbytes)
            self.add(
                "kernel.bytes_computed",
                sum(a.nbytes for a in (Y, A, B, C, D, G, F, dB)),
            )
            self.span("trace.hash", self._note_trajectories, Y, (A, B, C, D, G, F), dB)
            return self.span("kernel.step_paths", fn, Y, A, B, C, D, G, F, dB, dt, dx)

        return wrapper

    def _note_trajectories(self, Y, tables, dB):
        # A trajectory is fixed by its start slices, its noise row and the
        # shared tables, so distinct keys count the distinct trajectories.
        common = hashlib.blake2b()
        for a in tables:
            common.update(a.tobytes())
        common = common.digest()
        for p in range(Y.shape[0]):
            h = hashlib.blake2b(common)
            h.update(Y[p, :2].tobytes())
            h.update(dB[p].tobytes())
            self._keys.add(h.digest())
        self.counts[self.run_id]["kernel.distinct_trajectories"] = len(self._keys)

    def _writer(self, method, fn):
        @functools.wraps(fn)
        def wrapper(writer, *args):
            before = len(writer.entries)
            out = self.span(f"cli.write.{method}", fn, writer, *args)
            name = "manifest.json" if method == "finish" else args[0]
            self.add("cli.write.bytes", (writer.dir / name).stat().st_size)
            self.add("cli.write.rows", sum(e["rows"] for e in writer.entries[before:]))
            return out

        return wrapper

    def install(self, modules):
        """Wrap the layer entry points; `modules` maps short module names
        (cli, solver, estimators, fields, grids) to the imported modules."""
        for mod, attr, name in SPANNED:
            self._patch(modules[mod], attr, self._spanned(name, getattr(modules[mod], attr)))
        for mod, attr, name in COUNTED:
            self._patch(modules[mod], attr, self._counted(name, getattr(modules[mod], attr)))
        solver = modules["solver"]
        self._patch(solver, "step_paths", self._kernel(solver.step_paths))
        writer = modules["cli"].ArtifactWriter
        for method in ("csv", "json", "finish"):
            self._patch(writer, method, self._writer(method, getattr(writer, method)))
        gf = modules["grids"].GridFunction
        self._patch(gf, "__init__", self._counted("grids.gridfunction_new", gf.__init__))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # output -------------------------------------------------------------

    def dump(self, path):
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def run_metrics(self, run, trajectories):
        """Per-layer numbers of traced run `run`.  `trajectories` is the
        number of trajectories the run's estimators consumed."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == run]
        child_time = {}
        for _, (name, t0, t1, parent, _) in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        calls, busy, self_s = {}, {}, {}
        layer_busy = {"fields": 0.0, "cli.write": 0.0}
        for i, (name, t0, t1, parent, _) in spans:
            dur = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(i, 0.0)
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            for layer in layer_busy:
                if name.startswith(layer + ".") and not parent_name.startswith(layer + "."):
                    layer_busy[layer] += dur
        c = self.counts[run]
        m = {f"{k}.calls": calls.get(k, 0) for k in CALLS}
        m.update({f"{k}.busy_s": busy.get(k, 0.0) for k in BUSY})
        for key in ("kernel.node_updates", "kernel.bytes_computed",
                    "kernel.ensemble_bytes", "kernel.paths_stepped",
                    "grids.gridfunction_new", "grids.integrate.calls",
                    "grids.norm.calls", "cli.write.bytes", "cli.write.rows"):
            m[key] = c.get(key, 0)
        stepped = c.get("kernel.paths_stepped", 0)
        m["kernel.useful_ratio"] = (
            c.get("kernel.distinct_trajectories", 0) / stepped if stepped else 1.0
        )
        kbusy = busy.get("kernel.step_paths", 0.0)
        m["kernel.node_updates_per_s"] = m["kernel.node_updates"] / kbusy if kbusy else 0.0
        m["solver.run_ensemble.self_s"] = self_s.get("solver.run_ensemble", 0.0)
        est_busy = sum(busy.get(k, 0.0) for k in ESTIMATORS)
        m["estimators.self_s"] = sum(self_s.get(k, 0.0) for k in ESTIMATORS)
        m["estimators.paths_per_s"] = trajectories / est_busy if est_busy else 0.0
        m["fields.busy_s"] = layer_busy["fields"]
        m["cli.write.busy_s"] = layer_busy["cli.write"]
        m["cli.run.self_s"] = self_s.get("cli.run", 0.0)
        m["cli.parse_config.busy_s"] = busy.get("cli.parse_config", 0.0)
        return m


def summarize(per_run, overhead_s):
    """Every per-layer metric over the traced runs (median of times and
    rates, the count of the first run), plus the EXACT counts that did not
    repeat from run to run."""
    unsteady = [
        key for key in EXACT if len({m[key] for m in per_run}) != 1
    ]
    out = {}
    for key, unit in LAYER_METRICS:
        if key == "trace.overhead_s":
            value = overhead_s
        elif unit in ("count", "B"):
            value = per_run[0][key]  # exact; EXACT ones are checked to repeat
        else:
            value = statistics.median(m[key] for m in per_run)
        out[key] = {"value": value, "unit": unit}
    return out, unsteady

