"""Golden CLI runs: the cases of tests/golden.json and the code that
runs them.

Each case is one subcommand on one config, with optional extra flags,
run in-process through run_cli.  A config is either the name
of a benchmark workload, whose tiny config it runs (bench/workloads.py,
`config(name, 0, tiny=True)`), or an inline config.  Its record holds
the exit code, stdout, stderr, whether output_dir exists afterwards,
and the SHA-256 of every file written, manifest.json included.

carleman's and weights-order's artifacts depend on the SIMD target
that NumPy dispatches its float64 exp, log, expm1 and power loops to
(ROADMAP item 7), so the record of each of their whole runs
(HOST_DISPATCH) also holds those targets; on a host whose targets
differ, tests/test_golden.py fails those cases with a message naming
both.

Regenerate the table, after a declared artifact or message change, with

    PYTHONPATH=src python tests/golden.py

and list every changed entry in CHANGES.md.  Record new cases, or
re-record named ones, without touching the others, with

    PYTHONPATH=src python tests/golden.py --only NAME... [--replace]

which runs only the named cases and merges them into the table: an
unknown name is refused, and so is a name the table already holds
unless --replace is given.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import numpy as np

from stochwave.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("golden.json")
WORKLOADS = ROOT / "bench" / "workloads.py"

GRID = {"M": 4, "N": 4, "T": 1.0}
WEIGHT = {"s": 0.7, "lambda": 0.9, "beta": 0.3, "xstar": 1.3, "mconst": 0.25}
SMALL = {
    "grid": {"M": 7, "N": 40, "T": 1.0},
    "coefficients": {"a": {"constant": -0.4}, "d": {"constant": 0.6}},
    "data": {
        "y0": {"sine": {"mode": 1, "amplitude": 1.0}},
        "g": {"random": {"seed": 3, "amplitude": 0.8}},
    },
    "mc": {"paths": 5, "master_seed": 7},
}
BIG = 10**400

# name -> (subcommand, workload name or inline config, *extra flags)
CASES = {
    # whole runs
    "simulate-simulate-fine": ("simulate", "simulate-fine"),
    "stability-stability-fine": ("stability", "stability-fine"),
    "martingale-mc-wide": ("martingale", "mc-wide"),
    "identities-simulate-fine": ("identities", "simulate-fine"),
    "identities-mc-wide": ("identities", "mc-wide"),
    # path 0 collected over two windows of a three-path block
    "simulate-simulate-fine-3-paths": (
        "simulate", "simulate-fine", "--paths", "3"),
    # blocks of 81 and 19 paths, windows of 16, 16 and 8 levels
    "martingale-two-blocks": ("martingale", {
        "grid": {"M": 200, "N": 40, "T": 0.1},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
        "coefficients": {"d": {"constant": 0.5}},
        "mc": {"paths": 100},
    }),
    # blocks of 81 and 19 paths on 600 levels, dt < dx: each block's
    # increments in three chunks of the noise stream (256, 256 and 88
    # levels) under a noisy y and a random g
    "martingale-three-chunks": ("martingale", {
        "grid": {"M": 200, "N": 600, "T": 1.0},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 3, "amplitude": 0.8}}},
        "coefficients": {"d": {"constant": 0.5}},
        "mc": {"paths": 100},
    }),
    "stability-data-b": ("stability", {
        **SMALL,
        "data_b": {"y0": {"sine": {"mode": 2, "amplitude": 0.5}},
                   "y1": {"random": {"seed": 5, "amplitude": 0.2}}},
    }),
    "stability-space-only": ("stability", {**SMALL, "g_mode": "space_only"}),
    # a forcing on one side of the pair only, and two zero g
    "stability-data-b-f-only-in-b": ("stability", {
        **SMALL,
        "data_b": {"y0": {"sine": {"mode": 2, "amplitude": 0.5}},
                   "f": {"random": {"seed": 9, "amplitude": 0.3}}},
    }),
    "stability-data-b-f-only-in-a": ("stability", {
        **SMALL,
        "data": {**SMALL["data"],
                 "f": {"random": {"seed": 9, "amplitude": 0.3}}},
        "data_b": {"y1": {"random": {"seed": 5, "amplitude": 0.2}}},
    }),
    "stability-data-b-zero-g": ("stability", {
        **SMALL,
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
        "data_b": {"y1": {"random": {"seed": 5, "amplitude": 0.2}}},
    }),
    # blocks of 81 and 19 paths on preset tables: a and d hold one value
    # per level (stride 0 along x), c = x widens every weight to one per
    # node
    "martingale-presets-two-blocks": ("martingale", {
        "grid": {"M": 200, "N": 40, "T": 0.1},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 3, "amplitude": 0.8}}},
        "coefficients": {"a": {"preset": "zero"},
                         "c": {"preset": "ramp_x"},
                         "d": {"preset": "one"}},
        "mc": {"paths": 100},
    }),
    # constant coefficients and the absent f as zero-stride views
    # blocks of 81 and 19 paths, windows of 16, 16 and 8 levels: the
    # terminal pair of a second block and the flux of every window
    "stability-two-blocks": ("stability", {
        "grid": {"M": 200, "N": 40, "T": 0.1},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "y1": {"random": {"seed": 5, "amplitude": 0.2}},
                 "g": {"random": {"seed": 3, "amplitude": 0.8}}},
        "coefficients": {"d": {"constant": 0.5}},
        "mc": {"paths": 100},
    }),
    "stability-no-g": ("stability", {
        **SMALL,
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "y1": {"random": {"seed": 5, "amplitude": 0.2}}},
    }),
    # 4100 flux rows, so flux.csv's integer column n crosses three
    # 2048-row write blocks
    "simulate-long-flux": ("simulate", {
        "grid": {"M": 3, "N": 4100, "T": 1.0},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 11, "amplitude": 0.5}}},
        "mc": {"paths": 2, "master_seed": 5},
    }),
    "simulate-presets": ("simulate", {
        **SMALL,
        "coefficients": {"a": {"preset": "ramp_t"},
                         "b": {"preset": "sine_x"},
                         "d": {"preset": "ramp_x"}},
    }),
    # whole runs whose artifacts depend on NumPy's dispatch (sweep
    # included in carleman-sweep's tiny config)
    "carleman-carleman-sweep": ("carleman", "carleman-sweep"),
    # blocks of 81 and 1 paths over 44 windows, dt <= dx: R2's flux and
    # the terminal pair across blocks
    "carleman-two-blocks": ("carleman", {
        "grid": {"M": 200, "N": 704, "T": 3.5},
        "weight": {"s": 2.0, "lambda": 0.05, "beta": 0.5, "xstar": 1.5,
                   "mconst": 10.0, "epsilon": 0.5},
        "coefficients": {"a": {"constant": -0.5}, "d": {"constant": 0.5}},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 21, "amplitude": 0.5}},
                 "f": {"random": {"seed": 22, "amplitude": 2.0}}},
        "mc": {"paths": 82},
    }),
    # no forcing: R1 is exactly 0.0
    "carleman-no-f": ("carleman", {
        "grid": {"M": 20, "N": 80, "T": 3.5},
        "weight": {"s": 2.0, "lambda": 0.05, "beta": 0.5, "xstar": 1.5,
                   "mconst": 10.0, "epsilon": 0.5},
        "coefficients": {"a": {"constant": -0.5}, "d": {"constant": 0.5}},
        "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}},
                 "g": {"random": {"seed": 21, "amplitude": 0.5}}},
        "mc": {"paths": 5},
    }),
    "weights-order-small": ("weights-order", {
        "grid": {"M": 3, "N": 4, "T": 1.0}, "weight": WEIGHT}),
    # refused at parse (tests/test_cli.py::test_parse_pointer_errors)
    "refused-grid-M-missing": ("simulate", {"grid": {"N": 4, "T": 1.0}}),
    "refused-grid-M-string": ("simulate", {"grid": {**GRID, "M": "four"}}),
    "refused-grid-M-bool": ("simulate", {"grid": {**GRID, "M": True}}),
    "refused-grid-M-zero": ("simulate", {"grid": {**GRID, "M": 0}}),
    "refused-grid-unknown-key": ("simulate", {"grid": {**GRID, "bogus": 1}}),
    "refused-unknown-section": ("simulate", {"grid": GRID, "bogus": 1}),
    "refused-mc-paths-zero": ("simulate", {"grid": GRID, "mc": {"paths": 0}}),
    "refused-g-mode": ("simulate", {"grid": GRID, "g_mode": "diagonal"}),
    "refused-sweep-parameter": ("carleman", {
        "grid": GRID, "weight": WEIGHT,
        "sweep": {"parameter": "grid.M", "values": [1]}}),
    "refused-sine-mode-zero": ("simulate", {
        "grid": GRID, "data": {"y0": {"sine": {"mode": 0}}}}),
    "refused-nan-amplitude": ("simulate", {
        "grid": GRID,
        "data": {"y0": {"sine": {"mode": 1, "amplitude": float("nan")}}}}),
    "refused-sweep-value-infinite": ("carleman", {
        "grid": GRID, "weight": WEIGHT,
        "sweep": {"parameter": "weight.s", "values": [1.0, float("-inf")]}}),
    "refused-weight-beta": ("carleman", {
        "grid": GRID, "weight": {**WEIGHT, "beta": 2.0}}),
    "refused-sweep-beta": ("carleman", {
        "grid": GRID, "weight": WEIGHT,
        "sweep": {"parameter": "weight.beta", "values": [0.5, 3.0]}}),
    "refused-dt-underflow": ("simulate", {"grid": {**GRID, "T": 5e-324}}),
    # the flag comes after the harness's own --output-dir, so it wins
    "refused-output-dir-empty": ("identities", {"grid": GRID},
                                 "--output-dir", ""),
    # integers past their range (tests/test_cli.py::test_out_of_range_integers)
    "refused-big-M": ("identities", {"grid": {**GRID, "M": BIG}}),
    "refused-big-N": ("simulate", {"grid": {**GRID, "N": BIG}}),
    "refused-big-paths": ("identities", {"grid": GRID,
                                         "mc": {"paths": 2**63}}),
    "refused-big-sine-mode": ("simulate", {
        "grid": GRID,
        "data": {"y0": {"sine": {"mode": 2**63, "amplitude": 1.0}}}}),
    "refused-big-data-b-seed": ("stability", {
        "grid": GRID,
        "data_b": {"y1": {"random": {"seed": 2**64, "amplitude": 1.0}}}}),
    "identities-largest-master-seed": ("identities", {
        "grid": GRID, "mc": {"master_seed": 2**64 - 1}}),
    "refused-big-T": ("simulate", {"grid": {**GRID, "T": BIG}}),
    "refused-big-weight-s": ("carleman", {
        "grid": GRID, "weight": {**WEIGHT, "s": BIG}}),
    "refused-big-sweep-value": ("carleman", {
        "grid": GRID, "weight": WEIGHT,
        "sweep": {"parameter": "weight.s", "values": [BIG]}}),
    "refused-big-coefficient": ("simulate", {
        "grid": GRID, "coefficients": {"a": {"constant": -BIG}}}),
    # refused after parse, before output_dir is made
    "refused-martingale-paths": ("martingale", {"grid": GRID,
                                                "mc": {"paths": 1}}),
    "refused-weights-order-refined-grid": ("weights-order", {
        "grid": {"M": 2, "N": 1, "T": 2e-323}, "weight": WEIGHT}),
    "refused-identities-mesh": ("identities", {
        "grid": {"M": 1, "N": 4, "T": 1.0}}),
    "refused-weights-order-coarse-mesh": ("weights-order", {
        "grid": {"M": 3, "N": 4, "T": 1.0},
        "weight": {"s": 10.0, "lambda": 0.5, "beta": 0.5, "xstar": 1.5,
                   "mconst": 1.0}}),
    # numeric failures of the weights, before output_dir is made
    "refused-carleman-weight-overflow": ("carleman", {
        "grid": {"M": 3, "N": 4, "T": 1.0},
        "weight": {**WEIGHT, "lambda": 800.0}}),
    "refused-weights-order-weight-overflow": ("weights-order", {
        "grid": {"M": 3, "N": 4, "T": 1.0},
        "weight": {**WEIGHT, "lambda": 800.0}}),
    "refused-weights-order-exact-fit": ("weights-order", {
        "grid": {"M": 3, "N": 4, "T": 1.0}, "weight": {**WEIGHT, "s": 0.0}}),
}


HOST_DISPATCH = ("carleman-carleman-sweep", "carleman-two-blocks",
                 "carleman-no-f", "weights-order-small")
# the NumPy loops whose float64 results differ between SIMD targets
DISPATCHED = ("exp", "expm1", "log", "power")


def dispatch() -> dict:
    """The `current` SIMD target of NumPy's float64 loop of each
    function of DISPATCHED."""
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name=f"^({'|'.join(DISPATCHED)})$",
                         signature="float64")
    return {name: target["current"]
            for name in DISPATCHED for target in info[name].values()}


def _workloads() -> ModuleType:
    # executed from source, so that nothing is written under bench/
    mod = ModuleType("bench_workloads")
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS),
                 "exec"), mod.__dict__)
    return mod


class CliResult(NamedTuple):
    """One in-process run of the `stochwave` command."""

    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout, then stderr."""
        return self.stdout + self.stderr


def run_cli(args) -> CliResult:
    """Run `stochwave ARGS` in this process, through cli.main, with
    both streams captured.  The exit code is that of the SystemExit
    main ends with; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    code = 0  # a process whose main returns exits 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            code = exc.code or 0
    return CliResult(code, out.getvalue(), err.getvalue())


def run_case(name: str, workdir: Path) -> dict:
    """Run case `name` with its config and output under workdir."""
    subcommand, config, *flags = CASES[name]
    if isinstance(config, str):
        config = _workloads().config(config, 0, tiny=True)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    out = workdir / "out"
    res = run_cli([subcommand, "--config", str(cfg), "--output-dir",
                   str(out), *flags])
    files = sorted(out.iterdir()) if out.is_dir() else []
    record = {
        "exit_code": res.exit_code,
        "stdout": res.stdout,
        "stderr": res.stderr,
        "output_dir": out.exists(),
        "sha256": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in files},
    }
    if name in HOST_DISPATCH:
        record["dispatch"] = dispatch()
    return record


def generate(names=None) -> dict:
    """The table of the cases `names`, or of every case."""
    runs = {}
    for name in CASES if names is None else names:
        with tempfile.TemporaryDirectory() as tmp:
            runs[name] = run_case(name, Path(tmp))
    return {"numpy": np.__version__, "runs": runs}


def merge(table: dict, names, replace: bool = False) -> dict:
    """table with the cases `names` run again and merged in.  Raises
    ValueError, before running anything, for an unknown name, a name
    the table holds unless replace, or a table made with another NumPy
    version."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        raise ValueError(f"unknown case(s): {', '.join(unknown)}")
    held = [name for name in names if name in table["runs"]]
    if held and not replace:
        raise ValueError(
            f"already recorded: {', '.join(held)} (give --replace to "
            "overwrite)")
    if table["numpy"] != np.__version__:
        raise ValueError(
            f"the table was made with NumPy {table['numpy']}; this is "
            f"NumPy {np.__version__}")
    runs = {**table["runs"], **generate(names)["runs"]}
    return {**table, "runs": runs}


def regenerate(argv=None, table: Path = TABLE) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the golden table, or merge named cases "
                    "into it.")
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run only these cases and merge them in")
    parser.add_argument("--replace", action="store_true",
                        help="with --only, overwrite recorded cases")
    args = parser.parse_args(argv)
    if args.only is None:
        if args.replace:
            parser.error("--replace needs --only")
        new = generate()
    else:
        old = json.loads(table.read_text(encoding="utf-8"))
        try:
            new = merge(old, args.only, args.replace)
        except ValueError as exc:
            parser.error(str(exc))
    table.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
    print(f"wrote {table}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
