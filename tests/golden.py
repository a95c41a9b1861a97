"""Golden CLI runs: the cases of tests/golden.json and the code that
runs them.

Each case is one subcommand on one of the benchmark's workload configs
at its tiny size (bench/workloads.py, `config(name, 0, tiny=True)`),
run in-process through click's CliRunner.  Its record holds the exit
code, stdout, stderr and the SHA-256 of every file written, manifest.json
included.  Only the subcommands whose artifacts do not depend on the
host's SIMD dispatch are covered; carleman and weights-order are not.

Regenerate the table, after a declared artifact change, with

    PYTHONPATH=src python tests/golden.py

and list every changed entry in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from types import ModuleType

import numpy as np
from click.testing import CliRunner

from stochwave.cli import main

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("golden.json")
WORKLOADS = ROOT / "bench" / "workloads.py"

# (subcommand, workload whose tiny config it runs)
CASES = [
    ("simulate", "simulate-fine"),
    ("stability", "stability-fine"),
    ("martingale", "mc-wide"),
    ("identities", "simulate-fine"),
    ("identities", "mc-wide"),
]


def case_id(case) -> str:
    return "{}-{}".format(*case)


def _workloads() -> ModuleType:
    # executed from source, so that nothing is written under bench/
    mod = ModuleType("bench_workloads")
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS),
                 "exec"), mod.__dict__)
    return mod


def run_case(case, workdir: Path) -> dict:
    """Run one case with its config and output under workdir."""
    subcommand, workload = case
    cfg = workdir / "config.json"
    config = _workloads().config(workload, 0, tiny=True)
    cfg.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    out = workdir / "out"
    res = CliRunner().invoke(main, [subcommand, "--config", str(cfg),
                                    "--output-dir", str(out)])
    if res.exception is not None and not isinstance(res.exception,
                                                    SystemExit):
        raise res.exception
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {
        "exit_code": res.exit_code,
        "stdout": res.stdout,
        "stderr": res.stderr,
        "sha256": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in files},
    }


def generate() -> dict:
    runs = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            runs[case_id(case)] = run_case(case, Path(tmp))
    return {"numpy": np.__version__, "runs": runs}


if __name__ == "__main__":
    TABLE.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
    print(f"wrote {TABLE}", file=sys.stderr)
