"""Backend selection: the NumPy kernel is the only backend that ships,
and STOCHWAVE_BACKEND can select it but nothing else."""

import os
import subprocess
import sys
from pathlib import Path

import stochwave
from stochwave import _stepper_np


def run_import(backend):
    code = "import stochwave; print(stochwave.backend_name)"
    # the package under test, installed or not
    src = str(Path(stochwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": path}
    if backend is not None:
        env["STOCHWAVE_BACKEND"] = backend
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


def test_default_backend_is_numpy():
    assert stochwave.backend_name == "numpy"
    assert stochwave._kernels.step_paths is _stepper_np.step_paths


def test_backend_env_selection():
    for forced in (None, "numpy", " NumPy "):
        out = run_import(forced)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "numpy"
    out = run_import("cython")
    assert out.returncode != 0
    assert "ImportError: STOCHWAVE_BACKEND=cython" in out.stderr
    out = run_import("fortran")
    assert out.returncode != 0
    assert "ValueError: unknown STOCHWAVE_BACKEND" in out.stderr
