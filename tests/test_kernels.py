"""Backend selection: the NumPy kernel is the only backend that ships,
and STOCHWAVE_BACKEND can select it but nothing else.  A refused value
does not fail the import: a library call that steps raises it, and the
command line ends with one exit-3 line."""

import os
import subprocess
import sys
from pathlib import Path

import stochwave
from stochwave import _stepper_np

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


def run_python(backend, *args):
    # the package under test, installed or not
    src = str(Path(stochwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    # no bytecode: the children leave no __pycache__ in the source tree
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": path,
           "PYTHONDONTWRITEBYTECODE": "1"}
    if backend is not None:
        env["STOCHWAVE_BACKEND"] = backend
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_default_backend_is_numpy():
    assert stochwave.backend_name == "numpy"
    assert stochwave._kernels.backend_error is None
    assert stochwave._kernels.step_paths is _stepper_np.step_paths


def test_backend_env_selection():
    for forced in (None, "numpy", " NumPy "):
        out = run_python(forced, "-c", STEP)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["numpy", "stepped"]


def test_refused_backend_raises_on_a_library_call():
    for forced, error in (
        ("cython", "ImportError: unknown STOCHWAVE_BACKEND 'cython': no "
                   "compiled stepper ships with stochwave"),
        ("fortran", "ValueError: unknown STOCHWAVE_BACKEND 'fortran'; use "
                    "'numpy'"),
    ):
        out = run_python(forced, "-c", STEP)
        assert out.returncode != 0
        # the import succeeds; the first kernel call raises
        assert out.stdout.split() == ["None"]
        assert error in out.stderr


def test_refused_backend_exits_3_with_one_line():
    for forced, message in (
        ("cython", "config error: unknown STOCHWAVE_BACKEND 'cython': no "
                   "compiled stepper ships with stochwave; unset it or use "
                   "'numpy'\n"),
        ("fortran", "config error: unknown STOCHWAVE_BACKEND 'fortran'; use "
                    "'numpy'\n"),
    ):
        for args in (["--help"], ["simulate", "--config", "missing.json"],
                     ["identities", "--config", "missing.json"]):
            out = run_python(forced, "-m", "stochwave.cli", *args)
            assert out.returncode == 3, (forced, args, out.stderr)
            assert out.stderr == message
            assert out.stdout == ""
