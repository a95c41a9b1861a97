"""Backend parity: the compiled stepper and the NumPy fallback must be
interchangeable bit for bit, including blow-up reporting."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochwave
from stochwave import _stepper_np
from stochwave.fields import random_field, random_slice, sine_slice, zero_field
from stochwave.grids import build_grid
from stochwave.solver import (
    ProblemData,
    SchemeCoefficients,
    _init_slices,
    _prepare_arrays,
    path_seed,
    sample_brownian,
)

_ext = pytest.importorskip(
    "stochwave._stepper", reason="compiled extension not built"
)


def make_inputs(M, N, T, paths, seed, unstable=False):
    grid = build_grid(M, N, T)
    amp = 1.0
    data = ProblemData(
        y0=random_slice(grid, seed, amp),
        y1=random_slice(grid, seed + 1, amp),
        g=random_field(grid, seed + 2, amp),
        f=random_field(grid, seed + 3, 0.5),
    )
    coeffs = SchemeCoefficients.constant(grid, a=-0.4, b=0.2, c=0.3, d=0.6)
    A, B, C, D, G, F = _prepare_arrays(data, coeffs, grid)
    dB = np.stack(
        [
            sample_brownian(N, grid.dt, path_seed(seed, k)).increments
            for k in range(paths)
        ]
    )
    Y = np.zeros((paths, N + 2, M + 2))
    _init_slices(Y, data, grid)
    return grid, (A, B, C, D, G, F), dB, Y


@pytest.mark.parametrize(
    "M,N,paths", [(4, 4, 1), (7, 33, 3), (31, 64, 8), (15, 225, 16)]
)
def test_bitwise_agreement(M, N, paths):
    grid, arrs, dB, Y0 = make_inputs(M, N, 1.0, paths, seed=M + N)
    Ya, Yb = Y0.copy(), Y0.copy()
    ra = _ext.step_paths(Ya, *arrs, dB, grid.dt, grid.dx)
    rb = _stepper_np.step_paths(Yb, *arrs, dB, grid.dt, grid.dx)
    assert ra == rb
    assert np.array_equal(Ya, Yb)


def test_blow_up_location_agreement():
    # dt >> dx: both backends must report the same first bad level
    grid = build_grid(63, 512, 128.0)
    data = ProblemData(
        y0=sine_slice(grid, 4, 1.0),
        y1=zero_field(grid),
        g=zero_field(grid, "primal", "primal"),
    )
    coeffs = SchemeCoefficients.constant(grid)
    A, B, C, D, G, F = _prepare_arrays(data, coeffs, grid)
    paths = 3
    dB = np.zeros((paths, grid.N + 1))
    Y0 = np.zeros((paths, grid.N + 2, grid.M + 2))
    _init_slices(Y0, data, grid)
    Ya, Yb = Y0.copy(), Y0.copy()
    ra = _ext.step_paths(Ya, A, B, C, D, G, F, dB, grid.dt, grid.dx)
    rb = _stepper_np.step_paths(Yb, A, B, C, D, G, F, dB, grid.dt, grid.dx)
    assert ra[0] and rb[0]
    assert ra == rb


def test_backend_env_selection():
    code = (
        "import stochwave; print(stochwave.backend_name)"
    )
    # the package under test, installed or not
    src = str(Path(stochwave.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    for forced in ("numpy", "cython"):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"STOCHWAVE_BACKEND": forced, "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": path},
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == forced
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"STOCHWAVE_BACKEND": "fortran", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": path},
    )
    assert out.returncode != 0
    assert "STOCHWAVE_BACKEND" in out.stderr


def test_default_backend_prefers_compiled():
    assert stochwave.backend_name == "cython"
