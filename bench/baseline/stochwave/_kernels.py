"""Selects the time-stepping backend at import.

The compiled extension is preferred when present; the NumPy kernel is
the fallback.  Both honor the same contract and produce bitwise-equal
trajectories (see _stepper_np).  Set STOCHWAVE_BACKEND=numpy or
=cython to force a choice; forcing cython without the built extension
raises at import so misconfiguration cannot silently degrade.
"""

from __future__ import annotations

import os

from . import _stepper_np

try:
    from . import _stepper as _ext
except ImportError:
    _ext = None


def _choose():
    want = os.environ.get("STOCHWAVE_BACKEND", "").strip().lower()
    if want == "numpy":
        return "numpy", _stepper_np.step_paths
    if want == "cython":
        if _ext is None:
            raise ImportError(
                "STOCHWAVE_BACKEND=cython but the compiled stepper "
                "extension is not built"
            )
        return "cython", _ext.step_paths
    if want:
        raise ValueError(
            f"unknown STOCHWAVE_BACKEND value {want!r}; "
            "use 'numpy' or 'cython'"
        )
    if _ext is not None:
        return "cython", _ext.step_paths
    return "numpy", _stepper_np.step_paths


backend_name, step_paths = _choose()
