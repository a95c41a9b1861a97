"""Selects the time-stepping backend at import.

The NumPy kernel (_stepper_np) is the only backend that ships: the
Cython kernel was removed because it encoded an older grouping of the
update and, if built, would have disagreed with NumPy in the last bits.
A compiled kernel must reproduce _stepper_np's weight form bit for bit.
STOCHWAVE_BACKEND=numpy (or unset) selects the NumPy kernel;
STOCHWAVE_BACKEND=cython raises ImportError at import, since no
compiled kernel exists, so a request for one cannot silently run
another; any other value raises ValueError.
"""

from __future__ import annotations

import os

from . import _stepper_np


def _choose():
    want = os.environ.get("STOCHWAVE_BACKEND", "").strip().lower()
    if want in ("", "numpy"):
        return "numpy", _stepper_np.step_paths
    if want == "cython":
        raise ImportError(
            "STOCHWAVE_BACKEND=cython but no compiled stepper ships with "
            "stochwave; unset it or use 'numpy'"
        )
    raise ValueError(
        f"unknown STOCHWAVE_BACKEND value {want!r}; use 'numpy'"
    )


backend_name, step_paths = _choose()
