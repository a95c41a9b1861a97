"""Selects the time-stepping backend at import.

This is the stepping kernel only: STOCHWAVE_BACKEND and backend_name
name it alone.  The estimators' squared fields are a separate,
element-wise computation with their own compiled loops and NumPy
fallback (_native), chosen without any setting at the first estimator
window.

The NumPy kernel (_stepper_np) is the only backend that ships: the
Cython kernel was removed because it encoded an older grouping of the
update and, if built, would have disagreed with NumPy in the last bits.
A compiled kernel must reproduce _stepper_np's weight form bit for bit;
it can be built and loaded the way _native builds and loads the fields.

STOCHWAVE_BACKEND=numpy (or unset) selects the NumPy kernel.  Any other
value is refused without failing the import: backend_name is then None,
backend_error holds the refusal and step_paths raises it on every call,
so a library call that steps raises, and the command line reports the
refusal as a configuration error before it does anything.  The refusal
is an ImportError for STOCHWAVE_BACKEND=cython, since no compiled kernel
exists and a request for one must not silently run another, and a
ValueError for any other value.
"""

from __future__ import annotations

import os

from . import _stepper_np


def _choose(want: str):
    if want in ("", "numpy"):
        return _stepper_np.step_paths
    if want == "cython":
        raise ImportError(
            f"unknown STOCHWAVE_BACKEND {want!r}: no compiled stepper ships "
            "with stochwave; unset it or use 'numpy'"
        )
    raise ValueError(f"unknown STOCHWAVE_BACKEND {want!r}; use 'numpy'")


def _refused(*args):
    """step_paths of a refused backend: raises backend_error."""
    raise backend_error.with_traceback(None)


try:
    step_paths = _choose(
        os.environ.get("STOCHWAVE_BACKEND", "").strip().lower()
    )
    backend_name, backend_error = "numpy", None
except (ImportError, ValueError) as exc:
    step_paths, backend_name, backend_error = _refused, None, exc
