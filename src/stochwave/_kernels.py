"""The time-stepping kernel: step_paths, named by backend_name.

The NumPy kernel (_stepper_np) is the reference and the only one that
ships, and no setting selects or refuses a kernel.  A compiled kernel,
once one ships, is chosen by the rule _native applies to the
estimators' squared fields: built and loaded on first use, checked bit
for bit against _stepper_np, and replaced by the NumPy kernel, with the
reason kept, when any of that fails.  backend_name names the kernel
that actually loaded.
"""

from __future__ import annotations

from . import _stepper_np

step_paths = _stepper_np.step_paths
backend_name = "numpy"
