"""The benchmark harness's self-test (bench/selftest.py) runs its
workloads on tiny grids through the package, wraps the kernel and the
traced names, and checks the parity capture.  Running it here makes a
package change that breaks any of these fail the test suite, not only
a manual run of the harness.  It writes only under bench/.work."""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_selftest_reports_no_problem():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")], cwd=BENCH, env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: 0 problem(s)"
