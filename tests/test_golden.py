"""Golden CLI runs: every case of tests/golden.json, run again, gives the
recorded exit code, stdout, stderr, output_dir and artifact bytes
(tests/golden.py says how the table is made and regenerated)."""

import json

import numpy as np
import pytest

import golden

TABLE = json.loads(golden.TABLE.read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    assert sorted(TABLE["runs"]) == sorted(golden.CASES)


@pytest.mark.parametrize("name", list(golden.CASES))
def test_golden_run(name, tmp_path):
    want = TABLE["runs"][name]
    if "dispatch" in want:
        host = golden.dispatch()
        assert host == want["dispatch"], (
            f"{name} was recorded with NumPy's float64 loops dispatched to "
            f"{want['dispatch']}; this host dispatches them to {host}, and "
            "their results differ between targets"
        )
    got = golden.run_case(name, tmp_path)
    assert got == want, (
        f"{name} differs from tests/golden.json, made with NumPy "
        f"{TABLE['numpy']}; this is NumPy {np.__version__}"
    )
