"""Golden CLI runs: every case of tests/golden.json, run again, gives the
recorded exit code, stdout, stderr and artifact bytes (tests/golden.py
says how the table is made and regenerated)."""

import json

import numpy as np
import pytest

import golden

TABLE = json.loads(golden.TABLE.read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    assert sorted(TABLE["runs"]) == sorted(map(golden.case_id, golden.CASES))


@pytest.mark.parametrize("case", golden.CASES, ids=golden.case_id)
def test_golden_run(case, tmp_path):
    got = golden.run_case(case, tmp_path)
    want = TABLE["runs"][golden.case_id(case)]
    assert got == want, (
        f"{golden.case_id(case)} differs from tests/golden.json, made with "
        f"NumPy {TABLE['numpy']}; this is NumPy {np.__version__}"
    )
