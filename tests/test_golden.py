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


def test_only_merges_named_cases(tmp_path, capsys):
    """--only runs the named cases into a copy of the table: it adds a
    missing one as recorded, and refuses an unknown name and, without
    --replace, a recorded one, leaving the table as it was."""
    table = tmp_path / "golden.json"
    want = {**TABLE, "numpy": np.__version__}
    name = "refused-grid-M-missing"
    runs = {key: run for key, run in want["runs"].items() if key != name}
    table.write_text(json.dumps({**want, "runs": runs}), encoding="utf-8")
    assert golden.regenerate(["--only", name], table=table) == 0
    assert json.loads(table.read_text(encoding="utf-8")) == want
    merged = table.read_bytes()
    for argv, message in (([name], "already recorded: " + name),
                          (["no-such-case"], "unknown case(s): no-such-case")):
        with pytest.raises(SystemExit):
            golden.regenerate(["--only", *argv], table=table)
        assert message in capsys.readouterr().err
        assert table.read_bytes() == merged
    assert golden.regenerate(["--only", name, "--replace"], table=table) == 0
    assert table.read_bytes() == merged
