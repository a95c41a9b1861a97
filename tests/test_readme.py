"""README's code runs as printed: the minimal example executes against
the installed API and prints its martingale statistic, and the example
config of the schema section passes the config parser."""

import contextlib
import io
import re
from pathlib import Path

from stochwave.cli import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def first_block_after(marker: str, language: str = "python") -> str:
    text = README.read_text(encoding="utf-8")
    rest = text[text.index(marker):]
    match = re.search(rf"```{language}\n(.*?)```", rest, re.S)
    assert match, f"no {language} block after {marker!r}"
    return match.group(1)


def test_minimal_example_runs():
    code = first_block_after("Minimal example")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})
    printed = out.getvalue().strip()
    assert re.fullmatch(
        r"MCStatistic\(mean=\S+, stderr=\S+, paths=256\)", printed
    ), printed


def test_schema_example_parses(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(first_block_after("Config schema", "json"), encoding="utf-8")
    assert parse_config(path).sweep["values"] == [2.0, 4.0, 8.0]
