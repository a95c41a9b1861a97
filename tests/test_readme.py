"""README's code runs as printed: the minimal example executes against
the installed API and prints its martingale statistic."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def first_python_block_after(marker: str) -> str:
    text = README.read_text(encoding="utf-8")
    rest = text[text.index(marker):]
    match = re.search(r"```python\n(.*?)```", rest, re.S)
    assert match, f"no python block after {marker!r}"
    return match.group(1)


def test_minimal_example_runs():
    code = first_python_block_after("Minimal example")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})
    printed = out.getvalue().strip()
    assert re.fullmatch(
        r"MCStatistic\(mean=\S+, stderr=\S+, paths=256\)", printed
    ), printed
