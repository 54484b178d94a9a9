"""Source conventions that no tool in the test run enforces."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for folder in ("src/labmech", "tools", "tests", "demos")
                 for path in (ROOT / folder).glob("*.py"))

#: Longest line, in characters, of the package, the tools, the tests and
#: the demos.
MAX_COLUMNS = 100


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_lines_fit_in_100_columns(path):
    long = [f"{path.name}:{number}: {len(line)} columns"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > MAX_COLUMNS]
    assert not long
