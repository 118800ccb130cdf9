"""Every line of the package's modules fits in 88 columns."""

from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logcavity"
MAX_COLUMNS = 88


def long_lines(source):
    """The 1-based numbers of the lines over MAX_COLUMNS characters."""
    lines = source.splitlines()
    return [n for n, line in enumerate(lines, 1) if len(line) > MAX_COLUMNS]


def test_finds_a_long_line():
    source = "\n".join(["x = 1", "y = " + "1" * 84, "z = " + "1" * 85])
    assert long_lines(source) == [3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_line_over_88_columns(path):
    assert long_lines(path.read_text()) == []
