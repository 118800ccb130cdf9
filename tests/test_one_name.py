"""An element has one name: a reference resolves by its printed label,
through the index `linalg._label_index` builds. So no module of the package
but `linalg.py` holds a printed-label map of its own: a dict comprehension
{str(x): x for ...}, whose key is str of its own value."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "logcavity"
OTHERS = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "linalg.py"]


def printed_label_maps(source):
    """The line numbers of the dict comprehensions in source whose key is
    str called on exactly the expression that is the value."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.DictComp):
            continue
        key = node.key
        by_str = isinstance(key, ast.Call) and isinstance(key.func, ast.Name)
        by_str = by_str and key.func.id == "str" and not key.keywords
        if by_str and len(key.args) == 1 and ast.dump(key.args[0]) == ast.dump(node.value):
            lines.append(node.lineno)
    return sorted(lines)


def test_finds_each_printed_label_map():
    source = "\n".join(
        [
            "by_str = {str(lab): lab for lab in p.labels}",
            "index = {str(g): g for g in ground}",
            "names = {str(e.label): e.label for e in elements}",
            "keys = {str(k): v for k, v in value.items()}",  # str of a key
            "at = {str(g): i for i, g in enumerate(ground)}",
            "shown = {repr(g): g for g in ground}",
            "same = {g: g for g in ground}",
            "texts = [str(g) for g in ground]",
        ]
    )
    assert printed_label_maps(source) == [1, 2, 3]


@pytest.mark.parametrize("path", OTHERS, ids=lambda p: p.name)
def test_no_other_module_maps_printed_labels(path):
    assert printed_label_maps(path.read_text()) == []
