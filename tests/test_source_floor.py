"""The sources keep to the oldest supported Python (``requires-python``
in pyproject.toml), whatever interpreter runs the tests."""

import ast
from pathlib import Path

FLOOR = (3, 10)
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ordspectra").rglob("*.py"))


def _int_bytes_defaults(tree):
    """(name, line) for each ``to_bytes`` call without both a length and a
    byte order, and each ``from_bytes`` call without a byte order: before
    3.11 neither argument has a default."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        keywords = {k.arg for k in node.keywords}
        if node.func.attr == "to_bytes":
            given = len(node.args) + len(keywords & {"length", "byteorder"})
        elif node.func.attr == "from_bytes":
            given = len(node.args) + ("byteorder" in keywords)
        else:
            continue
        if given < 2:
            yield node.func.attr, node.lineno


def test_sources_parse_at_floor():
    assert SOURCES
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)
        offenders += [(path.name, *call) for call in _int_bytes_defaults(tree)]
    assert offenders == []


def test_int_bytes_check_flags_defaults():
    tree = ast.parse("a.to_bytes(4)\nb.to_bytes(byteorder='big')\nint.from_bytes(d)\n"
                     "c.to_bytes(4, 'little')\nc.to_bytes(length=4, byteorder='big')\n"
                     "int.from_bytes(d, byteorder='little')\n")
    assert list(_int_bytes_defaults(tree)) == [("to_bytes", 1), ("to_bytes", 2),
                                               ("from_bytes", 3)]
