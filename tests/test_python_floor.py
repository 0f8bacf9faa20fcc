"""The package keeps to the oldest Python that pyproject.toml admits.

The suite runs on whatever Python is installed, which may be newer than
the floor that ``requires-python`` promises, so nothing else would catch
3.11-only code.  Every module must parse as Python 3.10, and no regular
expression literal may use what ``re`` gained in 3.11: possessive
quantifiers (``*+``, ``++``, ``?+``, ``}+``) and atomic groups
(``(?>...)``).
"""

import ast
import re
from pathlib import Path

try:
    from re import _parser as sre_parse  # Python 3.11 and later
except ImportError:  # Python 3.10
    import sre_parse

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cspdigraph"
FLOOR = (3, 10)
NEW_IN_3_11 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def test_the_floor_is_what_pyproject_promises():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


def test_every_module_parses_as_the_floor_version():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)


def _regex_literals():
    """(where, pattern) of each string literal passed first to a call of
    ``re.<function>`` in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                yield f"{path.name}:{node.lineno}", node.args[0].value


def _opcode_names(node):
    """The name of every opcode in a parsed pattern, nested ones included."""
    if isinstance(node, int) and hasattr(node, "name"):
        yield node.name
    elif isinstance(node, sre_parse.SubPattern):
        yield from _opcode_names(node.data)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcode_names(item)


def test_no_regex_literal_needs_3_11():
    literals = list(_regex_literals())
    assert literals  # the digraph reader's bulk pattern at least
    for where, pattern in literals:
        try:
            parsed = sre_parse.parse(pattern)
        except re.error as exc:  # what 3.11 added does not parse before it
            raise AssertionError(f"{where}: {pattern!r} does not parse here: {exc}")
        assert not NEW_IN_3_11 & set(_opcode_names(parsed)), f"{where}: {pattern!r}"
