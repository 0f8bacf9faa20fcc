"""The package keeps to the oldest Python that pyproject.toml admits.

The suite runs on whatever Python is installed, which may be newer than
the floor that ``requires-python`` promises, so nothing else would catch
3.11-only code.  Every module must parse as Python 3.10, no regular
expression literal may use what ``re`` gained in 3.11: possessive
quantifiers (``*+``, ``++``, ``?+``, ``}+``) and atomic groups
(``(?>...)``), and no module may use a standard library name newer than
3.10 (``NEWER_NAMES``), such as ``itertools.batched`` or ``tomllib``.
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


# standard library names added after 3.10, by module ("" for builtins);
# a module named with no names is new as a whole
NEWER_NAMES = {
    "": {"ExceptionGroup", "BaseExceptionGroup"},
    "tomllib": set(),
    "wsgiref.types": set(),
    "itertools": {"batched"},
    "typing": {
        "Self", "LiteralString", "Never", "assert_never", "assert_type",
        "reveal_type", "Required", "NotRequired", "TypeVarTuple", "Unpack",
        "dataclass_transform", "override", "TypeAliasType", "get_overloads",
        "clear_overloads", "ReadOnly", "TypeIs", "NoDefault",
    },
    "enum": {"StrEnum", "ReprEnum", "EnumCheck", "verify", "member", "nonmember"},
    "math": {"cbrt", "exp2", "sumprod", "fma"},
    "operator": {"call"},
    "contextlib": {"chdir"},
    "hashlib": {"file_digest"},
    "datetime": {"UTC"},
    "sys": {"exception", "monitoring"},
    "asyncio": {"TaskGroup", "Runner", "timeout", "timeout_at", "Barrier"},
    "warnings": {"deprecated"},
    "copy": {"replace"},
}


def newer_names(source: str, where: str = "<source>"):
    """``where:line: name`` of each use in source of a name in
    NEWER_NAMES: an import of the module or the name, an attribute of
    an imported module, or a builtin."""
    tree = ast.parse(source)
    modules = {}  # local name -> module it is bound to by an import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if NEWER_NAMES.get(alias.name) == set():
                    yield f"{where}:{node.lineno}: {alias.name}"
                # `import a.b` binds a, `import a.b as c` binds c to a.b
                bound = alias.name if alias.asname else alias.name.split(".")[0]
                modules[alias.asname or bound] = bound
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            new = NEWER_NAMES.get(node.module)
            if new == set():
                yield f"{where}:{node.lineno}: {node.module}"
            for alias in node.names:
                if new and alias.name in new:
                    yield f"{where}:{node.lineno}: {node.module}.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.attr in NEWER_NAMES.get(modules.get(node.value.id), ())
        ):
            yield f"{where}:{node.lineno}: {modules[node.value.id]}.{node.attr}"
        elif isinstance(node, ast.Name) and node.id in NEWER_NAMES[""]:
            yield f"{where}:{node.lineno}: {node.id}"


def test_the_name_check_finds_each_kind_of_use():
    uses = [
        "from itertools import batched",
        "import itertools\nitertools.batched([], 2)",
        "import itertools as it\nit.batched([], 2)",
        "from typing import Self",
        "import typing\nx: typing.Self",
        "import tomllib",
        "import wsgiref.types as w",
        "from tomllib import loads",
        "raise ExceptionGroup('x', [])",
    ]
    for source in uses:
        assert list(newer_names(source)), source
    fine = "import itertools\nfrom typing import Iterator\nitertools.pairwise([])\nbatched = 1"
    assert not list(newer_names(fine))


def test_no_module_uses_a_stdlib_name_newer_than_the_floor():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [use for path in modules for use in newer_names(path.read_text(), path.name)]
    assert not found, found
