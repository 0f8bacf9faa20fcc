"""Every definition in the package has a caller in the package.

A helper that only the tests use belongs with the tests.  This walks the
package's modules with ``ast`` and lists each top-level function or
class, and each method of a top-level class other than a dunder, that
nothing in the package reads outside the definition itself.  A top-level
definition is read by its name or as ``<module>.<name>``; a method by an
attribute of its name.  So a function whose name is only ever read as
the attribute of some object, a field of the same name say, has no
caller.  Names the package exports in ``__all__`` count as used, and so
do the names in ``ALLOWED``, each with its reason.

Every defaulted parameter of a package function is also passed by some
call in the package, the tests or perfbench, or it is a knob nobody
turns: a call passes it by keyword, by position, or through ``*`` or
``**``.  A call is matched by the function's name, bare or as an
attribute, and a call of a class by its name counts for ``__init__``.
Parameters in ``ALLOWED_DEFAULTS`` count as passed, each with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cspdigraph"

ALLOWED = {
    "interpretable_at_levels": "perfbench FUNCTIONS times it",
    "components": "perfbench FUNCTIONS times it",
    "boundary_subgraph": "perfbench FUNCTIONS times it",
    "gamma": "perfbench FUNCTIONS times it",
    "classify": "perfbench FUNCTIONS times it",
    "gadget_size": "perfbench/workloads.py checks the gadget counts with it",
    "restrict_endomorphism": "the converse transfer, still open on the ROADMAP, builds on it",
}

ALLOWED_DEFAULTS: dict[str, str] = {}


def _trees(package: Path) -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each definition the check covers."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds) and not sub.name.startswith("__"):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _exported(trees: dict[str, ast.Module]) -> set[str]:
    names: set[str] = set()
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names.update(ast.literal_eval(node.value))
    return names


def _module_names(tree: ast.Module) -> dict[str, str]:
    """Local name -> module of each ``from . import module [as name]``."""
    return {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }


def unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """'module:qualified name' of each definition nothing reads."""
    names: dict[str, list[ast.AST]] = {}  # `name` reads
    attributes: dict[str, list[ast.AST]] = {}  # `x.name` reads
    qualified: dict[tuple[str, str], list[ast.AST]] = {}  # `module.name` reads
    for tree in trees.values():
        module_names = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    names.setdefault(node.id, []).append(node)
                elif isinstance(node, ast.Attribute):
                    attributes.setdefault(node.attr, []).append(node)
                    if isinstance(node.value, ast.Name) and node.value.id in module_names:
                        key = (module_names[node.value.id], node.attr)
                        qualified.setdefault(key, []).append(node)
    exported = _exported(trees)
    out = []
    for module, tree in trees.items():
        stem = Path(module).stem
        for dotted, name, node in _definitions(tree):
            if "." in dotted:
                refs = attributes.get(name, [])
            else:
                refs = names.get(name, []) + qualified.get((stem, name), [])
            own = set(map(id, ast.walk(node)))
            if name in exported or any(id(ref) not in own for ref in refs):
                continue
            out.append(f"{module}:{dotted}")
    return out


def test_every_definition_in_the_package_has_a_caller():
    bare = [entry.split(":", 1)[1] for entry in unreferenced(_trees(PACKAGE))]
    assert sorted(set(bare) - set(ALLOWED)) == []
    # an allowance outlives its reason once the name gains a caller
    assert sorted(set(ALLOWED) - set(bare)) == []


def test_a_new_unused_helper_is_caught():
    trees = _trees(PACKAGE)
    trees["extra.py"] = ast.parse(
        "def helper(n):\n"
        "    return helper(n - 1) if n else 0\n"
        "\n"
        "def tally():\n"
        "    return 0\n"
        "\n"
        "def qualified():\n"
        "    return 0\n"
        "\n"
        "class Box:\n"
        "    def spare(self):\n"
        "        return self.spare\n"
        "\n"
        "def used(box):\n"
        "    from . import extra as ex\n"
        "    return Box(), box.tally, ex.qualified\n"
        "\n"
        "__all__ = ['used']\n"
    )
    found = [entry for entry in unreferenced(trees) if entry.startswith("extra.py:")]
    # `box.tally` reads an attribute of some object, not the function
    assert found == ["extra.py:helper", "extra.py:tally", "extra.py:Box.spare"]


def _defaulted(tree: ast.Module, owner=None):
    """(called name, parameter, position) of each defaulted parameter of
    a function in the tree, position counted among a call's positional
    arguments (None for a keyword-only one); a method's first parameter
    is its object, and ``__init__`` is called by its class's name."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _defaulted(node, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args
            bound = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            called = owner if node.name == "__init__" else node.name
            start = len(params) - len(args.defaults)
            for i, param in enumerate(params[start:], start):
                yield called, param.arg, i - bound
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield called, param.arg, None
            yield from _defaulted(node)
        else:
            yield from _defaulted(node, owner)


def _passes(call: ast.Call, param: str, position) -> bool:
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def unpassed(package: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """'module:function.parameter' of each defaulted parameter of the
    package that no call in the package or the callers passes."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*package.values(), *callers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    out = []
    for module, tree in package.items():
        for called, param, position in _defaulted(tree):
            if not any(_passes(c, param, position) for c in calls.get(called, [])):
                out.append(f"{module}:{called}.{param}")
    return out


def _callers(*extra: ast.Module) -> list[ast.Module]:
    """The tests and perfbench, and any extra modules."""
    files = sorted(p for d in ("tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    return [ast.parse(p.read_text()) for p in files] + list(extra)


def test_every_defaulted_parameter_is_passed_somewhere():
    bare = [entry.split(":", 1)[1] for entry in unpassed(_trees(PACKAGE), _callers())]
    assert sorted(set(bare) - set(ALLOWED_DEFAULTS)) == []
    assert sorted(set(ALLOWED_DEFAULTS) - set(bare)) == []


def test_an_unpassed_default_is_caught():
    trees = _trees(PACKAGE)
    trees["extra.py"] = ast.parse(
        "def knob(a, b=1, *, c=2, d=3):\n"
        "    return a\n"
        "\n"
        "class Box:\n"
        "    def __init__(self, size=0, label=''):\n"
        "        self.size = size\n"
        "\n"
        "    def fill(self, amount=1, spill=False):\n"
        "        return amount\n"
        "\n"
        "    @staticmethod\n"
        "    def empty(level=0):\n"
        "        return level\n"
        "\n"
        "def spread(opts, *rest):\n"
        "    return knob(*rest), Box.empty(**opts)\n"
    )
    uses = ast.parse("knob(0, c=1)\nBox(4).fill(2)\nbox.empty(1)\nspread({})\n")
    found = [e for e in unpassed(trees, _callers(uses)) if e.startswith("extra.py:")]
    # `knob(*rest)` may pass b but never a keyword-only parameter
    assert found == ["extra.py:knob.d", "extra.py:Box.label", "extra.py:fill.spill"]
