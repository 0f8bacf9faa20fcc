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
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cspdigraph"

ALLOWED = {
    "interpretable_at_levels": "perfbench FUNCTIONS times it",
    "components": "perfbench FUNCTIONS times it",
    "boundary_subgraph": "perfbench FUNCTIONS times it",
    "gamma": "perfbench FUNCTIONS times it",
    "classify": "perfbench FUNCTIONS times it",
    "gadget_size": "perfbench/workloads.py checks the gadget counts with it",
    "restrict_endomorphism": "the converse transfer, still open on the ROADMAP, builds on it",
}


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
