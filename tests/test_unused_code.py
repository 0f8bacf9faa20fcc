"""Every definition in the package has a caller in the package.

A helper that only the tests use belongs with the tests.  This walks the
package's modules with ``ast`` and lists each top-level function or
class, and each method of a top-level class other than a dunder, that
nothing in the package reads outside the definition itself, by a name
or by an attribute of that name.  Names the package exports in
``__all__`` count as used, and so do the names in ``ALLOWED``, each with
its reason.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cspdigraph"

ALLOWED = {
    "interpretable_at_levels": "perfbench FUNCTIONS times it",
    "components": "perfbench FUNCTIONS times it",
    "boundary_subgraph": "perfbench FUNCTIONS times it",
    "classify": "perfbench FUNCTIONS times it",
    "gadget_size": "perfbench/workloads.py checks the gadget counts with it",
    "restrict_endomorphism": "the converse transfer (ROADMAP item 3) builds on it",
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


def unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    """'module:qualified name' of each definition nothing reads."""
    used: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    used.setdefault(node.id, []).append(node)
                elif isinstance(node, ast.Attribute):
                    used.setdefault(node.attr, []).append(node)
    exported = _exported(trees)
    out = []
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            own = set(map(id, ast.walk(node)))
            if name in exported or any(id(ref) not in own for ref in used.get(name, ())):
                continue
            out.append(f"{module}:{qualified}")
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
        "class Box:\n"
        "    def spare(self):\n"
        "        return self.spare\n"
        "\n"
        "def used():\n"
        "    return Box()\n"
        "\n"
        "__all__ = ['used']\n"
    )
    found = [entry for entry in unreferenced(trees) if entry.startswith("extra.py:")]
    assert found == ["extra.py:helper", "extra.py:Box.spare"]
