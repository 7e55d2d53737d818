"""Every public name in ``src/affinecaps`` is used by the package or its benchmark.

A public module-level name counts as used when a name or an attribute in
the package's code refers to it, or a name, an attribute or a string in
``perfbench/`` does (the tracer patches functions by name). Re-exports in
``__init__`` and references from tests do not count: a function that only
tests call is a reference implementation and lives in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "affinecaps"

# Public names allowed to have no reference yet, with the reason.
UNREFERENCED = {
    "collinear_witness_points": "ROADMAP item 6 has cert-verify build the three "
                                "collinear points of a refuting cone witness",
}


def _public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _references(tree: ast.Module, strings: bool) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_every_public_name_has_a_reference_outside_the_tests():
    defined, refs = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        defined.update((name, path.stem) for name in _public_definitions(tree))
        refs |= _references(tree, strings=False)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        refs |= _references(ast.parse(path.read_text()), strings=True)
    unreferenced = {name for name in defined if name not in refs}
    assert unreferenced == set(UNREFERENCED), sorted(
        f"{defined.get(name, '?')}.{name}" for name in unreferenced ^ set(UNREFERENCED))
