"""No test-only code: every def and class in the package has a caller.

A definition counts as used when its name is referenced (as a name, an
attribute or an import) somewhere in the package or in the acceptance
criteria, which are the oracles the package is held to. Dunder methods are
called by Python itself and are exempt. Read as source only, with `ast`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adsubtype"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def _references(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_definition_is_referenced_outside_the_unit_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.rglob("*.py")}
    referenced = set().union(*map(_references, trees.values()))
    referenced |= _references(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    unreferenced = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced
    ]
    assert len(trees) >= 10
    assert unreferenced == []
