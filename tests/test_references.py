"""No test-only code: every def, class and dataclass field in the package has a reader.

A definition counts as used when its name is referenced (as a name, an
attribute or an import) somewhere in the package or in the acceptance
criteria, which are the oracles the package is held to. A method or property
is reached through an object, so only an attribute or an import counts for
it: a local variable of the same name does not. Dunder methods are called by
Python itself and are exempt. A dataclass field counts as read when an
attribute of its name is loaded; writing it, or passing it to the
constructor, does not. Names are matched without types, so a field shares
its reader with every same-named attribute. Read as source only, with `ast`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adsubtype"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# Dataclass fields kept although nothing above reads them, with the reason.
UNREAD_FIELDS = {
    "ContingencyTable.row_labels": "criterion 5 constructs the table with its labels",
    "ContingencyTable.col_labels": "criterion 5 constructs the table with its labels",
    "RawTables.rejects": "perfbench/tracer.py counts it as cohort.parse_tables.rejects",
}


def _references(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(bare names, attribute and imported names) referenced in tree."""
    bare, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            attributes.add(node.name.rsplit(".", 1)[-1])
    return bare, attributes


def test_every_definition_is_referenced_outside_the_unit_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.rglob("*.py")}
    bare, attributes = set(), set()
    for tree in [*trees.values(), ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))]:
        tree_bare, tree_attributes = _references(tree)
        bare |= tree_bare
        attributes |= tree_attributes
    # definitions in a class body, reached as attributes of the class or an instance
    members = {
        id(node)
        for tree in trees.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
    }
    unreferenced = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in attributes
        and (id(node) in members or node.name not in bare)
    ]
    assert len(trees) >= 10
    assert unreferenced == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read_outside_the_unit_tests():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.rglob("*.py")]
    loaded = {
        node.attr
        for tree in [*trees, ast.parse(ACCEPTANCE.read_text(encoding="utf-8"))]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (cls.name, node.target.id)
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    assert len(fields) >= 40
    unread = sorted(f"{cls}.{name}" for cls, name in fields if name not in loaded)
    assert unread == sorted(UNREAD_FIELDS)
