"""No test-only code: every def, class, dataclass field and default in the package is used.

A definition counts as used when its name is referenced (as a name, an
attribute or an import) somewhere in the package or in the acceptance
criteria, which are the oracles the package is held to. A method or property
is reached through an object, so only an attribute or an import counts for
it: a local variable of the same name does not. Dunder methods are called by
Python itself and are exempt. A dataclass field counts as read when an
attribute of its name is loaded; writing it, or passing it to the
constructor, does not. A default of a parameter or dataclass field needs
a call that omits its argument and a call that passes one; the benchmark
harness in perfbench/ counts as a caller too. Names are matched without
types, so a field shares its reader with every same-named attribute, and a
call counts for every same-named definition. Read as source only, with `ast`.
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


# Defaults kept although every call above passes, or no call above omits,
# their argument, with the reason.
UNUSED_DEFAULTS = {
    "generate_cohort.phecode_map": "unit tests substitute a small phecode map",
    "generate_cohort.atc_map": "unit tests substitute a small ATC map",
}


def _defaults(tree: ast.AST) -> list[tuple[str, str, int | None]]:
    """(callee name, parameter, positional index or None) of each default in tree.

    A function's defaulted parameters and a dataclass's defaulted fields; a
    method's index skips self. Keyword-only parameters have no index.
    """
    found = []
    methods = {
        id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body
    }
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            positional = [*node.args.posonlyargs, *node.args.args]
            skip = 1 if id(node) in methods else 0
            first = len(positional) - len(node.args.defaults)
            found += [
                (node.name, arg.arg, index - skip)
                for index, arg in enumerate(positional)
                if index >= first
            ]
            found += [
                (node.name, arg.arg, None)
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            ]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [
                item
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            found += [
                (node.name, item.target.id, index)
                for index, item in enumerate(fields)
                if item.value is not None
            ]
    return found


def test_every_default_is_both_used_and_overridden_outside_the_unit_tests():
    """Each default has a caller that omits its argument and one that passes it.

    A default no caller passes is a constant in disguise; one every caller
    passes is a second copy of a value declared elsewhere. Calls are matched
    to definitions by the callee's name, as a name or an attribute; calls
    that spread `*args` or `**kwargs` are skipped.
    """
    defaults = [
        item
        for path in PACKAGE.rglob("*.py")
        for item in _defaults(ast.parse(path.read_text(encoding="utf-8")))
    ]
    callers = [*PACKAGE.rglob("*.py"), ACCEPTANCE, *(ROOT / "perfbench").rglob("*.py")]
    passed, omitted = set(), set()
    for path in callers:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                continue
            callee = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = {k.arg for k in call.keywords}
            for name, param, index in defaults:
                if name == callee:
                    given = param in keywords or (index is not None and index < len(call.args))
                    (passed if given else omitted).add(f"{name}.{param}")
    everything = {f"{name}.{param}" for name, param, _ in defaults}
    assert len(everything) >= 20
    checked = everything - set(UNUSED_DEFAULTS)
    problems = [
        *(f"{d}: no caller passes it; make it a constant" for d in sorted(checked - passed)),
        *(f"{d}: every caller passes it; drop the default" for d in sorted(checked - omitted)),
    ]
    assert not problems, "\n".join(problems)
    # an exception that no longer applies goes from the list
    assert [d for d in UNUSED_DEFAULTS if d in passed & omitted or d not in everything] == []
