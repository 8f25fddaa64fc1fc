"""The benchmark tracer wraps pipeline functions by name; keep those names alive.

perfbench/tracer.py is read as source only (never imported), so a rename in
the package fails here instead of in a traced benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced_entries():
    """(module, attr, counts expression) for each TRACED tuple in the tracer."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value, entry.elts[2])
                for entry in node.value.elts
            ]
    raise AssertionError(f"no TRACED list in {TRACER}")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"adsubtype.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def _argument_keys(counts: ast.expr) -> set[str]:
    """Argument names a counts lambda reads as a["name"]."""
    if not isinstance(counts, ast.Lambda):
        return set()
    bound = counts.args.args[0].arg
    return {
        node.slice.value
        for node in ast.walk(counts.body)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == bound
        and isinstance(node.slice, ast.Constant)
    }


def test_traced_names_resolve_and_keep_their_parameters():
    entries = _traced_entries()
    assert len(entries) >= 20
    checked = set()
    for module, attr, counts in entries:
        fn = _resolve(module, attr)
        assert callable(fn), f"{module}.{attr}"
        params = inspect.signature(fn).parameters
        for key in _argument_keys(counts):
            assert key in params, f"{module}.{attr} lost parameter {key!r}"
            checked.add((f"{module}.{attr}", key))
    assert {("cohort.save_cohort", "path"), ("phenotype.write_feature_csv", "path")} <= checked
