"""Table layer: the one reader's header and field-count contract, and the atomic writer."""

import ast
from pathlib import Path

import pytest

from adsubtype.table import RejectedRow, read_table, write_table, write_text

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adsubtype"


def test_read_table_keeps_file_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# meta\na,b\n1,2\n\n# note\n3,4\n")
    with read_table(path, ["a", "b"]) as (header, rows):
        assert header == ["a", "b"]
        assert list(rows) == [(3, ["1", "2"]), (6, ["3", "4"])]


@pytest.mark.parametrize(
    "text, collect, outcome, rejected",
    [
        pytest.param(
            "# m\nb,a\n1,2\n", False, "bad header ['b', 'a'], expected it to begin ['a', 'b']", [],
            id="refused-header",
        ),
        pytest.param("a,b\n1,2\n3\n", False, "line 3: 1 fields, header has 2", [], id="short-row"),
        pytest.param("a,b\n1,2,3\n", False, "line 2: 3 fields, header has 2", [], id="long-row"),
        pytest.param(
            "# m\n a , b ,c\n1,2,3\n# note\n4, 5 ,6\n# end\n",
            False,
            [(3, ["1", "2", "3"]), (5, ["4", " 5 ", "6"])],
            [],
            id="comments-mid-file",
        ),
        pytest.param(
            "a,b\n1\n2,3\n# c\n4,5,6\n",
            True,
            [(3, ["2", "3"])],
            [RejectedRow("t.csv", 2, "1 fields, header has 2"),
             RejectedRow("t.csv", 5, "3 fields, header has 2")],
            id="rejects-collected",
        ),
    ],
)
def test_read_table_contract(tmp_path, text, collect, outcome, rejected):
    """The header begins with the declared columns; each row has the header's field count.

    Header cells are stripped, data fields are not; a failure names the file
    and line, or with a rejects list the row is collected there instead.
    """
    path = tmp_path / "t.csv"
    path.write_text(text)
    rejects = [] if collect else None
    if isinstance(outcome, str):
        with pytest.raises(ValueError) as exc:
            with read_table(path, ["a", "b"], rejects) as (_, rows):
                list(rows)
        assert str(exc.value) == f"{path}: {outcome}"
    else:
        with read_table(path, ["a", "b"], rejects) as (_, rows):
            assert list(rows) == outcome
        assert (rejects or []) == rejected


def test_only_the_table_module_imports_csv():
    """CSV framing lives in table.py alone; every other module reads through read_table."""
    importers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "csv" for m in modules):
                importers.append(path.relative_to(PACKAGE).as_posix())
    assert importers == ["table.py"]


def test_failed_write_leaves_previous_file(tmp_path):
    path = tmp_path / "elbow.csv"
    write_table(path, ["k", "sse"], [[1, "2.0"]], meta="m")
    before = path.read_bytes()
    assert before == b"# m\nk,sse\n1,2.0\n"

    def rows():
        yield [2, "1.0"]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_table(path, ["k", "sse"], rows(), meta="m")
    # fails while encoding, after the temp file is open
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "k,sse\n" * 1000 + "\ud800\n")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["elbow.csv"]
