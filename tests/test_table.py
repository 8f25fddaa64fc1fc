"""Table layer: the one reader's header and field-count contract, the 0/1 block
reader and writer, and the atomic writer."""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

from adsubtype import table
from adsubtype.table import (
    RejectedRow,
    read_binary_table,
    read_row_blocks,
    read_table,
    write_binary_table,
    write_table,
    write_text,
)
from conftest import traced_peak

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adsubtype"


def test_read_table_keeps_file_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# meta\n# note\na,b\n1,2\n\n3,4\n")
    table = read_table(path, ["a", "b"])
    assert table.header == ["a", "b"]
    assert list(zip(table.lines, table.rows)) == [(4, ["1", "2"]), (6, ["3", "4"])]


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
            # after the header a '#' line is data: a row, or a short row refused
            "# m\n a , b ,c\n1,2,3\n#4, 5 ,6\n# end\n",
            True,
            [(3, ["1", "2", "3"]), (4, ["#4", " 5 ", "6"])],
            [RejectedRow("t.csv", 5, "1 fields, header has 3")],
            id="comments-mid-file",
        ),
        pytest.param(
            "a,b\n1\n2,3\n# c\n4,5,6\n",
            True,
            [(3, ["2", "3"])],
            [RejectedRow("t.csv", 2, "1 fields, header has 2"),
             RejectedRow("t.csv", 4, "1 fields, header has 2"),
             RejectedRow("t.csv", 5, "3 fields, header has 2")],
            id="rejects-collected",
        ),
        pytest.param('a,b\n"1,5",2\n', False, [(2, ["1,5", "2"])], [], id="quoted-comma"),
        pytest.param(
            'a,b\n"x\ny",2\n3,4\n', False, [(3, ["x\ny", "2"]), (4, ["3", "4"])], [],
            id="record-spans-two-lines",
        ),
        pytest.param(
            "a,b\r\n1,2\r\n3,4\r\n", False, [(2, ["1", "2"]), (3, ["3", "4"])], [], id="crlf",
        ),
        pytest.param(
            'a,b\n"p\nq",1\n#c,4\n2,3\n',
            False,
            [(3, ["p\nq", "1"]), (4, ["#c", "4"]), (5, ["2", "3"])],
            [],
            id="comment-after-quoted-record",
        ),
    ],
)
def test_read_table_contract(tmp_path, text, collect, outcome, rejected):
    """The header begins with the declared columns; each row has the header's field count.

    Header cells are stripped, data fields are not; a failure names the file
    and line, or with a rejects list the row is collected there instead.
    Checked on read_row_blocks, the reader under read_table.
    """
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    rejects = [] if collect else None

    def rows():
        blocks = read_row_blocks(path, ["a", "b"], rejects)
        return [pair for block in blocks for pair in zip(block.lines, block.rows)]

    if isinstance(outcome, str):
        with pytest.raises(ValueError) as exc:
            rows()
        assert str(exc.value) == f"{path}: {outcome}"
    else:
        assert rows() == outcome
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


BINARY_KEYS = ["P1", "a,b", 'q"x', "x\ny", "", " sp ", "été", "P,2", "#P3"]


def test_binary_table_bytes_equal_write_table_and_read_back(tmp_path):
    """The block writer renders what csv.writer would; the reader gives back what it wrote."""
    rng = np.random.default_rng(0)
    for keys in (BINARY_KEYS, [f"P{i:03d}" for i in range(50)] + ["#P"]):
        values = rng.integers(0, 2, size=(len(keys), 5), dtype=np.uint8)
        header = ["patient_id", "a", "b_s1", "c,d", "e", "f"]
        write_binary_table(tmp_path / "block.csv", header, keys, values, meta="m")
        rows = [[key, *row.tolist()] for key, row in zip(keys, values)]
        write_table(tmp_path / "rows.csv", header, rows, meta="m")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        got_header, got_keys, got_values = read_binary_table(tmp_path / "block.csv", "patient_id")
        assert (got_header, got_keys) == (header, keys)
        assert got_values.dtype == np.uint8 and np.array_equal(got_values, values)
        assert not got_values.flags.writeable
    for bad in (2, -1, 0.5):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            write_binary_table(tmp_path / "bad.csv", header, ["P"], np.full((1, 5), bad), meta="m")


BINARY_CASES = [
    pytest.param("# m\nk,a,b\nP1,0,1\nP2,1,1\n", id="plain"),
    pytest.param("k,a,b\r\nP1,0,1\r\nP2,1,1\r\n", id="crlf"),
    pytest.param("# m\rk,a\nk,1\nP1,0\n", id="cr-in-comment"),
    pytest.param("# m\nk,a,b\nP1,0,1\n\nP2,1,1\n", id="blank-line"),
    pytest.param("# m\nk,a,b\nP1,0,1\n#P2,1,1\n", id="comment-mid-file"),  # a '#' key
    pytest.param('k,a,b\nP1,"0",1\n"P,2",1,1\n', id="quoted"),
    pytest.param(" k , a ,b\nP1,0,1\nP2,1,1", id="padded-header-no-final-lf"),
    pytest.param("k,a,b\né,0,1\n,1,0\n", id="non-ascii-and-empty-key"),
    pytest.param("k\nP1\nP2\n", id="keys-only"),
    pytest.param("k,a\n", id="no-rows"),
]


@pytest.mark.parametrize("text", BINARY_CASES)
def test_binary_table_reads_what_the_row_reader_reads(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    table = read_table(path, ["k"])
    header, keys, values = read_binary_table(path, "k")
    assert header == table.header
    assert keys == [fields[0] for fields in table.rows]
    assert values.tolist() == [[int(cell) for cell in fields[1:]] for fields in table.rows]
    assert values.shape == (len(table.rows), len(table.header) - 1)


@pytest.mark.parametrize("text", BINARY_CASES)
def test_binary_table_reads_across_block_ends(tmp_path, monkeypatch, text):
    """With 5-byte blocks, most lines span several blocks."""
    monkeypatch.setattr(table, "BINARY_BLOCK", 5)
    test_binary_table_reads_what_the_row_reader_reads(tmp_path, text)


def test_plain_binary_table_is_read_without_the_row_reader(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    keys = [f"P{i}" for i in range(20)] + ["été", "", "#P"]
    write_binary_table(path, ["k", "a", "b"], keys, np.eye(23, 2, dtype=np.uint8), meta="m")

    def refuse(*args, **kwargs):
        raise AssertionError("read row by row")

    monkeypatch.setattr(table, "read_table", refuse)
    header, got, values = read_binary_table(path, "k")
    assert (header, got) == (["k", "a", "b"], keys)
    assert np.array_equal(values, np.eye(23, 2))


def test_plain_binary_table_is_read_in_small_blocks_without_the_row_reader(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(table, "BINARY_BLOCK", 5)
    test_plain_binary_table_is_read_without_the_row_reader(tmp_path, monkeypatch)


def test_binary_table_read_holds_at_most_four_times_the_file(tmp_path):
    path = tmp_path / "t.csv"
    keys = [f"P{i:05d}" for i in range(2000)]
    values = np.random.default_rng(0).integers(0, 2, size=(2000, 240), dtype=np.uint8)
    header = ["patient_id", *(f"{j}.{j % 7}_s{j % 6 + 1}" for j in range(240))]
    write_binary_table(path, header, keys, values, meta="m")
    (got_header, got_keys, got_values), peak = traced_peak(read_binary_table, path, "patient_id")
    assert (got_header, got_keys) == (header, keys) and np.array_equal(got_values, values)
    assert peak <= 4 * path.stat().st_size


def test_binary_table_read_holds_its_result_and_a_few_blocks(tmp_path):
    """At about 12,000 x 240 cells the read holds no line list and no copy of the file."""
    n, width = 12_000, 240
    path = tmp_path / "t.csv"
    keys = [f"P{i:06d}" for i in range(n)]
    values = np.random.default_rng(1).integers(0, 2, size=(n, width), dtype=np.uint8)
    header = ["patient_id", *(f"{j // 8}.1_s{j % 8 + 1}" for j in range(width))]
    write_binary_table(path, header, keys, values, meta="m")
    (_, got_keys, got_values), peak = traced_peak(read_binary_table, path, "patient_id")
    assert got_keys == keys and np.array_equal(got_values, values)
    result = got_values.nbytes + sys.getsizeof(got_keys) + sum(map(sys.getsizeof, got_keys))
    # a block, its copy after the carried line, its lines, their cells joined and two masks
    assert peak <= result + 6 * table.BINARY_BLOCK
    assert 6 * table.BINARY_BLOCK < path.stat().st_size // 3
