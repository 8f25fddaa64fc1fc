"""Table layer: comment-skipping reader and atomic writer."""

import pytest

from adsubtype.table import read_table, write_table, write_text


def test_read_table_keeps_file_line_numbers(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# meta\na,b\n1,2\n\n# note\n3,4\n")
    with read_table(path) as (header, rows):
        assert header == ["a", "b"]
        assert list(rows) == [(3, ["1", "2"]), (6, ["3", "4"])]


def test_failed_write_leaves_previous_file(tmp_path):
    path = tmp_path / "elbow.csv"
    write_table(path, ["k", "sse"], [[1, "2.0"]], meta="m")
    before = path.read_bytes()
    assert before == b"# m\nk,sse\n1,2.0\n"

    def rows():
        yield [2, "1.0"]
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_table(path, ["k", "sse"], rows())
    # fails while encoding, after the temp file is open
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "k,sse\n" * 1000 + "\ud800\n")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["elbow.csv"]
