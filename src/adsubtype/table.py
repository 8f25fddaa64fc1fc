"""CSV tables: the one place artifacts and input extracts are read and written.

A table is any number of '#' comment lines, one header row, then data rows;
after the header every line is data, so a row whose first field starts with
'#' is a row like any other. Every reader checks a table through
read_row_blocks: its stripped header must begin with the columns the reader
declares (more may follow), and every data row must have the header's field
count. csv.reader runs over the open file from the header line on, and the
rows come out in blocks of at most ROW_BLOCK, so a long extract never has
all its rows in memory at once; read_table joins a small table's blocks
into one. A row's line number is the reader's position plus the comment
lines before the header, so no per-row layer sits between them. A leading
UTF-8 byte-order mark, as spreadsheet "CSV UTF-8" exports write, is
dropped. Fields are returned unstripped. A 0/1 feature table is read in
blocks of a fixed number of bytes, each line split into its key and its
cells, so no line list or copy of the file is held (read_binary_table),
and written from one rendered block (write_binary_table). Writers emit one
'# meta' line, the header and the rows as LF-terminated UTF-8, and replace
the target atomically through '<name>.tmp' (a suffix the manifest never
lists), so a write that fails part-way leaves the previous file in place;
write_json does the same for JSON artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class RejectedRow:
    """A data row refused with its reason; file is the table file's name."""

    file: str
    line: int
    reason: str


@dataclass(frozen=True)
class Table:
    """A table's stripped header and its data rows, each with the header's field count.

    rows may be one block of the table's rows (read_row_blocks). lines[i] is
    the file's own 1-based number of rows[i]'s line (a quoted record
    spanning several lines gets its last).
    """

    header: list[str]
    rows: list[list[str]]
    lines: list[int]


# Rows per block that read_row_blocks yields: a block's row lists are a few MB
# of Python objects, however long the table.
ROW_BLOCK = 16384


def read_row_blocks(
    path: str | Path, columns: Sequence[str], rejects: list[RejectedRow] | None
) -> Iterator[Table]:
    """A table whose header, after any '#' lines, begins with columns, in blocks of rows.

    Each block holds the next at most ROW_BLOCK data rows in file order, and
    the last block (there is always one) may be empty. The file is read as
    UTF-8 with a leading byte-order mark dropped. A missing header row, or one
    not beginning with columns, is a ValueError. A row whose field count
    differs from the header's is a ValueError naming the file and line or,
    given rejects, is appended there and skipped. Blank lines give no row.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        comments = 0
        for line in fh:
            if not line.startswith("#"):
                break
            comments += 1
        else:
            raise ValueError(f"{path}: empty file, no header row")
        reader = csv.reader(chain([line], fh))  # from the header line on
        header = [h.strip() for h in next(reader)]
        if header[: len(columns)] != list(columns):
            raise ValueError(f"{path}: bad header {header}, expected it to begin {list(columns)}")
        width = len(header)
        rows: list[list[str]] = []
        numbers: list[int] = []
        for fields in reader:
            if len(fields) == width:
                rows.append(fields)
                numbers.append(comments + reader.line_num)
                if len(rows) == ROW_BLOCK:
                    yield Table(header, rows, numbers)
                    rows, numbers = [], []
            elif fields:
                lineno = comments + reader.line_num
                problem = f"{len(fields)} fields, header has {width}"
                if rejects is None:
                    raise ValueError(f"{path}: line {lineno}: {problem}")
                rejects.append(RejectedRow(Path(path).name, lineno, problem))
        yield Table(header, rows, numbers)


def read_table(path: str | Path, columns: Sequence[str]) -> Table:
    """The whole table read_row_blocks reads, as one Table; a ragged row is a ValueError."""
    blocks = list(read_row_blocks(path, columns, None))
    rows = [row for block in blocks for row in block.rows]
    return Table(blocks[0].header, rows, [n for block in blocks for n in block.lines])


def int_field(path: str | Path, lineno: int, column: str, text: str) -> int:
    """int(text), or a ValueError naming the file, line and column."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: {column} {text!r} is not an integer") from None


# A binary table row is its key, then ",0" or ",1" per cell, then LF.
_COMMA, _ZERO = b",0"
# A key or header holding one of these may be quoted, may not be one csv
# field, or (CR) ends a line for the row reader; such a table is read row by
# row through read_table.
_UNSAFE = frozenset('",\r\0')
# Bytes per block in which read_binary_table reads a table's data lines: a
# block, its lines and their cells stay near 1.5 MB however long the table.
BINARY_BLOCK = 1 << 18


def read_binary_table(path: str | Path, key: str) -> tuple[list[str], list[str], np.ndarray]:
    """(header, keys, values) of a 0/1 feature table whose first column is key.

    values is a read-only uint8 matrix with one row per key. The file is read
    as bytes: after any '#' lines and a plain header, each line ends in ",0"
    or ",1" per cell and LF, and the rest is a plain key (it may start with
    '#'). The data lines are counted, then read again in blocks of
    BINARY_BLOCK bytes into values, so beside the keys and values only one
    block's lines and cells are held. A table that fails that check, or
    holds a CR, is read again row by row through read_table, which takes any
    quoting and names the first bad line: a row with the wrong field count,
    or a cell other than "0" or "1", is a ValueError.
    """
    with open(path, "rb") as fh:
        table = _read_binary_lines(fh, key)
    return table if table is not None else _read_binary_rows(path, key)


def _read_binary_lines(
    fh: BinaryIO, key: str
) -> tuple[list[str], list[str], np.ndarray] | None:
    """read_binary_table of the open file, or None where the table fails its check."""
    line = fh.readline()
    while line.startswith(b"#"):
        if b"\r" in line:  # the row reader also ends a line at CR
            return None
        line = fh.readline()
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        return None
    header = text[:-1].split(",")
    if not text.endswith("\n") or header[0].strip() != key:
        return None
    if not _UNSAFE.isdisjoint("".join(header)):
        return None
    start, width = fh.tell(), len(header) - 1
    count = sum(block.count(b"\n") for block in iter(lambda: fh.read(BINARY_BLOCK), b""))
    fh.seek(start)
    values = np.empty((count, width), dtype=np.uint8)
    keys: list[str] = []
    cut, tail = 2 * width, b""
    for block in iter(lambda: fh.read(BINARY_BLOCK), b""):
        lines = (tail + block).split(b"\n")
        tail = lines.pop()  # the start of the next block's first line
        if not all(line and len(line) >= cut for line in lines):  # a blank or short line
            return None
        try:
            part = [line[: len(line) - cut].decode("utf-8") for line in lines]
        except UnicodeDecodeError:
            return None
        if not _UNSAFE.isdisjoint("".join(part)):
            return None
        cells = np.frombuffer(b"".join([line[len(line) - cut :] for line in lines]), np.uint8)
        cells = cells.reshape(len(lines), width, 2)
        rows = values[len(keys) : len(keys) + len(lines)]
        np.subtract(cells[:, :, 1], np.uint8(_ZERO), out=rows)  # a byte below "0" wraps above 1
        if not ((cells[:, :, 0] == _COMMA).all() and (rows <= 1).all()):
            return None
        keys += part
    if tail:  # a last line with no LF
        return None
    values.setflags(write=False)
    return [cell.strip() for cell in header], keys, values


def _read_binary_rows(path: str | Path, key: str) -> tuple[list[str], list[str], np.ndarray]:
    """read_binary_table, checked row by row."""
    table = read_table(path, [key])
    width = len(table.header) - 1
    for lineno, fields in zip(table.lines, table.rows):
        row = "".join(fields[1:])
        # width characters, all 0 or 1, over width non-empty cells: one each
        if len(row) != width or row.strip("01") or "" in fields[1:]:
            raise ValueError(f"{path}: line {lineno}: feature cells must be 0 or 1")
    cells = "".join("".join(fields[1:]) for fields in table.rows).encode("ascii")
    values = np.frombuffer(cells, dtype=np.uint8).reshape(len(table.rows), width) - np.uint8(_ZERO)
    values.setflags(write=False)
    return table.header, [fields[0] for fields in table.rows], values


def render_table(header: Sequence[str], rows: Iterable[Sequence[Any]], meta: str) -> str:
    """'# meta' line, header and rows as LF-terminated CSV text."""
    buf = io.StringIO()
    buf.write(f"# {meta}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_table(
    path: str | Path,
    header: Sequence[str],
    rows: Iterable[Sequence[Any]],
    meta: str,
) -> None:
    """Atomically replace path with the rendered table."""
    write_text(path, render_table(header, rows, meta))


def write_binary_table(
    path: str | Path, header: Sequence[str], keys: Sequence[str], values: np.ndarray, meta: str
) -> None:
    """Atomically replace path with a 0/1 feature table: one row per key, then its values.

    The bytes equal write_table's of the rows [key, *values[i]]: each key is
    rendered by csv.writer, and the cells are one buffer of commas and
    digits. A value other than 0 or 1 is a ValueError.
    """
    values = np.asarray(values)
    if not ((values == 0) | (values == 1)).all():
        raise ValueError(f"{path}: feature values must be 0 or 1")
    n, width = values.shape
    cells = np.empty((n, width, 2), dtype=np.uint8)
    cells[:, :, 0] = _COMMA
    cells[:, :, 1] = values + np.uint8(_ZERO)
    block, step = memoryview(cells.reshape(-1)), 2 * width
    keys_buf = io.StringIO()
    writer = csv.writer(keys_buf, lineterminator="\n")
    # each key as csv.writer renders it among several fields: the row (key, "") less ",\n"
    lengths = [writer.writerow((k, "")) for k in keys]
    rendered, at = keys_buf.getvalue(), 0
    out = bytearray(render_table(header, [], meta).encode("utf-8"))
    for i, length in enumerate(lengths):
        out += rendered[at : at + length - 2].encode("utf-8")
        out += block[i * step : (i + 1) * step]
        out += b"\n"
        at += length
    # bytes as they are: a str copy for write_text, and its encoding, would be
    # two more table-sized buffers (6 MB more peak RSS at n=12,000)
    _replace(path, lambda tmp: tmp.write_bytes(out))


def write_text(path: str | Path, text: str) -> None:
    """Atomically replace path with text, UTF-8 encoded."""
    _replace(path, lambda tmp: tmp.write_text(text, encoding="utf-8", newline=""))


def _replace(path: str | Path, write: Callable[[Path], Any]) -> None:
    """Atomically replace path with the file write(tmp) writes.

    An OSError becomes RuntimeError("failed writing artifact ..."); on any
    failure the temp file is removed and the previous file is untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        raise RuntimeError(f"failed writing artifact {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, data: Any) -> None:
    """Atomically replace path with data as JSON: sorted keys, indent 2, final newline."""
    write_text(path, json.dumps(data, sort_keys=True, indent=2) + "\n")
