"""CSV tables: the one place artifacts and input extracts are read and written.

A table is any number of '#' comment lines, one header row, then data rows.
read_table alone checks a table: its stripped header must begin with the
columns the reader declares (more may follow), and every data row must have
the header's field count. Fields are returned unstripped. Writers emit one
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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

Rows = Iterator[tuple[int, list[str]]]


@dataclass(frozen=True)
class RejectedRow:
    """A data row refused with its reason; file is the table file's name."""

    file: str
    line: int
    reason: str


@contextmanager
def read_table(
    path: str | Path, columns: Sequence[str], rejects: list[RejectedRow] | None = None
) -> Iterator[tuple[list[str], Rows]]:
    """Open a table and yield (header, rows); rows yields (line number, fields) lazily.

    A missing header row, or one not beginning with columns, is a ValueError.
    A row whose field count differs from the header's is a ValueError naming
    the file and line or, given rejects, is appended there and skipped. '#'
    and blank lines yield no row; line numbers are the file's own, 1-based (a
    quoted record spanning several lines gets its last).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lineno = 0

        def data_lines() -> Iterator[str]:
            nonlocal lineno
            for lineno, line in enumerate(fh, start=1):
                if not line.startswith("#"):
                    yield line

        reader = csv.reader(data_lines())
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, no header row")
        header = [h.strip() for h in header]
        if header[: len(columns)] != list(columns):
            raise ValueError(f"{path}: bad header {header}, expected it to begin {list(columns)}")
        width = len(header)

        def rows() -> Rows:
            for fields in reader:
                if len(fields) == width:
                    yield lineno, fields
                elif fields:
                    problem = f"{len(fields)} fields, header has {width}"
                    if rejects is None:
                        raise ValueError(f"{path}: line {lineno}: {problem}")
                    rejects.append(RejectedRow(Path(path).name, lineno, problem))

        yield header, rows()


def int_field(path: str | Path, lineno: int, column: str, text: str) -> int:
    """int(text), or a ValueError naming the file, line and column."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: {column} {text!r} is not an integer") from None


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


def write_text(path: str | Path, text: str) -> None:
    """Atomically replace path with text, UTF-8 encoded.

    An OSError becomes RuntimeError("failed writing artifact ..."); on any
    failure the temp file is removed and the previous file is untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise RuntimeError(f"failed writing artifact {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, data: Any) -> None:
    """Atomically replace path with data as JSON: sorted keys, indent 2, final newline."""
    write_text(path, json.dumps(data, sort_keys=True, indent=2) + "\n")
