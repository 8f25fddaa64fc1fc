"""CSV tables: the one place artifacts and input extracts are framed.

A table is any number of '#' comment lines, one header row, then data rows.
Writers emit a single '# meta' line, the header and the rows, each ending in
'\\n', in UTF-8. Every artifact write replaces its target atomically: the
bytes go to '<name>.tmp' in the same directory, a suffix the manifest never
lists, and are renamed over the target only once complete, so a write that
fails part-way leaves the previous file in place. JSON artifacts are
written through write_json, with the same atomic replace.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

Rows = Iterator[tuple[int, list[str]]]


@contextmanager
def read_table(path: str | Path) -> Iterator[tuple[list[str], Rows]]:
    """Open a table and yield (header, rows); rows yields (line number, fields).

    '#' lines are skipped wherever they occur and blank lines yield no row.
    Line numbers are the file's own, 1-based (a quoted record spanning
    several lines gets its last), so a reject can point at its row. Rows
    are read lazily, one at a time. A file with no header row is
    a ValueError; a missing file is a FileNotFoundError.
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
        yield header, ((lineno, fields) for fields in reader if fields)


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
