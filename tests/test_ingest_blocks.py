"""Ingest read in bounded row blocks.

parse_tables reads each extract through table.read_row_blocks. The block
size, a byte-order mark in front of a file and the comment lines before its
header must change nothing parse_tables returns, and the traced peak must
not grow with every row of the extracts.
"""

import codecs
from datetime import date

import pytest

from adsubtype import table
from adsubtype.cohort import (
    DIAGNOSES_COLUMNS,
    CodeSystem,
    CohortConfig,
    parse_tables,
    select_cohort,
)
from adsubtype.synth import demo_profiles, generate_cohort
from conftest import event_rows, traced_peak
from test_ingest_oracle import random_extracts

NAMES = ("patients", "diagnoses", "prescriptions", "deaths")


def _parsed(tables):
    """Everything parse_tables returns, as values that compare by content."""
    return (
        tables.patients,
        event_rows(tables.diagnoses),
        event_rows(tables.prescriptions),
        tables.deaths,
        tables.rejects,
    )


def _edge_extracts(seed):
    """random_extracts, with rows that meet the edges of 1-, 2- and 7-row blocks.

    Each table gets, near its start, quoted records that span two lines
    (one ragged), short rows and repeats of one patient, so that with blocks
    of 1, 2 and 7 rows some of each falls on either side of an edge.
    """
    patients, diagnoses, prescriptions, deaths = random_extracts(seed)
    edge = ["E1", "F", "05", "1950-01-01"]
    for at, row in [
        (0, edge), (1, edge), (2, ["P0", "F"]), (6, ["E\n2", "M", "03", "1940-02-02"]),
        (7, edge), (8, ["E\n3", "M"]), (13, ["P0", "F", "05"]), (14, edge),
    ]:
        patients.insert(at, row)
    for at, row in [
        (1, ["E1", "40\n1", "ICD9", "2015-01-01"]), (2, ["E1", "x\ny"]),
        (6, ["E1", "G30.9", "ICD10CM", "2016-01-01"]), (7, ["E1", "4019"]),
        (13, ["E\n2", "G30.9", "ICD10CM", "2016-03-03"]),
    ]:
        diagnoses.insert(at, row)
    for at, row in [(1, ["E1", "1\n00", "2016-02-02"]), (2, ["E1"]), (7, ["E1", "100"])]:
        prescriptions.insert(at, row)
    for at, row in [(0, ["E1", "2019-01-01"]), (1, ["E1", "2019-01-02"]), (2, ["E\n2"]),
                    (6, ["E1", "2019-01-03"]), (7, ["E\n3", "2019-01-04"])]:
        deaths.insert(at, row)
    return patients, diagnoses, prescriptions, deaths


@pytest.mark.parametrize("seed", range(3))
def test_any_block_size_reads_what_one_block_reads(table_writer, tiny_pmap, monkeypatch, seed):
    paths = table_writer(*_edge_extracts(seed))
    for path in paths:
        path.write_text("# adsubtype=test\n# note, with a comma\n" + path.read_text())
    whole = parse_tables(*paths)  # each table is one block at the default size
    expected = _parsed(whole)
    cohort = select_cohort(whole, CohortConfig(), tiny_pmap)
    assert "E\n2" in [p.patient_id for p in whole.patients]
    assert ("E1", ("40\n1", CodeSystem.ICD9), date(2015, 1, 1)) in event_rows(whole.diagnoses)
    assert {(r.file, r.line, r.reason) for r in whole.rejects} >= {
        ("patients.csv", 5, "duplicate patient_id 'E1'"),
        ("diagnoses.csv", 8, "2 fields, header has 4"),  # the ragged record's last line
        ("deaths.csv", 5, "duplicate patient_id 'E1'"),
    }
    for rows in (1, 2, 7):
        monkeypatch.setattr(table, "ROW_BLOCK", rows)
        blocks = list(table.read_row_blocks(paths[1], DIAGNOSES_COLUMNS, []))
        assert max(len(block.rows) for block in blocks) == rows
        tables = parse_tables(*paths)
        assert _parsed(tables) == expected
        assert select_cohort(tables, CohortConfig(), tiny_pmap) == cohort


@pytest.mark.parametrize("comment", ["", "# adsubtype=test\n"])
@pytest.mark.parametrize("name", NAMES)
def test_a_byte_order_mark_changes_nothing(table_writer, name, comment):
    """Spreadsheet "CSV UTF-8" exports start with EF BB BF; ingest reads past it."""
    paths = table_writer(*random_extracts(0))
    for path in paths:
        path.write_text(comment + path.read_text())
    expected = _parsed(parse_tables(*paths))
    path = paths[NAMES.index(name)]
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert _parsed(parse_tables(*paths)) == expected


def test_parse_tables_peak_is_bounded_by_the_extracts(tmp_path):
    """At n=4000 the diagnoses are five blocks, and the traced peak stays under 9x the bytes.

    Read as whole tables, every row at once, the peak was 13.8x the extracts'
    bytes at this size; in blocks it is about 7x, and 3.3x at n=12,000.
    """
    data = generate_cohort(demo_profiles(), 4000, 0, config=CohortConfig())
    data.write_tables(tmp_path, meta="adsubtype=test")
    paths = [tmp_path / f"{name}.csv" for name in NAMES]
    size = sum(path.stat().st_size for path in paths)
    assert len(data.diagnoses) > 4 * table.ROW_BLOCK
    tables, peak = traced_peak(parse_tables, *paths)
    assert len(tables.diagnoses) == len(data.diagnoses) and not tables.rejects
    assert peak < 9 * size
