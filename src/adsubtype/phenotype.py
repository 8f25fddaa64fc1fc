"""Phecode mapping, phenotype vocabulary ranking, and binary feature matrices.

ICD codes are grouped into phenotypes via a phecode map; phenotypes are
ranked by distinct-patient prevalence across the pre-index timeslots; the
top survivors form the vocabulary whose aggregate (N x V) or temporal
(N x V*S) binary matrices feed the clustering stage.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .cohort import Cohort, CodeSystem, normalize_code
from .table import int_field, read_binary_table, read_table, write_binary_table, write_table

log = logging.getLogger(__name__)

AGGREGATE = "aggregate"
TEMPORAL = "temporal"


@dataclass(frozen=True)
class PhecodeMap:
    """Exact-match lookup from (normalized ICD code, system) to phecode."""

    entries: Mapping[tuple[str, CodeSystem], tuple[str, str]]

    def lookup(self, code: str, system: CodeSystem) -> str | None:
        hit = self.entries.get((normalize_code(code), system))
        return hit[0] if hit else None

    def names_by_phecode(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for code, name in self.entries.values():
            out.setdefault(code, name)
        return out

    def codes_for_phecode(self, phecode: str) -> list[tuple[str, CodeSystem]]:
        return sorted(
            (code, system)
            for (code, system), (pc, _) in self.entries.items()
            if pc == phecode
        )

    def __len__(self) -> int:
        return len(self.entries)


_SYSTEM_FLAGS = {"9": CodeSystem.ICD9, "10": CodeSystem.ICD10CM}
PHECODE_MAP_COLUMNS = ["icd_code", "system_flag", "phecode", "phenotype"]
# the vocabulary's leading columns; the written file adds patient_count
VOCABULARY_COLUMNS = ["rank", "phecode", "phenotype"]


def load_phecode_map(path: Path) -> PhecodeMap:
    """Load a phecode map CSV whose columns begin PHECODE_MAP_COLUMNS.

    system_flag is 9 or 10. Duplicate (code, system) rows mapping to
    conflicting phecodes are fatal; the error lists the offending rows.
    """
    entries: dict[tuple[str, CodeSystem], tuple[str, str]] = {}
    first_row: dict[tuple[str, CodeSystem], int] = {}
    conflicts: list[str] = []
    table = read_table(path, PHECODE_MAP_COLUMNS)
    for lineno, (icd, flag, phecode, name, *_) in zip(table.lines, table.rows):
        icd, flag = icd.strip(), flag.strip()
        if flag not in _SYSTEM_FLAGS:
            raise ValueError(
                f"{path}: line {lineno}: system_flag must be 9 or 10, got {flag!r}"
            )
        key = (normalize_code(icd), _SYSTEM_FLAGS[flag])
        value = (phecode.strip(), name.strip())
        if key in entries:
            if entries[key][0] != value[0]:
                conflicts.append(
                    f"({icd}, ICD{flag}) -> {entries[key][0]} at row "
                    f"{first_row[key]} vs {value[0]} at row {lineno}"
                )
            continue
        entries[key] = value
        first_row[key] = lineno
    if conflicts:
        raise ValueError(f"{path}: conflicting phecode mappings: " + "; ".join(conflicts))
    if not entries:
        log.warning("%s: phecode map is empty", path)
    return PhecodeMap(entries)


@dataclass(frozen=True)
class PhenotypeVocabulary:
    """Ranked phenotype list (most prevalent first) used as feature columns."""

    phecodes: tuple[tuple[str, str], ...]

    def __post_init__(self):
        codes = [code for code, _ in self.phecodes]
        if len(codes) != len(set(codes)):
            raise ValueError("vocabulary contains duplicate phecodes")

    def __len__(self) -> int:
        return len(self.phecodes)

    def codes(self) -> list[str]:
        return [code for code, _ in self.phecodes]

    def phecode_set(self) -> frozenset[str]:
        return frozenset(code for code, _ in self.phecodes)



def rank_phenotypes(
    cohort: Cohort,
    pmap: PhecodeMap,
    review_size: int,
    keep: int,
    exclusions: Iterable[str],
) -> tuple[PhenotypeVocabulary, list[tuple[str, str, int]]]:
    """Rank phecodes by distinct-patient prevalence and build the vocabulary.

    Counts the number of distinct patients carrying each phecode in any
    timeslot, emits the top review_size as a frequency table, removes the
    exclusion list (the mechanized stand-in for manual review), and keeps the
    first `keep` survivors. Ties break by phecode string ascending. The AD
    phecodes themselves (whatever the map sends the configured AD codes to)
    never enter the ranking.
    """
    ad_phecodes = {
        pmap.lookup(code, system)
        for code in cohort.config.ad_code_set
        for system in (CodeSystem.ICD9, CodeSystem.ICD10CM)
    } - {None}

    patients_by_phecode: dict[str, set[str]] = {}
    for p in cohort.patients:
        for _, phecode in p.cells:
            if phecode not in ad_phecodes:
                patients_by_phecode.setdefault(phecode, set()).add(p.patient_id)

    ranked = sorted(
        patients_by_phecode.items(), key=lambda kv: (-len(kv[1]), kv[0])
    )[:review_size]
    names = pmap.names_by_phecode()
    freq_table = [(code, names.get(code, ""), len(pids)) for code, pids in ranked]

    excl = frozenset(exclusions)
    survivors = [(code, name) for code, name, _ in freq_table if code not in excl][:keep]
    if len(survivors) < keep:
        raise ValueError(
            f"only {len(survivors)} distinct phecodes survive ranking; {keep} required"
        )
    return PhenotypeVocabulary(tuple(survivors)), freq_table


@dataclass
class FeatureMatrix:
    """Binary patient-by-condition matrix.

    Aggregate layout has one column per phecode; temporal layout has one
    column per (phecode, slot), phecode-major and slot-minor.
    """

    patient_ids: list[str]
    layout: str
    values: np.ndarray
    columns: list[tuple[str, int | None]]
    slot_count: int | None = None

    def column_labels(self) -> list[str]:
        return [
            code if slot is None else f"{code}_s{slot}" for code, slot in self.columns
        ]


def build_temporal_matrix(cohort: Cohort, vocabulary: PhenotypeVocabulary) -> FeatureMatrix:
    """N x (V*S) binary matrix: entry 1 iff the patient has the phecode in the slot."""
    codes = vocabulary.codes()
    col_of = {code: i for i, code in enumerate(codes)}
    s = cohort.config.slot_count
    pids = cohort.patient_ids()
    values = np.zeros((len(pids), len(codes) * s), dtype=np.uint8)
    for i, p in enumerate(cohort.patients):
        for slot, phecode in p.cells:
            j = col_of.get(phecode)
            if j is not None:
                values[i, j * s + (slot - 1)] = 1
    _assert_rows_nonzero(values, pids)
    columns = [(code, slot) for code in codes for slot in range(1, s + 1)]
    return FeatureMatrix(pids, TEMPORAL, values, columns, slot_count=s)


def build_aggregate_matrix(cohort: Cohort, vocabulary: PhenotypeVocabulary) -> FeatureMatrix:
    """N x V binary matrix: entry 1 iff the patient has the phecode in any slot."""
    codes = vocabulary.codes()
    col_of = {code: i for i, code in enumerate(codes)}
    pids = cohort.patient_ids()
    values = np.zeros((len(pids), len(codes)), dtype=np.uint8)
    for i, p in enumerate(cohort.patients):
        for _, phecode in p.cells:
            j = col_of.get(phecode)
            if j is not None:
                values[i, j] = 1
    _assert_rows_nonzero(values, pids)
    columns = [(code, None) for code in codes]
    return FeatureMatrix(pids, AGGREGATE, values, columns)


def aggregate_from_temporal(fm: FeatureMatrix) -> FeatureMatrix:
    """Slot-wise OR of a temporal matrix; equals the aggregate matrix exactly."""
    if fm.layout != TEMPORAL:
        raise ValueError(f"expected temporal layout, got {fm.layout}")
    s = fm.slot_count
    n, vs = fm.values.shape
    values = fm.values.reshape(n, vs // s, s).max(axis=2).astype(np.uint8)
    columns = [(code, None) for code, slot in fm.columns if slot == 1]
    return FeatureMatrix(fm.patient_ids, AGGREGATE, values, columns)


def _assert_rows_nonzero(values: np.ndarray, pids: list[str]) -> None:
    empty = np.flatnonzero(values.sum(axis=1) == 0)
    if empty.size:
        raise ValueError(
            f"feature matrix has all-zero rows (cohort criterion violated), e.g. patient "
            f"{pids[int(empty[0])]!r}"
        )


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def write_feature_csv(fm: FeatureMatrix, path: Path, meta: str) -> None:
    write_binary_table(path, ["patient_id"] + fm.column_labels(), fm.patient_ids, fm.values, meta)


def read_feature_csv(path: Path) -> FeatureMatrix:
    """Read a temporal features CSV; a cell other than "0" or "1" is a ValueError.

    So is a column after patient_id other than <phecode>_s<slot>, or one out
    of the phecode-major grid of slots 1..S that write_feature_csv writes (S
    is the column count over the phecode count); the error names the file
    and the first such column. The aggregate layout is never read back, only
    derived with aggregate_from_temporal. The values are read-only: one parse
    may serve several stages.
    """
    header, pids, values = read_binary_table(path, "patient_id")
    columns: list[tuple[str, int | None]] = []
    for label in header[1:]:
        code, sep, slot = label.rpartition("_s")
        if not (sep and slot.isdigit()):
            raise ValueError(f"{path}: column {label!r} is not <phecode>_s<slot>")
        columns.append((code, int(slot)))
    codes = list(dict.fromkeys(code for code, _ in columns))  # the phecodes, in column order
    slot_count = len(columns) // len(codes) if codes else None
    grid = [(code, slot) for code in codes for slot in range(1, (slot_count or 0) + 1)]
    for label, column, cell in zip_longest(header[1:], columns, grid):
        if column != cell:
            raise ValueError(
                f"{path}: column {label!r} is out of the phecode-major grid of "
                f"slots 1..{slot_count}"
            )
    return FeatureMatrix(pids, TEMPORAL, values, columns, slot_count=slot_count)


def write_vocabulary_csv(
    vocabulary: PhenotypeVocabulary,
    path: Path,
    counts: Mapping[str, int] | None,
    meta: str,
) -> None:
    """Write the vocabulary; patient_count is blank without counts."""
    rows = [
        [rank, code, name, counts.get(code, "") if counts else ""]
        for rank, (code, name) in enumerate(vocabulary.phecodes, start=1)
    ]
    write_table(path, [*VOCABULARY_COLUMNS, "patient_count"], rows, meta)


def load_vocabulary_csv(path: Path) -> PhenotypeVocabulary:
    """Read a vocabulary CSV, ordered by rank; a non-integer rank is a ValueError."""
    table = read_table(path, VOCABULARY_COLUMNS)
    rows = [
        (int_field(path, lineno, "rank", rank), code.strip(), name.strip())
        for lineno, (rank, code, name, *_) in zip(table.lines, table.rows)
    ]
    rows.sort(key=lambda r: r[0])
    return PhenotypeVocabulary(tuple((code, name) for _, code, name in rows))
