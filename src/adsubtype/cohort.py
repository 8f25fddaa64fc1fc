"""Cohort ingestion and selection.

Reads CDM-style CSV extracts (demographics, diagnoses, prescriptions,
deaths), finds each patient's first AD-coded diagnosis (the index date),
applies the inclusion criteria, and reduces each selected patient to one
record: demographics, mortality, the (timeslot, phecode) cells of the
pre-index diagnoses, with timeslots counted backward from the index date,
and the post-index RxCUIs.

Ingest works on columns. parse_tables reads each table in read_row_blocks'
bounded blocks and interns each block's columns into dicts that outlive the
block, so no table's rows are ever all in memory: every distinct field is
stripped and checked once, and a refused row's reject reason is the first
check it failed. Dates are YYYY-MM-DD only (parse_date), in the tables and
in the config. select_cohort applies the criteria with array operations
over integer patient, code and datetime64 columns.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from datetime import date
from enum import Enum
from itertools import accumulate
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

from .table import RejectedRow, read_row_blocks, write_text

if TYPE_CHECKING:
    from .phenotype import PhecodeMap, PhenotypeVocabulary

log = logging.getLogger(__name__)


class Sex(str, Enum):
    FEMALE = "F"
    MALE = "M"
    UNKNOWN = "UN"


class Race(str, Enum):
    AMERICAN_INDIAN_ALASKA_NATIVE = "01"
    ASIAN = "02"
    BLACK_AFRICAN_AMERICAN = "03"
    NATIVE_HAWAIIAN_PACIFIC_ISLANDER = "04"
    WHITE = "05"
    MULTIPLE_RACE = "06"
    REFUSE_TO_ANSWER = "07"
    OTHER = "OT"
    UNKNOWN = "UN"


RACE_LABELS = {
    Race.AMERICAN_INDIAN_ALASKA_NATIVE: "American Indian or Alaska Native",
    Race.ASIAN: "Asian",
    Race.BLACK_AFRICAN_AMERICAN: "Black or African American",
    Race.NATIVE_HAWAIIAN_PACIFIC_ISLANDER: "Native Hawaiian or Other Pacific Islander",
    Race.WHITE: "White",
    Race.MULTIPLE_RACE: "Multiple Race",
    Race.REFUSE_TO_ANSWER: "Refuse to Answer",
    Race.OTHER: "Other",
    Race.UNKNOWN: "Unknown",
}

SEX_LABELS = {Sex.FEMALE: "Female", Sex.MALE: "Male", Sex.UNKNOWN: "Unknown"}


class CodeSystem(str, Enum):
    ICD9 = "ICD9"
    ICD10CM = "ICD10CM"


class AgeGroup(str, Enum):
    UNDER_65 = "<65"
    FROM_65_TO_75 = "65-75"
    FROM_75_TO_85 = "75-85"
    OVER_85 = ">=85"


# The demographic variables of every per-cluster comparison, each with its
# categories in report order; CohortPatient.demographics follows this order.
DEMOGRAPHICS: dict[str, tuple[str, ...]] = {
    "sex": tuple(SEX_LABELS.values()),
    "race": tuple(RACE_LABELS.values()),
    "age_group": tuple(g.value for g in AgeGroup),
    "mortality": ("alive", "died"),
}

# First AD diagnosis is matched against these codes (compared after
# normalization, so dotted and undotted spellings are equivalent).
DEFAULT_AD_CODES = frozenset(
    ["331.0", "G30", "G300", "G30.0", "G301", "G308", "G30.8", "G309", "G30.9"]
)


def normalize_code(code: str) -> str:
    """Uppercase and strip dots so 'G30.9' and 'g309' compare equal."""
    return code.strip().upper().replace(".", "")


@dataclass(frozen=True)
class PatientRecord:
    patient_id: str
    sex: Sex
    race: Race
    birth_date: date
    died: bool = False
    death_date: date | None = None


@dataclass(frozen=True)
class CohortConfig:
    ad_code_set: frozenset[str] = DEFAULT_AD_CODES
    min_age_years: int = 20
    window_start: date = date(2012, 1, 1)
    window_end: date = date(2021, 1, 31)
    slot_count: int = 6
    slot_days: int = 183

    def __post_init__(self):
        if self.min_age_years < 0:
            raise ValueError("min_age_years must be >= 0")
        if self.slot_count < 1 or self.slot_days < 1:
            raise ValueError("slot_count and slot_days must be >= 1")
        if self.window_start >= self.window_end:
            raise ValueError("diagnosis window start must precede end")

    @property
    def normalized_ad_codes(self) -> frozenset[str]:
        return frozenset(normalize_code(c) for c in self.ad_code_set)


@dataclass(frozen=True, eq=False)
class Interned:
    """A column with each distinct value stored once: row i holds values[index[i]]."""

    values: list
    index: np.ndarray

    def rows(self) -> list:
        """The column's value in each row."""
        return list(map(self.values.__getitem__, self.index.tolist()))


@dataclass(frozen=True, eq=False)
class Events:
    """The accepted rows of diagnoses.csv or prescriptions.csv as columns, in file order.

    item holds a diagnosis's (code, CodeSystem) pair or a prescription's
    RxCUI; day holds each row's date as datetime64[D].
    """

    patient_id: Interned
    item: Interned
    day: np.ndarray

    def __len__(self) -> int:
        return len(self.day)


@dataclass
class RawTables:
    patients: list[PatientRecord]
    diagnoses: Events
    prescriptions: Events
    deaths: dict[str, date]
    rejects: list[RejectedRow]


@dataclass(frozen=True)
class CohortPatient:
    """One selected patient, holding everything later stages read.

    cells are the sorted distinct (slot, phecode) pairs of the pre-index,
    non-AD diagnoses whose code the phecode map knows; rxcuis are the
    sorted post-index prescriptions, repeats kept.
    """

    patient_id: str
    sex: Sex
    race: Race
    age_at_index: int
    died: bool
    cells: tuple[tuple[int, str], ...]
    rxcuis: tuple[str, ...]

    def demographics(self) -> tuple[str, str, str, str]:
        """This patient's category of each DEMOGRAPHICS variable, in its order."""
        return (
            SEX_LABELS[self.sex],
            RACE_LABELS[self.race],
            bin_age(self.age_at_index).value,
            "died" if self.died else "alive",
        )


@dataclass
class Cohort:
    patients: list[CohortPatient]
    funnel: list[tuple[str, int]]
    config: CohortConfig

    def patient_ids(self) -> list[str]:
        return [p.patient_id for p in self.patients]

    def demographic_labels(self) -> dict[str, list[str]]:
        """Each DEMOGRAPHICS variable's category per patient, in patient order."""
        rows = [p.demographics() for p in self.patients]
        return {var: [row[i] for row in rows] for i, var in enumerate(DEMOGRAPHICS)}


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

DEMOGRAPHICS_COLUMNS = ["patient_id", "sex", "race", "birth_date"]
DIAGNOSES_COLUMNS = ["patient_id", "code", "system", "date"]
PRESCRIPTIONS_COLUMNS = ["patient_id", "rxcui", "date"]
DEATHS_COLUMNS = ["patient_id", "death_date"]

def parse_date(text: str) -> date:
    """The calendar date text writes as YYYY-MM-DD; any other form is a ValueError.

    date.fromisoformat alone also takes 20190523 and week dates such as
    2019-W01-1 from Python 3.11 on, so those are refused first.
    """
    digits = text[:4] + text[5:7] + text[8:]
    if not (len(text) == 10 and text[4] == text[7] == "-" and digits.isascii() and digits.isdigit()):
        raise ValueError(f"date {text!r} is not YYYY-MM-DD")
    return date.fromisoformat(text)


def _nonempty(column: str) -> Callable[[str], str]:
    def check(text: str) -> str:
        if not text:
            raise ValueError(f"empty {column}")
        return text

    return check


def _intern(
    column: Sequence[str], of_text: dict[str, int], position: dict[str, int]
) -> np.ndarray:
    """Each text's value number, adding the texts of column not yet in of_text.

    position numbers the distinct stripped texts, first seen first; of_text
    maps each raw text to its stripped text's number.
    """
    for text in dict.fromkeys(column):
        if text not in of_text:
            of_text[text] = position.setdefault(text.strip(), len(position))
    return np.fromiter(map(of_text.__getitem__, column), np.intp, len(column))


def _converted(rule: Callable[[str], Any], text: str) -> tuple[Any, str | None]:
    """(rule(text), None), or (None, the reject reason) when rule raises ValueError."""
    try:
        return rule(text), None
    except ValueError as exc:
        return None, str(exc)


def _read_columns(
    path: Path,
    columns: list[str],
    rules: Sequence[Callable[[str], Any]],
    rejects: list[RejectedRow],
    unique: bool,
) -> list[Any]:
    """One input table's accepted rows as columns, in file order.

    A date column is a datetime64[D] array; any other is Interned, its values
    converted by its rule. The table is read in read_row_blocks' blocks: each
    block's fields are interned into one dict per column, which outlives the
    block, and only integer columns remain of its rows. rules[j] converts a
    stripped field of column j, or raises ValueError with the reject reason;
    it runs once per distinct field. A row is accepted when each of its
    fields converts and, with unique, no accepted row before it has its
    patient_id. A refused row's reason is its first failing field's, in
    column order, with the duplicate check right after the patient_id. Its
    reject and read_row_blocks' of a ragged row go to rejects in line order;
    a missing file, an empty file or an unexpected header is fatal.

    Each string value was cut from one of the table's per-row strings, and
    one kept alive keeps the allocator from returning the memory around it.
    So each string column is packed into one string, and every value and
    per-row array left of the rows is dropped, before the values are cut out
    again.
    """
    file_rejects: list[RejectedRow] = []
    of_text: list[dict[str, int]] = [{} for _ in rules]
    position: list[dict[str, int]] = [{} for _ in rules]
    parts: list[list[np.ndarray]] = [[] for _ in rules]  # each column's index, per block
    line_parts = []
    for block in read_row_blocks(path, columns, file_rejects):
        for j in range(len(rules)):
            parts[j].append(_intern([row[j] for row in block.rows], of_text[j], position[j]))
        line_parts.append(np.array(block.lines, dtype=np.int64))
    del of_text, block  # the last block's rows
    lines = np.concatenate(line_parts)
    accepted = np.ones(len(lines), dtype=bool)
    values, index, errors = [], [], []  # errors[j][v]: the ValueError text of column j's value v
    for rule, texts, blocks in zip(rules, position, parts):
        outcomes = [_converted(rule, text) for text in texts]
        values.append([value for value, _ in outcomes])
        errors.append([error for _, error in outcomes])
        index.append(np.concatenate(blocks))
        accepted &= np.array([e is None for e in errors[-1]], dtype=bool)[index[-1]]
    del position, parts, texts, blocks, outcomes
    pids = index[0]
    first_row: dict[int, int] = {}  # a unique table's first accepted row of each patient_id
    if unique:
        ok = np.flatnonzero(accepted)
        ids, first = np.unique(pids[ok], return_index=True)
        first_row = dict(zip(ids.tolist(), ok[first].tolist()))
        accepted[:] = False
        accepted[ok[first]] = True
        del ok, ids, first
    for i in np.flatnonzero(~accepted).tolist():
        if first_row.get(int(pids[i]), i) < i:  # so its patient_id passes
            reason = f"duplicate patient_id {values[0][pids[i]]!r}"
        else:
            reason = next(r for f, rows in zip(errors, index) if (r := f[rows[i]]) is not None)
        file_rejects.append(RejectedRow(Path(path).name, int(lines[i]), reason))
    rejects.extend(sorted(file_rejects, key=lambda r: r.line))
    for j in range(len(rules)):  # each column without the values no accepted row holds
        rows = index[j][accepted]
        used = np.zeros(len(values[j]), dtype=bool)
        used[rows] = True
        values[j] = [v for v, u in zip(values[j], used.tolist()) if u]
        index[j] = (np.cumsum(used) - 1)[rows]
    # the rows' arrays go before any date array or packed string is built
    del line_parts, lines, accepted, pids, rows, used, errors, first_row
    kept: list[Any] = []
    for rule, held, rows in zip(rules, values, index):
        if rule is parse_date:
            kept.append(np.array(held, dtype="datetime64[D]")[rows])
        elif all(type(v) is str for v in held):
            kept.append(("".join(held), [0, *accumulate(map(len, held))], rows))
        else:  # enum members live as long as their class
            kept.append(Interned(held, rows))
    del values, held
    for j, column in enumerate(kept):
        if isinstance(column, tuple):
            text, bounds, rows = column
            kept[j] = Interned([text[a:b] for a, b in zip(bounds, bounds[1:])], rows)
    return kept


def _pairs(code: Interned, system: Interned) -> Interned:
    """The (code, system) column, each distinct pair stored once."""
    width = max(len(system.values), 1)
    distinct, index = np.unique(code.index * width + system.index, return_inverse=True)
    pairs = [(code.values[k // width], system.values[k % width]) for k in distinct.tolist()]
    return Interned(pairs, index.reshape(-1))


def parse_tables(
    demographics: Path, diagnoses: Path, prescriptions: Path, deaths: Path
) -> RawTables:
    """Parse the four input tables into patient records and event columns.

    Malformed rows are collected into the rejects list with file and line
    number, in file order; a missing file or an unexpected header is fatal.
    """
    rejects: list[RejectedRow] = []
    pid = _nonempty("patient_id")
    pids, sexes, races, births = _read_columns(
        demographics, DEMOGRAPHICS_COLUMNS, (pid, Sex, Race, parse_date), rejects, unique=True
    )
    dx_pid, code, system, dx_day = _read_columns(
        diagnoses, DIAGNOSES_COLUMNS, (pid, _nonempty("code"), CodeSystem, parse_date),
        rejects, unique=False,
    )
    rx_pid, rxcui, rx_day = _read_columns(
        prescriptions, PRESCRIPTIONS_COLUMNS, (pid, _nonempty("rxcui"), parse_date),
        rejects, unique=False,
    )
    dead_pid, death_day = _read_columns(
        deaths, DEATHS_COLUMNS, (pid, parse_date), rejects, unique=True
    )
    tables = RawTables(
        [
            PatientRecord(patient_id, sex, race, birth_date)
            for patient_id, sex, race, birth_date in zip(
                pids.rows(), sexes.rows(), races.rows(), births.tolist()
            )
        ],
        Events(dx_pid, _pairs(code, system), dx_day),
        Events(rx_pid, rxcui, rx_day),
        dict(zip(dead_pid.rows(), death_day.tolist())),
        rejects,
    )
    if rejects:
        first = rejects[0]
        log.warning(
            "parse_tables: %d malformed rows rejected, the first at %s line %d: %s",
            len(rejects), first.file, first.line, first.reason,
        )
    return tables


# ---------------------------------------------------------------------------
# Index date, timeslots, age
# ---------------------------------------------------------------------------


def assign_timeslot(
    event_date: date, index_date: date, slot_days: int, slot_count: int
) -> int | None:
    """Timeslot index (1-based, slot 1 adjacent to the index date) or None.

    The rule of timeslots for one event.
    """
    slot = int(timeslots(np.int64((index_date - event_date).days), slot_days, slot_count))
    return slot or None


def timeslots(days_before: np.ndarray, slot_days: int, slot_count: int) -> np.ndarray:
    """Each event's timeslot from its whole days before the index date; 0 for none.

    An event d whole days before the index date lands in slot
    floor(d / slot_days) + 1 when 0 <= d <= slot_count * slot_days - 1.
    Events on the index date itself (d = 0) land in slot 1; later events and
    events beyond the lookback horizon get 0.
    """
    slot = days_before // slot_days + 1
    return np.where((days_before >= 0) & (slot <= slot_count), slot, 0)


def bin_age(age: int) -> AgeGroup:
    """Half-open age bins: [0,65), [65,75), [75,85), [85,inf)."""
    if age < 65:
        return AgeGroup.UNDER_65
    if age < 75:
        return AgeGroup.FROM_65_TO_75
    if age < 85:
        return AgeGroup.FROM_75_TO_85
    return AgeGroup.OVER_85


def completed_years(birth_date: Any, index_date: Any) -> Any:
    """Whole years from birth_date to index_date; negative if born after it.

    Takes dates, or datetime64[D] arrays elementwise.
    """
    return (_yyyymmdd(index_date) - _yyyymmdd(birth_date)) // 10000


def _yyyymmdd(day: Any) -> Any:
    """A date, or a datetime64[D] array, as the integer YYYYMMDD."""
    day = np.asarray(day, dtype="datetime64[D]")
    year, month = day.astype("datetime64[Y]"), day.astype("datetime64[M]")
    month_of_year = (month - year).astype(np.int64) + 1
    day_of_month = (day - month).astype(np.int64) + 1
    return (year.astype(np.int64) + 1970) * 10000 + month_of_year * 100 + day_of_month


# ---------------------------------------------------------------------------
# Cohort selection
# ---------------------------------------------------------------------------


def select_cohort(
    tables: RawTables,
    config: CohortConfig,
    phecode_map: "PhecodeMap",
    vocabulary: "PhenotypeVocabulary | None" = None,
) -> Cohort:
    """Apply the inclusion criteria and build the analysis cohort.

    Keeps patients whose first AD-coded diagnosis falls inside the diagnosis
    window, whose age at index meets the minimum, and (when a vocabulary is
    given) who carry at least one vocabulary condition in some timeslot.
    Each pre-index, non-AD diagnosis with a mapped phecode becomes a
    (slot, phecode) cell of its patient; prescriptions on or after the
    index date are kept as RxCUIs. The funnel records the count remaining
    after each criterion. Each step works on whole columns; AD matching and
    the phecode lookup run once per distinct (code, system) pair.
    """
    patients, dx, rx = tables.patients, tables.diagnoses, tables.prescriptions
    n = len(patients)
    funnel: list[tuple[str, int]] = [("patients_total", n)]

    # Row n stands for every event patient missing from the demographics
    # table; its index date stays NaT, so no criterion selects it.
    row_of = {p.patient_id: i for i, p in enumerate(patients)}
    dx_row = _rows_of(dx.patient_id.values, row_of)[dx.patient_id.index]
    rx_row = _rows_of(rx.patient_id.values, row_of)[rx.patient_id.index]
    ad_codes = config.normalized_ad_codes
    is_ad = [normalize_code(code) in ad_codes for code, _ in dx.item.values]
    ad = np.array(is_ad, dtype=bool)[dx.item.index]  # the AD-coded diagnosis rows
    index_date = np.full(n + 1, np.datetime64("NaT"), dtype="datetime64[D]")
    np.fmin.at(index_date, dx_row[ad], dx.day[ad])  # fmin skips NaT
    index_date[n] = np.datetime64("NaT")
    funnel.append(("first_ad_diagnosis", int((~np.isnat(index_date)).sum())))

    # comparisons with NaT are false
    start, end = np.datetime64(config.window_start), np.datetime64(config.window_end)
    window = (start <= index_date) & (index_date <= end)
    funnel.append(("ad_date_in_window", int(window.sum())))

    birth = np.array([p.birth_date for p in patients] + [None], dtype="datetime64[D]")
    age = np.zeros(n + 1, dtype=np.int64)
    age[window] = completed_years(birth[window], index_date[window])
    selected = window & (age >= config.min_age_years)
    funnel.append((f"age_at_index_ge_{config.min_age_years}", int(selected.sum())))

    # Cells: the timeslots of the selected patients' non-AD, phecode-mapped
    # diagnoses. Each (row, slot, phecode) is one integer key whose phecode
    # part is its rank in string order, so np.unique keeps one per cell
    # (binary features make repeated diagnoses irrelevant) and sorts each
    # patient's cells by (slot, phecode).
    phecodes = [phecode_map.lookup(code, system) for code, system in dx.item.values]
    names = sorted(set(phecodes) - {None})
    rank_of = {name: r for r, name in enumerate(names)}
    rank = np.array([rank_of.get(pc, -1) for pc in phecodes], dtype=np.int64)[dx.item.index]
    rows = np.flatnonzero(selected[dx_row] & (rank >= 0) & ~ad)
    days_before = (index_date[dx_row[rows]] - dx.day[rows]).astype(np.int64)
    slot = timeslots(days_before, config.slot_days, config.slot_count)
    rows, slot = rows[slot > 0], slot[slot > 0]
    slots, width = config.slot_count + 1, max(len(names), 1)
    key = np.unique((dx_row[rows] * slots + slot) * width + rank[rows])
    cell = list(zip((key // width % slots).tolist(), [names[r] for r in (key % width).tolist()]))
    cells = _by_row(key // (slots * width), cell, n)

    # RxCUIs on or after the index date, sorted the same way with repeats kept
    codes = sorted(rx.item.values)
    rank_of = {code: r for r, code in enumerate(codes)}
    rx_rank = np.array([rank_of[code] for code in rx.item.values], dtype=np.int64)[rx.item.index]
    rows = np.flatnonzero(selected[rx_row])
    rows = rows[rx.day[rows] >= index_date[rx_row[rows]]]
    width = max(len(codes), 1)
    key = np.sort(rx_row[rows] * width + rx_rank[rows])
    rxcuis = _by_row(key // width, [codes[r] for r in (key % width).tolist()], n)

    ages = age.tolist()
    cohort_patients = [
        CohortPatient(
            patient_id=patients[i].patient_id,
            sex=patients[i].sex,
            race=patients[i].race,
            age_at_index=ages[i],
            died=patients[i].patient_id in tables.deaths,
            cells=cells[i],
            rxcuis=rxcuis[i],
        )
        for i in np.flatnonzero(selected).tolist()
    ]
    if not cohort_patients:
        log.warning("select_cohort: no patients satisfy the inclusion criteria")
    cohort = Cohort(patients=cohort_patients, funnel=funnel, config=config)
    return cohort if vocabulary is None else restrict_to_vocabulary(cohort, vocabulary)


def _rows_of(patient_ids: list[str], row_of: Mapping[str, int]) -> np.ndarray:
    """Each patient_id's row in row_of; len(row_of) for one not there."""
    return np.array([row_of.get(pid, len(row_of)) for pid in patient_ids], dtype=np.intp)


def _by_row(row: np.ndarray, items: list, n: int) -> list[tuple]:
    """items, whose patient rows ascend in row, as one tuple per row 0..n-1."""
    bounds = np.searchsorted(row, np.arange(n + 1)).tolist()
    return [tuple(items[a:b]) for a, b in zip(bounds, bounds[1:])]


def restrict_to_vocabulary(cohort: Cohort, vocabulary: "PhenotypeVocabulary") -> Cohort:
    """The cohort's patients with a vocabulary condition in some timeslot.

    Appends the vocabulary_condition_in_window funnel row.
    """
    codes = vocabulary.phecode_set()
    kept = [p for p in cohort.patients if any(phecode in codes for _, phecode in p.cells)]
    if not kept:
        log.warning("restrict_to_vocabulary: no patient has a vocabulary condition")
    funnel = cohort.funnel + [("vocabulary_condition_in_window", len(kept))]
    return Cohort(patients=kept, funnel=funnel, config=cohort.config)


# ---------------------------------------------------------------------------
# Cohort artifact (JSON round trip between pipeline stages)
# ---------------------------------------------------------------------------


def cohort_to_json(cohort: Cohort) -> dict:
    return {
        "config": {
            "ad_code_set": sorted(cohort.config.ad_code_set),
            "min_age_years": cohort.config.min_age_years,
            "window_start": cohort.config.window_start.isoformat(),
            "window_end": cohort.config.window_end.isoformat(),
            "slot_count": cohort.config.slot_count,
            "slot_days": cohort.config.slot_days,
        },
        "funnel": [[name, count] for name, count in cohort.funnel],
        "patients": [
            {
                "patient_id": p.patient_id,
                "sex": p.sex.value,
                "race": p.race.value,
                "age_at_index": p.age_at_index,
                "died": p.died,
                "cells": p.cells,
                "rxcuis": p.rxcuis,
            }
            for p in cohort.patients
        ],
    }


def save_cohort(cohort: Cohort, path: Path) -> None:
    text = json.dumps(cohort_to_json(cohort), sort_keys=True, separators=(",", ":"))
    write_text(path, text + "\n")


# The fields of a patient row in cohort.json; the document and its config hold none.
PATIENT_FIELDS = frozenset(
    ["patient_id", "sex", "race", "age_at_index", "died", "cells", "rxcuis"]
)


def load_cohort(path: Path) -> Cohort:
    """The cohort save_cohort wrote to path, read as UTF-8.

    Each patient row becomes a CohortPatient as soon as the JSON decoder
    closes its object, so the decoded rows never all exist at once, and
    equal cells and RxCUIs share one object through a dict per load. A file
    that is not JSON or not a cohort is a ValueError naming path and, for a
    bad patient row, its position and patient_id.
    """
    path = Path(path)
    shared: dict = {}  # each distinct (slot, phecode) cell and RxCUI of this load
    share = shared.setdefault
    built = 0  # patient rows decoded so far

    def patient(row: dict) -> Any:
        nonlocal built
        if PATIENT_FIELDS.isdisjoint(row):
            return row  # the document or its config
        built += 1
        try:
            try:
                cells = [(slot, phecode) for slot, phecode in row["cells"]]
            except (TypeError, ValueError) as exc:
                raise ValueError(f"cells are not [slot, phecode] pairs ({exc})") from None
            return CohortPatient(
                patient_id=row["patient_id"],
                sex=Sex(row["sex"]),
                race=Race(row["race"]),
                age_at_index=row["age_at_index"],
                died=row["died"],
                cells=tuple(map(share, cells, cells)),
                rxcuis=tuple(map(share, row["rxcuis"], row["rxcuis"])),
            )
        except KeyError as exc:
            problem = f"no {exc.args[0]!r}"
        except (TypeError, ValueError) as exc:
            problem = str(exc)
        named = f" ({row['patient_id']!r})" if "patient_id" in row else ""
        raise ValueError(f"{path}: patient {built - 1}{named}: {problem}")

    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_hook=patient)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    try:
        cfg = doc["config"]
        config = CohortConfig(
            ad_code_set=frozenset(cfg["ad_code_set"]),
            min_age_years=cfg["min_age_years"],
            window_start=parse_date(cfg["window_start"]),
            window_end=parse_date(cfg["window_end"]),
            slot_count=cfg["slot_count"],
            slot_days=cfg["slot_days"],
        )
        funnel = [(name, count) for name, count in doc["funnel"]]
        patients = doc["patients"]
    except KeyError as exc:
        raise ValueError(f"{path}: no {exc.args[0]!r} in the cohort") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a cohort: {exc}") from None
    for i, row in enumerate(patients):
        if not isinstance(row, CohortPatient):
            raise ValueError(f"{path}: patient {i} is not a patient row: {row!r}")
    return Cohort(patients=patients, funnel=funnel, config=config)
