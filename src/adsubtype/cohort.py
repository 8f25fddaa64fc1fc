"""Cohort ingestion and selection.

Reads CDM-style CSV extracts (demographics, diagnoses, prescriptions,
deaths), finds each patient's first AD-coded diagnosis (the index date),
applies the inclusion criteria, and reduces each selected patient to one
record: demographics, mortality, the (timeslot, phecode) cells of the
pre-index diagnoses, with timeslots counted backward from the index date,
and the post-index RxCUIs.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from datetime import date
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from .table import RejectedRow, read_table, write_text

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
class DiagnosisEvent:
    patient_id: str
    code: str
    system: CodeSystem
    date: date


@dataclass(frozen=True)
class PrescriptionEvent:
    patient_id: str
    rxcui: str
    date: date


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


@dataclass
class RawTables:
    patients: list[PatientRecord]
    diagnoses: list[DiagnosisEvent]
    prescriptions: list[PrescriptionEvent]
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


def _parse_date(value: str) -> date:
    # date.fromisoformat accepts only valid YYYY-MM-DD calendar dates
    return date.fromisoformat(value.strip())


def _read_rows(path: Path, columns: list[str], parse: Callable[..., Any], rejects: list) -> list:
    """Parse each data row of one input table with parse(*its columns' fields, stripped).

    A ragged row, an empty patient_id or a ValueError raised by parse
    becomes a reject carrying the file's name and the row's line number;
    a missing file, an empty file or an unexpected header is fatal.
    """
    parsed = []
    with read_table(path, columns, rejects) as (_, rows):
        for lineno, row in rows:
            fields = [f.strip() for f in row[: len(columns)]]
            try:
                if not fields[0]:
                    raise ValueError("empty patient_id")
                parsed.append(parse(*fields))
            except ValueError as exc:
                rejects.append(RejectedRow(Path(path).name, lineno, str(exc)))
    return parsed


def parse_tables(
    demographics: Path, diagnoses: Path, prescriptions: Path, deaths: Path
) -> RawTables:
    """Parse the four input tables into typed rows; the one place events are built.

    Malformed rows are collected into the rejects list with file and line
    number; a missing file or an unexpected header is fatal.
    """
    rejects: list[RejectedRow] = []
    seen_ids: set[str] = set()

    def patient(pid: str, sex: str, race: str, birth: str) -> PatientRecord:
        if pid in seen_ids:
            raise ValueError(f"duplicate patient_id {pid!r}")
        record = PatientRecord(pid, Sex(sex), Race(race), _parse_date(birth))
        seen_ids.add(pid)
        return record

    def diagnosis(pid: str, code: str, system: str, when: str) -> DiagnosisEvent:
        if not code:
            raise ValueError("empty code")
        return DiagnosisEvent(pid, code, CodeSystem(system), _parse_date(when))

    def prescription(pid: str, rxcui: str, when: str) -> PrescriptionEvent:
        if not rxcui:
            raise ValueError("empty rxcui")
        return PrescriptionEvent(pid, rxcui, _parse_date(when))

    dead_ids: set[str] = set()

    def death(pid: str, when: str) -> tuple[str, date]:
        if pid in dead_ids:
            raise ValueError(f"duplicate patient_id {pid!r}")
        row = pid, _parse_date(when)
        dead_ids.add(pid)
        return row

    tables = RawTables(
        _read_rows(demographics, DEMOGRAPHICS_COLUMNS, patient, rejects),
        _read_rows(diagnoses, DIAGNOSES_COLUMNS, diagnosis, rejects),
        _read_rows(prescriptions, PRESCRIPTIONS_COLUMNS, prescription, rejects),
        dict(_read_rows(deaths, DEATHS_COLUMNS, death, rejects)),
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


def find_first_ad_date(
    diagnoses: Iterable[DiagnosisEvent], ad_code_set: Iterable[str]
) -> dict[str, date]:
    """Earliest AD-coded diagnosis date per patient (absent if none)."""
    ad_norm = {normalize_code(c) for c in ad_code_set}
    first: dict[str, date] = {}
    for ev in diagnoses:
        if normalize_code(ev.code) in ad_norm:
            prev = first.get(ev.patient_id)
            if prev is None or ev.date < prev:
                first[ev.patient_id] = ev.date
    return first


def assign_timeslot(
    event_date: date, index_date: date, slot_days: int, slot_count: int
) -> int | None:
    """Timeslot index (1-based, slot 1 adjacent to the index date) or None.

    An event d whole days before the index date lands in slot
    floor(d / slot_days) + 1 when 0 <= d <= slot_count * slot_days - 1.
    Events on the index date itself (d = 0) land in slot 1; later events and
    events beyond the lookback horizon return None.
    """
    d = (index_date - event_date).days
    if d < 0 or d > slot_count * slot_days - 1:
        return None
    return d // slot_days + 1


def bin_age(age: int) -> AgeGroup:
    """Half-open age bins: [0,65), [65,75), [75,85), [85,inf)."""
    if age < 65:
        return AgeGroup.UNDER_65
    if age < 75:
        return AgeGroup.FROM_65_TO_75
    if age < 85:
        return AgeGroup.FROM_75_TO_85
    return AgeGroup.OVER_85


def completed_years(birth_date: date, index_date: date) -> int:
    """Whole years from birth_date to index_date; negative if born after it."""
    age = index_date.year - birth_date.year
    if (index_date.month, index_date.day) < (birth_date.month, birth_date.day):
        age -= 1
    return age


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
    after each criterion.
    """
    funnel: list[tuple[str, int]] = [("patients_total", len(tables.patients))]

    first_ad = find_first_ad_date(tables.diagnoses, config.ad_code_set)
    with_ad = [p for p in tables.patients if p.patient_id in first_ad]
    funnel.append(("first_ad_diagnosis", len(with_ad)))

    in_window = [
        p
        for p in with_ad
        if config.window_start <= first_ad[p.patient_id] <= config.window_end
    ]
    funnel.append(("ad_date_in_window", len(in_window)))

    age_at_index: dict[str, int] = {}
    of_age: list[PatientRecord] = []
    for p in in_window:
        idx = first_ad[p.patient_id]
        age = completed_years(p.birth_date, idx)
        if age >= config.min_age_years:
            of_age.append(p)
            age_at_index[p.patient_id] = age
    funnel.append((f"age_at_index_ge_{config.min_age_years}", len(of_age)))

    # A set per patient: binary features make repeated diagnoses irrelevant.
    ad_norm = config.normalized_ad_codes
    cells: dict[str, set[tuple[int, str]]] = {p.patient_id: set() for p in of_age}
    for ev in tables.diagnoses:
        patient_cells = cells.get(ev.patient_id)
        if patient_cells is None or normalize_code(ev.code) in ad_norm:
            continue
        slot = assign_timeslot(
            ev.date, first_ad[ev.patient_id], config.slot_days, config.slot_count
        )
        if slot is None:
            continue
        phecode = phecode_map.lookup(ev.code, ev.system)
        if phecode is not None:
            patient_cells.add((slot, phecode))

    rxcuis: dict[str, list[str]] = {p.patient_id: [] for p in of_age}
    for rx in tables.prescriptions:
        patient_rx = rxcuis.get(rx.patient_id)
        if patient_rx is not None and rx.date >= first_ad[rx.patient_id]:
            patient_rx.append(rx.rxcui)

    patients = [
        CohortPatient(
            patient_id=p.patient_id,
            sex=p.sex,
            race=p.race,
            age_at_index=age_at_index[p.patient_id],
            died=p.patient_id in tables.deaths,
            cells=tuple(sorted(cells[p.patient_id])),
            rxcuis=tuple(sorted(rxcuis[p.patient_id])),
        )
        for p in of_age
    ]
    if not patients:
        log.warning("select_cohort: no patients satisfy the inclusion criteria")
    cohort = Cohort(patients=patients, funnel=funnel, config=config)
    return cohort if vocabulary is None else restrict_to_vocabulary(cohort, vocabulary)


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


def cohort_from_json(doc: Mapping) -> Cohort:
    cfg = doc["config"]
    config = CohortConfig(
        ad_code_set=frozenset(cfg["ad_code_set"]),
        min_age_years=cfg["min_age_years"],
        window_start=date.fromisoformat(cfg["window_start"]),
        window_end=date.fromisoformat(cfg["window_end"]),
        slot_count=cfg["slot_count"],
        slot_days=cfg["slot_days"],
    )
    patients = [
        CohortPatient(
            patient_id=row["patient_id"],
            sex=Sex(row["sex"]),
            race=Race(row["race"]),
            age_at_index=row["age_at_index"],
            died=row["died"],
            cells=tuple((slot, phecode) for slot, phecode in row["cells"]),
            rxcuis=tuple(row["rxcuis"]),
        )
        for row in doc["patients"]
    ]
    return Cohort(
        patients=patients,
        funnel=[(name, count) for name, count in doc["funnel"]],
        config=config,
    )


def save_cohort(cohort: Cohort, path: Path) -> None:
    text = json.dumps(cohort_to_json(cohort), sort_keys=True, separators=(",", ":"))
    write_text(path, text + "\n")


def load_cohort(path: Path) -> Cohort:
    return cohort_from_json(json.loads(Path(path).read_text()))
