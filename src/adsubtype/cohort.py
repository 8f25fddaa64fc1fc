"""Cohort ingestion and selection.

Reads CDM-style CSV extracts (demographics, diagnoses, prescriptions,
deaths), finds each patient's first AD-coded diagnosis (the index date),
applies the inclusion criteria, and assigns pre-index diagnosis events to
half-year timeslots counted backward from the index date.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from .table import read_table, write_text

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


AGE_GROUP_ORDER = [
    AgeGroup.UNDER_65,
    AgeGroup.FROM_65_TO_75,
    AgeGroup.FROM_75_TO_85,
    AgeGroup.OVER_85,
]

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


@dataclass(frozen=True)
class RejectedRow:
    file: str
    line: int
    reason: str


@dataclass
class RawTables:
    patients: list[PatientRecord]
    diagnoses: list[DiagnosisEvent]
    prescriptions: list[PrescriptionEvent]
    deaths: dict[str, date]
    rejects: list[RejectedRow] = field(default_factory=list)


@dataclass(frozen=True)
class SlottedEvent:
    """A pre-index diagnosis event with its timeslot and mapped phecode.

    phecode is None when the ICD code has no entry in the phecode map; such
    events stay here so coverage reporting can account for them.
    """

    event: DiagnosisEvent
    slot: int
    phecode: str | None


@dataclass
class Cohort:
    patients: list[PatientRecord]
    index_date: dict[str, date]
    age_at_index: dict[str, int]
    pre_index_events: dict[str, list[SlottedEvent]]
    post_index_prescriptions: dict[str, list[PrescriptionEvent]]
    funnel: list[tuple[str, int]]
    config: CohortConfig

    def patient_ids(self) -> list[str]:
        return [p.patient_id for p in self.patients]

    def demographic_labels(self) -> dict[str, list[str]]:
        """Sex, race, age group at index and mortality labels, in patient order."""
        labels: dict[str, list[str]] = {"sex": [], "race": [], "age_group": [], "mortality": []}
        for p in self.patients:
            labels["sex"].append(SEX_LABELS[p.sex])
            labels["race"].append(RACE_LABELS[p.race])
            labels["age_group"].append(bin_age(self.age_at_index[p.patient_id]).value)
            labels["mortality"].append("died" if p.died else "alive")
        return labels


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

DEMOGRAPHICS_COLUMNS = ["patient_id", "sex", "race", "birth_date"]
DIAGNOSES_COLUMNS = ["patient_id", "code", "system", "date"]
PRESCRIPTIONS_COLUMNS = ["patient_id", "rxcui", "date"]
DEATHS_COLUMNS = ["patient_id", "death_date"]


@dataclass(frozen=True)
class TablePaths:
    demographics: Path
    diagnoses: Path
    prescriptions: Path
    deaths: Path


def _parse_date(value: str) -> date:
    # date.fromisoformat accepts only valid YYYY-MM-DD calendar dates
    return date.fromisoformat(value.strip())


def _read_rows(
    path: Path,
    columns: list[str],
    file: str,
    parse: Callable[..., Any],
    rejects: list[RejectedRow],
) -> list:
    """Parse each data row of one input table with parse(*stripped_fields).

    A ValueError from a row (wrong field count, empty patient_id, or raised
    by parse) becomes a reject carrying the row's file line number; a
    missing file, an empty file or an unexpected header is fatal.
    """
    parsed = []
    with read_table(path) as (header, rows):
        if [h.strip() for h in header] != columns:
            raise ValueError(f"{path}: bad header {header!r}, expected {columns}")
        for lineno, row in rows:
            try:
                if len(row) != len(columns):
                    raise ValueError(f"expected {len(columns)} fields, got {len(row)}")
                fields = [f.strip() for f in row]
                if not fields[0]:
                    raise ValueError("empty patient_id")
                parsed.append(parse(*fields))
            except ValueError as exc:
                rejects.append(RejectedRow(file, lineno, str(exc)))
    return parsed


def parse_tables(paths: TablePaths) -> RawTables:
    """Parse the four input tables into typed rows.

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

    def death(pid: str, when: str) -> tuple[str, date]:
        return pid, _parse_date(when)

    patients = _read_rows(
        paths.demographics, DEMOGRAPHICS_COLUMNS, "demographics", patient, rejects
    )
    diagnoses = _read_rows(paths.diagnoses, DIAGNOSES_COLUMNS, "diagnoses", diagnosis, rejects)
    prescriptions = _read_rows(
        paths.prescriptions, PRESCRIPTIONS_COLUMNS, "prescriptions", prescription, rejects
    )
    deaths = dict(_read_rows(paths.deaths, DEATHS_COLUMNS, "deaths", death, rejects))

    if rejects:
        log.warning("parse_tables: %d malformed rows rejected", len(rejects))
    return RawTables(patients, diagnoses, prescriptions, deaths, rejects)


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
    event_date: date, index_date: date, slot_days: int = 183, slot_count: int = 6
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


def compute_age_group(birth_date: date, index_date: date) -> tuple[int, AgeGroup]:
    """Completed years at the index date and the half-open age bin."""
    if birth_date > index_date:
        raise ValueError(f"birth_date {birth_date} after index_date {index_date}")
    age = index_date.year - birth_date.year
    if (index_date.month, index_date.day) < (birth_date.month, birth_date.day):
        age -= 1
    group = bin_age(age)
    return age, group


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
    Pre-index, non-AD diagnosis events are deduplicated, slot-assigned, and
    annotated with their phecode. The funnel records the count remaining
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
        if p.birth_date > idx:
            continue
        age, _ = compute_age_group(p.birth_date, idx)
        if age >= config.min_age_years:
            of_age.append(p)
            age_at_index[p.patient_id] = age
    funnel.append((f"age_at_index_ge_{config.min_age_years}", len(of_age)))

    # Deduplicate diagnosis rows on (patient, normalized code, date): binary
    # features make repeats irrelevant.
    ad_norm = config.normalized_ad_codes
    eligible_ids = {p.patient_id for p in of_age}
    seen: set[tuple[str, str, date]] = set()
    pre_index_events: dict[str, list[SlottedEvent]] = {p.patient_id: [] for p in of_age}
    for ev in tables.diagnoses:
        if ev.patient_id not in eligible_ids:
            continue
        norm = normalize_code(ev.code)
        if norm in ad_norm:
            continue
        key = (ev.patient_id, norm, ev.date)
        if key in seen:
            continue
        seen.add(key)
        slot = assign_timeslot(
            ev.date, first_ad[ev.patient_id], config.slot_days, config.slot_count
        )
        if slot is None:
            continue
        phecode = phecode_map.lookup(ev.code, ev.system)
        pre_index_events[ev.patient_id].append(SlottedEvent(ev, slot, phecode))

    if vocabulary is not None:
        vocab_codes = vocabulary.phecode_set()
        kept = [
            p
            for p in of_age
            if any(
                se.phecode in vocab_codes for se in pre_index_events[p.patient_id]
            )
        ]
        funnel.append(("vocabulary_condition_in_window", len(kept)))
    else:
        kept = of_age

    if not kept:
        log.warning("select_cohort: no patients satisfy the inclusion criteria")

    kept_ids = {p.patient_id for p in kept}
    patients = [
        replace(
            p,
            died=p.patient_id in tables.deaths,
            death_date=tables.deaths.get(p.patient_id),
        )
        for p in kept
    ]
    index_date = {p.patient_id: first_ad[p.patient_id] for p in kept}

    post_rx: dict[str, list[PrescriptionEvent]] = {p.patient_id: [] for p in kept}
    for rx in tables.prescriptions:
        if rx.patient_id in kept_ids and rx.date >= index_date[rx.patient_id]:
            post_rx[rx.patient_id].append(rx)

    return Cohort(
        patients=patients,
        index_date=index_date,
        age_at_index={p.patient_id: age_at_index[p.patient_id] for p in kept},
        pre_index_events={p.patient_id: pre_index_events[p.patient_id] for p in kept},
        post_index_prescriptions=post_rx,
        funnel=funnel,
        config=config,
    )


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
                "birth_date": p.birth_date.isoformat(),
                "died": p.died,
                "death_date": p.death_date.isoformat() if p.death_date else None,
                "index_date": cohort.index_date[p.patient_id].isoformat(),
                "age_at_index": cohort.age_at_index[p.patient_id],
            }
            for p in cohort.patients
        ],
        "events": {
            pid: [
                [se.event.code, se.event.system.value, se.event.date.isoformat(), se.slot, se.phecode]
                for se in sorted(
                    events, key=lambda s: (s.event.date, s.event.code, s.slot)
                )
            ]
            for pid, events in cohort.pre_index_events.items()
        },
        "prescriptions": {
            pid: [[rx.rxcui, rx.date.isoformat()] for rx in sorted(rxs, key=lambda r: (r.date, r.rxcui))]
            for pid, rxs in cohort.post_index_prescriptions.items()
        },
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
    patients = []
    index_date = {}
    age_at_index = {}
    for row in doc["patients"]:
        patients.append(
            PatientRecord(
                patient_id=row["patient_id"],
                sex=Sex(row["sex"]),
                race=Race(row["race"]),
                birth_date=date.fromisoformat(row["birth_date"]),
                died=row["died"],
                death_date=date.fromisoformat(row["death_date"]) if row["death_date"] else None,
            )
        )
        index_date[row["patient_id"]] = date.fromisoformat(row["index_date"])
        age_at_index[row["patient_id"]] = row["age_at_index"]

    pre_index_events = {
        pid: [
            SlottedEvent(
                DiagnosisEvent(pid, code, CodeSystem(system), date.fromisoformat(when)),
                slot,
                phecode,
            )
            for code, system, when, slot, phecode in rows
        ]
        for pid, rows in doc["events"].items()
    }
    prescriptions = {
        pid: [PrescriptionEvent(pid, rxcui, date.fromisoformat(when)) for rxcui, when in rows]
        for pid, rows in doc["prescriptions"].items()
    }
    return Cohort(
        patients=patients,
        index_date=index_date,
        age_at_index=age_at_index,
        pre_index_events=pre_index_events,
        post_index_prescriptions=prescriptions,
        funnel=[(name, count) for name, count in doc["funnel"]],
        config=config,
    )


def save_cohort(cohort: Cohort, path: Path) -> None:
    write_text(path, json.dumps(cohort_to_json(cohort), sort_keys=True, indent=1) + "\n")


def load_cohort(path: Path) -> Cohort:
    return cohort_from_json(json.loads(Path(path).read_text()))
