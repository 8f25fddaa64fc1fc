"""Seeded synthetic cohort generator with planted subtypes.

Each patient draws a subtype profile, demographics, an index diagnosis
date, per-(phenotype, slot) condition flags, mortality, and post-index
prescriptions. Output tables use the same CSV schemas the ingestion stage
reads, plus a ground-truth label table for recovery scoring.

Per-patient draws come from independent substreams of the master seed, so
generation is deterministic regardless of patient count or parallel order.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cohort import (
    DEMOGRAPHICS_COLUMNS,
    DIAGNOSES_COLUMNS,
    DEATHS_COLUMNS,
    PRESCRIPTIONS_COLUMNS,
    AgeGroup,
    CodeSystem,
    CohortConfig,
    DiagnosisEvent,
    PatientRecord,
    PrescriptionEvent,
    Race,
    RawTables,
    Sex,
)
from .drugs import AtcMap
from .phenotype import PhecodeMap
from .table import write_table

log = logging.getLogger(__name__)

# uniform age ranges drawn within each group (inclusive), all above the
# default minimum cohort age
_AGE_RANGES = {
    AgeGroup.UNDER_65.value: (45, 64),
    AgeGroup.FROM_65_TO_75.value: (65, 74),
    AgeGroup.FROM_75_TO_85.value: (75, 84),
    AgeGroup.OVER_85.value: (85, 94),
}


def _check_dist(name: str, dist: Mapping[str, float]) -> None:
    if not dist:
        raise ValueError(f"{name} must be non-empty")
    total = 0.0
    for key, p in dist.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}[{key!r}] = {p} outside [0,1]")
        total += p
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name} sums to {total}, expected 1")


@dataclass(frozen=True)
class SubtypeProfile:
    """Generative parameters for one planted subtype."""

    name: str
    mixture_weight: float
    condition_slot_prob: Mapping[tuple[str, int], float]
    sex_dist: Mapping[str, float]
    race_dist: Mapping[str, float]
    age_dist: Mapping[str, float]
    mortality_prob: float
    drug_class_probs: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not 0.0 < self.mixture_weight <= 1.0:
            raise ValueError(f"mixture_weight {self.mixture_weight} outside (0,1]")
        for (code, slot), p in self.condition_slot_prob.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"condition_slot_prob[{code},{slot}] = {p} outside [0,1]")
            if slot < 1:
                raise ValueError(f"slot {slot} must be >= 1")
        _check_dist(f"{self.name}.sex_dist", self.sex_dist)
        _check_dist(f"{self.name}.race_dist", self.race_dist)
        _check_dist(f"{self.name}.age_dist", self.age_dist)
        for group in self.age_dist:
            if group not in _AGE_RANGES:
                raise ValueError(f"unknown age group {group!r}")
        if not 0.0 <= self.mortality_prob <= 1.0:
            raise ValueError(f"mortality_prob {self.mortality_prob} outside [0,1]")
        for atc3, p in self.drug_class_probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"drug_class_probs[{atc3!r}] = {p} outside [0,1]")


def validate_profiles(profiles: Sequence[SubtypeProfile]) -> None:
    if not profiles:
        raise ValueError("need at least one profile")
    total = sum(p.mixture_weight for p in profiles)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {total}, expected 1")
    names = [p.name for p in profiles]
    if len(names) != len(set(names)):
        raise ValueError("profile names must be unique")


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def profile_to_dict(profile: SubtypeProfile) -> dict:
    nested: dict[str, dict[str, float]] = {}
    for (code, slot), p in sorted(profile.condition_slot_prob.items()):
        nested.setdefault(code, {})[str(slot)] = p
    return {
        "name": profile.name,
        "mixture_weight": profile.mixture_weight,
        "condition_slot_prob": nested,
        "sex_dist": dict(sorted(profile.sex_dist.items())),
        "race_dist": dict(sorted(profile.race_dist.items())),
        "age_dist": dict(sorted(profile.age_dist.items())),
        "mortality_prob": profile.mortality_prob,
        "drug_class_probs": dict(sorted(profile.drug_class_probs.items())),
    }


def profile_from_dict(data: Mapping) -> SubtypeProfile:
    try:
        flat: dict[tuple[str, int], float] = {}
        for code, slots in data["condition_slot_prob"].items():
            for slot, p in slots.items():
                flat[(str(code), int(slot))] = float(p)
        return SubtypeProfile(
            name=str(data["name"]),
            mixture_weight=float(data["mixture_weight"]),
            condition_slot_prob=flat,
            sex_dist={str(k): float(v) for k, v in data["sex_dist"].items()},
            race_dist={str(k): float(v) for k, v in data["race_dist"].items()},
            age_dist={str(k): float(v) for k, v in data["age_dist"].items()},
            mortality_prob=float(data["mortality_prob"]),
            drug_class_probs={
                str(k): float(v) for k, v in data.get("drug_class_probs", {}).items()
            },
        )
    except KeyError as exc:
        raise ValueError(f"profile JSON missing field {exc}") from exc


def save_profiles(profiles: Sequence[SubtypeProfile], path: str | Path) -> None:
    validate_profiles(profiles)
    payload = {"profiles": [profile_to_dict(p) for p in profiles]}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_profiles(path: str | Path) -> list[SubtypeProfile]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "profiles" not in data or not isinstance(data["profiles"], list):
        raise ValueError(f"{path}: expected a top-level 'profiles' list")
    profiles = [profile_from_dict(d) for d in data["profiles"]]
    validate_profiles(profiles)
    return profiles


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@dataclass
class SyntheticData:
    """Generated tables plus ground truth, ready for CSV or in-memory use."""

    patients: list[PatientRecord]
    diagnoses: list[DiagnosisEvent]
    prescriptions: list[PrescriptionEvent]
    truth: dict[str, int]
    profile_names: list[str]

    def to_raw_tables(self) -> RawTables:
        # mirror the CSV route: deaths ride in their own table, patient rows
        # carry no death flags until cohort selection merges them back
        return RawTables(
            patients=[replace(p, died=False, death_date=None) for p in self.patients],
            diagnoses=list(self.diagnoses),
            prescriptions=list(self.prescriptions),
            deaths={
                p.patient_id: p.death_date
                for p in self.patients
                if p.died and p.death_date is not None
            },
        )

    def write_tables(self, out_dir: str | Path, meta: str | None = None) -> list[str]:
        """Write the four input tables plus truth_labels.csv; returns names."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)

        tables = {
            "patients.csv": (
                DEMOGRAPHICS_COLUMNS,
                (
                    [p.patient_id, p.sex.value, p.race.value, p.birth_date.isoformat()]
                    for p in self.patients
                ),
            ),
            "diagnoses.csv": (
                DIAGNOSES_COLUMNS,
                (
                    [d.patient_id, d.code, d.system.value, d.date.isoformat()]
                    for d in self.diagnoses
                ),
            ),
            "prescriptions.csv": (
                PRESCRIPTIONS_COLUMNS,
                ([r.patient_id, r.rxcui, r.date.isoformat()] for r in self.prescriptions),
            ),
            "deaths.csv": (
                DEATHS_COLUMNS,
                (
                    [p.patient_id, p.death_date.isoformat()]
                    for p in self.patients
                    if p.died and p.death_date is not None
                ),
            ),
            "truth_labels.csv": (
                ["patient_id", "profile_index", "profile_name"],
                ([pid, str(idx), self.profile_names[idx]] for pid, idx in self.truth.items()),
            ),
        }
        for name, (header, rows) in tables.items():
            write_table(out / name, header, rows, meta)
        return list(tables)


def _draw_categorical(rng: np.random.Generator, dist: Mapping[str, float]) -> str:
    items = sorted(dist.items())
    cum = np.cumsum([p for _, p in items])
    u = rng.random() * cum[-1]
    idx = int(np.searchsorted(cum, u, side="right"))
    return items[min(idx, len(items) - 1)][0]


def _anniversary(base: date, years_back: int) -> date:
    try:
        return base.replace(year=base.year - years_back)
    except ValueError:  # Feb 29 to a non-leap year
        return base.replace(year=base.year - years_back, day=28)


def generate_cohort(
    profiles: Sequence[SubtypeProfile],
    n_patients: int,
    seed: int,
    config: CohortConfig | None = None,
    phecode_map: PhecodeMap | None = None,
    atc_map: AtcMap | None = None,
) -> SyntheticData:
    """Generate tables for n_patients drawn from the profile mixture.

    Diagnosis dates are generated slot-first (pick the slot, then a uniform
    day inside it), so every event lands in its intended timeslot by
    construction. Condition ICD codes are drawn from those mapping to the
    planted phecode; prescription RxCUIs from those mapping to the planted
    ATC3 class. Each patient uses the rng substream [seed, i].
    """
    validate_profiles(profiles)
    if n_patients < len(profiles):
        raise ValueError(f"n_patients {n_patients} < number of profiles {len(profiles)}")
    config = config or CohortConfig()
    if phecode_map is None or atc_map is None:
        from .data import default_atc_map, default_phecode_map

        phecode_map = phecode_map or default_phecode_map()
        atc_map = atc_map or default_atc_map()

    code_pool: dict[str, list[tuple[str, CodeSystem]]] = {}
    for profile in profiles:
        for code, _slot in profile.condition_slot_prob:
            if code not in code_pool:
                pool = phecode_map.codes_for_phecode(code)
                if not pool:
                    raise ValueError(f"no ICD codes map to phecode {code!r}")
                code_pool[code] = pool
    rx_pool: dict[str, list[str]] = {}
    for profile in profiles:
        for atc3 in profile.drug_class_probs:
            if atc3 not in rx_pool:
                pool = sorted(
                    rxcui
                    for rxcui, classes in atc_map.entries.items()
                    if any(c == atc3 for c, _ in classes)
                )
                if not pool:
                    raise ValueError(f"no RxCUIs map to ATC3 class {atc3!r}")
                rx_pool[atc3] = pool

    weights = np.cumsum([p.mixture_weight for p in profiles])
    window_days = (config.window_end - config.window_start).days
    ad_codes = sorted(config.ad_code_set)
    slot_days = config.slot_days

    patients: list[PatientRecord] = []
    diagnoses: list[DiagnosisEvent] = []
    prescriptions: list[PrescriptionEvent] = []
    truth: dict[str, int] = {}
    width = len(str(n_patients - 1))

    for i in range(n_patients):
        rng = np.random.default_rng([seed, i])
        pid = f"P{i:0{width}d}"

        k = int(np.searchsorted(weights, rng.random() * weights[-1], side="right"))
        k = min(k, len(profiles) - 1)
        profile = profiles[k]
        truth[pid] = k

        sex = Sex(_draw_categorical(rng, profile.sex_dist))
        race = Race(_draw_categorical(rng, profile.race_dist))
        group = _draw_categorical(rng, profile.age_dist)
        lo, hi = _AGE_RANGES[group]
        age = int(rng.integers(lo, hi + 1))

        index_date = config.window_start + timedelta(days=int(rng.integers(0, window_days + 1)))
        birth_date = _anniversary(index_date, age)

        ad_code = ad_codes[int(rng.integers(0, len(ad_codes)))]
        ad_system = CodeSystem.ICD9 if ad_code.replace(".", "").isdigit() else CodeSystem.ICD10CM
        diagnoses.append(DiagnosisEvent(pid, ad_code, ad_system, index_date))

        for (code, slot), p in sorted(profile.condition_slot_prob.items()):
            if slot > config.slot_count:
                raise ValueError(f"profile {profile.name}: slot {slot} beyond {config.slot_count}")
            if rng.random() >= p:
                continue
            day = (slot - 1) * slot_days + int(rng.integers(0, slot_days))
            event_date = index_date - timedelta(days=day)
            pool = code_pool[code]
            icd, system = pool[int(rng.integers(0, len(pool)))]
            diagnoses.append(DiagnosisEvent(pid, icd, system, event_date))

        died = rng.random() < profile.mortality_prob
        death_date = None
        if died:
            death_date = index_date + timedelta(days=int(rng.integers(30, 1096)))

        for atc3, p in sorted(profile.drug_class_probs.items()):
            if rng.random() >= p:
                continue
            rx_date = index_date + timedelta(days=int(rng.integers(0, 366)))
            pool = rx_pool[atc3]
            rxcui = pool[int(rng.integers(0, len(pool)))]
            prescriptions.append(PrescriptionEvent(pid, rxcui, rx_date))

        patients.append(
            PatientRecord(
                patient_id=pid,
                sex=sex,
                race=race,
                birth_date=birth_date,
                died=died,
                death_date=death_date,
            )
        )

    return SyntheticData(
        patients=patients,
        diagnoses=diagnoses,
        prescriptions=prescriptions,
        truth=truth,
        profile_names=[p.name for p in profiles],
    )


# ---------------------------------------------------------------------------
# Bundled profile sets
# ---------------------------------------------------------------------------

_COMMON = dict(
    sex_dist={"F": 0.58, "M": 0.40, "UN": 0.02},
    age_dist={"<65": 0.15, "65-75": 0.30, "75-85": 0.35, ">=85": 0.20},
)

# race mixes keep every included category common enough that indicator
# columns stay well-populated in regression fits
_RACE_MIXES = [
    {"05": 0.62, "03": 0.20, "02": 0.08, "06": 0.04, "01": 0.03, "UN": 0.03},
    {"05": 0.55, "03": 0.25, "02": 0.10, "06": 0.04, "01": 0.03, "UN": 0.03},
    {"05": 0.70, "03": 0.14, "02": 0.08, "06": 0.03, "01": 0.02, "UN": 0.03},
    {"05": 0.60, "03": 0.22, "02": 0.09, "06": 0.03, "01": 0.03, "UN": 0.03},
]


def demo_profiles() -> list[SubtypeProfile]:
    """Four demo subtypes with distinct temporal comorbidity narratives.

    Subtype 0: long history of hypertension and type 2 diabetes across all
    slots. Subtype 1: relatively sparse utilization. Subtype 2: late-rising
    mood/cognitive conditions near the index date with the highest
    mortality. Subtype 3: dementias and cerebrovascular disease already
    present several slots before the index date.
    """
    from .data import default_vocabulary

    all_slots = range(1, 7)

    def spread(code: str, prob: float, slots=all_slots) -> dict:
        return {(code, s): prob for s in slots}

    # every bundled condition gets a baseline rate decaying with its rank so
    # the ranked vocabulary stage always finds the full forty
    base = {}
    for rank, code in enumerate(default_vocabulary().codes()):
        base.update(spread(code, 0.02 + 0.12 * 0.93**rank))
    base.update(spread("401.1", 0.30))
    base.update(spread("272.1", 0.22))

    p0 = dict(base)
    p0.update(spread("401.1", 0.85))
    p0.update(spread("250.2", 0.75))
    p0.update(spread("272.1", 0.55))
    p0.update(spread("585.3", 0.30))

    p1 = {cell: p * 0.4 for cell, p in base.items()}

    p2 = dict(base)
    p2.update(spread("296.2", 0.55, [1, 2]))
    p2.update(spread("300.1", 0.50, [1, 2]))
    p2.update(spread("290.1", 0.60, [1]))
    p2.update(spread("348.8", 0.35, [1, 2, 3]))
    p2.update(spread("292.4", 0.40, [1, 2]))

    p3 = dict(base)
    p3.update(spread("290.1", 0.80, [1, 2, 3, 4]))
    p3.update(spread("433.31", 0.45))
    p3.update(spread("292.4", 0.40, [1, 2, 3]))
    p3.update(spread("350.2", 0.35, [2, 3, 4, 5]))

    drugs = [
        {"N06D": 0.55, "C09A": 0.45, "A10A": 0.50, "C10A": 0.45, "B01A": 0.35},
        {"N02B": 0.30, "A02B": 0.25, "N06D": 0.35, "A06A": 0.15, "H02A": 0.10},
        {"N06A": 0.55, "N05C": 0.40, "N06D": 0.45, "N03A": 0.30},
        {"N06D": 0.60, "B01A": 0.50, "C07A": 0.40, "N06A": 0.35},
    ]
    mortality = [0.16, 0.10, 0.25, 0.20]
    weights = [0.17, 0.46, 0.20, 0.17]
    cells = [p0, p1, p2, p3]
    return [
        SubtypeProfile(
            name=f"subtype_{i}",
            mixture_weight=weights[i],
            condition_slot_prob=cells[i],
            race_dist=_RACE_MIXES[i],
            mortality_prob=mortality[i],
            drug_class_probs=drugs[i],
            **_COMMON,
        )
        for i in range(4)
    ]


def well_separated_profiles(
    phecodes: Sequence[str],
    k: int = 4,
    cells_per_profile: int = 12,
    p_high: float = 0.9,
    p_low: float = 0.05,
    slot_count: int = 6,
) -> list[SubtypeProfile]:
    """Profiles with disjoint high-probability signature cells.

    Every profile shares a low baseline on all (phecode, slot) cells it
    touches and raises cells_per_profile disjoint cells to p_high, giving a
    planted separation of p_high - p_low per signature cell.
    """
    needed = k * cells_per_profile
    cells = [(code, s) for code in phecodes for s in range(1, slot_count + 1)]
    if len(cells) < needed:
        raise ValueError(f"need {needed} cells, only {len(cells)} available")
    profiles = []
    for i in range(k):
        sig = cells[i * cells_per_profile : (i + 1) * cells_per_profile]
        probs = {cell: p_low for cell in cells[:needed]}
        probs.update({cell: p_high for cell in sig})
        profiles.append(
            SubtypeProfile(
                name=f"planted_{i}",
                mixture_weight=1.0 / k,
                condition_slot_prob=probs,
                race_dist=_RACE_MIXES[i % len(_RACE_MIXES)],
                mortality_prob=0.15,
                drug_class_probs={},
                **_COMMON,
            )
        )
    return profiles
