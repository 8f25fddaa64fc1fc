"""Seeded synthetic cohort generator with planted subtypes.

Each patient draws a subtype profile, demographics, an index diagnosis
date, per-(phenotype, slot) condition flags, mortality, and post-index
prescriptions. Diagnoses and prescriptions are kept as the CSV rows the
ingestion stage reads, strings exactly as written, and a ground-truth label
table is written beside them for recovery scoring. The in-memory tables are
ingest's own parse of those CSVs, so the two routes cannot differ.

Patient i draws from its own substream [seed, i] of the master seed, so
generation is deterministic regardless of patient count or parallel order.
Within a patient the draws come in this order: four uniforms from one call,
for the profile, sex, race and age group, each looked up in cumulative
weights over sorted labels; integers for the age, index date and AD code;
mortality; then one uniform per planted condition and drug class of the
profile and, for the ones that fire, one vector integer call for their days
and pool picks. Event dates are written from one list of ISO strings, one a day.
"""

from __future__ import annotations

import json
import logging
import tempfile
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from .cohort import (
    DEMOGRAPHICS_COLUMNS,
    DIAGNOSES_COLUMNS,
    DEATHS_COLUMNS,
    PRESCRIPTIONS_COLUMNS,
    AgeGroup,
    CodeSystem,
    CohortConfig,
    PatientRecord,
    Race,
    RawTables,
    Sex,
    parse_tables,
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


def _check_dist(name: str, dist: Mapping[str, float], keys: Collection[str]) -> None:
    if not dist:
        raise ValueError(f"{name} must be non-empty")
    total = 0.0
    for key, p in dist.items():
        if key not in keys:
            raise ValueError(f"{name}: unknown key {key!r}, expected one of {sorted(keys)}")
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
    drug_class_probs: Mapping[str, float]

    def __post_init__(self):
        if not 0.0 < self.mixture_weight <= 1.0:
            raise ValueError(f"mixture_weight {self.mixture_weight} outside (0,1]")
        for (code, slot), p in self.condition_slot_prob.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"condition_slot_prob[{code},{slot}] = {p} outside [0,1]")
            if slot < 1:
                raise ValueError(f"slot {slot} must be >= 1")
        _check_dist(f"{self.name}.sex_dist", self.sex_dist, {s.value for s in Sex})
        _check_dist(f"{self.name}.race_dist", self.race_dist, {r.value for r in Race})
        _check_dist(f"{self.name}.age_dist", self.age_dist, _AGE_RANGES)
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


def load_profiles(path: str | Path) -> list[SubtypeProfile]:
    data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    if not isinstance(data, dict) or not isinstance(data.get("profiles"), list):
        raise ValueError(f"{path}: expected a top-level 'profiles' list")
    profiles = [profile_from_dict(d) for d in data["profiles"]]
    validate_profiles(profiles)
    return profiles


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@dataclass
class SyntheticData:
    """Generated tables plus ground truth.

    diagnoses and prescriptions hold the data rows of diagnoses.csv and
    prescriptions.csv, each a list of strings exactly as write_tables writes
    it; to_raw_tables is ingest's parse of the written tables.
    """

    patients: list[PatientRecord]
    diagnoses: list[list[str]]
    prescriptions: list[list[str]]
    truth: dict[str, int]
    profile_names: list[str]

    def to_raw_tables(self) -> RawTables:
        """parse_tables of the four input tables write_tables writes."""
        with tempfile.TemporaryDirectory() as tmp:
            self.write_tables(tmp, "to_raw_tables")
            out = Path(tmp)
            return parse_tables(
                out / "patients.csv", out / "diagnoses.csv",
                out / "prescriptions.csv", out / "deaths.csv",
            )

    def write_tables(self, out_dir: str | Path, meta: str) -> list[str]:
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
            "diagnoses.csv": (DIAGNOSES_COLUMNS, self.diagnoses),
            "prescriptions.csv": (PRESCRIPTIONS_COLUMNS, self.prescriptions),
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


def _pick(cum: list[float], u: float) -> int:
    """Index of the uniform u against the cumulative weights cum."""
    return min(bisect_right(cum, u * cum[-1]), len(cum) - 1)


def _table(dist: Mapping[str, float], value) -> tuple[list, list[float]]:
    """dist's labels in sorted order, each as value(label), and their cumulative weights."""
    labels, probs = zip(*sorted(dist.items()))
    return [value(label) for label in labels], np.cumsum(probs).tolist()


def _plan(rows: list[tuple[float, int, int, list]]) -> tuple:
    """Planted (probability, first day, last day, pool) rows as arrays.

    Days are inclusive offsets from the index date. Row j fires when its
    uniform is below probs[j]; a hit's day and pool pick are then drawn in
    one vector call, from [lows[0, j], highs[0, j]) and [0, highs[1, j]).
    """
    probs = np.array([row[0] for row in rows], dtype=float)
    lows = np.array([[row[1] for row in rows], [0] * len(rows)], dtype=np.int64)
    highs = np.array([[row[2] + 1 for row in rows], [len(row[3]) for row in rows]], dtype=np.int64)
    return probs, lows, highs, [row[3] for row in rows]


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

    # pools hold each pick as rendered in its CSV row: (icd, system) or rxcui
    code_pool: dict[str, list[tuple[str, str]]] = {}
    for profile in profiles:
        for code, slot in profile.condition_slot_prob:
            if slot > config.slot_count:
                raise ValueError(f"profile {profile.name}: slot {slot} beyond {config.slot_count}")
            if code not in code_pool:
                pool = phecode_map.codes_for_phecode(code)
                if not pool:
                    raise ValueError(f"no ICD codes map to phecode {code!r}")
                code_pool[code] = [(icd, system.value) for icd, system in pool]
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

    weights = np.cumsum([p.mixture_weight for p in profiles]).tolist()
    window_start = config.window_start.toordinal()
    window_days = config.window_end.toordinal() - window_start
    ad_codes = [(c, (CodeSystem.ICD9 if c.replace(".", "").isdigit() else CodeSystem.ICD10CM).value)
                for c in sorted(config.ad_code_set)]
    slot_days = config.slot_days
    # the ISO text of each day an event can fall on: the first day of the oldest
    # slot before the window start through the last prescription day after its end
    first_day = window_start + 1 - config.slot_count * slot_days
    day_text = [date.fromordinal(o).isoformat()
                for o in range(first_day, window_start + window_days + 366)]

    # per profile: the sex, race and age-group tables, the mortality and one
    # _plan, whose first n_cells rows are the planted conditions in sorted
    # (phecode, slot) order, dated inside their slot before the index date, and
    # the rest the sorted drug classes, dated in the year from the index date
    plans = []
    for profile in profiles:
        rows = [(p, 1 - slot * slot_days, (1 - slot) * slot_days, code_pool[code])
                for (code, slot), p in sorted(profile.condition_slot_prob.items())]
        n_cells = len(rows)
        rows += [(p, 0, 365, rx_pool[atc3]) for atc3, p in sorted(profile.drug_class_probs.items())]
        plans.append((*_table(profile.sex_dist, Sex), *_table(profile.race_dist, Race),
                      *_table(profile.age_dist, _AGE_RANGES.__getitem__),
                      profile.mortality_prob, _plan(rows), n_cells))

    patients: list[PatientRecord] = []
    diagnoses: list[list[str]] = []
    prescriptions: list[list[str]] = []
    truth: dict[str, int] = {}
    width = len(str(n_patients - 1))

    for i in range(n_patients):
        rng = np.random.default_rng([seed, i])
        pid = f"P{i:0{width}d}"

        u_profile, u_sex, u_race, u_age = rng.random(4).tolist()
        k = _pick(weights, u_profile)
        truth[pid] = k

        sexes, sex_cum, races, race_cum, ages, age_cum, mortality, plan, n_cells = plans[k]
        probs, lows, highs, pools = plan
        lo, hi = ages[_pick(age_cum, u_age)]
        age = int(rng.integers(lo, hi + 1))

        index_ordinal = window_start + int(rng.integers(0, window_days + 1))
        index_day = index_ordinal - first_day
        birth_date = _anniversary(date.fromordinal(index_ordinal), age)

        diagnoses.append([pid, *ad_codes[int(rng.integers(0, len(ad_codes)))], day_text[index_day]])

        died = rng.random() < mortality
        death_date = None
        if died:
            death_date = date.fromordinal(index_ordinal + int(rng.integers(30, 1096)))

        hit = (rng.random(probs.size) < probs).nonzero()[0]
        days, picks = rng.integers(lows[:, hit], highs[:, hit]).tolist()
        for j, day, pick in zip(hit.tolist(), days, picks):
            when = day_text[index_day + day]
            if j < n_cells:
                diagnoses.append([pid, *pools[j][pick], when])
            else:
                prescriptions.append([pid, pools[j][pick], when])

        patients.append(
            PatientRecord(
                patient_id=pid,
                sex=sexes[_pick(sex_cum, u_sex)],
                race=races[_pick(race_cum, u_race)],
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

    all_slots = range(1, CohortConfig.slot_count + 1)

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


# probability of a well-separated profile's signature cells and of its baseline
P_HIGH = 0.9
P_LOW = 0.05


def well_separated_profiles(
    phecodes: Sequence[str], k: int, cells_per_profile: int = 12
) -> list[SubtypeProfile]:
    """Profiles with disjoint high-probability signature cells.

    Every profile shares a P_LOW baseline on all (phecode, slot) cells it
    touches, over the default cohort's slots, and raises cells_per_profile
    disjoint cells to P_HIGH, giving a planted separation of P_HIGH - P_LOW
    per signature cell.
    """
    needed = k * cells_per_profile
    slots = range(1, CohortConfig.slot_count + 1)
    cells = [(code, s) for code in phecodes for s in slots]
    if len(cells) < needed:
        raise ValueError(f"need {needed} cells, only {len(cells)} available")
    profiles = []
    for i in range(k):
        sig = cells[i * cells_per_profile : (i + 1) * cells_per_profile]
        probs = {cell: P_LOW for cell in cells[:needed]}
        probs.update({cell: P_HIGH for cell in sig})
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
