"""generate_cohort against a per-draw reference, on seeded random profiles and configs.

The reference below draws each patient the plain way: a closure per
categorical draw that takes its own scalar uniform, the AD code's system
worked out per patient, and a date object per event rendered with
isoformat. generate_cohort must give exactly what it gives: the same
patients, diagnosis and prescription rows, truth labels and written bytes.
"""

import random
from bisect import bisect_right
from datetime import date, timedelta

import numpy as np
import pytest

from adsubtype.cohort import (
    DEFAULT_AD_CODES,
    AgeGroup,
    CodeSystem,
    CohortConfig,
    PatientRecord,
    Race,
    Sex,
)
from adsubtype.data import default_atc_map, default_phecode_map, default_vocabulary
from adsubtype.synth import SubtypeProfile, SyntheticData, generate_cohort, validate_profiles

# ---------------------------------------------------------------------------
# reference: one call per draw
# ---------------------------------------------------------------------------

AGE_RANGES = {"<65": (45, 64), "65-75": (65, 74), "75-85": (75, 84), ">=85": (85, 94)}


def _ref_pick(cum, rng):
    return min(bisect_right(cum, rng.random() * cum[-1]), len(cum) - 1)


def _ref_categorical(dist):
    labels, probs = zip(*sorted(dist.items()))
    cum = np.cumsum(probs).tolist()
    return lambda rng: labels[_ref_pick(cum, rng)]


def _ref_anniversary(base, years_back):
    try:
        return base.replace(year=base.year - years_back)
    except ValueError:
        return base.replace(year=base.year - years_back, day=28)


def reference_cohort(profiles, n_patients, seed, config, phecode_map, atc_map):
    validate_profiles(profiles)
    code_pool = {}
    rx_pool = {}
    for profile in profiles:
        for code, _ in profile.condition_slot_prob:
            pool = phecode_map.codes_for_phecode(code)
            code_pool[code] = [(icd, system.value) for icd, system in pool]
        for atc3 in profile.drug_class_probs:
            rx_pool[atc3] = sorted(
                rxcui for rxcui, classes in atc_map.entries.items()
                if any(c == atc3 for c, _ in classes)
            )

    weights = np.cumsum([p.mixture_weight for p in profiles]).tolist()
    window_start = config.window_start.toordinal()
    window_days = config.window_end.toordinal() - window_start
    ad_codes = sorted(config.ad_code_set)
    slot_days = config.slot_days

    plans = []
    for profile in profiles:
        rows = [(p, 1 - slot * slot_days, (1 - slot) * slot_days, code_pool[code])
                for (code, slot), p in sorted(profile.condition_slot_prob.items())]
        n_cells = len(rows)
        rows += [(p, 0, 365, rx_pool[atc3]) for atc3, p in sorted(profile.drug_class_probs.items())]
        probs = np.array([row[0] for row in rows], dtype=float)
        lows = np.array([[row[1] for row in rows], [0] * len(rows)], dtype=np.int64)
        highs = np.array([[row[2] + 1 for row in rows], [len(row[3]) for row in rows]],
                         dtype=np.int64)
        plans.append((_ref_categorical(profile.sex_dist), _ref_categorical(profile.race_dist),
                      _ref_categorical(profile.age_dist), probs, lows, highs,
                      [row[3] for row in rows], n_cells))

    patients, diagnoses, prescriptions, truth = [], [], [], {}
    width = len(str(n_patients - 1))
    for i in range(n_patients):
        rng = np.random.default_rng([seed, i])
        pid = f"P{i:0{width}d}"

        k = _ref_pick(weights, rng)
        profile = profiles[k]
        truth[pid] = k

        draw_sex, draw_race, draw_age_group, probs, lows, highs, pools, n_cells = plans[k]
        sex = Sex(draw_sex(rng))
        race = Race(draw_race(rng))
        lo, hi = AGE_RANGES[draw_age_group(rng)]
        age = int(rng.integers(lo, hi + 1))

        index_ordinal = window_start + int(rng.integers(0, window_days + 1))
        index_date = date.fromordinal(index_ordinal)
        birth_date = _ref_anniversary(index_date, age)

        ad_code = ad_codes[int(rng.integers(0, len(ad_codes)))]
        ad_system = CodeSystem.ICD9 if ad_code.replace(".", "").isdigit() else CodeSystem.ICD10CM
        diagnoses.append([pid, ad_code, ad_system.value, index_date.isoformat()])

        died = rng.random() < profile.mortality_prob
        death_date = None
        if died:
            death_date = date.fromordinal(index_ordinal + int(rng.integers(30, 1096)))

        hit = (rng.random(probs.size) < probs).nonzero()[0]
        days, picks = rng.integers(lows[:, hit], highs[:, hit]).tolist()
        for j, day, pick in zip(hit.tolist(), days, picks):
            when = date.fromordinal(index_ordinal + day).isoformat()
            if j < n_cells:
                diagnoses.append([pid, *pools[j][pick], when])
            else:
                prescriptions.append([pid, pools[j][pick], when])

        patients.append(PatientRecord(pid, sex, race, birth_date, died, death_date))

    return SyntheticData(patients, diagnoses, prescriptions, truth, [p.name for p in profiles])


# ---------------------------------------------------------------------------
# seeded random profiles and configs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def maps():
    atc_map = default_atc_map()
    return default_phecode_map(), atc_map, default_vocabulary().codes(), sorted(atc_map.class_names())


def _dist(r, labels):
    """Weights over a random nonempty subset of labels; a single label a quarter of the time."""
    chosen = r.sample(labels, 1 if r.random() < 0.25 else r.randint(1, len(labels)))
    raw = [r.random() + 0.01 for _ in chosen]
    return {label: w / sum(raw) for label, w in zip(chosen, raw)}


def _probability(r):
    return r.choice([0.0, 1.0, r.random(), r.random() * 0.1])


def random_profiles(r, phecodes, classes, slot_count):
    n = r.randint(1, 4)
    raw = [r.random() + 0.01 for _ in range(n)]
    weights = [w / sum(raw) for w in raw]
    profiles = []
    for i in range(n):
        cells = {(code, s): _probability(r)
                 for code in r.sample(phecodes, r.randint(0, 6))
                 for s in r.sample(range(1, slot_count + 1), r.randint(1, slot_count))}
        profiles.append(SubtypeProfile(
            name=f"p{i}",
            mixture_weight=weights[i],
            condition_slot_prob=cells,
            sex_dist=_dist(r, [s.value for s in Sex]),
            race_dist=_dist(r, [x.value for x in Race]),
            age_dist=_dist(r, [a.value for a in AgeGroup]),
            mortality_prob=_probability(r),
            drug_class_probs={c: _probability(r) for c in r.sample(classes, r.randint(0, 4))},
        ))
    return profiles


def random_config(r):
    start = date(1999, 1, 1) + timedelta(days=r.randrange(9000))
    return CohortConfig(
        ad_code_set=frozenset(r.sample(sorted(DEFAULT_AD_CODES), r.randint(1, len(DEFAULT_AD_CODES)))),
        window_start=start,
        window_end=start + timedelta(days=r.choice([1, 2, r.randint(3, 4000)])),
        slot_count=r.randint(1, 8),
        slot_days=r.choice([1, r.randint(2, 400)]),
    )


# a window around 29 Feb 2016 two days long, with one-category demographics,
# certain death, every cell and class certain: each patient's index date is
# a window edge or a leap day, and the cohort holds deaths at +30 and +1095
# days, events on the oldest slot's first day and on the index date, and
# prescriptions at +365 days, from window-end index dates too
EDGE_CONFIG = CohortConfig(
    ad_code_set=frozenset({"331.0", "G30.9"}),
    window_start=date(2016, 2, 28),
    window_end=date(2016, 3, 1),
    slot_count=2,
    slot_days=3,
)


def edge_profiles(phecodes, classes):
    certain = SubtypeProfile(
        name="certain",
        mixture_weight=0.9,
        condition_slot_prob={(code, s): 1.0 for code in phecodes[:2] for s in (1, 2)},
        sex_dist={"F": 1.0},
        race_dist={"05": 1.0},
        age_dist={"75-85": 1.0},
        mortality_prob=1.0,
        drug_class_probs={classes[0]: 1.0},
    )
    # patients of this profile get no hit at all
    empty = SubtypeProfile("empty", 0.1, {(phecodes[0], 1): 0.0}, {"M": 1.0}, {"03": 1.0},
                           {"<65": 1.0}, 0.0, {classes[1]: 0.0})
    return [certain, empty]


def _assert_same(data, ref, tmp_path):
    assert data.patients == ref.patients
    assert data.diagnoses == ref.diagnoses
    assert data.prescriptions == ref.prescriptions
    assert data.truth == ref.truth
    assert data.profile_names == ref.profile_names
    names = data.write_tables(tmp_path / "new", "meta")
    assert ref.write_tables(tmp_path / "ref", "meta") == names
    for name in names:
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


@pytest.mark.parametrize("case", range(8))
def test_generate_cohort_matches_the_reference(case, maps, tmp_path):
    pmap, atc_map, phecodes, classes = maps
    r = random.Random(case)
    config = random_config(r)
    profiles = random_profiles(r, phecodes, classes, config.slot_count)
    n, seed = r.randint(len(profiles), 400), r.randrange(2**32)
    data = generate_cohort(profiles, n, seed, config, pmap, atc_map)
    _assert_same(data, reference_cohort(profiles, n, seed, config, pmap, atc_map), tmp_path)


def test_generate_cohort_matches_the_reference_on_the_edges(maps, tmp_path):
    pmap, atc_map, phecodes, classes = maps
    profiles = edge_profiles(phecodes, classes)
    ref = reference_cohort(profiles, 3000, 5, EDGE_CONFIG, pmap, atc_map)
    index = {row[0]: date.fromisoformat(row[3]) for row in ref.diagnoses if row[1] in ("331.0", "G30.9")}
    died = [(p.death_date - index[p.patient_id]).days for p in ref.patients if p.died]
    assert {30, 1095} <= set(died)
    assert sorted(set(index.values())) == [date(2016, 2, 28), date(2016, 2, 29), date(2016, 3, 1)]
    # a leap-day index date whose birthday falls in a common year
    assert any(index[p.patient_id] == date(2016, 2, 29) and p.birth_date.day == 28
               for p in ref.patients)
    offsets = {(date.fromisoformat(row[-1]) - index[row[0]]).days for row in ref.diagnoses}
    assert {-5, 0} <= offsets  # the oldest slot's first day, and the index date
    rx_ends = {index[pid] for pid, _, when in ref.prescriptions
               if (date.fromisoformat(when) - index[pid]).days == 365}
    assert date(2016, 3, 1) in rx_ends and date(2016, 2, 28) in rx_ends
    with_events = {row[0] for row in ref.diagnoses if row[1] not in ("331.0", "G30.9")}
    assert len(with_events) < len(ref.patients)  # some patients have no hit
    data = generate_cohort(profiles, 3000, 5, EDGE_CONFIG, pmap, atc_map)
    _assert_same(data, ref, tmp_path)
