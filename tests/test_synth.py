"""Synthetic cohort generator: profiles, determinism, and planted structure."""

import ast
import math
import re
import tracemalloc
from datetime import date
from pathlib import Path

import pytest

from adsubtype.cohort import (
    DIAGNOSES_COLUMNS,
    PRESCRIPTIONS_COLUMNS,
    CohortConfig,
    assign_timeslot,
    parse_tables,
    select_cohort,
)
from adsubtype.data import default_atc_map, default_phecode_map
from adsubtype.drugs import AtcMap
from adsubtype.table import read_table
from adsubtype.synth import (
    SubtypeProfile,
    _anniversary,
    generate_cohort,
    load_profiles,
    demo_profiles,
    profile_from_dict,
    validate_profiles,
    well_separated_profiles,
)

from conftest import event_rows, profile_dict, write_profiles

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "adsubtype"

SEX = {"F": 0.6, "M": 0.4}
RACE = {"05": 0.7, "03": 0.3}
AGE = {"65-75": 1.0}


def _profile(name, weight, cells, mortality=0.0, drugs=None):
    return SubtypeProfile(
        name=name,
        mixture_weight=weight,
        condition_slot_prob=cells,
        sex_dist=SEX,
        race_dist=RACE,
        age_dist=AGE,
        mortality_prob=mortality,
        drug_class_probs=drugs or {},
    )


def _atc_map():
    return AtcMap({"11": frozenset({("N02B", "pain")}), "22": frozenset({("B01A", "blood")})})


# ---------------------------------------------------------------------------
# profile validation and JSON schema
# ---------------------------------------------------------------------------


def test_profile_validation_errors():
    with pytest.raises(ValueError, match="mixture_weight"):
        _profile("x", 0.0, {("401.1", 1): 0.5})
    with pytest.raises(ValueError, match="outside"):
        _profile("x", 1.0, {("401.1", 1): 1.5})
    with pytest.raises(ValueError, match="slot"):
        _profile("x", 1.0, {("401.1", 0): 0.5})
    with pytest.raises(ValueError, match=r"^x\.age_dist: unknown key 'young'"):
        SubtypeProfile("x", 1.0, {}, SEX, RACE, {"young": 1.0}, 0.1, {})
    with pytest.raises(ValueError, match=r"^x\.sex_dist: unknown key 'Female'"):
        SubtypeProfile("x", 1.0, {}, {"Female": 1.0}, RACE, AGE, 0.1, {})
    # a profiles JSON naming races by label, not by code, fails on load
    data = profile_dict(_profile("x", 1.0, {}))
    data["race_dist"] = {"White": 0.7, "03": 0.3}
    with pytest.raises(ValueError, match=r"^x\.race_dist: unknown key 'White'"):
        profile_from_dict(data)
    with pytest.raises(ValueError, match="sums to"):
        SubtypeProfile("x", 1.0, {}, {"F": 0.5, "M": 0.4}, RACE, AGE, 0.1, {})
    with pytest.raises(ValueError, match="mortality_prob"):
        _profile("x", 1.0, {}, mortality=1.2)
    with pytest.raises(ValueError, match="drug_class_probs"):
        _profile("x", 1.0, {}, drugs={"N02B": -0.1})


def test_validate_profiles():
    good = [_profile("a", 0.6, {("401.1", 1): 0.5}), _profile("b", 0.4, {})]
    validate_profiles(good)
    with pytest.raises(ValueError, match="weights sum"):
        validate_profiles([_profile("a", 0.6, {}), _profile("b", 0.6, {})])
    with pytest.raises(ValueError, match="unique"):
        validate_profiles([_profile("a", 0.5, {}), _profile("a", 0.5, {})])
    with pytest.raises(ValueError, match="at least one"):
        validate_profiles([])


def test_profile_dict_round_trip():
    profile = _profile(
        "rt", 1.0, {("401.1", 1): 0.8, ("401.1", 3): 0.2, ("250.2", 6): 0.4},
        mortality=0.15, drugs={"N02B": 0.3},
    )
    data = profile_dict(profile)
    assert data["condition_slot_prob"] == {
        "250.2": {"6": 0.4},
        "401.1": {"1": 0.8, "3": 0.2},
    }
    back = profile_from_dict(data)
    assert back == profile


def test_profile_from_dict_missing_field():
    data = profile_dict(_profile("x", 1.0, {}))
    del data["mortality_prob"]
    with pytest.raises(ValueError, match="missing field"):
        profile_from_dict(data)


def test_save_load_profiles(tmp_path):
    profiles = [_profile("a", 0.7, {("401.1", 2): 0.9}), _profile("b", 0.3, {})]
    path = tmp_path / "profiles.json"
    write_profiles(profiles, path)
    assert load_profiles(path) == profiles
    (tmp_path / "bad.json").write_text('{"not_profiles": []}')
    with pytest.raises(ValueError, match="'profiles' list"):
        load_profiles(tmp_path / "bad.json")


def test_load_profiles_with_byte_order_mark(tmp_path):
    profiles = [_profile("a", 1.0, {("401.1", 2): 0.9})]
    path = tmp_path / "profiles.json"
    write_profiles(profiles, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_profiles(path) == profiles


@pytest.mark.parametrize("text", ["3", "[]", '"profiles"', "null"])
def test_load_profiles_refuses_a_non_object(tmp_path, text):
    path = tmp_path / "profiles.json"
    path.write_text(text)
    expected = re.escape(f"{path}: expected a top-level 'profiles' list")
    with pytest.raises(ValueError, match=expected):
        load_profiles(path)


# ---------------------------------------------------------------------------
# draw helpers
# ---------------------------------------------------------------------------


def test_draw_categorical_insertion_order_does_not_matter(tiny_pmap, tmp_path):
    # two profiles whose distributions differ only in key order write the same tables
    dists = dict(
        condition_slot_prob={("401.1", 1): 0.6, ("272.1", 2): 0.3, ("250.2", 1): 0.5},
        sex_dist={"F": 0.5, "M": 0.3, "UN": 0.2},
        race_dist={"05": 0.4, "03": 0.3, "02": 0.2, "UN": 0.1},
        age_dist={"<65": 0.2, "65-75": 0.3, "75-85": 0.4, ">=85": 0.1},
        drug_class_probs={"N02B": 0.4, "B01A": 0.7},
    )
    reordered = {name: dict(reversed(dist.items())) for name, dist in dists.items()}
    tables = []
    for i, kwargs in enumerate((dists, reordered)):
        profile = SubtypeProfile("only", 1.0, mortality_prob=0.3, **kwargs)
        data = generate_cohort([profile], 200, seed=1, phecode_map=tiny_pmap, atc_map=_atc_map())
        names = data.write_tables(tmp_path / str(i), "meta")
        tables.append({name: (tmp_path / str(i) / name).read_bytes() for name in names})
    assert tables[0] == tables[1]


def test_anniversary_handles_leap_day():
    assert _anniversary(date(2016, 2, 29), 1) == date(2015, 2, 28)
    assert _anniversary(date(2016, 2, 29), 4) == date(2012, 2, 29)
    assert _anniversary(date(2015, 6, 1), 70) == date(1945, 6, 1)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_is_deterministic(tiny_pmap):
    profiles = [_profile("only", 1.0, {("401.1", 2): 0.7}, mortality=0.3, drugs={"N02B": 0.5})]
    a = generate_cohort(profiles, 40, seed=9, phecode_map=tiny_pmap, atc_map=_atc_map())
    b = generate_cohort(profiles, 40, seed=9, phecode_map=tiny_pmap, atc_map=_atc_map())
    assert a.patients == b.patients
    assert a.diagnoses == b.diagnoses
    assert a.prescriptions == b.prescriptions
    assert a.truth == b.truth
    c = generate_cohort(profiles, 40, seed=10, phecode_map=tiny_pmap, atc_map=_atc_map())
    assert c.diagnoses != a.diagnoses


def test_generate_events_land_in_planted_slot(tiny_pmap):
    profiles = [_profile("only", 1.0, {("401.1", 3): 1.0})]
    config = CohortConfig()
    data = generate_cohort(profiles, 60, seed=3, config=config, phecode_map=tiny_pmap)
    diagnoses = event_rows(data.to_raw_tables().diagnoses)
    index_of = {}
    ad_norm = config.normalized_ad_codes
    for pid, (code, _), when in diagnoses:
        if code.upper().replace(".", "") in ad_norm:
            index_of[pid] = when
    assert len(index_of) == 60
    condition_events = [
        (pid, when) for pid, (code, _), when in diagnoses
        if pid in index_of and code in ("4019", "I10")
    ]
    assert len(condition_events) == 60  # probability 1 cell fires for everyone
    for pid, when in condition_events:
        slot = assign_timeslot(when, index_of[pid], config.slot_days, config.slot_count)
        assert slot == 3


def test_generate_pid_width_and_truth_cover_all(tiny_pmap):
    profiles = [_profile("only", 1.0, {("401.1", 1): 1.0})]
    data = generate_cohort(profiles, 101, seed=1, phecode_map=tiny_pmap)
    pids = [p.patient_id for p in data.patients]
    assert pids[0] == "P000" and pids[-1] == "P100"
    assert set(data.truth) == set(pids)
    assert data.profile_names == ["only"]


def test_generate_mixture_weights_recovered(tiny_pmap):
    profiles = [
        _profile("a", 0.5, {("401.1", 1): 1.0}),
        _profile("b", 0.3, {("272.1", 2): 1.0}),
        _profile("c", 0.2, {("250.2", 3): 1.0}),
    ]
    n = 2000
    data = generate_cohort(profiles, n, seed=11, phecode_map=tiny_pmap)
    counts = [0, 0, 0]
    for k in data.truth.values():
        counts[k] += 1
    for k, w in enumerate([0.5, 0.3, 0.2]):
        sigma = math.sqrt(n * w * (1 - w))
        assert abs(counts[k] - n * w) <= 3 * sigma


def test_generate_cell_prevalence_matches_probability(tiny_pmap):
    profiles = [_profile("only", 1.0, {("401.1", 2): 0.8})]
    n = 1500
    data = generate_cohort(profiles, n, seed=13, phecode_map=tiny_pmap)
    diagnoses = event_rows(data.to_raw_tables().diagnoses)
    with_condition = {pid for pid, (code, _), _ in diagnoses if code in ("4019", "I10")}
    sigma = math.sqrt(n * 0.8 * 0.2)
    assert abs(len(with_condition) - n * 0.8) <= 3 * sigma


def test_generate_death_and_rx_date_ranges(tiny_pmap):
    profiles = [_profile("only", 1.0, {("401.1", 1): 1.0}, mortality=1.0, drugs={"N02B": 1.0})]
    config = CohortConfig()
    data = generate_cohort(profiles, 80, seed=5, config=config, phecode_map=tiny_pmap, atc_map=_atc_map())
    raw = data.to_raw_tables()
    ad_norm = config.normalized_ad_codes
    index_of = {
        pid: when
        for pid, (code, _), when in event_rows(raw.diagnoses)
        if code.upper().replace(".", "") in ad_norm
    }
    assert set(raw.deaths) == {p.patient_id for p in raw.patients}
    for pid, death_date in raw.deaths.items():
        offset = (death_date - index_of[pid]).days
        assert 30 <= offset <= 1095
    assert len(raw.prescriptions) == 80
    for pid, rxcui, when in event_rows(raw.prescriptions):
        assert rxcui == "11"
        offset = (when - index_of[pid]).days
        assert 0 <= offset <= 365


def test_generate_ages_stay_inside_drawn_group(tiny_pmap):
    profiles = [_profile("only", 1.0, {("401.1", 1): 1.0})]
    raw = generate_cohort(profiles, 50, seed=7, phecode_map=tiny_pmap).to_raw_tables()
    config = CohortConfig()
    ad_norm = config.normalized_ad_codes
    index_of = {
        pid: when
        for pid, (code, _), when in event_rows(raw.diagnoses)
        if code.upper().replace(".", "") in ad_norm
    }
    assert len(raw.patients) == 50
    for p in raw.patients:
        idx = index_of[p.patient_id]
        years = idx.year - p.birth_date.year
        if (idx.month, idx.day) < (p.birth_date.month, p.birth_date.day):
            years -= 1
        assert 65 <= years <= 74  # AGE fixes the 65-75 group


def test_generate_errors(tiny_pmap):
    base = [_profile("only", 1.0, {("401.1", 1): 1.0})]
    with pytest.raises(ValueError, match="n_patients"):
        generate_cohort(base, 0, seed=1, phecode_map=tiny_pmap)
    with pytest.raises(ValueError, match="no ICD codes map"):
        generate_cohort(
            [_profile("x", 1.0, {("999.9", 1): 0.5})], 5, seed=1, phecode_map=tiny_pmap
        )
    with pytest.raises(ValueError, match="no RxCUIs map"):
        generate_cohort(
            [_profile("x", 1.0, {("401.1", 1): 0.5}, drugs={"Z99Z": 0.5})],
            5,
            seed=1,
            phecode_map=tiny_pmap,
            atc_map=_atc_map(),
        )
    with pytest.raises(ValueError, match="beyond"):
        generate_cohort(
            [_profile("x", 1.0, {("401.1", 7): 0.5})], 5, seed=1, phecode_map=tiny_pmap
        )


def test_patient_draws_do_not_depend_on_patient_count(tiny_pmap):
    profiles = [
        _profile("a", 0.6, {("401.1", 1): 0.7, ("272.1", 3): 0.4}, mortality=0.3,
                 drugs={"N02B": 0.5}),
        _profile("b", 0.4, {("250.2", 2): 0.8}, mortality=0.2, drugs={"B01A": 0.6}),
    ]
    small = generate_cohort(profiles, 30, seed=4, phecode_map=tiny_pmap, atc_map=_atc_map())
    large = generate_cohort(profiles, 90, seed=4, phecode_map=tiny_pmap, atc_map=_atc_map())
    first = {p.patient_id for p in small.patients}  # P00..P29 at both sizes
    assert small.patients == large.patients[:30]
    small_raw, large_raw = small.to_raw_tables(), large.to_raw_tables()
    for table in ("diagnoses", "prescriptions"):
        small_rows = event_rows(getattr(small_raw, table))
        assert small_rows == [r for r in event_rows(getattr(large_raw, table)) if r[0] in first]
    assert small_raw.deaths == {pid: d for pid, d in large_raw.deaths.items() if pid in first}
    assert small.truth == {pid: k for pid, k in large.truth.items() if pid in first}


def test_vector_draws_stay_inside_their_bounds(tiny_pmap):
    cells = {("401.1", 1): 0.9, ("401.1", 3): 0.3, ("272.1", 2): 0.6, ("250.2", 4): 0.15}
    drugs = {"N02B": 0.4, "B01A": 0.7}
    atc_map = AtcMap(
        {
            "11": frozenset({("N02B", "pain")}),
            "12": frozenset({("N02B", "pain")}),
            "13": frozenset({("N02B", "pain")}),
            "22": frozenset({("B01A", "blood")}),
            "23": frozenset({("B01A", "blood")}),
        }
    )
    config = CohortConfig(slot_count=4, slot_days=20)
    n = 2000
    data = generate_cohort(
        [_profile("only", 1.0, cells, mortality=0.5, drugs=drugs)],
        n, seed=17, config=config, phecode_map=tiny_pmap, atc_map=atc_map,
    )
    raw = data.to_raw_tables()
    ad_norm = config.normalized_ad_codes
    diagnoses, prescriptions = event_rows(raw.diagnoses), event_rows(raw.prescriptions)
    index_of = {
        pid: when for pid, (code, _), when in diagnoses if code.upper().replace(".", "") in ad_norm
    }
    assert len(index_of) == n
    phecode_of = {
        icd: phecode
        for phecode in ("401.1", "272.1", "250.2")
        for icd, _ in tiny_pmap.codes_for_phecode(phecode)
    }

    def within_3_sigma(hits, p):
        return abs(hits - n * p) <= 3 * math.sqrt(n * p * (1 - p))

    offsets: dict[tuple[str, int], list[int]] = {cell: [] for cell in cells}
    codes: dict[str, set[str]] = {phecode: set() for phecode, _ in cells}
    for pid, (code, _), when in diagnoses:
        if code not in phecode_of:
            continue
        offset = (index_of[pid] - when).days
        slot = offset // config.slot_days + 1
        offsets[(phecode_of[code], slot)].append(offset)
        codes[phecode_of[code]].add(code)
    for (phecode, slot), days in offsets.items():
        assert within_3_sigma(len(days), cells[(phecode, slot)])
        first = (slot - 1) * config.slot_days
        assert min(days) == first and max(days) == first + config.slot_days - 1
    for phecode, seen in codes.items():
        assert seen == {icd for icd, _ in tiny_pmap.codes_for_phecode(phecode)}

    by_class = {"N02B": {"11", "12", "13"}, "B01A": {"22", "23"}}
    for atc3, pool in by_class.items():
        rows = [(pid, rxcui) for pid, rxcui, _ in prescriptions if rxcui in pool]
        assert within_3_sigma(len(rows), drugs[atc3])
        assert {rxcui for _, rxcui in rows} == pool
        assert len({pid for pid, _ in rows}) == len(rows)  # one draw per class
    for pid, _, when in prescriptions:
        assert 0 <= (when - index_of[pid]).days <= 365

    assert within_3_sigma(len(raw.deaths), 0.5)
    for pid, death_date in raw.deaths.items():
        assert 30 <= (death_date - index_of[pid]).days <= 1095


# ---------------------------------------------------------------------------
# table output and ingestion round trip
# ---------------------------------------------------------------------------


def _round_trip_setup(tiny_pmap, tmp_path, n=40, seed=21):
    profiles = [
        _profile("a", 0.5, {("401.1", 1): 1.0, ("272.1", 4): 0.5}, mortality=0.4,
                 drugs={"N02B": 0.6}),
        _profile("b", 0.5, {("250.2", 2): 1.0}, mortality=0.1, drugs={"B01A": 0.5}),
    ]
    data = generate_cohort(profiles, n, seed=seed, phecode_map=tiny_pmap, atc_map=_atc_map())
    names = data.write_tables(tmp_path, meta="adsubtype=test seed=21 config=deadbeef0000")
    assert names == [
        "patients.csv", "diagnoses.csv", "prescriptions.csv", "deaths.csv", "truth_labels.csv",
    ]
    return data, profiles


def test_written_tables_parse_cleanly(tiny_pmap, tmp_path):
    """Ingest accepts every written row, and the event CSVs are synth's rows verbatim."""
    data, _ = _round_trip_setup(tiny_pmap, tmp_path)
    names = ["patients.csv", "diagnoses.csv", "prescriptions.csv", "deaths.csv"]
    assert parse_tables(*(tmp_path / name for name in names)).rejects == []
    for name, columns, rows in [
        ("diagnoses.csv", DIAGNOSES_COLUMNS, data.diagnoses),
        ("prescriptions.csv", PRESCRIPTIONS_COLUMNS, data.prescriptions),
    ]:
        assert rows and read_table(tmp_path / name, columns).rows == rows


def test_only_the_cohort_module_builds_events():
    """Event columns and RawTables come from parse_tables alone; synth hands over CSV rows."""
    builders = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            callee = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)
            )
            if callee in ("Interned", "Events", "RawTables"):
                builders.add(path.relative_to(PACKAGE).as_posix())
    assert builders == {"cohort.py"}


def test_generated_cohort_fully_retained(tiny_pmap, tiny_vocab):
    profiles = [
        _profile("a", 0.5, {("401.1", 1): 1.0}),
        _profile("b", 0.5, {("250.2", 2): 1.0}),
    ]
    n = 60
    data = generate_cohort(profiles, n, seed=2, phecode_map=tiny_pmap)
    cohort = select_cohort(data.to_raw_tables(), CohortConfig(), tiny_pmap, vocabulary=tiny_vocab)
    assert [count for _, count in cohort.funnel] == [n] * 5
    assert len(cohort.patients) == n
    # every selected patient keeps its planted condition cell
    for p in cohort.patients:
        assert p.cells in (((1, "401.1"),), ((2, "250.2"),))


def test_death_dates_round_trip_through_selection(tiny_pmap, tiny_vocab):
    profiles = [_profile("a", 1.0, {("401.1", 1): 1.0}, mortality=1.0)]
    data = generate_cohort(profiles, 25, seed=4, phecode_map=tiny_pmap)
    cohort = select_cohort(data.to_raw_tables(), CohortConfig(), tiny_pmap, vocabulary=tiny_vocab)
    # the death dates stay in the input tables; the cohort keeps the flag
    assert set(data.to_raw_tables().deaths) == set(cohort.patient_ids())
    assert len(cohort.patients) == 25 and all(p.died for p in cohort.patients)


# ---------------------------------------------------------------------------
# bundled profile sets
# ---------------------------------------------------------------------------


def test_demo_profiles_are_valid_and_generate():
    profiles = demo_profiles()
    validate_profiles(profiles)
    assert len(profiles) == 4
    assert [p.mixture_weight for p in profiles] == [0.17, 0.46, 0.20, 0.17]
    data = generate_cohort(profiles, 60, seed=1)
    assert len(data.patients) == 60
    cohort = select_cohort(data.to_raw_tables(), CohortConfig(), default_phecode_map())
    assert len(cohort.patients) >= 55  # sparse draws may drop a stray patient


def test_generated_rows_share_their_date_strings():
    # rows on one day hold one shared date string: a string per row would add
    # 59 B x 36,401 rows = 2.1 MB to the result's 6.1 MB at the demo size
    # (tracing slows generation about 18-fold, so the cohort is kept at n=2000)
    profiles, pmap, atc_map = demo_profiles(), default_phecode_map(), default_atc_map()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = generate_cohort(profiles, 2000, 0, phecode_map=pmap, atc_map=atc_map)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(data.diagnoses) + len(data.prescriptions) == 36_401
    assert live < 7e6


def test_well_separated_profiles_structure():
    phecodes = [f"c{i}" for i in range(10)]
    profiles = well_separated_profiles(phecodes, k=4, cells_per_profile=12)
    validate_profiles(profiles)
    signatures = []
    for p in profiles:
        sig = {cell for cell, prob in p.condition_slot_prob.items() if prob == 0.9}
        assert len(sig) == 12
        low = {cell for cell, prob in p.condition_slot_prob.items() if prob == 0.05}
        assert len(low) == 48 - 12
        signatures.append(sig)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not signatures[i] & signatures[j]
    with pytest.raises(ValueError, match="need"):
        well_separated_profiles(["a", "b"], k=4, cells_per_profile=12)
