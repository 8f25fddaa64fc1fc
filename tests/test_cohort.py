"""Cohort ingestion, index dating, timeslots, and selection."""

import json
from collections import Counter
from datetime import date, timedelta

import pytest

from adsubtype import cohort as cohort_module
from adsubtype.cohort import (
    AgeGroup,
    CodeSystem,
    Cohort,
    CohortConfig,
    CohortPatient,
    Race,
    Sex,
    assign_timeslot,
    bin_age,
    completed_years,
    load_cohort,
    normalize_code,
    parse_tables,
    save_cohort,
    select_cohort,
)
from conftest import event_rows, traced_peak


def test_normalize_code():
    assert normalize_code("g30.9") == "G309"
    assert normalize_code(" 331.0 ") == "3310"
    assert normalize_code("E78.5") == "E785"
    assert normalize_code(normalize_code("G30.9")) == "G309"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_tables_happy_path(table_writer):
    paths = table_writer(
        patients=[
            ["P1", "F", "05", "1950-03-02"],
            ["P2", "M", "03", "1944-11-30"],
        ],
        diagnoses=[
            ["P1", "331.0", "ICD9", "2015-06-01"],
            ["P1", "401.9", "ICD9", "2014-01-15"],
            ["P2", "G30.9", "ICD10CM", "2016-02-20"],
        ],
        prescriptions=[["P1", "860975", "2015-07-01"]],
        deaths=[["P2", "2018-05-05"]],
    )
    tables = parse_tables(*paths)
    assert tables.rejects == []
    assert [p.patient_id for p in tables.patients] == ["P1", "P2"]
    assert tables.patients[0].sex is Sex.FEMALE
    assert tables.patients[0].birth_date == date(1950, 3, 2)
    assert len(tables.diagnoses) == 3
    assert event_rows(tables.diagnoses)[2][1][1] is CodeSystem.ICD10CM
    assert event_rows(tables.prescriptions)[0][1] == "860975"
    assert tables.deaths == {"P2": date(2018, 5, 5)}


def test_parse_tables_rejects_malformed_rows(table_writer):
    paths = table_writer(
        patients=[
            ["P1", "F", "05", "1950-03-02"],
            ["P2", "X", "05", "1950-03-02"],  # bad sex
            ["P3", "F", "05", "2021-02-30"],  # impossible date
            ["P1", "M", "03", "1950-01-01"],  # duplicate id
            ["", "F", "05", "1950-01-01"],  # empty id
        ],
        diagnoses=[
            ["P1", "401.9", "ICD9", "2014-01-15"],
            ["P1", "401.9", "ICD42", "2014-01-15"],  # bad system
            ["P1", "", "ICD9", "2014-01-15"],  # empty code
            ["P1", "401.9", "ICD9"],  # short row
        ],
    )
    tables = parse_tables(*paths)
    assert [p.patient_id for p in tables.patients] == ["P1"]
    assert len(tables.diagnoses) == 1
    by_file = {}
    for r in tables.rejects:
        by_file.setdefault(r.file, []).append(r)
    assert len(by_file["patients.csv"]) == 4
    assert len(by_file["diagnoses.csv"]) == 3
    # line numbers point at the physical rows (header is line 1)
    assert [r.line for r in by_file["patients.csv"]] == [3, 4, 5, 6]
    assert any("duplicate" in r.reason for r in by_file["patients.csv"])
    assert by_file["diagnoses.csv"][-1].reason == "3 fields, header has 4"


def test_parse_tables_rejects_duplicate_death_rows(table_writer, caplog):
    paths = table_writer(
        patients=[["P1", "F", "05", "1950-03-02"]],
        deaths=[["P1", "2016-01-01"], ["P1", "2019-09-09"], ["P1", "bad-date"]],
    )
    with caplog.at_level("WARNING"):
        tables = parse_tables(*paths)
    assert any(
        r.getMessage() == "parse_tables: 2 malformed rows rejected, "
        "the first at deaths.csv line 3: duplicate patient_id 'P1'"
        for r in caplog.records
    )
    assert tables.deaths == {"P1": date(2016, 1, 1)}
    assert [(r.file, r.line, r.reason) for r in tables.rejects] == [
        ("deaths.csv", 3, "duplicate patient_id 'P1'"),
        ("deaths.csv", 4, "duplicate patient_id 'P1'"),
    ]


def test_each_rule_runs_once_per_distinct_field(table_writer, monkeypatch):
    """A refused row takes its reason from the one rule run over its table's distinct fields."""
    calls = Counter()

    def counted(text):
        calls[text] += 1
        return real(text)

    real = cohort_module.parse_date
    monkeypatch.setattr(cohort_module, "parse_date", counted)
    tables = parse_tables(
        *table_writer(
            patients=[
                ["P1", "F", "05", "1950-03-02"],
                ["P2", "F", "05", "1950-13-01"],
                ["P1", "M", "05", "1950-03-02"],  # duplicate patient_id
                ["P3", "F", "05", " 1950-13-01 "],  # the same bad date, padded
                ["P4", "X", "05", "1950-13-01"],  # a bad sex comes first
            ],
            diagnoses=[
                ["P1", "331.0", "ICD9", "2015-06-01"],
                ["P1", "401.9", "ICD9", "2015-6-1"],
                ["P3", "401.9", "ICD9", "2015-6-1"],
                ["", "401.9", "ICD9", "2015-6-1"],  # an empty patient_id comes first
            ],
        )
    )
    assert [p.patient_id for p in tables.patients] == ["P1"]
    assert [(r.file, r.line, r.reason) for r in tables.rejects] == [
        ("patients.csv", 3, "month must be in 1..12"),
        ("patients.csv", 4, "duplicate patient_id 'P1'"),
        ("patients.csv", 5, "month must be in 1..12"),
        ("patients.csv", 6, "'X' is not a valid Sex"),
        ("diagnoses.csv", 3, "date '2015-6-1' is not YYYY-MM-DD"),
        ("diagnoses.csv", 4, "date '2015-6-1' is not YYYY-MM-DD"),
        ("diagnoses.csv", 5, "empty patient_id"),
    ]
    # patients.csv and diagnoses.csv share no date text
    assert calls == dict.fromkeys(["1950-03-02", "1950-13-01", "2015-06-01", "2015-6-1"], 1)


def test_parse_tables_accepts_only_yyyy_mm_dd_dates(table_writer):
    """date.fromisoformat also takes basic and week dates from Python 3.11 on; ingest does not."""
    paths = table_writer(
        patients=[["P1", "F", "05", "1950-03-02"], ["P2", "F", "05", "19500302"]],
        diagnoses=[
            ["P1", "331.0", "ICD9", " 2015-06-01 "],  # padding is stripped
            ["P1", "401.9", "ICD9", "20150523"],
            ["P1", "401.9", "ICD9", "2015-W01-1"],
            ["P1", "401.9", "ICD9", "2015-6-1"],
        ],
        prescriptions=[["P1", "100", "2015-06-01T00:00"]],
        deaths=[["P1", "2015-366"]],
    )
    tables = parse_tables(*paths)
    assert [p.patient_id for p in tables.patients] == ["P1"]
    assert event_rows(tables.diagnoses) == [("P1", ("331.0", CodeSystem.ICD9), date(2015, 6, 1))]
    assert len(tables.prescriptions) == 0 and tables.deaths == {}
    assert [(r.file, r.line, r.reason) for r in tables.rejects] == [
        ("patients.csv", 3, "date '19500302' is not YYYY-MM-DD"),
        ("diagnoses.csv", 3, "date '20150523' is not YYYY-MM-DD"),
        ("diagnoses.csv", 4, "date '2015-W01-1' is not YYYY-MM-DD"),
        ("diagnoses.csv", 5, "date '2015-6-1' is not YYYY-MM-DD"),
        ("prescriptions.csv", 2, "date '2015-06-01T00:00' is not YYYY-MM-DD"),
        ("deaths.csv", 2, "date '2015-366' is not YYYY-MM-DD"),
    ]


def test_parse_tables_bad_header_fatal(table_writer, tmp_path):
    paths = table_writer(patients=[["P1", "F", "05", "1950-03-02"]])
    (tmp_path / "patients.csv").write_text("id,sex,race,dob\nP1,F,05,1950-03-02\n")
    with pytest.raises(ValueError, match="bad header"):
        parse_tables(*paths)


def test_parse_tables_missing_file_fatal(table_writer, tmp_path):
    paths = table_writer()
    with pytest.raises(FileNotFoundError):
        parse_tables(tmp_path / "nope.csv", *paths[1:])


def test_parse_tables_empty_file_fatal(table_writer, tmp_path):
    paths = table_writer()
    (tmp_path / "patients.csv").write_text("")
    with pytest.raises(ValueError, match="empty file"):
        parse_tables(*paths)


def test_parse_tables_skips_leading_comments(table_writer, tmp_path):
    paths = table_writer(patients=[["P1", "F", "05", "1950-03-02"]])
    original = (tmp_path / "patients.csv").read_text()
    (tmp_path / "patients.csv").write_text("# tool=x seed=1\n" + original + "P2,F,05,bad-date\n")
    tables = parse_tables(*paths)
    assert [p.patient_id for p in tables.patients] == ["P1"]
    # comment line shifts data rows down by one
    assert tables.rejects[0].line == 4


def test_parse_tables_keeps_a_hash_patient_id(table_writer):
    """After the header a line starting with '#' is a data row, not a comment."""
    paths = table_writer(
        patients=[["P1", "F", "05", "1950-03-02"], ["#P2", "M", "03", "1944-11-30"]],
        diagnoses=[["#P2", "G30.9", "ICD10CM", "2016-02-20"]],
        deaths=[["#P2", "2018-05-05"]],
    )
    tables = parse_tables(*paths)
    assert tables.rejects == []
    assert [p.patient_id for p in tables.patients] == ["P1", "#P2"]
    assert event_rows(tables.diagnoses)[0][0] == "#P2"
    assert tables.deaths == {"#P2": date(2018, 5, 5)}


# ---------------------------------------------------------------------------
# timeslots and age
# ---------------------------------------------------------------------------


def test_assign_timeslot_boundaries():
    idx = date(2018, 6, 1)
    cases = {0: 1, 1: 1, 182: 1, 183: 2, 365: 2, 366: 3, 914: 5, 915: 6, 1096: 6, 1097: 6}
    for d, slot in cases.items():
        assert assign_timeslot(idx - timedelta(days=d), idx, 183, 6) == slot
    assert assign_timeslot(idx - timedelta(days=1098), idx, 183, 6) is None
    assert assign_timeslot(idx + timedelta(days=1), idx, 183, 6) is None


def test_assign_timeslot_full_range():
    idx = date(2019, 1, 1)
    for d in range(0, 183 * 6):
        assert assign_timeslot(idx - timedelta(days=d), idx, 183, 6) == d // 183 + 1


def test_assign_timeslot_custom_geometry():
    idx = date(2018, 6, 1)
    assert assign_timeslot(idx - timedelta(days=9), idx, slot_days=10, slot_count=2) == 1
    assert assign_timeslot(idx - timedelta(days=10), idx, slot_days=10, slot_count=2) == 2
    assert assign_timeslot(idx - timedelta(days=20), idx, slot_days=10, slot_count=2) is None


def test_bin_age_half_open_bins():
    assert bin_age(64) is AgeGroup.UNDER_65
    assert bin_age(65) is AgeGroup.FROM_65_TO_75
    assert bin_age(74) is AgeGroup.FROM_65_TO_75
    assert bin_age(75) is AgeGroup.FROM_75_TO_85
    assert bin_age(84) is AgeGroup.FROM_75_TO_85
    assert bin_age(85) is AgeGroup.OVER_85


def test_completed_years():
    idx = date(2018, 6, 1)
    assert completed_years(date(1953, 6, 1), idx) == 65
    assert completed_years(date(1953, 6, 2), idx) == 64
    assert completed_years(date(1943, 6, 1), idx) == 75


def test_find_first_ad_date_earliest_and_normalized(table_writer, tiny_pmap):
    tables = parse_tables(
        *table_writer(
            patients=[["P1", "F", "05", "1950-01-15"], ["P2", "M", "05", "1950-01-01"]],
            diagnoses=[
                ["P1", "G30.9", "ICD10CM", "2016-03-01"],
                ["P1", "G309", "ICD10CM", "2015-01-01"],
                ["P1", "401.9", "ICD9", "2014-12-01"],
                ["P2", "331.0", "ICD9", "2017-08-08"],
            ],
        )
    )
    config = CohortConfig(ad_code_set=frozenset(["G30.9", "3310"]))
    cohort = select_cohort(tables, config, tiny_pmap)
    # P1 indexed on 2015-01-01: aged 64 there (66 on 2016-03-01), and the
    # 2014-12-01 diagnosis in slot 1 (slot 3 before 2016-03-01)
    assert {p.patient_id: p.age_at_index for p in cohort.patients} == {"P1": 64, "P2": 67}
    assert cohort.patients[0].cells == ((1, "401.1"),)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

WINDOW_START = date(2012, 1, 1)
WINDOW_END = date(2021, 1, 31)


def _eligible_patient(pid, birth="1950-01-01"):
    return [pid, "F", "05", birth]


def test_select_cohort_funnel(build_cohort, tiny_vocab):
    # A eligible; B no AD code; C AD before window; D under age; E no vocab condition
    patients = [
        _eligible_patient("A"),
        _eligible_patient("B"),
        _eligible_patient("C"),
        _eligible_patient("D", birth="2000-01-01"),
        _eligible_patient("E"),
    ]
    diagnoses = [
        ["A", "331.0", "ICD9", "2015-06-01"],
        ["A", "401.9", "ICD9", "2015-01-01"],
        ["B", "401.9", "ICD9", "2015-01-01"],
        ["C", "G30.9", "ICD10CM", "2011-12-31"],
        ["C", "401.9", "ICD9", "2011-06-01"],
        ["D", "331.0", "ICD9", "2015-06-01"],
        ["D", "401.9", "ICD9", "2015-01-01"],
        ["E", "331.0", "ICD9", "2015-06-01"],
    ]
    cohort = build_cohort(patients, diagnoses, vocabulary=tiny_vocab)
    assert cohort.funnel == [
        ("patients_total", 5),
        ("first_ad_diagnosis", 4),
        ("ad_date_in_window", 3),
        ("age_at_index_ge_20", 2),
        ("vocabulary_condition_in_window", 1),
    ]
    assert cohort.patients == [
        CohortPatient("A", Sex.FEMALE, Race.WHITE, 65, False, ((1, "401.1"),), ())
    ]


def test_select_cohort_window_edges_inclusive(build_cohort):
    patients = [_eligible_patient("S"), _eligible_patient("E")]
    diagnoses = [
        ["S", "331.0", "ICD9", WINDOW_START.isoformat()],
        ["E", "331.0", "ICD9", WINDOW_END.isoformat()],
    ]
    cohort = build_cohort(patients, diagnoses)
    assert sorted(cohort.patient_ids()) == ["E", "S"]


def test_select_cohort_skips_birth_after_index(build_cohort):
    patients = [_eligible_patient("A"), _eligible_patient("L", birth="2016-01-01")]
    diagnoses = [
        ["A", "331.0", "ICD9", "2015-06-01"],
        ["L", "331.0", "ICD9", "2015-06-01"],
    ]
    cohort = build_cohort(patients, diagnoses, config=CohortConfig(min_age_years=0))
    assert cohort.patient_ids() == ["A"]
    assert cohort.funnel[-1] == ("age_at_index_ge_0", 1)


def test_select_cohort_funnel_monotone(build_cohort, tiny_vocab):
    patients = [_eligible_patient(f"P{i}") for i in range(4)]
    diagnoses = [["P0", "331.0", "ICD9", "2015-06-01"], ["P0", "4019", "ICD9", "2015-01-01"]]
    cohort = build_cohort(patients, diagnoses, vocabulary=tiny_vocab)
    counts = [n for _, n in cohort.funnel]
    assert counts == sorted(counts, reverse=True)


def test_select_cohort_dedup_and_ad_exclusion(build_cohort):
    patients = [_eligible_patient("A")]
    diagnoses = [
        ["A", "331.0", "ICD9", "2015-06-01"],
        ["A", "331.0", "ICD9", "2015-09-01"],  # repeat AD stays out of events
        ["A", "401.9", "ICD9", "2015-01-01"],
        ["A", "401.9", "ICD9", "2015-01-01"],  # exact duplicate
        ["A", "4019", "ICD9", "2015-01-01"],  # same code after normalization
        ["A", "401.9", "ICD9", "2014-01-01"],  # distinct date survives
    ]
    cohort = build_cohort(patients, diagnoses)
    assert cohort.patients[0].cells == ((1, "401.1"), (3, "401.1"))


def test_select_cohort_one_cell_per_slot_and_phecode(build_cohort):
    patients = [_eligible_patient("A")]
    diagnoses = [
        ["A", "331.0", "ICD9", "2015-06-01"],
        ["A", "2724", "ICD9", "2015-03-01"],
        ["A", "2724", "ICD9", "2015-03-01"],  # identical row
        ["A", "E78.5", "ICD10CM", "2015-02-01"],  # other code, same phecode and slot
        ["A", "25000", "ICD9", "2014-01-01"],
        ["A", "401.9", "ICD9", "2015-05-01"],
    ]
    cohort = build_cohort(patients, diagnoses)
    assert cohort.patients[0].cells == ((1, "272.1"), (1, "401.1"), (3, "250.2"))


def test_select_cohort_drops_out_of_horizon_events(build_cohort):
    idx = date(2018, 6, 1)
    patients = [_eligible_patient("A")]
    diagnoses = [
        ["A", "331.0", "ICD9", idx.isoformat()],
        ["A", "4019", "ICD9", (idx - timedelta(days=1097)).isoformat()],  # last slot day
        ["A", "2724", "ICD9", (idx - timedelta(days=1098)).isoformat()],  # beyond horizon
        ["A", "25000", "ICD9", (idx + timedelta(days=1)).isoformat()],  # post index
    ]
    cohort = build_cohort(patients, diagnoses)
    assert cohort.patients[0].cells == ((6, "401.1"),)


def test_select_cohort_drops_unmapped_codes(build_cohort):
    patients = [_eligible_patient("A")]
    diagnoses = [
        ["A", "331.0", "ICD9", "2015-06-01"],
        ["A", "V70.0", "ICD9", "2015-01-01"],
    ]
    cohort = build_cohort(patients, diagnoses)
    assert cohort.patient_ids() == ["A"]
    assert cohort.patients[0].cells == ()


def test_select_cohort_post_index_prescriptions(build_cohort):
    patients = [_eligible_patient("A")]
    diagnoses = [["A", "331.0", "ICD9", "2015-06-01"]]
    prescriptions = [
        ["A", "100", "2015-06-01"],  # on index date counts
        ["A", "200", "2015-05-31"],  # pre index excluded
        ["A", "300", "2016-06-01"],
        ["A", "100", "2016-07-01"],  # repeats are kept
        ["Z", "400", "2016-06-01"],  # not in cohort
    ]
    cohort = build_cohort(patients, diagnoses, prescriptions=prescriptions)
    assert cohort.patients[0].rxcuis == ("100", "100", "300")


def test_select_cohort_merges_deaths(build_cohort):
    patients = [_eligible_patient("A"), _eligible_patient("B")]
    diagnoses = [
        ["A", "331.0", "ICD9", "2015-06-01"],
        ["B", "331.0", "ICD9", "2015-06-01"],
    ]
    cohort = build_cohort(patients, diagnoses, deaths=[["A", "2017-02-03"]])
    assert [(p.patient_id, p.died) for p in cohort.patients] == [("A", True), ("B", False)]


def test_cohort_config_validation():
    with pytest.raises(ValueError):
        CohortConfig(min_age_years=-1)
    with pytest.raises(ValueError):
        CohortConfig(slot_count=0)
    with pytest.raises(ValueError):
        CohortConfig(window_start=date(2021, 1, 1), window_end=date(2012, 1, 1))


def test_cohort_json_round_trip(build_cohort, tmp_path):
    patients = [_eligible_patient("A"), _eligible_patient("B")]
    diagnoses = [
        ["A", "331.0", "ICD9", "2015-06-01"],
        ["A", "4019", "ICD9", "2015-01-01"],
        ["B", "G30.9", "ICD10CM", "2016-01-01"],
        ["B", "E78.5", "ICD10CM", "2014-06-01"],
    ]
    cohort = build_cohort(
        patients,
        diagnoses,
        prescriptions=[["A", "200", "2015-08-01"], ["A", "100", "2015-07-01"]],
        deaths=[["B", "2019-01-01"]],
    )
    assert [len(p.cells) for p in cohort.patients] == [1, 1]
    path = tmp_path / "cohort.json"
    save_cohort(cohort, path)
    loaded = load_cohort(path)
    assert loaded == cohort
    assert sorted(json.loads(path.read_text())) == ["config", "funnel", "patients"]
    # byte-stable serialization
    save_cohort(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _saved_cohort(build_cohort, tmp_path):
    """Patients A and B, who share a cell and an RxCUI, and the cohort.json they are saved to."""
    patients = [_eligible_patient("A"), _eligible_patient("B")]
    diagnoses = [
        ["A", "331.0", "ICD9", "2015-06-01"],
        ["A", "4019", "ICD9", "2015-01-01"],
        ["A", "E78.5", "ICD10CM", "2014-01-01"],
        ["B", "G30.9", "ICD10CM", "2016-01-01"],
        ["B", "I10", "ICD10CM", "2015-10-01"],
        ["B", "E78.5", "ICD10CM", "2014-06-01"],
    ]
    prescriptions = [["A", "100", "2015-08-01"], ["B", "100", "2016-02-01"]]
    cohort = build_cohort(patients, diagnoses, prescriptions=prescriptions)
    path = tmp_path / "cohort.json"
    save_cohort(cohort, path)
    return cohort, path


def test_cohort_json_round_trip_shares_repeated_cells(build_cohort, tmp_path):
    """Cells and RxCUIs repeated across patients load equal, each stored once."""
    cohort, path = _saved_cohort(build_cohort, tmp_path)
    a, b = cohort.patients
    assert a.cells[0] == b.cells[0] == (1, "401.1") and a.rxcuis == b.rxcuis == ("100",)
    loaded = load_cohort(path)
    assert loaded == cohort
    a, b = loaded.patients
    assert a.cells[0] is b.cells[0] and a.rxcuis[0] is b.rxcuis[0]
    save_cohort(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _without_sex(doc):
    del doc["patients"][1]["sex"]


def _one_field_cell(doc):
    doc["patients"][1]["cells"] = [[1]]


@pytest.mark.parametrize(
    "damage, message",
    [
        (_without_sex, r"patient 1 \('B'\): no 'sex'"),
        (_one_field_cell, r"patient 1 \('B'\): cells are not \[slot, phecode\] pairs"),
        (None, "not valid JSON"),
    ],
    ids=["patient-without-sex", "one-field-cell", "truncated-file"],
)
def test_load_cohort_names_the_file_and_patient(build_cohort, tmp_path, damage, message):
    _, path = _saved_cohort(build_cohort, tmp_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if damage is None:
        path.write_bytes(path.read_bytes()[:-40])
    else:
        damage(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=message) as failure:
        load_cohort(path)
    assert str(path) in str(failure.value)


def test_load_cohort_reads_utf8(build_cohort, tmp_path):
    """The file is UTF-8 whatever the locale: raw UTF-8 text loads, Latin-1 is refused."""
    _, path = _saved_cohort(build_cohort, tmp_path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["patients"][0]["patient_id"] = "Zoë"
    text = json.dumps(doc, ensure_ascii=False)
    path.write_bytes(text.encode("utf-8"))
    assert load_cohort(path).patients[0].patient_id == "Zoë"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ValueError, match="not UTF-8") as failure:
        load_cohort(path)
    assert str(path) in str(failure.value)


def test_load_cohort_memory_stays_near_the_file_size(tmp_path):
    """Rows become patients as they are decoded: the peak is under 3x the file's bytes."""
    phecodes = [f"{250 + k}.{k % 10}" for k in range(40)]
    cells = [(slot, phecode) for slot in range(1, 7) for phecode in phecodes]
    patients = [
        CohortPatient(
            patient_id=f"P{i:05d}",
            sex=Sex.FEMALE,
            race=Race.WHITE,
            age_at_index=60 + i % 30,
            died=i % 3 == 0,
            cells=tuple(sorted(cells[(7 * i + 13 * j) % len(cells)] for j in range(25))),
            rxcuis=tuple(sorted(str(1000 + (i * j) % 50) for j in range(8))),
        )
        for i in range(3000)
    ]
    cohort = Cohort(patients, [("patients_total", 3000)], CohortConfig())
    path = tmp_path / "cohort.json"
    save_cohort(cohort, path)
    loaded, peak = traced_peak(load_cohort, path)
    assert loaded == cohort
    assert peak < 3 * path.stat().st_size
