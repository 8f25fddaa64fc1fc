"""ATC mapping and per-cluster drug prevalence."""

import pytest

from adsubtype.cli import main
from adsubtype.cohort import Cohort, CohortConfig, CohortPatient, Race, Sex, save_cohort
from adsubtype.drugs import (
    ATC3_PATTERN,
    AtcMap,
    drug_prevalence_by_cluster,
    load_atc_map,
    rank_drug_classes,
)
from adsubtype.table import read_table

from conftest import write_csv as _write_csv


def _map(entries):
    return AtcMap({k: frozenset(v) for k, v in entries.items()})


def test_atc3_pattern():
    assert ATC3_PATTERN.match("N06A")
    assert ATC3_PATTERN.match("C09X")
    for bad in ("N06", "N06AA", "n06a", "1N6A", "N6AA"):
        assert not ATC3_PATTERN.match(bad)


def test_load_atc_map_multimap(tmp_path):
    path = tmp_path / "atc.csv"
    _write_csv(
        path,
        ["rxcui", "atc3", "atc3_name"],
        [
            ["1191", "N02B", "Other analgesics and antipyretics"],
            ["1191", "B01A", "Antithrombotic agents"],
            ["197361", "c09a", "ACE inhibitors, plain"],
        ],
    )
    amap = load_atc_map(path)
    assert amap.lookup("1191") == frozenset(
        {("N02B", "Other analgesics and antipyretics"), ("B01A", "Antithrombotic agents")}
    )
    # codes are uppercased on load
    assert amap.lookup("197361") == frozenset({("C09A", "ACE inhibitors, plain")})
    assert amap.lookup("999") == frozenset()
    assert amap.class_names()["B01A"] == "Antithrombotic agents"


def test_load_atc_map_rejects_bad_rows(tmp_path, caplog):
    path = tmp_path / "atc.csv"
    _write_csv(
        path,
        ["rxcui", "atc3", "atc3_name"],
        [
            ["11", "N02B", "ok"],
            ["12", "N02", "too short"],
            ["", "N02B", "no id"],
            ["13", "N02BA", "too long"],
        ],
    )
    with caplog.at_level("WARNING"):
        amap = load_atc_map(path)
    assert sorted(amap.entries) == ["11"]
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        f"{path}: line 3: invalid ATC3 code 'N02'",
        f"{path}: line 4: empty rxcui",
        f"{path}: line 5: invalid ATC3 code 'N02BA'",
    ]


def test_load_atc_map_refuses_unquoted_comma_in_name(tmp_path):
    """An unquoted comma splits the class name into an extra field: refused, not truncated."""
    path = tmp_path / "atc.csv"
    path.write_text("rxcui,atc3,atc3_name\n197361,C09A,ACE inhibitors, plain\n")
    with pytest.raises(ValueError) as exc:
        load_atc_map(path)
    assert str(exc.value) == f"{path}: line 2: 4 fields, header has 3"


def test_load_atc_map_fatal_errors(tmp_path, caplog):
    missing_col = tmp_path / "bad.csv"
    _write_csv(missing_col, ["rxcui", "atc3"], [["1", "N02B"]])
    with pytest.raises(ValueError, match="bad header"):
        load_atc_map(missing_col)
    with pytest.raises(FileNotFoundError):
        load_atc_map(tmp_path / "nope.csv")
    empty = tmp_path / "empty.csv"
    _write_csv(empty, ["rxcui", "atc3", "atc3_name"], [])
    with caplog.at_level("WARNING"):
        load_atc_map(empty)
    assert any("empty map" in r.message for r in caplog.records)


def test_rank_drug_classes_distinct_patients_and_ties():
    amap = _map({"1": {("N02B", "x")}, "2": {("B01A", "y")}, "3": {("C09A", "z")}})
    prescriptions = [
        # N02B: 2 patients (repeat rx for the first counts once); B01A: 2; C09A: 1
        ["1", "1", "2"],
        ["1"],
        ["2", "3"],
    ]
    assert rank_drug_classes(prescriptions, amap, top=13) == ["B01A", "N02B", "C09A"]
    assert rank_drug_classes(prescriptions, amap, top=2) == ["B01A", "N02B"]


def test_prevalence_denominator_is_any_prescription(caplog):
    amap = _map({"1": {("N02B", "x")}})
    prescriptions = [
        ["1"],    # mapped
        ["999"],  # unmapped only: still in denominator
        [],       # no prescriptions: out of denominator
    ]
    with caplog.at_level("WARNING"):
        art = drug_prevalence_by_cluster(prescriptions, [0, 0, 0], amap, ["N02B"])
    assert art.name == "drug_usage.csv"
    assert art.header == ["cluster", "atc3", "atc3_name", "numerator", "denominator", "pct"]
    assert art.rows == [[0, "N02B", "x", 1, 2, "50.0000"]]
    assert any("1 distinct unmapped rxcuis (1 occurrences)" in r.message for r in caplog.records)


def test_prevalence_counts_patient_once_per_class():
    amap = _map({"1": {("N02B", "x")}, "2": {("N02B", "x")}})
    art = drug_prevalence_by_cluster([["1", "2", "1"]], [1], amap, ["N02B"])
    assert art.rows == [[1, "N02B", "x", 1, 1, "100.0000"]]


def test_prevalence_multiclass_rxcui_counts_in_both():
    amap = _map({"1": {("N02B", "x"), ("B01A", "y")}})
    art = drug_prevalence_by_cluster([["1"]], [0], amap, ["N02B", "B01A"])
    assert [row[3] for row in art.rows] == [1, 1]


def test_prevalence_zero_denominator_cluster():
    amap = _map({"1": {("N02B", "x")}})
    art = drug_prevalence_by_cluster([["1"], []], [0, 1], amap, ["N02B"])
    assert art.rows == [[0, "N02B", "x", 1, 1, "100.0000"], [1, "N02B", "x", 0, 0, "NA"]]


def test_stage_drugs_writes_na_for_zero_denominator(tmp_path):
    patients = [
        CohortPatient("A", Sex.FEMALE, Race.WHITE, 70, False, ((1, "401.1"),), ("161", "161")),
        CohortPatient("B", Sex.MALE, Race.WHITE, 80, False, ((1, "401.1"),), ()),
    ]
    save_cohort(Cohort(patients, [("patients_total", 2)], CohortConfig()), tmp_path / "cohort.json")
    _write_csv(tmp_path / "assignments.csv", ["patient_id", "cluster"], [["A", 0], ["B", 1]])
    assert main(["drugs", "--out", str(tmp_path)]) == 0
    columns = ["cluster", "atc3", "atc3_name", "numerator", "denominator", "pct"]
    table = read_table(tmp_path / "drug_usage.csv", columns)
    assert table.header == columns
    assert table.rows == [
        ["0", "N02B", "Other analgesics and antipyretics", "1", "1", "100.0000"],
        ["1", "N02B", "Other analgesics and antipyretics", "0", "0", "NA"],
    ]


def test_prevalence_rows_cluster_major_selected_order():
    amap = _map({"1": {("N02B", "x")}, "2": {("B01A", "y")}})
    art = drug_prevalence_by_cluster([["1"], ["2"]], [0, 1], amap, ["N02B", "B01A"])
    assert [(c, a) for c, a, *_ in art.rows] == [
        (0, "N02B"),
        (0, "B01A"),
        (1, "N02B"),
        (1, "B01A"),
    ]


def test_prevalence_missing_assignment_is_fatal(tmp_path, capsys):
    patients = [
        CohortPatient("A", Sex.FEMALE, Race.WHITE, 70, False, ((1, "401.1"),), ("161",)),
        CohortPatient("B", Sex.MALE, Race.WHITE, 80, False, ((1, "401.1"),), ()),
    ]
    save_cohort(Cohort(patients, [("patients_total", 2)], CohortConfig()), tmp_path / "cohort.json")
    _write_csv(tmp_path / "assignments.csv", ["patient_id", "cluster"], [["A", 0]])
    assert main(["drugs", "--out", str(tmp_path)]) == 1
    assert "1 patients missing cluster assignments" in capsys.readouterr().err
    assert not (tmp_path / "drug_usage.csv").exists()


def test_prevalence_empty_selection_warns(caplog):
    amap = _map({"1": {("N02B", "x")}})
    with caplog.at_level("WARNING"):
        art = drug_prevalence_by_cluster([["1"]], [0], amap, [])
    assert art.rows == []
    assert any("empty selected class list" in r.message for r in caplog.records)
