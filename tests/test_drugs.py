"""ATC mapping and per-cluster drug prevalence."""

from datetime import date

import pytest

from adsubtype.drugs import (
    ATC3_PATTERN,
    AtcMap,
    drug_prevalence_by_cluster,
    load_atc_map,
    rank_drug_classes,
)
from adsubtype.cohort import PrescriptionEvent

from conftest import write_csv as _write_csv


def _rx(pid, rxcui, day=1):
    return PrescriptionEvent(pid, rxcui, date(2016, 1, day))


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
    assert amap.rejects == ()


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
    assert [(r.line, r.reason) for r in amap.rejects] == [
        (3, "invalid ATC3 code 'N02'"),
        (4, "empty rxcui"),
        (5, "invalid ATC3 code 'N02BA'"),
    ]
    assert all(r.file == "atc_map" for r in amap.rejects)
    assert any("rejected 3 rows" in r.message for r in caplog.records)


def test_load_atc_map_fatal_errors(tmp_path, caplog):
    missing_col = tmp_path / "bad.csv"
    _write_csv(missing_col, ["rxcui", "atc3"], [["1", "N02B"]])
    with pytest.raises(ValueError, match="expected columns"):
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
    prescriptions = {
        # N02B: 2 patients (repeat rx for A counts once); B01A: 2; C09A: 1
        "A": [_rx("A", "1", 1), _rx("A", "1", 2), _rx("A", "2")],
        "B": [_rx("B", "1")],
        "C": [_rx("C", "2"), _rx("C", "3")],
    }
    assert rank_drug_classes(prescriptions, amap) == ["B01A", "N02B", "C09A"]
    assert rank_drug_classes(prescriptions, amap, top=2) == ["B01A", "N02B"]


def test_prevalence_denominator_is_any_prescription():
    amap = _map({"1": {("N02B", "x")}})
    prescriptions = {
        "A": [_rx("A", "1")],          # mapped
        "B": [_rx("B", "999")],        # unmapped only: still in denominator
        "C": [],                       # no prescriptions: out of denominator
    }
    assignments = {"A": 0, "B": 0, "C": 0}
    table = drug_prevalence_by_cluster(prescriptions, assignments, amap, ["N02B"])
    assert table.denominators == {0: 2}
    assert table.n_with_prescriptions == 2
    assert table.rows() == [(0, "N02B", "x", 1, 2, 50.0)]
    assert table.unmapped_rxcuis == {"999": 1}


def test_prevalence_counts_patient_once_per_class():
    amap = _map({"1": {("N02B", "x")}, "2": {("N02B", "x")}})
    prescriptions = {"A": [_rx("A", "1"), _rx("A", "2"), _rx("A", "1", 3)]}
    table = drug_prevalence_by_cluster(prescriptions, {"A": 1}, amap, ["N02B"])
    assert table.counts == {("N02B", 1): 1}


def test_prevalence_multiclass_rxcui_counts_in_both():
    amap = _map({"1": {("N02B", "x"), ("B01A", "y")}})
    prescriptions = {"A": [_rx("A", "1")]}
    table = drug_prevalence_by_cluster(prescriptions, {"A": 0}, amap, ["N02B", "B01A"])
    assert table.counts == {("N02B", 0): 1, ("B01A", 0): 1}


def test_prevalence_zero_denominator_cluster():
    amap = _map({"1": {("N02B", "x")}})
    prescriptions = {"A": [_rx("A", "1")], "B": []}
    table = drug_prevalence_by_cluster(prescriptions, {"A": 0, "B": 1}, amap, ["N02B"])
    assert table.denominators == {0: 1, 1: 0}
    rows = table.rows()
    assert rows == [
        (0, "N02B", "x", 1, 1, 100.0),
        (1, "N02B", "x", 0, 0, 0.0),
    ]


def test_prevalence_rows_cluster_major_selected_order():
    amap = _map({"1": {("N02B", "x")}, "2": {("B01A", "y")}})
    prescriptions = {"A": [_rx("A", "1")], "B": [_rx("B", "2")]}
    table = drug_prevalence_by_cluster(
        prescriptions, {"A": 0, "B": 1}, amap, ["N02B", "B01A"]
    )
    assert [(c, a) for c, a, *_ in table.rows()] == [
        (0, "N02B"),
        (0, "B01A"),
        (1, "N02B"),
        (1, "B01A"),
    ]


def test_prevalence_default_selection_uses_ranking():
    amap = _map({"1": {("N02B", "x")}, "2": {("B01A", "y")}})
    prescriptions = {"A": [_rx("A", "1"), _rx("A", "2")], "B": [_rx("B", "2")]}
    table = drug_prevalence_by_cluster(prescriptions, {"A": 0, "B": 0}, amap)
    assert table.selected == ["B01A", "N02B"]


def test_prevalence_missing_assignment_is_fatal():
    amap = _map({"1": {("N02B", "x")}})
    with pytest.raises(ValueError, match="missing cluster assignments"):
        drug_prevalence_by_cluster({"A": [_rx("A", "1")]}, {}, amap, ["N02B"])


def test_prevalence_empty_selection_warns(caplog):
    amap = _map({"1": {("N02B", "x")}})
    with caplog.at_level("WARNING"):
        table = drug_prevalence_by_cluster({"A": [_rx("A", "1")]}, {"A": 0}, amap, [])
    assert table.rows() == []
    assert any("empty selected class list" in r.message for r in caplog.records)
