"""Phecode map loading, vocabulary ranking, and feature matrix construction."""

import numpy as np
import pytest

from adsubtype.cohort import CodeSystem, parse_tables
from adsubtype.phenotype import (
    AGGREGATE,
    TEMPORAL,
    PhenotypeVocabulary,
    aggregate_from_temporal,
    build_aggregate_matrix,
    build_temporal_matrix,
    load_phecode_map,
    load_vocabulary_csv,
    rank_phenotypes,
    read_feature_csv,
    write_feature_csv,
    write_vocabulary_csv,
)
from adsubtype.table import read_binary_table
from conftest import write_csv

MAP_HEADER = ["icd_code", "system_flag", "phecode", "phenotype"]


def test_load_phecode_map_and_lookup(tmp_path):
    path = tmp_path / "map.csv"
    write_csv(
        path,
        MAP_HEADER,
        [
            ["401.9", "9", "401.1", "Essential hypertension"],
            ["I10", "10", "401.1", "Essential hypertension"],
            ["272.4", "9", "272.1", "Hyperlipidemia"],
        ],
    )
    pmap = load_phecode_map(path)
    assert len(pmap) == 3
    # dotted and undotted queries hit the same entry
    assert pmap.lookup("4019", CodeSystem.ICD9) == "401.1"
    assert pmap.lookup("401.9", CodeSystem.ICD9) == "401.1"
    assert pmap.lookup("i10", CodeSystem.ICD10CM) == "401.1"
    assert pmap.lookup("401.9", CodeSystem.ICD10CM) is None
    assert pmap.lookup("unknown", CodeSystem.ICD9) is None
    assert pmap.names_by_phecode()["272.1"] == "Hyperlipidemia"
    assert pmap.codes_for_phecode("401.1") == [
        ("4019", CodeSystem.ICD9),
        ("I10", CodeSystem.ICD10CM),
    ]


def test_load_phecode_map_conflict_fatal(tmp_path):
    path = tmp_path / "map.csv"
    write_csv(
        path,
        MAP_HEADER,
        [
            ["401.9", "9", "401.1", "Essential hypertension"],
            ["4019", "9", "250.2", "Type 2 diabetes"],
        ],
    )
    with pytest.raises(ValueError, match="conflicting"):
        load_phecode_map(path)


def test_load_phecode_map_consistent_duplicate_ok(tmp_path):
    path = tmp_path / "map.csv"
    write_csv(
        path,
        MAP_HEADER,
        [
            ["401.9", "9", "401.1", "Essential hypertension"],
            ["4019", "9", "401.1", "Essential hypertension"],
        ],
    )
    assert len(load_phecode_map(path)) == 1


def test_load_phecode_map_bad_flag(tmp_path):
    path = tmp_path / "map.csv"
    write_csv(path, MAP_HEADER, [["401.9", "11", "401.1", "x"]])
    with pytest.raises(ValueError) as exc:
        load_phecode_map(path)
    assert str(exc.value) == f"{path}: line 2: system_flag must be 9 or 10, got '11'"


def test_load_phecode_map_missing_column(tmp_path):
    path = tmp_path / "map.csv"
    write_csv(path, ["icd_code", "phecode"], [["401.9", "401.1"]])
    with pytest.raises(ValueError, match="bad header"):
        load_phecode_map(path)


def test_load_phecode_map_refuses_unquoted_comma_in_name(tmp_path):
    """An unquoted comma splits the phenotype into an extra field: refused, not truncated."""
    path = tmp_path / "map.csv"
    path.write_text(",".join(MAP_HEADER) + "\n401.9,9,401.1,Hypertension, essential\n")
    with pytest.raises(ValueError) as exc:
        load_phecode_map(path)
    assert str(exc.value) == f"{path}: line 2: 5 fields, header has 4"


def test_load_phecode_map_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_phecode_map(tmp_path / "nope.csv")


def test_load_phecode_map_empty_warns(tmp_path, caplog):
    path = tmp_path / "map.csv"
    write_csv(path, MAP_HEADER, [])
    with caplog.at_level("WARNING"):
        pmap = load_phecode_map(path)
    assert len(pmap) == 0
    assert any("empty" in r.message for r in caplog.records)


def test_map_diagnosis(tiny_pmap, table_writer):
    tables = parse_tables(*table_writer(diagnoses=[["P1", "E78.5", "ICD10CM", "2015-01-01"]]))
    [(code, system)] = tables.diagnoses.item.values
    assert system is CodeSystem.ICD10CM
    assert tiny_pmap.lookup(code, system) == "272.1"


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def _ranking_cohort(build_cohort, per_code_patients):
    """Patients carrying one condition each; AD index fixed at 2015-06-01."""
    code_rows = {"401.1": "4019", "272.1": "2724", "250.2": "25000"}
    patients, diagnoses = [], []
    i = 0
    for phecode, n in per_code_patients.items():
        for _ in range(n):
            pid = f"P{i:03d}"
            i += 1
            patients.append([pid, "F", "05", "1950-01-01"])
            diagnoses.append([pid, "331.0", "ICD9", "2015-06-01"])
            diagnoses.append([pid, code_rows[phecode], "ICD9", "2015-01-01"])
    return build_cohort(patients, diagnoses)


def test_rank_phenotypes_orders_by_distinct_patients(build_cohort, tiny_pmap):
    cohort = _ranking_cohort(build_cohort, {"401.1": 3, "272.1": 5, "250.2": 3})
    vocab, table = rank_phenotypes(cohort, tiny_pmap, review_size=10, keep=3, exclusions=())
    assert table == [
        ("272.1", "Hyperlipidemia", 5),
        ("250.2", "Type 2 diabetes", 3),  # tie with 401.1 breaks by phecode string
        ("401.1", "Essential hypertension", 3),
    ]
    assert vocab.codes() == ["272.1", "250.2", "401.1"]


def test_rank_phenotypes_counts_distinct_not_events(build_cohort, tiny_pmap):
    # one patient with the same condition in two slots still counts once
    patients = [["P0", "F", "05", "1950-01-01"], ["P1", "F", "05", "1950-01-01"]]
    diagnoses = [
        ["P0", "331.0", "ICD9", "2015-06-01"],
        ["P0", "4019", "ICD9", "2015-01-01"],
        ["P0", "4019", "ICD9", "2014-01-01"],
        ["P1", "331.0", "ICD9", "2015-06-01"],
        ["P1", "2724", "ICD9", "2015-01-01"],
    ]
    cohort = build_cohort(patients, diagnoses)
    _, table = rank_phenotypes(cohort, tiny_pmap, review_size=5, keep=2, exclusions=())
    assert dict((c, n) for c, _, n in table) == {"401.1": 1, "272.1": 1}


def test_rank_phenotypes_exclusions_backfill(build_cohort, tiny_pmap):
    cohort = _ranking_cohort(build_cohort, {"401.1": 5, "272.1": 4, "250.2": 3})
    vocab, table = rank_phenotypes(
        cohort, tiny_pmap, review_size=10, keep=2, exclusions=["401.1"]
    )
    # review table still lists the excluded code; the vocabulary skips it
    assert [c for c, _, _ in table] == ["401.1", "272.1", "250.2"]
    assert vocab.codes() == ["272.1", "250.2"]
    assert "401.1" not in vocab.codes()


def test_rank_phenotypes_excludes_ad_phecode(build_cohort, tiny_pmap):
    # a second, later AD-coded event dedups into an event row mapping to the
    # AD phecode; it must never enter the ranking
    patients = [["P0", "F", "05", "1950-01-01"]]
    diagnoses = [
        ["P0", "331.0", "ICD9", "2015-06-01"],
        ["P0", "4019", "ICD9", "2015-01-01"],
    ]
    cohort = build_cohort(patients, diagnoses)
    _, table = rank_phenotypes(cohort, tiny_pmap, review_size=5, keep=1, exclusions=())
    assert all(code != "290.11" for code, _, _ in table)


def test_rank_phenotypes_insufficient_survivors(build_cohort, tiny_pmap):
    cohort = _ranking_cohort(build_cohort, {"401.1": 2})
    with pytest.raises(ValueError, match="survive ranking"):
        rank_phenotypes(cohort, tiny_pmap, review_size=10, keep=3, exclusions=())


def test_rank_phenotypes_review_size_caps_survivors(build_cohort, tiny_pmap):
    cohort = _ranking_cohort(build_cohort, {"401.1": 3, "272.1": 5, "250.2": 4})
    with pytest.raises(ValueError, match="survive ranking"):
        # review keeps 2 codes, exclusion removes one, so keep=2 cannot refill
        rank_phenotypes(cohort, tiny_pmap, review_size=2, keep=2, exclusions=["272.1"])


def test_vocabulary_duplicate_phecode_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        PhenotypeVocabulary((("401.1", "a"), ("401.1", "b")))


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def _matrix_cohort(build_cohort):
    patients = [["A", "F", "05", "1950-01-01"], ["B", "M", "03", "1948-01-01"]]
    diagnoses = [
        ["A", "331.0", "ICD9", "2018-06-01"],
        ["A", "4019", "ICD9", "2018-05-01"],  # slot 1
        ["A", "4019", "ICD9", "2017-01-01"],  # slot 3
        ["A", "2724", "ICD9", "2017-10-01"],  # slot 2
        ["B", "331.0", "ICD9", "2018-06-01"],
        ["B", "25000", "ICD9", "2016-01-01"],  # slot 5
    ]
    return build_cohort(patients, diagnoses)


def test_build_temporal_matrix_layout(build_cohort, tiny_vocab):
    cohort = _matrix_cohort(build_cohort)
    fm = build_temporal_matrix(cohort, tiny_vocab)
    assert fm.layout == TEMPORAL
    assert fm.values.shape == (2, 18)
    assert fm.values.dtype == np.uint8
    # columns are phecode-major, slot-minor, in vocabulary order
    assert fm.columns[:7] == [("401.1", s) for s in range(1, 7)] + [("272.1", 1)]
    col = {c: j for j, c in enumerate(fm.columns)}
    a = fm.values[fm.patient_ids.index("A")]
    assert a[col[("401.1", 1)]] == 1 and a[col[("401.1", 3)]] == 1
    assert a[col[("272.1", 2)]] == 1
    assert a.sum() == 3
    b = fm.values[fm.patient_ids.index("B")]
    assert b[col[("250.2", 5)]] == 1 and b.sum() == 1
    assert fm.column_labels()[0] == "401.1_s1"


def test_build_aggregate_matrix_and_or_identity(build_cohort, tiny_vocab):
    cohort = _matrix_cohort(build_cohort)
    agg = build_aggregate_matrix(cohort, tiny_vocab)
    assert agg.layout == AGGREGATE
    assert agg.values.tolist() == [[1, 1, 0], [0, 0, 1]]
    folded = aggregate_from_temporal(build_temporal_matrix(cohort, tiny_vocab))
    assert np.array_equal(folded.values, agg.values)
    assert folded.columns == agg.columns
    assert folded.patient_ids == agg.patient_ids


def test_aggregate_from_temporal_requires_temporal(build_cohort, tiny_vocab):
    agg = build_aggregate_matrix(_matrix_cohort(build_cohort), tiny_vocab)
    with pytest.raises(ValueError, match="temporal"):
        aggregate_from_temporal(agg)


def test_matrix_rejects_all_zero_rows(build_cohort):
    # vocabulary missing the only condition patient B carries
    cohort = _matrix_cohort(build_cohort)
    vocab = PhenotypeVocabulary((("401.1", "Essential hypertension"), ("272.1", "Hyperlipidemia")))
    with pytest.raises(ValueError, match="'B'"):
        build_temporal_matrix(cohort, vocab)
    with pytest.raises(ValueError, match="all-zero"):
        build_aggregate_matrix(cohort, vocab)


# ---------------------------------------------------------------------------
# CSV round trips
# ---------------------------------------------------------------------------


def test_feature_csv_round_trip(build_cohort, tiny_vocab, tmp_path):
    cohort = _matrix_cohort(build_cohort)
    fm = build_temporal_matrix(cohort, tiny_vocab)
    path = tmp_path / "features_temporal.csv"
    write_feature_csv(fm, path, meta="tool=test seed=1")
    assert path.read_text().startswith("# tool=test seed=1\n")
    back = read_feature_csv(path)
    assert back.layout == fm.layout
    assert back.patient_ids == fm.patient_ids
    assert back.columns == fm.columns
    assert back.slot_count == fm.slot_count
    assert np.array_equal(back.values, fm.values)
    # one parse may serve several stages, so none of them may write into it
    with pytest.raises(ValueError, match="read-only"):
        back.values[0, 0] = 1

    # the aggregate file is an output only: its bytes hold the matrix, but no stage reads it
    agg = build_aggregate_matrix(cohort, tiny_vocab)
    path = tmp_path / "features_aggregate.csv"
    write_feature_csv(agg, path, meta="tool=test seed=1")
    header, pids, values = read_binary_table(path, "patient_id")
    assert header == ["patient_id", "401.1", "272.1", "250.2"]
    assert pids == agg.patient_ids
    assert np.array_equal(values, agg.values)
    with pytest.raises(ValueError) as exc:
        read_feature_csv(path)
    assert str(exc.value) == f"{path}: column '401.1' is not <phecode>_s<slot>"


@pytest.mark.parametrize(
    "row, problem",
    [
        pytest.param(["P2", "1", "0"], "line 4: 3 fields, header has 4", id="short-row"),
        pytest.param(["P2", "1", "0", "1", "0"], "line 4: 5 fields, header has 4", id="long-row"),
        pytest.param(["P2", "1", "2", "0"], "line 4: feature cells must be 0 or 1", id="two"),
        pytest.param(["P2", "10", "", "1"], "line 4: feature cells must be 0 or 1", id="shifted"),
        pytest.param(["P2", "1", " 0", "1"], "line 4: feature cells must be 0 or 1", id="space"),
        pytest.param(["P2", "1", "/", "1"], "line 4: feature cells must be 0 or 1", id="below-0"),
        pytest.param(
            ["P2", "1", "\u00e9", "1"], "line 4: feature cells must be 0 or 1", id="non-ascii"
        ),
    ],
)
def test_read_feature_csv_rejects_malformed_rows(tmp_path, row, problem):
    path = tmp_path / "features_aggregate.csv"
    path.write_text("# meta\npatient_id,401.1,272.1,250.2\nP1,0,1,0\n", encoding="utf-8")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(",".join(row) + "\n")
    with pytest.raises(ValueError) as exc:
        read_feature_csv(path)
    assert str(exc.value) == f"{path}: {problem}"


def test_vocabulary_csv_round_trip(tmp_path, tiny_vocab):
    path = tmp_path / "vocab.csv"
    write_vocabulary_csv(tiny_vocab, path, counts={"401.1": 9, "272.1": 4}, meta="m")
    text = path.read_text()
    assert text.startswith("# m\n")
    assert "1,401.1,Essential hypertension,9" in text
    assert load_vocabulary_csv(path).phecodes == tiny_vocab.phecodes


def test_load_vocabulary_csv_sorts_by_rank(tmp_path):
    path = tmp_path / "vocab.csv"
    write_csv(
        path,
        ["rank", "phecode", "phenotype", "patient_count"],
        [["2", "272.1", "Hyperlipidemia", ""], ["1", "401.1", "Essential hypertension", ""]],
    )
    assert load_vocabulary_csv(path).codes() == ["401.1", "272.1"]


def test_load_vocabulary_csv_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_vocabulary_csv(tmp_path / "nope.csv")
    path = tmp_path / "bad.csv"
    write_csv(path, ["phecode"], [["401.1"]])
    with pytest.raises(ValueError, match="header"):
        load_vocabulary_csv(path)


@pytest.mark.parametrize(
    "row, problem",
    [
        pytest.param("1,401.1", "line 3: 2 fields, header has 3", id="short-row"),
        pytest.param("one,401.1,Essential hypertension", "line 3: rank 'one' is not an integer",
                     id="non-integer-rank"),
    ],
)
def test_load_vocabulary_csv_locates_malformed_rows(tmp_path, row, problem):
    path = tmp_path / "vocab.csv"
    path.write_text(f"# m\nrank,phecode,phenotype\n{row}\n")
    with pytest.raises(ValueError) as exc:
        load_vocabulary_csv(path)
    assert str(exc.value) == f"{path}: {problem}"
