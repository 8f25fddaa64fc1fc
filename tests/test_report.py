"""Prevalence tables, demographics, crosstab, formatting, and the manifest."""

import hashlib
import json

import numpy as np
import pytest

from adsubtype.cli import Context
from adsubtype.cohort import Cohort, CohortConfig, CohortPatient, Race, Sex
from adsubtype.phenotype import AGGREGATE, TEMPORAL, FeatureMatrix
from adsubtype.report import (
    Artifact,
    ArtifactMeta,
    cluster_crosstab,
    condition_prevalence,
    config_hash,
    demographic_breakdown,
    emit_reports,
    fmt_pct,
    format_p,
    mlr_summary_json,
    render_csv,
    render_mlr,
    render_stats_grid,
    significance_stars,
    write_manifest,
)
from adsubtype.stats import GRAD_TOL, GridRow, fit_multinomial_logit

from conftest import write_csv

META = ArtifactMeta("test", 0, "0" * 12)


# ---------------------------------------------------------------------------
# hashing and formatting
# ---------------------------------------------------------------------------


def test_config_hash_ignores_execution_keys():
    base = {"seed": 7, "cluster": {"k": 4}, "threads": 1, "out_dir": "a"}
    moved = {"seed": 7, "cluster": {"k": 4}, "threads": 16, "out_dir": "b"}
    assert config_hash(base) == config_hash(moved)
    assert config_hash(base) != config_hash({**base, "seed": 8})
    assert len(config_hash(base)) == 12
    assert all(c in "0123456789abcdef" for c in config_hash(base))


def test_meta_line_and_render_csv():
    art = Artifact("x.csv", ["a", "b"], [[1, "two"], [3, "four"]])
    text = render_csv(art, META)
    assert text == "# adsubtype=test seed=0 config=000000000000\na,b\n1,two\n3,four\n"


def test_fmt_pct():
    assert fmt_pct(1, 3) == "33.3333"
    assert fmt_pct(0, 5) == "0.0000"
    assert fmt_pct(2, 0) == "NA"


def test_format_p_thresholds():
    assert format_p(None) == "NA"
    assert format_p(0.0005) == "#"
    assert format_p(0.001) == "#"
    assert format_p(0.0011) == "0.001"
    assert format_p(0.04963) == "0.050"


def test_significance_stars_boundaries():
    assert significance_stars(0.009) == "***"
    assert significance_stars(0.01) == "**"
    assert significance_stars(0.049) == "**"
    assert significance_stars(0.05) == "*"
    assert significance_stars(0.099) == "*"
    assert significance_stars(0.1) == ""
    assert significance_stars(0.9) == ""


# ---------------------------------------------------------------------------
# condition prevalence
# ---------------------------------------------------------------------------


def _aggregate_features():
    # patients P0..P3; conditions by overall prevalence: 401.1 (3), 272.1 (2), 250.2 (1)
    values = np.array(
        [
            [1, 1, 0],
            [1, 0, 0],
            [1, 1, 1],
            [0, 0, 0],
        ],
        dtype=np.uint8,
    )
    return FeatureMatrix(
        patient_ids=["P0", "P1", "P2", "P3"],
        layout=AGGREGATE,
        values=values,
        columns=[("250.2", None), ("272.1", None), ("401.1", None)],
    )


def _rows_by(art, *key_columns):
    """Artifact rows as header->value dicts, keyed by the named columns."""
    dicts = [dict(zip(art.header, row)) for row in art.rows]
    return {tuple(d[c] for c in key_columns): d for d in dicts}


def test_condition_prevalence_aggregate():
    features = _aggregate_features()
    art = condition_prevalence([0, 0, 1, 1], features, top_k=2)
    assert art.name == "prevalence_aggregate.csv"
    assert [row[1] for row in art.rows] == ["250.2", "272.1"] * 2
    by_key = _rows_by(art, "cluster", "phecode")
    assert by_key[(0, "250.2")]["numerator"] == 2
    assert by_key[(0, "250.2")]["denominator"] == 2
    assert by_key[(1, "272.1")]["numerator"] == 1
    assert by_key[(1, "272.1")]["denominator"] == 2
    assert by_key[(1, "272.1")]["pct"] == "50.0000"


def test_condition_prevalence_top_k_ties_break_on_phecode():
    features = _aggregate_features()
    art = condition_prevalence([0, 0, 0, 0], features, top_k=3)
    assert [row[1] for row in art.rows] == ["250.2", "272.1", "401.1"]


def _temporal_features():
    # two phecodes x two slots, phecode-major columns
    values = np.array(
        [
            [1, 0, 0, 0],  # A: 250.2 slot1
            [0, 0, 1, 0],  # B: 401.1 slot1
            [0, 1, 0, 0],  # C: 250.2 slot2
        ],
        dtype=np.uint8,
    )
    return FeatureMatrix(
        patient_ids=["A", "B", "C"],
        layout=TEMPORAL,
        values=values,
        columns=[("250.2", 1), ("250.2", 2), ("401.1", 1), ("401.1", 2)],
        slot_count=2,
    )


def test_condition_prevalence_temporal_slot_active():
    features = _temporal_features()
    art = condition_prevalence([0, 0, 0], features, top_k=2)
    assert art.name == "prevalence_temporal.csv"
    by_key = _rows_by(art, "phecode", "slot")
    # slot 1: A and B have a flag somewhere in slot 1 -> denominator 2
    assert by_key[("250.2", 1)]["numerator"] == 1
    assert by_key[("250.2", 1)]["denominator"] == 2
    # slot 2: only C active -> denominator 1
    assert by_key[("250.2", 2)]["denominator"] == 1
    assert by_key[("401.1", 2)]["numerator"] == 0


def test_condition_prevalence_zero_denominator_suppressed(caplog):
    features = _temporal_features()
    # cluster 1 holds only B, who has no slot-2 flags
    with caplog.at_level("WARNING"):
        art = condition_prevalence([0, 1, 0], features, top_k=2)
    na_rows = [row for row in art.rows if row[-1] == "NA"]
    assert na_rows == [[1, "250.2", 2, 0, 0, "NA"], [1, "401.1", 2, 0, 0, "NA"]]
    assert any("2 zero-denominator rows suppressed" in r.message for r in caplog.records)


def test_condition_prevalence_errors():
    with pytest.raises(ValueError, match="must align"):
        condition_prevalence([0, 0], _temporal_features(), top_k=2)


def test_render_prevalence_headers():
    agg = condition_prevalence([0, 0, 0, 0], _aggregate_features(), top_k=2)
    assert agg.header == ["cluster", "phecode", "numerator", "denominator", "pct"]
    tmp = condition_prevalence([0, 0, 0], _temporal_features(), top_k=2)
    assert tmp.header == ["cluster", "phecode", "slot", "numerator", "denominator", "pct"]


# ---------------------------------------------------------------------------
# demographics
# ---------------------------------------------------------------------------


def _mini_cohort():
    patients = [
        CohortPatient("A", Sex.FEMALE, Race.WHITE, 75, True, (), ()),
        CohortPatient("B", Sex.MALE, Race.BLACK_AFRICAN_AMERICAN, 65, False, (), ()),
        CohortPatient("C", Sex.FEMALE, Race.WHITE, 85, False, (), ()),
    ]
    return Cohort(patients=patients, funnel=[("patients_total", 3)], config=CohortConfig())


def test_demographic_breakdown_counts_and_zero_categories():
    art = demographic_breakdown([0, 0, 1], _mini_cohort())
    by_key = _rows_by(art, "cluster", "variable", "category")
    assert by_key[(0, "sex", "Female")]["count"] == 1
    assert by_key[(0, "sex", "Male")]["count"] == 1
    assert by_key[(0, "mortality", "died")]["count"] == 1
    assert by_key[(0, "mortality", "alive")]["count"] == 1
    assert by_key[(1, "age_group", ">=85")]["count"] == 1
    assert by_key[(1, "age_group", "<65")]["count"] == 0  # zero category still present
    assert by_key[(0, "race", "Asian")]["count"] == 0
    # every cluster emits the full category schema
    per_cluster = {}
    for cluster, variable, category, *_ in art.rows:
        per_cluster.setdefault(cluster, []).append((variable, category))
    assert per_cluster[0] == per_cluster[1]
    assert [row[5] for row in art.rows if row[0] == 0 and row[1] == "sex"] == [
        "50.0000", "50.0000", "0.0000",
    ]


def test_demographic_breakdown_variable_order_and_render():
    art = demographic_breakdown([0, 0, 0], _mini_cohort())
    variables = []
    for row in art.rows:
        if row[1] not in variables:
            variables.append(row[1])
    assert variables == ["sex", "race", "age_group", "mortality"]
    assert art.name == "demographics.csv"
    assert art.header == ["cluster", "variable", "category", "count", "cluster_size", "pct"]
    assert art.rows[0] == [0, "sex", "Female", 2, 3, "66.6667"]


def test_demographic_breakdown_missing_assignment(tmp_path):
    write_csv(tmp_path / "assignments.csv", ["patient_id", "cluster"], [["A", 0], ["B", 0]])
    ctx = Context({}, tmp_path, META, parsed={})
    with pytest.raises(ValueError, match="1 patients missing cluster assignments"):
        ctx.cluster_labels("assignments.csv", _mini_cohort().patient_ids())


# ---------------------------------------------------------------------------
# crosstab
# ---------------------------------------------------------------------------


def test_crosstab_counts_and_totals():
    art = cluster_crosstab([0, 0, 1, 1, 1], [0, 1, 1, 1, 0])
    assert art.name == "crosstab.csv"
    assert art.header == ["cluster_a", "b_0", "b_1", "row_total"]
    assert art.rows == [[0, 1, 1, 2], [1, 1, 2, 3], ["col_total", 2, 3, 5]]


def test_crosstab_identity_is_diagonal():
    art = cluster_crosstab([0, 1, 2], [0, 1, 2])
    assert [row[1:4] for row in art.rows[:3]] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_crosstab_mismatched_patients(tmp_path):
    rows = [["A", 0], ["B", 1], ["C", 1], ["STALE", 0]]
    write_csv(tmp_path / "assignments_aggregate.csv", ["patient_id", "cluster"], rows)
    ctx = Context({}, tmp_path, META, parsed={})
    with pytest.raises(ValueError, match="1 assigned patients not in the cohort"):
        ctx.cluster_labels("assignments_aggregate.csv", _mini_cohort().patient_ids())


# ---------------------------------------------------------------------------
# stats grid and MLR rendering
# ---------------------------------------------------------------------------


def test_render_stats_grid_formatted_and_raw():
    grid = [
        GridRow("sex", None, {"0_vs_1": 0.0004, "all_clusters": 0.25}),
        GridRow("race", "White", {"0_vs_1": None, "all_clusters": 0.04963}),
    ]
    fmt, raw = render_stats_grid(grid, [0, 1])
    assert fmt.name == "stats_grid.csv" and raw.name == "stats_grid_raw.csv"
    assert fmt.header == ["variable", "category", "0_vs_1", "all_clusters"]
    assert fmt.rows == [
        ["sex", "", "#", "0.250"],
        ["race", "White", "NA", "0.050"],
    ]
    assert raw.rows[0] == ["sex", "", "0.0004", "0.25"]
    assert raw.rows[1][2] == ""  # untestable cell stays blank in the raw view


def test_render_mlr_table():
    labels = [0] * 30 + [1] * 40 + [2] * 30
    fit = fit_multinomial_logit(np.zeros((100, 0)), labels, reference_cluster=0)
    art = render_mlr(fit)
    assert art.header == ["cluster", "predictor", "coef", "robust_se", "rrr", "z", "p", "stars"]
    assert len(art.rows) == 2
    assert art.rows[0][0] == 1 and art.rows[0][1] == "Constant"
    for row in art.rows:
        p = float(row[6])
        assert row[7] == significance_stars(p)
        assert float(row[4]) == pytest.approx(np.exp(float(row[2])), abs=1e-6)


def test_mlr_summary_json_fields():
    labels = [0] * 30 + [1] * 40 + [2] * 30
    fit = fit_multinomial_logit(np.zeros((100, 0)), labels, reference_cluster=0)
    payload = mlr_summary_json(fit)
    assert "converged" not in payload
    assert payload["grad_norm"] <= GRAD_TOL
    assert payload["reference_cluster"] == 0
    assert payload["class_labels"] == [1, 2]
    assert payload["aic"] == pytest.approx(2 * 2 - 2 * fit.log_likelihood)


# ---------------------------------------------------------------------------
# emission and manifest
# ---------------------------------------------------------------------------


def test_emit_reports_writes_csv_and_manifest(tmp_path):
    art = Artifact("cluster_sizes.csv", ["cluster", "n"], [[0, 2], [1, 3]])
    manifest = emit_reports([art], tmp_path, META)
    path = tmp_path / "cluster_sizes.csv"
    assert path.exists()
    entry = manifest["artifacts"]["cluster_sizes.csv"]
    assert entry == {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk == manifest


def test_emit_reports_rerun_stability(tmp_path):
    art = Artifact("cluster_sizes.csv", ["cluster", "n"], [[0, 2]])
    emit_reports([art], tmp_path, META)
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    emit_reports([art], tmp_path, META)
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second


def test_manifest_entries_hold_only_the_digest(tmp_path):
    empty = Artifact("elbow.csv", ["k", "sse"], [])
    emit_reports([empty], tmp_path, META)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest["artifacts"]["elbow.csv"]) == ["sha256"]


def test_manifest_lists_extras_and_skips_itself(tmp_path):
    (tmp_path / "assignments.csv").write_text("# meta\npid,cluster\np1,0\n")
    (tmp_path / "zz_extra.csv").write_text("a\n1\n2\n")
    (tmp_path / "zz_extra.json").write_text('{"a": 1, "b": [1, 2, 3]}\n')
    (tmp_path / "notes.txt").write_text("ignored\n")
    manifest = write_manifest(tmp_path)
    names = list(manifest["artifacts"])
    assert "assignments.csv" in names
    assert "zz_extra.csv" in names
    assert "manifest.json" not in names
    assert "notes.txt" not in names
    # every entry carries only its digest; nothing parses the files
    assert list(manifest["artifacts"]["zz_extra.csv"]) == ["sha256"]
    assert list(manifest["artifacts"]["zz_extra.json"]) == ["sha256"]


def test_write_text_failure_is_runtime_error(tmp_path):
    from adsubtype.report import write_text

    with pytest.raises(RuntimeError, match="failed writing artifact"):
        write_text(tmp_path / "missing_dir" / "x.csv", "data")
