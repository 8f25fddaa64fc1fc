"""Command line behavior: config handling, stage wiring, and determinism."""

import copy
import dataclasses
import gc
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adsubtype
from adsubtype import cli, cluster
from adsubtype.cli import DEFAULT_CONFIG, PIPELINE, STAGES, main
from adsubtype.cluster import kmeans
from adsubtype.cohort import CohortConfig, load_cohort
from adsubtype.phenotype import AGGREGATE, TEMPORAL, FeatureMatrix, read_feature_csv
from adsubtype.synth import SubtypeProfile

from conftest import write_profiles


def _cli_profiles():
    """Three planted subtypes with mild demographic contrasts.

    Two-category race and sex keep every regression cell populated at
    n=240, so the mlr stage stays far from quasi-separation.
    """
    codes = ["401.1", "272.1", "250.2"]
    cells = [(c, s) for c in codes for s in range(1, 7)]
    sexes = [{"F": 0.55, "M": 0.45}, {"F": 0.5, "M": 0.5}, {"F": 0.6, "M": 0.4}]
    races = [{"05": 0.6, "03": 0.4}, {"05": 0.55, "03": 0.45}, {"05": 0.65, "03": 0.35}]
    profiles = []
    for i in range(3):
        probs = {cell: 0.05 for cell in cells}
        probs.update({cell: 0.9 for cell in cells[6 * i : 6 * (i + 1)]})
        profiles.append(
            SubtypeProfile(
                name=f"cli_{i}",
                mixture_weight=1 / 3,
                condition_slot_prob=probs,
                sex_dist=sexes[i],
                race_dist=races[i],
                age_dist={"65-75": 0.5, "75-85": 0.5},
                mortality_prob=0.15 + 0.05 * i,
                drug_class_probs={"N02B": 0.5, "B01A": 0.4},
            )
        )
    return profiles


def _snapshot(out_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.suffix in (".csv", ".json")
    }


def _data_lines(path):
    return [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_pipeline")
    profiles_path = base / "profiles.json"
    write_profiles(_cli_profiles(), profiles_path)
    out1 = base / "out1"
    config = {
        "seed": 7,
        "out_dir": str(out1),
        "synth": {"n_patients": 240, "profiles": str(profiles_path)},
        "ingest": {"keep": 3, "review_size": 6},
        "elbow": {"kmax": 6},
        "cluster": {"k": 3},
    }
    cfg_path = base / "config.json"
    cfg_path.write_text(json.dumps(config, indent=1))
    rc = {}
    rc["out1"] = main(["all", "--config", str(cfg_path)])
    out2 = base / "out2"
    rc["out2"] = main(["all", "--config", str(cfg_path), "--out", str(out2)])
    out3 = base / "out3"
    rc["out3"] = main(["all", "--config", str(cfg_path), "--out", str(out3), "--threads", "4"])
    out4 = base / "out4"
    rc["out4"] = main(["all", "--config", str(cfg_path), "--out", str(out4), "--seed", "8"])
    out5 = base / "out5"
    rc["stages"] = []
    created = {}
    for stage in STAGES:
        before = set(_snapshot(out5)) if out5.exists() else set()
        rc["stages"].append(main([stage, "--config", str(cfg_path), "--out", str(out5)]))
        created[stage] = set(_snapshot(out5)) - before - {"effective_config.json"}
    return {
        "rc": rc,
        "config_path": cfg_path,
        "config": config,
        "out1": out1,
        "out2": out2,
        "out3": out3,
        "out4": out4,
        "out5": out5,
        "created": created,
    }


# ---------------------------------------------------------------------------
# argument and config errors
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "adsubtype 0.1.0" in capsys.readouterr().out


def test_unknown_stage_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_config_file(capsys):
    assert main(["elbow", "--config", "/nonexistent/config.json"]) == 2
    assert "config file not found" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["elbow", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_non_utf8_config(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"seed": "\xe9"}'.encode("latin-1"))
    assert main(["all", "--dry-run", "--config", str(bad)]) == 2
    assert f"config file {bad} cannot be read: 'utf-8' codec" in capsys.readouterr().err


def test_config_with_byte_order_mark(tmp_path):
    cfg = tmp_path / "bom.json"
    cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"seed": 7}).encode())
    assert cli.load_config(str(cfg))["seed"] == 7
    assert main(["all", "--dry-run", "--config", str(cfg)]) == 0


def test_directory_config(tmp_path, capsys):
    assert main(["all", "--dry-run", "--config", str(tmp_path)]) == 2
    assert f"config file {tmp_path} cannot be read" in capsys.readouterr().err


def test_non_object_config(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert main(["elbow", "--config", str(bad)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_unknown_config_keys(tmp_path, capsys):
    top = tmp_path / "top.json"
    top.write_text('{"clusterz": {}}')
    assert main(["elbow", "--config", str(top)]) == 2
    assert "unknown config key 'clusterz'" in capsys.readouterr().err
    sub = tmp_path / "sub.json"
    sub.write_text('{"cluster": {"kk": 3}}')
    assert main(["elbow", "--config", str(sub)]) == 2
    assert "unknown config key cluster.kk" in capsys.readouterr().err
    scalar = tmp_path / "scalar.json"
    scalar.write_text('{"cluster": 5}')
    assert main(["elbow", "--config", str(scalar)]) == 2
    assert "must be an object" in capsys.readouterr().err


def test_validation_reports_every_problem(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"ingest": {"review_size": 5, "keep": 10}, "report": {"top_k": 0}})
    )
    assert main(["elbow", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "ingest.keep must be <= review_size" in err
    assert "report.top_k" in err


def test_removed_plan_keys_rejected(tmp_path, capsys):
    removed = [
        ({"features": {"layouts": ["temporal"]}}, "'features'"),
        ({"elbow": {"features": "temporal"}}, "elbow.features"),
        ({"cluster": {"features": "aggregate"}}, "cluster.features"),
        ({"cluster": {"also_aggregate": False}}, "cluster.also_aggregate"),
        ({"report": {"formats": ["csv"]}}, "report.formats"),
        ({"elbow": {"kmin": 1}}, "elbow.kmin"),
        ({"elbow": {"max_iter": 300}}, "elbow.max_iter"),
        ({"elbow": {"tol": 1e-4}}, "elbow.tol"),
        ({"cluster": {"restarts": 10}}, "cluster.restarts"),
        ({"cluster": {"max_iter": 300}}, "cluster.max_iter"),
        ({"cluster": {"tol": 1e-4}}, "cluster.tol"),
        ({"stats": {"yates": True}}, "stats.yates"),
        ({"report": {"temporal_denominator": "slot_active"}}, "report.temporal_denominator"),
    ]
    cfg = tmp_path / "cfg.json"
    for override, key in removed:
        cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out"), **override}))
        assert main(["all", "--config", str(cfg), "--dry-run"]) == 2, key
        assert f"unknown config key {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, key",
    [
        pytest.param({"seed": 0.0}, "seed", id="seed-float"),
        pytest.param({"seed": False}, "seed", id="seed-bool"),
        pytest.param({"seed": -1}, "seed", id="seed-negative"),
        pytest.param({"cluster": {"k": 1}}, "cluster.k", id="k-one"),
        pytest.param({"cluster": {"knn_sparsify": 0}}, "cluster.knn_sparsify", id="knn-zero"),
        pytest.param({"cluster": {"knn_sparsify": -2}}, "cluster.knn_sparsify", id="knn-negative"),
        pytest.param({"cluster": {"knn_sparsify": True}}, "cluster.knn_sparsify", id="knn-bool"),
        pytest.param({"elbow": {"kmax": 2}}, "elbow.kmax", id="kmax-two"),
        pytest.param({"ingest": {"exclusions": "401.1"}}, "ingest.exclusions", id="exclusions-string"),
        pytest.param(
            {"cohort": {"window_start": "2021-01-31", "window_end": "2012-01-01"}},
            "cohort.window_end",
            id="window-reversed",
        ),
        # only YYYY-MM-DD is a date, whatever date.fromisoformat takes on this Python
        pytest.param(
            {"cohort": {"window_start": "20120101"}}, "cohort.window_start", id="date-basic"
        ),
        pytest.param({"cohort": {"window_end": "2021-W04-7"}}, "cohort.window_end", id="date-week"),
        pytest.param({"cohort": {"window_end": ["2021-01-31"]}}, "cohort.window_end", id="date-list"),
        pytest.param({"out_dir": 5}, "out_dir", id="out-dir-int"),
        pytest.param({"synth": {"profiles": 5}}, "synth.profiles", id="profiles-int"),
        pytest.param(
            {"ingest": {"exclusions": [401.1]}}, "ingest.exclusions", id="exclusions-float"
        ),
        pytest.param({"drugs": {"selected": [5]}}, "drugs.selected", id="selected-int"),
        pytest.param(
            {"drugs": {"selected": ["n06a", "N06A"]}}, "drugs.selected", id="selected-lowercase"
        ),
        pytest.param({"drugs": {"selected": ["X99"]}}, "drugs.selected", id="selected-not-atc3"),
        pytest.param({"cohort": {"ad_codes": [331.0]}}, "cohort.ad_codes", id="ad-codes-float"),
        pytest.param(
            {"mlr": {"reference_cluster": True}}, "mlr.reference_cluster", id="reference-bool"
        ),
        pytest.param(
            {"mlr": {"reference_cluster": -1}}, "mlr.reference_cluster", id="reference-negative"
        ),
        pytest.param({"mlr": {"sex_reference": "female"}}, "mlr.sex_reference", id="sex-case"),
        pytest.param(
            {"mlr": {"race_reference": "Hispanic"}}, "mlr.race_reference", id="race-unknown"
        ),
        pytest.param({"mlr": {"age_reference": "65-74"}}, "mlr.age_reference", id="age-unknown"),
    ],
)
def test_validation_rejects_bad_values(tmp_path, capsys, override, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out"), **override}))
    assert main(["all", "--config", str(cfg), "--dry-run"]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err


# every settable value, as a dotted key
CONFIG_VALUE_KEYS = [
    name for name, value in DEFAULT_CONFIG.items() if not isinstance(value, dict)
] + [
    f"{name}.{sub}"
    for name, section in DEFAULT_CONFIG.items()
    if isinstance(section, dict)
    for sub in section
]


@pytest.mark.parametrize("key", CONFIG_VALUE_KEYS)
def test_every_config_value_is_checked(tmp_path, capsys, key):
    section, _, leaf = key.rpartition(".")
    override = {section: {leaf: {}}} if section else {key: {}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out"), **override}))
    assert main(["all", "--config", str(cfg), "--dry-run"]) == 2
    assert f"error: {key} must be" in capsys.readouterr().err


def test_cross_key_rules_wait_for_their_keys():
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg["cohort"]["window_end"] = 20120101
    cfg["ingest"]["keep"] = "40"
    assert cli.validate_config(cfg) == [
        "cohort.window_end must be an ISO date string",
        "ingest.keep must be an integer >= 1",
    ]


def test_reference_cluster_checked_only_against_a_set_k(tmp_path, capsys):
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    cfg["mlr"]["reference_cluster"] = 5
    assert cli.validate_config(cfg) == []  # k from the elbow is unknown until it runs
    cfg["cluster"]["k"] = 1
    assert cli.validate_config(cfg) == ["cluster.k must be null or an integer >= 2"]
    cfg["cluster"]["k"] = 6
    assert cli.validate_config(cfg) == []
    cfg["cluster"]["k"] = 3
    assert cli.validate_config(cfg) == ["mlr.reference_cluster must be < cluster.k"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "out")}))
    assert main(["all", "--config", str(path)]) == 2
    assert "error: mlr.reference_cluster must be < cluster.k" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_window_dates_compare_as_dates():
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    # "20120201" is no YYYY-MM-DD date, so it is refused before any comparison
    cfg["cohort"]["window_start"] = "20120201"
    cfg["cohort"]["window_end"] = "2012-03-01"
    assert cli.validate_config(cfg) == ["cohort.window_start must be an ISO date string"]
    cfg["cohort"]["window_start"] = "2012-02-01"
    assert cli.validate_config(cfg) == []
    cfg["cohort"]["window_end"] = "2012-02-01"
    assert cli.validate_config(cfg) == ["cohort.window_end must be after cohort.window_start"]


class _RecordingSection(dict):
    """A config (section) that notes each value read with [] once armed.

    `armed` is a list shared by every section; it arms them all when
    something is appended. Sections themselves are not noted, only values.
    """

    def __init__(self, data, prefix, reads, armed):
        super().__init__(
            (k, _RecordingSection(v, f"{prefix}{k}.", reads, armed) if isinstance(v, dict) else v)
            for k, v in data.items()
        )
        self.prefix, self.reads, self.armed = prefix, reads, armed

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if self.armed and not isinstance(value, dict):
            self.reads.add(self.prefix + key)
        return value


def test_every_config_value_is_read(pipeline, tmp_path, monkeypatch):
    """No knob is accepted but never read by main (after validation) or a stage."""
    reads: set[str] = set()
    armed: list[bool] = []
    load_config, validate_config = cli.load_config, cli.validate_config

    def recording_config(path):
        return _RecordingSection(load_config(path), "", reads, armed)

    def validate_then_arm(cfg):
        problems = validate_config(cfg)
        armed.append(True)
        return problems

    monkeypatch.setattr(cli, "load_config", recording_config)
    monkeypatch.setattr(cli, "validate_config", validate_then_arm)
    argv = ["all", "--config", str(pipeline["config_path"]), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert sorted(set(CONFIG_VALUE_KEYS) - reads) == []


def test_readme_config_block_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("\n```", 1)[0]
    assert json.loads(block) == DEFAULT_CONFIG


def test_readme_stage_table_names_each_declared_artifact():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in readme.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if line.startswith("|") and len(cells) == 3:
            rows[cells[0]] = cells[1:]
    for stage in PIPELINE:
        reads, writes = rows[stage.name]
        # every declared read, and no artifact the stage does not read
        assert set(re.findall(r"`([^`]+\.(?:csv|json))`", reads)) == set(stage.reads), stage.name
        assert [a for a in stage.writes if f"`{a}`" not in writes] == [], stage.name


def _param_default(func, name):
    return inspect.signature(func).parameters[name].default


def test_library_defaults_match_config_defaults():
    """A library default that mirrors a config key must not drift from it."""
    cohort = CohortConfig()
    mirrors = [
        ("cohort.min_age_years", cohort.min_age_years),
        ("cohort.window_start", cohort.window_start.isoformat()),
        ("cohort.window_end", cohort.window_end.isoformat()),
        ("cohort.slot_count", cohort.slot_count),
        ("cohort.slot_days", cohort.slot_days),
        # the spectral step's restart count, the same as the elbow's
        ("elbow.restarts", _param_default(kmeans, "restarts")),
    ]
    defaults = {key.name: key.default for key in cli.CONFIG_KEYS}
    assert [(key, defaults[key]) for key, _ in mirrors] == mirrors


def test_validation_checks_external_files(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drugs": {"atc_map": "/nope/atc.csv"}}))
    assert main(["drugs", "--config", str(cfg)]) == 2
    assert "drugs.atc_map: file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key", [key.name for key in cli.CONFIG_KEYS if key.kind.names_file]
)
def test_validation_refuses_a_directory_as_an_input_file(tmp_path, capsys, key):
    section, leaf = key.split(".")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out"), section: {leaf: str(tmp_path)}}))
    assert main(["all", "--config", str(cfg)]) == 2
    assert f"error: {key}: not a file: {tmp_path}\n" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_refuses_to_overwrite_a_configured_extract(tmp_path, capsys):
    mine = tmp_path / "o3" / "patients.csv"
    mine.parent.mkdir()
    mine.write_bytes(b"patient_id,sex,race,birth_date\nP1,F,05,1940-01-01\n")
    ingest = {"demographics": str(mine)}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(mine.parent), "ingest": ingest}))
    for command in ("synth", "all"):
        assert main([command, "--config", str(cfg)]) == 2
        assert f"ingest.demographics: {mine} would be overwritten" in capsys.readouterr().err
    assert mine.read_bytes() == b"patient_id,sex,race,birth_date\nP1,F,05,1940-01-01\n"
    assert sorted(p.name for p in mine.parent.iterdir()) == ["patients.csv"]
    # an extract outside out_dir is read, not written
    other = tmp_path / "cfg_other.json"
    other.write_text(json.dumps(
        {"out_dir": str(tmp_path / "o5"), "synth": {"n_patients": 20}, "ingest": ingest}
    ))
    assert main(["synth", "--config", str(other)]) == 0
    assert (tmp_path / "o5" / "patients.csv").exists()


def test_all_skips_synth_when_every_extract_is_configured(pipeline, tmp_path, capsys):
    extracts = tmp_path / "extracts"
    extracts.mkdir()
    ingest = dict(pipeline["config"]["ingest"])
    for key, name in cli.EXTRACTS.items():
        shutil.copy(pipeline["out1"] / name, extracts / name)
        ingest[key] = str(extracts / name)
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**pipeline["config"], "out_dir": str(out), "ingest": ingest}))
    assert main(["all", "--config", str(cfg), "--dry-run"]) == 0
    plan = [ln.split(":")[0] for ln in capsys.readouterr().out.splitlines()]
    assert plan == [name for name in STAGES if name != "synth"]
    assert main(["all", "--config", str(cfg)]) == 0
    synthetic = set(PIPELINE[0].writes)
    assert synthetic == set(cli.EXTRACTS.values()) | {"truth_labels.csv"}
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert not synthetic & set(listed) and not synthetic & {p.name for p in out.iterdir()}
    # the same tables, read in place, give the same analysis
    for name in ("assignments.csv", "assignments_aggregate.csv", "mlr.csv"):
        assert _data_lines(out / name) == _data_lines(pipeline["out1"] / name), name
    # a single configured extract still leaves synth in the plan
    one = {**pipeline["config"]["ingest"], "deaths": str(extracts / "deaths.csv")}
    cfg.write_text(json.dumps({**pipeline["config"], "out_dir": str(out), "ingest": one}))
    assert main(["all", "--config", str(cfg), "--dry-run"]) == 0
    assert capsys.readouterr().out.startswith("synth: ")


def test_dry_run_prints_plan_without_writing(tmp_path, capsys):
    out = tmp_path / "never_created"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(out)}))
    assert main(["all", "--config", str(cfg), "--dry-run"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(":")[0] for ln in lines] == STAGES
    assert all("reads [" in ln and "writes [" in ln for ln in lines)
    # the aggregate features are written, and derived from the temporal ones wherever used
    assert not any("features_aggregate.csv" in ln.split("writes [")[0] for ln in lines)
    assert not out.exists()


def test_stage_reads_come_from_earlier_stages():
    written: set[str] = set()
    for stage in PIPELINE:
        assert set(stage.reads) <= written, stage.name
        written |= set(stage.writes)


def test_missing_stage_input_names_producer(tmp_path, capsys):
    assert main(["elbow", "--out", str(tmp_path / "empty")]) == 1
    err = capsys.readouterr().err
    assert "stage elbow failed: FileNotFoundError: " in err
    assert "missing input" in err and "run 'features' first" in err


# ---------------------------------------------------------------------------
# pipeline runs
# ---------------------------------------------------------------------------


def test_pipeline_exit_codes(pipeline):
    rc = pipeline["rc"]
    assert rc["out1"] == 0 and rc["out2"] == 0 and rc["out3"] == 0 and rc["out4"] == 0
    assert rc["stages"] == [0] * len(STAGES)


def test_pipeline_produces_expected_artifacts(pipeline):
    out = pipeline["out1"]
    expected = [
        "effective_config.json",
        "patients.csv",
        "diagnoses.csv",
        "prescriptions.csv",
        "deaths.csv",
        "truth_labels.csv",
        "funnel.csv",
        "vocabulary.csv",
        "cohort.json",
        "features_temporal.csv",
        "features_aggregate.csv",
        "elbow.csv",
        "assignments.csv",
        "assignments_aggregate.csv",
        "cluster_sizes.csv",
        "stats_grid.csv",
        "stats_grid_raw.csv",
        "stats_summary.json",
        "mlr.csv",
        "mlr.json",
        "drug_usage.csv",
        "prevalence_aggregate.csv",
        "prevalence_temporal.csv",
        "demographics.csv",
        "crosstab.csv",
        "manifest.json",
    ]
    for name in expected:
        assert (out / name).exists(), name
    assert len(_data_lines(out / "funnel.csv")) == 1 + 5
    assert len(_data_lines(out / "vocabulary.csv")) == 1 + 3
    header = _data_lines(out / "features_temporal.csv")[0].split(",")
    assert len(header) == 1 + 3 * 6
    assert len(_data_lines(out / "mlr.csv")) == 1 + 2 * 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert "assignments.csv" in manifest["artifacts"]


def test_each_stage_writes_what_it_declares(pipeline):
    assert pipeline["created"] == {stage.name: set(stage.writes) for stage in PIPELINE}


def test_each_stage_runs_on_its_declared_reads_alone(pipeline, tmp_path):
    for stage in PIPELINE:
        work = tmp_path / stage.name
        work.mkdir()
        for name in stage.reads:
            shutil.copy(pipeline["out1"] / name, work / name)
        argv = [stage.name, "--config", str(pipeline["config_path"]), "--out", str(work)]
        assert main(argv) == 0, stage.name
        for name in set(stage.writes) - {"manifest.json"}:
            assert (work / name).read_bytes() == (pipeline["out1"] / name).read_bytes(), name


def test_each_declared_read_is_needed(pipeline, tmp_path, capsys):
    """Without any one of its declared reads, a stage fails naming that file."""
    k_unset = tmp_path / "k_unset.json"
    k_unset.write_text(json.dumps({**pipeline["config"], "cluster": {"k": None}}))
    for stage in PIPELINE:
        for missing in stage.reads:
            work = tmp_path / stage.name / missing
            work.mkdir(parents=True)
            for name in set(stage.reads) - {missing}:
                shutil.copy(pipeline["out1"] / name, work / name)
            # cluster reads elbow.csv only when cluster.k is unset
            config = k_unset if missing == "elbow.csv" else pipeline["config_path"]
            assert main([stage.name, "--config", str(config), "--out", str(work)]) == 1
            err = capsys.readouterr().err
            expected = f"missing input {work / missing} (run '{cli.PRODUCERS[missing]}' first)"
            assert expected in err, (stage.name, missing)
    work = tmp_path / "cluster" / "elbow.csv"
    assert main(["cluster", "--config", str(pipeline["config_path"]), "--out", str(work)]) == 0


def test_cluster_and_report_run_without_the_aggregate_features(pipeline, tmp_path):
    """Both derive the aggregate layout from features_temporal.csv, to the same bytes."""
    work = tmp_path / "work"
    shutil.copytree(pipeline["out1"], work)
    (work / "features_aggregate.csv").unlink()
    for stage in (s for s in PIPELINE if s.name in ("cluster", "report")):
        argv = [stage.name, "--config", str(pipeline["config_path"]), "--out", str(work)]
        assert main(argv) == 0, stage.name
        for name in set(stage.writes) - {"manifest.json"}:
            assert (work / name).read_bytes() == (pipeline["out1"] / name).read_bytes(), name


def test_an_aggregate_table_is_not_read_as_temporal(pipeline, tmp_path, capsys):
    work = tmp_path / "work"
    shutil.copytree(pipeline["out1"], work)
    shutil.copy(work / "features_aggregate.csv", work / "features_temporal.csv")
    column = _data_lines(work / "features_aggregate.csv")[0].split(",")[1]
    for stage in ("elbow", "cluster", "report"):
        argv = [stage, "--config", str(pipeline["config_path"]), "--out", str(work)]
        assert main(argv) == 1, stage
        err = capsys.readouterr().err
        path = work / "features_temporal.csv"
        assert f"{path}: column {column!r} is not <phecode>_s<slot>" in err


def test_a_slot_out_of_the_grid_is_refused(pipeline, tmp_path, capsys):
    """A temporal header with one slot renamed fails each reader, naming the file and column."""
    work = tmp_path / "work"
    shutil.copytree(pipeline["out1"], work)
    path = work / "features_temporal.csv"
    lines = path.read_text().split("\n")
    at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[at].split(",")
    slots = max(int(label.rpartition("_s")[2]) for label in header[1:])
    header[2] = f"{header[2].rpartition('_s')[0]}_s{slots + 1}"  # the first phecode's slot 2
    lines[at] = ",".join(header)
    path.write_text("\n".join(lines))
    for stage in ("elbow", "cluster", "report"):
        argv = [stage, "--config", str(pipeline["config_path"]), "--out", str(work)]
        assert main(argv) == 1, stage
        err = capsys.readouterr().err
        assert f"{path}: column {header[2]!r} is out of the phecode-major grid" in err


def test_csv_artifacts_use_lf_line_endings(pipeline):
    csvs = sorted(pipeline["out1"].glob("*.csv"))
    assert len(csvs) == 21
    for path in csvs:
        assert b"\r" not in path.read_bytes(), path.name


def test_pipeline_meta_line_stamped(pipeline):
    out = pipeline["out1"]
    first = (out / "funnel.csv").read_text().splitlines()[0]
    assert first.startswith("# adsubtype=0.1.0 seed=7 config=")


def test_effective_config_is_semantic_only(pipeline):
    data = json.loads((pipeline["out1"] / "effective_config.json").read_text())
    assert "threads" not in data and "out_dir" not in data
    assert data["seed"] == 7
    assert data["cluster"]["k"] == 3


def test_reruns_are_byte_identical(pipeline):
    assert _snapshot(pipeline["out1"]) == _snapshot(pipeline["out2"])


def test_threads_never_change_bytes(pipeline):
    assert _snapshot(pipeline["out1"]) == _snapshot(pipeline["out3"])


def test_threads_never_change_knn_bytes(pipeline, tmp_path, monkeypatch):
    """The kNN route splits each distance block across the workers; no byte moves."""
    monkeypatch.setattr(cluster.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(cluster.os, "cpu_count", lambda: 3)  # 3 workers on any machine
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(pipeline["config"], cluster={"k": 3, "knn_sparsify": 10})))
    snapshots = []
    for threads in ("1", "3"):
        out = tmp_path / f"threads-{threads}"
        assert main(["all", "--config", str(cfg), "--out", str(out), "--threads", threads]) == 0
        snapshots.append(_snapshot(out))
    assert snapshots[0] == snapshots[1]


def test_stage_sequence_matches_all_command(pipeline):
    assert _snapshot(pipeline["out1"]) == _snapshot(pipeline["out5"])


def test_seed_changes_generated_data(pipeline):
    base = _data_lines(pipeline["out1"] / "truth_labels.csv")
    reseeded = _data_lines(pipeline["out4"] / "truth_labels.csv")
    assert base != reseeded
    cfg1 = json.loads((pipeline["out1"] / "effective_config.json").read_text())
    cfg4 = json.loads((pipeline["out4"] / "effective_config.json").read_text())
    assert cfg1["seed"] == 7 and cfg4["seed"] == 8


def test_stage_rerun_leaves_bytes_unchanged(pipeline):
    out = pipeline["out1"]
    before = _snapshot(out)
    assert main(["stats", "--config", str(pipeline["config_path"])]) == 0
    assert _snapshot(out) == before


def test_stale_assignments_fail_every_consumer(pipeline, tmp_path, capsys):
    """Each consumer refuses an assignments file that does not list exactly the cohort."""
    text = (pipeline["out1"] / "assignments.csv").read_text()
    cases = {
        "extra": (text + "STALE1,0\n", "0 patients missing", "1 assigned patients not"),
        "missing": (text[: text.rstrip("\n").rindex("\n") + 1], "1 patients missing",
                    "0 assigned patients not"),
    }
    for case, (stale, missing, extra) in cases.items():
        work = tmp_path / case
        shutil.copytree(pipeline["out1"], work)
        (work / "assignments.csv").write_text(stale)
        for stage in ("stats", "mlr", "drugs", "report"):
            argv = [stage, "--config", str(pipeline["config_path"]), "--out", str(work)]
            assert main(argv) == 1, (case, stage)
            err = capsys.readouterr().err
            assert f"{work / 'assignments.csv'} does not match the cohort" in err
            assert missing in err and extra in err
    # the crosstab's aggregate assignments are checked the same way
    work = tmp_path / "aggregate"
    shutil.copytree(pipeline["out1"], work)
    with open(work / "assignments_aggregate.csv", "a") as fh:
        fh.write("STALE1,0\n")
    assert main(["report", "--config", str(pipeline["config_path"]), "--out", str(work)]) == 1
    assert "assignments_aggregate.csv does not match the cohort" in capsys.readouterr().err


def test_duplicate_assignment_rows_refused(tmp_path):
    """A patient listed twice is refused at the repeat's line, not resolved to one cluster."""
    (tmp_path / "assignments.csv").write_text("# meta\npatient_id,cluster\nP1,0\nP2,1\nP2,0\n")
    ctx = cli.Context(
        cfg=DEFAULT_CONFIG, out=tmp_path, meta=cli.ArtifactMeta("test", 0, "0" * 12), parsed={}
    )
    with pytest.raises(ValueError, match=r"assignments.csv: line 5: duplicate patient_id 'P2'"):
        ctx.cluster_labels("assignments.csv", ["P1", "P2"])


@pytest.mark.parametrize(
    "text, problem",
    [
        pytest.param("foo,bar\nP1,0\n", "bad header ['foo', 'bar'], expected it to begin "
                     "['patient_id', 'cluster']", id="bad-header"),
        pytest.param("patient_id,cluster\nP1,0,9\n", "line 3: 3 fields, header has 2",
                     id="three-fields"),
        pytest.param("patient_id,cluster\nP1,x\n", "line 3: cluster 'x' is not an integer",
                     id="non-integer-cluster"),
    ],
)
def test_read_assignments_locates_malformed_files(tmp_path, text, problem):
    path = tmp_path / "assignments.csv"
    path.write_text("# meta\n" + text)
    with pytest.raises(ValueError) as exc:
        cli.read_assignments(path)
    assert str(exc.value) == f"{path}: {problem}"


def _counting(monkeypatch, name, counts):
    """Replace cli.<name> with a wrapper that counts its calls by file name."""
    reader = getattr(cli, name)

    def counted(path):
        key = (name, Path(path).name)
        counts[key] = counts.get(key, 0) + 1
        return reader(path)

    monkeypatch.setattr(cli, name, counted)


def test_all_parses_each_artifact_while_the_next_stage_reads_it(pipeline, tmp_path, monkeypatch):
    counts = {}
    for name in ("load_cohort", "read_feature_csv", "read_assignments"):
        _counting(monkeypatch, name, counts)
    cached = {}  # the parses held as each stage starts
    cohort_loads = {}  # load_cohort calls made by each stage

    def entering(stage, run):
        def recorded(ctx):
            cached[stage] = set(ctx.parsed)
            before = counts.get(("load_cohort", "cohort.json"), 0)
            run(ctx)
            cohort_loads[stage] = counts.get(("load_cohort", "cohort.json"), 0) - before

        return recorded

    for stage in STAGES:
        monkeypatch.setitem(cli.STAGE_FUNCS, stage, entering(stage, cli.STAGE_FUNCS[stage]))
    out = tmp_path / "out"
    assert main(["all", "--config", str(pipeline["config_path"]), "--out", str(out)]) == 0
    assert _snapshot(out) == _snapshot(pipeline["out1"])
    # cohort.json: once for stats, mlr, drugs and report; features gets ingest's cohort
    # features_aggregate.csv: never, since cluster and report derive the aggregate layout
    assert counts == {
        ("load_cohort", "cohort.json"): 1,
        # elbow and cluster get the matrix features wrote; report reads the file
        ("read_feature_csv", "features_temporal.csv"): 1,
        ("read_assignments", "assignments.csv"): 1,
        ("read_assignments", "assignments_aggregate.csv"): 1,
    }
    for stage in PIPELINE:
        assert cached[stage.name] <= set(stage.reads), stage.name
    assert cached["cluster"] == {"features_temporal.csv"}  # no cohort.json at cluster's peak
    assert cached["report"] == {"cohort.json", "assignments.csv"}
    assert cached["features"] == {"cohort.json"}
    assert cached["elbow"] == {"features_temporal.csv"}
    assert cohort_loads == {stage: 1 if stage == "stats" else 0 for stage in STAGES}


def test_ingest_hands_features_the_cohort_it_saved(tmp_path):
    """For the default config, ingest's in-memory cohort equals load_cohort of cohort.json."""
    ctx = cli.Context(
        cfg=DEFAULT_CONFIG, out=tmp_path, meta=cli.ArtifactMeta("test", 0, "0" * 12), parsed={}
    )
    cli.stage_synth(ctx)
    cli.stage_ingest(ctx)
    cohort = ctx.parsed["cohort.json"]
    assert len(cohort.patients) > 1000
    assert load_cohort(tmp_path / "cohort.json") == cohort


def test_features_hands_elbow_the_temporal_matrix_it_wrote(tmp_path):
    """For the default config, features' temporal matrix equals read_feature_csv of its file."""
    ctx = cli.Context(
        cfg=DEFAULT_CONFIG, out=tmp_path, meta=cli.ArtifactMeta("test", 0, "0" * 12), parsed={}
    )
    for stage in (cli.stage_synth, cli.stage_ingest, cli.stage_features):
        stage(ctx)
    handed = ctx.parsed["features_temporal.csv"]
    read = read_feature_csv(tmp_path / "features_temporal.csv")
    for field in dataclasses.fields(read):
        mine, theirs = getattr(handed, field.name), getattr(read, field.name)
        if field.name == "values":
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
            assert not mine.flags.writeable
        else:
            assert mine == theirs, field.name
    assert len(handed.patient_ids) > 1000


def test_all_appends_one_run_log_line_per_stage(pipeline):
    for out in (pipeline["out2"], pipeline["out5"]):  # all; each stage on its own
        lines = (out / cli.RUN_LOG).read_text().splitlines()
        costs = [json.loads(line) for line in lines]
        assert [cost["stage"] for cost in costs] == STAGES
        for cost in costs:
            assert set(cost) == {"stage", "wall_s", "cpu_s", "maxrss_mb", "rss_mb"}
            assert cost["wall_s"] >= 0 and cost["cpu_s"] >= 0
            assert 0 < cost["rss_mb"] <= cost["maxrss_mb"]
    manifest = json.loads((pipeline["out2"] / "manifest.json").read_text())
    assert cli.RUN_LOG not in manifest["artifacts"]


def test_run_log_leaves_out_rss_where_the_os_does_not_report_it(tmp_path, monkeypatch):
    assert cli._resident_kib() > 0
    monkeypatch.setattr(cli, "PROC_STATUS", tmp_path / "missing")
    assert cli._resident_kib() is None
    for name in STAGES:
        monkeypatch.setitem(cli.STAGE_FUNCS, name, lambda ctx: None)
    assert main(["all", "--out", str(tmp_path)]) == 0
    for line in (tmp_path / cli.RUN_LOG).read_text().splitlines():
        assert set(json.loads(line)) == {"stage", "wall_s", "cpu_s", "maxrss_mb"}


def test_all_starts_the_run_log_afresh(pipeline, tmp_path):
    """A second all into one directory leaves its own 9 lines; a lone stage appends one."""
    out = tmp_path / "out"
    shutil.copytree(pipeline["out2"], out)  # an earlier all's directory, its log included
    config = str(pipeline["config_path"])
    assert main(["all", "--config", config, "--out", str(out)]) == 0
    lines = (out / cli.RUN_LOG).read_text().splitlines()
    assert [json.loads(line)["stage"] for line in lines] == STAGES
    assert main(["report", "--config", config, "--out", str(out)]) == 0
    lines = (out / cli.RUN_LOG).read_text().splitlines()
    assert [json.loads(line)["stage"] for line in lines] == STAGES + ["report"]
    assert _snapshot(out) == _snapshot(pipeline["out1"])


def test_stages_run_with_the_collector_paused(pipeline, tmp_path, monkeypatch):
    states = {}

    def entering(stage, run):
        def recorded(ctx):
            states[stage] = (gc.isenabled(), gc.get_freeze_count() > 0)
            run(ctx)

        return recorded

    for stage in STAGES:
        monkeypatch.setitem(cli.STAGE_FUNCS, stage, entering(stage, cli.STAGE_FUNCS[stage]))
    out = tmp_path / "out"
    assert main(["all", "--config", str(pipeline["config_path"]), "--out", str(out)]) == 0
    assert states == {stage: (False, True) for stage in STAGES}
    assert gc.isenabled() and gc.get_freeze_count() == 0
    assert _snapshot(out) == _snapshot(pipeline["out1"])


def test_main_restores_the_collector(tmp_path, monkeypatch):
    def failing(ctx):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.STAGE_FUNCS, "synth", failing)
    assert main(["synth", "--out", str(tmp_path)]) == 1
    assert gc.isenabled() and gc.get_freeze_count() == 0

    # a caller that paused the collector gets it back paused
    monkeypatch.setitem(cli.STAGE_FUNCS, "synth", lambda ctx: None)
    gc.disable()
    try:
        assert main(["synth", "--out", str(tmp_path)]) == 0
        assert not gc.isenabled() and gc.get_freeze_count() == 0
    finally:
        gc.enable()


def test_each_stage_ends_with_a_collection_a_freeze_and_a_heap_release(tmp_path, monkeypatch):
    events = []
    kept = []  # what each stage leaves alive for the next

    def stage(name):
        def run(ctx):
            events.append((name, gc.get_freeze_count()))
            kept.append([[] for _ in range(100)])

        return run

    for name in STAGES:
        monkeypatch.setitem(cli.STAGE_FUNCS, name, stage(name))
    monkeypatch.setattr(cli, "release_heap", lambda: events.append(("release", None)))
    assert main(["all", "--out", str(tmp_path)]) == 0
    assert [name for name, _ in events] == [x for name in STAGES for x in (name, "release")]
    # each stage sees the objects the stage before it left frozen
    frozen = [count for name, count in events if name != "release"]
    assert all(later >= earlier + 100 for earlier, later in zip(frozen, frozen[1:]))
    assert gc.get_freeze_count() == 0


def test_cluster_releases_the_heap_after_each_layout(tmp_path, monkeypatch):
    events = []

    def layout(ctx, config, fm, name):
        events.append((fm.layout, name, "features_temporal.csv" in ctx.parsed))
        return [[fm.layout, 0, 1]]

    monkeypatch.setattr(cli, "_cluster_layout", layout)
    monkeypatch.setattr(cli, "release_heap", lambda: events.append("release"))
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    cfg["cluster"]["k"] = 2
    temporal = FeatureMatrix(
        ["P1", "P2"], TEMPORAL, np.eye(2, dtype=np.uint8), [("401.1", 1), ("401.1", 2)], 2
    )
    parsed = {"features_temporal.csv": temporal}
    meta = cli.ArtifactMeta("test", 0, "0" * 12)
    ctx = cli.Context(cfg=cfg, out=tmp_path, meta=meta, parsed=parsed)
    cli.stage_cluster(ctx)
    # the temporal matrix is dropped before the aggregate layout, derived from it, is clustered
    assert events == [
        (TEMPORAL, "assignments.csv", True),
        "release",
        (AGGREGATE, "assignments_aggregate.csv", False),
        "release",
    ]
    assert (tmp_path / "cluster_sizes.csv").exists()


@pytest.mark.parametrize(
    "error",
    [
        None,  # a C library without malloc_trim (macOS, musl)
        OSError("no C library"),
        TypeError("no default library"),  # Windows: CDLL(None)
    ],
)
def test_release_heap_does_nothing_without_malloc_trim(monkeypatch, error):
    import ctypes

    def libc(name):
        if error is not None:
            raise error
        return object()

    monkeypatch.setattr(ctypes, "CDLL", libc)
    cluster._malloc_trim.cache_clear()
    try:
        assert cluster._malloc_trim() is None
        cli.release_heap()
    finally:
        cluster._malloc_trim.cache_clear()


def test_row_volume_stages_never_import_scipy(tmp_path):
    # a fresh interpreter: this one already holds scipy from other tests
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "out"), "synth": {"n_patients": 300}}))
    script = (
        "import sys\n"
        "from adsubtype.cli import main\n"
        "for argv in (['all', '--dry-run'], ['synth'], ['ingest'], ['features']):\n"
        "    assert main([*argv, '--config', sys.argv[1]]) == 0, argv\n"
        "    loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "    assert not loaded, (argv, loaded[:5])\n"
    )
    src = str(Path(adsubtype.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run(
        [sys.executable, "-c", script, str(cfg)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr[-2000:]


def test_write_drops_the_cached_parse(tmp_path):
    ctx = cli.Context(
        cfg=DEFAULT_CONFIG, out=tmp_path, meta=cli.ArtifactMeta("test", 0, "0" * 12), parsed={}
    )
    header = ["patient_id", "cluster"]
    ctx.write(cli.Artifact("assignments.csv", header, [["P1", 0], ["P2", 1]]))
    assert ctx.cluster_labels("assignments.csv", ["P1", "P2"]) == [0, 1]
    assert ctx.parsed == {"assignments.csv": {"P1": 0, "P2": 1}}
    ctx.write(cli.Artifact("assignments.csv", header, [["P1", 1], ["P2", 1]]))
    assert ctx.parsed == {}
    assert ctx.cluster_labels("assignments.csv", ["P1", "P2"]) == [1, 1]
    # the cached parse still gets the per-call cohort check
    with pytest.raises(ValueError, match="1 patients missing cluster assignments"):
        ctx.cluster_labels("assignments.csv", ["P1", "P2", "P3"])


def test_cluster_uses_elbow_choice_when_k_unset(pipeline, tmp_path):
    work = tmp_path / "work"
    shutil.copytree(pipeline["out1"], work)
    cfg = dict(pipeline["config"])
    cfg["cluster"] = {"k": None}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["cluster", "--config", str(cfg_path), "--out", str(work)]) == 0
    chosen = None
    for ln in _data_lines(work / "elbow.csv")[1:]:
        k, _sse, flag = ln.split(",")
        if flag == "1":
            chosen = int(k)
    assert chosen is not None
    labels = {ln.split(",")[1] for ln in _data_lines(work / "assignments.csv")[1:]}
    assert len(labels) == chosen


def test_cluster_refuses_two_chosen_k(pipeline, tmp_path, capsys):
    work = tmp_path / "work"
    shutil.copytree(pipeline["out1"], work)
    cfg = dict(pipeline["config"])
    cfg["cluster"] = {"k": None}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    elbow = work / "elbow.csv"
    meta = elbow.read_text().splitlines()[0]
    elbow.write_text(f"{meta}\nk,sse,chosen\n1,9.0,1\n2,5.0,1\n3,4.0,0\n")
    assert main(["cluster", "--config", str(cfg_path), "--out", str(work)]) == 1
    assert f"{elbow}: line 4: a second chosen k" in capsys.readouterr().err


def test_cluster_refuses_a_chosen_k_below_two(pipeline, tmp_path, capsys):
    work = tmp_path / "work"
    shutil.copytree(pipeline["out1"], work)
    cfg = dict(pipeline["config"])
    cfg["cluster"] = {"k": None}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    elbow = work / "elbow.csv"
    meta = elbow.read_text().splitlines()[0]
    elbow.write_text(f"{meta}\nk,sse,chosen\n1,9.0,1\n2,5.0,0\n3,4.0,0\n")
    assert main(["cluster", "--config", str(cfg_path), "--out", str(work)]) == 1
    assert f"{elbow}: line 3: chosen k 1 is below 2" in capsys.readouterr().err


def test_cluster_refuses_a_reference_cluster_outside_the_chosen_k(pipeline, tmp_path, capsys):
    """mlr.reference_cluster gets checked against elbow.csv's k as against a set cluster.k."""
    work = tmp_path / "work"
    shutil.copytree(pipeline["out1"], work)
    elbow = work / "elbow.csv"
    meta = elbow.read_text().splitlines()[0]
    elbow.write_text(f"{meta}\nk,sse,chosen\n1,9.0,0\n2,5.0,0\n3,4.0,1\n")
    cfg_path = tmp_path / "cfg.json"
    for reference, rc in ((3, 1), (2, 0)):
        mlr = {"reference_cluster": reference}
        cfg_path.write_text(json.dumps({**pipeline["config"], "cluster": {"k": None}, "mlr": mlr}))
        assert main(["cluster", "--config", str(cfg_path), "--out", str(work)]) == rc, reference
    err = capsys.readouterr().err
    assert f"{elbow}: line 5: chosen k 3 is not above mlr.reference_cluster" in err


def test_clusters_recover_planted_subtypes(pipeline):
    out = pipeline["out1"]
    truth = {}
    for ln in _data_lines(out / "truth_labels.csv")[1:]:
        pid, idx, _name = ln.split(",")
        truth[pid] = int(idx)
    found = {}
    for ln in _data_lines(out / "assignments.csv")[1:]:
        pid, cluster = ln.split(",")
        found[pid] = int(cluster)
    from adsubtype.cluster import adjusted_rand_index

    pids = sorted(found)
    ari = adjusted_rand_index([truth[p] for p in pids], [found[p] for p in pids])
    assert ari >= 0.9
