"""Command line behavior: config handling, stage wiring, and determinism."""

import json
import shutil

import pytest

from adsubtype.cli import PIPELINE, STAGES, main
from adsubtype.synth import SubtypeProfile, save_profiles


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
    save_profiles(_cli_profiles(), profiles_path)
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
    cfg.write_text(json.dumps({"elbow": {"kmin": 5, "kmax": 2}, "report": {"formats": ["xml"]}}))
    assert main(["elbow", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "elbow.kmin must be < kmax" in err
    assert "report.formats" in err


def test_validation_checks_external_files(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"drugs": {"atc_map": "/nope/atc.csv"}}))
    assert main(["drugs", "--config", str(cfg)]) == 2
    assert "drugs.atc_map: file not found" in capsys.readouterr().err


def test_dry_run_prints_plan_without_writing(tmp_path, capsys):
    out = tmp_path / "never_created"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(out)}))
    assert main(["all", "--config", str(cfg), "--dry-run"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split(":")[0] for ln in lines] == STAGES
    assert all("reads [" in ln and "writes [" in ln for ln in lines)
    assert not out.exists()


def test_stage_reads_come_from_earlier_stages():
    written: set[str] = set()
    for stage in PIPELINE:
        assert set(stage.reads) <= written, stage.name
        written |= set(stage.writes)


def test_missing_stage_input_names_producer(tmp_path, capsys):
    assert main(["elbow", "--out", str(tmp_path / "empty")]) == 1
    err = capsys.readouterr().err
    assert "stage elbow failed" in err
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
    assert manifest["artifacts"]["funnel.csv"]["rows"] == 5


def test_each_stage_writes_what_it_declares(pipeline):
    assert pipeline["created"] == {stage.name: set(stage.writes) for stage in PIPELINE}


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
