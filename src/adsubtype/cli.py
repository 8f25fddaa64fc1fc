"""Pipeline command line: stage subcommands over a shared JSON config.

Each subcommand reads only the previous stages' artifacts from the output
directory, so any stage can be rerun in isolation; PIPELINE declares what
each stage reads and writes. Outputs are pure functions of (inputs, config,
seed); thread settings never affect bytes.
"""

import os

# Pin BLAS pools before numpy loads anywhere in this process: parallel
# reductions can change floating-point rounding, and outputs must not
# depend on machine parallelism or --threads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse
import copy
import json
import logging
import sys
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__
from .cluster import (
    SpectralConfig,
    detect_elbow,
    elbow_sse_curve,
    spectral_cluster,
)
from .cohort import (
    AGE_GROUP_ORDER,
    RACE_LABELS,
    Cohort,
    CohortConfig,
    TablePaths,
    load_cohort,
    parse_tables,
    save_cohort,
    select_cohort,
)
from .data import default_atc_map, default_phecode_map, default_vocabulary
from .drugs import drug_prevalence_by_cluster, load_atc_map, rank_drug_classes
from .phenotype import (
    AGGREGATE,
    TEMPORAL,
    build_aggregate_matrix,
    build_temporal_matrix,
    load_phecode_map,
    load_vocabulary_csv,
    rank_phenotypes,
    read_feature_csv,
    write_feature_csv,
    write_vocabulary_csv,
)
from .report import (
    Artifact,
    ArtifactMeta,
    cluster_crosstab,
    condition_prevalence,
    config_hash,
    demographic_breakdown,
    emit_reports,
    mlr_summary_json,
    render_crosstab,
    render_csv,
    render_demographics,
    render_mlr,
    render_prevalence,
    render_stats_grid,
    semantic_config,
)
from .stats import (
    VariableSpec,
    bonferroni_threshold,
    expand_categorical,
    fit_multinomial_logit,
    pairwise_test_grid,
)
from .synth import generate_cohort, load_profiles, demo_profiles
from .table import read_table, write_text

log = logging.getLogger("adsubtype")

DEFAULT_CONFIG: dict[str, Any] = {
    "seed": 0,
    "out_dir": "out",
    "threads": 1,
    "cohort": {
        "min_age_years": 20,
        "window_start": "2012-01-01",
        "window_end": "2021-01-31",
        "slot_count": 6,
        "slot_days": 183,
        "ad_codes": None,
    },
    "synth": {
        "n_patients": 2000,
        "profiles": "demo",
    },
    "ingest": {
        "demographics": None,
        "diagnoses": None,
        "prescriptions": None,
        "deaths": None,
        "phecode_map": None,
        "vocabulary": "ranked",
        "review_size": 60,
        "keep": 40,
        "exclusions": [],
    },
    "features": {
        "layouts": [TEMPORAL, AGGREGATE],
    },
    "elbow": {
        "features": TEMPORAL,
        "kmin": 1,
        "kmax": 10,
        "restarts": 10,
        "max_iter": 300,
        "tol": 1e-4,
    },
    "cluster": {
        "features": TEMPORAL,
        "k": None,
        "gamma": None,
        "restarts": 10,
        "max_iter": 300,
        "tol": 1e-4,
        "knn_sparsify": None,
        "also_aggregate": True,
    },
    "stats": {
        "yates": True,
        "alpha": 0.05,
        "bonferroni_m": 15,
    },
    "mlr": {
        "reference_cluster": 0,
        "sex_reference": "Female",
        "race_reference": "American Indian or Alaska Native",
        "age_reference": "<65",
    },
    "drugs": {
        "atc_map": None,
        "selected": None,
        "top": 13,
    },
    "report": {
        "top_k": 20,
        "temporal_denominator": "slot_active",
        "formats": ["csv"],
    },
}


class ConfigError(Exception):
    pass


def merge_config(base: dict, override: Mapping) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if key not in merged:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(merged[key], dict):
            if not isinstance(value, Mapping):
                raise ConfigError(f"config section {key!r} must be an object")
            for sub, subval in value.items():
                if sub not in merged[key]:
                    raise ConfigError(f"unknown config key {key}.{sub}")
                merged[key][sub] = subval
        else:
            merged[key] = value
    return merged


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return merge_config(DEFAULT_CONFIG, data)


def _require(cond: bool, message: str, problems: list[str]) -> None:
    if not cond:
        problems.append(message)


def _is_posint(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def validate_config(cfg: dict) -> list[str]:
    problems: list[str] = []
    _require(_is_posint(cfg["seed"]) or cfg["seed"] == 0, "seed must be a nonnegative integer", problems)
    _require(_is_posint(cfg["threads"]), "threads must be a positive integer", problems)

    co = cfg["cohort"]
    _require(_is_posint(co["slot_count"]), "cohort.slot_count must be >= 1", problems)
    _require(_is_posint(co["slot_days"]), "cohort.slot_days must be >= 1", problems)
    _require(
        isinstance(co["min_age_years"], int) and co["min_age_years"] >= 0,
        "cohort.min_age_years must be a nonnegative integer",
        problems,
    )
    for key in ("window_start", "window_end"):
        try:
            date.fromisoformat(co[key])
        except (TypeError, ValueError):
            problems.append(f"cohort.{key} must be an ISO date string")
    if co["ad_codes"] is not None and (
        not isinstance(co["ad_codes"], list) or not co["ad_codes"]
    ):
        problems.append("cohort.ad_codes must be null or a non-empty list")

    _require(_is_posint(cfg["synth"]["n_patients"]), "synth.n_patients must be >= 1", problems)

    ing = cfg["ingest"]
    _require(_is_posint(ing["review_size"]), "ingest.review_size must be >= 1", problems)
    _require(_is_posint(ing["keep"]), "ingest.keep must be >= 1", problems)
    if isinstance(ing["review_size"], int) and isinstance(ing["keep"], int):
        _require(ing["keep"] <= ing["review_size"], "ingest.keep must be <= review_size", problems)

    el = cfg["elbow"]
    _require(el["features"] in (TEMPORAL, AGGREGATE), "elbow.features must be temporal|aggregate", problems)
    _require(_is_posint(el["kmin"]) and _is_posint(el["kmax"]), "elbow.kmin/kmax must be >= 1", problems)
    if _is_posint(el["kmin"]) and _is_posint(el["kmax"]):
        _require(el["kmin"] < el["kmax"], "elbow.kmin must be < kmax", problems)
    _require(_is_posint(el["restarts"]), "elbow.restarts must be >= 1", problems)

    cl = cfg["cluster"]
    _require(cl["features"] in (TEMPORAL, AGGREGATE), "cluster.features must be temporal|aggregate", problems)
    if cl["k"] is not None:
        _require(_is_posint(cl["k"]), "cluster.k must be null or >= 1", problems)
    if cl["gamma"] is not None:
        _require(
            isinstance(cl["gamma"], (int, float)) and cl["gamma"] > 0,
            "cluster.gamma must be null or > 0",
            problems,
        )
    _require(_is_posint(cl["restarts"]), "cluster.restarts must be >= 1", problems)

    st = cfg["stats"]
    _require(isinstance(st["yates"], bool), "stats.yates must be boolean", problems)
    _require(
        isinstance(st["alpha"], (int, float)) and 0 < st["alpha"] < 1,
        "stats.alpha must be in (0,1)",
        problems,
    )
    _require(_is_posint(st["bonferroni_m"]), "stats.bonferroni_m must be >= 1", problems)

    _require(
        isinstance(cfg["mlr"]["reference_cluster"], int),
        "mlr.reference_cluster must be an integer",
        problems,
    )

    dr = cfg["drugs"]
    _require(_is_posint(dr["top"]), "drugs.top must be >= 1", problems)
    if dr["selected"] is not None and not isinstance(dr["selected"], list):
        problems.append("drugs.selected must be null or a list of ATC3 codes")

    rp = cfg["report"]
    _require(_is_posint(rp["top_k"]), "report.top_k must be >= 1", problems)
    _require(
        rp["temporal_denominator"] in ("slot_active", "cluster_size"),
        "report.temporal_denominator must be slot_active|cluster_size",
        problems,
    )
    _require(
        isinstance(rp["formats"], list)
        and rp["formats"]
        and all(f in ("csv", "json") for f in rp["formats"]),
        "report.formats must be a non-empty list drawn from csv|json",
        problems,
    )

    # external files named in the config must exist up front
    external = [
        ("ingest.phecode_map", ing["phecode_map"]),
        ("drugs.atc_map", dr["atc_map"]),
    ]
    if isinstance(cfg["synth"]["profiles"], str) and cfg["synth"]["profiles"] != "demo":
        external.append(("synth.profiles", cfg["synth"]["profiles"]))
    if ing["vocabulary"] not in ("ranked", "bundled"):
        external.append(("ingest.vocabulary", ing["vocabulary"]))
    for name in ("demographics", "diagnoses", "prescriptions", "deaths"):
        if ing[name] is not None:
            external.append((f"ingest.{name}", ing[name]))
    for label, value in external:
        if value is None:
            continue
        if not isinstance(value, str):
            problems.append(f"{label} must be a path string")
        elif not Path(value).exists():
            problems.append(f"{label}: file not found: {value}")

    return problems


# ---------------------------------------------------------------------------
# Stage context
# ---------------------------------------------------------------------------


@dataclass
class Context:
    cfg: dict
    out: Path
    meta: ArtifactMeta

    @property
    def seed(self) -> int:
        return self.cfg["seed"]

    def path(self, name: str) -> Path:
        return self.out / name

    def need(self, name: str) -> Path:
        p = self.path(name)
        if not p.exists():
            raise FileNotFoundError(f"missing input {p} (run '{PRODUCERS[name]}' first)")
        return p

    def write(self, artifact: Artifact) -> str:
        write_text(self.path(artifact.name), render_csv(artifact, self.meta))
        return artifact.name

    def cohort_config(self) -> CohortConfig:
        co = self.cfg["cohort"]
        kwargs: dict[str, Any] = dict(
            min_age_years=co["min_age_years"],
            window_start=date.fromisoformat(co["window_start"]),
            window_end=date.fromisoformat(co["window_end"]),
            slot_count=co["slot_count"],
            slot_days=co["slot_days"],
        )
        if co["ad_codes"] is not None:
            kwargs["ad_code_set"] = frozenset(str(c) for c in co["ad_codes"])
        return CohortConfig(**kwargs)

    def phecode_map(self):
        path = self.cfg["ingest"]["phecode_map"]
        return default_phecode_map() if path is None else load_phecode_map(Path(path))

    def load_assignments(self, name: str = "assignments.csv") -> dict[str, int]:
        with read_table(self.need(name)) as (_, rows):
            return {pid: int(cluster) for _, (pid, cluster) in rows}

    def load_cohort(self) -> Cohort:
        return load_cohort(self.need("cohort.json"))


def _aligned_labels(cohort: Cohort, assignments: Mapping[str, int]) -> list[int]:
    missing = [pid for pid in cohort.patient_ids() if pid not in assignments]
    if missing:
        raise ValueError(f"{len(missing)} cohort patients missing cluster assignments")
    return [assignments[pid] for pid in cohort.patient_ids()]


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_synth(ctx: Context) -> list[str]:
    scfg = ctx.cfg["synth"]
    spec = scfg["profiles"]
    if spec == "demo":
        profiles = demo_profiles()
    else:
        profiles = load_profiles(spec)
    data = generate_cohort(
        profiles, scfg["n_patients"], ctx.seed, config=ctx.cohort_config()
    )
    return data.write_tables(ctx.out, ctx.meta.line())


def stage_ingest(ctx: Context) -> list[str]:
    ing = ctx.cfg["ingest"]

    def table(name: str) -> Path:
        configured = ing[name]
        if configured is not None:
            return Path(configured)
        fname = "patients.csv" if name == "demographics" else f"{name}.csv"
        return ctx.need(fname)

    paths = TablePaths(
        demographics=table("demographics"),
        diagnoses=table("diagnoses"),
        prescriptions=table("prescriptions"),
        deaths=table("deaths"),
    )
    tables = parse_tables(paths)
    pmap = ctx.phecode_map()
    cohort_cfg = ctx.cohort_config()

    counts = None
    source = ing["vocabulary"]
    if source == "ranked":
        preliminary = select_cohort(tables, cohort_cfg, pmap, vocabulary=None)
        vocabulary, review = rank_phenotypes(
            preliminary,
            pmap,
            review_size=ing["review_size"],
            keep=ing["keep"],
            exclusions=tuple(ing["exclusions"]),
        )
        counts = {code: n for code, _, n in review}
    elif source == "bundled":
        vocabulary = default_vocabulary()
    else:
        vocabulary = load_vocabulary_csv(Path(source))

    cohort = select_cohort(tables, cohort_cfg, pmap, vocabulary=vocabulary)
    written = []

    funnel = Artifact(
        "funnel.csv",
        ["criterion", "patients"],
        [[name, n] for name, n in cohort.funnel],
    )
    written.append(ctx.write(funnel))

    write_vocabulary_csv(
        vocabulary, ctx.path("vocabulary.csv"), counts=counts, meta=ctx.meta.line()
    )
    written.append("vocabulary.csv")

    save_cohort(cohort, ctx.path("cohort.json"))
    written.append("cohort.json")
    return written


def stage_features(ctx: Context) -> list[str]:
    cohort = ctx.load_cohort()
    vocabulary = load_vocabulary_csv(ctx.need("vocabulary.csv"))
    written = []
    for layout in ctx.cfg["features"]["layouts"]:
        if layout == TEMPORAL:
            fm = build_temporal_matrix(cohort, vocabulary)
        elif layout == AGGREGATE:
            fm = build_aggregate_matrix(cohort, vocabulary)
        else:
            raise ValueError(f"unknown feature layout {layout!r}")
        name = f"features_{layout}.csv"
        write_feature_csv(fm, ctx.path(name), meta=ctx.meta.line())
        written.append(name)
    return written


def stage_elbow(ctx: Context) -> list[str]:
    el = ctx.cfg["elbow"]
    fm = read_feature_csv(ctx.need(f"features_{el['features']}.csv"))
    curve = elbow_sse_curve(
        fm.values.astype(np.float64),
        kmin=el["kmin"],
        kmax=el["kmax"],
        restarts=el["restarts"],
        max_iter=el["max_iter"],
        tol=el["tol"],
        seed=ctx.seed,
    )
    chosen = detect_elbow(curve)
    artifact = Artifact(
        "elbow.csv",
        ["k", "sse", "chosen"],
        [[k, f"{sse:.6f}", 1 if k == chosen else 0] for k, sse in curve.points],
    )
    return [ctx.write(artifact)]


def _read_chosen_k(ctx: Context) -> int:
    path = ctx.need("elbow.csv")
    with read_table(path) as (_, rows):
        for _, (k, _sse, chosen) in rows:
            if chosen == "1":
                return int(k)
    raise ValueError(f"{path} marks no chosen k")


def stage_cluster(ctx: Context) -> list[str]:
    cl = ctx.cfg["cluster"]
    k = cl["k"] if cl["k"] is not None else _read_chosen_k(ctx)
    written = []

    def run(layout: str, assignment_name: str) -> tuple[str, dict[str, int]]:
        fm = read_feature_csv(ctx.need(f"features_{layout}.csv"))
        config = SpectralConfig(
            k=k,
            gamma=cl["gamma"],
            kmeans_restarts=cl["restarts"],
            kmeans_max_iter=cl["max_iter"],
            kmeans_tol=cl["tol"],
            seed=ctx.seed,
            knn_sparsify=cl["knn_sparsify"],
        )
        assignment = spectral_cluster(fm.values, config)
        rows = [[pid, int(lab)] for pid, lab in zip(fm.patient_ids, assignment.labels)]
        ctx.write(Artifact(assignment_name, ["patient_id", "cluster"], rows))
        sizes: dict[str, int] = {}
        for _, lab in rows:
            sizes[lab] = sizes.get(lab, 0) + 1
        return assignment_name, sizes

    primary = cl["features"]
    name, sizes = run(primary, "assignments.csv")
    written.append(name)
    size_rows = [[primary, c, n] for c, n in sorted(sizes.items())]

    if cl["also_aggregate"] and primary == TEMPORAL:
        name, agg_sizes = run(AGGREGATE, "assignments_aggregate.csv")
        written.append(name)
        size_rows += [[AGGREGATE, c, n] for c, n in sorted(agg_sizes.items())]

    written.append(
        ctx.write(Artifact("cluster_sizes.csv", ["layout", "cluster", "n"], size_rows))
    )
    return written


def stage_stats(ctx: Context) -> list[str]:
    st = ctx.cfg["stats"]
    cohort = ctx.load_cohort()
    assignments = ctx.load_assignments()
    labels = _aligned_labels(cohort, assignments)
    values = cohort.demographic_labels()
    specs = [
        VariableSpec("sex", tuple(values["sex"])),
        VariableSpec(
            "race",
            tuple(values["race"]),
            expand_categories=True,
            category_order=tuple(RACE_LABELS.values()),
        ),
        VariableSpec(
            "age_group",
            tuple(values["age_group"]),
            expand_categories=True,
            category_order=tuple(g.value for g in AGE_GROUP_ORDER),
        ),
        VariableSpec("mortality", tuple(values["mortality"])),
    ]
    grid = pairwise_test_grid(labels, specs, yates=st["yates"])
    clusters = sorted(set(labels))
    formatted, raw = render_stats_grid(grid, clusters)
    threshold = bonferroni_threshold(st["alpha"], st["bonferroni_m"])
    summary = {
        "alpha": st["alpha"],
        "bonferroni_m": st["bonferroni_m"],
        "threshold": threshold,
        "yates": st["yates"],
        "clusters": clusters,
    }
    written = [ctx.write(formatted), ctx.write(raw)]
    write_text(
        ctx.path("stats_summary.json"),
        json.dumps(summary, sort_keys=True, indent=2) + "\n",
    )
    written.append("stats_summary.json")
    return written


def stage_mlr(ctx: Context) -> list[str]:
    mcfg = ctx.cfg["mlr"]
    cohort = ctx.load_cohort()
    assignments = ctx.load_assignments()
    labels = _aligned_labels(cohort, assignments)
    values = cohort.demographic_labels()

    blocks = []
    names: list[str] = []
    references = {}
    for var, ref_key, prefix in (
        ("sex", "sex_reference", "Sex "),
        ("race", "race_reference", "Race "),
        ("age_group", "age_reference", "Age Group "),
    ):
        cols, col_names, used = expand_categorical(
            values[var], mcfg[ref_key], prefix=prefix
        )
        blocks.append(cols)
        names.extend(col_names)
        references[var] = used
    X = np.hstack(blocks)

    fit = fit_multinomial_logit(
        X, labels, reference_cluster=mcfg["reference_cluster"], feature_names=names
    )
    written = [ctx.write(render_mlr(fit))]
    payload = json.loads(mlr_summary_json(fit))
    payload["references"] = references
    write_text(ctx.path("mlr.json"), json.dumps(payload, sort_keys=True, indent=2) + "\n")
    written.append("mlr.json")
    return written


def stage_drugs(ctx: Context) -> list[str]:
    dcfg = ctx.cfg["drugs"]
    cohort = ctx.load_cohort()
    assignments = ctx.load_assignments()
    _aligned_labels(cohort, assignments)
    atc_map = (
        default_atc_map() if dcfg["atc_map"] is None else load_atc_map(dcfg["atc_map"])
    )
    prescriptions = cohort.post_index_prescriptions
    selected = dcfg["selected"]
    if selected is None:
        selected = rank_drug_classes(prescriptions, atc_map, top=dcfg["top"])
    table = drug_prevalence_by_cluster(prescriptions, assignments, atc_map, selected)
    rows = [
        [cluster, atc3, name, num, denom, f"{pct:.4f}"]
        for cluster, atc3, name, num, denom, pct in table.rows()
    ]
    artifact = Artifact(
        "drug_usage.csv",
        ["cluster", "atc3", "atc3_name", "numerator", "denominator", "pct"],
        rows,
    )
    return [ctx.write(artifact)]


def stage_report(ctx: Context) -> list[str]:
    rcfg = ctx.cfg["report"]
    cohort = ctx.load_cohort()
    assignments = ctx.load_assignments()

    artifacts = []
    for layout in ctx.cfg["features"]["layouts"]:
        table = condition_prevalence(
            assignments,
            read_feature_csv(ctx.need(f"features_{layout}.csv")),
            layout,
            top_k=rcfg["top_k"],
            temporal_denominator=rcfg["temporal_denominator"],
        )
        artifacts.append(render_prevalence(table, f"prevalence_{layout}.csv"))

    artifacts.append(render_demographics(demographic_breakdown(assignments, cohort)))

    agg_assign_path = ctx.path("assignments_aggregate.csv")
    if agg_assign_path.exists():
        aggregate_assignments = ctx.load_assignments("assignments_aggregate.csv")
        artifacts.append(
            render_crosstab(cluster_crosstab(assignments, aggregate_assignments))
        )

    emit_reports(artifacts, ctx.out, ctx.meta, formats=tuple(rcfg["formats"]))
    return [a.name for a in artifacts] + ["manifest.json"]


@dataclass(frozen=True)
class Stage:
    """One pipeline stage and the artifacts it reads and writes.

    Artifact names are those of the default config; other settings pick
    among the same files (elbow.features, cluster.k) or drop some of them.
    Every read is written by an earlier stage, so any stage can be rerun in
    isolation once its predecessors have run.
    """

    name: str
    run: Callable[[Context], list[str]]
    reads: tuple[str, ...]
    writes: tuple[str, ...]


PIPELINE = [
    Stage(
        "synth",
        stage_synth,
        reads=(),
        writes=("patients.csv", "diagnoses.csv", "prescriptions.csv", "deaths.csv",
                "truth_labels.csv"),
    ),
    Stage(
        "ingest",
        stage_ingest,
        reads=("patients.csv", "diagnoses.csv", "prescriptions.csv", "deaths.csv"),
        writes=("funnel.csv", "vocabulary.csv", "cohort.json"),
    ),
    Stage(
        "features",
        stage_features,
        reads=("cohort.json", "vocabulary.csv"),
        writes=("features_temporal.csv", "features_aggregate.csv"),
    ),
    Stage(
        "elbow",
        stage_elbow,
        reads=("features_temporal.csv",),
        writes=("elbow.csv",),
    ),
    Stage(
        "cluster",
        stage_cluster,
        reads=("features_temporal.csv", "features_aggregate.csv", "elbow.csv"),
        writes=("assignments.csv", "assignments_aggregate.csv", "cluster_sizes.csv"),
    ),
    Stage(
        "stats",
        stage_stats,
        reads=("cohort.json", "assignments.csv"),
        writes=("stats_grid.csv", "stats_grid_raw.csv", "stats_summary.json"),
    ),
    Stage(
        "mlr",
        stage_mlr,
        reads=("cohort.json", "assignments.csv"),
        writes=("mlr.csv", "mlr.json"),
    ),
    Stage(
        "drugs",
        stage_drugs,
        reads=("cohort.json", "assignments.csv"),
        writes=("drug_usage.csv",),
    ),
    Stage(
        "report",
        stage_report,
        reads=("cohort.json", "assignments.csv", "assignments_aggregate.csv",
               "features_temporal.csv", "features_aggregate.csv"),
        writes=("prevalence_temporal.csv", "prevalence_aggregate.csv", "demographics.csv",
                "crosstab.csv", "manifest.json"),
    ),
]
STAGES = [stage.name for stage in PIPELINE]
# main() looks stages up here at dispatch time, so entries can be swapped
STAGE_FUNCS: dict[str, Callable[[Context], list[str]]] = {
    stage.name: stage.run for stage in PIPELINE
}
PRODUCERS = {artifact: stage.name for stage in PIPELINE for artifact in stage.writes}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsubtype",
        description="Temporal subtyping pipeline over EHR-style extracts.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES + ["all"]:
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "all" else "run every stage")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--threads", type=int, help="intra-stage thread budget")
        p.add_argument(
            "--dry-run", action="store_true", help="print the plan without writing"
        )
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["out_dir"] = args.out
    if args.threads is not None:
        cfg["threads"] = args.threads

    problems = validate_config(cfg)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2

    stages = STAGES if args.command == "all" else [args.command]
    if args.dry_run:
        for stage in PIPELINE:
            if stage.name in stages:
                reads, writes = " ".join(stage.reads), " ".join(stage.writes)
                print(f"{stage.name}: reads [{reads}] writes [{writes}]")
        return 0

    out = Path(cfg["out_dir"])
    semantic = semantic_config(cfg)
    meta = ArtifactMeta(
        version=__version__, seed=cfg["seed"], config_digest=config_hash(cfg)
    )
    ctx = Context(cfg=cfg, out=out, meta=meta)
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_text(
            ctx.path("effective_config.json"),
            json.dumps(semantic, sort_keys=True, indent=2) + "\n",
        )
    except (OSError, RuntimeError) as exc:
        print(f"error: cannot prepare output directory: {exc}", file=sys.stderr)
        return 1

    for stage in stages:
        try:
            written = STAGE_FUNCS[stage](ctx)
            log.info("%s: wrote %s", stage, " ".join(written))
        except Exception as exc:
            print(f"error: stage {stage} failed: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
