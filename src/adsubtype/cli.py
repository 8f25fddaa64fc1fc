"""Pipeline command line: stage subcommands over a shared JSON config.

Each subcommand reads only the previous stages' artifacts from the output
directory, so any stage can be rerun in isolation; PIPELINE declares what
each stage reads and writes. Within one process a stage reuses an earlier
stage's parse of a file only while the next stage declares that file as a
read; a stage run on its own parses its own files. Outputs are pure
functions of (inputs, config, seed); thread settings never affect bytes.

Stages run with the cyclic garbage collector paused and the import-time
heap frozen; main collects once after each stage and then freezes what
survives, so no object (scipy's import-time ones included) is walked by
more than one of those collections, and on return it restores the
collector's entry state. After each collection, and after each
layout the cluster stage clusters, freed heap pages go back to the system
(`release_heap`). After each stage main appends that stage's wall time,
CPU time, peak RSS and, where the OS reports it, RSS after the release
to run_log.jsonl, a log outside the manifest that no stage reads; `all`
starts that log afresh, so it holds one line per stage of the last run.
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
import gc
import json
import logging
import operator
import resource
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import __version__
from .cluster import (
    SpectralConfig,
    detect_elbow,
    elbow_sse_curve,
    release_heap,
    spectral_cluster,
)
from .cohort import (
    DEMOGRAPHICS,
    Cohort,
    CohortConfig,
    load_cohort,
    parse_date,
    parse_tables,
    restrict_to_vocabulary,
    save_cohort,
    select_cohort,
)
from .data import default_atc_map, default_phecode_map, default_vocabulary
from .drugs import ATC3_PATTERN, drug_prevalence_by_cluster, load_atc_map, rank_drug_classes
from .phenotype import (
    FeatureMatrix,
    aggregate_from_temporal,
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
    render_csv,
    render_mlr,
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
from .table import int_field, read_table, write_json, write_text

log = logging.getLogger("adsubtype")


@dataclass(frozen=True)
class Kind:
    """A named value check: `test` accepts a value, `text` ends "<key> must be ...".

    On a file kind, every accepted string except `keywords` names an input
    file, which validate_config requires to exist.
    """

    text: str
    test: Callable[[Any], bool]
    names_file: bool = False
    keywords: tuple[str, ...] = ()


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_str_list(v: Any) -> bool:
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


def _is_iso_date(v: Any) -> bool:
    if not isinstance(v, str):
        return False
    try:
        parse_date(v)
    except ValueError:
        return False
    return True


def int_at_least(least: int) -> Kind:
    return Kind(f"an integer >= {least}", lambda v: _is_int(v) and v >= least)


def nullable(kind: Kind) -> Kind:
    return replace(kind, text=f"null or {kind.text}", test=lambda v: v is None or kind.test(v))


def one_of(*choices: str) -> Kind:
    text = "one of " + ", ".join(json.dumps(c) for c in choices)
    return Kind(text, lambda v: isinstance(v, str) and v in choices)


def input_file(*keywords: str) -> Kind:
    """A path to an existing file, or one of the keywords."""
    text = " or ".join([*(json.dumps(k) for k in keywords), "a path string"])
    return Kind(text, lambda v: isinstance(v, str), names_file=True, keywords=keywords)


NONNEG_INT = int_at_least(0)
POS_INT = int_at_least(1)
POS_NUMBER = Kind("a number > 0", lambda v: _is_number(v) and v > 0)
OPEN_UNIT = Kind("a number in (0, 1)", lambda v: _is_number(v) and 0 < v < 1)
ISO_DATE = Kind("an ISO date string", _is_iso_date)
PATH = Kind("a path string", lambda v: isinstance(v, str))
STRINGS = Kind("a list of strings", _is_str_list)
NONEMPTY_STRINGS = Kind("a non-empty list of strings", lambda v: _is_str_list(v) and len(v) > 0)
ATC3_CODES = Kind(  # the codes load_atc_map keeps; no other can match a prescription
    "a list of ATC3 codes like N06A",
    lambda v: _is_str_list(v) and all(map(ATC3_PATTERN.fullmatch, v)),
)
FILE = input_file()


@dataclass(frozen=True)
class Key:
    """One config value: its dotted name, default and check."""

    name: str
    default: Any
    kind: Kind

    def get(self, cfg: Mapping[str, Any]) -> Any:
        section, _, leaf = self.name.rpartition(".")
        return (cfg[section] if section else cfg)[leaf]


# Every config value, in the order errors are reported.
CONFIG_KEYS = (
    Key("seed", 0, NONNEG_INT),
    Key("out_dir", "out", PATH),
    Key("threads", 1, POS_INT),
    Key("cohort.min_age_years", CohortConfig.min_age_years, NONNEG_INT),
    Key("cohort.window_start", CohortConfig.window_start.isoformat(), ISO_DATE),
    Key("cohort.window_end", CohortConfig.window_end.isoformat(), ISO_DATE),
    Key("cohort.slot_count", CohortConfig.slot_count, POS_INT),
    Key("cohort.slot_days", CohortConfig.slot_days, POS_INT),
    Key("cohort.ad_codes", None, nullable(NONEMPTY_STRINGS)),
    Key("synth.n_patients", 2000, POS_INT),
    Key("synth.profiles", "demo", input_file("demo")),
    Key("ingest.demographics", None, nullable(FILE)),
    Key("ingest.diagnoses", None, nullable(FILE)),
    Key("ingest.prescriptions", None, nullable(FILE)),
    Key("ingest.deaths", None, nullable(FILE)),
    Key("ingest.phecode_map", None, nullable(FILE)),
    Key("ingest.vocabulary", "ranked", input_file("ranked", "bundled")),
    Key("ingest.review_size", 60, POS_INT),
    Key("ingest.keep", 40, POS_INT),
    Key("ingest.exclusions", [], STRINGS),
    Key("elbow.kmax", 10, int_at_least(3)),  # detect_elbow needs three curve points
    Key("elbow.restarts", 10, POS_INT),
    Key("cluster.k", None, nullable(int_at_least(2))),  # the pairwise grid needs two clusters
    Key("cluster.gamma", None, nullable(POS_NUMBER)),
    Key("cluster.knn_sparsify", None, nullable(POS_INT)),
    Key("stats.alpha", 0.05, OPEN_UNIT),
    Key("stats.bonferroni_m", 15, POS_INT),
    Key("mlr.reference_cluster", 0, NONNEG_INT),
    Key("mlr.sex_reference", "Female", one_of(*DEMOGRAPHICS["sex"])),
    Key("mlr.race_reference", "American Indian or Alaska Native", one_of(*DEMOGRAPHICS["race"])),
    Key("mlr.age_reference", "<65", one_of(*DEMOGRAPHICS["age_group"])),
    Key("drugs.atc_map", None, nullable(FILE)),
    Key("drugs.selected", None, nullable(ATC3_CODES)),
    Key("drugs.top", 13, POS_INT),
    Key("report.top_k", 20, POS_INT),
)


def _dates_ascending(start: str, end: str) -> bool:
    return parse_date(start) < parse_date(end)


# (first key, second key, holds(first, second), problem); a rule is checked
# only once both of its keys have passed their own checks
CROSS_KEY_RULES = (
    ("cohort.window_start", "cohort.window_end", _dates_ascending,
     "cohort.window_end must be after cohort.window_start"),
    ("ingest.keep", "ingest.review_size", operator.le, "ingest.keep must be <= review_size"),
    # k left to the elbow is known only once the elbow stage has run
    ("cluster.k", "mlr.reference_cluster", lambda k, ref: k is None or ref < k,
     "mlr.reference_cluster must be < cluster.k"),
)


def _default_config() -> dict[str, Any]:
    config: dict[str, Any] = {}
    for key in CONFIG_KEYS:
        section, _, leaf = key.name.rpartition(".")
        (config.setdefault(section, {}) if section else config)[leaf] = key.default
    return config


DEFAULT_CONFIG = _default_config()


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
        data = json.loads(p.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8
        raise ConfigError(f"config file {p} cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return merge_config(DEFAULT_CONFIG, data)


def validate_config(cfg: dict) -> list[str]:
    """Every problem with cfg, in CONFIG_KEYS order, then the cross-key rules."""
    problems: list[str] = []
    valid: dict[str, Any] = {}
    for key in CONFIG_KEYS:
        value = key.get(cfg)
        if not key.kind.test(value):
            problems.append(f"{key.name} must be {key.kind.text}")
            continue
        valid[key.name] = value
        if (
            key.kind.names_file
            and value is not None
            and value not in key.kind.keywords
            and not Path(value).is_file()
        ):
            problem = "not a file" if Path(value).exists() else "file not found"
            problems.append(f"{key.name}: {problem}: {value}")
    for first, second, holds, problem in CROSS_KEY_RULES:
        if first in valid and second in valid and not holds(valid[first], valid[second]):
            problems.append(problem)
    return problems


# The artifact each `ingest.*` extract stands in for
EXTRACTS = {
    "demographics": "patients.csv",
    "diagnoses": "diagnoses.csv",
    "prescriptions": "prescriptions.csv",
    "deaths": "deaths.csv",
}


def _synth_overwrites(cfg: dict) -> list[str]:
    """A problem for each configured extract that the synth stage would replace.

    synth replaces the directory entries of its tables in out_dir, so an
    extract is refused when its own entry, or the file it resolves to, is one.
    """
    out = Path(cfg["out_dir"]).resolve()
    written = {out / name for name, stage in PRODUCERS.items() if stage == "synth"}
    problems = []
    for name in EXTRACTS:
        path = cfg["ingest"][name]
        if path is None:
            continue
        entry = Path(path).parent.resolve() / Path(path).name
        if {entry, Path(path).resolve()} & written:
            problems.append(f"ingest.{name}: {path} would be overwritten by the synth stage")
    return problems


# ---------------------------------------------------------------------------
# Stage context
# ---------------------------------------------------------------------------


ASSIGNMENT_COLUMNS = ["patient_id", "cluster"]
ELBOW_COLUMNS = ["k", "sse", "chosen"]


def read_assignments(path: Path) -> dict[str, int]:
    """Each patient's cluster in an assignments file; a patient listed twice is refused."""
    assignments: dict[str, int] = {}
    table = read_table(path, ASSIGNMENT_COLUMNS)
    for lineno, (pid, cluster, *_) in zip(table.lines, table.rows):
        if pid in assignments:
            raise ValueError(f"{path}: line {lineno}: duplicate patient_id {pid!r}")
        assignments[pid] = int_field(path, lineno, "cluster", cluster)
    return assignments


@dataclass
class Context:
    cfg: dict
    out: Path
    meta: ArtifactMeta
    # parsed artifacts by name; main keeps one only while the next stage reads it
    parsed: dict[str, Any]

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

    def parse(self, name: str, reader: Callable[[Path], Any]) -> Any:
        """Artifact `name` as `reader` parses it, read at most once while cached."""
        if name not in self.parsed:
            self.parsed[name] = reader(self.need(name))
        return self.parsed[name]

    def write(self, artifact: Artifact) -> None:
        self.parsed.pop(artifact.name, None)
        write_text(self.path(artifact.name), render_csv(artifact, self.meta))

    def cohort_config(self) -> CohortConfig:
        co = self.cfg["cohort"]
        kwargs: dict[str, Any] = dict(
            min_age_years=co["min_age_years"],
            window_start=parse_date(co["window_start"]),
            window_end=parse_date(co["window_end"]),
            slot_count=co["slot_count"],
            slot_days=co["slot_days"],
        )
        if co["ad_codes"] is not None:
            kwargs["ad_code_set"] = frozenset(str(c) for c in co["ad_codes"])
        return CohortConfig(**kwargs)

    def phecode_map(self):
        path = self.cfg["ingest"]["phecode_map"]
        return default_phecode_map() if path is None else load_phecode_map(Path(path))

    def cluster_labels(self, name: str, patient_ids: Sequence[str]) -> list[int]:
        """The clusters in assignments file `name`, in patient_ids order.

        The file must assign exactly these patients, each once; one left
        over from another cohort, or listed twice, is refused.
        """
        assignments = self.parse(name, read_assignments)
        missing = sum(1 for pid in patient_ids if pid not in assignments)
        extra = len(assignments.keys() - set(patient_ids))
        if missing or extra:
            raise ValueError(
                f"{self.path(name)} does not match the cohort: {missing} patients missing "
                f"cluster assignments, {extra} assigned patients not in the cohort"
            )
        return [assignments[pid] for pid in patient_ids]

    def load_cohort(self) -> Cohort:
        return self.parse("cohort.json", load_cohort)

    def features(self) -> FeatureMatrix:
        """The temporal matrix; its users derive the aggregate layout from it."""
        return self.parse("features_temporal.csv", read_feature_csv)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def stage_synth(ctx: Context) -> None:
    scfg = ctx.cfg["synth"]
    spec = scfg["profiles"]
    if spec == "demo":
        profiles = demo_profiles()
    else:
        profiles = load_profiles(spec)
    data = generate_cohort(
        profiles, scfg["n_patients"], ctx.seed, config=ctx.cohort_config()
    )
    data.write_tables(ctx.out, ctx.meta.line())


def stage_ingest(ctx: Context) -> None:
    ing = ctx.cfg["ingest"]

    def table(name: str) -> Path:
        configured = ing[name]
        return ctx.need(EXTRACTS[name]) if configured is None else Path(configured)

    tables = parse_tables(
        table("demographics"), table("diagnoses"), table("prescriptions"), table("deaths")
    )
    pmap = ctx.phecode_map()
    cohort = select_cohort(tables, ctx.cohort_config(), pmap)
    counts = None
    source = ing["vocabulary"]
    if source == "ranked":
        vocabulary, review = rank_phenotypes(
            cohort,
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

    cohort = restrict_to_vocabulary(cohort, vocabulary)
    funnel = Artifact(
        "funnel.csv",
        ["criterion", "patients"],
        [[name, n] for name, n in cohort.funnel],
    )
    ctx.write(funnel)
    write_vocabulary_csv(
        vocabulary, ctx.path("vocabulary.csv"), counts=counts, meta=ctx.meta.line()
    )
    save_cohort(cohort, ctx.path("cohort.json"))
    # equals load_cohort of the file just written, so features need not decode it
    ctx.parsed["cohort.json"] = cohort


def stage_features(ctx: Context) -> None:
    cohort = ctx.load_cohort()
    vocabulary = load_vocabulary_csv(ctx.need("vocabulary.csv"))
    temporal = build_temporal_matrix(cohort, vocabulary)
    for fm in (temporal, aggregate_from_temporal(temporal)):
        write_feature_csv(fm, ctx.path(f"features_{fm.layout}.csv"), meta=ctx.meta.line())
    # equals read_feature_csv of the file just written, so elbow need not parse it
    temporal.values.setflags(write=False)
    ctx.parsed["features_temporal.csv"] = temporal


def stage_elbow(ctx: Context) -> None:
    el = ctx.cfg["elbow"]
    X = ctx.features().values  # uint8; elbow_sse_curve makes no float copy
    curve = elbow_sse_curve(
        X, kmax=el["kmax"], restarts=el["restarts"], seed=ctx.seed, threads=ctx.cfg["threads"]
    )
    chosen = detect_elbow(curve)
    artifact = Artifact(
        "elbow.csv",
        ELBOW_COLUMNS,
        [[k, f"{sse:.6f}", 1 if k == chosen else 0] for k, sse in curve],
    )
    ctx.write(artifact)


def _read_chosen_k(ctx: Context) -> int:
    path = ctx.need("elbow.csv")
    table = read_table(path, ELBOW_COLUMNS)
    chosen = [(n, k) for n, (k, _sse, mark, *_) in zip(table.lines, table.rows) if mark == "1"]
    if not chosen:
        raise ValueError(f"{path} marks no chosen k")
    if len(chosen) > 1:
        raise ValueError(f"{path}: line {chosen[1][0]}: a second chosen k")
    lineno, text = chosen[0]
    k = int_field(path, lineno, "k", text)
    if k < 2:  # cluster.k's rule: the pairwise grid needs two clusters
        raise ValueError(f"{path}: line {lineno}: chosen k {k} is below 2")
    if k <= ctx.cfg["mlr"]["reference_cluster"]:  # the rule a set cluster.k gets
        raise ValueError(f"{path}: line {lineno}: chosen k {k} is not above mlr.reference_cluster")
    return k


def _cluster_layout(
    ctx: Context, config: SpectralConfig, fm: FeatureMatrix, name: str
) -> list[list]:
    """Cluster one feature matrix and write `name`; returns its cluster_sizes rows.

    Its own function so that one layout's labels and rows are freed before
    the next layout is clustered; holding them raises the peak memory.
    """
    labels = spectral_cluster(fm.values, config).labels
    rows = [[pid, int(lab)] for pid, lab in zip(fm.patient_ids, labels)]
    ctx.write(Artifact(name, ASSIGNMENT_COLUMNS, rows))
    clusters, counts = np.unique(labels, return_counts=True)
    return [[fm.layout, int(c), int(n)] for c, n in zip(clusters, counts)]


def stage_cluster(ctx: Context) -> None:
    cl = ctx.cfg["cluster"]
    config = SpectralConfig(
        k=cl["k"] if cl["k"] is not None else _read_chosen_k(ctx),
        gamma=cl["gamma"],
        seed=ctx.seed,
        knn_sparsify=cl["knn_sparsify"],
        threads=ctx.cfg["threads"],
    )
    temporal = ctx.features()
    size_rows = _cluster_layout(ctx, config, temporal, "assignments.csv")
    aggregate = aggregate_from_temporal(temporal)  # in the heap the clustering freed
    del ctx.parsed["features_temporal.csv"], temporal  # no later stage reads it
    release_heap()  # the temporal matrix, its affinity and embedding
    size_rows += _cluster_layout(ctx, config, aggregate, "assignments_aggregate.csv")
    ctx.write(Artifact("cluster_sizes.csv", ["layout", "cluster", "n"], size_rows))


# every 2x2 chi-square table gets Yates's continuity correction
YATES = True


def stage_stats(ctx: Context) -> None:
    st = ctx.cfg["stats"]
    cohort = ctx.load_cohort()
    labels = ctx.cluster_labels("assignments.csv", cohort.patient_ids())
    values = cohort.demographic_labels()
    # race and age group also get one binarized row per category
    specs = [
        VariableSpec(
            var,
            tuple(values[var]),
            binarize=categories if var in ("race", "age_group") else (),
        )
        for var, categories in DEMOGRAPHICS.items()
    ]
    grid = pairwise_test_grid(labels, specs, yates=YATES)
    clusters = sorted(set(labels))
    formatted, raw = render_stats_grid(grid, clusters)
    threshold = bonferroni_threshold(st["alpha"], st["bonferroni_m"])
    summary = {
        "alpha": st["alpha"],
        "bonferroni_m": st["bonferroni_m"],
        "threshold": threshold,
        "yates": YATES,
        "clusters": clusters,
    }
    ctx.write(formatted)
    ctx.write(raw)
    write_json(ctx.path("stats_summary.json"), summary)


def stage_mlr(ctx: Context) -> None:
    mcfg = ctx.cfg["mlr"]
    cohort = ctx.load_cohort()
    labels = ctx.cluster_labels("assignments.csv", cohort.patient_ids())
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
    ctx.write(render_mlr(fit))
    summary = mlr_summary_json(fit)
    summary["references"] = references
    write_json(ctx.path("mlr.json"), summary)


def stage_drugs(ctx: Context) -> None:
    dcfg = ctx.cfg["drugs"]
    cohort = ctx.load_cohort()
    labels = ctx.cluster_labels("assignments.csv", cohort.patient_ids())
    atc_map = (
        default_atc_map() if dcfg["atc_map"] is None else load_atc_map(dcfg["atc_map"])
    )
    prescriptions = [p.rxcuis for p in cohort.patients]
    selected = dcfg["selected"]
    if selected is None:
        selected = rank_drug_classes(prescriptions, atc_map, top=dcfg["top"])
    ctx.write(drug_prevalence_by_cluster(prescriptions, labels, atc_map, selected))


def stage_report(ctx: Context) -> None:
    rcfg = ctx.cfg["report"]
    cohort = ctx.load_cohort()
    labels = ctx.cluster_labels("assignments.csv", cohort.patient_ids())
    temporal = ctx.features()
    feature_labels = ctx.cluster_labels("assignments.csv", temporal.patient_ids)
    artifacts = [
        condition_prevalence(feature_labels, fm, top_k=rcfg["top_k"])
        for fm in (temporal, aggregate_from_temporal(temporal))
    ]
    artifacts.append(demographic_breakdown(labels, cohort))
    aggregate_labels = ctx.cluster_labels("assignments_aggregate.csv", cohort.patient_ids())
    artifacts.append(cluster_crosstab(labels, aggregate_labels))

    emit_reports(artifacts, ctx.out, ctx.meta)


@dataclass(frozen=True)
class Stage:
    """One pipeline stage and the artifacts it reads and writes.

    The declarations hold for every config, except that cluster reads
    elbow.csv only when cluster.k is unset. Every read is written by an
    earlier stage, so any stage can be rerun in isolation once its
    predecessors have run. features_aggregate.csv is an output only: cluster
    and report derive the aggregate layout from the temporal matrix.
    """

    name: str
    run: Callable[[Context], None]
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
        reads=("features_temporal.csv", "elbow.csv"),
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
               "features_temporal.csv"),
        writes=("prevalence_temporal.csv", "prevalence_aggregate.csv", "demographics.csv",
                "crosstab.csv", "manifest.json"),
    ),
]
STAGES = [stage.name for stage in PIPELINE]
# main() looks stages up here at dispatch time, so entries can be swapped
STAGE_FUNCS: dict[str, Callable[[Context], None]] = {
    stage.name: stage.run for stage in PIPELINE
}
PRODUCERS = {artifact: stage.name for stage in PIPELINE for artifact in stage.writes}


def _plan(command: str, cfg: dict) -> list[Stage]:
    """The stages `command` runs.

    `all` leaves out a stage when every artifact of it that a later stage
    reads comes from a configured extract instead: synth, once all four
    `ingest.*` extracts are set.
    """
    if command != "all":
        return [stage for stage in PIPELINE if stage.name == command]
    supplied = {EXTRACTS[name] for name in EXTRACTS if cfg["ingest"][name] is not None}
    plan = []
    for i, stage in enumerate(PIPELINE):
        read_later = {name for later in PIPELINE[i + 1 :] for name in later.reads}
        read_later &= set(stage.writes)
        if not read_later or not read_later <= supplied:
            plan.append(stage)
    return plan


# one JSON line of time and memory per stage run; its suffix keeps it out of the manifest
RUN_LOG = "run_log.jsonl"


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
        p.add_argument("--out", dest="out_dir", help="override output directory")
        p.add_argument(
            "--threads",
            type=int,
            help="worker threads for the k-means restarts and the kNN distance blocks",
        )
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
    for key in ("seed", "out_dir", "threads"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)

    stages = _plan(args.command, cfg)
    problems = validate_config(cfg)
    if not problems and any(stage.name == "synth" for stage in stages):
        problems = _synth_overwrites(cfg)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.dry_run:
        for stage in stages:
            reads, writes = " ".join(stage.reads), " ".join(stage.writes)
            print(f"{stage.name}: reads [{reads}] writes [{writes}]")
        return 0

    out = Path(cfg["out_dir"])
    meta = ArtifactMeta(
        version=__version__, seed=cfg["seed"], config_digest=config_hash(cfg)
    )
    ctx = Context(cfg=cfg, out=out, meta=meta, parsed={})
    try:
        out.mkdir(parents=True, exist_ok=True)
        write_json(ctx.path("effective_config.json"), semantic_config(cfg))
        if args.command == "all":  # the log of an earlier run in this directory
            ctx.path(RUN_LOG).unlink(missing_ok=True)
    except (OSError, RuntimeError) as exc:
        print(f"error: cannot prepare output directory: {exc}", file=sys.stderr)
        return 1

    was_enabled = gc.isenabled()
    gc.freeze()
    gc.disable()
    try:
        return _run_stages(ctx, stages)
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


# The process's status file, where the OS has one (Linux)
PROC_STATUS = Path("/proc/self/status")


def _resident_kib() -> int | None:
    """The process's resident set size now (VmRSS) in KiB, or None where it cannot be read."""
    try:
        for line in PROC_STATUS.read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


def _run_stages(ctx: Context, stages: Sequence[Stage]) -> int:
    """Run stages in order; 0 once all succeed, 1 at the first failure."""
    for i, stage in enumerate(stages):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            STAGE_FUNCS[stage.name](ctx)
            log.info("%s: wrote %s", stage.name, " ".join(stage.writes))
        except Exception as exc:
            print(f"error: stage {stage.name} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        # Keep only the parses the next stage reads: one held any longer
        # would add its size to the peak RSS of the stages in between.
        reads = stages[i + 1].reads if i + 1 < len(stages) else ()
        ctx.parsed = {name: obj for name, obj in ctx.parsed.items() if name in reads}
        # The stages build acyclic objects (patients, values, tuples), which
        # reference counting frees, so with the collector paused this one
        # collection per stage is enough: peak RSS stays within run-to-run
        # spread of its value with the collector running. It also empties the
        # interpreter's free lists, which left full would pin memory freed
        # by one stage's per-patient tuples and raise the peak RSS of every
        # later stage. Freezing what survives keeps the next collections off
        # it (scipy's import-time objects among them), and the freed pages
        # then go back to the system.
        gc.collect()
        gc.freeze()
        release_heap()
        cost = {
            "stage": stage.name,
            "wall_s": round(time.perf_counter() - wall, 4),
            "cpu_s": round(time.process_time() - cpu, 4),
            # ru_maxrss is in KiB on Linux
            "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }
        rss = _resident_kib()
        if rss is not None:  # what the stage left resident after its release
            cost["rss_mb"] = round(rss / 1024, 1)
        with open(ctx.path(RUN_LOG), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(cost) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
