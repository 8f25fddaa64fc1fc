"""Characterization artifacts and output plumbing.

Condition prevalence per cluster (aggregate and per-timeslot), demographic
and mortality stratification, cluster-overlap cross-tabulation, formatted
statistics tables, and the CSV/JSON emission layer with its manifest.

Every CSV artifact starts with a comment line recording tool version, seed,
and config hash; percentages always ship next to their numerator and
denominator. No artifact embeds a timestamp, so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .cohort import AGE_GROUP_ORDER, RACE_LABELS, SEX_LABELS, Cohort, Race, Sex
from .phenotype import AGGREGATE, TEMPORAL, FeatureMatrix
from .stats import ALL_CLUSTERS, GridRow, MlrFit, pair_keys
from .table import read_table, render_table, write_text

log = logging.getLogger(__name__)

# execution-only settings that must not affect artifact contents
NON_SEMANTIC_CONFIG_KEYS = ("threads", "out_dir")


def semantic_config(config: Mapping[str, Any]) -> dict[str, Any]:
    """The config with execution-only keys removed."""
    return {k: v for k, v in config.items() if k not in NON_SEMANTIC_CONFIG_KEYS}


def config_hash(config: Mapping[str, Any]) -> str:
    """12-hex digest of the semantic config."""
    blob = json.dumps(semantic_config(config), sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ArtifactMeta:
    version: str
    seed: int
    config_digest: str

    def line(self) -> str:
        return f"adsubtype={self.version} seed={self.seed} config={self.config_digest}"


@dataclass
class Artifact:
    """One output table: a file name, a header, and data rows."""

    name: str
    header: list[str]
    rows: list[list[Any]]


def render_csv(artifact: Artifact, meta: ArtifactMeta | None) -> str:
    return render_table(artifact.header, artifact.rows, None if meta is None else meta.line())


def render_json(artifact: Artifact) -> str:
    payload = {
        "name": artifact.name,
        "header": artifact.header,
        "rows": artifact.rows,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def fmt_pct(numerator: int, denominator: int) -> str:
    """Percentage to 4 decimals; 'NA' marks a zero denominator."""
    if denominator == 0:
        return "NA"
    return f"{100.0 * numerator / denominator:.4f}"


def fmt_float(x: float) -> str:
    return f"{x:.6f}"


def format_p(p: float | None) -> str:
    """Grid cell rendering: '#' at p <= 0.001, 'NA' for untestable cells."""
    if p is None:
        return "NA"
    if p <= 0.001:
        return "#"
    return f"{p:.3f}"


def significance_stars(p: float) -> str:
    """Coefficient-table stars: * p<0.1, ** p<0.05, *** p<0.01."""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.1:
        return "*"
    return ""


# ---------------------------------------------------------------------------
# Condition prevalence
# ---------------------------------------------------------------------------


@dataclass
class PrevalenceRow:
    cluster: int
    phecode: str
    slot: int | None
    numerator: int
    denominator: int

    @property
    def suppressed(self) -> bool:
        return self.denominator == 0

    @property
    def pct(self) -> float | None:
        if self.denominator == 0:
            return None
        return 100.0 * self.numerator / self.denominator


@dataclass
class PrevalenceTable:
    mode: str
    denominator_policy: str
    top_phecodes: list[str]
    rows: list[PrevalenceRow] = field(default_factory=list)


def condition_prevalence(
    assignments: Mapping[str, int],
    features: FeatureMatrix,
    mode: str,
    top_k: int = 20,
    temporal_denominator: str = "slot_active",
) -> PrevalenceTable:
    """Per-cluster condition prevalence on the top_k cohort-wide conditions.

    Aggregate mode divides by cluster size. Temporal mode divides, per slot,
    by the cluster members having at least one condition flagged in that
    slot; temporal_denominator="cluster_size" switches to cluster size. Zero
    denominators suppress the percentage (the row keeps its counts).
    """
    if mode not in (AGGREGATE, TEMPORAL):
        raise ValueError(f"unknown mode {mode!r}")
    if features.layout != mode:
        raise ValueError(f"features layout {features.layout!r} does not match mode {mode!r}")
    if temporal_denominator not in ("slot_active", "cluster_size"):
        raise ValueError(f"unknown temporal_denominator {temporal_denominator!r}")
    missing = [pid for pid in features.patient_ids if pid not in assignments]
    if missing:
        raise ValueError(f"{len(missing)} patients missing cluster assignments")

    labels = np.array([assignments[pid] for pid in features.patient_ids])
    clusters = sorted(set(int(v) for v in labels))
    values = features.values

    phecodes = sorted(set(code for code, _ in features.columns))
    col_of: dict[tuple[str, int | None], int] = {
        col: j for j, col in enumerate(features.columns)
    }

    # cohort-wide prevalence per phecode (any slot, distinct patients)
    overall: dict[str, int] = {}
    for code in phecodes:
        if mode == AGGREGATE:
            overall[code] = int(values[:, col_of[(code, None)]].sum())
        else:
            cols = [col_of[(code, s)] for s in range(1, features.slot_count + 1)]
            overall[code] = int(values[:, cols].max(axis=1).sum())
    top = sorted(phecodes, key=lambda c: (-overall[c], c))[:top_k]

    table = PrevalenceTable(
        mode=mode,
        denominator_policy="cluster_size" if mode == AGGREGATE else temporal_denominator,
        top_phecodes=top,
    )
    for cluster in clusters:
        in_cluster = labels == cluster
        size = int(in_cluster.sum())
        if mode == AGGREGATE:
            for code in top:
                num = int(values[in_cluster, col_of[(code, None)]].sum())
                table.rows.append(PrevalenceRow(cluster, code, None, num, size))
        else:
            for slot in range(1, features.slot_count + 1):
                slot_cols = [
                    j for j, (_, s) in enumerate(features.columns) if s == slot
                ]
                if temporal_denominator == "slot_active":
                    denom = int(values[in_cluster][:, slot_cols].max(axis=1).sum())
                else:
                    denom = size
                for code in top:
                    num = int(values[in_cluster, col_of[(code, slot)]].sum())
                    table.rows.append(PrevalenceRow(cluster, code, slot, num, denom))
    suppressed = sum(1 for r in table.rows if r.suppressed)
    if suppressed:
        log.warning("condition_prevalence: %d zero-denominator rows suppressed", suppressed)
    return table


def render_prevalence(table: PrevalenceTable, name: str) -> Artifact:
    if table.mode == AGGREGATE:
        header = ["cluster", "phecode", "numerator", "denominator", "pct"]
        rows = [
            [r.cluster, r.phecode, r.numerator, r.denominator, fmt_pct(r.numerator, r.denominator)]
            for r in table.rows
        ]
    else:
        header = ["cluster", "phecode", "slot", "numerator", "denominator", "pct"]
        rows = [
            [r.cluster, r.phecode, r.slot, r.numerator, r.denominator, fmt_pct(r.numerator, r.denominator)]
            for r in table.rows
        ]
    return Artifact(name, header, rows)


# ---------------------------------------------------------------------------
# Demographics
# ---------------------------------------------------------------------------


@dataclass
class DemographicRow:
    cluster: int
    variable: str
    category: str
    count: int
    cluster_size: int

    @property
    def pct(self) -> float:
        return 100.0 * self.count / self.cluster_size


def demographic_breakdown(
    assignments: Mapping[str, int], cohort: Cohort
) -> list[DemographicRow]:
    """Per-cluster counts and within-cluster percentages.

    Covers sex, race, age group at index, and mortality; every category is
    emitted (zero counts included) so the schema is stable.
    """
    missing = [pid for pid in cohort.patient_ids() if pid not in assignments]
    if missing:
        raise ValueError(f"{len(missing)} cohort patients missing cluster assignments")
    clusters = sorted(set(assignments[pid] for pid in cohort.patient_ids()))
    sizes = {c: 0 for c in clusters}
    tallies: dict[tuple[int, str, str], int] = {}
    labels = cohort.demographic_labels()
    for i, pid in enumerate(cohort.patient_ids()):
        cluster = assignments[pid]
        sizes[cluster] += 1
        for var, column in labels.items():
            key = (cluster, var, column[i])
            tallies[key] = tallies.get(key, 0) + 1

    variable_categories = [
        ("sex", [SEX_LABELS[s] for s in Sex]),
        ("race", [RACE_LABELS[r] for r in Race]),
        ("age_group", [g.value for g in AGE_GROUP_ORDER]),
        ("mortality", ["alive", "died"]),
    ]
    rows: list[DemographicRow] = []
    for cluster in clusters:
        for var, categories in variable_categories:
            for cat in categories:
                rows.append(
                    DemographicRow(
                        cluster, var, cat, tallies.get((cluster, var, cat), 0), sizes[cluster]
                    )
                )
    return rows


def render_demographics(rows: Sequence[DemographicRow]) -> Artifact:
    header = ["cluster", "variable", "category", "count", "cluster_size", "pct"]
    data = [
        [r.cluster, r.variable, r.category, r.count, r.cluster_size, fmt_pct(r.count, r.cluster_size)]
        for r in rows
    ]
    return Artifact("demographics.csv", header, data)


# ---------------------------------------------------------------------------
# Crosstab
# ---------------------------------------------------------------------------


@dataclass
class Crosstab:
    labels_a: list[int]
    labels_b: list[int]
    counts: np.ndarray


def cluster_crosstab(
    assignment_a: Mapping[str, int], assignment_b: Mapping[str, int]
) -> Crosstab:
    """Overlap counts between two assignments of the same patients."""
    if set(assignment_a) != set(assignment_b):
        only_a = len(set(assignment_a) - set(assignment_b))
        only_b = len(set(assignment_b) - set(assignment_a))
        raise ValueError(
            f"assignments cover different patients ({only_a} only in A, {only_b} only in B)"
        )
    labels_a = sorted(set(assignment_a.values()))
    labels_b = sorted(set(assignment_b.values()))
    ia = {c: i for i, c in enumerate(labels_a)}
    ib = {c: i for i, c in enumerate(labels_b)}
    counts = np.zeros((len(labels_a), len(labels_b)), dtype=np.int64)
    for pid in assignment_a:
        counts[ia[assignment_a[pid]], ib[assignment_b[pid]]] += 1
    return Crosstab(labels_a, labels_b, counts)


def render_crosstab(ct: Crosstab) -> Artifact:
    header = ["cluster_a"] + [f"b_{c}" for c in ct.labels_b] + ["row_total"]
    rows = []
    for i, a in enumerate(ct.labels_a):
        vals = [int(v) for v in ct.counts[i]]
        rows.append([a] + vals + [sum(vals)])
    col_totals = [int(v) for v in ct.counts.sum(axis=0)]
    rows.append(["col_total"] + col_totals + [int(ct.counts.sum())])
    return Artifact("crosstab.csv", header, rows)


# ---------------------------------------------------------------------------
# Stats tables
# ---------------------------------------------------------------------------


def render_stats_grid(
    grid: Sequence[GridRow], clusters: Sequence[int]
) -> tuple[Artifact, Artifact]:
    """Formatted mirror of the p-value grid plus a raw full-precision view."""
    keys = pair_keys(list(clusters)) + [ALL_CLUSTERS]
    header = ["variable", "category"] + keys
    fmt_rows = []
    raw_rows = []
    for row in grid:
        base = [row.variable, row.category or ""]
        fmt = list(base)
        raw = list(base)
        for key in keys:
            cell = row.cells.get(key)
            p = cell.p_value if cell else None
            fmt.append(format_p(p))
            raw.append("" if p is None else f"{p:.10g}")
        fmt_rows.append(fmt)
        raw_rows.append(raw)
    return (
        Artifact("stats_grid.csv", header, fmt_rows),
        Artifact("stats_grid_raw.csv", header, raw_rows),
    )


def render_mlr(fit: MlrFit) -> Artifact:
    header = ["cluster", "predictor", "coef", "robust_se", "rrr", "z", "p", "stars"]
    rows = []
    for i, cluster in enumerate(fit.class_labels):
        for j, name in enumerate(fit.feature_names):
            p = float(fit.p_values[i, j])
            rows.append(
                [
                    cluster,
                    name,
                    fmt_float(float(fit.coefficients[i, j])),
                    fmt_float(float(fit.robust_se[i, j])),
                    fmt_float(float(fit.rrr[i, j])),
                    fmt_float(float(fit.z_values[i, j])),
                    f"{p:.6g}",
                    significance_stars(p),
                ]
            )
    return Artifact("mlr.csv", header, rows)


def mlr_summary_json(fit: MlrFit) -> str:
    payload = {
        "log_likelihood": fit.log_likelihood,
        "aic": fit.aic,
        "n_obs": fit.n_obs,
        "n_iter": fit.n_iter,
        "converged": fit.converged,
        "grad_norm": fit.grad_norm,
        "reference_cluster": fit.reference_cluster,
        "class_labels": fit.class_labels,
        "feature_names": fit.feature_names,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Emission and manifest
# ---------------------------------------------------------------------------

def emit_reports(
    artifacts: Sequence[Artifact],
    out_dir: str | Path,
    meta: ArtifactMeta,
    formats: Sequence[str] = ("csv",),
) -> dict[str, Any]:
    """Write each table in the requested formats, then refresh the manifest.

    Returns the manifest mapping (also written to manifest.json): every
    .csv and .json artifact in out_dir with its data row count and content
    digest. File names and column orders are fixed, so reruns on identical
    inputs are byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    unknown = [f for f in formats if f not in ("csv", "json")]
    if unknown:
        raise ValueError(f"unknown formats {unknown}; expected csv and/or json")
    for artifact in artifacts:
        if "csv" in formats:
            write_text(out / artifact.name, render_csv(artifact, meta))
        if "json" in formats:
            write_text(out / Path(artifact.name).with_suffix(".json").name, render_json(artifact))
    return write_manifest(out)


def _count_rows(path: Path) -> int:
    if path.suffix == ".json":
        data = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(data, list):
            return len(data)
        if isinstance(data, dict):
            rows = data.get("rows")
            return len(rows) if isinstance(rows, list) else len(data)
        return 1
    with read_table(path) as (_, rows):
        return sum(1 for _ in rows)


def write_manifest(out_dir: str | Path) -> dict[str, Any]:
    out = Path(out_dir)
    entries: dict[str, Any] = {}
    for path in sorted(out.iterdir()):
        if path.is_file() and path.suffix in (".csv", ".json") and path.name != "manifest.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            entries[path.name] = {"rows": _count_rows(path), "sha256": digest}
    manifest = {"artifacts": entries}
    write_text(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
