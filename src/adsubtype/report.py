"""Characterization artifacts and output plumbing.

Condition prevalence per cluster (aggregate and per-timeslot), demographic
and mortality stratification, cluster-overlap cross-tabulation, formatted
statistics tables, and the CSV emission layer with its JSON manifest.

Every CSV artifact starts with a comment line recording tool version, seed,
and config hash; percentages always ship next to their numerator and
denominator. No artifact embeds a timestamp, so reruns are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .cohort import DEMOGRAPHICS, Cohort
from .phenotype import AGGREGATE, FeatureMatrix
from .stats import ALL_CLUSTERS, GridRow, MlrFit, cluster_counts, one_hot, pair_keys
from .table import render_table, write_json, write_text

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


def render_csv(artifact: Artifact, meta: ArtifactMeta) -> str:
    return render_table(artifact.header, artifact.rows, meta.line())


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


def condition_prevalence(
    labels: Sequence[int],
    features: FeatureMatrix,
    top_k: int,
) -> Artifact:
    """Per-cluster condition prevalence on the top_k cohort-wide conditions.

    labels holds each feature row's cluster. The features' layout sets the
    mode and the artifact name. Aggregate mode divides by cluster size.
    Temporal mode divides, per slot, by the cluster members having at least
    one condition flagged in that slot. A zero denominator shows as an 'NA'
    percentage (the row keeps its counts).
    """
    mode = features.layout
    codes = [code for code, slot in features.columns if slot in (None, 1)]
    s = features.slot_count if mode != AGGREGATE else 1
    n = features.values.shape[0]
    # phecode-major, slot-minor: cells[i, j, t] flags code j in slot t + 1
    cells = features.values.reshape(n, len(codes), s)
    clusters, numerators = cluster_counts(labels, features.values)
    numerators = numerators.reshape(len(clusters), len(codes), s).tolist()

    # cohort-wide prevalence per phecode (any slot, distinct patients)
    overall = cells.max(axis=2).sum(axis=0).tolist()
    top = sorted(range(len(codes)), key=lambda j: (-overall[j], codes[j]))[:top_k]

    if mode == AGGREGATE:
        active = np.ones((n, s), dtype=np.uint8)
    else:
        active = cells.max(axis=1)  # members with any condition in the slot
    denominators = cluster_counts(labels, active)[1].tolist()

    slots = [[]] if mode == AGGREGATE else [[t + 1] for t in range(s)]
    rows = []
    for k, cluster in enumerate(clusters):
        for t, slot in enumerate(slots):
            denom = denominators[k][t]
            for j in top:
                num = numerators[k][j][t]
                rows.append([cluster, codes[j], *slot, num, denom, fmt_pct(num, denom)])
    suppressed = len(top) * sum(row.count(0) for row in denominators)
    if suppressed:
        log.warning("condition_prevalence: %d zero-denominator rows suppressed", suppressed)
    header = ["cluster", "phecode", "numerator", "denominator", "pct"]
    if mode != AGGREGATE:
        header.insert(2, "slot")
    return Artifact(f"prevalence_{mode}.csv", header, rows)


# ---------------------------------------------------------------------------
# Demographics
# ---------------------------------------------------------------------------


def demographic_breakdown(labels: Sequence[int], cohort: Cohort) -> Artifact:
    """Per-cluster counts and within-cluster percentages of each demographic.

    labels holds each cohort patient's cluster. Every category of every
    DEMOGRAPHICS variable is emitted, zero counts included, so the schema is
    stable.
    """
    values = cohort.demographic_labels()
    columns = [(var, cat) for var, categories in DEMOGRAPHICS.items() for cat in categories]
    indicators = np.hstack(
        [one_hot(values[var], categories) for var, categories in DEMOGRAPHICS.items()]
    )
    clusters, counts = cluster_counts(labels, indicators)
    # every patient falls in exactly one sex category
    sizes = counts[:, : len(DEMOGRAPHICS["sex"])].sum(axis=1).tolist()
    rows = [
        [cluster, var, cat, count, size, fmt_pct(count, size)]
        for cluster, size, cluster_row in zip(clusters, sizes, counts.tolist())
        for (var, cat), count in zip(columns, cluster_row)
    ]
    header = ["cluster", "variable", "category", "count", "cluster_size", "pct"]
    return Artifact("demographics.csv", header, rows)


# ---------------------------------------------------------------------------
# Crosstab
# ---------------------------------------------------------------------------


def cluster_crosstab(labels_a: Sequence[int], labels_b: Sequence[int]) -> Artifact:
    """Overlap counts between two labelings of the same patients, with totals."""
    clusters_b = sorted(set(labels_b))
    clusters_a, counts = cluster_counts(labels_a, one_hot(labels_b, [str(b) for b in clusters_b]))
    rows: list[list[Any]] = [
        [a, *row, sum(row)] for a, row in zip(clusters_a, counts.tolist())
    ]
    col_totals = counts.sum(axis=0).tolist()
    rows.append(["col_total", *col_totals, sum(col_totals)])
    header = ["cluster_a"] + [f"b_{b}" for b in clusters_b] + ["row_total"]
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
            p = row.cells.get(key)
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


def mlr_summary_json(fit: MlrFit) -> dict[str, Any]:
    """The fit's scalars and labels, the body of mlr.json."""
    return {
        "log_likelihood": fit.log_likelihood,
        "aic": fit.aic,
        "n_obs": fit.n_obs,
        "n_iter": fit.n_iter,
        "grad_norm": fit.grad_norm,
        "reference_cluster": fit.reference_cluster,
        "class_labels": fit.class_labels,
        "feature_names": fit.feature_names,
    }


# ---------------------------------------------------------------------------
# Emission and manifest
# ---------------------------------------------------------------------------

def emit_reports(
    artifacts: Sequence[Artifact], out_dir: str | Path, meta: ArtifactMeta
) -> dict[str, Any]:
    """Write each table as CSV, then refresh the manifest.

    Returns the manifest mapping (also written to manifest.json): every
    .csv and .json artifact in out_dir with its content digest. File names
    and column orders are fixed, so reruns on identical inputs are
    byte-identical.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for artifact in artifacts:
        write_text(out / artifact.name, render_csv(artifact, meta))
    return write_manifest(out)


def write_manifest(out_dir: str | Path) -> dict[str, Any]:
    """List every .csv and .json artifact with its SHA-256, each file hashed in blocks."""
    out = Path(out_dir)
    entries = {}
    for path in sorted(out.iterdir()):
        if path.is_file() and path.suffix in (".csv", ".json") and path.name != "manifest.json":
            with open(path, "rb") as fh:
                entries[path.name] = {"sha256": hashlib.file_digest(fh, "sha256").hexdigest()}
    manifest = {"artifacts": entries}
    write_json(out / "manifest.json", manifest)
    return manifest
