"""Post-index medication analysis.

Maps RxCUI prescription codes to ATC level-3 classes and tabulates
per-cluster prevalence of selected classes among patients who have at
least one post-index prescription.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .report import Artifact, fmt_pct
from .stats import cluster_counts
from .table import read_table

log = logging.getLogger(__name__)

ATC3_PATTERN = re.compile(r"^[A-Z]\d{2}[A-Z]$")
ATC_MAP_COLUMNS = ["rxcui", "atc3", "atc3_name"]


@dataclass(frozen=True)
class AtcMap:
    """rxcui -> set of (ATC level-3 code, class name); one drug may hit several."""

    entries: Mapping[str, frozenset[tuple[str, str]]]

    def lookup(self, rxcui: str) -> frozenset[tuple[str, str]]:
        return self.entries.get(str(rxcui).strip(), frozenset())

    def class_names(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for classes in self.entries.values():
            for atc3, name in sorted(classes):
                out.setdefault(atc3, name)
        return out


def load_atc_map(path: str | Path) -> AtcMap:
    """Read an rxcui,atc3,atc3_name CSV into a multimap.

    Rows with an empty rxcui, or whose atc3 does not match
    letter-digit-digit-letter, are skipped with one warning each naming the
    file and line (not fatal); a missing file or a table read_table refuses
    is fatal.
    """
    sets: dict[str, set[tuple[str, str]]] = {}
    table = read_table(path, ATC_MAP_COLUMNS)
    for lineno, (rxcui, atc3, name, *_) in zip(table.lines, table.rows):
        rxcui, atc3, name = rxcui.strip(), atc3.strip().upper(), name.strip()
        if not rxcui:
            log.warning("%s: line %d: empty rxcui", path, lineno)
            continue
        if not ATC3_PATTERN.match(atc3):
            log.warning("%s: line %d: invalid ATC3 code %r", path, lineno, atc3)
            continue
        sets.setdefault(rxcui, set()).add((atc3, name))
    if not sets:
        log.warning("load_atc_map: %s yielded an empty map", path)
    entries = {k: frozenset(v) for k, v in sets.items()}
    return AtcMap(entries=entries)


def rank_drug_classes(
    prescriptions: Sequence[Sequence[str]],
    atc_map: AtcMap,
    top: int,
) -> list[str]:
    """Most frequently prescribed ATC3 classes by distinct patients cohort-wide.

    prescriptions holds each patient's RxCUIs. Ties break toward the
    lexically smaller class code.
    """
    patients_per_class: dict[str, int] = {}
    for rxcuis in prescriptions:
        for atc3 in {atc3 for rxcui in rxcuis for atc3, _ in atc_map.lookup(rxcui)}:
            patients_per_class[atc3] = patients_per_class.get(atc3, 0) + 1
    ranked = sorted(patients_per_class.items(), key=lambda kv: (-kv[1], kv[0]))
    return [atc3 for atc3, _ in ranked[:top]]


def drug_prevalence_by_cluster(
    prescriptions: Sequence[Sequence[str]],
    labels: Sequence[int],
    atc_map: AtcMap,
    selected: Sequence[str],
) -> Artifact:
    """Distinct-patient prevalence of selected ATC3 classes within each cluster.

    prescriptions holds each patient's post-index RxCUIs and labels their
    clusters. The denominator is the cluster's count of patients with any
    post-index prescription; the numerator counts distinct patients with at
    least one prescription mapping into the class. Rows are cluster-major in
    `selected` order.
    """
    selected = list(selected)
    if not selected:
        log.warning("drug_prevalence_by_cluster: empty selected class list")

    unmapped: dict[str, int] = {}
    patient_classes = []
    for rxcuis in prescriptions:
        classes: set[str] = set()
        for rxcui in rxcuis:
            hits = atc_map.lookup(rxcui)
            if not hits:
                key = str(rxcui).strip()
                unmapped[key] = unmapped.get(key, 0) + 1
            classes.update(atc3 for atc3, _ in hits)
        patient_classes.append(classes)

    if unmapped:
        log.warning(
            "drug_prevalence_by_cluster: %d distinct unmapped rxcuis (%d occurrences)",
            len(unmapped),
            sum(unmapped.values()),
        )

    # one row per patient: any post-index prescription, then each selected class
    indicators = np.array(
        [[bool(rxcuis) for rxcuis in prescriptions]]
        + [[atc3 in classes for classes in patient_classes] for atc3 in selected],
        dtype=np.uint8,
    ).T
    clusters, counts = cluster_counts(labels, indicators)
    names = atc_map.class_names()
    rows = []
    for cluster, (denom, *numerators) in zip(clusters, counts.tolist()):
        for atc3, num in zip(selected, numerators):
            rows.append([cluster, atc3, names.get(atc3, ""), num, denom, fmt_pct(num, denom)])
    header = ["cluster", "atc3", "atc3_name", "numerator", "denominator", "pct"]
    return Artifact("drug_usage.csv", header, rows)
