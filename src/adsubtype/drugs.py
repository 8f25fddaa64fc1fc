"""Post-index medication analysis.

Maps RxCUI prescription codes to ATC level-3 classes and tabulates
per-cluster prevalence of selected classes among patients who have at
least one post-index prescription.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .cohort import PrescriptionEvent, RejectedRow
from .table import read_table

log = logging.getLogger(__name__)

ATC3_PATTERN = re.compile(r"^[A-Z]\d{2}[A-Z]$")


@dataclass(frozen=True)
class AtcMap:
    """rxcui -> set of (ATC level-3 code, class name); one drug may hit several."""

    entries: Mapping[str, frozenset[tuple[str, str]]]
    rejects: tuple[RejectedRow, ...] = ()

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

    Rows whose atc3 does not match letter-digit-digit-letter are rejected
    with line numbers (kept on the map's reject list, not fatal); a missing
    file or missing columns is fatal.
    """
    sets: dict[str, set[tuple[str, str]]] = {}
    rejects: list[RejectedRow] = []
    with read_table(path) as (header, rows):
        required = {"rxcui", "atc3", "atc3_name"}
        if not required.issubset(header):
            raise ValueError(f"{path}: expected columns {sorted(required)}, got {header}")
        for lineno, fields in rows:
            row = dict(zip(header, fields))
            rxcui = row.get("rxcui", "").strip()
            atc3 = row.get("atc3", "").strip().upper()
            name = row.get("atc3_name", "").strip()
            if not rxcui:
                rejects.append(RejectedRow("atc_map", lineno, "empty rxcui"))
                continue
            if not ATC3_PATTERN.match(atc3):
                rejects.append(
                    RejectedRow("atc_map", lineno, f"invalid ATC3 code {atc3!r}")
                )
                continue
            sets.setdefault(rxcui, set()).add((atc3, name))
    if rejects:
        log.warning("load_atc_map: rejected %d rows", len(rejects))
    if not sets:
        log.warning("load_atc_map: %s yielded an empty map", path)
    entries = {k: frozenset(v) for k, v in sets.items()}
    return AtcMap(entries=entries, rejects=tuple(rejects))


@dataclass
class DrugUsageTable:
    """Per (cluster, atc3) prescription prevalence.

    Denominator is the cluster's count of patients with any post-index
    prescription; numerator counts distinct patients with at least one
    prescription mapping into the class.
    """

    selected: list[str]
    class_names: dict[str, str]
    clusters: list[int]
    denominators: dict[int, int]
    counts: dict[tuple[str, int], int]
    n_with_prescriptions: int
    unmapped_rxcuis: dict[str, int] = field(default_factory=dict)

    def rows(self) -> list[tuple[int, str, str, int, int, float]]:
        """(cluster, atc3, atc3_name, numerator, denominator, pct) rows."""
        out = []
        for cluster in self.clusters:
            denom = self.denominators[cluster]
            for atc3 in self.selected:
                num = self.counts.get((atc3, cluster), 0)
                pct = 100.0 * num / denom if denom else 0.0
                out.append(
                    (cluster, atc3, self.class_names.get(atc3, ""), num, denom, pct)
                )
        return out


def rank_drug_classes(
    prescriptions: Mapping[str, Sequence[PrescriptionEvent]],
    atc_map: AtcMap,
    top: int = 13,
) -> list[str]:
    """Most frequently prescribed ATC3 classes by distinct patients cohort-wide.

    Ties break toward the lexically smaller class code.
    """
    patients_per_class: dict[str, set[str]] = {}
    for pid, rxs in prescriptions.items():
        for rx in rxs:
            for atc3, _name in atc_map.lookup(rx.rxcui):
                patients_per_class.setdefault(atc3, set()).add(pid)
    ranked = sorted(
        patients_per_class.items(), key=lambda kv: (-len(kv[1]), kv[0])
    )
    return [atc3 for atc3, _ in ranked[:top]]


def drug_prevalence_by_cluster(
    prescriptions: Mapping[str, Sequence[PrescriptionEvent]],
    assignments: Mapping[str, int],
    atc_map: AtcMap,
    selected: Sequence[str] | None = None,
) -> DrugUsageTable:
    """Distinct-patient prevalence of selected ATC3 classes within each cluster.

    Prescriptions must already be post-index filtered. Patients with no
    post-index prescriptions at all are excluded from denominators; a
    patient with several prescriptions in one class counts once.
    """
    missing = [pid for pid in prescriptions if pid not in assignments]
    if missing:
        raise ValueError(
            f"{len(missing)} prescribed patients missing cluster assignments"
        )
    if selected is None:
        selected = rank_drug_classes(prescriptions, atc_map)
    selected = list(selected)
    if not selected:
        log.warning("drug_prevalence_by_cluster: empty selected class list")
    selected_set = set(selected)

    unmapped: dict[str, int] = {}
    clusters = sorted(set(assignments.values()))
    denominators = {c: 0 for c in clusters}
    counts: dict[tuple[str, int], int] = {}
    n_with_rx = 0
    for pid, rxs in prescriptions.items():
        if not rxs:
            continue
        n_with_rx += 1
        cluster = assignments[pid]
        denominators[cluster] += 1
        patient_classes: set[str] = set()
        for rx in rxs:
            hits = atc_map.lookup(rx.rxcui)
            if not hits:
                key = str(rx.rxcui).strip()
                unmapped[key] = unmapped.get(key, 0) + 1
                continue
            patient_classes.update(atc3 for atc3, _ in hits)
        for atc3 in patient_classes & selected_set:
            counts[(atc3, cluster)] = counts.get((atc3, cluster), 0) + 1

    if unmapped:
        log.warning(
            "drug_prevalence_by_cluster: %d distinct unmapped rxcuis (%d occurrences)",
            len(unmapped),
            sum(unmapped.values()),
        )

    return DrugUsageTable(
        selected=selected,
        class_names=atc_map.class_names(),
        clusters=clusters,
        denominators=denominators,
        counts=counts,
        n_with_prescriptions=n_with_rx,
        unmapped_rxcuis=unmapped,
    )
