"""Shared builders for the test suite."""

import csv
import json
import os
import tracemalloc

# match the CLI's determinism posture: pin BLAS pools before numpy loads
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import pytest

from adsubtype import cluster
from adsubtype.cohort import CodeSystem, CohortConfig, parse_tables, select_cohort
from adsubtype.phenotype import PhecodeMap, PhenotypeVocabulary

I9 = CodeSystem.ICD9
I10 = CodeSystem.ICD10CM


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def event_rows(events):
    """An Events table's rows as (patient_id, item, date) tuples, in file order."""
    return list(zip(events.patient_id.rows(), events.item.rows(), events.day.tolist()))


def profile_dict(profile):
    """A SubtypeProfile in the profile JSON schema that load_profiles reads."""
    nested = {}
    for (code, slot), p in sorted(profile.condition_slot_prob.items()):
        nested.setdefault(code, {})[str(slot)] = p
    return {
        "name": profile.name,
        "mixture_weight": profile.mixture_weight,
        "condition_slot_prob": nested,
        "sex_dist": profile.sex_dist,
        "race_dist": profile.race_dist,
        "age_dist": profile.age_dist,
        "mortality_prob": profile.mortality_prob,
        "drug_class_probs": profile.drug_class_probs,
    }


def pretend_cpus(monkeypatch, count):
    """Make the cluster layer see `count` usable CPUs, with or without affinity masks."""
    monkeypatch.setattr(cluster.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(cluster.os, "cpu_count", lambda: count)


def traced_peak(fn, *args, **kwargs):
    """fn's result and the most bytes it held at once beyond what was live before.

    Counted by tracemalloc, so the figure is deterministic and independent of
    the process's RSS.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def write_profiles(profiles, path):
    payload = {"profiles": [profile_dict(p) for p in profiles]}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.fixture
def tiny_pmap():
    """Minimal phecode map: three conditions plus the AD phecode itself."""
    return PhecodeMap(
        {
            ("4019", I9): ("401.1", "Essential hypertension"),
            ("I10", I10): ("401.1", "Essential hypertension"),
            ("2724", I9): ("272.1", "Hyperlipidemia"),
            ("E785", I10): ("272.1", "Hyperlipidemia"),
            ("25000", I9): ("250.2", "Type 2 diabetes"),
            ("E119", I10): ("250.2", "Type 2 diabetes"),
            ("3310", I9): ("290.11", "Alzheimer's disease"),
            ("G309", I10): ("290.11", "Alzheimer's disease"),
        }
    )


@pytest.fixture
def tiny_vocab():
    return PhenotypeVocabulary(
        (
            ("401.1", "Essential hypertension"),
            ("272.1", "Hyperlipidemia"),
            ("250.2", "Type 2 diabetes"),
        )
    )


@pytest.fixture
def table_writer(tmp_path):
    """Write the four raw input tables from row tuples; returns parse_tables' arguments."""

    def write(patients=(), diagnoses=(), prescriptions=(), deaths=()):
        write_csv(tmp_path / "patients.csv", ["patient_id", "sex", "race", "birth_date"], patients)
        write_csv(tmp_path / "diagnoses.csv", ["patient_id", "code", "system", "date"], diagnoses)
        write_csv(tmp_path / "prescriptions.csv", ["patient_id", "rxcui", "date"], prescriptions)
        write_csv(tmp_path / "deaths.csv", ["patient_id", "death_date"], deaths)
        names = ("patients", "diagnoses", "prescriptions", "deaths")
        return [tmp_path / f"{name}.csv" for name in names]

    return write


@pytest.fixture
def build_cohort(tiny_pmap, table_writer):
    """End-to-end cohort from raw rows with the tiny phecode map."""

    def build(patients, diagnoses, prescriptions=(), deaths=(), config=None, vocabulary=None):
        tables = parse_tables(*table_writer(patients, diagnoses, prescriptions, deaths))
        return select_cohort(tables, config or CohortConfig(), tiny_pmap, vocabulary=vocabulary)

    return build
