"""Column-wise ingest against a per-row reference, on seeded random extracts.

The reference below is the row-at-a-time ingest: a lazy reader that yields
one row at a time with its line number, one record per accepted row, and a
selection loop over those records. parse_tables and select_cohort must give
exactly what it gives: the same patients, events, deaths and rejects (reason
text and order included), and the same Cohort in every field.
"""

import csv
import random
import re
from datetime import date, timedelta
from pathlib import Path
from typing import NamedTuple

import pytest

from adsubtype.cohort import (
    DEFAULT_AD_CODES,
    CodeSystem,
    Cohort,
    CohortConfig,
    CohortPatient,
    PatientRecord,
    Race,
    Sex,
    normalize_code,
    parse_tables,
    select_cohort,
)
from adsubtype.table import RejectedRow
from conftest import event_rows

# ---------------------------------------------------------------------------
# reference: one row at a time
# ---------------------------------------------------------------------------


class Diagnosis(NamedTuple):
    patient_id: str
    code: str
    system: CodeSystem
    date: date


class Prescription(NamedTuple):
    patient_id: str
    rxcui: str
    date: date


def _reference_rows(path, columns, rejects):
    """(line number, fields) of each data row, read lazily; a ragged row is a reject.

    '#' lines are comments only before the header.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        lineno = 0

        def data_lines():
            nonlocal lineno
            header_seen = False
            for lineno, line in enumerate(fh, start=1):
                header_seen = header_seen or not line.startswith("#")
                if header_seen:
                    yield line

        reader = csv.reader(data_lines())
        header = [h.strip() for h in next(reader)]
        assert header[: len(columns)] == columns
        for fields in reader:
            if len(fields) == len(header):
                yield lineno, fields
            elif fields:
                problem = f"{len(fields)} fields, header has {len(header)}"
                rejects.append(RejectedRow(Path(path).name, lineno, problem))


def _reference_date(text):
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"date {text!r} is not YYYY-MM-DD")
    return date(int(text[:4]), int(text[5:7]), int(text[8:]))


def reference_parse(paths):
    rejects = []

    def read(path, columns, parse):
        parsed = []
        for lineno, row in _reference_rows(path, columns, rejects):
            fields = [f.strip() for f in row[: len(columns)]]
            try:
                if not fields[0]:
                    raise ValueError("empty patient_id")
                parsed.append(parse(*fields))
            except ValueError as exc:
                rejects.append(RejectedRow(Path(path).name, lineno, str(exc)))
        return parsed

    seen, dead = set(), set()

    def patient(pid, sex, race, birth):
        if pid in seen:
            raise ValueError(f"duplicate patient_id {pid!r}")
        record = PatientRecord(pid, Sex(sex), Race(race), _reference_date(birth))
        seen.add(pid)
        return record

    def diagnosis(pid, code, system, when):
        if not code:
            raise ValueError("empty code")
        return Diagnosis(pid, code, CodeSystem(system), _reference_date(when))

    def prescription(pid, rxcui, when):
        if not rxcui:
            raise ValueError("empty rxcui")
        return Prescription(pid, rxcui, _reference_date(when))

    def death(pid, when):
        if pid in dead:
            raise ValueError(f"duplicate patient_id {pid!r}")
        row = pid, _reference_date(when)
        dead.add(pid)
        return row

    demographics, diagnoses, prescriptions, deaths = paths
    patients = read(demographics, ["patient_id", "sex", "race", "birth_date"], patient)
    dx = read(diagnoses, ["patient_id", "code", "system", "date"], diagnosis)
    rx = read(prescriptions, ["patient_id", "rxcui", "date"], prescription)
    died = dict(read(deaths, ["patient_id", "death_date"], death))
    return patients, dx, rx, died, rejects


def _reference_years(birth, index):
    age = index.year - birth.year
    if (index.month, index.day) < (birth.month, birth.day):
        age -= 1
    return age


def reference_select(patients, dx, rx, deaths, config, pmap):
    ad_norm = {normalize_code(c) for c in config.ad_code_set}
    first_ad = {}
    for ev in dx:
        if normalize_code(ev.code) in ad_norm:
            if ev.patient_id not in first_ad or ev.date < first_ad[ev.patient_id]:
                first_ad[ev.patient_id] = ev.date
    funnel = [("patients_total", len(patients))]
    with_ad = [p for p in patients if p.patient_id in first_ad]
    funnel.append(("first_ad_diagnosis", len(with_ad)))
    in_window = [
        p for p in with_ad if config.window_start <= first_ad[p.patient_id] <= config.window_end
    ]
    funnel.append(("ad_date_in_window", len(in_window)))
    ages = {p.patient_id: _reference_years(p.birth_date, first_ad[p.patient_id]) for p in in_window}
    of_age = [p for p in in_window if ages[p.patient_id] >= config.min_age_years]
    funnel.append((f"age_at_index_ge_{config.min_age_years}", len(of_age)))
    cells = {p.patient_id: set() for p in of_age}
    for ev in dx:
        if ev.patient_id not in cells or normalize_code(ev.code) in ad_norm:
            continue
        d = (first_ad[ev.patient_id] - ev.date).days
        if d < 0 or d > config.slot_count * config.slot_days - 1:
            continue
        phecode = pmap.lookup(ev.code, ev.system)
        if phecode is not None:
            cells[ev.patient_id].add((d // config.slot_days + 1, phecode))
    rxcuis = {p.patient_id: [] for p in of_age}
    for r in rx:
        if r.patient_id in rxcuis and r.date >= first_ad[r.patient_id]:
            rxcuis[r.patient_id].append(r.rxcui)
    selected = [
        CohortPatient(
            p.patient_id, p.sex, p.race, ages[p.patient_id], p.patient_id in deaths,
            tuple(sorted(cells[p.patient_id])), tuple(sorted(rxcuis[p.patient_id])),
        )
        for p in of_age
    ]
    return Cohort(selected, funnel, config)


# ---------------------------------------------------------------------------
# seeded random extracts
# ---------------------------------------------------------------------------

WINDOW = CohortConfig()
INDEX_DATES = [
    WINDOW.window_start, WINDOW.window_end,  # both edges are inside
    WINDOW.window_start - timedelta(days=1), WINDOW.window_end + timedelta(days=1),
    date(2015, 6, 1), date(2016, 2, 29), date(2019, 12, 31),
]
AD_SPELLINGS = [("331.0", "ICD9"), ("3310", "ICD9"), ("g30.9", "ICD10CM"), ("G309", "ICD10CM"),
                ("G30.0", "ICD10CM"), ("g300", "ICD10CM")]
OTHER_CODES = [("401.9", "ICD9"), ("4019", "ICD9"), ("I10", "ICD10CM"), ("2724", "ICD9"),
               ("e78.5", "ICD10CM"), ("25000", "ICD9"), ("E11.9", "ICD10CM"),
               ("V70.0", "ICD9"), ("I10", "ICD9"), ("40,1", "ICD9")]  # the last three: unmapped
BAD_DATES = ["2021-02-30", "20150523", "2015-W01-1", "2015-6-1", "bad-date", "", "2015-13-01"]
HORIZON = WINDOW.slot_count * WINDOW.slot_days


def _pad(rng, text):
    """text, sometimes wrapped in spaces."""
    return f" {text} " if rng.random() < 0.05 else text


def _maybe_bad_date(rng, when):
    return rng.choice(BAD_DATES) if rng.random() < 0.03 else _pad(rng, when.isoformat())


def random_extracts(seed, n=50):
    """Rows for the four input tables; every kind of reject and edge case is present."""
    rng = random.Random(seed)
    # #P: an id that starts like a comment; Q*: events only, no demographics row
    pids = [f"P{i}" for i in range(n - 1)] + ["#P", "Q1", "Q2"]
    index_of = {pid: rng.choice(INDEX_DATES) for pid in pids}
    patients = []
    for pid in pids[:n]:
        birth = index_of[pid] - timedelta(days=rng.choice([365 * 70, 365 * 20, 7300, 7305, 7306]))
        if rng.random() < 0.05:
            birth = index_of[pid] + timedelta(days=30)  # born after the index date
        patients.append([_pad(rng, pid), rng.choice(["F", "M", "UN", " F"]),
                         rng.choice(["05", "03", "OT"]), _maybe_bad_date(rng, birth)])
    patients += [
        ["P1", "M", "03", "1950-01-01"],  # duplicate patient
        ["", "F", "05", "1950-01-01"],  # empty patient_id
        ["P90", "X", "05", "1950-01-01"],  # bad sex
        ["P91", "F", "99", "1950-01-01"],  # bad race
        ["P92", "F", "05", "19500101"],  # non-ISO date
        ["P93", "F", "05"],  # ragged
        ["P94", "F", "05", "1950-01-01", "extra"],  # ragged
    ]
    rng.shuffle(patients)
    diagnoses = []
    for pid in pids:
        idx = index_of[pid]
        code, system = rng.choice(AD_SPELLINGS)
        diagnoses.append([pid, code, system, idx.isoformat()])
        if rng.random() < 0.3:  # a later AD code never moves the index date
            diagnoses.append([pid, code, system, (idx + timedelta(days=40)).isoformat()])
        for _ in range(rng.randrange(1, 12)):
            code, system = rng.choice(OTHER_CODES)
            days = rng.choice([0, 1, 182, 183, HORIZON - 1, HORIZON, -1, rng.randrange(-100, 1300)])
            when = idx - timedelta(days=days)
            diagnoses.append([_pad(rng, pid), _pad(rng, code), _pad(rng, system),
                              _maybe_bad_date(rng, when)])
    diagnoses += [
        ["P0", "4019", "ICD42", "2015-01-01"],  # bad system
        ["P0", "", "ICD9", "2015-01-01"],  # empty code
        ["", "4019", "ICD9", "2015-01-01"],  # empty patient_id
        ["P0", "4019", "ICD9"],  # ragged
        ["P0", "4019", "ICD9", "2015-W02-3"],  # week date
    ]
    rng.shuffle(diagnoses)
    prescriptions = []
    for pid in pids:
        for _ in range(rng.randrange(0, 4)):
            when = index_of[pid] + timedelta(days=rng.choice([0, -1, 1, 200]))
            prescriptions.append([_pad(rng, pid), rng.choice(["100", "200", "3", "1000"]),
                                  _maybe_bad_date(rng, when)])
    prescriptions += [["P0", "", "2016-01-01"], ["P0", "100"], ["P0", "100", "20160101"]]
    rng.shuffle(prescriptions)
    deaths = [[pid, (index_of[pid] + timedelta(days=400)).isoformat()]
              for pid in rng.sample(pids, n // 4)]
    deaths += [[deaths[0][0], "2019-09-09"], ["P3", "2019-02-29"], [""], ["", "2019-01-01"]]
    rng.shuffle(deaths)
    return patients, diagnoses, prescriptions, deaths


@pytest.mark.parametrize("seed", range(12))
def test_column_ingest_equals_the_per_row_reference(table_writer, tiny_pmap, seed):
    paths = table_writer(*random_extracts(seed))
    patients, dx, rx, deaths, rejects = reference_parse(paths)
    tables = parse_tables(*paths)
    assert tables.patients == patients
    assert event_rows(tables.diagnoses) == [(d.patient_id, (d.code, d.system), d.date) for d in dx]
    assert event_rows(tables.prescriptions) == [(r.patient_id, r.rxcui, r.date) for r in rx]
    assert tables.deaths == deaths
    assert tables.rejects == rejects
    kinds = {re.sub(r"'.*'", "'...'", r.reason) for r in rejects}
    assert {"empty patient_id", "empty code", "empty rxcui", "duplicate patient_id '...'",
            "'...' is not a valid Sex", "'...' is not a valid Race",
            "'...' is not a valid CodeSystem", "date '...' is not YYYY-MM-DD",
            "3 fields, header has 4", "5 fields, header has 4", "2 fields, header has 3",
            "1 fields, header has 2"} <= kinds
    configs = [
        CohortConfig(),
        CohortConfig(min_age_years=70, slot_count=3, slot_days=30),
        CohortConfig(ad_code_set=frozenset({"g30.9"}), window_start=date(2015, 6, 1),
                     window_end=date(2019, 12, 31), slot_count=1, slot_days=1),
        CohortConfig(ad_code_set=DEFAULT_AD_CODES | {"401.9"}, min_age_years=0),
    ]
    cohorts = [select_cohort(tables, config, tiny_pmap) for config in configs]
    for config, cohort in zip(configs, cohorts):
        expected = reference_select(patients, dx, rx, deaths, config, tiny_pmap)
        assert cohort.funnel == expected.funnel
        assert cohort.patients == expected.patients
        assert cohort == expected
    default = cohorts[0].patients
    assert any(p.cells for p in default) and any(p.rxcuis for p in default)
