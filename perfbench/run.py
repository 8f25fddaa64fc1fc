"""Benchmark for adsubtype: `adsubtype all` end to end, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload demo-2000 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload demo-2000 --seed 1 --trace 1
    python3 perfbench/run.py --workload all      # every workload, both ways
    python3 perfbench/run.py --smoke             # tiny n: every metric, every unit

With --trace 0, each workload runs fresh `adsubtype all` processes, one after
another, until --seconds have passed (at least one); set-up is the median of
several `adsubtype all --dry-run` processes, half timed before the measured
processes and half after. With --trace 1 it runs one untraced process and two
traced processes (perfbench/tracer.py), which wrap each module's public
functions and give the per-layer metrics; every exact count must repeat
between the two traced runs. Every run is checked: exit code 0, every
manifest-listed artifact present with a matching SHA-256, and a manifest
identical to the first run of the same workload in this invocation (the
traced runs' included).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Work files go to .bench_work/ in the current
directory, never into the pipeline's output directories. Uses the standard
library only; the pipeline runs from src/ through PYTHONPATH.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRACER = HERE / "tracer.py"
SRC = Path("src")
WORK = Path(".bench_work")

SETUP_REPEATS = 11  # dry runs per set-up figure, split around the measured processes
SMOKE_PATIENTS = 800
MINIMAL_ELBOW = {"kmax": 3, "restarts": 1}  # smallest elbow the config accepts

# Config overrides per workload; every workload uses the demo profiles and a
# fixed thread budget of 2 (the benchmark machine's core count), never one
# read at run time. The pipeline seed comes from --seed.
WORKLOADS = {
    "demo-2000": {
        "synth": {"n_patients": 2000},
    },
    "spectral-4000": {
        "synth": {"n_patients": 4000},
        "cluster": {"k": 4},
        "elbow": MINIMAL_ELBOW,
    },
    "cohort-12000-knn": {
        "synth": {"n_patients": 12000},
        "cluster": {"k": 4, "knn_sparsify": 15},
        "elbow": MINIMAL_ELBOW,
    },
}
THREADS = 2
DEFAULT_SEED = 0  # the default config's seed

STAGES = ["synth", "ingest", "features", "elbow", "cluster", "stats", "mlr", "drugs", "report"]

# Artifacts `adsubtype all` must list in manifest.json.
REQUIRED_ARTIFACTS = [
    "effective_config.json", "patients.csv", "diagnoses.csv", "prescriptions.csv",
    "deaths.csv", "truth_labels.csv", "funnel.csv", "vocabulary.csv", "cohort.json",
    "features_temporal.csv", "features_aggregate.csv", "elbow.csv", "assignments.csv",
    "assignments_aggregate.csv", "cluster_sizes.csv", "stats_grid.csv",
    "stats_grid_raw.csv", "stats_summary.json", "mlr.csv", "mlr.json",
    "drug_usage.csv", "prevalence_aggregate.csv", "prevalence_temporal.csv",
    "demographics.csv", "crosstab.csv",
]

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ari_temporal": "1",
    "ari_aggregate": "1",
}

# Traced functions whose self time is reported as <name>.s.
TIMED = [
    "synth.generate_cohort", "synth.write_tables",
    "cohort.parse_tables", "cohort.select_cohort", "cohort.save_cohort", "cohort.load_cohort",
    "phenotype.rank_phenotypes", "phenotype.build_temporal_matrix",
    "phenotype.build_aggregate_matrix", "phenotype.write_feature_csv",
    "phenotype.read_feature_csv",
    "cluster.hamming_distance_matrix", "cluster.laplacian_kernel_affinity",
    "cluster.knn_sparsified_affinity", "cluster.normalized_laplacian_embedding",
    "cluster.spectral_cluster", "cluster.kmeans", "cluster.elbow_sse_curve",
    "stats.pairwise_test_grid", "stats.fit_multinomial_logit",
    "drugs.rank_drug_classes", "drugs.drug_prevalence_by_cluster",
    "report.condition_prevalence", "report.demographic_breakdown", "report.emit_reports",
    "report.write_manifest", "report.write_text",
]
CALLED = [
    "cohort.select_cohort", "cohort.load_cohort", "phenotype.read_feature_csv",
    "cluster.hamming_distance_matrix", "cluster.laplacian_kernel_affinity",
    "cluster.knn_sparsified_affinity", "cluster.kmeans", "report.write_text",
]
READERS = ["cohort.parse_tables", "cohort.load_cohort", "phenotype.read_feature_csv"]
WRITERS = [
    "synth.write_tables", "cohort.save_cohort", "phenotype.write_feature_csv",
    "report.write_manifest", "report.write_text",
]
ELBOW_KS = range(1, 11)  # the default elbow's k range; unused k read 0

AFFINITY_SPANS = ("cluster.laplacian_kernel_affinity", "cluster.knn_sparsified_affinity")
# Per-layer metric -> (unit, span names, count summed over those spans).
SUMMED = {
    "synth.rows_written": ("count", ("synth.write_tables",), "rows"),
    "synth.bytes_written": ("bytes", ("synth.write_tables",), "bytes"),
    "cohort.parse_tables.rows": ("count", ("cohort.parse_tables",), "rows"),
    "cohort.parse_tables.rejects": ("count", ("cohort.parse_tables",), "rejects"),
    "cohort.json_bytes": ("bytes", ("cohort.save_cohort",), "bytes"),
    "phenotype.feature_csv_bytes": ("bytes", ("phenotype.write_feature_csv",), "bytes"),
    "cluster.hamming_distance_matrix.gflop": ("GFLOP", ("cluster.hamming_distance_matrix",), "gflop"),
    "cluster.affinity.nnz": ("count", AFFINITY_SPANS, "nnz"),
    "cluster.affinity.bytes": ("bytes", AFFINITY_SPANS, "bytes"),
    "cluster.kmeans.iters": ("count", ("cluster.kmeans",), "iters"),
    "stats.pairwise_test_grid.tests": ("count", ("stats.pairwise_test_grid",), "tests"),
    "stats.fit_multinomial_logit.n_iter": ("count", ("stats.fit_multinomial_logit",), "n_iter"),
    "report.write_manifest.bytes_hashed": ("bytes", ("report.write_manifest",), "bytes_hashed"),
    "report.write_text.bytes": ("bytes", ("report.write_text",), "bytes"),
}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for stage in STAGES:
        units.update({
            f"cli.{stage}.wall_s": "s",
            f"cli.{stage}.cpu_s": "s",
            f"cli.{stage}.rss_hwm_mb": "MB",
        })
    units.update({f"{name}.s": "s" for name in TIMED})
    units.update({f"{name}.calls": "count" for name in CALLED})
    units.update({name: unit for name, (unit, _, _) in SUMMED.items()})
    units["cluster.spectral_cluster.rss_hwm_mb"] = "MB"
    units.update({f"cluster.elbow.k{k}.s": "s" for k in ELBOW_KS})
    units.update({"io.read_s": "s", "io.write_s": "s"})
    units.update({"trace.total_s": "s", "trace.overhead_s": "s"})
    return units


PER_LAYER = per_layer_units()
# Counts that must repeat exactly between traced runs of one workload and seed.
EXACT_UNITS = ("count", "bytes", "GFLOP")


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC.resolve())
    # the same single-threaded BLAS the CLI pins when nothing is set
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def adsubtype(*args: str) -> list[str]:
    return [sys.executable, "-m", "adsubtype.cli", *args]


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def data_lines(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\r\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_run(code: int, out: Path, reference: str | None) -> str:
    """Manifest text of a passing run; raises BenchError naming the failure."""
    if code != 0:
        raise BenchError(f"exit code {code}")
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        raise BenchError("no manifest.json")
    text = manifest_path.read_text(encoding="utf-8")
    artifacts = json.loads(text)["artifacts"]
    missing = [name for name in REQUIRED_ARTIFACTS if name not in artifacts]
    if missing:
        raise BenchError(f"manifest lacks {missing}")
    for name, entry in artifacts.items():
        path = out / name
        if not path.is_file():
            raise BenchError(f"{name} listed in the manifest is missing")
        if hashlib.sha256(path.read_bytes()).hexdigest() != entry["sha256"]:
            raise BenchError(f"{name} does not match its manifest SHA-256")
    if reference is not None and text != reference:
        raise BenchError("manifest differs from the first run of this workload")
    return text


def adjusted_rand_index(a: list[int], b: list[int]) -> float:
    pairs = lambda counts: sum(math.comb(c, 2) for c in counts)
    total = math.comb(len(a), 2)
    both = pairs(Counter(zip(a, b)).values())
    rows, cols = pairs(Counter(a).values()), pairs(Counter(b).values())
    expected = rows * cols / total
    best = (rows + cols) / 2
    return 1.0 if best == expected else (both - expected) / (best - expected)


def quality(out: Path) -> dict[str, float]:
    """ARI of both assignment files against planted truth, and the elbow's k."""
    truth = {row[0]: int(row[1]) for row in data_lines(out / "truth_labels.csv")}
    result = {}
    for metric, name in (("ari_temporal", "assignments.csv"),
                         ("ari_aggregate", "assignments_aggregate.csv")):
        rows = data_lines(out / name)
        if not rows or any(pid not in truth for pid, _ in rows):
            raise BenchError(f"{name} does not join onto truth_labels.csv")
        result[metric] = adjusted_rand_index(
            [truth[pid] for pid, _ in rows], [int(c) for _, c in rows]
        )
    chosen = [int(k) for k, _sse, flag in data_lines(out / "elbow.csv") if flag == "1"]
    if len(chosen) != 1:
        raise BenchError("elbow.csv does not mark exactly one chosen k")
    result["chosen_k"] = chosen[0]
    return result


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


class Workload:
    """One workload at one seed, with its own directory under .bench_work/."""

    def __init__(self, name: str, seed: int, overrides: dict, tag: str = ""):
        self.name = name
        self.seed = seed
        self.dir = WORK / f"{name}{tag}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "config.json"
        cfg = {"seed": seed, "threads": THREADS, **overrides}
        self.config.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        self.log = self.dir / "stderr.log"
        self.attempted = 0
        self.failures: list[str] = []
        self.manifest: str | None = None  # of the first passing run
        self.quality: dict[str, float] | None = None
        self.walls: list[float] = []
        self.rss: list[float] = []

    def record(self, label: str, code: int, out: Path) -> bool:
        self.attempted += 1
        try:
            manifest = check_run(code, out, self.manifest)
            found = quality(out)
        except (BenchError, OSError, ValueError, KeyError) as exc:
            self.failures.append(f"{label}: {exc}")
            print(f"FAIL {self.name} {label}: {exc} (child stderr: {self.log})", file=sys.stderr)
            return False
        self.manifest, self.quality = manifest, found
        return True

    def dry_runs(self, count: int) -> list[float]:
        """Wall times of `count` fresh `adsubtype all --dry-run` processes."""
        argv = adsubtype("all", "--dry-run", "--config", str(self.config))
        times = []
        for _ in range(count):
            self.attempted += 1
            code, wall, _ = spawn(argv, self.log)
            if code != 0:
                self.failures.append(f"dry run: exit code {code}")
            times.append(wall)
        return times

    def untraced(self, seconds: float) -> None:
        start = time.perf_counter()
        while not self.walls or time.perf_counter() - start < seconds:
            out = self.dir / f"out{len(self.walls)}"
            code, wall, rss = spawn(adsubtype("all", "--config", str(self.config), "--out", str(out)), self.log)
            self.walls.append(wall)
            self.rss.append(rss)
            self.record(f"run {len(self.walls)}", code, out)
            shutil.rmtree(out, ignore_errors=True)

    def traced(self) -> tuple[float, list[dict]]:
        out = self.dir / f"traced{self.attempted}"
        spans_path = self.dir / f"spans{self.attempted}.json"
        argv = [sys.executable, str(TRACER), "--config", str(self.config),
                "--out", str(out), "--spans", str(spans_path)]
        code, wall, _ = spawn(argv, self.log)
        ok = self.record("traced run", code, out)
        shutil.rmtree(out, ignore_errors=True)
        spans = json.loads(spans_path.read_text(encoding="utf-8")) if ok else []
        return wall, spans

    def finish(self) -> None:
        """Remove the work directory unless a failure needs its logs."""
        if not self.failures:
            shutil.rmtree(self.dir, ignore_errors=True)

    def result(self, metrics: dict[str, float], units: dict[str, str]) -> dict:
        return {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        }


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return p, ordered[max(math.ceil(p / 100 * n) - 1, 0)]


def end_to_end(w: Workload, seconds: float) -> dict[str, float]:
    spawn(adsubtype("all", "--dry-run", "--config", str(w.config)), w.log)  # untimed: fills the bytecode cache
    # dry runs on both sides of the measured processes, so that a short slow
    # spell of the machine weighs less on the median
    before = w.dry_runs(SETUP_REPEATS // 2)
    w.untraced(seconds)
    setup = statistics.median(before + w.dry_runs(SETUP_REPEATS - SETUP_REPEATS // 2))
    q = w.quality or {"ari_temporal": math.nan, "ari_aggregate": math.nan, "chosen_k": 0}
    metrics = {
        "wall_s": statistics.median(w.walls),
        "peak_rss_mb": statistics.median(w.rss),
        "setup_s": setup,
        "ari_temporal": q["ari_temporal"],
        "ari_aggregate": q["ari_aggregate"],
    }
    tail = high_percentile(w.walls)
    tail_text = f"p{tail[0]} {tail[1]:.3f} s" if tail else "no tail percentile (<11 samples)"
    samples = " ".join(f"{x:.3f}" for x in w.walls)
    print(f"[{w.name} seed={w.seed}] wall_s median over {len(w.walls)} samples; {tail_text}; "
          f"samples (s): {samples}")
    for name, unit in END_TO_END.items():
        print(f"[{w.name}] {name} = {metrics[name]:.6g} {unit}")
    print(f"[{w.name}] chosen_k = {q['chosen_k']} (elbow.csv)")
    print(f"[{w.name}] error_rate = {len(w.failures) / w.attempted:.6g} fraction "
          f"({len(w.failures)} of {w.attempted} runs failed)")
    return metrics


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    result = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(s["end"] - s["start"] - covered)
    return result


def layer_metrics(spans: list[dict], traced_wall: float, untraced_wall: float) -> dict[str, float]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    by_id = {s["id"]: s for s in spans}
    for s, own in zip(spans, self_times(spans)):
        name, counts = s["name"], s["counts"]
        duration = s["end"] - s["start"]
        if name.startswith("cli.") and name != "cli.main":
            metrics[f"{name}.wall_s"] = duration
            metrics[f"{name}.cpu_s"] = counts["cpu_s"]
            metrics[f"{name}.rss_hwm_mb"] = counts["rss_hwm_mb"]
            continue
        if f"{name}.s" in metrics:
            metrics[f"{name}.s"] += own
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] += 1
        if name in READERS:
            metrics["io.read_s"] += own
        if name in WRITERS:
            metrics["io.write_s"] += own
        for metric, (_, sources, key) in SUMMED.items():
            if name in sources:
                metrics[metric] += counts[key]
        if name == "cluster.spectral_cluster":
            metrics["cluster.spectral_cluster.rss_hwm_mb"] = max(
                metrics["cluster.spectral_cluster.rss_hwm_mb"], counts["rss_hwm_mb"]
            )
        parent = by_id.get(s["parent"])
        if name == "cluster.kmeans" and parent and parent["name"] == "cluster.elbow_sse_curve":
            metrics[f"cluster.elbow.k{counts['k']}.s"] += duration
    metrics["trace.total_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def per_layer(w: Workload, untraced_wall: float | None) -> dict[str, float]:
    """Two traced runs; every exact count must repeat between them.

    The metrics are those of the second traced run.
    """
    if untraced_wall is None:
        w.untraced(0)
        untraced_wall = statistics.median(w.walls)
    runs = []
    for _ in range(2):
        wall, spans = w.traced()
        if not spans:
            return dict.fromkeys(PER_LAYER, math.nan)
        runs.append(layer_metrics(spans, wall, untraced_wall))
    first, metrics = runs
    differ = [m for m, unit in PER_LAYER.items() if unit in EXACT_UNITS and first[m] != metrics[m]]
    if differ:
        w.failures.append(f"counts differ between the two traced runs: {differ}")
        print(f"FAIL {w.name}: counts differ between the two traced runs: {differ}", file=sys.stderr)
    for name in PER_LAYER:
        print(f"[{w.name} traced] {name} = {metrics[name]:.6g} {PER_LAYER[name]}")
    return metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = Workload(name, seed, WORKLOADS[name])
    if trace:
        result = w.result(per_layer(w, None), PER_LAYER)
    else:
        result = w.result(end_to_end(w, seconds), END_TO_END)
    w.finish()
    return result


def run_all(seed: int, seconds: float, smoke: bool = False) -> dict:
    """Every workload untraced, then traced; metrics keyed <workload>.<metric>.

    With smoke, each workload's shape runs at n=SMOKE_PATIENTS.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, overrides in WORKLOADS.items():
        if smoke:
            overrides = {**overrides, "synth": {"n_patients": SMOKE_PATIENTS}}
        w = Workload(name, seed, overrides, "-smoke" if smoke else "")
        e2e = end_to_end(w, seconds)
        layers = per_layer(w, e2e["wall_s"])
        print(f"[{name}] tracing overhead = {layers['trace.overhead_s']:.3f} s "
              f"(traced {layers['trace.total_s']:.3f} s - untraced wall_s median)")
        part = w.result({**e2e, **layers}, {**END_TO_END, **PER_LAYER})
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in part["metrics"].items()})
        w.finish()
    return combined


def declared_units() -> list[str]:
    """Differences between the metrics emitted here and those BENCHMARK.json names."""
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        named = {m["name"]: m["unit"] for m in declared[key]}
        problems += [f"{key} {m}: emitted {emitted.get(m)}, declared {named.get(m)}"
                     for m in sorted(set(named) | set(emitted)) if named.get(m) != emitted.get(m)]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="adsubtype benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="demo-2000")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="start new `all` processes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"check the harness at n={SMOKE_PATIENTS} instead of measuring")
    args = parser.parse_args(argv)

    if not (SRC / "adsubtype" / "cli.py").is_file():
        print(f"error: {SRC}/adsubtype/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.smoke:
        result = run_all(args.seed, 0, smoke=True)
        problems = declared_units()
        for problem in problems:
            print(f"FAIL smoke: {problem}", file=sys.stderr)
        result["correct"] &= not problems
        print(f"smoke: {'every metric emitted with its declared unit' if result['correct'] else 'FAILED'}")
    elif args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
