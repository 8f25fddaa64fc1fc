"""Traced in-process `adsubtype all`: wraps each module's public functions.

Run as a child process by run.py:

    python3 perfbench/tracer.py --config CFG --out OUT_DIR --spans SPANS.json

It pins the BLAS thread pools exactly as the CLI does, before anything
imports numpy, then imports the pipeline, replaces each traced function with
a wrapper in the defining module and in every adsubtype module that imported
the name, and runs `adsubtype.cli.main(["all", ...])`. One span is kept in
memory per call (name, start, end, parent span, run id, plus the counts the
call produced) and all spans are written to SPANS.json when the run ends.
SPANS.json must lie outside OUT_DIR: `write_manifest` sweeps any stray .csv
or .json in the output directory into manifest.json.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import functools
import importlib
import inspect
import json
import resource
import sys
import time
import uuid
from pathlib import Path


def rss_hwm_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _size(path) -> int:
    return Path(path).stat().st_size


def _affinity_counts(a, result) -> dict:
    values = result.values
    if result.is_sparse:
        nbytes = values.data.nbytes + values.indices.nbytes + values.indptr.nbytes
        return {"nnz": int(values.nnz), "bytes": int(nbytes)}
    return {"nnz": int(values.size), "bytes": int(values.nbytes)}


def _write_tables_counts(a, result) -> dict:
    data = a["self"]
    deaths = sum(1 for p in data.patients if p.died and p.death_date is not None)
    rows = len(data.patients) + len(data.diagnoses) + len(data.prescriptions)
    return {
        "rows": rows + deaths + len(data.truth),
        "bytes": sum(_size(Path(a["out_dir"]) / name) for name in result),
    }


def _parse_tables_counts(a, result) -> dict:
    rows = len(result.patients) + len(result.diagnoses) + len(result.prescriptions)
    return {"rows": rows + len(result.deaths), "rejects": len(result.rejects)}


def _manifest_counts(a, result) -> dict:
    out = Path(a["out_dir"])
    return {"bytes_hashed": sum(_size(out / name) for name in result["artifacts"])}


def _hamming_counts(a, result) -> dict:
    n, p = a["X"].shape
    return {"gflop": 2.0 * n * n * p / 1e9}


# (module, function or Class.method, counts taken from the bound arguments
# and the result). Every public function the per-layer metrics name.
TRACED = [
    ("synth", "generate_cohort", None),
    ("synth", "SyntheticData.write_tables", _write_tables_counts),
    ("cohort", "parse_tables", _parse_tables_counts),
    ("cohort", "select_cohort", None),
    ("cohort", "save_cohort", lambda a, r: {"bytes": _size(a["path"])}),
    ("cohort", "load_cohort", None),
    ("phenotype", "rank_phenotypes", None),
    ("phenotype", "build_temporal_matrix", None),
    ("phenotype", "build_aggregate_matrix", None),
    ("phenotype", "write_feature_csv", lambda a, r: {"bytes": _size(a["path"])}),
    ("phenotype", "read_feature_csv", None),
    ("cluster", "hamming_distance_matrix", _hamming_counts),
    ("cluster", "laplacian_kernel_affinity", _affinity_counts),
    ("cluster", "knn_sparsified_affinity", _affinity_counts),
    ("cluster", "normalized_laplacian_embedding", None),
    ("cluster", "spectral_cluster", lambda a, r: {"rss_hwm_mb": rss_hwm_mb()}),
    ("cluster", "kmeans", lambda a, r: {"k": a["k"], "iters": len(r.sse_history) - 1}),
    ("cluster", "elbow_sse_curve", None),
    ("stats", "pairwise_test_grid", lambda a, r: {"tests": sum(len(row.cells) for row in r)}),
    ("stats", "fit_multinomial_logit", lambda a, r: {"n_iter": int(r.n_iter)}),
    ("drugs", "rank_drug_classes", None),
    ("drugs", "drug_prevalence_by_cluster", None),
    ("report", "condition_prevalence", None),
    ("report", "demographic_breakdown", None),
    ("report", "emit_reports", None),
    ("report", "write_manifest", _manifest_counts),
    ("report", "write_text", lambda a, r: {"bytes": len(a["text"].encode("utf-8"))}),
]


class Tracer:
    """In-memory span recorder; spans nest by call order (one thread)."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                bound = signature.bind(*args, **kwargs).arguments
                span["counts"] = counts(bound, result)
            return result

        return traced

    def wrap_stage(self, stage: str, fn):
        @functools.wraps(fn)
        def traced(ctx):
            span = self.open(f"cli.{stage}")
            cpu = time.process_time()
            try:
                return fn(ctx)
            finally:
                self.close(span)
                span["counts"] = {
                    "cpu_s": time.process_time() - cpu,
                    "rss_hwm_mb": rss_hwm_mb(),
                }

        return traced


def install(tracer: Tracer) -> None:
    """Replace every traced function in its module and in its importers."""
    cli = importlib.import_module("adsubtype.cli")
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("adsubtype")]
    for module_name, attr, counts in TRACED:
        owner = importlib.import_module(f"adsubtype.{module_name}")
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        original = getattr(owner, fn_name)
        wrapped = tracer.wrap(f"{module_name}.{fn_name}", original, counts)
        setattr(owner, fn_name, wrapped)
        if cls_name:
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)
    for stage, fn in list(cli.STAGE_FUNCS.items()):
        cli.STAGE_FUNCS[stage] = tracer.wrap_stage(stage, fn)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module("adsubtype.cli")
    span = tracer.open("cli.main")
    try:
        code = cli.main(["all", "--config", args.config, "--out", args.out])
    finally:
        tracer.close(span)
        Path(args.spans).write_text(json.dumps(tracer.spans), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
