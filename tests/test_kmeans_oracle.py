"""kmeans against a reference that holds the points as a dense float64 copy.

The reference below keeps a dense X next to X's CSR copy: the products and
centroid sums read the CSR, while the squared norms, the k-means++ rows, the
re-seed rows and the exact SSE (summed from 256-row dense blocks) read the
dense X. It runs each restart alone, one product per restart and iteration,
and recounts every centroid sum. kmeans holds the points only as one float64
CSR, runs a worker's restarts in one loop and moves only the points that
changed cluster; it must give exactly what the reference gives: the same
labels, SSE and SSE history, bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from adsubtype import cluster
from adsubtype.cluster import elbow_sse_curve, kmeans
from conftest import pretend_cpus

# ---------------------------------------------------------------------------
# reference: dense X beside its CSR copy
# ---------------------------------------------------------------------------


def _ref_sqdist(P, x2, centers):
    c2 = np.einsum("ij,ij->i", centers, centers)
    d2 = x2[:, None] + c2[None, :] - 2.0 * (P @ centers.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _ref_kmeanspp(X, P, x2, k, rng):
    n = X.shape[0]
    chosen = [int(rng.integers(n))]
    closest = _ref_sqdist(P, x2, X[chosen[0] : chosen[0] + 1])[:, 0]
    for _ in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(np.argmin(closest))
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(closest), r, side="right")), n - 1)
        chosen.append(idx)
        closest = np.minimum(closest, _ref_sqdist(P, x2, X[idx : idx + 1])[:, 0])
    return X[chosen]


def _ref_residuals(X, centers, labels):
    residuals = np.empty(X.shape[0])
    for start in range(0, X.shape[0], 256):
        rows = slice(start, start + 256)
        diff = centers[labels[rows]]
        np.subtract(X[rows], diff, out=diff)
        residuals[rows] = np.einsum("ij,ij->i", diff, diff)
    return residuals


def _ref_lloyd(X, Xs, x2, centers):
    (n, p), k = X.shape, centers.shape[0]
    rows = np.arange(n)
    history = []
    for _ in range(cluster.MAX_ITER):
        d2 = _ref_sqdist(Xs, x2, centers)
        labels = d2.argmin(axis=1)
        history.append(float(d2[rows, labels].sum()))
        counts = np.bincount(labels, minlength=k)
        present = counts > 0
        cells = np.repeat(labels * p, np.diff(Xs.indptr)) + Xs.indices
        sums = np.bincount(cells, weights=Xs.data, minlength=k * p).reshape(k, p)[present]
        new_centers = centers.copy()
        new_centers[present] = sums / counts[present, None]
        if not present.all():
            claim_d2 = _ref_residuals(X, centers, labels)
            for j in np.flatnonzero(~present):
                far = int(np.argmax(claim_d2))
                new_centers[j] = X[far]
                claim_d2[far] = -1.0
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < cluster.TOL:
            break
    labels = _ref_sqdist(Xs, x2, centers).argmin(axis=1)
    sse = float(_ref_residuals(X, centers, labels).sum())
    history.append(sse)
    return labels, sse, history


def _ref_kmeans(X, k, restarts, seed):
    X = np.asarray(X, dtype=np.float64)
    x2 = np.einsum("ij,ij->i", X, X)
    Xs = sp.csr_matrix(X)
    runs = []
    for r in range(restarts):
        centers = _ref_kmeanspp(X, Xs, x2, k, np.random.default_rng([seed, r]))
        runs.append(_ref_lloyd(X, Xs, x2, centers))
    labels, sse, history = min(runs, key=lambda run: run[1])  # min keeps the earliest tie
    return cluster._canonical_labels(labels, k), sse, history


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _binary(rng, n, p, dtype):
    return (rng.random((n, p)) < rng.uniform(0.03, 0.4)).astype(dtype)


def _embedding(rng, n, k):
    E = rng.normal(size=(n, k)) + 3.0 * np.eye(k)[rng.integers(k, size=n)]
    return E / np.linalg.norm(E, axis=1, keepdims=True)


def _few_distinct(rng, n, p):
    # fewer distinct rows than k: k-means++ picks a row twice, so a cluster
    # starts empty and the re-seed branch runs
    return _binary(rng, 4, p, np.float64)[rng.integers(0, 4, size=n)]


CASES = {
    "binary-float64": lambda rng: _binary(rng, 300, 24, np.float64),
    "binary-uint8": lambda rng: _binary(rng, 700, 240, np.uint8),
    "real-valued": lambda rng: rng.normal(size=(600, 7)) * 3.0,
    "embedding": lambda rng: _embedding(rng, 900, 4),
    "embedding-over-one-block": lambda rng: _embedding(rng, 17_000, 4),
    "few-distinct-rows": lambda rng: _few_distinct(rng, 80, 6),
    "one-column": lambda rng: rng.normal(size=(300, 1)),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", list(CASES))
def test_kmeans_matches_the_dense_reference(case, threads):
    rng = np.random.default_rng(sorted(CASES).index(case))
    X = CASES[case](rng)
    for k in (1, 2, 5, 7):
        labels, sse, history = _ref_kmeans(X, k, restarts=3, seed=k)
        result = kmeans(X, k, restarts=3, seed=k, threads=threads)
        assert np.array_equal(result.labels, labels), k
        assert result.sse == sse, k
        assert result.sse_history == history, k


def _record_points(monkeypatch):
    """The points' CSR as each restart's Lloyd loop reads it, once per restart."""
    seen = []
    lloyd = cluster._lloyd

    def recording(Xs, x2, centers):
        seen.extend([Xs] * len(centers))
        return lloyd(Xs, x2, centers)

    monkeypatch.setattr(cluster, "_lloyd", recording)
    return seen


def test_kmeans_reads_a_float64_csr_without_copying_it(monkeypatch):
    X = _binary(np.random.default_rng(3), 200, 30, np.uint8)
    dense = kmeans(X, 4, seed=1)
    seen = _record_points(monkeypatch)
    Xs = sp.csr_matrix(X, dtype=np.float64)
    csr = kmeans(Xs, 4, seed=1)
    assert np.array_equal(dense.labels, csr.labels)
    assert dense.sse == csr.sse and dense.sse_history == csr.sse_history
    assert all(np.shares_memory(held.data, Xs.data) for held in seen)


def test_kmeans_sums_duplicate_entries_of_a_csr():
    # each 1 stored as two halves, in reversed column order: the same points
    X = _binary(np.random.default_rng(8), 150, 25, np.float64)
    Xs = sp.csr_matrix(X)
    lens = np.diff(Xs.indptr)
    indices = np.concatenate([Xs.indices[a:b][::-1].repeat(2) for a, b in zip(Xs.indptr, Xs.indptr[1:])])
    split = sp.csr_matrix((np.full(2 * Xs.nnz, 0.5), indices, np.r_[0, np.cumsum(2 * lens)]), shape=X.shape)
    assert not split.has_canonical_format
    for k in (1, 3, 6):
        a, b = kmeans(X, k, restarts=3, seed=k), kmeans(split, k, restarts=3, seed=k)
        assert np.array_equal(a.labels, b.labels), k
        assert a.sse == b.sse and a.sse_history == b.sse_history, k


def test_elbow_curve_builds_one_csr_for_every_k(monkeypatch):
    seen = _record_points(monkeypatch)
    X = _binary(np.random.default_rng(6), 120, 20, np.uint8)
    elbow_sse_curve(X, kmax=4, restarts=2, seed=0)
    assert len(seen) == 8
    assert all(np.shares_memory(held.data, seen[0].data) for held in seen)


def test_lloyd_matches_the_dense_reference_when_starts_leave_clusters_empty():
    rng = np.random.default_rng(11)
    reseeded = 0
    for trial in range(40):
        n, p, k = int(rng.integers(20, 400)), int(rng.integers(1, 12)), int(rng.integers(2, 9))
        X = _binary(rng, n, p, np.float64) if trial % 2 else rng.normal(size=(n, p))
        # starts far outside the data leave clusters empty
        centers = rng.uniform(-4.0, 4.0, size=(k, p))
        Xs = sp.csr_matrix(X)
        x2 = np.einsum("ij,ij->i", X, X)
        first = _ref_sqdist(Xs, x2, centers).argmin(axis=1)
        reseeded += int((np.bincount(first, minlength=k) == 0).any())
        ref_labels, ref_sse, ref_history = _ref_lloyd(X, Xs, x2, centers)
        [(labels, sse, history)] = cluster._lloyd(Xs, x2, centers[None])
        assert np.array_equal(labels, ref_labels), trial
        assert sse == ref_sse and history == ref_history, trial
    assert reseeded > 15


def test_elbow_curve_on_uint8_equals_the_curve_on_float64():
    X = _binary(np.random.default_rng(8), 500, 60, np.uint8)
    curve = elbow_sse_curve(X, kmax=6, restarts=3, seed=2)
    assert curve == elbow_sse_curve(X.astype(np.float64), kmax=6, restarts=3, seed=2)
    assert [sse for _, sse in curve] == [
        _ref_kmeans(X, k, restarts=3, seed=2)[1] for k in range(1, 7)
    ]


@pytest.mark.parametrize("threads, groups", [(1, [10]), (2, [5, 5]), (3, [3, 3, 4])])
@pytest.mark.parametrize("case", ["binary-uint8", "embedding", "few-distinct-rows", "real-valued"])
def test_kmeans_matches_the_dense_reference_in_restart_groups(monkeypatch, case, threads, groups):
    pretend_cpus(monkeypatch, 3)
    sizes = []
    lloyd = cluster._lloyd

    def recording(Xs, x2, centers):
        sizes.append(len(centers))
        return lloyd(Xs, x2, centers)

    monkeypatch.setattr(cluster, "_lloyd", recording)
    rng = np.random.default_rng(sorted(CASES).index(case))
    X = CASES[case](rng)
    for k in (2, 5):
        sizes.clear()
        labels, sse, history = _ref_kmeans(X, k, restarts=10, seed=k)
        result = kmeans(X, k, restarts=10, seed=k, threads=threads)
        assert sorted(sizes) == groups
        assert np.array_equal(result.labels, labels), k
        assert result.sse == sse, k
        assert result.sse_history == history, k


def test_lloyd_group_matches_lone_runs_when_one_restart_reseeds():
    # restart 1 starts far outside the data, so its first assignment leaves
    # clusters empty and it re-seeds them, while restarts 0, 2 and 3 start at
    # data points and go on; each restart must give what it gives alone
    rng = np.random.default_rng(19)
    reseeded = 0
    for trial in range(100):
        n, p, k = int(rng.integers(30, 300)), int(rng.integers(2, 12)), int(rng.integers(2, 7))
        X = _binary(rng, n, p, np.float64) if trial % 2 else rng.normal(size=(n, p))
        Xs = sp.csr_matrix(X)
        x2 = np.einsum("ij,ij->i", X, X)
        starts = np.stack([X[rng.choice(n, size=k, replace=False)] for _ in range(4)])
        starts[1] = rng.uniform(-4.0, 4.0, size=(k, p)) + 8.0 * np.sign(rng.normal(size=(k, p)))
        first = _ref_sqdist(Xs, x2, starts[1]).argmin(axis=1)
        reseeded += int((np.bincount(first, minlength=k) == 0).any())
        refs = [_ref_lloyd(X, Xs, x2, start) for start in starts]
        runs = cluster._lloyd(Xs, x2, starts)
        assert len(runs) == 4, trial
        for r, (run, ref) in enumerate(zip(runs, refs)):
            assert np.array_equal(run[0], ref[0]), (trial, r)
            assert run[1] == ref[1] and run[2] == ref[2], (trial, r)
    assert reseeded > 80


@pytest.mark.parametrize("threads", [1, 2])
def test_kmeans_matches_the_dense_reference_when_restarts_stop_on_the_cap(monkeypatch, threads):
    monkeypatch.setattr(cluster, "MAX_ITER", 2)
    capped = 0
    for case in ("binary-uint8", "embedding", "real-valued", "few-distinct-rows"):
        X = CASES[case](np.random.default_rng(sorted(CASES).index(case)))
        for k in (3, 7):
            labels, sse, history = _ref_kmeans(X, k, restarts=4, seed=k)
            result = kmeans(X, k, restarts=4, seed=k, threads=threads)
            assert np.array_equal(result.labels, labels), (case, k)
            assert result.sse == sse, (case, k)
            assert result.sse_history == history, (case, k)
            capped += len(history) == 3  # two iterations and the final SSE
    assert capped >= 4
