"""Spectral clustering pipeline: distances, embedding, k-means, elbow, ARI."""

import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from adsubtype import cluster
from adsubtype.cluster import (
    AffinityMatrix,
    SpectralConfig,
    adjusted_rand_index,
    detect_elbow,
    elbow_sse_curve,
    hamming_distance_matrix,
    kmeans,
    knn_sparsified_affinity,
    laplacian_kernel_affinity,
    normalized_laplacian_embedding,
    spectral_cluster,
)
from conftest import pretend_cpus, traced_peak


def _planted_blocks(n_per, n_blocks, n_cols, seed=0, p_sig=0.9, p_noise=0.05):
    """Binary rows in n_blocks groups, each with its own high-rate column band."""
    rng = np.random.default_rng(seed)
    band = n_cols // n_blocks
    X = (rng.random((n_per * n_blocks, n_cols)) < p_noise).astype(np.uint8)
    truth = np.repeat(np.arange(n_blocks), n_per)
    for b in range(n_blocks):
        rows = slice(b * n_per, (b + 1) * n_per)
        cols = slice(b * band, (b + 1) * band)
        X[rows, cols] = (rng.random((n_per, band)) < p_sig).astype(np.uint8)
    return X, truth


# ---------------------------------------------------------------------------
# distances and affinity
# ---------------------------------------------------------------------------


def test_hamming_matches_naive_loop():
    rng = np.random.default_rng(3)
    X = (rng.random((40, 17)) < 0.4).astype(np.uint8)
    D = hamming_distance_matrix(X)
    naive = np.array([[(X[i] != X[j]).sum() for j in range(40)] for i in range(40)])
    assert np.array_equal(D, naive)
    assert D.dtype == np.float64  # integral values, built in the gram buffer
    assert np.array_equal(D, D.T)
    assert (np.diag(D) == 0).all()


def test_hamming_rejects_non_binary():
    with pytest.raises(ValueError, match="binary"):
        hamming_distance_matrix(np.array([[0, 2], [1, 0]]))
    with pytest.raises(ValueError, match="binary"):
        hamming_distance_matrix(np.array([[0.0, np.nan], [1.0, 0.0]]))


def test_binary_csr_predicate():
    X = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    Xs = cluster._binary_csr(X)
    assert Xs.nnz == 3 and np.array_equal(Xs.toarray(), X)
    assert cluster._binary_csr(np.zeros((2, 3))).nnz == 0
    assert cluster._binary_csr(X.astype(bool)) is not None
    for value in (0.5, -1.0, 2.0, np.nan, np.inf):
        Y = X.copy()
        Y[1, 2] = value
        assert cluster._binary_csr(Y) is None, value


def test_laplacian_kernel_values():
    D = np.array([[0, 2, 5], [2, 0, 1], [5, 1, 0]])
    A = laplacian_kernel_affinity(D, gamma=0.5)
    assert np.allclose(A.values, np.exp(-0.5 * D))
    assert (np.diag(A.values) == 1.0).all()
    assert not A.is_sparse


def test_laplacian_kernel_validation():
    D = np.zeros((3, 3))
    with pytest.raises(ValueError, match="gamma"):
        laplacian_kernel_affinity(D, gamma=0.0)
    with pytest.raises(ValueError, match="square"):
        laplacian_kernel_affinity(np.zeros((2, 3)), gamma=1.0)
    with pytest.raises(ValueError, match="diagonal"):
        laplacian_kernel_affinity(np.eye(3), gamma=1.0)


def test_knn_affinity_full_neighbors_matches_dense():
    X, _ = _planted_blocks(8, 2, 10, seed=1)
    gamma = 0.1
    dense = laplacian_kernel_affinity(hamming_distance_matrix(X), gamma).values
    A = knn_sparsified_affinity(X, gamma, neighbors=X.shape[0] - 1)
    assert A.is_sparse
    assert np.allclose(A.values.toarray(), dense)


def test_knn_affinity_symmetric_union():
    X, _ = _planted_blocks(10, 3, 12, seed=2)
    A = knn_sparsified_affinity(X, gamma=0.2, neighbors=3)
    M = A.values
    assert (abs(M - M.T)).nnz == 0
    assert np.allclose(M.diagonal(), 1.0)
    # every row keeps at least its own neighbors+1 entries
    assert (M.getnnz(axis=1) >= 4).all()


def test_knn_affinity_matches_row_loop(monkeypatch):
    X, _ = _planted_blocks(10, 3, 12, seed=3)
    gamma, m = 0.2, 4
    D = hamming_distance_matrix(X).astype(np.float64)
    expected = np.zeros_like(D)
    for i, row in enumerate(D):
        for j in np.argpartition(row, m - 1)[:m]:
            expected[i, j] = np.exp(-gamma * row[j])
    expected = np.maximum(expected, expected.T)
    np.fill_diagonal(expected, 1.0)
    # blocks of 7 split the rows unevenly
    monkeypatch.setattr(cluster, "KNN_BLOCK", 7)
    A = knn_sparsified_affinity(X, gamma, neighbors=m - 1).values
    ref = sp.csr_matrix(expected)
    assert np.array_equal(A.toarray(), expected)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, part), getattr(ref, part)), part


def test_knn_affinity_independent_of_threads(monkeypatch):
    """Splitting each block's rows across workers keeps every byte of the CSR."""
    pretend_cpus(monkeypatch, 3)  # more workers than cores
    # 30 rows in blocks of 7: the last block has 2 rows, fewer than 3 workers
    monkeypatch.setattr(cluster, "KNN_BLOCK", 7)
    X, _ = _planted_blocks(10, 3, 12, seed=3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [knn_sparsified_affinity(X, 0.2, neighbors=3, threads=t).values for t in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    for other in runs[1:]:
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(other, part), getattr(runs[0], part)), part


def test_knn_affinity_holds_one_block_of_distances():
    """The transient is X's copy, a block's distances, KNN_SELECT rows' indices and the output."""
    rng = np.random.default_rng(5)
    n, neighbors = 3000, 5
    assert n > cluster.KNN_BLOCK
    X = (rng.random((n, 60)) < 0.2).astype(np.uint8)
    A, peak = traced_peak(knn_sparsified_affinity, X, 0.1, neighbors)
    assert A.values.shape == (n, n)
    # X's float32 copy and row counts, the block's float32 distances, one
    # worker's int64 argpartition indices, and the kept columns and values;
    # the CSR build, after the copy and the block are freed, holds less
    held = 4 * X.size + 4 * n + 4 * cluster.KNN_BLOCK * n + 8 * cluster.KNN_SELECT * n
    held += 16 * n * (neighbors + 1)
    assert peak < held + 2**16
    assert held < 4 * n * n // 2  # well under the N x N float32 matrix
    assert 8 * cluster.KNN_SELECT * 12_000 < 2**20  # a worker's indices at n=12,000


def test_knn_affinity_frees_its_copy_and_block_before_the_csr(monkeypatch):
    rng = np.random.default_rng(6)
    n, neighbors = 3000, 5
    X = (rng.random((n, 60)) < 0.2).astype(np.uint8)
    live = []

    def csr_matrix(*args, **kwargs):
        live.append(tracemalloc.get_traced_memory()[0])
        return csr(*args, **kwargs)

    def held_at_the_csr():
        before = tracemalloc.get_traced_memory()[0]
        knn_sparsified_affinity(X, 0.1, neighbors)
        return live[0] - before

    csr = sp.csr_matrix
    monkeypatch.setattr(sp, "csr_matrix", csr_matrix)
    held, _ = traced_peak(held_at_the_csr)
    # only the kept columns and values: the copy (4 B a cell) and the block are gone
    kept = 16 * n * (neighbors + 1)
    assert held < kept + 2**16 < kept + 4 * X.size
    assert 4 * X.size < 4 * cluster.KNN_BLOCK * n


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# binomial kernel operator
# ---------------------------------------------------------------------------


def _sparse_binary(seed, n=40, p=12):
    """Random 0/1 rows with two all-zero columns and rows of 0, 1 and 2 ones."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, p)) < 0.4).astype(np.uint8)
    X[:, [0, 5]] = 0
    X[:3] = 0
    X[1, 3] = 1
    X[2, [4, 7]] = 1
    return X


QS = (0.0, 0.004, 0.05, 0.3, 0.9, 1.0)


def _exact_tail(s, J, q):
    """P(Binomial(s, q) > J) in exact rational arithmetic."""
    q = Fraction(q)
    return sum(math.comb(s, m) * q**m * (1 - q) ** (s - m) for m in range(J + 1, s + 1))


def _brute_force_order(X, q):
    """(J, s) from the full n x n shared-count gram: s its largest off-diagonal entry."""
    S = X.astype(np.int64) @ X.T.astype(np.int64)
    np.fill_diagonal(S, 0)
    s = int(S.max())
    J = 0
    while _exact_tail(s, J, q) > cluster.KERNEL_TAIL_TOL:
        J += 1
    return J, s


def _order(X, q):
    return cluster._kernel_order(cluster._binary_csr(X), q)


def test_binomial_tail_is_exact():
    for s in (0, 1, 2, 5, 24, 46):
        for J in range(s + 2):
            for q in QS:
                exact = float(_exact_tail(s, J, q))
                assert math.isclose(cluster._binomial_tail(s, J, q), exact, rel_tol=1e-12), (s, J, q)


def test_kernel_order_is_smallest_under_tolerance():
    """Two rows sharing s ones set J by the exact tail at s; a fuller row alone does not."""
    for shared in (0, 1, 2, 5, 24, 46):
        X = np.zeros((3, 2 * 46 + 60), dtype=np.uint8)
        X[:2, :shared] = 1
        X[0, 46 : 46 + 46 - shared] = 1  # the first row has 46 ones
        X[2, 92:] = 1  # 60 ones shared with no other row
        for q in QS:
            tails = [_exact_tail(shared, j, q) for j in range(shared + 1)]
            J, s = _order(X, q)
            assert tails[J] <= cluster.KERNEL_TAIL_TOL
            assert all(tail > cluster.KERNEL_TAIL_TOL for tail in tails[:J])
            assert shared <= s <= 60 and _exact_tail(s, J, q) <= cluster.KERNEL_TAIL_TOL


@pytest.mark.parametrize("block", [1, 7, cluster.KERNEL_CHECK_BLOCK])
def test_kernel_order_matches_brute_force(monkeypatch, block):
    monkeypatch.setattr(cluster, "KERNEL_CHECK_BLOCK", block)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 20 + 9 * seed
        X = (rng.random((n, 15)) < rng.uniform(0.1, 0.7, size=(n, 1))).astype(np.uint8)
        r = X.sum(axis=1)
        for q in QS:
            J, s = _order(X, q)
            J_exact, s_exact = _brute_force_order(X, q)
            assert J == J_exact, (seed, q)
            # s certifies J: no pair shares more, and its tail is within tolerance
            assert s_exact <= s <= r.max() and _exact_tail(s, J, q) <= cluster.KERNEL_TAIL_TOL


def test_kernel_order_finds_a_pair_past_the_first_block(monkeypatch):
    """The one pair sharing five ones lies below ten fuller rows that share none."""
    X = np.zeros((12, 80), dtype=np.uint8)
    for i in range(10):
        X[i, 6 * i : 6 * i + 6] = 1
    X[10:, 60:65] = 1
    results = set()
    for block in (1, 7, cluster.KERNEL_CHECK_BLOCK):
        monkeypatch.setattr(cluster, "KERNEL_CHECK_BLOCK", block)
        results.add(_order(X, 1.0))
    assert results == {(5, 5)}  # at q = 1, J is the most ones a pair shares


def test_kernel_order_holds_its_copy_and_a_few_tiles():
    """Every row of 12 ones shares 8 with every other and at most 11 with any, so the
    sweep compares the whole triangle; it holds no tile side x candidates block."""
    tile = cluster.KERNEL_CHECK_BLOCK**2 * 4
    for n in (1500, 6000):
        X = np.zeros((n, 40), dtype=np.uint8)
        X[:, :8] = 1
        for i, ones in enumerate(itertools.islice(itertools.combinations(range(8, 40), 4), n)):
            X[i, list(ones)] = 1
        Xs = cluster._binary_csr(X[np.random.default_rng(n).permutation(n)])
        (J, s), peak = traced_peak(cluster._kernel_order, Xs, 0.1)
        # at q = 0.1, 11 shared ones need J = 3, which admits no count of 12: every row stays above s
        assert (J, s) == (3, 11)
        # the rows sorted in Xs's dtype and as float32, three vectors of n, three tiles
        copies = 2 * (Xs.indices.nbytes + Xs.indptr.nbytes) + Xs.data.nbytes + 4 * Xs.nnz
        assert peak <= copies + 16 * n + 3 * tile, n


def test_kernel_order_ignores_one_full_row():
    """A row of all ones raises J only once a second row shares as many ones."""
    rng = np.random.default_rng(11)
    X = (rng.random((30, 16)) < 0.35).astype(np.uint8)
    r = X.sum(axis=1)
    X[0] = X[np.argmax(r)]  # two rows share the most ones any row holds
    q = 0.3
    J, _ = _order(X, q)
    ones = np.ones((1, 16), dtype=np.uint8)
    assert _order(np.vstack([X, ones]), q)[0] == J
    two, _ = _order(np.vstack([X, ones, ones]), q)
    assert two == _brute_force_order(np.vstack([X, ones, ones]), q)[0] > J


@pytest.mark.parametrize("seed", range(4))
def test_kernel_factor_counts_shared_subsets(seed):
    X = _sparse_binary(seed)
    n, p = X.shape
    gamma = 0.05
    t = math.expm1(2 * gamma)
    u, P = cluster._kernel_factor(X, gamma)
    r = X.sum(axis=1)
    J, _ = _order(X, t / (1 + t))
    assert J >= 2 and (r < J).any() and (r > J).any()
    offset = np.cumsum([0] + [math.comb(p, m) for m in range(J + 1)])
    assert P.shape == (n, offset[-1])
    assert P.indices.dtype == np.int32 and P.indptr.dtype == np.int32
    assert np.array_equal(u, np.exp(-gamma * r))
    S = X.astype(np.int64) @ X.T.astype(np.int64)
    expected = np.zeros((n, n))
    for m in range(J + 1):
        block = P[:, offset[m] : offset[m + 1]]
        assert (block.data == np.sqrt(t**m)).all()
        pattern = block.copy()
        pattern.data[:] = 1.0
        shared = (pattern @ pattern.T).toarray()
        assert np.array_equal(shared, np.vectorize(math.comb)(S, m))
        expected += shared * t**m
    assert np.allclose((P @ P.T).toarray(), expected, rtol=1e-14, atol=0)


@pytest.mark.parametrize("seed", range(3))
def test_kernel_factor_bytes_independent_of_chunk(monkeypatch, seed):
    X = _sparse_binary(seed)
    X[7] = 1  # the fullest count: C(12, m) entries per m outgrow a chunk of 7
    factors = {}
    for chunk in (1, 7, cluster.KERNEL_CHUNK):
        monkeypatch.setattr(cluster, "KERNEL_CHUNK", chunk)
        factors[chunk] = cluster._kernel_factor(X, 0.05)
    (u, P), *others = factors.values()
    assert P.shape[1] > 1 + X.shape[1]  # subsets of two ones and more are kept
    for other_u, other in others:
        assert np.array_equal(other_u, u)
        for part in ("indptr", "indices", "data"):
            assert getattr(other, part).dtype == getattr(P, part).dtype, part
            assert np.array_equal(getattr(other, part), getattr(P, part)), part


@pytest.mark.parametrize("gamma", [0.06, 0.1])
def test_kernel_factor_peak_within_the_guarded_bytes(monkeypatch, gamma):
    """The build holds its input, P, vectors of n and one chunk's temporaries, however many rows share a count."""
    rng = np.random.default_rng(0)
    n, p = 2000, 40
    X = np.zeros((n, p), dtype=np.uint8)
    for i in range(n):  # counts of 10, 11 and 12 ones: three groups of n / 3 rows
        X[i, rng.choice(p, 12 - i % 3, replace=False)] = 1
    (u, P), peak = traced_peak(cluster._kernel_factor, X, gamma)
    t = math.expm1(2 * gamma)
    J, _ = _order(X, t / (1 + t))
    # the rows of twelve ones take more than two chunks' entries for one subset size
    assert n // 3 * max(math.comb(12, m) for m in range(J + 1)) > 2 * cluster.KERNEL_CHUNK
    Xs = cluster._binary_csr(X)
    needed = cluster._factor_bytes(Xs, P.nnz, P.shape[1], cluster.KERNEL_CHUNK, P.indices.dtype)
    assert peak <= needed
    # filling each count's rows in one chunk overshoots it
    monkeypatch.setattr(cluster, "KERNEL_CHUNK", n * 1000)
    _, unchunked = traced_peak(cluster._kernel_factor, X, gamma)
    assert unchunked > needed


@pytest.mark.parametrize("gamma", [0.02, 0.05, 0.2])
def test_kernel_operator_within_tail_bound_of_dense(caplog, gamma):
    """Each off-diagonal entry is within the pair bound, each diagonal one within the r_max tail."""
    X = _sparse_binary(7, n=30, p=10)
    dense = laplacian_kernel_affinity(hamming_distance_matrix(X), gamma).values
    with caplog.at_level("INFO", logger="adsubtype.cluster"):
        u, P = cluster._kernel_factor(X, gamma)
    q = -math.expm1(-2 * gamma)
    J, s = _order(X, q)
    r_max = int(X.sum(axis=1).max())
    bound, diagonal = cluster._binomial_tail(s, J, q), cluster._binomial_tail(r_max, J, q)
    assert f"order J={J}, relative tail bound {bound:.3g} " in caplog.text
    assert f"at most s={s} ones, {diagonal:.3g} on the diagonal at r_max={r_max}, {P.nnz} nonzeros" in caplog.text
    A = u[:, None] * (P @ P.T).toarray() * u[None, :]
    shortfall = (dense - A) / dense
    assert shortfall.min() >= -1e-12
    off = ~np.eye(len(X), dtype=bool)
    assert shortfall[off].max() <= bound + 1e-12
    assert np.diag(shortfall).max() <= diagonal + 1e-12
    op = cluster.binomial_kernel_operator(X, gamma) @ np.eye(X.shape[0])
    assert np.allclose(op, A, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", range(5))
def test_kernel_operator_route_matches_dense(seed):
    X, _ = _planted_blocks(40, 3, 24, seed=seed, p_sig=0.6, p_noise=0.15)
    gamma = 1.0 / 24
    op = normalized_laplacian_embedding(cluster.binomial_kernel_operator(X, gamma), k=3)
    dense = normalized_laplacian_embedding(
        laplacian_kernel_affinity(hamming_distance_matrix(X), gamma), k=3
    )
    assert np.abs(op.eigenvalues - dense.eigenvalues).max() <= 1e-4
    result = spectral_cluster(X, SpectralConfig(k=3, seed=0))
    assert np.array_equal(result.labels, kmeans(dense.values, 3, seed=0).labels)


def test_kernel_operator_refusals(monkeypatch):
    X, _ = _planted_blocks(15, 2, 10, seed=15)
    with pytest.raises(ValueError, match="binary"):
        spectral_cluster(X * 2, SpectralConfig(k=2, seed=0))
    # t = e^{2 gamma} - 1 overflows, so the degrees are NaN
    with pytest.raises(ValueError, match="NaN degree"), np.errstate(over="ignore"):
        normalized_laplacian_embedding(cluster.binomial_kernel_operator(X, 400.0), k=1)
    isolated = sp.csr_matrix(np.diag([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="zero or NaN degree"):
        normalized_laplacian_embedding(AffinityMatrix(isolated), k=1)
    # one byte available: far below P's bytes
    monkeypatch.setattr(cluster, "_available_memory", lambda: (1, "MemAvailable"))
    refusal = r"order \d+ .*the 1 bytes available \(MemAvailable\); lower cluster.gamma"
    with pytest.raises(ValueError, match=refusal):
        spectral_cluster(X, SpectralConfig(k=2, seed=0))


def test_available_memory_reads_meminfo_capped_by_the_cgroup_limit(tmp_path, monkeypatch):
    meminfo, own, root = tmp_path / "meminfo", tmp_path / "cgroup", tmp_path / "fs"
    group = root / "jobs" / "one"
    group.mkdir(parents=True)
    for name, path in (("MEMINFO", meminfo), ("PROC_CGROUP", own), ("CGROUP_ROOT", root)):
        monkeypatch.setattr(cluster, name, path)
    meminfo.write_text("MemTotal:  8000 kB\nMemFree:  3000 kB\nMemAvailable:  5000 kB\n")
    own.write_text("4:memory:/other\n0::/jobs/one\n")
    (group / "memory.max").write_text("max\n")
    (group / "memory.current").write_text("1000\n")
    assert cluster._available_memory() == (5000 * 1024, "MemAvailable")
    (group / "memory.max").write_text("3001000\n")
    cgroup = (3_000_000, "cgroup memory.max - memory.current")
    assert cluster._available_memory() == cgroup
    meminfo.unlink()
    assert cluster._available_memory() == cgroup
    own.write_text("4:memory:/other\n")  # a cgroup v1 group whose files are not there
    physical = cluster.os.sysconf("SC_PHYS_PAGES") * cluster.os.sysconf("SC_PAGE_SIZE")
    assert cluster._available_memory() == (physical, "physical memory")
    (group / "memory.max").write_text("9000000\n")
    own.write_text("0::/jobs/one\n")
    meminfo.write_text("MemAvailable:  5000 kB\n")
    assert cluster._available_memory() == (5000 * 1024, "MemAvailable")


def test_available_memory_reads_a_cgroup_v1_limit(tmp_path, monkeypatch):
    meminfo, own, root = tmp_path / "meminfo", tmp_path / "cgroup", tmp_path / "fs"
    group = root / "memory" / "jobs" / "one"
    group.mkdir(parents=True)
    for name, path in (("MEMINFO", meminfo), ("PROC_CGROUP", own), ("CGROUP_ROOT", root)):
        monkeypatch.setattr(cluster, name, path)
    meminfo.write_text("MemAvailable:  5000 kB\n")
    # a v1 memory line beside other v1 controllers and a v2 root without memory.max
    own.write_text("5:cpu,cpuacct:/jobs/one\n4:memory:/jobs/one\n1:name=systemd:/\n0::/\n")
    (group / "memory.limit_in_bytes").write_text("3001000\n")
    (group / "memory.usage_in_bytes").write_text("1000\n")
    v1 = (3_000_000, "cgroup memory.limit_in_bytes - memory.usage_in_bytes")
    assert cluster._available_memory() == v1
    (group / "memory.limit_in_bytes").write_text("9223372036854771712\n")  # v1's "no limit"
    assert cluster._available_memory() == (5000 * 1024, "MemAvailable")
    (group / "memory.limit_in_bytes").write_text("3001000\n")
    meminfo.unlink()
    assert cluster._available_memory() == v1
    # beside a lower v2 limit, the lower figure
    (root / "jobs" / "one").mkdir(parents=True)
    (root / "jobs" / "one" / "memory.max").write_text("2001000\n")
    (root / "jobs" / "one" / "memory.current").write_text("1000\n")
    own.write_text("4:cpuset,memory:/jobs/one\n0::/jobs/one\n")
    assert cluster._available_memory() == (2_000_000, "cgroup memory.max - memory.current")


def _reference_m(A):
    d = A.sum(axis=1)
    inv = 1.0 / np.sqrt(d)
    return inv[:, None] * A * inv[None, :]


def test_embedding_eigenpairs_satisfy_definition():
    X, _ = _planted_blocks(20, 3, 12, seed=4)
    A = laplacian_kernel_affinity(hamming_distance_matrix(X), 1.0 / 12)
    emb = normalized_laplacian_embedding(A, k=4)
    M = _reference_m(A.values)
    for j in range(4):
        v = emb.eigenvectors[:, j]
        residual = np.abs(M @ v - emb.eigenvalues[j] * v).max()
        assert residual <= 1e-8
    assert np.all(np.diff(emb.eigenvalues) <= 1e-12)
    # the top eigenvalue of the normalized affinity of a connected graph is 1
    assert abs(emb.eigenvalues[0] - 1.0) <= 1e-8
    norms = np.linalg.norm(emb.values, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-9


def test_embedding_sparse_route_matches_dense():
    X, _ = _planted_blocks(15, 2, 10, seed=5)
    gamma = 0.1
    dense = laplacian_kernel_affinity(hamming_distance_matrix(X), gamma)
    e_dense = normalized_laplacian_embedding(dense, k=3)
    for other in (AffinityMatrix(sp.csr_matrix(dense.values)), spla.aslinearoperator(dense.values)):
        e_other = normalized_laplacian_embedding(other, k=3)
        assert np.allclose(e_dense.eigenvalues, e_other.eigenvalues, atol=1e-8)
        assert np.allclose(np.abs(e_dense.values), np.abs(e_other.values), atol=1e-6)


def test_embedding_deterministic():
    X, _ = _planted_blocks(12, 2, 8, seed=6)
    A = laplacian_kernel_affinity(hamming_distance_matrix(X), 0.125)
    e1 = normalized_laplacian_embedding(A, k=3)
    e2 = normalized_laplacian_embedding(A, k=3)
    assert np.array_equal(e1.values, e2.values)
    # kNN route: three disconnected blocks make the top eigenvalue threefold,
    # so any start vector not fixed would pick a different basis each call
    X, _ = _planted_blocks(20, 3, 12, seed=6)
    A = knn_sparsified_affinity(X, 1.0 / 12, neighbors=5)
    first = normalized_laplacian_embedding(A, k=3).values
    for _ in range(3):
        assert np.array_equal(normalized_laplacian_embedding(A, k=3).values, first)


@pytest.mark.parametrize("sparse", [False, True])
def test_embedding_k_n_minus_one_through_eigsh(monkeypatch, sparse):
    X, _ = _planted_blocks(4, 2, 8, seed=7)
    dense = laplacian_kernel_affinity(hamming_distance_matrix(X), 0.125)
    A = AffinityMatrix(sp.csr_matrix(dense.values)) if sparse else dense
    calls = []
    eigsh = spla.eigsh

    def spy(*args, **kwargs):
        calls.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    # cluster imports scipy.sparse.linalg inside the function, so patch the source
    monkeypatch.setattr(spla, "eigsh", spy)
    n = X.shape[0]
    emb = normalized_laplacian_embedding(A, k=n - 1)
    assert calls == [n - 1]
    expected = np.sort(np.linalg.eigvalsh(_reference_m(dense.values)))[::-1][: n - 1]
    assert np.allclose(emb.eigenvalues, expected, atol=1e-10)
    assert emb.values.shape == (n, n - 1)


def test_embedding_k_exceeds_n():
    A = laplacian_kernel_affinity(np.zeros((3, 3), dtype=int), 1.0)
    for k in (3, 4):
        with pytest.raises(ValueError, match="exceeds"):
            normalized_laplacian_embedding(A, k=k)
        with pytest.raises(ValueError, match="exceeds"):
            normalized_laplacian_embedding(AffinityMatrix(sp.csr_matrix(A.values)), k=k)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

FOUR_POINTS = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])


def _brute_force_sse(X, k):
    """Exhaustive best SSE over all label assignments (tiny inputs only)."""
    best = np.inf
    best_labels = None
    for labels in itertools.product(range(k), repeat=len(X)):
        labels = np.array(labels)
        if len(set(labels.tolist())) < k:
            continue
        sse = 0.0
        for j in range(k):
            pts = X[labels == j]
            sse += ((pts - pts.mean(axis=0)) ** 2).sum()
        if sse < best:
            best, best_labels = sse, labels
    return best, best_labels


def test_kmeans_four_point_oracle():
    result = kmeans(FOUR_POINTS, k=2, restarts=5, seed=0)
    assert result.sse == 1.0
    best_sse, best_labels = _brute_force_sse(FOUR_POINTS, 2)
    assert best_sse == 1.0
    assert adjusted_rand_index(result.labels, best_labels) == 1.0


def test_kmeans_k_equals_n_zero_sse():
    rng = np.random.default_rng(0)
    X = rng.random((6, 3))
    result = kmeans(X, k=6, restarts=3, seed=1)
    assert result.sse == 0.0
    assert sorted(result.labels.tolist()) == list(range(6))


def test_kmeans_history_monotone_on_random_instances():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(12, 40))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        X = rng.random((n, d))
        result = kmeans(X, k=k, restarts=1, seed=trial)
        h = result.sse_history
        assert all(h[i + 1] <= h[i] + 1e-9 for i in range(len(h) - 1)), (trial, h)
        assert result.sse == h[-1]


def test_kmeans_deterministic_and_restart_improvement():
    rng = np.random.default_rng(7)
    X = rng.random((50, 4))
    a = kmeans(X, k=4, restarts=5, seed=3)
    b = kmeans(X, k=4, restarts=5, seed=3)
    assert np.array_equal(a.labels, b.labels) and a.sse == b.sse
    single = kmeans(X, k=4, restarts=1, seed=3)
    assert a.sse <= single.sse + 1e-12


def test_kmeans_handles_duplicate_points():
    X = np.array([[0.0, 0.0]] * 5 + [[1.0, 1.0]])
    result = kmeans(X, k=3, restarts=4, seed=2)
    assert np.isfinite(result.sse)
    assert set(result.labels.tolist()) <= {0, 1, 2}


def test_kmeans_k_exceeds_n_error():
    with pytest.raises(ValueError, match="exceeds"):
        kmeans(np.zeros((3, 2)), k=4, seed=0)


@pytest.mark.parametrize(
    "k, restarts, name", [(0, 1, "k=0"), (-1, 1, "k=-1"), (2, 0, "restarts=0"), (2, -3, "restarts=-3")]
)
def test_kmeans_refuses_nonpositive_k_and_restarts(k, restarts, name):
    with pytest.raises(ValueError, match=f"{name} must be >= 1"):
        kmeans(np.zeros((3, 2)), k=k, restarts=restarts, seed=0)


def _reference_lloyd(X, centers, max_iter, tol):
    """Lloyd iterations with a boolean mask and a mean per centroid."""

    def sqdist(centers):
        x2 = np.einsum("ij,ij->i", X, X)
        c2 = np.einsum("ij,ij->i", centers, centers)
        return np.maximum(x2[:, None] + c2[None, :] - 2.0 * (X @ centers.T), 0.0)

    def residuals(centers, labels):
        diff = X - centers[labels]
        return np.einsum("ij,ij->i", diff, diff)

    k = centers.shape[0]
    for _ in range(max_iter):
        labels = sqdist(centers).argmin(axis=1)
        claim_d2 = residuals(centers, labels)
        new_centers = centers.copy()
        empties = [j for j in range(k) if not (labels == j).any()]
        for j in empties:
            far = int(np.argmax(claim_d2))
            new_centers[j] = X[far]
            claim_d2[far] = -1.0
        for j in range(k):
            if j not in empties:
                new_centers[j] = X[labels == j].mean(axis=0)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < tol:
            break
    labels = sqdist(centers).argmin(axis=1)
    return labels, float(residuals(centers, labels).sum())


def test_lloyd_matches_reference_loop():
    rng = np.random.default_rng(23)
    for trial in range(100):
        n, d, k = int(rng.integers(10, 60)), int(rng.integers(1, 6)), int(rng.integers(2, 7))
        if trial % 2:
            X = (rng.random((n, d)) < 0.4).astype(np.float64)
        else:
            X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
        # starts outside the data's range leave clusters empty on some trials
        spread = 1.0 if trial % 3 else 4.0
        centers = rng.uniform(-spread, spread, size=(k, d))
        x2 = np.einsum("ij,ij->i", X, X)
        [(labels, sse, history)] = cluster._lloyd(sp.csr_matrix(X), x2, centers[None])
        ref_labels, ref_sse = _reference_lloyd(X, centers, cluster.MAX_ITER, cluster.TOL)
        assert np.array_equal(labels, ref_labels), trial
        assert abs(sse - ref_sse) <= 1e-9, trial
        assert sse == history[-1]


@pytest.mark.parametrize("binary", [False, True, "uint8"])
def test_kmeans_and_elbow_independent_of_threads(monkeypatch, binary):
    pretend_cpus(monkeypatch, 8)  # more workers than cores
    rng = np.random.default_rng(5)
    if binary:
        X = (rng.random((120, 10)) < 0.3).astype(np.uint8 if binary == "uint8" else float)
    else:
        X = rng.normal(size=(120, 4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [kmeans(X, k=5, restarts=8, seed=4, threads=t) for t in (1, 2, 8)]
    finally:
        sys.setswitchinterval(interval)
    for other in runs[1:]:
        assert np.array_equal(other.labels, runs[0].labels)
        assert other.sse == runs[0].sse
        assert other.sse_history == runs[0].sse_history
    curves = [elbow_sse_curve(X, kmax=5, restarts=8, seed=4, threads=t) for t in (1, 2, 8)]
    assert curves[1] == curves[0] == curves[2]


def _binary_instances(rng):
    """0/1 matrices with an all-zero column, many duplicate rows, or both."""
    for trial in range(60):
        n, p = int(rng.integers(20, 80)), int(rng.integers(2, 30))
        X = (rng.random((n, p)) < rng.uniform(0.05, 0.5)).astype(np.float64)
        if trial % 2:
            X[:, int(rng.integers(p))] = 0.0
        if trial % 3 == 0:
            X = X[rng.integers(0, max(2, n // 8), size=n)]  # few distinct rows
        yield trial, X, int(rng.integers(2, 9))


def test_lloyd_reseeds_empty_clusters_on_binary_rows():
    # starts far outside [0, 1] leave clusters empty, so the re-seed branch runs
    rng = np.random.default_rng(37)
    reseeded = 0
    for trial, X, k in _binary_instances(rng):
        x2 = np.einsum("ij,ij->i", X, X)
        centers = rng.uniform(-4.0, 4.0, size=(k, X.shape[1]))
        Xs = sp.csr_matrix(X)
        first_labels = (x2[:, None] + np.einsum("ij,ij->i", centers, centers) - 2.0 * (X @ centers.T)).argmin(axis=1)
        reseeded += int((np.bincount(first_labels, minlength=k) == 0).any())
        [(labels, sse, history)] = cluster._lloyd(Xs, x2, centers[None])
        ref_labels, ref_sse = _reference_lloyd(X, centers, cluster.MAX_ITER, cluster.TOL)
        assert np.array_equal(labels, ref_labels), trial
        assert abs(sse - ref_sse) <= 1e-9, trial
        if trial == 1:
            # 6 of its 8 starts own no row; the result that the 0/1 and the
            # dense centroid sums both gave before they became one
            assert sse == float.fromhex("0x1.6ce98b3a62ce8p+6")
            assert "".join(map(str, labels)) == "533331525535563555334357515553333035333355453"
            assert len(history) == 6
    assert reseeded > 30


def test_kmeans_non_binary_value_result_is_pinned():
    rng = np.random.default_rng(41)
    X = (rng.random((60, 12)) < 0.3).astype(np.float64)
    X[7, 3] = 0.5
    result = kmeans(X, k=4, restarts=3, seed=2)
    # the result of dense products and of centroid sums over the rows
    # sorted by label, before every input took the CSR path
    assert result.sse == float.fromhex("0x1.b9fed4297ed42p+6")
    labels = "011010322011030000111002211003102000013202111202100002030031"
    assert "".join(map(str, result.labels)) == labels
    assert len(result.sse_history) == 5


def test_kmeans_workers_capped(monkeypatch):
    started = []

    class Recording(cluster.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(cluster, "ThreadPoolExecutor", Recording)
    X = np.random.default_rng(2).random((30, 3))
    pretend_cpus(monkeypatch, 64)
    kmeans(X, k=2, restarts=3, seed=0, threads=10_000)
    pretend_cpus(monkeypatch, 2)
    kmeans(X, k=2, restarts=3, seed=0, threads=10_000)
    kmeans(X, k=2, restarts=3, seed=0)
    # a process pinned to 2 of the host's 64 CPUs counts 2
    monkeypatch.setattr(cluster.os, "cpu_count", lambda: 64)
    kmeans(X, k=2, restarts=3, seed=0, threads=10_000)
    # without affinity masks, every CPU of the host counts
    monkeypatch.delattr(cluster.os, "sched_getaffinity")
    monkeypatch.setattr(cluster.os, "cpu_count", lambda: 2)
    kmeans(X, k=2, restarts=3, seed=0, threads=10_000)
    knn_sparsified_affinity(X > 0.5, 1.0, neighbors=3, threads=10_000)
    assert started == [3, 2, 1, 2, 2, 2]


def test_kmeans_canonical_ids():
    # sizes 3, 2, 2: the tie goes to the cluster holding the lower row
    labels = np.array([2, 2, 0, 1, 1, 0, 0])
    assert cluster._canonical_labels(labels, 3).tolist() == [1, 1, 0, 2, 2, 0, 0]
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        labels = rng.integers(0, k, size=40)
        canonical = cluster._canonical_labels(labels, k)
        assert np.array_equal(cluster._canonical_labels(rng.permutation(k)[labels], k), canonical)
    X, _ = _planted_blocks(15, 4, 16, seed=9)
    X = X[: 15 * 4 - 5].astype(float)  # blocks of 15, 15, 15 and 10 rows
    result = kmeans(X, k=4, seed=1)
    sizes = np.bincount(result.labels)
    assert (np.diff(sizes) <= 0).all()
    firsts = [int(np.flatnonzero(result.labels == j)[0]) for j in range(4)]
    assert all(
        firsts[j] < firsts[j + 1] for j in range(3) if sizes[j] == sizes[j + 1]
    )


# ---------------------------------------------------------------------------
# elbow
# ---------------------------------------------------------------------------


def test_elbow_curve_k1_equals_total_scatter():
    rng = np.random.default_rng(9)
    X = (rng.random((30, 8)) < 0.3).astype(float)
    curve = elbow_sse_curve(X, kmin=1, kmax=4, restarts=3, seed=0)
    total = ((X - X.mean(axis=0)) ** 2).sum()
    ks = [k for k, _ in curve]
    sses = [s for _, s in curve]
    assert ks == [1, 2, 3, 4]
    assert abs(sses[0] - total) <= 1e-9
    assert all(sses[i + 1] <= sses[i] + 1e-9 for i in range(len(sses) - 1))


def test_elbow_curve_validation():
    X = np.zeros((5, 2))
    with pytest.raises(ValueError, match="kmax"):
        elbow_sse_curve(X, kmin=1, kmax=6, restarts=1, seed=0)
    with pytest.raises(ValueError, match="kmin"):
        elbow_sse_curve(X, kmin=3, kmax=2, restarts=1, seed=0)


def test_elbow_curve_on_uint8_holds_no_float64_copy():
    # features as the elbow stage reads them: uint8, about 6.5% ones
    n, p = 3000, 240
    X = (np.random.default_rng(4).random((n, p)) < 0.065).astype(np.uint8)
    curve, peak = traced_peak(elbow_sse_curve, X, kmax=3, restarts=2, seed=0)
    assert [k for k, _ in curve] == [1, 2, 3]
    assert peak < 8 * n * p, peak


def test_elbow_curve_calls_kmeans_once_per_k(monkeypatch):
    # the benchmark's per-k elbow times and k-means iteration counts are
    # taken from these calls
    calls = []
    run = cluster.kmeans

    def recording(X, k, *args, **kwargs):
        calls.append(k)
        return run(X, k, *args, **kwargs)

    monkeypatch.setattr(cluster, "kmeans", recording)
    X = (np.random.default_rng(3).random((90, 14)) < 0.3).astype(np.uint8)
    curve = elbow_sse_curve(X, kmin=2, kmax=6, restarts=4, seed=0, threads=2)
    assert calls == [2, 3, 4, 5, 6] == [k for k, _ in curve]


def test_kmeans_memory_on_an_embedding_does_not_grow_with_restarts_times_k(monkeypatch):
    # the spectral step's input: n unit rows of k = 4 columns, two workers of
    # five restarts each. A worker keeps its restarts' labels, the labels
    # before and distances (24 B a point each, 1.4 MB) and tiles of
    # KMEANS_CELLS cells (0.25 MB); products over all n rows at once take
    # n x 20 cells a worker, several times over, about 10 MB in all
    pretend_cpus(monkeypatch, 2)
    n, k = 12_000, 4
    rng = np.random.default_rng(0)
    E = rng.normal(size=(n, k)) + 3.0 * np.eye(k)[rng.integers(k, size=n)]
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    kmeans(E[:50], k, seed=0)  # first-call imports are not the loop's
    result, peak = traced_peak(kmeans, E, k, seed=0, threads=2)
    assert len(result.labels) == n
    assert peak < 6 * 2**20, peak


def test_row_tiles_are_views_of_the_csr():
    # copies in place of the views took the memory test above over its bound
    X = np.random.default_rng(6).normal(size=(5000, 4))
    Xs = sp.csr_matrix(X)
    tiles = cluster._row_tiles(Xs, 40)  # 819 rows a tile
    assert len(tiles) == 7
    for rows, tile in tiles:
        assert np.shares_memory(tile.data, Xs.data)
        assert np.shares_memory(tile.indices, Xs.indices)
        assert np.array_equal(tile.toarray(), X[rows])
    assert tiles[-1][0].stop == len(X)


def test_detect_elbow_hand_curve():
    curve = [(1, 100.0), (2, 40.0), (3, 15.0), (4, 13.0), (5, 12.0), (6, 11.0)]
    assert detect_elbow(curve) == 3


def test_detect_elbow_tie_takes_smaller_k():
    # symmetric dip: interior points equidistant from the flat chord
    assert detect_elbow([(1, 3.0), (2, 1.0), (3, 1.0), (4, 3.0)]) == 2


def test_detect_elbow_shift_and_scale_invariant():
    base = [(1, 100.0), (2, 40.0), (3, 15.0), (4, 13.0), (5, 12.0), (6, 11.0)]
    scaled = [(k, 7.5 * s) for k, s in base]
    shifted = [(k, s + 1000.0) for k, s in base]
    assert detect_elbow(scaled) == 3
    assert detect_elbow(shifted) == 3


def test_detect_elbow_linear_curve_warns(caplog):
    with caplog.at_level("WARNING"):
        k = detect_elbow([(1, 10.0), (2, 8.0), (3, 6.0), (4, 4.0)])
    assert k == 2
    assert any("no clear elbow" in r.message for r in caplog.records)


def test_detect_elbow_needs_three_points():
    with pytest.raises(ValueError, match="3"):
        detect_elbow([(1, 5.0), (2, 1.0)])


# ---------------------------------------------------------------------------
# full pipeline and ARI
# ---------------------------------------------------------------------------


def test_spectral_recovers_planted_blocks():
    X, truth = _planted_blocks(30, 3, 18, seed=13)
    result = spectral_cluster(X, SpectralConfig(k=3, seed=0))
    assert adjusted_rand_index(result.labels, truth) >= 0.9


def test_spectral_gamma_default():
    # noisy blocks, so the labels depend on gamma
    X, _ = _planted_blocks(10, 3, 8, seed=14, p_sig=0.6, p_noise=0.3)
    result = spectral_cluster(X, SpectralConfig(k=3, seed=0))
    assert result.labels.max() == 2
    # gamma defaults to 1 / n_features
    A = laplacian_kernel_affinity(hamming_distance_matrix(X), 1.0 / 8)
    expected = kmeans(normalized_laplacian_embedding(A, k=3).values, 3, seed=0)
    assert np.array_equal(result.labels, expected.labels)
    other = spectral_cluster(X, SpectralConfig(k=3, gamma=1.0, seed=0))
    assert not np.array_equal(other.labels, result.labels)


def test_spectral_knn_route():
    X, truth = _planted_blocks(15, 2, 10, seed=15)
    result = spectral_cluster(X, SpectralConfig(k=2, knn_sparsify=8, seed=0))
    assert adjusted_rand_index(result.labels, truth) >= 0.9


def test_spectral_config_validation():
    with pytest.raises(ValueError):
        SpectralConfig(k=0, seed=0)
    with pytest.raises(ValueError):
        SpectralConfig(k=2, seed=0, gamma=-1.0)


def test_ari_reference_values():
    assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0
    assert adjusted_rand_index([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0  # label names irrelevant
    assert adjusted_rand_index([0, 0, 0, 0], [0, 0, 0, 0]) == 1.0
    # hand-computed: crossing pairs give -0.5 on this 2x2 layout
    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(-0.5)


def test_ari_random_labels_near_zero():
    rng = np.random.default_rng(21)
    a = rng.integers(0, 4, size=500)
    b = rng.integers(0, 4, size=500)
    assert abs(adjusted_rand_index(a, b)) < 0.05


def test_ari_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        adjusted_rand_index([0, 1], [0, 1, 2])
