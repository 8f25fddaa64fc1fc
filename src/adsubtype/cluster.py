"""Spectral clustering of binary feature matrices.

Pipeline: Laplacian-kernel affinity A(i,j) = exp(-gamma * Hamming(x_i, x_j))
-> normalized-Laplacian eigen-embedding (top-k eigenvectors of
M = D^{-1/2} A D^{-1/2}, rows renormalized) -> k-means labels in the
embedding. A is an explicit dense or kNN-sparsified matrix, or an operator
through a sparse factorisation (`binomial_kernel_operator`) that builds no
N x N buffer; every form is normalized the same way. Also provides the
raw-feature SSE elbow probe for choosing k and the adjusted Rand index for
partition agreement.
"""

from __future__ import annotations

import functools
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import comb
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SpectralConfig:
    k: int
    seed: int
    gamma: float | None = None  # None -> 1 / feature_count
    knn_sparsify: int | None = None
    # workers for the kNN distance blocks and the k-means restarts (a
    # contiguous group of restarts per worker); never changes the result
    threads: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be > 0")


@dataclass
class AffinityMatrix:
    """Explicit symmetric affinity with unit diagonal; dense ndarray or sparse CSR.

    The dense (`laplacian_kernel_affinity`) and kNN-sparsified forms; the
    unsparsified pipeline applies A through `binomial_kernel_operator` instead.
    """

    values: np.ndarray | sp.csr_matrix

    @property
    def is_sparse(self) -> bool:
        return not isinstance(self.values, np.ndarray)


@dataclass
class Embedding:
    values: np.ndarray  # N x k, unit-norm rows
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # N x k, raw unit-norm columns


@dataclass
class ClusterAssignment:
    labels: np.ndarray
    sse: float
    sse_history: list[float]


def _binary_csr(X: np.ndarray) -> sp.csr_matrix | None:
    """CSR copy of X when every value is 0 or 1, else None.

    Only the stored nonzeros are compared, so no n x p temporary is built.
    """
    import scipy.sparse as sp
    Xs = sp.csr_matrix(X)
    return Xs if (Xs.data == 1).all() else None


def _hamming_rows(
    Xf: np.ndarray, counts: np.ndarray, rows: slice, out: np.ndarray | None = None
) -> np.ndarray:
    """Hamming distances from Xf[rows] to every row of 0/1 Xf, whose row sums are counts.

    Built in place on the gram block, in out when given, as |x| + |y| - 2 x.y.
    Every intermediate is an integer exact in Xf's dtype, so BLAS threading
    cannot change it.
    """
    D = np.matmul(Xf[rows], Xf.T, out=out)
    D *= -2.0
    D += counts[rows, None]
    D += counts[None, :]
    return D


def hamming_distance_matrix(X: np.ndarray) -> np.ndarray:
    """Pairwise count of differing positions between binary rows.

    Returns float64 holding integers, built in place in the gram buffer (one
    N x N allocation).
    """
    X = np.asarray(X)
    if X.size and _binary_csr(X) is None:
        raise ValueError("hamming_distance_matrix expects a binary matrix")
    Xf = X.astype(np.float64)
    D = _hamming_rows(Xf, Xf.sum(axis=1), slice(None))
    return np.rint(D, out=D)


def laplacian_kernel_affinity(D: np.ndarray, gamma: float) -> AffinityMatrix:
    """A(i,j) = exp(-gamma * D(i,j)); for binary rows Hamming equals L1."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    D = np.asarray(D)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValueError("distance matrix must be square")
    if (np.diag(D) != 0).any():
        raise ValueError("distance matrix must have zero diagonal")
    A = np.multiply(D, -gamma, dtype=np.float64)
    return AffinityMatrix(np.exp(A, out=A))


# Rows per distance block in knn_sparsified_affinity. The calling thread
# holds one block of float32 distances, 4 B per column per row, and the
# workers fill its rows; at n=12,000 that is 12 MB for 256 rows, against
# 49 MB for 1024, in about the same time; 128 rows and fewer run slower.
# Each worker selects neighbours for KNN_SELECT rows at a time, so what a
# worker allocates (argpartition's int64 indices, 8 B per column per row) is
# 0.8 MB at n=12,000, in about the time 32 rows take. Freed memory stays in
# the worker thread's malloc arena, which malloc_trim does not shrink, so a
# worker's own buffers stay resident after the pool closes.
KNN_BLOCK = 256
KNN_SELECT = 8


def _workers(threads: int, tasks: int) -> int:
    """Pool size for `tasks` independent tasks: at most threads, tasks and usable CPUs.

    Usable CPUs are those this process may run on, which can be fewer than
    the host has.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(threads, tasks, cpus)


def _nearest(
    X: np.ndarray, gamma: float, m: int, threads: int
) -> tuple[np.ndarray, np.ndarray]:
    """(cols, vals): each row's m nearest columns, ascending, and their affinities.

    Its own function so that the float32 copy of X and the distance block
    are freed when it returns, before the caller builds the CSR matrix.
    """
    n = X.shape[0]
    Xf = np.asarray(X, dtype=np.float32 if X.shape[1] < 2**24 else np.float64)
    counts = Xf.sum(axis=1)
    cols = np.empty((n, m), dtype=np.intp)
    vals = np.empty((n, m))
    D = np.empty((min(n, KNN_BLOCK), n), dtype=Xf.dtype)  # one block's distances

    def fill(rows: slice, start: int) -> None:
        # rows' distances go to D from row rows.start - start, start opening the block
        Dw = _hamming_rows(Xf, counts, rows, out=D[rows.start - start : rows.stop - start])
        for at in range(0, len(Dw), KNN_SELECT):
            Db = Dw[at : at + KNN_SELECT]
            sub = slice(rows.start + at, rows.start + at + len(Db))
            idx = np.sort(np.argpartition(Db, m - 1, axis=1)[:, :m], axis=1)
            cols[sub] = idx
            selected = np.take_along_axis(Db, idx, axis=1).astype(np.float64)
            vals[sub] = np.exp(-gamma * selected)

    workers = _workers(threads, min(n, KNN_BLOCK))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for start in range(0, n, KNN_BLOCK):
            size = min(KNN_BLOCK, n - start)
            cuts = [start + size * w // workers for w in range(workers + 1)]
            slices = [slice(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]
            list(pool.map(fill, slices, [start] * len(slices)))  # re-raises a worker's error
    return cols, vals


def knn_sparsified_affinity(
    X: np.ndarray, gamma: float, neighbors: int, threads: int = 1
) -> AffinityMatrix:
    """Sparse affinity keeping the `neighbors` largest entries per row.

    Distances are computed in blocks of KNN_BLOCK rows so the full N x N
    matrix is never materialized: the calling thread allocates one
    (KNN_BLOCK, N) float32 distance buffer, and the transient peak is that
    buffer and X's float32 copy, plus argpartition's int64 indices for
    KNN_SELECT rows per worker, beside the N x m output. Both are freed, and
    their pages returned to the system (release_heap), before the kept
    pattern becomes a CSR matrix and is symmetrized by elementwise max
    (union of directed kNN edges), so neither that step nor the embedding
    after it stacks on them. The diagonal is always kept. The block matmul
    and the distances run in float32, which is exact for 0/1 rows with fewer
    than 2^24 columns.

    Each block's rows are cut into one contiguous slice per worker, at most
    `threads`; a worker writes its rows' distances into the shared buffer
    and selects their neighbours KNN_SELECT rows at a time. A row's kept
    neighbours depend on that row's distances alone, which are exact
    integers, so neither cut ever changes a byte. The distances must stay
    float32: which of several neighbours tied at the boundary are kept
    follows numpy's selection kernel, and it can pick differently for
    another dtype (int16 does).
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    n = X.shape[0]
    m = min(neighbors + 1, n)  # +1: the diagonal is its own best neighbor
    cols, vals = _nearest(X, gamma, m, threads)
    release_heap()  # the copy's and the block's pages
    import scipy.sparse as sp
    # every row keeps exactly m sorted columns
    A = sp.csr_matrix((vals.ravel(), cols.ravel(), np.arange(0, n * m + 1, m)), shape=(n, n))
    A = A.maximum(A.T)
    A.setdiag(1.0)
    return AffinityMatrix(A.tocsr())


# The kernel operator keeps the subset sizes m <= J of the smallest order J
# whose relative tail is at most this for every pair of distinct rows.
KERNEL_TAIL_TOL = 2e-2
# Side of the square tiles in which `_kernel_order` compares rows. A tile
# holds 256 KB of float32 counts, whatever n is, against the N x N float32
# gram's 64 MB at n=4000 and 3.6 GB at n=30,000.
KERNEL_CHECK_BLOCK = 256


def _binomial_tail(s: int, J: int, q: float) -> float:
    """P(Binomial(s, q) > J).

    For rows sharing s ones and q = t / (1 + t), this is the share of the
    kernel entry (1 + t)^s = sum_m C(s, m) t^m that the terms m > J carry.
    The terms are summed in log space, so no C(s, m) overflows.
    """
    if s <= J or q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    lq, lp, ls = math.log(q), math.log1p(-q), math.lgamma(s + 1)
    return sum(
        math.exp(ls - math.lgamma(m + 1) - math.lgamma(s - m + 1) + m * lq + (s - m) * lp)
        for m in range(J + 1, s + 1)
    )


def _kernel_order(Xs: sp.csr_matrix, q: float) -> tuple[int, int]:
    """Smallest J with P(Binomial(s, q) > J) <= KERNEL_TAIL_TOL for every pair of rows.

    s is the count of ones two distinct rows of Xs share. Returns J and s_J,
    the largest count up to the fullest row's whose tail J admits; the tail
    grows with s, so no pair shares more than s_J. The rows, fullest first,
    are compared in one sweep of KERNEL_CHECK_BLOCK-square float32 tiles of
    the upper triangle of their gram, exact for counts below 2^24. A tile
    count above s_J raises J, so s_J only grows, and a pair above s_J has
    both rows above it: the sweep ends at the first row with at most s_J
    ones. A row with itself is left out: its entry's shortfall is divided
    by a degree of about n mean affinities in the normalized matrix.
    """
    r = np.diff(Xs.indptr)
    r_max = int(r.max(initial=0))

    def admitted(J: int) -> int:  # s_J
        return max(c for c in range(J, r_max + 1) if _binomial_tail(c, J, q) <= KERNEL_TAIL_TOL)

    fullest = np.argsort(-r, kind="stable")
    r, Xf = r[fullest], Xs[fullest].astype(np.float32)
    J, s, b = 0, admitted(0), KERNEL_CHECK_BLOCK
    for i in range(0, r.size, b):
        if r[i] <= s:
            break
        tile_rows = Xf[i : i + b].T.toarray()
        for j in range(i, r.size, b):
            if r[j] <= s:
                break
            shared = Xf[j : j + b] @ tile_rows  # row j + k against row i + l
            if i == j:
                np.fill_diagonal(shared, 0)  # a row with itself
            top = shared.max()
            while top > s:
                J += 1
                s = admitted(J)
    return J, s


# `_kernel_factor` fills P in chunks of rows holding at most this many of
# its entries, so the subset ranks, slots and gathers it builds stay near
# 1.5 MB however many rows share a count of ones.
KERNEL_CHUNK = 65_536


def _factor_bytes(Xs: sp.csr_matrix, nnz: int, ncols: int, chunk: int, idx: type) -> int:
    """About the most bytes that building P from Xs, and one product with P^T, hold at once.

    Xs, the CSR copy of the n input rows; P itself; at most five vectors of
    n 8-byte values (the row counts and widths, a group's rows, and u with
    its temporary); the temporaries of a chunk of `chunk` entries (the ranks
    and the binomial gather in idx, the ones gather and the slots in int64,
    counted as if all were live together); and the column-length vector of
    a product with P^T.
    """
    n, itemsize = Xs.shape[0], np.dtype(idx).itemsize
    held = Xs.data.nbytes + Xs.indices.nbytes + Xs.indptr.nbytes + 40 * n
    P = nnz * (8 + itemsize) + (n + 1) * itemsize
    return held + P + chunk * (2 * itemsize + 16) + 8 * ncols


# Where `_available_memory` reads what the OS can still give this process
MEMINFO = Path("/proc/meminfo")
PROC_CGROUP = Path("/proc/self/cgroup")
CGROUP_ROOT = Path("/sys/fs/cgroup")
# cgroup v1 writes "no limit" as the largest page multiple below 2^63 in
# memory.limit_in_bytes; a limit at or above this is read as none
CGROUP_V1_NO_LIMIT = 2**62


def _available_memory() -> tuple[int, str]:
    """Bytes this process can still allocate, and the figure they come from.

    MemAvailable from MEMINFO, capped by the limit less the usage of the
    process's cgroup where one is set: cgroup v2's memory.max less
    memory.current, or, on a host whose memory controller is mounted as
    cgroup v1, memory.limit_in_bytes less memory.usage_in_bytes. Only where
    none of these can be read, total physical memory. Nothing is written.
    """
    figures = []
    try:
        for line in MEMINFO.read_text().splitlines():
            if line.startswith("MemAvailable:"):
                figures.append((int(line.split()[1]) * 1024, "MemAvailable"))
    except (OSError, ValueError):
        pass
    try:
        groups = [line.split(":", 2) for line in PROC_CGROUP.read_text().splitlines()]
    except OSError:
        groups = []
    for _, controllers, path in (g for g in groups if len(g) == 3):
        if controllers == "":  # v2, whose files are under the unified root
            root, limit_file, used_file = CGROUP_ROOT, "memory.max", "memory.current"
        elif "memory" in controllers.split(","):  # v1, under the controller's own root
            root, limit_file, used_file = (
                CGROUP_ROOT / "memory", "memory.limit_in_bytes", "memory.usage_in_bytes"
            )
        else:
            continue
        group = root / path.lstrip("/")
        try:
            limit = (group / limit_file).read_text().strip()
            if limit != "max" and int(limit) < CGROUP_V1_NO_LIMIT:
                used = int((group / used_file).read_text())
                figures.append((int(limit) - used, f"cgroup {limit_file} - {used_file}"))
        except (OSError, ValueError):
            pass
    if not figures:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"), "physical memory"
    return min(figures)


@functools.cache
def _malloc_trim() -> Callable[[int], int] | None:
    """glibc's malloc_trim, or None where the C library has none (macOS, musl, Windows)."""
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def release_heap() -> None:
    """Return the pages of freed heap memory to the system, where malloc can.

    glibc keeps freed heap pages resident, and a later long-lived
    allocation can keep its main heap from shrinking, so memory one step
    freed would still count toward the peak RSS of every later step.
    malloc_trim(0) releases the free pages of every malloc arena without
    moving a live block; a worker thread's arena keeps the free memory at
    its top, which only that arena's own frees give back.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _kernel_factor(X: np.ndarray, gamma: float) -> tuple[np.ndarray, sp.csr_matrix]:
    """(u, P) with exp(-gamma * Hamming(x_i, x_j)) ~ u_i u_j (P P^T)(i, j).

    For 0/1 rows sharing s ones, with u = exp(-gamma |x|) and
    t = e^{2 gamma} - 1, the kernel is u_i u_j (1 + t)^s =
    u_i u_j sum_m C(s, m) t^m, and C(s, m) counts the m-element subsets of
    ones the two rows share. Row i of P holds sqrt(t^m) for each subset of
    its ones of size m <= J (J from `_kernel_order`), in column
    offset[m] + the subset's rank in the combinatorial number system. Each
    off-diagonal entry of u u^T * P P^T lies within the logged pair bound
    (relative) below the kernel's, and each diagonal entry within the
    logged tail at r_max.

    The rows with c ones are filled together, one subset size m at a time,
    in chunks of rows holding at most KERNEL_CHUNK entries (one row when
    C(c, m) is larger). A row's entries depend on that row alone, so the
    chunk size never changes a byte of P.
    """
    import scipy.sparse as sp
    Xs = _binary_csr(X)
    if Xs is None:
        raise ValueError("the kernel operator expects a binary matrix")
    (n, p), r = X.shape, np.diff(Xs.indptr)
    r_max = int(r.max(initial=0))
    t, q = np.expm1(2.0 * gamma), -np.expm1(-2.0 * gamma)  # q = t / (1 + t)
    J, s = _kernel_order(Xs, q)
    width = np.array([sum(comb(c, m) for m in range(J + 1)) for c in range(r_max + 1)])
    offset = np.cumsum([0] + [comb(p, m) for m in range(J + 1)])
    row_width = width[r]
    nnz, ncols = int(row_width.sum()), int(offset[-1])
    idx = np.int32 if max(nnz, ncols) < 2**31 else np.int64
    # a chunk outgrows KERNEL_CHUNK only when one row's C(c, m) does
    chunk = max(KERNEL_CHUNK, max(comb(r_max, m) for m in range(J + 1)))
    needed = _factor_bytes(Xs, nnz, ncols, chunk, idx)
    available, source = _available_memory()
    if needed > available:
        raise ValueError(
            f"the kernel operator of order {J} for gamma={gamma:.4g} needs about {needed} "
            f"bytes, more than the {available} bytes available ({source}); lower cluster.gamma"
        )
    log.info(
        "kernel operator: order J=%d, relative tail bound %.3g for distinct rows sharing at "
        "most s=%d ones, %.3g on the diagonal at r_max=%d, %d nonzeros",
        J, _binomial_tail(s, J, q), s, _binomial_tail(r_max, J, q), r_max, nnz,
    )

    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(row_width, out=indptr[1:])
    indices = np.empty(nnz, dtype=idx)
    data = np.empty(nnz)
    binom = np.array([[comb(v, i) for i in range(J + 1)] for v in range(p)], dtype=idx)
    for c in np.unique(r):
        group = np.flatnonzero(r == c)
        first = 0  # the slot of each row's first m-subset, from the row's start
        for m in range(min(c, J) + 1):
            size = comb(c, m)
            subsets = np.array(list(combinations(range(c), m)), dtype=np.intp).reshape(size, m)
            step = max(1, KERNEL_CHUNK // size)
            for start in range(0, group.size, step):
                rows = group[start : start + step]
                ones = Xs.indices[Xs.indptr[rows, None] + np.arange(c)]  # sorted columns
                rank = np.full((rows.size, size), offset[m], dtype=idx)
                for i in range(m):
                    rank += binom[ones[:, subsets[:, i]], i + 1]
                slots = indptr[rows, None] + (first + np.arange(size))
                indices[slots] = rank
                data[slots] = np.sqrt(t**m)
            first += size
    return np.exp(-gamma * r), sp.csr_matrix((data, indices, indptr), shape=(n, ncols))


def binomial_kernel_operator(X: np.ndarray, gamma: float) -> spla.LinearOperator:
    """The Laplacian-kernel affinity A as an operator.

    A = diag(u) P P^T diag(u) from `_kernel_factor`, so no N x N buffer is
    built: A v = u * (P @ (P^T @ (u * v))), where P^T is a view. The m = 0
    column is shared by every row, so every degree is positive unless u
    underflows or, at a gamma of several hundred, t^m overflows.
    """
    import scipy.sparse.linalg as spla
    u, P = _kernel_factor(X, gamma)
    Pt = P.T

    def matvec(v: np.ndarray) -> np.ndarray:
        return u * (P @ (Pt @ (u * np.ravel(v))))

    return spla.LinearOperator((P.shape[0], P.shape[0]), matvec=matvec, dtype=np.float64)


def normalized_laplacian_embedding(
    A: AffinityMatrix | spla.LinearOperator, k: int
) -> Embedding:
    """Top-k eigenvectors of M = D^{-1/2} A D^{-1/2}, rows renormalized.

    A is an explicit affinity or the operator from `binomial_kernel_operator`.
    Every form is normalized alike: the degrees are d = A 1, and Lanczos
    (ARPACK) finds the k largest eigenpairs of v -> w * (A (w * v)) with
    w = 1 / sqrt(d), from a fixed start, so reruns give identical bits.
    Eigenvector signs are fixed so the largest-magnitude component of each
    column is positive.
    """
    import scipy.sparse.linalg as spla
    A = A.values if isinstance(A, AffinityMatrix) else A
    n = A.shape[0]
    if k >= n:
        raise ValueError(f"k={k} exceeds n-1={n - 1}")
    d = A @ np.ones(n)
    if not (d > 0).all():
        raise ValueError("affinity has a zero or NaN degree")
    w = 1.0 / np.sqrt(d)

    def matvec(v: np.ndarray) -> np.ndarray:
        return w * (A @ (w * np.ravel(v)))

    M = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    rng = np.random.default_rng(0)  # start vector and any restart vectors
    try:
        eigvals, eigvecs = spla.eigsh(
            M, k=k, which="LA", v0=rng.uniform(-1.0, 1.0, n), rng=rng
        )
    except spla.ArpackNoConvergence as exc:
        raise RuntimeError(
            f"eigensolver failed to converge: {len(exc.eigenvalues)} of {k} "
            f"eigenpairs converged"
        ) from exc
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    # deterministic sign convention
    for j in range(eigvecs.shape[1]):
        pivot = np.argmax(np.abs(eigvecs[:, j]))
        if eigvecs[pivot, j] < 0:
            eigvecs[:, j] = -eigvecs[:, j]

    norms = np.linalg.norm(eigvecs, axis=1)
    if (norms == 0).any():
        raise RuntimeError("embedding produced a zero row; affinity is malformed")
    values = eigvecs / norms[:, None]
    return Embedding(values=values, eigenvalues=eigvals, eigenvectors=eigvecs)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

# Lloyd stops after this many iterations, or once no center moves by TOL or
# more (scikit-learn's KMeans defaults)
MAX_ITER = 300
TOL = 1e-4
# Cells in each dense block of k-means work: a tile of distances (rows x the
# centres of every running restart of a worker's group), a block of the exact
# SSE, and the entries of the 0/1 points moved between clusters at once. A
# block is 256 KB of float64 whatever n, k and the restart count are, so what
# a worker allocates per iteration does not grow with them: memory a worker
# thread frees stays in its malloc arena. Twice the cells made the tiles the
# largest buffers of k-means on the 12,000 x 4 spectral embedding; half made
# the demo elbow's many small tiles about a fifth slower.
KMEANS_CELLS = 32_768


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(where the stored entries of rows sit in a CSR's arrays, in order; each row's count)."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    return np.repeat(starts - ends + lens, lens) + np.arange(int(lens.sum())), lens


def _dense_rows(Xs: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
    """Xs[rows] as a dense float64 array, filled from the CSR arrays.

    Xs holds no duplicate entries (kmeans sums them), so this is
    Xs[rows].toarray() bit for bit.
    """
    at, lens = _row_positions(Xs.indptr, rows)
    out = np.zeros((len(rows), Xs.shape[1]))
    out[np.repeat(np.arange(len(rows)), lens), Xs.indices[at]] = Xs.data[at]
    return out


def _row_tiles(Xs: sp.csr_matrix, width: int) -> list[tuple[slice, sp.csr_matrix]]:
    """(rows, a CSR view of them) for blocks of rows covering Xs, width x rows <= KMEANS_CELLS.

    The views share Xs's arrays. They are set after construction, since the
    constructor copies an array that is a view of less than half its base.
    """
    import scipy.sparse as sp
    (n, p), ptr = Xs.shape, Xs.indptr
    step = max(1, KMEANS_CELLS // width)
    if step >= n:
        return [(slice(0, n), Xs)]
    tiles = []
    for a in range(0, n, step):
        b = min(a + step, n)
        tile = sp.csr_matrix((b - a, p))
        tile.data, tile.indices = Xs.data[ptr[a] : ptr[b]], Xs.indices[ptr[a] : ptr[b]]
        tile.indptr = ptr[a : b + 1] - ptr[a]
        tiles.append((slice(a, b), tile))
    return tiles


def _tile_distances(
    tiles: list[tuple[slice, sp.csr_matrix]], x2: np.ndarray, centers: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, d2) per tile: the squared distances from its points to each of centers (m x p).

    d2 = (||x||^2 + ||c||^2) - 2 x.c, clamped at 0, with x2 = ||x||^2, in
    one buffer that every tile reuses. One product per tile covers every
    centre: a column of a CSR product has the same bits at any width, and
    an output row reads only its own row, so each distance has the bits of
    a product with its centre alone.
    """
    c2 = np.einsum("ij,ij->i", centers, centers)
    ct = centers.T.copy()
    buf = np.empty(max(tile.shape[0] for _, tile in tiles) * len(c2))
    for rows, tile in tiles:
        d2 = np.add(x2[rows, None], c2, out=buf[: tile.shape[0] * len(c2)].reshape(-1, len(c2)))
        twice = tile @ ct
        twice *= 2.0
        d2 -= twice
        del twice
        yield rows, np.maximum(d2, 0.0, out=d2)


def _kmeanspp_centers(
    Xs: sp.csr_matrix, x2: np.ndarray, k: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """k-means++ starts, one restart per generator: an R x k x p array.

    Each step takes the distances to every restart's last pick in one pass
    of products; each restart draws from its own generator as a lone run.
    """
    n, R = Xs.shape[0], len(rngs)
    tiles = _row_tiles(Xs, R)
    chosen = np.empty((R, k), dtype=np.intp)
    chosen[:, 0] = [rng.integers(n) for rng in rngs]
    closest = np.full((R, n), np.inf)
    for step in range(1, k):
        for rows, d2 in _tile_distances(tiles, x2, _dense_rows(Xs, chosen[:, step - 1])):
            np.minimum(closest[:, rows], d2.T, out=closest[:, rows])
        for r, rng in enumerate(rngs):
            total = closest[r].sum()
            if total <= 0:
                # all points coincide with a chosen center; lowest index wins
                chosen[r, step] = np.argmin(closest[r])
            else:
                at = np.searchsorted(np.cumsum(closest[r]), rng.random() * total, side="right")
                chosen[r, step] = min(int(at), n - 1)
    return _dense_rows(Xs, chosen.ravel()).reshape(R, k, -1)


def _assigned_residuals(Xs: sp.csr_matrix, centers: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # exact per-point squared distance to the assigned center. Each dense
    # block of KMEANS_CELLS cells starts at -c and gets its rows' nonzeros
    # added, each cell once: (-c) + x is x - c bit for bit, and a row's sum is
    # the same in any block
    (n, p), negated = Xs.shape, -centers
    step = max(1, KMEANS_CELLS // max(p, 1))
    residuals = np.empty(n)
    for start in range(0, n, step):
        ptr = Xs.indptr[start : start + step + 1]
        diff = negated[labels[start : start + step]]
        cells = np.repeat(np.arange(len(diff)) * p, np.diff(ptr)) + Xs.indices[ptr[0] : ptr[-1]]
        diff.reshape(-1)[cells] += Xs.data[ptr[0] : ptr[-1]]
        residuals[start : start + step] = np.einsum("ij,ij->i", diff, diff)
    return residuals


def _assign(
    tiles: list[tuple[slice, sp.csr_matrix]], x2: np.ndarray, centers: np.ndarray,
    labels: np.ndarray, dist: np.ndarray,
) -> None:
    """labels[r], dist[r] <- each point's nearest of centers[r] (k x p) and its distance to it."""
    A, k, p = centers.shape
    for rows, d2 in _tile_distances(tiles, x2, centers.reshape(A * k, p)):
        nearest = d2.reshape(-1, k).argmin(axis=1)
        labels[:, rows] = nearest.reshape(-1, A).T
        nearest += np.arange(0, d2.size, k)
        dist[:, rows] = d2.reshape(-1)[nearest].reshape(-1, A).T


def _cluster_sums(Xs: sp.csr_matrix, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's centroid sum, adding its values per column in ascending row order, and size."""
    p = Xs.shape[1]
    cells = np.repeat(labels * p, np.diff(Xs.indptr))
    cells += Xs.indices
    return np.bincount(cells, weights=Xs.data, minlength=k * p).reshape(k, p), np.bincount(labels, minlength=k)


def _move_points(
    Xs: sp.csr_matrix, sums: np.ndarray, counts: np.ndarray, old: np.ndarray, new: np.ndarray,
    step: int,
) -> None:
    """Move each 0/1 point whose label in restart r went from old[r] to new[r] between r's clusters.

    sums (R x k x p) and counts (R x k) are each cluster's centroid sum and
    size; they stay integers, so they equal a recount in any order. The
    moved points' entries are taken `step` points at a time.
    """
    R, k, p = sums.shape
    slots, rows = np.nonzero(old != new)
    moves = [(np.subtract, old[slots, rows] + slots * k), (np.add, new[slots, rows] + slots * k)]
    for op, clusters in moves:
        op.at(counts.reshape(-1), clusters, 1)
    for a in range(0, len(rows), step):
        at, lens = _row_positions(Xs.indptr, rows[a : a + step])
        for op, clusters in moves:
            op.at(sums.reshape(-1), np.repeat(clusters[a : a + step] * p, lens) + Xs.indices[at], 1.0)


def _lloyd(
    Xs: sp.csr_matrix, x2: np.ndarray, centers: np.ndarray
) -> list[tuple[np.ndarray, float, list[float]]]:
    """Lloyd iterations for R restarts in one loop, restart r from centers[r] (R x k x p).

    Returns (labels, sse, per-iteration sse) for each restart: what it gets
    run alone. Each iteration assigns every running restart in one pass of
    products (`_assign`). The objective is recorded after each assignment
    step from the assignment distances, and the final entry is the exact
    SSE; it is non-increasing up to rounding. Centroid sums add a cluster's
    values per column in ascending row order; on 0/1 points they are
    integer counts, kept up to date from the points that changed cluster
    (`_move_points`). An empty cluster is re-seeded at the point farthest
    from its center. A restart stops once no centre moves by TOL, or after
    MAX_ITER iterations, and is then assigned to its final centres.

    The running restarts' arrays are allocated once and compacted when
    restarts finish, at most R times. Besides, an iteration allocates a
    tile of KMEANS_CELLS cells, arrays of R x k x p, one restart's centroid
    cells at a time (on 0/1 points only in the first iteration), the moved
    points' labels (at most R x n), and blocks of their entries of at most
    KMEANS_CELLS cells: nothing that grows with n x R x k.
    """
    (R, k, p), n = centers.shape, Xs.shape[0]
    binary = bool((Xs.data == 1).all())
    tiles = _row_tiles(Xs, R * k)
    step = max(1, KMEANS_CELLS // max(1, int(np.diff(Xs.indptr).max(initial=0))))  # moved points a block
    running = np.arange(R)  # the restart in each row of the arrays below
    labels, prev = np.empty((R, n), dtype=np.intp), np.empty((R, n), dtype=np.intp)
    dist, sums, counts = np.empty((R, n)), np.empty((R, k, p)), np.empty((R, k), dtype=np.intp)
    last = np.zeros(R, dtype=bool)  # the next assignment is the restart's last
    histories: list[list[float]] = [[] for _ in range(R)]
    runs: dict[int, tuple[np.ndarray, float, list[float]]] = {}
    for iteration in range(MAX_ITER + 1):
        _assign(tiles, x2, centers, labels, dist[: len(running)])
        last |= iteration == MAX_ITER
        objectives = dist[: len(running)].sum(axis=1).tolist()
        for s, r in enumerate(running):
            if last[s]:
                sse = float(_assigned_residuals(Xs, centers[s], labels[s]).sum())
                runs[r] = (labels[s].copy(), sse, histories[r] + [sse])
            else:
                histories[r].append(objectives[s])
        if last.any():
            keep = ~last
            running, centers, labels, prev, sums, counts = (
                a[keep] for a in (running, centers, labels, prev, sums, counts)
            )
            if not len(running):
                break
        if binary and iteration:
            _move_points(Xs, sums, counts, prev, labels, step)
        else:
            for s in range(len(running)):
                sums[s], counts[s] = _cluster_sums(Xs, labels[s], k)
        present = counts > 0
        new_centers = centers.copy()
        np.divide(sums, counts[:, :, None], out=new_centers, where=present[:, :, None])
        for s in np.flatnonzero(~present.all(axis=1)):
            claim_d2 = _assigned_residuals(Xs, centers[s], labels[s])
            for j in np.flatnonzero(~present[s]):
                far = int(np.argmax(claim_d2))
                new_centers[s, j] = _dense_rows(Xs, np.array([far]))[0]
                claim_d2[far] = -1.0  # a point re-seeds at most one centroid

        last = np.sqrt(((new_centers - centers) ** 2).sum(axis=2)).max(axis=1) < TOL
        centers = new_centers
        labels, prev = prev, labels  # the next assignment's buffer, and this one
    return [runs[r] for r in range(R)]


def _canonical_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """Renumber clusters by size descending, ties by lowest member row."""
    counts = np.bincount(labels, minlength=k)
    first = np.full(k, labels.size)
    np.minimum.at(first, labels, np.arange(labels.size))
    rank = np.empty(k, dtype=labels.dtype)
    rank[np.lexsort((first, -counts))] = np.arange(k)
    return rank[labels]


def kmeans(
    X: np.ndarray | sp.csr_matrix,
    k: int,
    restarts: int = 10,
    *,
    seed: int,
    threads: int = 1,
) -> ClusterAssignment:
    """k-means++ seeded Lloyd's algorithm; best of `restarts` runs by SSE.

    Each restart draws from an independent substream of the seed. The
    restarts are cut into one contiguous group per worker of a pool of at
    most `threads`, and each worker runs its group's k-means++ starts and
    Lloyd iterations in one loop (`_lloyd`), in which every restart gets
    what it gets alone. Results are reduced in restart order and ties keep
    the earliest, so the output does not depend on `threads`. The winning
    partition's clusters are numbered by size descending, ties by lowest
    member row. X (dense, or CSR as elbow_sse_curve passes it) is held only
    as one float64 CSR, built before the pool starts; every product,
    centroid sum and SSE reads it.
    """
    import scipy.sparse as sp
    Xs = sp.csr_matrix(X, dtype=np.float64)
    Xs.sum_duplicates()  # one entry per cell, as the row fills and indexed adds assume
    n = Xs.shape[0]
    if k < 1:
        raise ValueError(f"k={k} must be >= 1")
    if restarts < 1:
        raise ValueError(f"restarts={restarts} must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds number of points n={n}")
    x2 = _assigned_residuals(Xs, np.zeros((1, Xs.shape[1])), np.zeros(n, dtype=np.intp))  # ||x||^2

    def group(ids: range) -> list[tuple[np.ndarray, float, list[float]]]:
        rngs = [np.random.default_rng([seed, r]) for r in ids]
        return _lloyd(Xs, x2, _kmeanspp_centers(Xs, x2, k, rngs))

    workers = _workers(threads, restarts)
    cuts = [restarts * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        groups = pool.map(group, [range(a, b) for a, b in zip(cuts, cuts[1:])])
        runs = [run for runs in groups for run in runs]
    best = min(range(restarts), key=lambda r: runs[r][1])  # min keeps the earliest tie
    labels, sse, history = runs[best]
    return ClusterAssignment(labels=_canonical_labels(labels, k), sse=sse, sse_history=history)


def spectral_cluster(X: np.ndarray, config: SpectralConfig) -> ClusterAssignment:
    """Full pipeline: Laplacian-kernel affinity -> embedding -> k-means.

    The affinity is the kernel operator, or the kNN-sparsified matrix when
    `knn_sparsify` is set; neither builds an N x N buffer.
    """
    X = np.asarray(X)
    gamma = config.gamma if config.gamma is not None else 1.0 / X.shape[1]

    if config.knn_sparsify is not None:
        affinity = knn_sparsified_affinity(X, gamma, config.knn_sparsify, config.threads)
    else:
        affinity = binomial_kernel_operator(X, gamma)

    embedding = normalized_laplacian_embedding(affinity, config.k)
    return kmeans(embedding.values, config.k, seed=config.seed, threads=config.threads)


def elbow_sse_curve(
    X: np.ndarray,
    *,
    kmin: int = 1,
    kmax: int,
    restarts: int,
    seed: int,
    threads: int = 1,
) -> list[tuple[int, float]]:
    """(k, best k-means SSE on the raw features) for each k in [kmin, kmax].

    X (say, the uint8 features) becomes one float64 CSR for the whole curve,
    which every k's kmeans reads; no dense float copy is made.
    """
    import scipy.sparse as sp
    Xs = sp.csr_matrix(X, dtype=np.float64)
    if kmax > Xs.shape[0]:
        raise ValueError(f"kmax={kmax} exceeds number of points n={Xs.shape[0]}")
    if kmin < 1 or kmin > kmax:
        raise ValueError("need 1 <= kmin <= kmax")
    ks = range(kmin, kmax + 1)
    return [(k, kmeans(Xs, k, restarts=restarts, seed=seed, threads=threads).sse) for k in ks]


def detect_elbow(points: Sequence[tuple[int, float]]) -> int:
    """k of the interior point farthest from the chord joining the curve ends.

    Ties resolve to the smaller k. A flat (near-linear) curve has no clear
    elbow; the smallest interior k is returned with a warning.
    """
    if len(points) < 3:
        raise ValueError("elbow detection needs at least 3 curve points")
    ks = np.array([float(k) for k, _ in points])
    ys = np.array([float(s) for _, s in points])
    x1, y1 = ks[0], ys[0]
    x2, y2 = ks[-1], ys[-1]
    # perpendicular distance from each interior point to the chord
    num = np.abs((y2 - y1) * ks - (x2 - x1) * ys + x2 * y1 - y2 * x1)
    den = np.hypot(x2 - x1, y2 - y1)
    dist = num[1:-1] / den
    best = int(np.argmax(dist))  # argmax keeps the first (smallest k) on ties
    if dist[best] <= 1e-9 * max(abs(y1 - y2), 1.0):
        log.warning("detect_elbow: no clear elbow on a near-linear curve")
    return int(ks[1 + best])


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected pair-counting agreement between two labelings."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"label vectors differ in length: {a.shape} vs {b.shape}")
    n = a.size
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    sum_cells = sum(comb(int(v), 2) for v in table.ravel())
    sum_rows = sum(comb(int(v), 2) for v in table.sum(axis=1))
    sum_cols = sum(comb(int(v), 2) for v in table.sum(axis=0))
    total = comb(n, 2)
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0  # both partitions trivial and identical in pair structure
    return (sum_cells - expected) / (max_index - expected)
