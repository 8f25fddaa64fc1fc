"""Cluster validation statistics.

Per-cluster count tables over cluster assignments, Pearson chi-square tests
(optionally Yates-corrected for 2x2), a pairwise/all-clusters p-value grid,
Bonferroni threshold adjustment, and multinomial logistic regression fit by
Newton's method with HC0 sandwich standard errors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class ContingencyTable:
    counts: np.ndarray
    row_labels: list[str]
    col_labels: list[str]

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if (self.counts < 0).any():
            raise ValueError("contingency counts must be nonnegative")


@dataclass
class ChiSquareResult:
    statistic: float
    p_value: float


def cluster_counts(labels: Sequence[int], columns: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Sorted distinct clusters and, per cluster, the count of 1s in each column.

    columns is an n x m 0/1 matrix whose rows align with labels; the counts
    are an int64 clusters x m matrix. Each cluster's rows are summed on their
    own into int64, so the transient is one cluster's rows in columns' dtype,
    never the whole matrix cast to int64.
    """
    labels = np.asarray(labels)
    columns = np.asarray(columns)
    if columns.ndim != 2 or len(labels) != columns.shape[0]:
        raise ValueError("labels and columns must align")
    clusters, cluster_of = np.unique(labels, return_inverse=True)
    counts = np.empty((len(clusters), columns.shape[1]), dtype=np.int64)
    for c in range(len(clusters)):
        columns[cluster_of == c].sum(axis=0, dtype=np.int64, out=counts[c])
    return clusters.tolist(), counts


def one_hot(values: Sequence[str], categories: Sequence[str]) -> np.ndarray:
    """n x len(categories) 0/1 matrix: entry 1 iff str(value) is that category."""
    values = np.asarray(values, dtype=str)
    return (values[:, None] == np.asarray(categories, dtype=str)[None, :]).astype(np.uint8)


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability: regularized Q(df/2, x/2)."""
    if df < 1 or int(df) != df:
        raise ValueError(f"df must be a positive integer, got {df}")
    if x < 0:
        raise ValueError(f"statistic must be nonnegative, got {x}")
    from scipy.special import gammaincc
    return float(gammaincc(df / 2.0, x / 2.0))


def chi_square_test(table: ContingencyTable, *, yates: bool) -> ChiSquareResult:
    """Pearson chi-square on an r x c table; Yates correction for 2x2 only."""
    obs = table.counts.astype(np.float64)
    r, c = obs.shape
    if r < 2 or c < 2:
        raise ValueError(f"table must be at least 2x2, got {r}x{c}")
    row_sums = obs.sum(axis=1)
    col_sums = obs.sum(axis=0)
    total = obs.sum()
    if (row_sums == 0).any() or (col_sums == 0).any():
        raise ValueError("table has a zero marginal; test undefined")
    expected = np.outer(row_sums, col_sums) / total
    expected_min = float(expected.min())
    if expected_min < 5:
        log.warning(
            "chi_square_test: smallest expected cell %.3f < 5; p-value is approximate",
            expected_min,
        )
    dev = np.abs(obs - expected)
    if yates and r == 2 and c == 2:
        dev = np.maximum(dev - 0.5, 0.0)
    statistic = float((dev**2 / expected).sum())
    return ChiSquareResult(statistic=statistic, p_value=chi2_sf(statistic, (r - 1) * (c - 1)))


def bonferroni_threshold(alpha: float, m: int) -> float:
    """Adjusted per-test significance level alpha / m."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return alpha / m


# ---------------------------------------------------------------------------
# Pairwise grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariableSpec:
    """A categorical per-patient variable for the test grid.

    Each category in binarize that occurs in values additionally gets a
    binarized (category vs rest) row, in binarize order, as the race and
    age-group rows do.
    """

    name: str
    values: tuple[str, ...]
    binarize: tuple[str, ...] = ()


@dataclass
class GridRow:
    variable: str
    category: str | None
    cells: dict[str, float | None]  # p-value per cell key; None when untestable


ALL_CLUSTERS = "all_clusters"


def pair_keys(clusters: Sequence[int]) -> list[str]:
    return [
        f"{a}_vs_{b}"
        for i, a in enumerate(clusters)
        for b in clusters[i + 1 :]
    ]


def pairwise_test_grid(
    labels: Sequence[int],
    variables: Sequence[VariableSpec],
    *,
    yates: bool,
) -> list[GridRow]:
    """P-values for every cluster pair plus the all-clusters omnibus test.

    For each variable: one row on the full category split, then one
    binarized (category vs rest) row per present category it binarizes.
    Every cell slices the variable's one cluster x category count table.
    Untestable cells carry a None p-value; the grid is emitted regardless.
    """
    clusters = sorted(set(labels))
    if len(clusters) < 2:
        raise ValueError("pairwise grid needs at least 2 clusters")
    names = [str(c) for c in clusters]
    k = len(clusters)
    pairs = [[i, j] for i in range(k) for j in range(i + 1, k)]
    # (cell key, table rows in scope)
    scopes = [*zip(pair_keys(clusters), pairs), (ALL_CLUSTERS, list(range(k)))]
    rows: list[GridRow] = []
    for spec in variables:
        categories = sorted(set(spec.values))
        _, counts = cluster_counts(labels, one_hot(spec.values, categories))
        tables = [(None, counts, categories)]
        for cat in spec.binarize:
            if cat in categories:
                column = counts[:, [categories.index(cat)]]
                split = np.hstack([column, counts.sum(axis=1, keepdims=True) - column])
                tables.append((cat, split, [cat, f"not_{cat}"]))
        for category, table, columns in tables:
            cells: dict[str, float | None] = {}
            for key, idx in scopes:
                try:
                    cells[key] = chi_square_test(
                        ContingencyTable(table[idx], [names[i] for i in idx], columns),
                        yates=yates,
                    ).p_value
                except ValueError:
                    cells[key] = None
            rows.append(GridRow(variable=spec.name, category=category, cells=cells))
    return rows


# ---------------------------------------------------------------------------
# Multinomial logistic regression
# ---------------------------------------------------------------------------


@dataclass
class MlrFit:
    coefficients: np.ndarray  # (K-1) x p
    robust_se: np.ndarray
    rrr: np.ndarray
    z_values: np.ndarray
    p_values: np.ndarray
    log_likelihood: float
    aic: float
    reference_cluster: int
    class_labels: list[int]  # non-reference classes, row order
    feature_names: list[str]
    n_obs: int
    n_iter: int
    grad_norm: float

    def fitted_probabilities(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities (columns ordered reference first, then class_labels)."""
        X = np.asarray(X, dtype=np.float64)
        return _softmax_probs(X, self.coefficients)


def _softmax_probs(X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    # column 0 is the reference class (eta fixed at 0)
    eta = np.column_stack([np.zeros(X.shape[0]), X @ beta.T])
    eta -= eta.max(axis=1, keepdims=True)
    expd = np.exp(eta)
    return expd / expd.sum(axis=1, keepdims=True)


def _encode_labels(labels: Sequence[int], reference_cluster: int) -> tuple[np.ndarray, list[int]]:
    classes = sorted(set(int(v) for v in labels))
    if reference_cluster not in classes:
        raise ValueError(f"reference cluster {reference_cluster} not among labels {classes}")
    others = [c for c in classes if c != reference_cluster]
    mapping = {reference_cluster: 0, **{c: i + 1 for i, c in enumerate(others)}}
    y = np.array([mapping[int(v)] for v in labels], dtype=np.int64)
    return y, others


def _residuals(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, one-hot labels minus probabilities), the latter without the reference."""
    probs = _softmax_probs(X, beta)
    return probs, np.eye(probs.shape[1])[y][:, 1:] - probs[:, 1:]


def _loglik(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    probs = _softmax_probs(X, beta)
    return float(np.log(probs[np.arange(len(y)), y]).sum())


def mlr_gradient(
    beta: np.ndarray,
    features: np.ndarray,
    labels: Sequence[int],
    reference_cluster: int,
) -> np.ndarray:
    """Analytic log-likelihood gradient, shaped like beta ((K-1) x p).

    The fitter's Newton gradient is built from the same residuals, so a
    finite-difference check of this one covers it.
    """
    X = np.asarray(features, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    y, others = _encode_labels(labels, reference_cluster)
    if beta.shape != (len(others), X.shape[1]):
        raise ValueError(
            f"beta shape {beta.shape} does not match ({len(others)}, {X.shape[1]})"
        )
    return _residuals(X, y, beta)[1].T @ X


def _observed_information(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Negative log-likelihood Hessian; block (a, b) = X^T diag(P_a (delta_ab - P_b)) X.

    P holds the non-reference class probabilities, one column per class.
    """
    p = X.shape[1]
    km1 = P.shape[1]
    info = np.empty((km1 * p, km1 * p))
    for a in range(km1):
        for b in range(a, km1):
            w = P[:, a] * ((1.0 if a == b else 0.0) - P[:, b])
            block = X.T @ (X * w[:, None])
            info[a * p : (a + 1) * p, b * p : (b + 1) * p] = block
            info[b * p : (b + 1) * p, a * p : (a + 1) * p] = block.T
    return info


def _check_full_rank(X: np.ndarray, names: list[str]) -> None:
    rank = np.linalg.matrix_rank(X)
    if rank == X.shape[1]:
        return
    # greedy scan names a set of columns that do not extend the column space
    culprits = []
    kept: list[int] = []
    for j in range(X.shape[1]):
        trial = X[:, kept + [j]]
        if np.linalg.matrix_rank(trial) > len(kept):
            kept.append(j)
        else:
            culprits.append(names[j])
    raise ValueError(
        f"design matrix is rank deficient (rank {rank} < {X.shape[1]}); "
        f"collinear column(s): {culprits}"
    )


# Newton stops once the gradient infinity-norm is at most GRAD_TOL and
# fails after MAX_NEWTON_ITER iterations; a coefficient beyond MAX_ABS_COEF
# in magnitude is reported as separation
MAX_NEWTON_ITER = 100
GRAD_TOL = 1e-8
MAX_ABS_COEF = 15.0


def fit_multinomial_logit(
    features: np.ndarray,
    labels: Sequence[int],
    reference_cluster: int,
    feature_names: Sequence[str] | None = None,
) -> MlrFit:
    """Maximum-likelihood multinomial logit with the reference class pinned at 0.

    Full Newton iterations with step halving until the gradient infinity-norm
    is at most GRAD_TOL. Standard errors are HC0 sandwich estimates
    H^{-1} (sum_i g_i g_i^T) H^{-1} with H the observed information. The
    intercept ('Constant') is appended as the last column.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be 2-D")
    n = X.shape[0]
    names = list(feature_names) if feature_names is not None else [
        f"x{j}" for j in range(X.shape[1])
    ]
    if len(names) != X.shape[1]:
        raise ValueError("feature_names length does not match feature columns")
    X = np.column_stack([X, np.ones(n)])
    names = names + ["Constant"]
    p = X.shape[1]
    _check_full_rank(X, names)

    y, others = _encode_labels(labels, reference_cluster)
    km1 = len(others)
    if km1 == 0:
        raise ValueError("need at least 2 classes")

    beta = np.zeros((km1, p))
    ll = _loglik(X, y, beta)

    n_iter = 0
    grad_norm = np.inf
    for n_iter in range(1, MAX_NEWTON_ITER + 1):
        probs, resid = _residuals(X, y, beta)
        grad = (resid.T @ X).ravel()
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= GRAD_TOL:
            break

        info = _observed_information(X, probs[:, 1:])
        try:
            step = np.linalg.solve(info, grad).reshape(km1, p)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"Newton step failed (singular information): {exc}") from exc

        scale = 1.0
        for _ in range(40):
            candidate = beta + scale * step
            cand_ll = _loglik(X, y, candidate)
            if cand_ll >= ll - 1e-12:
                break
            scale *= 0.5
        else:
            raise RuntimeError(
                f"step halving failed at iteration {n_iter}; gradient norm {grad_norm:.3e}"
            )
        beta = candidate
        ll = cand_ll
        if np.abs(beta).max() > MAX_ABS_COEF:
            raise RuntimeError(
                f"separation detected (|coef| > {MAX_ABS_COEF}); a predictor perfectly "
                "splits the classes and regularized fitting is out of scope"
            )
    else:
        raise RuntimeError(
            f"Newton did not converge in {MAX_NEWTON_ITER} iterations; "
            f"gradient norm {grad_norm:.3e}"
        )

    # probs and resid are those of the converged beta, from the final iteration
    info = _observed_information(X, probs[:, 1:])

    # HC0 sandwich: per-observation scores G[i] = vec(resid_i x_i)
    G = np.empty((n, km1 * p))
    for a in range(km1):
        G[:, a * p : (a + 1) * p] = X * resid[:, a : a + 1]
    try:
        bread = np.linalg.inv(info)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"observed information is singular at the optimum: {exc}"
        ) from exc
    cov = bread @ (G.T @ G) @ bread
    variances = np.diag(cov)
    if not np.all(np.isfinite(variances)) or (variances < 0).any():
        bad = [
            f"cluster {others[idx // p]} / {names[idx % p]}"
            for idx in np.nonzero(~np.isfinite(variances) | (variances < 0))[0][:5]
        ]
        raise RuntimeError(
            "sandwich covariance is not positive on the diagonal (likely "
            f"separation or an ill-conditioned design); worst cells: {bad}"
        )
    robust_se = np.sqrt(variances).reshape(km1, p)

    from scipy.special import erfc
    z = beta / robust_se
    p_values = erfc(np.abs(z) / np.sqrt(2.0))
    aic = 2.0 * km1 * p - 2.0 * ll

    return MlrFit(
        coefficients=beta,
        robust_se=robust_se,
        rrr=np.exp(beta),
        z_values=z,
        p_values=p_values,
        log_likelihood=ll,
        aic=aic,
        reference_cluster=reference_cluster,
        class_labels=others,
        feature_names=names,
        n_obs=n,
        n_iter=n_iter,
        grad_norm=grad_norm,
    )


def expand_categorical(
    values: Sequence[str], reference: str, prefix: str
) -> tuple[np.ndarray, list[str], str]:
    """Indicator columns for every category present except the reference.

    Each column is named prefix + category. When the stated reference is
    absent from the data, the first present category (sorted) takes its
    place so the design stays full rank; the reference actually used is
    returned.
    """
    present = sorted(set(str(v) for v in values))
    if reference not in present:
        log.warning(
            "expand_categorical: reference %r absent; using %r", reference, present[0]
        )
        reference = present[0]
    cats = [c for c in present if c != reference]
    cols = one_hot(values, cats).astype(np.float64)
    names = [f"{prefix}{c}" for c in cats]
    return cols, names, reference
