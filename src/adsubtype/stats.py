"""Cluster validation statistics.

Contingency tables over cluster assignments, Pearson chi-square tests
(optionally Yates-corrected for 2x2), a pairwise/all-clusters p-value grid,
Bonferroni threshold adjustment, and multinomial logistic regression fit by
Newton's method with HC0 sandwich standard errors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import erfc, gammaincc

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
    df: int
    p_value: float
    yates_applied: bool
    expected_min: float


def contingency(
    labels: Sequence[int],
    values: Sequence[str],
    restrict: tuple[int, int] | None = None,
    binarize: str | None = None,
    categories: Sequence[str] | None = None,
) -> ContingencyTable:
    """Cluster-by-category count table.

    All-clusters mode tabulates every cluster; restrict=(i, j) keeps just
    that pair; binarize collapses the variable to {category, rest}. A cluster
    with no patients in scope is an error.
    """
    labels = list(labels)
    values = [str(v) for v in values]
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    clusters = sorted(set(labels))
    if restrict is not None:
        i, j = restrict
        if i not in clusters or j not in clusters:
            raise ValueError(f"restricted cluster pair {restrict} not present")
        clusters = sorted((i, j))
    if binarize is not None:
        cats = [binarize, f"not_{binarize}"]
        values = [binarize if v == binarize else f"not_{binarize}" for v in values]
    else:
        cats = list(categories) if categories is not None else sorted(set(values))
    cat_idx = {c: m for m, c in enumerate(cats)}
    cl_idx = {c: m for m, c in enumerate(clusters)}
    counts = np.zeros((len(clusters), len(cats)), dtype=np.int64)
    for lab, val in zip(labels, values):
        if lab in cl_idx:
            if val not in cat_idx:
                raise ValueError(f"value {val!r} not in category list {cats}")
            counts[cl_idx[lab], cat_idx[val]] += 1
    if (counts.sum(axis=1) == 0).any():
        empty = [c for c in clusters if counts[cl_idx[c]].sum() == 0]
        raise ValueError(f"empty cluster(s) in scope: {empty}")
    return ContingencyTable(counts, [str(c) for c in clusters], cats)


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail chi-square probability: regularized Q(df/2, x/2)."""
    if df < 1 or int(df) != df:
        raise ValueError(f"df must be a positive integer, got {df}")
    if x < 0:
        raise ValueError(f"statistic must be nonnegative, got {x}")
    return float(gammaincc(df / 2.0, x / 2.0))


def chi_square_test(table: ContingencyTable, yates: bool = False) -> ChiSquareResult:
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
    apply_yates = yates and r == 2 and c == 2
    dev = np.abs(obs - expected)
    if apply_yates:
        dev = np.maximum(dev - 0.5, 0.0)
    statistic = float((dev**2 / expected).sum())
    df = (r - 1) * (c - 1)
    return ChiSquareResult(
        statistic=statistic,
        df=df,
        p_value=chi2_sf(statistic, df),
        yates_applied=apply_yates,
        expected_min=expected_min,
    )


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

    With expand_categories, each category additionally gets a binarized
    (category vs rest) row, as the race and age-group rows do.
    """

    name: str
    values: tuple[str, ...]
    expand_categories: bool = False
    category_order: tuple[str, ...] | None = None

    def ordered_categories(self) -> list[str]:
        present = set(self.values)
        if self.category_order:
            return [c for c in self.category_order if c in present]
        return sorted(present)


@dataclass
class CellResult:
    p_value: float | None
    statistic: float | None = None
    error: str | None = None


@dataclass
class GridRow:
    variable: str
    category: str | None
    cells: dict[str, CellResult] = field(default_factory=dict)


ALL_CLUSTERS = "all_clusters"


def pair_keys(clusters: Sequence[int]) -> list[str]:
    return [
        f"{a}_vs_{b}"
        for i, a in enumerate(clusters)
        for b in clusters[i + 1 :]
    ]


def _grid_cell(labels, values, restrict, binarize, yates) -> CellResult:
    try:
        table = contingency(labels, values, restrict=restrict, binarize=binarize)
        result = chi_square_test(table, yates=yates)
        return CellResult(p_value=result.p_value, statistic=result.statistic)
    except ValueError as exc:
        return CellResult(p_value=None, error=str(exc))


def pairwise_test_grid(
    labels: Sequence[int],
    variables: Sequence[VariableSpec],
    yates: bool = True,
) -> list[GridRow]:
    """P-values for every cluster pair plus the all-clusters omnibus test.

    For each variable: one row on the full category split, then (when the
    variable expands) one binarized row per category. Untestable cells carry
    their error and a None p-value; the grid is emitted regardless.
    """
    clusters = sorted(set(labels))
    if len(clusters) < 2:
        raise ValueError("pairwise grid needs at least 2 clusters")
    pairs = [(a, b) for i, a in enumerate(clusters) for b in clusters[i + 1 :]]
    rows: list[GridRow] = []
    for spec in variables:
        row = GridRow(variable=spec.name, category=None)
        for a, b in pairs:
            row.cells[f"{a}_vs_{b}"] = _grid_cell(labels, spec.values, (a, b), None, yates)
        row.cells[ALL_CLUSTERS] = _grid_cell(labels, spec.values, None, None, yates)
        rows.append(row)
        if spec.expand_categories:
            for cat in spec.ordered_categories():
                row = GridRow(variable=spec.name, category=cat)
                for a, b in pairs:
                    row.cells[f"{a}_vs_{b}"] = _grid_cell(
                        labels, spec.values, (a, b), cat, yates
                    )
                row.cells[ALL_CLUSTERS] = _grid_cell(labels, spec.values, None, cat, yates)
                rows.append(row)
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
    converged: bool
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

    Exposed so the fitter's direction can be cross-checked by finite
    differences.
    """
    X = np.asarray(features, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    y, others = _encode_labels(labels, reference_cluster)
    if beta.shape != (len(others), X.shape[1]):
        raise ValueError(
            f"beta shape {beta.shape} does not match ({len(others)}, {X.shape[1]})"
        )
    probs = _softmax_probs(X, beta)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(y)), y] = 1.0
    resid = onehot[:, 1:] - probs[:, 1:]
    return resid.T @ X


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


def fit_multinomial_logit(
    features: np.ndarray,
    labels: Sequence[int],
    reference_cluster: int,
    feature_names: Sequence[str] | None = None,
    add_intercept: bool = True,
    max_iter: int = 100,
    grad_tol: float = 1e-8,
    max_abs_coef: float = 15.0,
) -> MlrFit:
    """Maximum-likelihood multinomial logit with the reference class pinned at 0.

    Full Newton iterations with step halving until the gradient infinity-norm
    falls below grad_tol. Standard errors are HC0 sandwich estimates
    H^{-1} (sum_i g_i g_i^T) H^{-1} with H the observed information. The
    intercept ('Constant') is appended as the last column when add_intercept.
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
    if add_intercept:
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
    onehot = np.zeros((n, km1 + 1))
    onehot[np.arange(n), y] = 1.0

    n_iter = 0
    grad_norm = np.inf
    for n_iter in range(1, max_iter + 1):
        probs = _softmax_probs(X, beta)
        resid = onehot[:, 1:] - probs[:, 1:]
        grad = (resid.T @ X).ravel()
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= grad_tol:
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
        if np.abs(beta).max() > max_abs_coef:
            raise RuntimeError(
                f"separation detected (|coef| > {max_abs_coef}); a predictor perfectly "
                "splits the classes and regularized fitting is out of scope"
            )
    else:
        raise RuntimeError(
            f"Newton did not converge in {max_iter} iterations; gradient norm {grad_norm:.3e}"
        )

    probs = _softmax_probs(X, beta)
    resid = onehot[:, 1:] - probs[:, 1:]

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
        converged=grad_norm <= grad_tol,
        grad_norm=grad_norm,
    )


def expand_categorical(
    values: Sequence[str], reference: str, prefix: str | None = None
) -> tuple[np.ndarray, list[str], str]:
    """Indicator columns for every category present except the reference.

    When the stated reference is absent from the data, the first present
    category (sorted) takes its place so the design stays full rank; the
    reference actually used is returned.
    """
    values = [str(v) for v in values]
    present = sorted(set(values))
    if reference not in present:
        log.warning(
            "expand_categorical: reference %r absent; using %r", reference, present[0]
        )
        reference = present[0]
    cats = [c for c in present if c != reference]
    cols = np.zeros((len(values), len(cats)))
    for j, cat in enumerate(cats):
        cols[:, j] = [1.0 if v == cat else 0.0 for v in values]
    names = [f"{prefix}{c}" if prefix else c for c in cats]
    return cols, names, reference
