"""Cluster counts, chi-square, Bonferroni, the p-value grid, and MLR."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from adsubtype import stats
from adsubtype.stats import (
    ALL_CLUSTERS,
    ContingencyTable,
    VariableSpec,
    bonferroni_threshold,
    chi2_sf,
    chi_square_test,
    cluster_counts,
    expand_categorical,
    fit_multinomial_logit,
    mlr_gradient,
    one_hot,
    pair_keys,
    pairwise_test_grid,
)
from conftest import traced_peak

# ---------------------------------------------------------------------------
# cluster counts
# ---------------------------------------------------------------------------


def test_cluster_counts_basic():
    labels = [2, 0, 0, 1, 1, 0]
    values = ["a", "a", "b", "b", "b", "a"]
    indicators = one_hot(values, ["a", "b"])
    assert indicators.tolist() == [[1, 0], [1, 0], [0, 1], [0, 1], [0, 1], [1, 0]]
    clusters, counts = cluster_counts(labels, indicators)
    assert clusters == [0, 1, 2]
    assert counts.dtype == np.int64
    assert counts.tolist() == [[2, 1], [0, 2], [1, 0]]


def _brute_force_counts(labels, columns):
    """Per sorted distinct label, the count of 1s in each column, one row at a time."""
    counts = {}
    for label, row in zip(labels, np.asarray(columns).tolist()):
        totals = counts.setdefault(label, [0] * len(row))
        for j, value in enumerate(row):
            totals[j] += int(value)
    return sorted(counts), [counts[c] for c in sorted(counts)]


@pytest.mark.parametrize("dtype", [np.uint8, bool])
@pytest.mark.parametrize("cluster_set", [[0, 2, 5], [3]], ids=["gaps", "one-cluster"])
def test_cluster_counts_match_brute_force(cluster_set, dtype):
    rng = np.random.default_rng(7)
    labels = rng.choice(cluster_set, size=300).tolist()
    columns = (rng.random((300, 9)) < 0.4).astype(dtype)
    clusters, counts = cluster_counts(labels, columns)
    assert counts.dtype == np.int64
    assert (clusters, counts.tolist()) == _brute_force_counts(labels, columns)


def test_cluster_counts_never_widens_the_whole_matrix():
    """The transient stays under the input's own bytes (an int64 cast would be 8x)."""
    rng = np.random.default_rng(3)
    columns = (rng.random((20_000, 120)) < 0.1).astype(np.uint8)
    labels = rng.integers(0, 5, size=len(columns))
    (clusters, counts), peak = traced_peak(cluster_counts, labels, columns)
    assert clusters == [0, 1, 2, 3, 4]
    assert (counts.sum(axis=0) == columns.sum(axis=0, dtype=np.int64)).all()
    assert peak < columns.nbytes


def test_cluster_counts_and_table_errors():
    with pytest.raises(ValueError, match="align"):
        cluster_counts([0, 1], one_hot(["a"], ["a"]))
    with pytest.raises(ValueError, match="nonnegative"):
        ContingencyTable(np.array([[1, -1], [0, 2]]), ["0", "1"], ["a", "b"])


# ---------------------------------------------------------------------------
# chi-square
# ---------------------------------------------------------------------------


def test_chi_square_hand_derived_2x2():
    t = ContingencyTable(np.array([[10, 20], [20, 10]]), ["0", "1"], ["a", "b"])
    plain = chi_square_test(t, yates=False)
    assert plain.statistic == pytest.approx(20 / 3, abs=1e-4)
    assert plain.p_value == pytest.approx(0.00982, abs=1e-4)
    corrected = chi_square_test(t, yates=True)
    assert corrected.statistic == pytest.approx(5.4, abs=1e-4)
    assert corrected.p_value == pytest.approx(0.02014, abs=1e-4)


def test_chi_square_independent_rows_give_zero():
    from adsubtype.stats import ContingencyTable

    t = ContingencyTable(np.array([[10, 30], [20, 60]]), ["0", "1"], ["a", "b"])
    result = chi_square_test(t, yates=False)
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_chi_square_matches_scipy_on_rxc():
    from adsubtype.stats import ContingencyTable

    rng = np.random.default_rng(5)
    for _ in range(10):
        counts = rng.integers(5, 60, size=(3, 4))
        t = ContingencyTable(counts, ["0", "1", "2"], list("abcd"))
        ours = chi_square_test(t, yates=False)
        ref = scipy.stats.chi2_contingency(counts, correction=False)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-10)


def test_chi_square_yates_only_applies_to_2x2():
    from adsubtype.stats import ContingencyTable

    t = ContingencyTable(np.array([[5, 10], [10, 5], [7, 7]]), ["0", "1", "2"], ["a", "b"])
    result = chi_square_test(t, yates=True)
    assert result == chi_square_test(t, yates=False)
    ref = scipy.stats.chi2_contingency(t.counts, correction=True)
    assert result.p_value == pytest.approx(ref.pvalue, rel=1e-10) and ref.dof == 2


def test_chi_square_yates_is_required():
    t = ContingencyTable(np.array([[10, 20], [20, 10]]), ["0", "1"], ["a", "b"])
    with pytest.raises(TypeError):
        chi_square_test(t)
    with pytest.raises(TypeError):
        chi_square_test(t, True)
    with pytest.raises(TypeError):
        pairwise_test_grid([0, 1], [VariableSpec("x", ("a", "b"))])


def test_chi_square_errors_and_warning(caplog):
    from adsubtype.stats import ContingencyTable

    with pytest.raises(ValueError, match="zero marginal"):
        chi_square_test(
            ContingencyTable(np.array([[0, 0], [1, 2]]), ["0", "1"], ["a", "b"]), yates=False
        )
    with pytest.raises(ValueError, match="at least 2x2"):
        chi_square_test(ContingencyTable(np.array([[1], [2]]), ["0", "1"], ["a"]), yates=False)
    with caplog.at_level("WARNING"):
        chi_square_test(
            ContingencyTable(np.array([[2, 8], [3, 7]]), ["0", "1"], ["a", "b"]), yates=False
        )
    assert any("approximate" in r.message for r in caplog.records)


def test_chi2_sf_reference_points():
    assert chi2_sf(0.0, 1) == 1.0
    assert chi2_sf(3.841, 1) == pytest.approx(0.05, abs=5e-4)
    assert chi2_sf(5.991, 2) == pytest.approx(0.05, abs=5e-4)
    assert chi2_sf(13.277, 4) == pytest.approx(0.01, abs=5e-4)
    for x in (0.5, 2.0, 9.3, 40.0):
        for df in (1, 3, 10):
            assert chi2_sf(x, df) == pytest.approx(scipy.stats.chi2.sf(x, df), rel=1e-12)


def test_chi2_sf_monotone_and_validation():
    values = [chi2_sf(x, 3) for x in np.linspace(0, 20, 30)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        chi2_sf(-1.0, 2)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 2.5)


def test_bonferroni_threshold():
    assert bonferroni_threshold(0.05, 15) == 0.05 / 15
    assert bonferroni_threshold(0.05, 1) == 0.05
    assert bonferroni_threshold(0.05, 15) * 15 == pytest.approx(0.05, rel=1e-15)
    with pytest.raises(ValueError):
        bonferroni_threshold(0.0, 5)
    with pytest.raises(ValueError):
        bonferroni_threshold(0.05, 0)


# ---------------------------------------------------------------------------
# pairwise grid
# ---------------------------------------------------------------------------


def _demo_labels_values(n_per=40):
    rng = np.random.default_rng(17)
    labels = np.repeat([0, 1, 2, 3], n_per).tolist()
    sex = ["Female" if rng.random() < 0.4 + 0.1 * lab else "Male" for lab in labels]
    race_pool = ["White", "Black", "Asian"]
    race = [race_pool[int(rng.integers(0, 3))] for _ in labels]
    return labels, sex, race


def test_pair_keys():
    assert pair_keys([0, 1, 2]) == ["0_vs_1", "0_vs_2", "1_vs_2"]


def test_pairwise_grid_shape_and_cells():
    labels, sex, race = _demo_labels_values()
    grid = pairwise_test_grid(
        labels,
        [
            VariableSpec("sex", tuple(sex)),
            VariableSpec("race", tuple(race), binarize=("Asian", "Black", "White")),
        ],
        yates=False,
    )
    # one full-split row per variable plus one binarized row per race category
    assert [(r.variable, r.category) for r in grid] == [
        ("sex", None),
        ("race", None),
        ("race", "Asian"),
        ("race", "Black"),
        ("race", "White"),
    ]
    expected_keys = set(pair_keys([0, 1, 2, 3])) | {ALL_CLUSTERS}
    for row in grid:
        assert set(row.cells) == expected_keys
        for p in row.cells.values():
            assert 0.0 <= p <= 1.0


def test_pairwise_grid_category_order_respected():
    labels, _, race = _demo_labels_values()
    grid = pairwise_test_grid(
        labels,
        [
            VariableSpec(
                "race", tuple(race), binarize=("White", "Asian", "Black", "Never Present")
            )
        ],
        yates=False,
    )
    assert [r.category for r in grid] == [None, "White", "Asian", "Black"]


def test_pairwise_grid_untestable_cells_carry_errors():
    labels = [0] * 20 + [1] * 20
    constant = ["same"] * 40
    grid = pairwise_test_grid(labels, [VariableSpec("flag", tuple(constant))], yates=False)
    assert len(grid) == 1
    assert list(grid[0].cells.values()) == [None, None]


def _counter_test(labels, values, scope, binarize, yates):
    """The chi-square of one grid cell, tabulated independently with Counter."""
    if binarize is not None:
        values = [v if v == binarize else f"not_{binarize}" for v in values]
        categories = [binarize, f"not_{binarize}"]
    else:
        categories = sorted(set(values))
    tally = Counter(zip(labels, values))
    counts = np.array([[tally[(c, v)] for v in categories] for c in scope])
    return chi_square_test(
        ContingencyTable(counts, [str(c) for c in scope], categories), yates=yates
    )


def test_pairwise_grid_pair_matches_direct_test():
    labels, sex, _ = _demo_labels_values()
    grid = pairwise_test_grid(labels, [VariableSpec("sex", tuple(sex))], yates=True)
    direct = _counter_test(labels, sex, (0, 1), None, yates=True)
    assert grid[0].cells["0_vs_1"] == direct.p_value


@pytest.mark.parametrize("seed", range(6))
def test_pairwise_grid_matches_counter_oracle(seed):
    rng = np.random.default_rng(seed)
    k = 3 + seed % 3
    n = 60 * k
    labels = rng.integers(0, k, n).tolist()
    common = ["w", "x", "y", "z"]
    mixed = [common[i] for i in rng.choice(4, n, p=[0.4, 0.3, 0.2, 0.1])]
    # "rare" occurs only in cluster 0, so pairs without it have a zero column
    rare = ["rare" if lab == 0 and rng.random() < 0.3 else "common" for lab in labels]
    specs = [
        VariableSpec("mixed", tuple(mixed), binarize=tuple(common)),
        VariableSpec("constant", ("same",) * n, binarize=("same",)),
        VariableSpec("rare", tuple(rare), binarize=("rare", "common")),
    ]
    yates = bool(seed % 2)
    grid = pairwise_test_grid(labels, specs, yates=yates)

    clusters = sorted(set(labels))
    scopes = {f"{a}_vs_{b}": (a, b) for i, a in enumerate(clusters) for b in clusters[i + 1 :]}
    scopes[ALL_CLUSTERS] = tuple(clusters)
    expected = [
        (spec, cat)
        for spec in specs
        for cat in [None, *(c for c in spec.binarize if c in spec.values)]
    ]
    assert [(row.variable, row.category) for row in grid] == [(s.name, c) for s, c in expected]
    untestable = 0
    for row, (spec, _) in zip(grid, expected):
        assert list(row.cells) == list(scopes)
        for key, scope in scopes.items():
            try:
                direct = _counter_test(labels, spec.values, scope, row.category, yates)
            except ValueError:
                untestable += 1
                assert row.cells[key] is None
                continue
            assert row.cells[key] == direct.p_value
    assert 0 < untestable < len(grid) * len(scopes)


def test_pairwise_grid_needs_two_clusters():
    with pytest.raises(ValueError, match="at least 2"):
        pairwise_test_grid([0, 0], [VariableSpec("x", ("a", "b"))], yates=False)


# ---------------------------------------------------------------------------
# multinomial logit
# ---------------------------------------------------------------------------


def _counts_data():
    """25 reference, 50 class1, 25 class2; no covariates."""
    labels = [0] * 25 + [1] * 50 + [2] * 25
    return np.zeros((100, 0)), labels


def test_mlr_intercept_only_closed_form():
    X, labels = _counts_data()
    fit = fit_multinomial_logit(X, labels, reference_cluster=0)
    assert fit.grad_norm <= stats.GRAD_TOL
    assert fit.feature_names == ["Constant"]
    assert fit.class_labels == [1, 2]
    assert fit.coefficients[0, 0] == pytest.approx(math.log(2.0), abs=1e-8)
    assert fit.coefficients[1, 0] == pytest.approx(0.0, abs=1e-8)
    # closed-form log likelihood and sandwich variance at the MLE
    n = 100
    ll = 25 * math.log(0.25) + 50 * math.log(0.5) + 25 * math.log(0.25)
    assert fit.log_likelihood == pytest.approx(ll, abs=1e-8)
    assert fit.aic == pytest.approx(2 * 2 * 1 - 2 * ll, rel=1e-12)
    assert fit.robust_se[0, 0] == pytest.approx(math.sqrt(1 / 50 + 1 / 25), abs=1e-6)
    assert fit.robust_se[1, 0] == pytest.approx(math.sqrt(1 / 25 + 1 / 25), abs=1e-6)
    assert np.allclose(fit.rrr, np.exp(fit.coefficients))


def _oracle_loglik(X, y, beta):
    """Independent reference log likelihood (reference class in column 0)."""
    eta = np.hstack([np.zeros((X.shape[0], 1)), X @ beta.T])
    return float((eta[np.arange(len(y)), y] - np.log(np.exp(eta).sum(axis=1))).sum())


def test_mlr_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    X = rng.normal(size=(50, 3))
    labels = rng.integers(0, 3, size=50).tolist()
    y = np.array([{0: 0, 1: 1, 2: 2}[v] for v in labels])
    h = 1e-6
    for trial in range(4):
        beta = rng.normal(scale=0.5, size=(2, 3))
        grad = mlr_gradient(beta, X, labels, reference_cluster=0)
        for a in range(2):
            for j in range(3):
                up, down = beta.copy(), beta.copy()
                up[a, j] += h
                down[a, j] -= h
                fd = (_oracle_loglik(X, y, up) - _oracle_loglik(X, y, down)) / (2 * h)
                assert abs(grad[a, j] - fd) / max(abs(fd), 1.0) <= 1e-5, (trial, a, j)


def test_mlr_gradient_vanishes_at_optimum():
    rng = np.random.default_rng(29)
    X = rng.normal(size=(120, 2))
    logits = X @ np.array([[0.8, -0.5], [-0.3, 0.6]]).T
    probs = np.exp(np.hstack([np.zeros((120, 1)), logits]))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = [int(rng.choice(3, p=p)) for p in probs]
    fit = fit_multinomial_logit(X, labels, reference_cluster=0)
    grad = mlr_gradient(
        fit.coefficients, np.hstack([X, np.ones((120, 1))]), labels, reference_cluster=0
    )
    assert np.abs(grad).max() <= 1e-8
    assert fit.grad_norm <= 1e-8


def test_mlr_reference_invariance():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(150, 2))
    labels = rng.integers(0, 3, size=150).tolist()
    design = np.hstack([X, np.ones((150, 1))])
    fits = {ref: fit_multinomial_logit(X, labels, reference_cluster=ref) for ref in (0, 1)}
    probs = {}
    for ref, fit in fits.items():
        p = fit.fitted_probabilities(design)
        order = [fit.reference_cluster] + fit.class_labels
        probs[ref] = {cls: p[:, i] for i, cls in enumerate(order)}
    for cls in (0, 1, 2):
        assert np.abs(probs[0][cls] - probs[1][cls]).max() <= 1e-8


def test_mlr_probabilities_well_formed():
    rng = np.random.default_rng(37)
    X = rng.normal(size=(80, 2))
    labels = rng.integers(0, 4, size=80).tolist()
    fit = fit_multinomial_logit(X, labels, reference_cluster=2)
    p = fit.fitted_probabilities(np.hstack([X, np.ones((80, 1))]))
    assert p.shape == (80, 4)
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
    assert (p > 0).all()


def test_mlr_p_values_follow_z():
    X, labels = _counts_data()
    fit = fit_multinomial_logit(X, labels, reference_cluster=0)
    for i in range(2):
        expected = math.erfc(abs(fit.z_values[i, 0]) / math.sqrt(2))
        assert fit.p_values[i, 0] == pytest.approx(expected, rel=1e-12)


def test_mlr_rank_deficiency_names_culprit():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(60, 1))
    X = np.hstack([x, 2 * x])
    labels = rng.integers(0, 2, size=60).tolist()
    with pytest.raises(ValueError, match="doubled"):
        fit_multinomial_logit(X, labels, 0, feature_names=["base", "doubled"])


def test_mlr_separation_detected():
    x = np.array([[0.0]] * 20 + [[1.0]] * 20)
    labels = [0] * 20 + [1] * 20
    with pytest.raises(RuntimeError, match="separation"):
        fit_multinomial_logit(x, labels, reference_cluster=0)


def test_mlr_nonconvergence_reported(monkeypatch):
    rng = np.random.default_rng(43)
    X = rng.normal(size=(60, 2))
    labels = rng.integers(0, 3, size=60).tolist()
    monkeypatch.setattr(stats, "MAX_NEWTON_ITER", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        fit_multinomial_logit(X, labels, reference_cluster=0)


def test_mlr_input_validation():
    with pytest.raises(ValueError, match="reference cluster"):
        fit_multinomial_logit(np.zeros((4, 0)), [1, 1, 2, 2], reference_cluster=0)
    with pytest.raises(ValueError, match="feature_names"):
        fit_multinomial_logit(np.zeros((4, 2)), [0, 0, 1, 1], 0, feature_names=["only_one"])
    with pytest.raises(ValueError, match="2 classes"):
        fit_multinomial_logit(np.zeros((4, 0)), [0, 0, 0, 0], reference_cluster=0)


# ---------------------------------------------------------------------------
# categorical expansion
# ---------------------------------------------------------------------------


def test_expand_categorical_drops_reference():
    values = ["a", "b", "c", "b"]
    cols, names, used = expand_categorical(values, reference="b", prefix="Var ")
    assert used == "b"
    assert names == ["Var a", "Var c"]
    assert cols.tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]


def test_expand_categorical_absent_reference_falls_back(caplog):
    with caplog.at_level("WARNING"):
        cols, names, used = expand_categorical(["x", "y"], reference="zz", prefix="")
    assert used == "x"
    assert names == ["y"]
    assert any("absent" in r.message for r in caplog.records)
