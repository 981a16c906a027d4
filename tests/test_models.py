"""Per-classifier tests: hand-worked examples, exact reference
implementations, gradient checks, and serialization round-trips."""
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazescreen.errors import DataError, InvalidSpec, SingleClass
from gazescreen import kernels as kernels_mod
from gazescreen.kernels import KernelRowCache, gamma_scale, rbf_kernel, resolve_gamma, smo
from gazescreen.models import (
    AdaBoostParams,
    FeatureMatrix,
    ForestParams,
    GpcParams,
    LogRegParams,
    PerceptronParams,
    SvcParams,
    TreeParams,
    default_theta0,
    fit_adaboost,
    fit_decision_tree,
    fit_gpc,
    fit_logreg,
    fit_naive_bayes,
    fit_perceptron,
    fit_random_forest,
    fit_svc_rbf,
    gpc_lml_and_grad,
    load_model,
    model_from_dict,
)
from gazescreen.models.linear import logreg_objective
from gazescreen.models import gpc as gpc_mod
from gazescreen.models import linear as linear_mod
from gazescreen.models import tree as tree_mod
from gazescreen.models.tree import descend, grow_tree


def fm(X, y, w=None):
    return FeatureMatrix(np.asarray(X, dtype=float), np.asarray(y), w)


def blobs(n_per_class, d=2, sep=4.0, seed=0, spread=1.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, spread, (n_per_class, d))
    b = rng.normal(0.0, spread, (n_per_class, d)) + sep
    X = np.vstack([a, b])
    y = np.repeat([0, 1], n_per_class)
    return X, y


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_feature_matrix_refuses_non_finite_features_as_data(bad):
    # a data error (exit 3), as GazeDataset refuses the same matrix
    X, y = blobs(3)
    X[1, 0] = bad
    with pytest.raises(DataError, match="features must be finite"):
        fm(X, y)


# -- naive Bayes ---------------------------------------------------------------

class TestNaiveBayes:
    def test_hand_example_scores(self):
        # classes at means 1 and 5, both unit variance, equal priors
        model = fit_naive_bayes(fm([[0], [2], [4], [6]], [0, 0, 1, 1]))
        assert model.means[0, 0] == 1.0 and model.means[1, 0] == 5.0
        eps = 1e-9 * 5.0  # smoothing: 1e-9 * pooled feature variance
        assert model.variances[0, 0] == pytest.approx(1.0 + eps, rel=1e-12)
        # equidistant point: likelihoods cancel, equal priors cancel
        x_mid = np.array([[3.0]])
        assert model.decision_score(x_mid)[0] == pytest.approx(0.0, abs=1e-12)
        assert model.predict(x_mid)[0] == 0  # ties go to class 0
        # score(x) = [(x-m0)^2 - (x-m1)^2] / (2 v) for equal priors/variances
        x = np.array([[4.0]])
        expect = (9.0 - 1.0) / (2.0 * (1.0 + eps))
        assert model.decision_score(x)[0] == pytest.approx(expect, rel=1e-12)

    def test_weighted_moments_and_priors(self):
        model = fit_naive_bayes(fm([[0], [2], [4], [6]], [0, 0, 1, 1],
                                   w=[1, 1, 1, 3]))
        assert np.allclose(np.exp(model.class_log_prior), [2 / 6, 4 / 6])
        assert model.means[1, 0] == pytest.approx(5.5)
        # biased weighted variance: (1*(4-5.5)^2 + 3*(6-5.5)^2) / 4
        assert model.variances[1, 0] == pytest.approx(0.75, rel=1e-6)

    def test_weights_equal_replication(self):
        X, y = blobs(8, seed=1)
        w = np.array([1, 2, 3, 1, 2, 1, 1, 4] * 2)
        rep_idx = np.repeat(np.arange(16), w)
        a = fit_naive_bayes(fm(X, y, w))
        b = fit_naive_bayes(fm(X[rep_idx], y[rep_idx]))
        grid = np.random.default_rng(0).normal(2, 3, (40, 2))
        assert np.allclose(a.decision_score(grid), b.decision_score(grid),
                           rtol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            fit_naive_bayes(fm([[0], [1]], [0, 0]))


# -- decision tree ---------------------------------------------------------------

def exact_split_argmin(X, y, w, min_leaf=1):
    """All (feature, threshold) pairs attaining the exact minimal weighted
    child impurity, via Fraction arithmetic. Weights must be integers."""
    n, d = X.shape
    total_w = Fraction(int(w.sum()))
    total_w1 = Fraction(int(w[y == 1].sum()))

    def side_gini(wside, w1side):
        if wside == 0:
            return None
        p1 = Fraction(w1side, wside)
        return 1 - p1 * p1 - (1 - p1) * (1 - p1)

    best_val, argmin = None, []
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ws = w[order]
        w1s = ws * y[order]
        cw = np.cumsum(ws)
        cw1 = np.cumsum(w1s)
        for i in range(n - 1):
            if not xs[i + 1] > xs[i]:
                continue
            if i + 1 < min_leaf or n - 1 - i < min_leaf:
                continue
            wl, wl1 = Fraction(int(cw[i])), Fraction(int(cw1[i]))
            wr, wr1 = total_w - wl, total_w1 - wl1
            val = (wl * side_gini(wl, wl1) + wr * side_gini(wr, wr1)) / total_w
            thr = 0.5 * (xs[i] + xs[i + 1])
            if best_val is None or val < best_val:
                best_val, argmin = val, [(f, thr)]
            elif val == best_val:
                argmin.append((f, thr))
    return best_val, argmin


def tree_node_rows(nodes, X):
    """Row-index set reaching each node, replayed from the stored splits."""
    out = {0: np.arange(len(X))}
    stack = [0]
    while stack:
        node = stack.pop()
        f = nodes["feature"][node]
        if f < 0:
            continue
        idx = out[node]
        go_left = X[idx, f] <= nodes["threshold"][node]
        out[int(nodes["left"][node])] = idx[go_left]
        out[int(nodes["right"][node])] = idx[~go_left]
        stack.extend([int(nodes["left"][node]), int(nodes["right"][node])])
    return out


def root_split(model):
    """(feature, threshold) of a tree model's root node."""
    return model.nodes["feature"][0], model.nodes["threshold"][0]


class TestDecisionTree:
    def test_hand_split(self):
        model = fit_decision_tree(fm([[1], [2], [3], [4]], [0, 0, 1, 1]))
        assert root_split(model) == (0, 2.5)
        assert model.n_nodes == 3
        assert np.array_equal(model.predict(np.array([[1.0], [2.4], [2.6], [9.0]])),
                              [0, 0, 1, 1])

    def test_threshold_tie_takes_lowest(self):
        # splits at 1.5 and 3.5 are exactly tied; first minimum wins
        model = fit_decision_tree(fm([[1], [2], [3], [4]], [0, 1, 0, 1]))
        assert root_split(model) == (0, 1.5)

    def test_feature_tie_takes_lowest(self):
        X = np.array([[1, -1], [2, -2], [3, -3], [4, -4]], dtype=float)
        model = fit_decision_tree(fm(X, [0, 0, 1, 1]))
        assert root_split(model) == (0, 2.5)

    def test_pure_data_is_a_leaf(self):
        model = fit_decision_tree(fm([[0], [1], [2]], [1, 1, 1]))
        assert model.n_nodes == 1
        assert np.array_equal(model.predict(np.array([[5.0]])), [1])

    def test_adjacent_float_boundary(self):
        # the midpoint of 1+eps and 1+2eps rounds up to the larger value,
        # which with `x <= thr` routing would never separate the pair
        eps = 2.0 ** -52
        a, b = 1.0 + eps, 1.0 + 2 * eps
        assert 0.5 * (a + b) == b
        model = fit_decision_tree(fm([[a], [b]], [0, 1]))
        f, thr = root_split(model)
        assert a <= thr < b
        assert np.array_equal(model.predict(np.array([[a], [b]])), [0, 1])

    def test_max_depth_one_is_a_stump(self):
        X, y = blobs(20, seed=3, sep=1.0)
        model = fit_decision_tree(fm(X, y), TreeParams(max_depth=1))
        assert model.n_nodes <= 3

    def test_min_samples_leaf_honoured(self):
        rng = np.random.default_rng(4)
        X = rng.integers(0, 6, (24, 2)).astype(float)
        y = rng.integers(0, 2, 24)
        y[:3] = [0, 1, 0]
        model = fit_decision_tree(fm(X, y), TreeParams(min_samples_leaf=4))
        rows = tree_node_rows(model.nodes, X)
        for node, idx in rows.items():
            if model.nodes["feature"][node] < 0:
                assert len(idx) >= 4

    @pytest.mark.parametrize("seed", range(50))
    def test_every_split_matches_exhaustive_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 31))
        X = rng.integers(0, 5, (n, 2)).astype(float)
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        w = rng.integers(1, 4, n)
        model = fit_decision_tree(fm(X, y, w.astype(float)))
        rows = tree_node_rows(model.nodes, X)
        for node, idx in rows.items():
            f = model.nodes["feature"][node]
            yn, wn = y[idx], w[idx]
            if f >= 0:
                _, argmin = exact_split_argmin(X[idx], yn, wn)
                chosen = (int(f), float(model.nodes["threshold"][node]))
                assert chosen in argmin
            else:
                # leaf must be unsplittable: pure or no distinct boundary
                if yn.min() != yn.max() and len(idx) >= 2:
                    best, _ = exact_split_argmin(X[idx], yn, wn)
                    assert best is None
            # leaf probability equals the exact weighted class-1 fraction
            p1 = Fraction(int(wn[yn == 1].sum()), int(wn.sum()))
            assert model.nodes["p1"][node] == pytest.approx(float(p1), abs=1e-12)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(7)
        X = rng.integers(0, 8, (40, 3)).astype(float)
        y = rng.integers(0, 2, 40)
        y[0], y[1] = 0, 1
        a = fit_decision_tree(fm(X, y))
        perm = rng.permutation(40)
        b = fit_decision_tree(fm(X[perm], y[perm]))
        for key in ("feature", "threshold", "left", "right", "p1"):
            assert np.array_equal(a.nodes[key], b.nodes[key])

    def test_weights_equal_replication(self):
        rng = np.random.default_rng(8)
        X = rng.integers(0, 6, (20, 2)).astype(float)
        y = rng.integers(0, 2, 20)
        y[0], y[1] = 0, 1
        w = rng.integers(1, 4, 20)
        rep = np.repeat(np.arange(20), w)
        a = fit_decision_tree(fm(X, y, w.astype(float)))
        b = fit_decision_tree(fm(X[rep], y[rep]))
        grid = rng.uniform(-1, 7, (60, 2))
        assert np.array_equal(a.predict(grid), b.predict(grid))
        assert root_split(a) == root_split(b)

    def test_descend_matches_scalar_routing(self):
        rng = np.random.default_rng(9)
        X = rng.normal(0, 2, (60, 3))
        y = rng.integers(0, 2, 60)
        y[0], y[1] = 0, 1
        nodes = grow_tree(X, y.astype(float), np.ones(60), TreeParams())
        probe = rng.normal(0, 2, (30, 3))

        def route_one(x):
            node = 0
            while nodes["feature"][node] >= 0:
                f = nodes["feature"][node]
                node = (nodes["left"][node] if x[f] <= nodes["threshold"][node]
                        else nodes["right"][node])
            return nodes["p1"][node]

        expect = np.array([route_one(x) for x in probe])
        assert np.array_equal(descend(nodes, probe), expect)

    def test_dimension_mismatch(self):
        model = fit_decision_tree(fm([[1], [2]], [0, 1]))
        with pytest.raises(DataError, match=r"DT: expected \(n, 1\) inputs, got \(3, 2\)"):
            model.predict(np.zeros((3, 2)))


# -- exact split search vs the per-node float-argsort grower --------------------

def best_split_reference(Xn, yn, wn, feature_ids, min_leaf):
    """The split search trees were grown with before value ranks: a stable
    float argsort of every candidate feature at every node, one feature at
    a time."""
    n = len(yn)
    total_w = wn.sum()
    total_w1 = wn @ yn
    best_score = np.inf
    best = None
    for f in feature_ids:
        x = Xn[:, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        ws = wn[order]
        w1s = ws * yn[order]
        cw = np.cumsum(ws)
        cw1 = np.cumsum(w1s)
        pos = np.nonzero(xs[1:] > xs[:-1])[0]  # boundary after position i
        if min_leaf > 1:
            pos = pos[(pos + 1 >= min_leaf) & (n - 1 - pos >= min_leaf)]
        if pos.size == 0:
            continue
        wl = cw[pos]
        wl1 = cw1[pos]
        wr = total_w - wl
        wr1 = total_w1 - wl1
        gini_l = 1.0 - ((wl1 / wl) ** 2 + ((wl - wl1) / wl) ** 2)
        gini_r = 1.0 - ((wr1 / wr) ** 2 + ((wr - wr1) / wr) ** 2)
        score = (wl * gini_l + wr * gini_r) / total_w
        k = int(np.argmin(score))  # first minimum -> lowest threshold
        if score[k] < best_score:
            best_score = float(score[k])
            thr = 0.5 * (xs[pos[k]] + xs[pos[k] + 1])
            if thr >= xs[pos[k] + 1]:
                thr = xs[pos[k]]
            best = (best_score, int(f), thr)
    return best


def grow_tree_reference(X, y, w, hp, rng=None, max_features=None):
    """`grow_tree` as it was before value ranks, node for node."""
    d = X.shape[1]
    feature, threshold, left, right, p1, node_w = [], [], [], [], [], []
    stack = [(np.arange(len(y)), 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        slot = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = slot
            else:
                right[parent] = slot
        yn = y[idx]
        wn = w[idx]
        wsum = wn.sum()
        frac1 = (wn @ yn) / wsum
        pure = yn.min() == yn.max()
        at_depth = hp.max_depth is not None and depth >= hp.max_depth
        choice = None
        if not pure and not at_depth and len(idx) >= hp.min_samples_split:
            if max_features is not None and max_features < d:
                feats = np.sort(rng.choice(d, size=max_features, replace=False))
            else:
                feats = np.arange(d)
            choice = best_split_reference(X[idx], yn, wn, feats, hp.min_samples_leaf)
        if choice is None:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
        else:
            _, f, thr = choice
            go_left = X[idx, f] <= thr
            feature.append(f)
            threshold.append(thr)
            left.append(-1)
            right.append(-1)
            stack.append((idx[~go_left], depth + 1, slot, False))
            stack.append((idx[go_left], depth + 1, slot, True))
        p1.append(frac1)
        node_w.append(wsum)
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "p1": np.array(p1),
        "node_weight": np.array(node_w),
    }


# +-0, NaN, the smallest subnormal, and two adjacent floats whose midpoint
# rounds up to the upper one
_SPECIAL_VALUES = [-0.0, 0.0, np.nan, 5e-324, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51]
# 2**-53 is lost against 1.0 in one summation order and kept in another, so
# cumulative weights depend on the order of tied rows
_WEIGHTS = [1.0, 3.0, 0.37, 2.0 ** -53, 1e-300, 0.0]


@st.composite
def tree_inputs(draw):
    """A base matrix with ties (quarter steps), NaN, +-0 and continuous
    values, the rows a tree is grown on (drawn with repeats, as a bootstrap
    draws them), labels, uneven and tiny weights, and tree settings."""
    n0 = draw(st.integers(2, 30))
    d = draw(st.integers(1, 4))
    values = (st.sampled_from(_SPECIAL_VALUES) | st.floats(-4, 4)
              | st.integers(-8, 8).map(lambda k: k / 4))
    base = draw(hnp.arrays(float, (n0, d), elements=values))
    rows = np.array(draw(st.lists(st.integers(0, n0 - 1), min_size=2, max_size=60)))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(rows),
                               max_size=len(rows))), dtype=float)
    w = np.array(draw(st.lists(st.sampled_from(_WEIGHTS), min_size=len(rows),
                               max_size=len(rows))))
    hp = TreeParams(min_samples_split=draw(st.integers(2, 5)),
                    min_samples_leaf=draw(st.integers(1, 4)),
                    max_depth=draw(st.none() | st.integers(1, 4)))
    max_features = draw(st.none() | st.integers(1, d))
    return base, rows, y, w, hp, max_features


def same_bits(a, b):
    return all(a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes()
               for k in a)


class TestExactSplitSearch:
    @given(tree_inputs(), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 16, 64, tree_mod._SPLIT_CELLS]),
           st.sampled_from([1, 8, tree_mod._RADIX_WIDTH]))
    @settings(deadline=None, max_examples=300)
    def test_grow_tree_equals_float_argsort_grower(self, inputs, seed, cells, radix):
        base, rows, y, w, hp, max_features = inputs
        X = base[rows]
        # zero weights give 0/0 scores, which both growers skip
        with np.errstate(divide="ignore", invalid="ignore"):
            expect = grow_tree_reference(X, y, w, hp, np.random.default_rng(seed),
                                         max_features)
            with mock.patch.object(tree_mod, "_SPLIT_CELLS", cells), \
                    mock.patch.object(tree_mod, "_RADIX_WIDTH", radix):
                got = tree_mod.CartGrower(X, y, hp, max_features).grow(
                    w, rngs=[np.random.default_rng(seed)])[0]
        assert same_bits(got, expect)

    @given(tree_inputs(), st.sampled_from([1, 16, tree_mod._SPLIT_CELLS]),
           st.sampled_from([1, tree_mod._RADIX_WIDTH]))
    @settings(deadline=None, max_examples=300)
    def test_root_split_score_equals_float_argsort_search(self, inputs, cells, radix):
        # the score carries the cumulative weights, so it also checks that
        # tied rows are summed in the order a stable float sort gives
        base, rows, y, w, hp, _ = inputs
        X = base[rows]
        n, d = X.shape
        feats = np.arange(d)
        with np.errstate(divide="ignore", invalid="ignore"):
            expect = best_split_reference(X, y, w, feats, hp.min_samples_leaf)
            with mock.patch.object(tree_mod, "_SPLIT_CELLS", cells), \
                    mock.patch.object(tree_mod, "_RADIX_WIDTH", radix):
                grower = tree_mod.CartGrower(X, y, hp)
                wp = np.append(w, 0.0)
                found, score, feature, thr = grower.search(
                    (wp, wp * grower.y), np.arange(n), np.array([0]), np.array([n]),
                    np.array([w.sum()]), np.array([w @ y]), feats[None, :])
        if expect is None:
            assert not found[0]
        else:
            assert found[0] and feature[0] == expect[1]
            assert np.array([score[0], thr[0]]).tobytes() == \
                np.array([expect[0], expect[2]]).tobytes()

    @given(st.data(), st.integers(1, 7), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 16, tree_mod._SPLIT_CELLS]),
           st.sampled_from([1, 8, tree_mod._RADIX_WIDTH]),
           st.sampled_from([0, 300, (1 << 16) + 10]))
    @settings(deadline=None, max_examples=150)
    def test_lockstep_forest_trees_equal_float_argsort_grower(
            self, data, n_trees, seed, cells, radix, n_distinct):
        # every tree of one lockstep forest is the tree grown alone on its
        # bag, and each draws its split features from its own generator;
        # extra rows of distinct values widen the ranks to uint16 or uint32
        base, _, _, _, hp, max_features = data.draw(tree_inputs())
        n0, d = base.shape
        extra = np.zeros((n_distinct, d))
        extra[:, 0] = np.arange(n_distinct) * 0.25 + 1000.0
        X = np.vstack([base, extra])
        # the bags draw from the base rows and the first extra rows
        n_used = n0 + min(n_distinct, 3)
        y, w = np.zeros(len(X)), np.ones(len(X))
        y[:n_used] = data.draw(st.lists(st.integers(0, 1), min_size=n_used,
                                        max_size=n_used))
        w[:n_used] = data.draw(st.lists(st.sampled_from(_WEIGHTS), min_size=n_used,
                                        max_size=n_used))
        rows = st.integers(0, n_used - 1)
        bags = [np.array(data.draw(st.lists(rows, min_size=1, max_size=40)))
                for _ in range(n_trees)]
        with np.errstate(divide="ignore", invalid="ignore"):
            with mock.patch.object(tree_mod, "_SPLIT_CELLS", cells), \
                    mock.patch.object(tree_mod, "_RADIX_WIDTH", radix):
                grower = tree_mod.CartGrower(X, y, hp, max_features)
                trees = grower.grow(w, bags, [np.random.default_rng((seed, t))
                                              for t in range(n_trees)])
            for t, (bag, got) in enumerate(zip(bags, trees)):
                expect = grow_tree_reference(X[bag], y[bag], w[bag], hp,
                                             np.random.default_rng((seed, t)),
                                             max_features)
                assert same_bits(got, expect)
        assert grower.ranks.dtype == {0: np.uint8, 300: np.uint16}.get(n_distinct, np.uint32)

    def test_forest_trees_equal_float_argsort_grower(self):
        # each bootstrap tree gets the columns of its rows from the forest's
        # one ranking of the whole matrix
        X, y = blobs(60, d=4, sep=1.0, seed=41)
        matrix = fm(np.round(X, 1), y, np.random.default_rng(42).uniform(0.1, 3.0, 120))
        w, yf = matrix.normalized_weights(), y.astype(float)
        forest = fit_random_forest(matrix, ForestParams(n_estimators=5), seed=7)
        for i, nodes in enumerate(forest.trees):
            rng = np.random.default_rng(np.random.SeedSequence((7, i)))
            idx = rng.integers(0, 120, size=120)
            expect = grow_tree_reference(matrix.X[idx], yf[idx], w[idx], TreeParams(),
                                         rng, max_features=2)
            assert same_bits(nodes, expect)

    def test_value_ranks_nan_and_signed_zero(self):
        X = np.array([[np.nan, 3.0], [1.0, -0.0], [-0.0, 3.0], [0.0, np.nan],
                      [np.nan, 0.0], [-2.0, -1.0]])
        ranks = tree_mod.value_ranks(X)
        assert ranks.shape == (2, 6) and ranks.dtype == np.uint8
        # -0.0 and 0.0 share a rank, NaN ranks last and NaNs share a rank
        assert ranks[0].tolist() == [3, 2, 1, 1, 3, 0]
        assert ranks[1].tolist() == [2, 1, 2, 3, 1, 0]
        for col, r in zip(X.T, ranks):
            assert np.array_equal(np.argsort(r, kind="stable"),
                                  np.argsort(col, kind="stable"))

    def test_value_ranks_widen_past_uint16(self):
        rng = np.random.default_rng(43)
        n = (1 << 16) + 1000
        X = np.column_stack([rng.permutation(n) * 0.5 - 100.0,
                             rng.integers(0, 3, n).astype(float)])
        X[::1000, 0] = np.nan
        ranks = tree_mod.value_ranks(X)
        assert ranks.dtype == np.uint32
        assert int(ranks[0].max()) >= 1 << 16
        for col, r in zip(X.T, ranks):
            assert np.array_equal(np.argsort(r, kind="stable"),
                                  np.argsort(col, kind="stable"))

    def test_value_ranks_smallest_dtype(self):
        assert tree_mod.value_ranks(np.arange(256.0)[:, None]).dtype == np.uint8
        assert tree_mod.value_ranks(np.arange(257.0)[:, None]).dtype == np.uint16
        assert tree_mod.value_ranks(np.arange(65536.0)[:, None]).dtype == np.uint16


def grower_rounds(fit):
    """fit()'s result and the round count of each `grow_preorder` call it
    made."""
    rounds = []
    grow = tree_mod.grow_preorder

    def counted(*args):
        trees, n_rounds = grow(*args)
        rounds.append(n_rounds)
        return trees, n_rounds
    with mock.patch.object(tree_mod, "grow_preorder", counted):
        return fit(), rounds


class TestSettledLeaves:
    """Pure nodes, nodes under min_samples_split and nodes at max_depth are
    settled as leaves in their parent's round: no round pops them."""

    def test_depth_one_stumps(self):
        rng = np.random.default_rng(45)
        X = np.round(rng.normal(0, 1, (80, 3)), 1)
        y = (X[:, 0] + rng.normal(0, 0.5, 80) > 0).astype(float)
        w = rng.uniform(0.5, 2.0, 80)
        hp = TreeParams(max_depth=1)
        got, rounds = grower_rounds(lambda: grow_tree(X, y, w, hp))
        assert same_bits(got, grow_tree_reference(X, y, w, hp))
        assert got["feature"].tolist()[1:] == [-1, -1] and rounds == [1]
        # every AdaBoost round grows one stump in one grower round
        model, rounds = grower_rounds(
            lambda: fit_adaboost(fm(X, y.astype(int), w), AdaBoostParams(n_estimators=5)))
        assert rounds == [1] * len(model.stumps)

    @pytest.mark.parametrize("labels,min_split", [([1, 1, 1, 1, 1, 1], 2),
                                                  ([0, 1, 0, 1, 1, 0], 7)])
    def test_root_leaf(self, labels, min_split):
        X = np.arange(12.0).reshape(6, 2)
        y = np.array(labels, dtype=float)
        w = np.array([1.0, 2.0, 0.5, 1.0, 3.0, 1.0])
        hp = TreeParams(min_samples_split=min_split)
        got, rounds = grower_rounds(lambda: grow_tree(X, y, w, hp))
        assert same_bits(got, grow_tree_reference(X, y, w, hp))
        assert len(got["feature"]) == 1 and rounds == [0]

    def test_forest_rounds_equal_largest_candidate_count(self):
        # distinct values: every node that is not settled splits, so the
        # inner nodes are the candidates
        X, y = blobs(60, d=3, sep=1.0, seed=46)
        forest, rounds = grower_rounds(
            lambda: fit_random_forest(fm(X, y), ForestParams(n_estimators=8), seed=3))
        assert rounds == [max(np.count_nonzero(t["feature"] >= 0) for t in forest.trees)]


# -- random forest ---------------------------------------------------------------

class TestRandomForest:
    def test_single_tree_no_bootstrap_reduces_to_cart(self):
        X, y = blobs(30, d=3, seed=5, sep=2.0)
        hp = ForestParams(n_estimators=1, bootstrap=False, max_features=3)
        forest = fit_random_forest(fm(X, y), hp, seed=0)
        tree = fit_decision_tree(fm(X, y))
        grid = np.random.default_rng(1).normal(1, 2, (100, 3))
        assert np.array_equal(forest.predict(grid), tree.predict(grid))

    def test_deterministic_given_seed(self):
        X, y = blobs(25, seed=6, sep=1.5)
        hp = ForestParams(n_estimators=12)
        grid = np.random.default_rng(2).normal(2, 2, (50, 2))
        a = fit_random_forest(fm(X, y), hp, seed=3).decision_score(grid)
        b = fit_random_forest(fm(X, y), hp, seed=3).decision_score(grid)
        c = fit_random_forest(fm(X, y), hp, seed=4).decision_score(grid)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_votes_are_tree_fractions(self):
        X, y = blobs(25, seed=7, sep=1.0, spread=1.5)
        model = fit_random_forest(fm(X, y), ForestParams(n_estimators=10), seed=0)
        grid = np.random.default_rng(3).normal(2, 3, (200, 2))
        score = model.decision_score(grid)
        assert np.all((score >= 0) & (score <= 1))
        votes = score * 10
        assert np.allclose(votes, np.round(votes), atol=1e-12)
        assert np.any((score > 0) & (score < 1))  # trees disagree somewhere


# -- SVM ---------------------------------------------------------------

class TestKernels:
    # n covers every n % 8, which picks the BLAS kernels' edge blocks
    @pytest.mark.parametrize("d", [1, 2, 3, 14, 17])
    @pytest.mark.parametrize("n", range(24, 32))
    def test_cached_rows_equal_rbf_kernel_calls(self, d, n, monkeypatch):
        X = np.random.default_rng(100 * d + n).normal(0.0, 1.0, (n, d))
        gamma = resolve_gamma("scale", X)
        monkeypatch.setattr(kernels_mod, "_KERNEL_CACHE_BYTES", 2 * 8 * n)
        cache = KernelRowCache(X, gamma)
        assert cache.capacity == 2
        for idx in ([0], [n - 1], [5], [0, 1], [n - 1, 3], [7, 7 + n // 2]):
            rows = cache.rows(idx)
            expect = rbf_kernel(X[idx], X, gamma)
            assert len(rows) == len(idx)
            for row, e in zip(rows, expect):
                assert row.dtype == e.dtype and row.tobytes() == e.tobytes()

    def test_rbf_hand_value(self):
        K = rbf_kernel(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), 0.5)
        assert K[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_gamma_scale_hand_value(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0]])
        # per-feature biased variance 1 -> gamma = 1 / (d * mean var) = 0.5
        assert gamma_scale(X) == pytest.approx(0.5, rel=1e-12)


def smo_reference(X, gamma, beta, grad, lo, hi, tol, max_iter):
    """Reference: `smo` rederiving both selection sets and rescanning them
    at every step, with each pair's kernel rows from their own
    `rbf_kernel` call. Updates beta and grad in place; returns (n_iter,
    converged)."""
    for n_iter in range(max_iter):
        dec_idx = np.nonzero(beta > lo + 1e-14)[0]
        inc_idx = np.nonzero(beta < hi - 1e-14)[0]
        if dec_idx.size == 0 or inc_idx.size == 0:
            return n_iter, True
        i = dec_idx[np.argmax(grad[dec_idx])]
        j = inc_idx[np.argmin(grad[inc_idx])]
        if grad[i] - grad[j] <= tol:
            return n_iter, True
        Ki, Kj = rbf_kernel(X[[i, j]], X, gamma)
        quad = max(Ki[i] + Kj[j] - 2.0 * Ki[j], 1e-12)
        delta = min((grad[i] - grad[j]) / quad, beta[i] - lo[i], hi[j] - beta[j])
        beta[i] -= delta
        beta[j] += delta
        grad += delta * (Kj - Ki)
    return max_iter, False


def fit_svc_rbf_reference(X, y, C, gamma, tol, max_iter):
    """Reference: the SVC dual in b = y * alpha solved by `smo_reference`.
    y holds -1/+1 and C the per-sample bounds. Returns (alpha, intercept,
    n_iter, converged)."""
    beta = np.zeros(len(X))
    grad = -y
    lo = np.where(y < 0, -C, 0.0)
    hi = np.where(y > 0, C, 0.0)
    n_iter, converged = smo_reference(X, gamma, beta, grad, lo, hi, tol, max_iter)
    alpha = y * beta
    yg = -grad
    free = (alpha > 1e-8 * C) & (alpha < C * (1.0 - 1e-8))
    if free.any():
        b = float(np.mean(yg[free]))
    else:
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        b = float(0.5 * (hi + lo))
    return alpha, b, n_iter, converged


@st.composite
def smo_problems(draw):
    """SVC-form problems: rows drawn with repeats from a small base matrix,
    optionally rounded; labels of mixed sign; per-sample C, often tied;
    tol 1e-3 or 1e-6; an early stop after 5 steps or none; and a cache of
    one pair's rows or of every row."""
    d = draw(st.integers(1, 14))
    n0 = draw(st.integers(1, 30))
    values = st.floats(-4, 4) | st.integers(-8, 8).map(lambda k: k / 4)
    base = draw(hnp.arrays(float, (n0, d), elements=values))
    if draw(st.booleans()):
        base = np.round(base, 1)
    n = draw(st.integers(2, 60))
    X = base[draw(hnp.arrays(np.int64, n, elements=st.integers(0, n0 - 1)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y = rng.choice([-1.0, 1.0], n)
    C = np.round(rng.uniform(0.01, 10.0, n), draw(st.sampled_from([0, 2, 17]))) + 0.01
    return (X, y, C, draw(st.sampled_from([1e-3, 1e-6])),
            draw(st.sampled_from([5, 100_000])), draw(st.sampled_from([2, 1000])))


class TestSmo:
    @settings(max_examples=150, deadline=None)
    @given(smo_problems())
    def test_equals_rescanning_smo(self, problem):
        X, y, C, tol, max_iter, capacity = problem
        gamma = resolve_gamma("scale", X)
        lo = np.where(y < 0, -C, 0.0)
        hi = np.where(y > 0, C, 0.0)
        beta, grad = np.zeros(len(X)), -y
        ref_beta, ref_grad = beta.copy(), grad.copy()
        with mock.patch.object(kernels_mod, "_KERNEL_CACHE_BYTES", capacity * 8 * len(X)):
            cache = KernelRowCache(X, gamma)
        got = smo(cache, beta, grad, lo, hi, tol, max_iter)
        expect = smo_reference(X, gamma, ref_beta, ref_grad, lo, hi, tol, max_iter)
        assert got == expect
        assert beta.tobytes() == ref_beta.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


class TestSvc:
    def assert_matches_reference(self, matrix, hp):
        model = fit_svc_rbf(matrix, hp)
        y = matrix.signed_labels()
        alpha, b, n_iter, converged = fit_svc_rbf_reference(
            matrix.X, y, hp.C * matrix.normalized_weights(),
            resolve_gamma(hp.gamma, matrix.X), hp.tol, hp.max_iter)
        sv = alpha > 1e-12
        assert model.dual_coef.tobytes() == (alpha * y)[sv].tobytes()
        assert model.intercept == b
        assert model.support_X.tobytes() == matrix.X[sv].tobytes()
        assert model.meta["n_iter"] == n_iter
        assert model.meta["n_support"] == int(sv.sum())
        assert model.converged == converged
        return model

    def test_class_weighted_fit_equals_rescanning_smo(self):
        X, y = blobs(40, d=3, sep=1.5, seed=20)
        X, y = X[:55], y[:55]  # 40 controls, 15 cases
        w = np.where(y == 1, 40 / 15, 1.0)
        model = self.assert_matches_reference(fm(X, y, w), SvcParams(C=2.0))
        assert model.converged

    def test_tied_rows_fit_equals_rescanning_smo(self):
        X, y = blobs(50, seed=21, sep=1.0)
        X = np.round(X, 1)
        X[::7] = X[0]
        X[::11, 1] = -0.0
        self.assert_matches_reference(fm(X, y), SvcParams(C=1.0))

    def test_unconverged_fit_equals_rescanning_smo(self):
        X, y = blobs(30, seed=22, sep=0.5)
        model = self.assert_matches_reference(fm(X, y), SvcParams(max_iter=5))
        assert not model.converged
        assert model.meta["n_iter"] == 5

    def test_forced_eviction_equals_rescanning_smo(self, monkeypatch):
        X, y = blobs(40, d=14, sep=0.8, seed=23)
        full = fit_svc_rbf(fm(X, y), SvcParams())
        # room for the 2 rows of one pair
        monkeypatch.setattr(kernels_mod, "_KERNEL_CACHE_BYTES", 2 * 8 * len(X))
        model = self.assert_matches_reference(fm(X, y), SvcParams())
        assert model.meta["kernel_rows"] > full.meta["kernel_rows"]
        assert full.meta["kernel_rows"] <= 2 * full.meta["n_iter"]

    def test_xor_is_separated(self):
        X = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
        y = np.array([0, 0, 1, 1])
        model = fit_svc_rbf(fm(X, y), SvcParams(C=10.0, gamma=1.0))
        assert model.converged
        assert np.array_equal(model.predict(X), y)

    def test_mirrored_data_gives_antisymmetric_scores(self):
        rng = np.random.default_rng(10)
        pos = rng.normal(2.0, 1.0, (30, 2))
        X = np.vstack([pos, -pos])
        y = np.array([1] * 30 + [0] * 30)
        model = fit_svc_rbf(fm(X, y), SvcParams(C=1.0, gamma=0.5))
        origin = model.decision_score(np.zeros((1, 2)))[0]
        assert abs(origin) <= 1e-3
        probe = rng.normal(0, 2, (20, 2))
        s = model.decision_score(probe)
        s_neg = model.decision_score(-probe)
        assert np.allclose(s, -s_neg, atol=2e-3)

    def test_kkt_conditions_hold(self):
        X, y = blobs(30, seed=11, sep=2.0)
        hp = SvcParams(C=1.0)
        model = fit_svc_rbf(fm(X, y), hp)
        assert model.converged
        # recover alpha per training row from the stored support set
        sv = {row.tobytes(): abs(c)
              for row, c in zip(model.support_X, model.dual_coef)}
        alpha = np.array([sv.get(row.tobytes(), 0.0) for row in X])
        ypm = np.where(y == 1, 1.0, -1.0)
        yf = ypm * model.decision_score(X)
        slack = 2.0 * hp.tol
        free = (alpha > 1e-8) & (alpha < hp.C - 1e-8)
        assert np.all(yf[alpha <= 1e-8] >= 1.0 - slack)
        assert np.all(np.abs(yf[free] - 1.0) <= slack)
        assert np.all(yf[alpha >= hp.C - 1e-8] <= 1.0 + slack)
        # dual feasibility: sum alpha_i y_i = 0, 0 <= alpha <= C
        assert abs(np.sum(alpha * ypm)) <= 1e-9
        assert alpha.max() <= hp.C + 1e-12

    def test_gamma_resolution_recorded(self):
        X, y = blobs(10, seed=12)
        model = fit_svc_rbf(fm(X, y), SvcParams(gamma="scale"))
        assert model.gamma == pytest.approx(gamma_scale(X))
        with pytest.raises(InvalidSpec, match="gamma must be positive, got -1.0"):
            fit_svc_rbf(fm(X, y), SvcParams(gamma=-1.0))


# -- AdaBoost ---------------------------------------------------------------

class TestAdaBoost:
    def test_perfect_stump_stops_after_one_round(self):
        model = fit_adaboost(fm([[1], [2], [3], [4]], [0, 0, 1, 1]))
        assert len(model.alphas) == 1
        assert model.alphas[0] == pytest.approx(math.log((1 - 1e-10) / 1e-10))
        assert np.array_equal(model.predict(np.array([[0.0], [9.0]])), [0, 1])

    def test_hand_worked_reweighting(self):
        # one mislabeled point; round-1 error 1/8 so alpha_1 = ln 7, and the
        # 7x upweight moves round 2's best split from 3.5 to 6.5
        X = np.arange(8, dtype=float).reshape(-1, 1)
        y = np.array([0, 0, 0, 0, 1, 1, 1, 0])
        model = fit_adaboost(fm(X, y), AdaBoostParams(n_estimators=2))
        assert model.alphas[0] == pytest.approx(math.log(7.0), rel=1e-12)
        assert len(model.alphas) == 2
        assert float(model.stumps[0]["threshold"][0]) == 3.5
        assert float(model.stumps[1]["threshold"][0]) == 6.5
        # second stump predicts class 0 everywhere: weighted error 3/14
        assert model.alphas[1] == pytest.approx(math.log(11.0 / 3.0), rel=1e-12)
        assert np.array_equal(model.predict(X), [0, 0, 0, 0, 1, 1, 1, 1])

    def test_at_chance_fallback(self):
        # identical inputs, opposite labels: no usable stump
        model = fit_adaboost(fm([[0.0], [0.0]], [0, 1]))
        assert model.alphas == [0.0]
        assert np.array_equal(model.predict(np.array([[0.0], [5.0]])), [0, 0])

    @pytest.mark.parametrize("depth,cells", [(1, tree_mod._SPLIT_CELLS), (1, 16), (2, 64)])
    def test_every_stump_equals_float_argsort_grower(self, monkeypatch, depth, cells):
        # the grower sorts the root once per fit; each round's stump must be
        # the tree grown alone under that round's weights
        monkeypatch.setattr(tree_mod, "_SPLIT_CELLS", cells)
        rng = np.random.default_rng(44)
        X = np.round(rng.normal(0, 1, (150, 3)), 1)  # ties
        y = (X[:, 0] + X[:, 1] ** 2 + rng.normal(0, 0.5, 150) > 0.5).astype(int)
        matrix = fm(X, y, rng.uniform(0.5, 2.0, 150))
        model = fit_adaboost(matrix, AdaBoostParams(n_estimators=12, base_max_depth=depth))
        assert len(model.stumps) == 12
        dist = matrix.normalized_weights()
        dist = dist / dist.sum()
        for stump, alpha in zip(model.stumps, model.alphas):
            expect = grow_tree_reference(X, y.astype(float), dist, TreeParams(max_depth=depth))
            assert same_bits(stump, expect)
            mis = (descend(stump, X) > 0.5) != y.astype(bool)
            dist = dist * np.exp(alpha * mis)
            dist = dist / dist.sum()

    def test_boosting_beats_single_stump(self):
        rng = np.random.default_rng(13)
        X = rng.normal(0, 1, (200, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)  # diagonal: hard for one stump
        stump = fit_adaboost(fm(X, y), AdaBoostParams(n_estimators=1))
        boosted = fit_adaboost(fm(X, y), AdaBoostParams(n_estimators=40))

        def acc(m):
            return np.mean(m.predict(X) == y)

        assert acc(boosted) > acc(stump) + 0.1
        assert acc(boosted) >= 0.95


# -- logistic regression ---------------------------------------------------------------

class TestLogReg:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n, d = int(rng.integers(5, 40)), int(rng.integers(1, 5))
            X = rng.normal(0, 1.5, (n, d))
            y = rng.integers(0, 2, n)
            sw = rng.uniform(0.5, 2.0, n)
            l2 = float(rng.uniform(0.0, 2.0))
            params = rng.normal(0, 0.8, d + 1)
            _, grad = logreg_objective(params, X, y, sw, l2)
            fd = np.empty_like(params)
            h = 1e-6
            for j in range(len(params)):
                e = np.zeros_like(params)
                e[j] = h
                fp, _ = logreg_objective(params + e, X, y, sw, l2)
                fm_, _ = logreg_objective(params - e, X, y, sw, l2)
                fd[j] = (fp - fm_) / (2 * h)
            assert np.allclose(grad, fd, rtol=1e-6, atol=1e-6)

    def test_mirrored_data_zero_intercept(self):
        rng = np.random.default_rng(15)
        pos = rng.normal(1.0, 1.5, (100, 2))  # overlapping, not separable
        X = np.vstack([pos, -pos])
        y = np.array([1] * 100 + [0] * 100)
        model = fit_logreg(fm(X, y), LogRegParams(tol=1e-8, max_iter=500))
        assert abs(model.intercept) <= 1e-6

    def test_gradient_small_at_optimum(self):
        X, y = blobs(40, seed=16, sep=2.0, spread=1.5)
        hp = LogRegParams(tol=1e-5, max_iter=300)
        model = fit_logreg(fm(X, y), hp)
        assert model.converged
        params = np.append(model.weights, model.intercept)
        sw = np.ones(len(y))
        _, grad = logreg_objective(params, X, y, sw, hp.l2)
        assert np.abs(grad).max() <= hp.tol

    def test_weight_scale_invariance(self):
        X, y = blobs(25, seed=17)
        w = np.random.default_rng(0).uniform(0.5, 3.0, 50)
        a = fit_logreg(fm(X, y, w))
        b = fit_logreg(fm(X, y, w * 7.0))
        assert np.array_equal(a.weights, b.weights)
        assert a.intercept == b.intercept


# -- perceptron ---------------------------------------------------------------

def fit_perceptron_reference(matrix, hp, seed=0, chunk=2048):
    """`fit_perceptron` as it scanned before: each chunk gathers its rows
    from the training matrix through the epoch's permutation."""
    rng = np.random.default_rng(seed)
    sw_all = matrix.normalized_weights()
    ypm_all = matrix.signed_labels()
    n = matrix.n
    monitor_idx = None
    train_idx = np.arange(n)
    if hp.validation_fraction > 0:
        n_val = int(np.floor(hp.validation_fraction * n + 0.5))
        if 0 < n_val < n:
            perm = rng.permutation(n)
            monitor_idx = perm[:n_val]
            train_idx = perm[n_val:]
    X, ypm, sw = matrix.X[train_idx], ypm_all[train_idx], sw_all[train_idx]
    w = np.zeros(matrix.d)
    b = 0.0
    shrink = 1.0 - hp.eta0 * hp.alpha
    best_loss, no_change, stop, epochs = np.inf, 0, "max_iter", 0
    for _ in range(hp.max_iter):
        epochs += 1
        order = rng.permutation(len(X)) if hp.shuffle else np.arange(len(X))
        mistakes = 0
        ptr = 0
        while ptr < len(order):
            idx = order[ptr:ptr + chunk]
            margins = ypm[idx] * (X[idx] @ w + b)
            bad = np.nonzero(margins <= 0.0)[0]
            if bad.size == 0:
                ptr += len(idx)
                continue
            k = idx[bad[0]]
            step = hp.eta0 * sw[k] * ypm[k]
            w = shrink * w + step * X[k]
            b += step
            mistakes += 1
            ptr += bad[0] + 1
        if mistakes == 0:
            stop = "separated"
            break
        if monitor_idx is not None:
            mX, my, ms = matrix.X[monitor_idx], ypm_all[monitor_idx], sw_all[monitor_idx]
        else:
            mX, my, ms = X, ypm, sw
        loss = float(ms @ np.maximum(0.0, -(my * (mX @ w + b))))
        if loss > best_loss - hp.tol:
            no_change += 1
            if no_change >= hp.n_iter_no_change:
                stop = "plateau"
                break
        else:
            no_change = 0
        best_loss = min(best_loss, loss)
    return w, float(b), epochs, stop


class TestPerceptron:
    @pytest.mark.parametrize("chunk", [1, 7, 2048])
    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("validation_fraction", [0.0, 0.1])
    def test_contiguous_scan_equals_gathering_scan(self, chunk, shuffle,
                                                   validation_fraction, monkeypatch):
        X, y = blobs(300, d=4, seed=45, sep=1.5, spread=1.5)
        matrix = fm(X, y, np.random.default_rng(46).uniform(0.5, 2.0, 600))
        hp = PerceptronParams(shuffle=shuffle, validation_fraction=validation_fraction,
                              max_iter=15)
        monkeypatch.setattr(linear_mod, "_CHUNK", chunk)
        model = fit_perceptron(matrix, hp, seed=3)
        w, b, epochs, stop = fit_perceptron_reference(matrix, hp, seed=3, chunk=chunk)
        assert model.weights.tobytes() == w.tobytes()
        assert np.float64(model.intercept).tobytes() == np.float64(b).tobytes()
        assert (model.meta["n_epochs"], model.meta["stop"]) == (epochs, stop)
        assert epochs > 1

    def test_separable_data_converges_mistake_free(self):
        X, y = blobs(50, seed=19, sep=6.0)
        hp = PerceptronParams(validation_fraction=0.0, alpha=0.0)
        model = fit_perceptron(fm(X, y), hp)
        assert model.converged
        assert model.meta["stop"] == "separated"
        assert np.array_equal(model.predict(X), y)

    def test_eta0_scales_scores_exactly(self):
        X, y = blobs(30, seed=20, sep=1.0, spread=2.0)
        base = dict(alpha=0.0, validation_fraction=0.0, shuffle=False,
                    max_iter=20, n_iter_no_change=3)
        a = fit_perceptron(fm(X, y), PerceptronParams(eta0=1.0, **base))
        b = fit_perceptron(fm(X, y), PerceptronParams(eta0=2.0, **base))
        probe = np.random.default_rng(4).normal(0, 2, (40, 2))
        assert np.array_equal(2.0 * a.decision_score(probe),
                              b.decision_score(probe))
        assert np.array_equal(a.predict(probe), b.predict(probe))

    def test_plateau_stops_early_on_noise(self):
        rng = np.random.default_rng(21)
        X = rng.normal(0, 1, (300, 2))
        y = rng.integers(0, 2, 300)  # pure noise cannot converge
        hp = PerceptronParams(max_iter=100, n_iter_no_change=3)
        model = fit_perceptron(fm(X, y), hp, seed=1)
        # the plateau is the normal stop on noise, not a failure to converge
        assert model.meta["stop"] == "plateau"
        assert model.converged
        assert model.meta["n_epochs"] < 100

    def test_epoch_cap_is_not_converged(self):
        rng = np.random.default_rng(21)
        X = rng.normal(0, 1, (300, 2))
        y = rng.integers(0, 2, 300)
        hp = PerceptronParams(max_iter=2, n_iter_no_change=3)
        model = fit_perceptron(fm(X, y), hp, seed=1)
        assert model.meta["stop"] == "max_iter"
        assert model.meta["n_epochs"] == 2
        assert not model.converged
        assert not model_from_dict(model.to_dict()).converged

    def test_hyperparameter_validation(self):
        with pytest.raises(InvalidSpec, match="eta0 must be positive"):
            PerceptronParams(eta0=0.0)
        with pytest.raises(InvalidSpec, match="alpha must be >= 0"):
            PerceptronParams(alpha=-1.0)
        X, y = blobs(5, seed=0)
        with pytest.raises(InvalidSpec, match=r"eta0 \* alpha must be < 1"):
            fit_perceptron(fm(X, y), PerceptronParams(eta0=2.0, alpha=0.5))


# -- Gaussian process ---------------------------------------------------------------

class TestGpc:
    def test_lml_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(6, 14))
            X = rng.normal(0, 1, (n, 2))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            ypm = np.where(y == 1, 1.0, -1.0)
            theta = rng.uniform(-1.0, 1.0, 2)
            _, grad = gpc_lml_and_grad(theta, X, ypm)
            h = 1e-5
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fp, _ = gpc_lml_and_grad(theta + e, X, ypm)
                fmv, _ = gpc_lml_and_grad(theta - e, X, ypm)
                fd[j] = (fp - fmv) / (2 * h)
            assert np.allclose(grad, fd, rtol=1e-4, atol=1e-4)

    def test_mirrored_data_gives_half_probability_at_origin(self):
        rng = np.random.default_rng(23)
        pos = rng.normal(1.5, 1.0, (20, 2))
        X = np.vstack([pos, -pos])
        y = np.array([1] * 20 + [0] * 20)
        model = fit_gpc(fm(X, y), GpcParams(optimizer_max_iter=0))
        origin = np.zeros((1, 2))
        assert abs(model.decision_score(origin)[0]) <= 1e-6
        from scipy.special import expit
        assert expit(model.decision_score(origin))[0] == pytest.approx(0.5, abs=1e-6)

    def test_separable_blobs_classified(self):
        X, y = blobs(20, seed=24, sep=5.0)
        model = fit_gpc(fm(X, y), GpcParams(optimizer_max_iter=10))
        assert np.array_equal(model.predict(X), y)
        # Laplace + MacKay damping keeps probabilities conservative, so just
        # require every point confidently on its own side
        from scipy.special import expit
        p = expit(model.decision_score(X))
        assert np.all(p[y == 1] > 0.6) and np.all(p[y == 0] < 0.4)

    def test_hyperparameter_search_does_not_hurt_lml(self):
        X, y = blobs(12, seed=25, sep=2.0)
        ypm = np.where(y == 1, 1.0, -1.0)
        model = fit_gpc(fm(X, y), GpcParams(optimizer_max_iter=15))
        before, _ = gpc_lml_and_grad(np.asarray(default_theta0(X)), X, ypm)
        after, _ = gpc_lml_and_grad(np.asarray(model.theta), X, ypm)
        assert after >= before - 1e-9

    def test_training_size_cap(self):
        X, y = blobs(20, seed=26)
        with pytest.raises(DataError, match="GPC dense solve capped at 10 rows"):
            fit_gpc(fm(X, y), GpcParams(max_train=10))

    def test_final_mode_reuses_last_evaluation(self, monkeypatch):
        X, y = blobs(25, seed=28, sep=2.0)
        modes = []
        real = gpc_mod._posterior_mode
        monkeypatch.setattr(gpc_mod, "_posterior_mode",
                            lambda *a: modes.append(1) or real(*a))
        model = fit_gpc(fm(X, y), GpcParams(optimizer_max_iter=15))
        meta = model.meta
        # one mode search per evaluation; the final mode is the last one's
        assert len(modes) == meta["n_lml_evals"] > 0
        assert meta["newton_steps"] >= meta["n_lml_evals"]
        assert meta["theta"] == model.theta.tolist()
        assert type(meta["theta_at_bound"]) is bool
        monkeypatch.undo()
        # the fit at the final theta without a search recomputes the mode
        again = fit_gpc(fm(X, y), GpcParams(theta0=tuple(model.theta),
                                            optimizer_max_iter=0))
        assert again.meta["n_lml_evals"] == 0 and again.meta["newton_steps"] > 0
        assert again.meta["theta_at_bound"] is False
        assert np.array_equal(again.f_hat, model.f_hat)
        assert np.array_equal(again._L, model._L)
        # and a loaded model rebuilds the same factor
        back = model_from_dict(model.to_dict())
        assert np.array_equal(back._L, model._L)
        assert np.array_equal(back.decision_score(X), model.decision_score(X))

    def test_theta_at_bound_flag(self):
        # labels that carry no signal drive the amplitude to its lower bound
        X = np.random.default_rng(1).normal(size=(30, 2))
        y = np.arange(30) % 2
        model = fit_gpc(fm(X, y), GpcParams())
        assert model.meta["theta"][1] == np.log(1e-2)
        assert model.meta["theta_at_bound"] is True
        # the same data with a signal ends inside the box
        model = fit_gpc(fm(X, (X[:, 0] > 0).astype(int)), GpcParams())
        assert np.log(1e-2) < model.meta["theta"][1] < np.log(1e2)
        assert model.meta["theta_at_bound"] is False


# -- serialization ---------------------------------------------------------------

def fitted_zoo():
    X, y = blobs(15, seed=27, sep=3.0)
    matrix = fm(X, y)
    small_gpc = GpcParams(optimizer_max_iter=0)
    return X, [
        fit_naive_bayes(matrix),
        fit_decision_tree(matrix),
        fit_random_forest(matrix, ForestParams(n_estimators=5), seed=0),
        fit_svc_rbf(matrix),
        fit_adaboost(matrix, AdaBoostParams(n_estimators=5)),
        fit_logreg(matrix),
        fit_perceptron(matrix, PerceptronParams(validation_fraction=0.0)),
        fit_gpc(matrix, small_gpc),
    ]


class TestSerialization:
    def test_round_trip_all_kinds(self, tmp_path):
        X, models = fitted_zoo()
        probe = np.random.default_rng(5).normal(1.5, 2.0, (30, 2))
        seen = set()
        for model in models:
            seen.add(model.kind)
            path = tmp_path / f"{model.kind}.json"
            model.save(path)
            back = load_model(path)
            assert back.kind == model.kind
            assert json.dumps(back.to_dict()) == json.dumps(model.to_dict())
            assert np.array_equal(back.decision_score(probe),
                                  model.decision_score(probe))
            assert np.array_equal(back.predict(probe), model.predict(probe))
        assert seen == {"NB", "DT", "RF", "SVC", "ADA", "LR", "PERC", "GPC"}

    def test_predict_is_score_above_threshold(self):
        X, models = fitted_zoo()
        probe = np.vstack([X, np.random.default_rng(6).normal(1.5, 2.0, (30, 2))])
        for model in models:
            scores = model.decision_score(probe)
            expect = (scores > model.threshold).astype(np.int64)
            assert np.array_equal(model.predict(probe), expect), model.kind

    def test_bad_payloads_rejected(self):
        with pytest.raises(InvalidSpec):
            model_from_dict({"format": "something-else"})
        with pytest.raises(InvalidSpec):
            model_from_dict({"format": "gazescreen-model", "version": 99})
        with pytest.raises(InvalidSpec):
            model_from_dict({"format": "gazescreen-model", "version": 1,
                             "kind": "XX"})
        good = fit_logreg(fm(*blobs(10, seed=7))).to_dict()
        params = good["params"]
        no_intercept = {k: v for k, v in params.items() if k != "intercept"}
        no_n_features = {k: v for k, v in good.items() if k != "n_features"}
        for payload, match in [
                ({**good, "params": no_intercept}, "LR.*intercept"),
                ({**good, "params": {**params, "bias": 0.0}}, "LR.*bias"),
                ({**good, "params": {**params, "intercept": "abc"}}, "LR.*abc"),
                ({**good, "n_features": 3}, r"LR.*expected \(n, 3\)"),
                (no_n_features, "LR.*n_features")]:
            with pytest.raises(InvalidSpec, match=match):
                model_from_dict(payload)

    # one float parameter of each kind that checks them, and where it sits
    @pytest.mark.parametrize("kind,field,index", [
        ("LR", "weights", 0), ("LR", "intercept", None), ("PERC", "weights", 1),
        ("PERC", "intercept", None), ("NB", "class_log_prior", 0), ("NB", "means", 0),
        ("NB", "variances", 1), ("SVC", "support_X", 0), ("SVC", "dual_coef", 0),
        ("SVC", "intercept", None), ("SVC", "gamma", None), ("ADA", "alphas", 0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, kind, field, index, bad):
        # a NaN weight would score every row NaN, which ranks as a number
        model = next(m for m in fitted_zoo()[1] if m.kind == kind)
        payload = json.loads(json.dumps(model.to_dict()))
        params = payload["params"]
        if index is None:
            params[field] = bad
        else:
            value = params[field][index]
            if isinstance(value, list):
                value[0] = bad
            else:
                params[field][index] = bad
        with pytest.raises(InvalidSpec, match=f"{kind} model file.*{field} must be finite"):
            model_from_dict(payload)

    @pytest.mark.parametrize("edit,match", [
        ({"p1": [0.5]}, "equal length"),
        ({"feature": [2, -1, -1]}, r"split feature 2 is outside \[-1, 2\)"),
        ({"feature": [0, -2, -1]}, "split feature -2"),
        ({"left": [3, -1, -1]}, r"node 0 has left child 3"),
        ({"right": [0, -1, -1]}, r"node 0 has right child 0"),
        ({"left": [1, 2, -1]}, r"node 1 has left child 2"),
        ({"depth": [0, 1, 1]}, r"key\(s\) \['depth'\]"),
        ({"threshold": [float("nan"), 0.0, 0.0]}, "threshold must be finite"),
        ({"threshold": [float("inf"), 0.0, 0.0]}, "threshold must be finite"),
        ({"p1": [0.5, float("nan"), 1.0]}, "p1 must be finite"),
        ({"p1": [0.5, 0.0, -float("inf")]}, "p1 must be finite"),
        ({"node_weight": [2.0, float("inf"), 1.0]}, "node_weight must be finite")])
    def test_bad_tree_nodes_rejected(self, edit, match):
        # a stump on 2 columns with one node array edited, in each tree kind
        nodes = {"feature": [1, -1, -1], "threshold": [0.5, 0.0, 0.0],
                 "left": [1, -1, -1], "right": [2, -1, -1],
                 "p1": [0.5, 0.0, 1.0], "node_weight": [2.0, 1.0, 1.0]}
        bad = {**nodes, **edit}
        for kind, params in [("DT", bad), ("RF", {"trees": [nodes, bad]}),
                             ("ADA", {"alphas": [1.0, 0.5], "stumps": [nodes, bad]})]:
            payload = {"format": "gazescreen-model", "version": 1, "kind": kind,
                       "n_features": 2, "meta": {}, "params": params}
            with pytest.raises(InvalidSpec, match=f"{kind} model file.*{match}"):
                model_from_dict(payload)

    def test_file_without_converged_loads_converged(self):
        model = model_from_dict({
            "format": "gazescreen-model", "version": 1, "kind": "LR",
            "n_features": 2, "meta": {},
            "params": {"weights": [1.0, -2.0], "intercept": 0.5}})
        assert model.converged is True
        assert np.array_equal(model.decision_score([[1.0, 1.0], [0.0, 0.0]]),
                              [-0.5, 0.5])


# -- flat ensemble scoring ---------------------------------------------------------

def descend_loop(nodes, X):
    """Reference: one tree's level-by-level descent, as trees were scored
    before all trees of an ensemble were walked together."""
    pos = np.zeros(len(X), dtype=np.int64)
    while True:
        f = nodes["feature"][pos]
        active = f >= 0
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        go_left = X[rows, f[rows]] <= nodes["threshold"][pos[rows]]
        pos[rows] = np.where(go_left, nodes["left"][pos[rows]], nodes["right"][pos[rows]])
    return nodes["p1"][pos]


def forest_score_loop(model, X):
    votes = np.zeros(len(X))
    for nodes in model.trees:
        votes += descend_loop(nodes, X) > 0.5
    return votes / len(model.trees)


def boosting_score_loop(model, X):
    score = np.zeros(len(X))
    for nodes, a in zip(model.stumps, model.alphas):
        score += a * np.where(descend_loop(nodes, X) > 0.5, 1.0, -1.0)
    return score


def on_threshold_rows(trees, X, rng):
    """One row per inner node with that node's feature exactly on its
    threshold, the other features drawn from X, plus a NaN row."""
    rows = []
    for nodes in trees:
        for f, t in zip(nodes["feature"], nodes["threshold"]):
            if f >= 0:
                row = X[rng.integers(len(X))].copy()
                row[f] = t
                rows.append(row)
    rows.append(np.full(X.shape[1], np.nan))
    return np.array(rows)


@pytest.fixture(scope="module")
def ensembles(tmp_path_factory):
    X, y = blobs(120, d=3, sep=1.0, seed=31)
    matrix = fm(X, y)
    rf = fit_random_forest(matrix, ForestParams(n_estimators=7), seed=3)
    ada = fit_adaboost(matrix, AdaBoostParams(n_estimators=9, base_max_depth=2))
    models = []
    for model in (rf, ada):
        path = tmp_path_factory.mktemp("ens") / f"{model.kind}.json"
        model.save(path)
        models += [model, load_model(path)]
    return X, models


class TestFlatEnsemble:
    def _loop(self, model, X):
        if model.kind == "RF":
            return forest_score_loop(model, X)
        return boosting_score_loop(model, X)

    def test_scores_equal_per_tree_loops(self, ensembles):
        X, models = ensembles
        rng = np.random.default_rng(32)
        for model in models:
            trees = model.trees if model.kind == "RF" else model.stumps
            probe = np.vstack([X, rng.normal(0.5, 2.0, (50, 3)),
                               on_threshold_rows(trees, X, rng)])
            assert np.array_equal(model.decision_score(probe), self._loop(model, probe))

    @pytest.mark.parametrize("n_rows", [0, 1, 4, 5, 6, 23])
    def test_row_chunks(self, ensembles, monkeypatch, n_rows):
        # 5 rows per chunk for the 7-tree forest, 4 for the 9-stump ensemble
        monkeypatch.setattr(tree_mod, "_CHUNK_CELLS", 37)
        X, models = ensembles
        probe = np.random.default_rng(n_rows).normal(0.5, 2.0, (n_rows, 3))
        for model in models:
            got = model.decision_score(probe)
            assert got.shape == (n_rows,)
            assert np.array_equal(got, self._loop(model, probe))

    def test_descend_equals_loop(self, ensembles):
        X, models = ensembles
        probe = np.vstack([X, on_threshold_rows(models[0].trees, X,
                                                np.random.default_rng(33))])
        for nodes in models[0].trees:
            assert np.array_equal(descend(nodes, probe), descend_loop(nodes, probe))
