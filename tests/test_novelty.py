"""Novelty detectors: path-length arithmetic, score conventions, dual
feasibility, and the boundary-grid export format."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gazescreen import kernels as kernels_mod
from gazescreen import novelty as novelty_mod
from gazescreen.errors import DataError, InvalidSpec
from gazescreen.kernels import KernelRowCache, rbf_kernel, resolve_gamma
from gazescreen.models import FeatureMatrix, ForestParams, fit_decision_tree, fit_random_forest
from gazescreen.models import tree as tree_mod
from gazescreen.novelty import (
    BoundaryGrid,
    IsoForestParams,
    IsolationForestModel,
    OcsvmParams,
    _iso_ensemble,
    average_path_length,
    export_boundary_grid,
    fit_isolation_forest,
    fit_ocsvm,
    harmonic_number,
    load_boundary_grid,
)


def cloud(n=200, d=2, seed=0):
    return np.random.default_rng(seed).normal(0.0, 1.0, (n, d))


def iso_path_lengths_loop(tree, X):
    """Reference: one isolation tree's descent with the strict `x < t`
    split, as trees were scored before the flat ensemble walk."""
    pos = np.zeros(len(X), dtype=np.int64)
    depth = np.zeros(len(X))
    while True:
        f = tree["feature"][pos]
        active = f >= 0
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        go_left = X[rows, f[rows]] < tree["threshold"][pos[rows]]
        pos[rows] = np.where(go_left, tree["left"][pos[rows]], tree["right"][pos[rows]])
        depth[rows] += 1.0
    tail = np.array([average_path_length(s) for s in tree["size"]])
    return depth + tail[pos]


def grow_iso_tree_reference(X, rng, height_limit):
    """Reference: one isolation tree grown alone, node by node, as trees
    were grown before the lockstep forest grower."""
    feature, threshold, left, right, size, depths = [], [], [], [], [], []
    stack = [(np.arange(len(X)), 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        slot = len(feature)
        if parent >= 0:
            if is_left:
                left[parent] = slot
            else:
                right[parent] = slot
        rows = X[idx]
        lo = rows.min(axis=0) if len(idx) else None
        hi = rows.max(axis=0) if len(idx) else None
        splittable = len(idx) > 1 and depth < height_limit and np.any(hi > lo)
        depths.append(depth)
        if not splittable:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            size.append(len(idx))
            continue
        spread = np.nonzero(hi > lo)[0]
        f = int(spread[rng.integers(0, len(spread))])
        thr = float(rng.uniform(lo[f], hi[f]))
        go_left = rows[:, f] < thr
        feature.append(f)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        size.append(len(idx))
        stack.append((idx[~go_left], depth + 1, slot, False))
        stack.append((idx[go_left], depth + 1, slot, True))
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "size": np.array(size, dtype=np.int64),
        "depth": np.array(depths, dtype=np.int64),
    }


def iso_forest_reference(X, params):
    """Reference: the trees of `fit_isolation_forest`, grown one at a time."""
    psi = min(params.subsample, len(X))
    height_limit = int(np.ceil(np.log2(psi)))
    trees = []
    for i in range(params.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence((params.seed, i)))
        idx = rng.choice(len(X), size=psi, replace=False)
        trees.append(grow_iso_tree_reference(X[idx], rng, height_limit))
    return trees


def fit_ocsvm_reference(X, params):
    """Reference: the one-class SVM's SMO on the dense n x n kernel matrix,
    as it was solved before kernel rows were computed on demand. Returns
    (alphas, rho, support mask, converged)."""
    n = len(X)
    ub = 1.0 / (params.nu * n)
    K = rbf_kernel(X, X, resolve_gamma(params.gamma, X))
    alpha = np.zeros(n)
    n_full = int(np.floor(params.nu * n))
    alpha[:n_full] = ub
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * ub
    grad = np.zeros(n)
    for i in np.nonzero(alpha > 0)[0]:
        grad += alpha[i] * K[i]
    converged = False
    for _ in range(params.max_iter):
        dec_idx = np.nonzero(alpha > 1e-14)[0]
        inc_idx = np.nonzero(alpha < ub - 1e-14)[0]
        if dec_idx.size == 0 or inc_idx.size == 0:
            converged = True
            break
        i = dec_idx[np.argmax(grad[dec_idx])]
        j = inc_idx[np.argmin(grad[inc_idx])]
        if grad[i] - grad[j] <= params.tol:
            converged = True
            break
        quad = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        delta = min((grad[i] - grad[j]) / quad, alpha[i], ub - alpha[j])
        alpha[i] -= delta
        alpha[j] += delta
        grad += delta * (K[j] - K[i])
    free = (alpha > ub * 1e-8) & (alpha < ub * (1.0 - 1e-8))
    if free.any():
        rho = float(np.min(grad[free]))
    else:
        upper = grad[alpha <= ub * 1e-8]
        lower = grad[alpha >= ub * (1.0 - 1e-8)]
        hi = upper.min() if upper.size else grad.max()
        lo = lower.max() if lower.size else grad.min()
        rho = float(0.5 * (hi + lo))
    sv = alpha > 1e-12
    return alpha[sv], rho, sv, converged


def to_csv_text_reference(grid):
    """Reference: the grid CSV as written before, one numpy scalar at a
    time."""
    lines = ["kind,x,y,value,tag\n"]
    for iy, yv in enumerate(grid.y_values):
        for ix, xv in enumerate(grid.x_values):
            lines.append(f"grid,{float(xv)!r},{float(yv)!r},"
                         f"{float(grid.scores[iy, ix])!r},\n")
    for x, y, score, tag in grid.points:
        lines.append(f"point,{float(x)!r},{float(y)!r},{float(score)!r},{tag}\n")
    return "".join(lines)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ties on quarter steps, +-0 and the smallest subnormal
_SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.0, 1.0 + 2.0 ** -52]


@st.composite
def forest_inputs(draw, min_d=1, max_d=4):
    """Rows drawn with repeats from a small base matrix (duplicate rows),
    whose values mix ties, +-0 and continuous values and whose columns may
    be constant, plus forest settings."""
    d = draw(st.integers(min_d, max_d))
    n0 = draw(st.integers(1, 25))
    values = (st.sampled_from(_SPECIAL_VALUES) | st.floats(-4, 4)
              | st.integers(-8, 8).map(lambda k: k / 4))
    base = draw(hnp.arrays(float, (n0, d), elements=values))
    for f in range(d):
        if draw(st.booleans()) and draw(st.booleans()):
            base[:, f] = base[0, f]
    rows = draw(st.lists(st.integers(0, n0 - 1), min_size=2, max_size=60))
    X = base[rows]
    params = IsoForestParams(n_trees=draw(st.integers(1, 7)),
                             subsample=draw(st.integers(2, len(X) + 3)),
                             seed=draw(st.integers(0, 2 ** 32 - 1)))
    return X, params


def export_boundary_grid_walk(model, X_train, X_regular, X_novel, resolution=100):
    """Reference: the boundary grid with every grid cell scored through
    `boundary_score`, one row per cell."""
    sets = [np.asarray(s, dtype=float) for s in (X_train, X_regular, X_novel)]
    allpts = np.concatenate(sets, axis=0)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    pad = 0.1 * np.where(hi > lo, hi - lo, 1.0)
    xs = np.linspace(lo[0] - pad[0], hi[0] + pad[0], resolution)
    ys = np.linspace(lo[1] - pad[1], hi[1] + pad[1], resolution)
    scores = model.boundary_score(meshgrid_rows(xs, ys)).reshape(resolution, resolution)
    points = []
    for tag, pts in zip(("train", "regular", "novel"), sets):
        vals = model.boundary_score(pts).tolist()
        px, py = pts.T.tolist()
        points.extend((x, y, v, tag) for x, y, v in zip(px, py, vals))
    return BoundaryGrid(xs, ys, scores, points)


def meshgrid_rows(xs, ys):
    """Rows (x, y) of the grid xs x ys, x fastest."""
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def walk_sum(ens, X):
    """Reference: the flat ensemble's walk (`leaves`), each tree's leaf
    values added in tree order, as `sum` scored every ensemble before the
    cell tables."""
    out = np.zeros(len(X))
    for vals in ens.value[ens.leaves(np.asarray(X, dtype=float))]:
        out += vals
    return out


def expected_path_length_loop(model, X):
    total = np.zeros(len(X))
    for tree in model.trees:
        total += iso_path_lengths_loop(tree, X)
    return total / len(model.trees)


class TestPathLengthArithmetic:
    def test_harmonic_hand_values(self):
        assert harmonic_number(0) == 0.0
        assert harmonic_number(1) == 1.0
        assert harmonic_number(5) == pytest.approx(137 / 60, rel=1e-15)

    def test_harmonic_matches_fsum(self):
        for i in (2, 17, 255, 1023, 12345):
            expect = math.fsum(1.0 / k for k in range(1, i + 1))
            assert harmonic_number(i) == pytest.approx(expect, rel=1e-13)

    def test_harmonic_cache_growth_order_independent(self):
        big = harmonic_number(5000)
        assert harmonic_number(10) == pytest.approx(
            math.fsum(1.0 / k for k in range(1, 11)), rel=1e-14)
        assert harmonic_number(5000) == big

    @given(st.lists(st.integers(0, 300), min_size=1, max_size=6))
    @settings(deadline=None, max_examples=100)
    def test_harmonic_is_history_free(self, requests):
        # every request sums from 1 in one cumsum
        fresh = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, 301))])
        for k in requests:
            assert harmonic_number(k) == fresh[k]
        assert all(harmonic_number(k) == fresh[k] for k in range(301))

    def test_harmonic_rejects_negative(self):
        with pytest.raises(InvalidSpec):
            harmonic_number(-1)

    def test_average_path_hand_values(self):
        assert average_path_length(0) == 0.0
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == pytest.approx(1.0, rel=1e-15)
        # c(4) = 2 H(3) - 2*3/4 = 11/3 - 3/2
        assert average_path_length(4) == pytest.approx(11 / 3 - 1.5, rel=1e-14)

    def test_average_path_exact_at_subsample_size(self):
        expect = 2 * math.fsum(1.0 / k for k in range(1, 256)) - 2 * 255 / 256
        assert average_path_length(256) == pytest.approx(expect, rel=1e-13)


class TestIsolationForest:
    def test_hand_built_tree_path_lengths(self):
        #        root: x0 < 5
        #       /            \
        #   leaf(size 3)   x1 < 2
        #                  /     \
        #            leaf(1)   leaf(1)
        tree = {
            "feature": np.array([0, -1, 1, -1, -1]),
            "threshold": np.array([5.0, 0.0, 2.0, 0.0, 0.0]),
            "left": np.array([1, -1, 3, -1, -1]),
            "right": np.array([2, -1, 4, -1, -1]),
            "size": np.array([5, 3, 2, 1, 1]),
            "depth": np.array([0, 1, 1, 2, 2]),
        }
        probe = np.array([[0.0, 0.0], [7.0, 0.0], [7.0, 9.0]])
        got = _iso_ensemble([tree]).sum(probe)
        c3 = average_path_length(3)
        assert np.allclose(got, [1.0 + c3, 2.0, 2.0], atol=1e-12)

    def test_flat_walk_equals_per_tree_loops(self):
        X = cloud(300, seed=4)
        model = fit_isolation_forest(X, IsoForestParams(n_trees=20, seed=5))
        rng = np.random.default_rng(6)
        on_split = []
        for tree in model.trees:
            for f, t in zip(tree["feature"], tree["threshold"]):
                if f >= 0:
                    row = X[rng.integers(len(X))].copy()
                    row[f] = t
                    on_split.append(row)
        probe = np.vstack([X, rng.normal(0.0, 3.0, (40, 2)), on_split,
                           [[np.nan, 0.0]]])
        expect = expected_path_length_loop(model, probe)
        assert np.array_equal(model.expected_path_length(probe), expect)
        assert np.array_equal(walk_sum(model._paths, probe) / len(model.trees), expect)
        for tree in model.trees[:3]:
            assert np.array_equal(_iso_ensemble([tree]).sum(probe),
                                  iso_path_lengths_loop(tree, probe))

    @pytest.mark.parametrize("n_rows", [0, 1, 3, 4, 11])
    def test_flat_walk_row_chunks(self, monkeypatch, n_rows):
        # 3 rows per chunk for the 10-tree forest
        monkeypatch.setattr(tree_mod, "_CHUNK_CELLS", 30)
        model = fit_isolation_forest(cloud(100, seed=7), IsoForestParams(n_trees=10))
        probe = cloud(n_rows, seed=8)
        got = model.expected_path_length(probe)
        assert got.shape == (n_rows,)
        assert np.array_equal(got, expected_path_length_loop(model, probe))

    def test_too_few_columns_rejected(self):
        model = fit_isolation_forest(cloud(100, d=3, seed=9), IsoForestParams(n_trees=5))
        with pytest.raises(DataError, match=r"expected \(n, 3\) inputs, got \(10, 2\)"):
            model.anomaly_score(cloud(10, d=2, seed=10))

    def test_too_many_columns_rejected(self):
        # the splits read columns 0 and 1 only, so a third column would
        # otherwise be ignored
        model = fit_isolation_forest(cloud(100, seed=9), IsoForestParams(n_trees=5))
        with pytest.raises(DataError, match=r"expected \(n, 2\) inputs, got \(10, 3\)"):
            model.boundary_score(cloud(10, d=3, seed=10))

    def test_degenerate_data_scores_exactly_half(self):
        X = np.ones((50, 3))
        model = fit_isolation_forest(X, IsoForestParams(n_trees=10))
        probe = np.vstack([X[:5], np.zeros((2, 3))])
        # every path is exactly c(psi), so E[h]/c(psi) = 1 up to the
        # rounding of the across-tree mean
        assert np.allclose(model.anomaly_score(probe), 0.5, atol=1e-12)
        assert np.allclose(model.boundary_score(probe), 0.0, atol=1e-12)

    def test_far_outlier_is_most_anomalous(self):
        X = cloud(256, seed=1)
        model = fit_isolation_forest(X, IsoForestParams(seed=2))
        inlier_scores = model.anomaly_score(X)
        outlier = model.anomaly_score(np.array([[10.0, 10.0]]))[0]
        assert outlier > inlier_scores.max()
        assert outlier > 0.6
        # score orientation: positive boundary score means regular
        assert model.boundary_score(np.array([[10.0, 10.0]]))[0] < 0.0
        assert np.median(model.boundary_score(X)) > 0.0

    def test_scores_in_unit_interval(self):
        X = cloud(100, seed=3)
        model = fit_isolation_forest(X, IsoForestParams(n_trees=25))
        s = model.anomaly_score(np.vstack([X, [[8.0, -8.0]]]))
        assert np.all((s > 0.0) & (s < 1.0))

    def test_deterministic_given_seed(self):
        X = cloud(128, seed=4)
        probe = cloud(30, seed=5)
        a = fit_isolation_forest(X, IsoForestParams(seed=9)).anomaly_score(probe)
        b = fit_isolation_forest(X, IsoForestParams(seed=9)).anomaly_score(probe)
        c = fit_isolation_forest(X, IsoForestParams(seed=10)).anomaly_score(probe)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_subsample_capped_at_n(self):
        X = cloud(40, seed=6)
        model = fit_isolation_forest(X, IsoForestParams(subsample=256))
        assert model.psi == 40

    def test_input_validation(self):
        with pytest.raises(InvalidSpec, match="need n_trees >= 1 and subsample >= 2"):
            IsoForestParams(n_trees=0)
        with pytest.raises(DataError, match="isolation forest needs at least 2 rows"):
            fit_isolation_forest(np.zeros((1, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        X = cloud(50, seed=17)
        X[7, 1] = bad
        with pytest.raises(DataError):
            fit_isolation_forest(X, IsoForestParams(n_trees=3))

    def test_feature_range_beyond_float_rejected(self):
        # finite values whose spread hi - lo overflows to inf
        X = np.array([[-1e308, 0.0], [1e308, 1.0], [0.0, 2.0]])
        with pytest.raises(DataError):
            fit_isolation_forest(X, IsoForestParams(n_trees=3))

    @given(forest_inputs())
    @settings(deadline=None, max_examples=150)
    def test_lockstep_forest_equals_per_tree_grower(self, inputs):
        X, params = inputs
        got = fit_isolation_forest(X, params)
        expect = iso_forest_reference(X, params)
        assert len(got.trees) == len(expect)
        for g, e in zip(got.trees, expect):
            assert set(g) == set(e)
            assert all(same_bits(g[k], e[k]) for k in e)
        assert got.n_nodes == sum(len(t["feature"]) for t in expect)

    @given(st.data())
    @settings(deadline=None, max_examples=150)
    def test_round_draws_equal_generator_calls(self, data):
        # integers(0, k) then random() per generator, from rounds over some
        # of them in any order; k in 1..14 as an isolation tree draws it,
        # or large enough for Lemire's rejection to fire; small blocks of
        # raw outputs, so that they run out
        n = data.draw(st.integers(1, 6))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        mine, ref = ([np.random.default_rng(np.random.SeedSequence((seed, i)))
                      for i in range(n)] for _ in range(2))
        for i in range(n):
            # a bag draw may or may not leave a 32-bit half buffered
            if data.draw(st.booleans()):
                mine[i].integers(0, 3)
                ref[i].integers(0, 3)
                assert mine[i].bit_generator.state["has_uint32"] == 1
        streams = novelty_mod._TreeStreams(mine, data.draw(st.integers(1, 4)))
        ks = st.integers(1, 14) | st.integers(3 << 30, (1 << 32) - 1)
        for _ in range(data.draw(st.integers(1, 12))):
            gens = data.draw(st.permutations(range(n)))[:data.draw(st.integers(1, n))]
            k = data.draw(st.lists(ks, min_size=len(gens), max_size=len(gens)))
            j, u = streams.take(np.array(gens, dtype=np.int64), k)
            expect = [(ref[g].integers(0, kg), ref[g].random()) for g, kg in zip(gens, k)]
            assert j.dtype == np.int64 and j.tolist() == [e[0] for e in expect]
            assert same_bits(u, np.array([e[1] for e in expect]))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_lockstep_forest_equals_per_tree_grower_full_size(self, seed):
        # the default 100 trees of psi = 256 rows, with one column of ties
        X = cloud(1000, d=3, seed=seed)
        X[:, 2] = np.round(X[:, 2] * 2) / 2
        params = IsoForestParams(seed=seed)
        got = fit_isolation_forest(X, params)
        for g, e in zip(got.trees, iso_forest_reference(X, params)):
            assert all(same_bits(g[k], e[k]) for k in e)


class TestSettledIsolationLeaves:
    """Nodes of at most one row and nodes at the height limit are settled as
    leaves in their parent's round: no round pops them."""

    @staticmethod
    def candidates(model):
        height_limit = int(np.ceil(np.log2(model.psi)))
        return [np.count_nonzero((t["size"] > 1) & (t["depth"] < height_limit))
                for t in model.trees]

    @given(forest_inputs())
    @settings(deadline=None, max_examples=100)
    def test_rounds_equal_largest_candidate_count(self, inputs):
        # duplicate rows make candidates that do not split after all
        X, params = inputs
        model = fit_isolation_forest(X, params)
        assert model.meta["grower_rounds"] == max(self.candidates(model))

    def test_empty_child(self):
        # a column of two adjacent floats: lo + (hi - lo) u rounds to lo for
        # u < 1/2, a threshold at the node minimum that sends no row left
        X = np.column_stack([np.tile([1.0, np.nextafter(1.0, 2.0)], 20),
                             cloud(40, d=1, seed=21)[:, 0] > 0])
        params = IsoForestParams(n_trees=6, subsample=16, seed=4)
        got = fit_isolation_forest(X, params)
        assert any((t["size"] == 0).any() for t in got.trees)
        for g, e in zip(got.trees, iso_forest_reference(X, params)):
            assert all(same_bits(g[k], e[k]) for k in e)
        assert got.meta["grower_rounds"] == max(self.candidates(got))

    def test_two_row_subsample(self):
        # psi = 2: the height limit is 1, so a root's children are settled
        X = cloud(30, seed=22)
        params = IsoForestParams(n_trees=10, subsample=2, seed=5)
        got = fit_isolation_forest(X, params)
        for g, e in zip(got.trees, iso_forest_reference(X, params)):
            assert all(same_bits(g[k], e[k]) for k in e)
            assert g["feature"][0] >= 0 and g["feature"][1:].tolist() == [-1, -1]
            assert g["size"][0] == 2 and g["size"][1:].sum() == 2
        assert got.meta["grower_rounds"] == 1


class TestOcsvm:
    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_width_rejected(self, width):
        model = fit_ocsvm(cloud(60, seed=11), OcsvmParams(nu=0.2))
        with pytest.raises(DataError, match=rf"expected \(n, 2\) inputs, got \(5, {width}\)"):
            model.decision_score(cloud(5, d=width, seed=12))
        with pytest.raises(DataError, match=rf"expected \(n, 2\) inputs, got \(1, {width}\)"):
            model.boundary_score(np.zeros(width))
        # a model of `width` columns has no (x, y) grid
        wide = fit_ocsvm(cloud(60, d=width, seed=11), OcsvmParams(nu=0.2))
        with pytest.raises(DataError, match=rf"expected \(n, {width}\) inputs, got \(4, 2\)"):
            wide.grid_scores(np.zeros(2), np.zeros(2))

    def test_dual_feasibility(self):
        X = cloud(150, seed=7)
        hp = OcsvmParams(nu=0.15)
        model = fit_ocsvm(X, hp)
        assert model.converged
        ub = 1.0 / (hp.nu * len(X))
        assert model.alphas.sum() == pytest.approx(1.0, abs=1e-9)
        assert model.alphas.min() > 0.0
        assert model.alphas.max() <= ub + 1e-12

    def test_nu_bounds_outliers_and_supports(self):
        n = 200
        X = cloud(n, seed=8)
        hp = OcsvmParams(nu=0.2)
        model = fit_ocsvm(X, hp)
        # at most a nu fraction of training points fall outside the surface
        outside = np.mean(model.decision_score(X) < -hp.tol)
        assert outside <= hp.nu + 1.0 / n
        # and at least a nu fraction are support vectors
        assert len(model.alphas) >= hp.nu * n - 1

    def test_far_point_is_novel(self):
        X = cloud(150, seed=9)
        model = fit_ocsvm(X, OcsvmParams(nu=0.1))
        probe = np.array([[9.0, 9.0], [0.0, 0.0]])
        scores = model.decision_score(probe)
        assert scores[0] < 0.0 < scores[1]
        assert np.array_equal(model.boundary_score(probe), scores)

    def test_kkt_structure(self):
        X = cloud(120, seed=10)
        hp = OcsvmParams(nu=0.25)
        model = fit_ocsvm(X, hp)
        ub = 1.0 / (hp.nu * len(X))
        f = model.decision_score(X)
        sv = {row.tobytes(): a for row, a in zip(model.support_X, model.alphas)}
        alpha = np.array([sv.get(row.tobytes(), 0.0) for row in X])
        slack = 2.0 * hp.tol
        # non-supports sit inside the surface; bound coefficients outside it
        assert np.all(f[alpha <= 1e-12] >= -slack)
        assert np.all(f[alpha >= ub * (1 - 1e-8)] <= slack)
        free = (alpha > ub * 1e-6) & (alpha < ub * (1 - 1e-6))
        assert np.all(np.abs(f[free]) <= slack)

    def test_nu_validation(self):
        with pytest.raises(InvalidSpec, match=r"nu must be in \(0, 1\]"):
            OcsvmParams(nu=0.0)
        with pytest.raises(InvalidSpec, match=r"nu must be in \(0, 1\]"):
            OcsvmParams(nu=1.5)

    def test_deterministic(self):
        X = cloud(100, seed=11)
        probe = cloud(20, seed=12)
        a = fit_ocsvm(X).decision_score(probe)
        b = fit_ocsvm(X).decision_score(probe)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        X = cloud(50, seed=18)
        X[3, 0] = bad
        with pytest.raises(DataError):
            fit_ocsvm(X)

    def assert_matches_dense_oracle(self, X, hp):
        model = fit_ocsvm(X, hp)
        alphas, rho, sv, converged = fit_ocsvm_reference(X, hp)
        assert same_bits(model.alphas, alphas)
        assert model.rho == rho
        assert same_bits(model.support_X, X[sv])
        assert model.converged == converged
        assert model.meta["n_support"] == int(sv.sum())
        return model

    # The sizes are ones where every row of the dense kernel matrix rounds
    # as the same row of a smaller block does (see
    # test_cached_rows_equal_dense_kernel_rows).
    @pytest.mark.parametrize("n, nu, seed", [
        (2, 0.1, 0), (10, 0.1, 1), (57, 0.3, 2), (296, 0.1, 3), (400, 0.05, 4)])
    def test_on_demand_rows_equal_dense_kernel_fit(self, n, nu, seed):
        # n = 10 at nu = 0.1 starts from a single nonzero coefficient
        self.assert_matches_dense_oracle(cloud(n, seed=seed) * [0.05, 0.02],
                                         OcsvmParams(nu=nu))

    def test_on_demand_rows_equal_dense_kernel_fit_with_ties(self):
        X = np.round(cloud(200, seed=5), 1)
        X[::9] = X[0]
        X[::11, 1] = -0.0
        self.assert_matches_dense_oracle(X, OcsvmParams(nu=0.2))

    def test_unconverged_fit_equals_dense_kernel_fit(self):
        model = self.assert_matches_dense_oracle(cloud(152, seed=6),
                                                 OcsvmParams(max_iter=5))
        assert not model.converged
        assert model.meta["n_iter"] == 5

    def test_forced_eviction_equals_dense_kernel_fit(self, monkeypatch):
        n = 200
        X = cloud(n, seed=7)
        hp = OcsvmParams(nu=0.1)
        full = fit_ocsvm(X, hp)
        # room for 5 rows: the 20 starting rows go in blocks of 4, and the
        # SMO pairs keep evicting each other
        monkeypatch.setattr(kernels_mod, "_KERNEL_CACHE_BYTES", 5 * 8 * n)
        model = self.assert_matches_dense_oracle(X, hp)
        assert model.meta["kernel_rows"] > full.meta["kernel_rows"]

    # OpenBLAS computes X @ X.T of the full matrix with syrk, whose blocks
    # at the edge of an n x n product round some entries differently from
    # the gemm of a few rows (on a Haswell-class CPU: when n % 8 >= 4). The
    # benchmark's 3000 training rows are not such a size, which is what keeps
    # its grids bit-identical to the dense-matrix solver's.
    @pytest.mark.parametrize("n", [296, 3000])
    def test_cached_rows_equal_dense_kernel_rows(self, n, monkeypatch):
        X = cloud(n, seed=8)
        gamma = resolve_gamma("scale", X)
        K = rbf_kernel(X, X, gamma)
        monkeypatch.setattr(kernels_mod, "_KERNEL_CACHE_BYTES", 50 * 8 * n)
        cache = KernelRowCache(X, gamma)
        for idx in ([0, 1], list(range(30)), [n - 1, 7], [7, 150], [150, n - 1]):
            for i, row in zip(idx, cache.rows(idx)):
                assert same_bits(row, K[i])

    def test_row_cache_is_least_recently_used(self, monkeypatch):
        X = cloud(10, seed=9)
        monkeypatch.setattr(kernels_mod, "_KERNEL_CACHE_BYTES", 3 * 8 * 10)
        cache = KernelRowCache(X, 1.0)
        assert cache.capacity == 3
        cache.rows([0, 1])
        cache.rows([2, 3])        # evicts 0
        cache.rows([1])           # a hit, which makes 1 the most recent
        cache.rows([4, 5])        # evicts 2, then 3
        assert cache.computed == 6
        cache.rows([1, 5])
        cache.rows([4])
        assert cache.computed == 6
        cache.rows([0, 1])        # 0 is missing, so both rows are computed
        assert cache.computed == 8


class TestBoundaryGrid:
    def fitted(self):
        train = cloud(120, seed=13)
        regular = cloud(25, seed=14)
        novel = cloud(10, seed=15) + 6.0
        model = fit_isolation_forest(train, IsoForestParams(n_trees=20))
        return model, train, regular, novel

    def test_grid_shape_and_padding(self):
        model, train, regular, novel = self.fitted()
        grid = export_boundary_grid(model, train, regular, novel, resolution=12)
        assert grid.scores.shape == (12, 12)
        assert len(grid.points) == 120 + 25 + 10
        allx = np.concatenate([train[:, 0], regular[:, 0], novel[:, 0]])
        span = allx.max() - allx.min()
        assert grid.x_values[0] == pytest.approx(allx.min() - 0.1 * span)
        assert grid.x_values[-1] == pytest.approx(allx.max() + 0.1 * span)

    def test_round_trip_exact(self, tmp_path):
        model, train, regular, novel = self.fitted()
        grid = export_boundary_grid(model, train, regular, novel, resolution=8)
        path = tmp_path / "grid.csv"
        path.write_text(grid.to_csv_text())
        back = load_boundary_grid(path)
        assert np.array_equal(back.x_values, grid.x_values)
        assert np.array_equal(back.y_values, grid.y_values)
        assert np.array_equal(back.scores, grid.scores)
        assert back.points == grid.points

    @pytest.mark.parametrize("row, error, message", [
        # the case id names what the row lacks (columns), not an error class
        pytest.param("grid,1.0,2.0", DataError, r"g\.csv:3: expected 5 fields, got 3",
                     id=r"grid,1.0,2.0-MissingColumn-g\.csv:3: expected 5 fields, got 3"),
        ("grid,1.0,abc,3.0,", DataError, r"g\.csv:3: could not convert string to float"),
        ("cell,1.0,2.0,3.0,", DataError, r"g\.csv:3: unknown row kind 'cell'"),
    ])
    def test_bad_row_named_with_line_number(self, tmp_path, row, error, message):
        path = tmp_path / "g.csv"
        path.write_text(f"kind,x,y,value,tag\ngrid,0.0,0.0,1.0,\n{row}\n")
        with pytest.raises(error, match=message):
            load_boundary_grid(path)

    def test_tags_partition_points(self):
        model, train, regular, novel = self.fitted()
        grid = export_boundary_grid(model, train, regular, novel, resolution=4)
        tags = [p[3] for p in grid.points]
        assert tags.count("train") == 120
        assert tags.count("regular") == 25
        assert tags.count("novel") == 10
        # novel points sit on the negative side far more often than regular
        novel_scores = [p[2] for p in grid.points if p[3] == "novel"]
        assert np.median(novel_scores) < 0.0

    @pytest.mark.parametrize("width", [1, 3])
    def test_sets_of_other_widths_rejected(self, width):
        model, *sets = self.fitted()
        for k, s in enumerate(sets):
            wrong = list(sets)
            wrong[k] = cloud(len(s), d=width, seed=k)
            with pytest.raises(DataError, match=rf"boundary grid: expected \(n, 2\) inputs, "
                                                rf"got \({len(s)}, {width}\)"):
                export_boundary_grid(model, *wrong, resolution=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_sets_with_non_finite_points_rejected(self, bad):
        model, *sets = self.fitted()
        for k, tag in enumerate(("train", "regular", "novel")):
            wrong = [s.copy() for s in sets]
            wrong[k][len(wrong[k]) // 2, 0] = bad
            with pytest.raises(DataError, match=f"{tag} points"):
                export_boundary_grid(model, *wrong, resolution=4)

    def test_grid_rejects_silly_resolution(self):
        model, train, regular, novel = self.fitted()
        with pytest.raises(InvalidSpec):
            export_boundary_grid(model, train, regular, novel, resolution=1)

    def test_csv_text_equals_scalar_writer(self):
        special = [-0.0, 5e-324, 1e16, 1e-300, 0.1, -2.5]
        grid = BoundaryGrid(
            np.array(special), np.array(special[::-1] + [3.0]),
            np.array(special * 7).reshape(7, 6) * np.arange(7)[:, None],
            [(-0.0, 5e-324, 1e16, "train"), (1e-300, 0.1, -0.0, "novel")])
        assert grid.to_csv_text() == to_csv_text_reference(grid)

    def test_shared_point_text_equals_scalar_writer(self):
        # two grids of the same points, then one of other points, with one
        # shared dict; the values mix -0.0 and 0.0, NaN and repeats
        values = np.array([-0.0, 0.0, np.nan, 0.1, 0.1, 5e-324, -2.5, 1e16])
        points = [(x, y, 0.5, "train") for x, y in zip(values, values[::-1])]
        grids = [BoundaryGrid(values[:3], values[3:6], np.outer(values[:3], values[3:6]) * s,
                              [(x, y, v * s, tag) for x, y, v, tag in points])
                 for s in (1.0, -1.0)]
        grids.append(BoundaryGrid(values[:2], values[:2], np.zeros((2, 2)),
                                  [(y, x, 1.0, "novel") for x, y, _, _ in points]))
        shared, held = {}, []
        for grid in grids:
            assert grid.to_csv_text(shared) == to_csv_text_reference(grid)
            assert grid.to_csv_text() == to_csv_text_reference(grid)
            held.append(len(shared))
        # the first grid left its point text, the second took it out, and
        # the third, of other points, left its own
        assert held == [1, 0, 1]

    def test_exported_grid_csv_equals_scalar_writer(self):
        model, train, regular, novel = self.fitted()
        grid = export_boundary_grid(model, train, regular, novel, resolution=9)
        assert all(type(v) is float for p in grid.points for v in p[:3])
        assert grid.to_csv_text() == to_csv_text_reference(grid)

    @pytest.mark.parametrize("resolution", [100, 17, 2])
    def test_isolation_forest_grid_equals_cell_walk(self, resolution):
        train = cloud(400, seed=17)
        regular = cloud(60, seed=18)
        novel = cloud(30, seed=19) * 3.0 + 2.0
        model = fit_isolation_forest(train, IsoForestParams(n_trees=25, seed=2))
        grid = export_boundary_grid(model, train, regular, novel, resolution=resolution)
        walk = export_boundary_grid_walk(model, train, regular, novel, resolution=resolution)
        assert same_bits(grid.x_values, walk.x_values)
        assert same_bits(grid.y_values, walk.y_values)
        assert same_bits(grid.scores, walk.scores)
        assert grid.points == walk.points
        assert grid.to_csv_text() == walk.to_csv_text()
        assert grid.sizes == {"grid_cells": resolution ** 2, "points": 490,
                              "scored_by": "tables"}

    def test_vms_eye_grid_equals_cell_walk(self):
        from gazescreen.simulate import generate_cohort

        ds = generate_cohort(1, 1, "VMS", base_seed=3)
        rng = np.random.default_rng(3)
        dirs = ds.eye_dirs("left")[:, :2]
        control = dirs[ds.labels == 0]
        train = control[rng.choice(len(control), 1500, replace=False)]
        regular = control[rng.choice(len(control), 300, replace=False)]
        novel = dirs[ds.labels == 1][:300]
        model = fit_isolation_forest(train, IsoForestParams(seed=3))
        grid = export_boundary_grid(model, train, regular, novel)
        walk = export_boundary_grid_walk(model, train, regular, novel)
        assert same_bits(grid.scores, walk.scores)
        assert grid.to_csv_text() == walk.to_csv_text()

    def test_ocsvm_grid_equals_cell_walk(self):
        train = cloud(150, seed=20)
        model = fit_ocsvm(train, OcsvmParams(nu=0.2))
        grid = export_boundary_grid(model, train, train[:10], train[:5] + 4.0, resolution=13)
        walk = export_boundary_grid_walk(model, train, train[:10], train[:5] + 4.0,
                                         resolution=13)
        assert same_bits(grid.scores, walk.scores)
        assert grid.points == walk.points
        assert grid.sizes == {"grid_cells": 169, "points": 165}

    def test_first_column_is_kind(self, tmp_path):
        grid = BoundaryGrid(np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                            np.zeros((2, 2)), [(0.5, 0.5, 0.1, "train")])
        text = grid.to_csv_text()
        lines = text.strip().splitlines()
        assert lines[0] == "kind,x,y,value,tag"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("point,")


def walk_grid_scores(model, xs, ys):
    """Reference: the boundary scores of the grid's rows from the walk
    (`walk_sum`), as (len(ys), len(xs))."""
    total = walk_sum(model._paths, meshgrid_rows(xs, ys))
    return (0.5 - model._anomaly(total / len(model.trees))).reshape(len(ys), len(xs))


def hand_forest(trees, n_features):
    """An isolation forest of hand-built trees in which node i has depth i
    and size 1, so that a row's path length in a tree is its leaf's index."""
    trees = [dict(t, depth=np.arange(len(t["feature"])),
                  size=np.ones(len(t["feature"]), dtype=np.int64)) for t in trees]
    return IsolationForestModel(trees, 2, n_features)


@st.composite
def painter_inputs(draw):
    """An isolation forest on two columns, sometimes with a single-leaf
    tree inserted, and grid axes of 2-30 lines drawn from its thresholds
    on each column (exactly and one ulp either side) and the data, sorted
    or shuffled."""
    X, params = draw(forest_inputs(min_d=2, max_d=2))
    model = fit_isolation_forest(X, params)
    trees = list(model.trees)
    if draw(st.booleans()):
        leaf = {"feature": np.array([-1]), "threshold": np.array([0.0]),
                "left": np.array([-1]), "right": np.array([-1]),
                "size": np.array([draw(st.integers(1, 9))]), "depth": np.array([0])}
        trees.insert(draw(st.integers(0, len(trees))), leaf)

    def axis(col):
        t = np.concatenate([t["threshold"][t["feature"] == col] for t in trees])
        lines = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                                X[:, col]])
        k = draw(st.integers(2, 30))
        picks = draw(st.lists(st.integers(0, len(lines) - 1), min_size=k, max_size=k))
        values = np.sort(lines[picks])
        if draw(st.booleans()):
            values = values[draw(st.permutations(range(k)))]
        return values

    return IsolationForestModel(trees, model.psi, 2), axis(0), axis(1)


class TestGridPainter:
    """Isolation-forest grids (`grid_scores`), read from the cell tables or
    scored through the walk, against the walk of every grid row."""

    @given(painter_inputs())
    @settings(deadline=None, max_examples=200)
    def test_grid_scores_equal_walk(self, inputs):
        model, xs, ys = inputs
        scores, sizes = model.grid_scores(xs, ys)
        assert same_bits(scores, walk_grid_scores(model, xs, ys))
        tables = model._paths._cell_tables()
        assert sizes == {"scored_by": "walk" if tables is None else "tables"}

    def test_non_finite_thresholds_and_lines(self, monkeypatch):
        # NaN goes right at every split, as in the walk; from the tables,
        # then over a patched-small budget through the walk; each axis
        # takes both sets of values
        trees = [{"feature": np.array([0, -1, 1, -1, -1]),
                  "threshold": np.array([np.nan, 0.0, np.inf, 0.0, 0.0]),
                  "left": np.array([1, -1, 3, -1, -1]),
                  "right": np.array([2, -1, 4, -1, -1])},
                 {"feature": np.array([1, -1, -1]),
                  "threshold": np.array([-np.inf, 0.0, 0.0]),
                  "left": np.array([1, -1, -1]), "right": np.array([2, -1, -1])}]
        lines = (np.array([np.nan, 1.0, -np.inf, np.inf, -0.0]),
                 np.array([np.inf, np.nan, -np.inf, -1.0]))
        for scored_by in ("tables", "walk"):
            if scored_by == "walk":
                monkeypatch.setattr(tree_mod, "_TABLE_ENTRIES", 10)
            for xs, ys in (lines, lines[::-1]):
                model = hand_forest(trees, 2)
                scores, sizes = model.grid_scores(xs, ys)
                assert sizes == {"scored_by": scored_by}
                assert same_bits(scores, walk_grid_scores(model, xs, ys))

    def test_over_budget_forest_scores_the_walk(self, monkeypatch):
        # the same trees, with their tables and over a patched-small budget
        X = cloud(300, seed=22)
        trees = fit_isolation_forest(X, IsoForestParams(n_trees=20, seed=3)).trees
        xs = np.linspace(-3.0, 3.0, 23)
        ys = np.linspace(-2.5, 2.5, 19)
        on_tables, sizes = IsolationForestModel(trees, 256, 2).grid_scores(xs, ys)
        assert sizes == {"scored_by": "tables"}
        monkeypatch.setattr(tree_mod, "_TABLE_ENTRIES", 1000)
        model = IsolationForestModel(trees, 256, 2)
        walked, sizes = model.grid_scores(xs, ys)
        assert sizes == {"scored_by": "walk"}
        assert same_bits(walked, on_tables)
        assert same_bits(walked, walk_grid_scores(model, xs, ys))

    def test_empty_grid_and_bad_inputs(self, monkeypatch):
        # an empty grid from the tables and, over a patched-small budget,
        # through the walk
        trees = fit_isolation_forest(cloud(50, seed=21), IsoForestParams(n_trees=3)).trees
        for scored_by in ("tables", "walk"):
            if scored_by == "walk":
                monkeypatch.setattr(tree_mod, "_TABLE_ENTRIES", 10)
            scores, sizes = IsolationForestModel(trees, 50, 2).grid_scores(
                np.array([]), np.array([1.0]))
            assert scores.shape == (1, 0) and sizes == {"scored_by": scored_by}
        # a forest on 1 or 3 columns has no (x, y) grid, also when its
        # splits read columns 0 and 1 alone and it has cell tables
        monkeypatch.undo()
        X = cloud(50, d=3, seed=21)
        for wrong, has_tables in ((X[:, :1], True), (X, False),
                                  (np.column_stack([X[:, :2], np.zeros(50)]), True)):
            model = fit_isolation_forest(wrong, IsoForestParams(n_trees=3))
            assert (model._paths._cell_tables() is not None) == has_tables
            with pytest.raises(DataError, match=r"expected \(n, \d\) inputs, got \(4, 2\)"):
                model.grid_scores(np.zeros(2), np.zeros(2))


_QUERY_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0]
_THRESHOLD_SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, -1.0, 0.5]


@st.composite
def hand_tree(draw, n_columns):
    """A random tree in preorder whose splits read columns below n_columns
    and whose thresholds may be NaN, +-inf or +-0; sometimes a single leaf."""
    feature, threshold, left, right = [], [], [], []

    def node(depth):
        i = len(feature)
        split = depth < 4 and draw(st.booleans())
        feature.append(draw(st.integers(0, n_columns - 1)) if split else -1)
        threshold.append(draw(st.sampled_from(_THRESHOLD_SPECIALS)) if split else 0.0)
        left.append(-1)
        right.append(-1)
        if split:
            left[i] = node(depth + 1)
            right[i] = node(depth + 1)
        return i

    node(0)
    tree = {"feature": np.array(feature), "threshold": np.array(threshold),
            "left": np.array(left), "right": np.array(right)}
    return tree, np.arange(len(feature), dtype=float) * 1.25 - 3.0


@st.composite
def table_inputs(draw):
    """An ensemble whose splits read columns 0 and 1 alone (an isolation
    forest on 1-2 columns, a DT or RF on 2 features, or hand-built trees
    with non-finite thresholds and single leaves), and query rows whose
    values are its thresholds, one ulp either side of them, NaN, +-inf,
    +-0 and data values."""
    kind = draw(st.sampled_from(["iforest", "dt", "rf", "hand"]))
    if kind == "iforest":
        X, params = draw(forest_inputs(max_d=2))
        ens = _iso_ensemble(fit_isolation_forest(X, params).trees)
    elif kind == "hand":
        n_columns = draw(st.integers(1, 2))
        trees = draw(st.lists(hand_tree(n_columns), min_size=1, max_size=6))
        ens = tree_mod.FlatEnsemble([t for t, _ in trees], [v for _, v in trees], tables=True)
        X = np.zeros((1, n_columns))
    else:
        X, _ = draw(forest_inputs(min_d=2, max_d=2))
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(X), max_size=len(X))))
        y[:2] = [0, 1]
        matrix = FeatureMatrix(X, y)
        if kind == "dt":
            nodes = fit_decision_tree(matrix).nodes
            ens = tree_mod.FlatEnsemble([nodes], [nodes["p1"]], tables=True)
        else:
            model = fit_random_forest(matrix, ForestParams(n_estimators=draw(st.integers(1, 6))),
                                      seed=draw(st.integers(0, 99)))
            ens = tree_mod.FlatEnsemble(model.trees, [(t["p1"] > 0.5).astype(float)
                                                      for t in model.trees], tables=True)
    d = X.shape[1]
    columns = []
    for c in range(d):
        t = ens.threshold[(ens.feature == c) & ~ens.is_leaf]
        values = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                                 X[:, c], _QUERY_SPECIALS])
        picks = draw(st.lists(st.integers(0, len(values) - 1), max_size=40))
        columns.append(values[picks] if picks else np.zeros(0))
    n = min(len(col) for col in columns)
    return ens, np.stack([col[:n] for col in columns], axis=1).reshape(n, d)


class TestCellTables:
    @given(table_inputs())
    @settings(deadline=None, max_examples=300)
    def test_tables_equal_walk(self, inputs):
        ens, X = inputs
        assert ens._cell_tables() is not None
        assert same_bits(ens.sum(X), walk_sum(ens, X))

    def test_novelty_forest_tables_equal_walk(self):
        # the benchmark's forest size: 100 trees of a 256-row subsample
        X = cloud(3000, seed=30) * [0.2, 0.1]
        model = fit_isolation_forest(X, IsoForestParams(seed=31))
        probe = np.vstack([cloud(2000, seed=32) * [0.3, 0.2], X[:500]])
        ens = model._paths
        tables = ens._cell_tables()
        # a tree has a cell per pair of its intervals on the two columns
        cells = 0
        for lo, hi in zip(ens.roots, np.append(ens.roots[1:], ens.n_nodes)):
            inner = ~ens.is_leaf[lo:hi]
            f, t = ens.feature[lo:hi][inner], ens.threshold[lo:hi][inner]
            cells += (len(np.unique(t[f == 0])) + 1) * (len(np.unique(t[f == 1])) + 1)
        assert tables.cells.size == cells
        assert same_bits(model._paths.sum(probe), walk_sum(model._paths, probe))
        assert np.array_equal(model.expected_path_length(probe),
                              expected_path_length_loop(model, probe))

    def test_walk_kept_for_other_ensembles(self, monkeypatch):
        X = cloud(200, d=3, seed=33)
        probe = cloud(50, d=3, seed=34)
        three = _iso_ensemble(fit_isolation_forest(X, IsoForestParams(n_trees=10)).trees)
        assert three.n_columns == 3 and three._cell_tables() is None
        assert same_bits(three.sum(probe), walk_sum(three, probe))
        # over the entry budget, a two-column forest keeps the walk too
        two = _iso_ensemble(fit_isolation_forest(X[:, :2], IsoForestParams(n_trees=10)).trees)
        monkeypatch.setattr(tree_mod, "_TABLE_ENTRIES", 10)
        assert two._cell_tables() is None
        assert same_bits(two.sum(probe), walk_sum(two, probe))

    def test_classifiers_keep_the_walk(self):
        # a stump or tree on the first two features builds no tables: it is
        # scored once, where a table would cost more than the walk
        X = cloud(60, seed=37)
        y = (X[:, 0] > 0).astype(int)
        nodes = fit_decision_tree(FeatureMatrix(X, y)).nodes
        assert set(nodes["feature"][nodes["feature"] >= 0]) <= {0, 1}
        for ens in (tree_mod.FlatEnsemble([nodes], [nodes["p1"]]),
                    fit_random_forest(FeatureMatrix(X, y), ForestParams(n_estimators=3),
                                      seed=1)._votes):
            assert ens.n_columns <= 2 and ens._cell_tables() is None
            assert same_bits(ens.sum(X), walk_sum(ens, X))

    def test_over_budget_allocates_no_tables(self):
        # 3,000 stumps, each on its own threshold: the count tables alone
        # would hold 3,000 x 3,001 entries, over the 2^23 budget
        n = 3000
        stump = {"feature": np.array([0, -1, -1]), "left": np.array([1, -1, -1]),
                 "right": np.array([2, -1, -1])}
        trees = [dict(stump, threshold=np.array([float(k), 0.0, 0.0])) for k in range(n)]
        ens = tree_mod.FlatEnsemble(trees, [np.array([0.0, 1.0, 2.0])] * n, tables=True)
        tracemalloc.start()
        try:
            assert ens._cell_tables() is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n // 8
        probe = np.array([[-1.0, 0.0], [1500.0, 0.0], [np.nan, 0.0]])
        assert same_bits(ens.sum(probe), walk_sum(ens, probe))

    def test_too_few_columns_rejected(self):
        ens = _iso_ensemble(fit_isolation_forest(cloud(100, seed=35),
                                                 IsoForestParams(n_trees=5)).trees)
        assert ens._cell_tables() is not None
        with pytest.raises(DataError, match="trees split on column 1, inputs have 1 columns"):
            ens.sum(cloud(10, d=1, seed=36))
