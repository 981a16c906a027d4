"""CART decision tree: exhaustive gini split search over midpoint
thresholds, with sample weights flowing through the impurity. Each fit
ranks the values of every column once (`value_ranks`); a node orders its
rows by a stable sort of their integer ranks, not of their float values.

Tie-breaking is deterministic: among equal-gini splits the lowest feature
index wins, then the lowest threshold; leaf majorities resolve toward
class 0. Nodes are stored as flat arrays (feature == -1 marks a leaf), so
prediction is a vectorised level-by-level descent and serialisation is a
plain dict of lists.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import DimensionMismatch, EmptyNode, InvalidHyperParam
from .base import FeatureMatrix, FittedModel, register_model


def gini_impurity(labels, weights=None):
    """1 - sum of squared class proportions (weighted when weights given)."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise EmptyNode("gini impurity of an empty node is undefined")
    if weights is None:
        weights = np.ones(labels.size)
    total = weights.sum()
    p1 = weights[labels == 1].sum() / total
    p0 = 1.0 - p1
    return 1.0 - (p0 * p0 + p1 * p1)


@dataclass
class TreeParams:
    criterion: str = "gini"
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_depth: int = None

    def __post_init__(self):
        if self.criterion != "gini":
            raise InvalidHyperParam(f"unsupported criterion {self.criterion!r}")
        if self.min_samples_split < 2:
            raise InvalidHyperParam("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise InvalidHyperParam("min_samples_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise InvalidHyperParam("max_depth must be >= 1 when set")


def value_ranks(X):
    """(d, n) dense rank of every value within its column of X.

    Equal values share a rank (-0.0 and 0.0 included) and NaN ranks last,
    so a stable sort of the ranks of any subset of rows orders them exactly
    as a stable sort of their values does. The dtype is the smallest
    unsigned integer that holds the largest rank: up to 65,536 distinct
    values per column that is uint16, which numpy's stable argsort sorts
    with a radix sort."""
    X = np.asarray(X, dtype=float)
    inverse = [np.unique(col, return_inverse=True)[1] for col in X.T]
    top = max(int(r.max()) for r in inverse) if X.size else 0
    return np.array(inverse, dtype=np.min_scalar_type(top)).reshape(X.shape[::-1])


# (feature, row) cells searched in one vectorised pass. Blocks keep each
# float64 temporary near 64 KB, which the allocator serves from its free
# lists; one pass over all 14 features of a 4,000-row node allocates 448 KB
# temporaries that glibc returns to the system and faults back in. On a
# 2-core Xeon that root search took 5-6 ms in one pass and 2.4-2.9 ms in
# blocks (one pass: 2.7-3.0 ms with glibc's mmap and trim thresholds raised)
_SPLIT_CELLS = 1 << 13


def _best_split(XT, ranks, y, w, idx, total_w, total_w1, feats, min_leaf):
    """Lowest weighted-child-gini split of the rows idx over the features
    feats (ascending); total_w and total_w1 are the rows' weight and
    class-1 weight.

    Returns (score, feature, threshold) or None when no boundary between
    distinct values satisfies the leaf minimum. The first minimum over the
    (feature, position) cells wins, so ties go to the lowest feature, then
    the lowest threshold. A feature with a NaN score anywhere is skipped.
    Whole features are searched in blocks of about `_SPLIT_CELLS` cells, and
    a later block wins only with a strictly lower score.
    """
    step = max(1, _SPLIT_CELLS // len(idx))
    best = None
    for lo in range(0, len(feats), step):
        choice = _block_split(XT, ranks, y, w, idx, total_w, total_w1,
                              feats[lo:lo + step], min_leaf)
        if choice is not None and (best is None or choice[0] < best[0]):
            best = choice
    return best


def _block_split(XT, ranks, y, w, idx, total_w, total_w1, feats, min_leaf):
    """`_best_split` over one block of features, in one vectorised pass."""
    n = len(idx)
    rows = idx[np.argsort(ranks[feats].take(idx, axis=1), axis=1, kind="stable")]
    xs = XT[feats[:, None], rows]
    ws = w[rows]
    cw = np.cumsum(ws, axis=1)
    cw1 = np.cumsum(ws * y[rows], axis=1)
    # cut[j, i]: a boundary after position i; the last position has none
    cut = np.zeros(xs.shape, dtype=bool)
    np.greater(xs[:, 1:], xs[:, :-1], out=cut[:, :-1])
    if min_leaf > 1:
        cut[:, :min_leaf - 1] = False
        cut[:, max(n - min_leaf, 0):] = False
    cells = np.flatnonzero(cut)
    wl = cw.take(cells)
    wl1 = cw1.take(cells)
    wr = total_w - wl
    wr1 = total_w1 - wl1
    gini_l = 1.0 - ((wl1 / wl) ** 2 + ((wl - wl1) / wl) ** 2)
    gini_r = 1.0 - ((wr1 / wr) ** 2 + ((wr - wr1) / wr) ** 2)
    score = (wl * gini_l + wr * gini_r) / total_w
    nan = np.isnan(score)
    if nan.any():
        fi = cells // n
        keep = ~np.isin(fi, fi[nan])
        cells, score = cells[keep], score[keep]
    if score.size == 0:
        return None
    k = int(np.argmin(score))
    f, p = divmod(int(cells[k]), n)
    lo, hi = xs[f, p], xs[f, p + 1]
    thr = 0.5 * (lo + hi)
    if thr >= hi:
        # adjacent floats round the midpoint up; fall back to the lower
        # value so `x <= thr` still separates the boundary
        thr = lo
    return float(score[k]), int(feats[f]), thr


def grow_tree(X, y, w, hp, rng=None, max_features=None, ranks=None):
    """Grow flat node arrays; when max_features is set, each split draws
    that many candidate features from rng (ascending order, so tie-breaks
    stay index-based).

    ranks is `value_ranks(X)`, computed here when not given. A caller that
    grows many trees on rows of one matrix ranks it once and passes the
    columns of those rows: dense ranks of the whole matrix order any subset
    of its rows exactly."""
    d = X.shape[1]
    XT = np.ascontiguousarray(X.T)
    if ranks is None:
        ranks = value_ranks(X)
    feature, threshold, left, right, p1, node_w = [], [], [], [], [], []
    # stack of (row_indices, depth, parent_slot, is_left)
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
        w1 = wn @ yn
        pure = yn.min() == yn.max()
        at_depth = hp.max_depth is not None and depth >= hp.max_depth
        choice = None
        if not pure and not at_depth and len(idx) >= hp.min_samples_split:
            if max_features is not None and max_features < d:
                feats = np.sort(rng.choice(d, size=max_features, replace=False))
            else:
                feats = np.arange(d)
            choice = _best_split(XT, ranks, y, w, idx, wsum, w1, feats,
                                 hp.min_samples_leaf)
        if choice is None:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
        else:
            _, f, thr = choice
            go_left = XT[f][idx] <= thr
            feature.append(f)
            threshold.append(thr)
            left.append(-1)
            right.append(-1)
            # push right first so the left child is materialised next
            stack.append((idx[~go_left], depth + 1, slot, False))
            stack.append((idx[go_left], depth + 1, slot, True))
        p1.append(w1 / wsum)
        node_w.append(wsum)
    return {
        "feature": np.array(feature, dtype=np.int64),
        "threshold": np.array(threshold),
        "left": np.array(left, dtype=np.int64),
        "right": np.array(right, dtype=np.int64),
        "p1": np.array(p1),
        "node_weight": np.array(node_w),
    }


# rows per chunk are chosen so one (trees x rows) int64 array of the walk is
# 256 KB: on a 2-core Xeon (4 MB L2) 1 MB chunks scored a 100-tree forest
# 1.4x slower, and 64 KB chunks paid more in per-step overhead
_CHUNK_CELLS = 1 << 15


class FlatEnsemble:
    """Node arrays of one or more trees, concatenated once so that rows
    descend every tree in the same vectorised pass.

    Each tree keeps its flat layout, shifted by its offset in the
    concatenation (``roots``). A row at inner node i goes left when
    ``x[feature[i]] <= threshold[i]`` and right otherwise, NaN included.
    ``sum(X)`` adds each tree's leaf value per row, in tree order.
    """

    def __init__(self, trees, leaf_values, thresholds=None):
        sizes = [len(t["feature"]) for t in trees]
        self.roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        feature = np.concatenate([t["feature"] for t in trees]).astype(np.int64)
        if thresholds is None:
            thresholds = [t["threshold"] for t in trees]
        self.threshold = np.concatenate(thresholds).astype(float)
        left = np.concatenate([t["left"] + r for t, r in zip(trees, self.roots)])
        right = np.concatenate([t["right"] + r for t, r in zip(trees, self.roots)])
        # a leaf tests column 0 and leads back to itself, so a row that has
        # reached its leaf can take further steps without moving
        self.is_leaf = feature < 0
        self.n_columns = int(feature.max()) + 1  # columns the splits read
        self.feature = np.where(self.is_leaf, 0, feature)
        own = np.arange(len(feature))
        left = np.where(self.is_leaf, own, left)
        right = np.where(self.is_leaf, own, right)
        # children[2 i + (x <= t)]: right child first, so the test's outcome
        # indexes the child directly
        self.children = np.stack([right, left], axis=1).ravel()
        self.value = np.concatenate(leaf_values).astype(float)

    @property
    def n_nodes(self):
        return len(self.feature)

    def leaves(self, X):
        """(trees, rows) leaf index of every row in every tree.

        All (tree, row) cells step together. Cells that reached their leaf
        are dropped from the walk once they are over a quarter of it."""
        n, d = X.shape
        if d < self.n_columns:
            # the flat row-major lookup below would read a neighbouring row
            raise DimensionMismatch(f"trees split on column {self.n_columns - 1}, "
                                    f"inputs have {d} columns")
        x = np.ascontiguousarray(X).ravel()
        leaf = np.repeat(self.roots, n)
        cell = np.arange(leaf.size)
        node = leaf.copy()
        offset = np.tile(np.arange(n) * d, len(self.roots))
        while cell.size:
            node = self.children[
                2 * node + (x[offset + self.feature[node]] <= self.threshold[node])]
            stopped = self.is_leaf[node]
            if 4 * np.count_nonzero(stopped) > node.size:
                leaf[cell] = node
                keep = np.flatnonzero(~stopped)
                cell, node, offset = cell[keep], node[keep], offset[keep]
        return leaf.reshape(len(self.roots), n)

    def sum(self, X):
        """Per-row sum of the leaf values over the trees, in tree order,
        walked in row chunks that keep memory flat."""
        X = np.asarray(X, dtype=float)
        out = np.zeros(len(X))
        step = max(1, _CHUNK_CELLS // len(self.roots))
        for lo in range(0, len(X), step):
            acc = out[lo:lo + step]
            for vals in self.value[self.leaves(X[lo:lo + step])]:
                acc += vals
        return out


_NODE_DTYPES = {"feature": np.int64, "threshold": float, "left": np.int64,
                "right": np.int64, "p1": float, "node_weight": float}


def nodes_to_json(nodes):
    return {k: v.tolist() for k, v in nodes.items()}


def nodes_from_json(p):
    """Inverse of `nodes_to_json` for the node arrays `grow_tree` returns."""
    return {k: np.asarray(p[k], dtype=dt) for k, dt in _NODE_DTYPES.items()}


def node_depths(nodes):
    """Depth of every node (the root is 0), from the child links."""
    depth = np.zeros(len(nodes["feature"]), dtype=np.int64)
    level, d = np.array([0]), 0
    while level.size:
        depth[level] = d
        inner = level[nodes["feature"][level] >= 0]
        level = np.concatenate([nodes["left"][inner], nodes["right"][inner]])
        d += 1
    return depth


def descend(nodes, X):
    """Vectorised root-to-leaf routing; returns the weighted class-1
    fraction at each row's leaf."""
    return FlatEnsemble([nodes], [nodes["p1"]]).sum(X)


@register_model
class DecisionTreeModel(FittedModel):
    kind = "DT"
    threshold = 0.5  # decision_score is the leaf class-1 fraction

    def __init__(self, nodes, n_features):
        super().__init__()
        self.nodes = nodes
        self.n_features = n_features

    @property
    def n_nodes(self):
        return len(self.nodes["feature"])

    @property
    def root_split(self):
        """(feature, threshold) of the root, or None for a leaf-only tree."""
        if self.nodes["feature"][0] < 0:
            return None
        return int(self.nodes["feature"][0]), float(self.nodes["threshold"][0])

    def _score(self, X):
        return descend(self.nodes, X)

    def _params_to_json(self):
        return nodes_to_json(self.nodes)

    def _apply_params(self, p):
        self.nodes = nodes_from_json(p)


def fit_decision_tree(fm: FeatureMatrix, hp: TreeParams = None):
    hp = hp or TreeParams()
    w = fm.normalized_weights()
    nodes = grow_tree(fm.X, fm.y.astype(float), w, hp)
    model = DecisionTreeModel(nodes, fm.d)
    model.meta = {"hyperparams": asdict(hp)}
    return model
