"""CART decision tree: exhaustive gini split search over midpoint
thresholds, with sample weights flowing through the impurity. Each fit
ranks the values of every column once (`value_ranks`); a node orders its
rows by a stable sort of their integer ranks, not of their float values.
`grow_preorder` grows the trees of a forest in lockstep, one split
candidate of every tree per round: a node that is certainly a leaf is
settled in its parent's round and never pops. `CartGrower` is its exact
gini rule, and the isolation forest hands it its own rule.

Tie-breaking is deterministic: among equal-gini splits the lowest feature
index wins, then the lowest threshold; leaf majorities resolve toward
class 0. Nodes are stored as flat arrays (feature == -1 marks a leaf), so
prediction is a vectorised level-by-level descent and serialisation is a
plain dict of lists.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from ..errors import DataError
from ..settings import Settings
from .base import FeatureMatrix, FittedModel, require_finite


@dataclass
class TreeParams(Settings):
    RANGES = {"min_samples_split": "[2, inf)", "min_samples_leaf": "[1, inf)",
              "max_depth": "[1, inf)"}
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_depth: int = None


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


# (node, feature, row) cells searched in one vectorised pass. Passes keep
# each float64 temporary near 64 KB, which the allocator serves from its
# free lists; one pass over all 14 features of a 4,000-row node allocates
# 448 KB temporaries that glibc returns to the system and faults back in.
# On a 2-core Xeon that root search took 5-6 ms in one pass and 2.4-2.9 ms
# in passes of this size (one pass: 2.7-3.0 ms with glibc's mmap and trim
# thresholds raised)
_SPLIT_CELLS = 1 << 13
# rows per (node, feature) pair from which a pass sorts each pair's 8- or
# 16-bit ranks with numpy's radix sort; below it, and for wider ranks (which
# numpy sorts stably with timsort, 6-10x slower at 20k-100k rows), one sort
# of the whole pass's packed keys is faster (on a 2-core Xeon the two break
# even near 256 rows)
_RADIX_WIDTH = 256

# a split node's two children, left then right
_LEFT_RIGHT = np.array([0, 1])


def grow_preorder(XT, rows, sizes, choose, settle):
    """Grow one tree per segment of `rows` in lockstep; returns each tree's
    node arrays and the number of rounds taken.

    rows holds the column indices (of XT) of every tree's rows, tree t's
    sizes[t] rows after those of the trees before it. A node's rows keep
    the order they have in its parent.

    Two rules grow the trees. settle(at, first, size, depth) sees new
    nodes (the roots, then the children of each round's splits, a tree's
    left child before its right one) with the rows of node j at
    at[first[j]:first[j] + size[j]]. It returns (leaf, columns): a mask of
    the nodes that are certainly leaves and the columns of those leaves.
    A settled leaf is recorded at once and never pushed, so each tree's
    depth-first stack holds only split candidates, and round r pops the
    r-th candidate of every tree that still has one, in preorder: a forest
    takes as many rounds as its largest tree has candidates. A rule that
    draws from a per-tree generator for its candidates alone draws in the
    order a tree grown alone would.

    choose(trees, at, first, size, depth) sees the popped candidates in
    the same way. It returns (feature, threshold, columns): feature -1
    marks a leaf after all, a split node sends its rows with
    XT[feature, row] <= threshold to the left child (NaN goes right), and
    columns maps names to per-node arrays kept with the nodes, with the
    names and dtypes of settle's. Only the segments that split are
    partitioned.

    The nodes are numbered in preorder, left child first, once all trees
    are grown. A tree is a dict of feature, threshold, left, right and the
    columns.
    """
    rows = np.array(rows, dtype=np.int64)  # partitioned in place
    sizes = np.asarray(sizes, dtype=np.int64)
    n_trees = len(sizes)
    # records of the popped candidates, in the order they are popped, and
    # of the settled leaves; a node's code is 2 parent + (it is a right
    # child), its parent being the candidate of that pop number, or -1
    popped, settled = [], []
    n_popped = 0
    # each tree's depth-first stack of pending candidates (start, size,
    # depth, code), a node's rows being rows[start:start + size]; it never
    # holds more than the tree's depth + 1 entries
    stack = np.zeros((n_trees, 16, 4), dtype=np.int64)
    start = np.cumsum(sizes) - sizes
    zeros = np.zeros(n_trees, dtype=np.int64)
    leaf, columns = settle(rows, start, sizes, zeros)
    settled.append((np.flatnonzero(leaf), zeros[leaf] - 1, zeros[leaf], None, None, columns))
    stack[:, 0] = np.stack([start, sizes, zeros, zeros - 1], axis=1)
    sp = (~leaf).astype(np.int64)

    n_rounds = 0
    while True:
        live = np.flatnonzero(sp)
        if live.size == 0:
            break
        n_rounds += 1
        sp[live] -= 1
        start, size, depth, code = stack[live, sp[live]].T
        first = np.cumsum(size) - size
        pos = np.arange(first[-1] + size[-1]) + np.repeat(start - first, size)
        at = rows[pos]
        feature, threshold, columns = choose(live, at, first, size, depth)
        popped.append((live, code, depth, feature, threshold, columns))
        pop_no = np.arange(n_popped, n_popped + len(live))
        n_popped += len(live)
        split = feature >= 0
        if not split.all():
            if not split.any():
                continue
            # partition only the segments that split
            keep = np.repeat(split, size)
            pos, at = pos[keep], at[keep]
            live, start, size, depth, pop_no, feature, threshold = (
                a[split] for a in (live, start, size, depth, pop_no, feature, threshold))
            first = np.cumsum(size) - size
        # a stable partition of every split segment: a stable sort of small
        # integer keys 2 j + (row goes right), which is a radix sort
        go_left = XT.take(np.repeat(feature * XT.shape[1], size) + at) <= np.repeat(threshold, size)
        odd = np.arange(1, 2 * len(size), 2, dtype=np.min_scalar_type(2 * len(size)))
        at = at[np.argsort(np.repeat(odd, size) - go_left, kind="stable")]
        rows[pos] = at
        n_left = np.add.reduceat(go_left, first, dtype=np.int64)

        # each split node's (left, right) children: their first row in
        # `at` (their start in `rows` once pushed), size, depth and code
        child = np.empty((4, len(live), 2), dtype=np.int64)
        child[0, :, 0] = first
        np.add(first, n_left, out=child[0, :, 1])
        child[1, :, 0] = n_left
        np.subtract(size, n_left, out=child[1, :, 1])
        child[2] = (depth + 1)[:, None]
        child[3] = 2 * pop_no[:, None] + _LEFT_RIGHT
        c_first, c_size, c_depth, c_code = child.reshape(4, -1)
        c_tree = np.repeat(live, 2)
        leaf, columns = settle(at, c_first, c_size, c_depth)
        if leaf.any():
            settled.append((c_tree[leaf], c_code[leaf], c_depth[leaf], None, None, columns))
        push = ~leaf
        if push.any():
            top = sp[live]
            if top.max() + 2 > stack.shape[1]:
                stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
            # the right child goes on first, so the left one pops first
            pairs = push.reshape(-1, 2)
            slot = (top[:, None] + pairs[:, 1:] * _LEFT_RIGHT[::-1]).ravel()
            child[0] += (start - first)[:, None]
            stack[c_tree[push], slot[push]] = child.reshape(4, -1).T[push]
            sp[live] = top + pairs.sum(axis=1)
    return _assemble(n_trees, popped, settled), n_rounds


def _assemble(n_trees, popped, settled):
    """Per-tree node arrays, in preorder, of the records `grow_preorder`
    kept, each (tree, code, depth, feature, threshold, columns): the popped
    candidates in pop order, and the settled leaves, whose feature and
    threshold are None (-1 and 0 in the arrays).

    Subtree sizes are summed bottom-up, one depth level at a time. Then a
    left child is numbered one after its parent, and a right child so that
    its subtree ends where its parent's does."""
    batches = popped + settled
    tree, code, depth = (np.concatenate([b[i] for b in batches]) for i in range(3))
    parent, is_right = code >> 1, (code & 1) == 1
    by_depth = np.argsort(depth, kind="stable")
    levels = np.split(by_depth, np.searchsorted(depth[by_depth], np.arange(1, depth.max() + 1)))
    subtree = np.ones(len(tree), dtype=np.int64)
    for level in levels[:0:-1]:
        np.add.at(subtree, parent[level], subtree[level])
    number = np.zeros(len(tree), dtype=np.int64)
    for level in levels[1:]:
        up = parent[level]
        number[level] = np.where(is_right[level], number[up] + subtree[up] - subtree[level],
                                 number[up] + 1)
    n_nodes = np.zeros(n_trees, dtype=np.int64)
    n_nodes[tree[levels[0]]] = subtree[levels[0]]
    offset = np.concatenate([[0], np.cumsum(n_nodes)])
    index = offset[tree] + number

    total = int(offset[-1])
    arrays = {"feature": np.full(total, -1, dtype=np.int64), "threshold": np.zeros(total),
              "left": np.full(total, -1, dtype=np.int64),
              "right": np.full(total, -1, dtype=np.int64)}
    if popped:
        inner = index[:sum(len(b[0]) for b in popped)]
        arrays["feature"][inner] = np.concatenate([b[3] for b in popped])
        arrays["threshold"][inner] = np.concatenate([b[4] for b in popped])
    below = np.flatnonzero(parent >= 0)
    for k, side in (("left", ~is_right[below]), ("right", is_right[below])):
        arrays[k][index[parent[below[side]]]] = number[below[side]]
    for k in batches[0][5]:
        values = np.concatenate([b[5][k] for b in batches])
        arrays[k] = np.empty(total, dtype=values.dtype)
        arrays[k][index] = values
    return [{k: v[a:b] for k, v in arrays.items()}
            for a, b in zip(offset[:-1].tolist(), offset[1:].tolist())]


class CartGrower:
    """Exact gini trees on rows of one matrix, grown in lockstep.

    A pure node, a node under `min_samples_split` and a node at
    `max_depth` are settled as leaves when their parent splits (`_settle`);
    every other node is a split candidate that a round pops and searches
    (`_choose`), and stays a leaf when no boundary is found. Both take a
    node's weight and class-1 weight from the same per-node sums
    (`_node_sums`), and only a candidate draws its features.

    The matrix is ranked once (`value_ranks`). Each round searches every
    popped node's candidate features in passes of about `_SPLIT_CELLS`
    (node, feature, row) cells, largest nodes first: the rows sorted by
    rank (ties keep their order in the node), weighted prefix sums, and the
    gini score at every boundary between distinct values. A pass pads the
    rows of its smaller nodes at the end with a column of zero weight, the
    top rank and NaN values. The first minimum over a node's (feature, position) cells
    wins, so ties go to the lowest feature and then the lowest threshold; a
    feature with a NaN score anywhere is skipped. Thresholds are midpoints,
    or the lower value when the midpoint rounds up to the upper one.

    A tree grown on all rows with all features sorts its root the same way
    under any weights, so the grower sorts that root once and keeps it:
    boosting rounds then only gather weights and score.
    """

    def __init__(self, X, y, hp, max_features=None):
        n, d = X.shape
        self.hp = hp
        self.n, self.d = n, d
        self.m = d if max_features is None else min(max_features, d)
        ranks = value_ranks(X)
        self.rank_bits = ranks.dtype.itemsize * 8
        self.XT = np.full((d, n + 1), np.nan)
        self.XT[:, :n] = X.T
        self.ranks = np.full((d, n + 1), np.iinfo(ranks.dtype).max, dtype=ranks.dtype)
        self.ranks[:, :n] = ranks
        self.y = np.append(np.asarray(y, dtype=float), 0.0)
        self._root = None

    def grow(self, w, bags=None, rngs=None):
        """One tree per bag of row indices (all rows, in order, when bags is
        None) under sample weights w; when max_features < d, rngs[t] draws
        tree t's candidate features at each split, in ascending order."""
        w = np.append(np.asarray(w, dtype=float), 0.0)
        w = (w, w * self.y)  # weights and class-1 weights, with the padding's 0
        if bags is None:
            rows, sizes = np.arange(self.n), [self.n]
        else:
            rows, sizes = np.concatenate(bags), [len(b) for b in bags]
        keep_root = bags is None and self.m == self.d

        def choose(trees, at, first, size, depth):
            return self._choose(w, rngs, keep_root, trees, at, first, size, depth)

        def settle(at, first, size, depth):
            return self._settle(w, at, first, size, depth)
        return grow_preorder(self.XT, rows, sizes, choose, settle)[0]

    def _settle(self, w, at, first, size, depth):
        """Pure nodes, nodes under min_samples_split and nodes at max_depth
        are leaves."""
        hp = self.hp
        yn = self.y.take(at)
        leaf = ((np.minimum.reduceat(yn, first) == np.maximum.reduceat(yn, first))
                | (size < hp.min_samples_split))
        if hp.max_depth is not None:
            leaf |= depth >= hp.max_depth
        nodes = np.flatnonzero(leaf)
        wsum, w1 = _node_sums(w[0].take(at), yn, first[nodes], size[nodes])
        return leaf, {"p1": w1 / wsum, "node_weight": wsum}

    def _choose(self, w, rngs, keep_root, trees, at, first, size, depth):
        wsum, w1 = _node_sums(w[0].take(at), self.y.take(at), first, size)
        if self.m < self.d:
            feats = np.array([rngs[t].choice(self.d, size=self.m, replace=False)
                              for t in trees.tolist()])
            feats.sort(axis=1)
        else:
            feats = np.broadcast_to(np.arange(self.d), (len(trees), self.d))
        passes = None
        if keep_root and depth[0] == 0:
            if self._root is None:
                self._root = list(self._sorted_passes(at, first, size, feats))
            passes = self._root
        _, _, feature, threshold = self.search(w, at, first, size, wsum, w1, feats, passes)
        return feature, threshold, {"p1": w1 / wsum, "node_weight": wsum}

    def search(self, w, rows, start, size, wsum, w1, feats, passes=None):
        """Best split of node j (rows[start[j]:start[j] + size[j]],
        candidate features feats[j] ascending, weight wsum[j] and class-1
        weight w1[j]) under w, the padded weights and class-1 weights.
        Returns arrays (found, score, feature, threshold); `passes` are the
        search's sorted passes when they were kept."""
        k = len(size)
        best = (np.zeros(k, dtype=bool), np.full(k, np.inf),
                np.full(k, -1, dtype=np.int64), np.zeros(k))
        if passes is None:
            passes = self._sorted_passes(rows, start, size, feats)
        for p in passes:
            _score_pass(p, w, wsum, w1, *best)
        return best

    def _sorted_passes(self, rows, start, size, feats):
        """The (node, feature) pairs in passes of about `_SPLIT_CELLS`
        padded cells, largest node first and each node's pairs in feature
        order: whole nodes, or one node's features in blocks when they do
        not fit one pass."""
        min_leaf = self.hp.min_samples_leaf
        m = feats.shape[1]
        order = np.argsort(-size, kind="stable")
        n_cols = self.XT.shape[1]
        lo, f_lo = 0, 0
        while lo < len(order):
            width = int(size[order[lo]])
            per = _SPLIT_CELLS // width
            col = np.arange(width)
            if per < m:
                nodes = order[lo:lo + 1]
                f = feats[nodes, f_lo:f_lo + max(per, 1)]
                at = rows[start[nodes[0]]:start[nodes[0]] + width][None, :]
                f_lo += f.shape[1]
                if f_lo == m:
                    lo, f_lo = lo + 1, 0
            else:
                nodes = order[lo:lo + per // m]
                f = feats[nodes]
                # pad each node's rows to the pass's width, its first node's size
                at = rows.take(start[nodes][:, None] + col, mode="clip")
                short = size[nodes] < width
                at[short] = np.where(col < size[nodes[short]][:, None], at[short], n_cols - 1)
                lo += len(nodes)
            n_nodes, n_f = f.shape
            k = n_nodes * n_f
            f = f.ravel()
            # each pair's rows by rank, ties in node order; `base` is each
            # pair's node row in `at`
            key_f = (f * n_cols)[:, None]
            key = self.ranks.take((key_f.reshape(n_nodes, n_f, 1) + at[:, None, :])
                                  .reshape(k, width))
            base = (np.arange(k) // n_f * width)[:, None]
            if width >= _RADIX_WIDTH and self.rank_bits <= 16:
                # numpy's stable sort of 8- and 16-bit integers is a radix sort
                at = at.take(np.argsort(key, axis=1, kind="stable") + base)
            else:
                # one sort of (pair, rank, flat position) keys
                pos_bits = (k * width - 1).bit_length()
                key = key.astype(np.int64)
                key |= (np.arange(k) << self.rank_bits)[:, None]
                key <<= pos_bits
                key |= np.arange(k * width).reshape(k, width)
                key.ravel().sort()
                key &= (1 << pos_bits) - 1
                key += base - (np.arange(k) * width)[:, None]
                at = at.take(key)
            xs = self.XT.take(key_f + at)
            # cut[j, i]: a boundary after position i; the padding's NaN values
            # leave none after a pair's last row
            cut = np.zeros(xs.shape, dtype=bool)
            np.greater(xs[:, 1:], xs[:, :-1], out=cut[:, :-1])
            if min_leaf > 1:
                cut &= (col >= min_leaf - 1) & (col < np.repeat(size[nodes], n_f)[:, None] - min_leaf)
            cells = np.flatnonzero(cut)
            # boundary cells per node, for the nodes that have any
            per_node = np.diff(np.searchsorted(cells, np.arange(n_nodes + 1) * (n_f * width)))
            has = per_node > 0
            yield _Pass(nodes[has], per_node[has], f, at, xs, cells)


def _node_sums(wn, yn, first, size):
    """Each node's weight and class-1 weight, summed over its own rows in
    parent order, as a node grown alone sums them: pairwise summation
    depends on the order."""
    sums, dots = [], []
    for a, b in zip(first.tolist(), (first + size).tolist()):
        sums.append(np.add.reduce(wn[a:b]))
        dots.append(np.dot(wn[a:b], yn[a:b]))
    return np.array(sums), np.array(dots)


class _Pass(NamedTuple):
    """(node, feature) pairs sorted for one vectorised search: the nodes
    with boundary cells and their cell counts, each pair's feature, its rows
    in rank order (padded) and their values, and the flat indices of the
    boundary cells."""
    nodes: np.ndarray
    node_cells: np.ndarray
    feature: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    cells: np.ndarray


def _score_pass(p, w, wsum, w1, found, best, feature, threshold):
    """Score one sorted pass and keep each node's first minimum; a later
    pass wins a node only with a strictly lower score."""
    if p.cells.size == 0:
        return
    wl = np.cumsum(w[0].take(p.rows), axis=1).take(p.cells)
    wl1 = np.cumsum(w[1].take(p.rows), axis=1).take(p.cells)
    if len(p.nodes) == 1:
        total_w, total_w1 = wsum[p.nodes[0]], w1[p.nodes[0]]
    else:
        total_w = np.repeat(wsum[p.nodes], p.node_cells)
        total_w1 = np.repeat(w1[p.nodes], p.node_cells)
    wr = total_w - wl
    wr1 = total_w1 - wl1
    # rounding can leave a right weight wr of exactly 0 beside a residue
    # wr1; its gini is then infinite and its score NaN (0 * inf), and the
    # NaN filter below drops that (node, feature) pair, as it always has
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_l = 1.0 - ((wl1 / wl) ** 2 + ((wl - wl1) / wl) ** 2)
        gini_r = 1.0 - ((wr1 / wr) ** 2 + ((wr - wr1) / wr) ** 2)
        score = (wl * gini_l + wr * gini_r) / total_w
    nodes, node_cells, cells = p.nodes, p.node_cells, p.cells
    nan = np.isnan(score)
    if nan.any():
        # drop every cell of a pair with a NaN score
        pair = cells // p.rows.shape[1]
        keep = ~np.isin(pair, pair[nan])
        node_cells = np.add.reduceat(keep, np.cumsum(node_cells) - node_cells, dtype=np.int64)
        cells, score = cells[keep], score[keep]
        nodes, node_cells = nodes[node_cells > 0], node_cells[node_cells > 0]
        if cells.size == 0:
            return
    # the first minimum of each node
    if len(nodes) == 1:
        hit, run = np.array([np.argmin(score)]), np.zeros(1, dtype=np.int64)
    else:
        head = np.cumsum(node_cells) - node_cells
        low = np.repeat(np.minimum.reduceat(score, head), node_cells)
        hit = np.flatnonzero(score == low)
        run = np.searchsorted(head, hit, side="right") - 1
        first = np.concatenate([[True], run[1:] != run[:-1]])
        hit, run = hit[first], run[first]
    j, s, c = nodes[run], score[hit], cells[hit]
    win = ~found[j] | (s < best[j])
    j, s, c = j[win], s[win], c[win]
    lo, hi = p.values.take(c), p.values.take(c + 1)
    thr = 0.5 * (lo + hi)
    # adjacent floats round the midpoint up; fall back to the lower value so
    # `x <= thr` still separates the boundary
    thr = np.where(thr >= hi, lo, thr)
    found[j] = True
    best[j] = s
    feature[j] = p.feature[c // p.rows.shape[1]]
    threshold[j] = thr


def grow_tree(X, y, w, hp):
    """Flat node arrays of one CART tree on all rows of X: a forest of one."""
    return CartGrower(X, y, hp).grow(w)[0]


# rows per chunk of the walk are chosen so one (trees x rows) int64 array of
# it is 256 KB: on a 2-core Xeon (4 MB L2) 1 MB chunks scored a 100-tree forest
# 1.4x slower, and 64 KB chunks paid more in per-step overhead
_CHUNK_CELLS = 1 << 15
# most entries (cells plus cumulative counts) of the cell tables of one
# ensemble: a tree's cells grow with the product of its split counts on the
# two columns, so a deep tree on two features keeps the walk
_TABLE_ENTRIES = 1 << 23


class _CellTables(NamedTuple):
    """Per-tree cell tables of an ensemble whose splits read columns 0 and
    1 alone (`FlatEnsemble._cell_tables`).

    A tree's distinct thresholds t_1 < ... < t_m on a column cut that
    column into m + 1 intervals: (-inf, t_1], (t_1, t_2], ..., and above
    t_m (NaN included). Its cells are its intervals on column 0 times those
    on column 1, row-major, and each holds the value of the leaf its points
    reach. For column c, lines[c] are the sorted distinct thresholds of all
    trees, and counts[c][t, g] is the cell offset in tree t of a value
    above lines[c][:g] alone: how many of the tree's own thresholds on c
    lie below it, times the tree's row length for column 1. Tree t's cells
    start at cells[base[t]].
    """
    lines: list
    counts: list
    base: np.ndarray
    cells: np.ndarray

    def total(self, X):
        """Per-row sum of the leaf values of X's rows over the trees, in
        tree order, as the walk adds them. A value is above a threshold it
        exceeds (`side="left"`, which keeps a value equal to one on that
        threshold's `<=` side) and NaN above all; a row's cell in tree t is
        base[t] plus its offset on each column."""
        at = [np.searchsorted(lines, X[:, c], side="left") for c, lines in enumerate(self.lines)]
        out = np.zeros(len(X))
        for t in range(len(self.base)):
            idx = self.base[t]
            for counts, a in zip(self.counts, at):
                idx = idx + counts[t].take(a)
            out += self.cells.take(idx)
        return out


class FlatEnsemble:
    """Node arrays of one or more trees, concatenated once so that rows
    descend every tree in the same vectorised pass.

    Each tree keeps its flat layout, shifted by its offset in the
    concatenation (``roots``). A row at inner node i goes left when
    ``x[feature[i]] <= threshold[i]`` and right otherwise, NaN included.
    ``sum(X)`` adds each tree's leaf value per row, in tree order, reading
    the leaves from per-tree cell tables (`_cell_tables`) when every split
    reads column 0 or 1 and the tables fit `_TABLE_ENTRIES`, and from the
    walk (`leaves`) otherwise.
    """

    def __init__(self, trees, leaf_values):
        sizes = [len(t["feature"]) for t in trees]
        self.roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.int64)
        feature = np.concatenate([t["feature"] for t in trees]).astype(np.int64)
        self.threshold = np.concatenate([t["threshold"] for t in trees]).astype(float)
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
        # built by the first `sum`; False when the ensemble does not qualify
        self._tables = None

    @property
    def n_nodes(self):
        return len(self.feature)

    def _require_columns(self, d):
        if d < self.n_columns:
            # the flat row-major lookup of the walk would read a neighbouring
            # row, and the tables a missing column
            raise DataError(f"trees split on column {self.n_columns - 1}, "
                            f"inputs have {d} columns")

    def leaves(self, X):
        """(trees, rows) leaf index of every row in every tree.

        All (tree, row) cells step together. Cells that reached their leaf
        are dropped from the walk once they are over a quarter of it."""
        n, d = X.shape
        self._require_columns(d)
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
        """Per-row sum of the leaf values over the trees, in tree order. The
        cell tables add them when the ensemble has them (`_cell_tables`);
        otherwise the walk (`leaves`) finds them, in row chunks that keep
        memory flat. Both give every row the same leaves."""
        X = np.asarray(X, dtype=float)
        tables = self._cell_tables()
        if tables is not None:
            self._require_columns(X.shape[1])
            return tables.total(X)
        out = np.zeros(len(X))
        step = max(1, _CHUNK_CELLS // len(self.roots))
        for lo in range(0, len(X), step):
            acc = out[lo:lo + step]
            for vals in self.value[self.leaves(X[lo:lo + step])]:
                acc += vals
        return out

    def _cell_tables(self):
        """The ensemble's `_CellTables`, built on first use, when every
        split reads column 0 or 1 and the tables hold at most
        `_TABLE_ENTRIES` entries; None otherwise. The entries are counted
        before any table is allocated.

        A tree's grid has one line per distinct threshold on each column
        plus a NaN line, which every split sends right; a split at t cuts
        its axis after the lines <= t, and a rectangle pass
        (`_leaf_rectangles`) gives every leaf its cells. A NaN threshold
        sends every cell right."""
        if self._tables is not None:
            return self._tables or None
        self._tables = False
        if self.n_columns > 2:
            return None
        n_trees = len(self.roots)
        tree = np.repeat(np.arange(n_trees), np.diff(np.append(self.roots, self.n_nodes)))
        split = ~self.is_leaf & ~np.isnan(self.threshold)
        ons = [split & (self.feature == c) for c in range(2)]
        lines, owned = [], []
        for c, on in enumerate(ons):
            lines.append(np.unique(self.threshold[on]))  # -0.0 and 0.0 are one line
            # flat index into a (trees, lines + 1) table of each tree's thresholds
            owned.append(np.unique(tree[on] * (len(lines[c]) + 1)
                                   + np.searchsorted(lines[c], self.threshold[on]) + 1))
        width = [len(l) + 1 for l in lines]
        extent = np.stack([np.bincount(o // w, minlength=n_trees)
                           for o, w in zip(owned, width)], axis=1) + 1
        size = extent[:, 0] * extent[:, 1]
        if size.sum() + n_trees * sum(width) > _TABLE_ENTRIES:
            return None
        has = [np.zeros((n_trees, w), dtype=bool) for w in width]
        for h, o in zip(has, owned):
            h.ravel()[o] = True
        # a cell offset within a tree fits the type of its largest table
        counts = [np.cumsum(h, axis=1, dtype=np.min_scalar_type(size.max())) for h in has]
        axis = (self.feature == 1).astype(np.int64)
        cut = np.zeros(self.n_nodes, dtype=np.int64)
        for c, on in enumerate(ons):
            cut[on] = counts[c][tree[on], np.searchsorted(lines[c], self.threshold[on],
                                                          side="right")]
        leaf, rect = self._leaf_rectangles(axis, cut, extent)

        # each row of a leaf's rectangle is one run of its tree's cells
        # (row-major); the runs tile every tree, so in order they are the table
        base = np.cumsum(size) - size
        x0, y0, x1, y1 = rect.T
        height = y1 - y0
        run = np.repeat(np.arange(len(leaf)), height)
        row = y0[run] + np.arange(len(run)) - np.repeat(np.cumsum(height) - height, height)
        t = tree[leaf[run]]
        order = np.argsort(base[t] + row * extent[t, 0] + x0[run])
        cells = np.repeat(self.value[leaf[run[order]]], (x1 - x0)[run[order]])

        counts[1] *= extent[:, :1].astype(counts[1].dtype)
        self._tables = _CellTables(lines[:self.n_columns], counts[:self.n_columns],
                                   base, cells)
        return self._tables

    def _leaf_rectangles(self, axis, cut, extent):
        """The leaves that hold cells of their tree's grid, ascending, and
        their rectangles: a row (x0, y0, x1, y1) holds the cells
        [x0, x1) x [y0, y1).

        The root of tree t holds extent[t] = (x, y) cells. Inner node i
        sends the cells below cut[i] on axis axis[i] (0 is x, 1 is y) left
        and the rest right. Every split is axis-parallel, so the rectangles
        are found one depth level at a time over all trees."""
        rect = np.zeros((self.n_nodes, 4), dtype=np.int64)
        rect[self.roots, 2:] = extent
        level = self.roots
        while level.size:
            inner = level[~self.is_leaf[level]]
            a, c = axis[inner], cut[inner]
            left, right = self.children[2 * inner + 1], self.children[2 * inner]
            rect[left] = rect[right] = rect[inner]
            rect[left, 2 + a] = np.minimum(rect[left, 2 + a], c)
            rect[right, a] = np.maximum(rect[right, a], c)
            level = np.concatenate([left, right])
        leaves = np.flatnonzero(self.is_leaf & (rect[:, 2] > rect[:, 0])
                                & (rect[:, 3] > rect[:, 1]))
        return leaves, rect[leaves]


_NODE_DTYPES = {"feature": np.int64, "threshold": float, "left": np.int64,
                "right": np.int64, "p1": float, "node_weight": float}


def checked_trees(trees, n_features):
    """The node arrays of each of `trees`, dicts that hold the arrays
    `grow_tree` returns in any array-like form and no other key. Raise
    ValueError unless every tree's node arrays are one-dimensional, of one
    non-zero length, every threshold, p1 and node_weight is finite, every
    feature is in [-1, n_features), and the children of inner node i are in
    (i, n_nodes) while those of a leaf are -1. Preorder numbers keep every
    child after its parent, so a tree that passes has no cycle and every
    walk from its root ends at a leaf."""
    for t in trees:
        if set(t) - set(_NODE_DTYPES):
            raise ValueError(f"tree nodes hold key(s) {sorted(set(t) - set(_NODE_DTYPES))}")
    trees = [{k: np.asarray(t[k], dtype=dt) for k, dt in _NODE_DTYPES.items()} for t in trees]
    sizes = [len(t["feature"]) for t in trees]
    for t, n in enumerate(sizes):
        if n == 0 or any(v.shape != (n,) for v in trees[t].values()):
            raise ValueError(f"tree {t}: node arrays must be one-dimensional, "
                             "non-empty and of equal length")
    require_finite(**{k: np.concatenate([t[k] for t in trees])
                      for k in ("threshold", "p1", "node_weight")})
    feature = np.concatenate([t["feature"] for t in trees])
    bad = feature[(feature < -1) | (feature >= n_features)]
    if bad.size:
        raise ValueError(f"split feature {bad[0]} is outside [-1, {n_features})")
    # each node's tree, index within it and its tree's size
    tree = np.repeat(np.arange(len(sizes)), sizes)
    own = np.arange(len(tree)) - (np.cumsum(sizes) - sizes)[tree]
    n = np.asarray(sizes)[tree]
    for side in ("left", "right"):
        child = np.concatenate([t[side] for t in trees])
        bad = np.flatnonzero(np.where(feature >= 0, (child <= own) | (child >= n), child != -1))
        if bad.size:
            t, i = tree[bad[0]], own[bad[0]]
            raise ValueError(f"tree {t}: node {i} has {side} child {child[bad[0]]}; an inner "
                             f"node's must be in ({i}, {n[bad[0]]}) and a leaf's -1")
    return trees


def descend(nodes, X):
    """Vectorised root-to-leaf routing; returns the weighted class-1
    fraction at each row's leaf."""
    return FlatEnsemble([nodes], [nodes["p1"]]).sum(X)


class DecisionTreeModel(FittedModel):
    kind = "DT"
    threshold = 0.5  # decision_score is the leaf class-1 fraction
    file_keys = tuple(_NODE_DTYPES)  # the keys of **nodes

    def __init__(self, n_features, **nodes):
        super().__init__(n_features)
        (self.nodes,) = checked_trees([nodes], n_features)
        self._p1 = FlatEnsemble([self.nodes], [self.nodes["p1"]])

    @property
    def n_nodes(self):
        return self._p1.n_nodes

    def _score(self, X):
        return self._p1.sum(X)

    def file_params(self):
        return self.nodes


def fit_decision_tree(fm: FeatureMatrix, hp: TreeParams = None, seed: int = 0):
    """The exact CART tree; it draws nothing, so `seed` leaves it unchanged."""
    hp = hp or TreeParams()
    w = fm.normalized_weights()
    nodes = grow_tree(fm.X, fm.y.astype(float), w, hp)
    model = DecisionTreeModel(fm.d, **nodes)
    model.meta = {"hyperparams": asdict(hp)}
    return model
