"""Unsupervised novelty detection trained on control data only: isolation
forest and nu-one-class SVM, plus a dense decision-boundary grid export.

Both detectors expose ``boundary_score`` with one shared sign convention:
positive = regular, negative = novel. For the one-class SVM this is its
native decision function f(x) = sum_i alpha_i k(x_i, x) - rho; for the
isolation forest it is 0.5 - anomaly_score, since 0.5 is the score of a
point whose expected path length matches the average for the subsample
size. The boundary grid scores its cells as points, through the same
``boundary_score`` as its scattered points.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, InvalidSpec
from .kernels import KernelRowCache, check_gamma, kernel_expansion, resolve_gamma, smo
from .models.base import as_rows
from .models.tree import FlatEnsemble, grow_preorder, tree_rng
from .settings import Settings


# -- isolation forest ----------------------------------------------------------

@dataclass
class IsoForestParams(Settings):
    RANGES = {"n_trees": "[1, inf)", "subsample": "[2, inf)", "seed": "[0, inf)"}
    n_trees: int = 100
    subsample: int = 256
    seed: int = 0


_LOW32 = np.uint64(0xFFFFFFFF)


class _TreeStreams:
    """The draws `integers(0, k)` then `random()` of many generators at
    once, taken from each one's raw 64-bit PCG64 outputs.

    Both calls are fixed functions of those outputs (numpy's
    `random_bounded_uint64_fill` and `next_double`):
    - `integers(0, k)` draws nothing when k = 1. Otherwise it takes the
      next 32-bit half x: the high half that the generator's last 32-bit
      draw left buffered, or else the low half of a fresh output, whose
      high half is then buffered. It returns (x k) >> 32, drawing x again
      while the low 32 bits of x k are below 2^32 mod k (Lemire's
      rejection, which never fires at k = 2);
    - `random()` is (r >> 11) 2^-53 of the next output r; it leaves the
      buffered half alone.

    Outputs are drawn ahead in blocks, which leaves the generators past the
    draws taken: nothing may draw from them afterwards.
    """

    def __init__(self, rngs, block):
        self.bits = [g.bit_generator for g in rngs]
        states = [b.state for b in self.bits]
        self.has_half = np.array([s["has_uint32"] for s in states], dtype=bool)
        self.half = np.array([s["uinteger"] for s in states], dtype=np.uint64)
        self.raw = np.stack([b.random_raw(block) for b in self.bits])
        self.used = np.zeros(len(self.bits), dtype=np.int64)

    def _next(self, gens):
        """The next raw output of each of the distinct generators `gens`."""
        at = self.used[gens]
        if at.size and at.max() >= self.raw.shape[1]:
            width = self.raw.shape[1]
            self.raw = np.concatenate(
                [self.raw, np.stack([b.random_raw(width) for b in self.bits])], axis=1)
        self.used[gens] += 1
        return self.raw[gens, at]

    def take(self, gens, k):
        """(j, u) for each of the distinct generators `gens`: j is its
        `integers(0, k)` for its k (1 <= k < 2^32) and u its `random()`
        after that."""
        k = np.asarray(k, dtype=np.uint64)
        j = np.zeros(len(gens), dtype=np.uint64)
        todo = np.flatnonzero(k > 1)
        while todo.size:
            g = gens[todo]
            x = self.half[g]
            fresh = ~self.has_half[g]
            r = self._next(g[fresh])
            x[fresh] = r & _LOW32
            self.half[g[fresh]] = r >> np.uint64(32)
            self.has_half[g] = fresh
            m = x * k[todo]
            ok = (m & _LOW32) >= np.uint64(1 << 32) % k[todo]
            j[todo[ok]] = m[ok] >> np.uint64(32)
            todo = todo[~ok]
        u = (self._next(gens) >> np.uint64(11)).astype(float) * 2.0 ** -53
        return j.astype(np.int64), u


def _grow_iso_forest(X, bags, rngs, height_limit):
    """Grow one isolation tree per generator in `rngs` on the rows bags[t]
    of X, all in lockstep on the shared preorder grower; returns the trees
    and the grower's round count.

    A node of at most one row or at the height limit is settled as a leaf
    when its parent splits, so a round pops only nodes that may split. Each
    tree draws `integers(0, k)` for its split feature among the k that vary
    and then `random()` for the threshold, from its own generator and in
    the order a tree grown alone would draw them; a round takes the draws
    of all its split nodes in one step (`_TreeStreams`), and one reduceat
    gives every popped node its per-feature range. A row goes left when its
    value is below the drawn t, so a t equal to a node's minimum leaves its
    left child empty. A split node stores `nextafter(t, -inf)` as its
    threshold: `x < t` is `x <= nextafter(t, -inf)` for every float, the
    `<=` test of every stored tree. Every node stores its training size
    and depth.
    """
    XT = np.ascontiguousarray(X.T)
    # a split node takes at most two outputs, and a tree of psi rows has
    # about psi - 1 of them
    streams = _TreeStreams(rngs, 2 * len(bags[0]))

    def settle(at, first, size, depth):
        leaf = (size <= 1) | (depth >= height_limit)
        return leaf, {"size": size[leaf], "depth": depth[leaf]}

    def choose(trees, at, first, size, depth):
        feature = np.full(len(trees), -1, dtype=np.int64)
        threshold = np.zeros(len(trees))
        V = XT[:, at]
        lo = np.minimum.reduceat(V, first, axis=1)
        hi = np.maximum.reduceat(V, first, axis=1)
        spread = hi > lo
        n_spread = spread.sum(axis=0)
        split = np.flatnonzero(n_spread)
        if split.size:
            j, u = streams.take(trees[split], n_spread[split])
            # the j-th feature (0-based) among those that vary
            f = np.argmax(np.cumsum(spread[:, split], axis=0) > j, axis=0)
            lo_f, hi_f = lo[f, split], hi[f, split]
            feature[split] = f
            # t is what Generator.uniform computes
            threshold[split] = np.nextafter(lo_f + (hi_f - lo_f) * u, -np.inf)
        return feature, threshold, {"size": size, "depth": depth}

    return grow_preorder(XT, np.concatenate(bags), [len(b) for b in bags], choose, settle)


def average_path_lengths(sizes):
    """c(m) = 2 H(m-1) - 2 (m-1)/m of each size m: the expected
    unsuccessful-search path length in a binary search tree of m points,
    0 for m <= 1. H(k) = sum_{j=1..k} 1/j, added in sequence from 1."""
    m = np.asarray(sizes, dtype=np.int64)
    out = np.zeros(len(m))
    big = m > 1
    if big.any():
        mb = m[big]
        # H[k] = H(k); np.cumsum adds sequentially
        H = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1, mb.max()))])
        out[big] = 2.0 * H[mb - 1] - 2.0 * (mb - 1) / mb
    return out


def _iso_ensemble(trees):
    """Isolation trees as one flat ensemble whose leaves hold the path
    length (depth + c(size))."""
    paths = (np.concatenate([t["depth"] for t in trees])
             + average_path_lengths(np.concatenate([t["size"] for t in trees])))
    ends = np.cumsum([len(t["depth"]) for t in trees])[:-1]
    return FlatEnsemble(trees, np.split(paths, ends))


class IsolationForestModel:
    """Bag of random isolation trees; anomaly_score in (0, 1), higher is
    more anomalous, 0.5 at the average path length."""

    def __init__(self, trees, psi, n_features):
        self.trees = trees
        self.psi = psi
        self.n_features = n_features
        self.n_nodes = sum(len(t["feature"]) for t in trees)
        self.meta = {"n_trees": len(trees)}
        self._paths = _iso_ensemble(trees)

    def expected_path_length(self, X):
        X = as_rows(X, self.n_features, "isolation forest")
        return self._paths.sum(X) / len(self.trees)

    def anomaly_score(self, X):
        return np.power(2.0, -self.expected_path_length(X) / average_path_lengths([self.psi])[0])

    def boundary_score(self, X):
        return 0.5 - self.anomaly_score(X)


def fit_isolation_forest(X, params: IsoForestParams = None):
    params = params or IsoForestParams()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) < 2:
        raise DataError("isolation forest needs at least 2 rows")
    _require_finite(X, "isolation forest")
    # a split threshold is drawn from [lo, hi) of a feature; the spread
    # hi - lo must be a finite float
    with np.errstate(over="ignore"):
        spread = X.max(axis=0) - X.min(axis=0)
    if not np.isfinite(spread).all():
        raise DataError("isolation forest: a feature's range exceeds the float range")
    psi = min(params.subsample, len(X))
    height_limit = int(np.ceil(np.log2(psi)))
    rngs = [tree_rng(params.seed, i) for i in range(params.n_trees)]
    bags = [g.choice(len(X), size=psi, replace=False) for g in rngs]
    trees, rounds = _grow_iso_forest(X, bags, rngs, height_limit)
    model = IsolationForestModel(trees, psi, X.shape[1])
    model.meta["grower_rounds"] = rounds
    return model


def _require_finite(X, what):
    if not np.isfinite(X).all():
        raise DataError(f"{what}: X holds NaN or infinite values")


# -- nu one-class SVM ----------------------------------------------------------

@dataclass
class OcsvmParams(Settings):
    RANGES = {"nu": "(0, 1]", "tol": "(0, inf)", "max_iter": "[1, inf)"}
    # the dual gradient K@alpha lives in [0, 1] for any data (RBF entries
    # <= 1, sum alpha = 1), so an absolute stopping tolerance is scale-free;
    # 1e-6 resolves the boundary-vector band, which is far narrower than
    # the classic 1e-3
    nu: float = 0.1
    gamma: object = "scale"
    tol: float = 1e-6
    max_iter: int = 500_000

    def __post_init__(self):
        super().__post_init__()
        check_gamma(self.gamma)


class OneClassSvmModel:
    """f(x) = sum_i alpha_i k(x_i, x) - rho; negative means novel.

    Coefficients satisfy the nu-formulation constraints: they sum to 1
    and lie in [0, 1/(nu n)]. `meta` holds the fit's n_iter, n_support and
    the number of kernel rows it computed.
    """

    def __init__(self, support_X, alphas, rho, gamma, converged=True, meta=None):
        self.support_X = support_X
        self.alphas = alphas
        self.rho = rho
        self.gamma = gamma
        self.converged = converged
        self.meta = meta or {}
        self.n_features = support_X.shape[1]

    def decision_score(self, X):
        X = as_rows(X, self.n_features, "one-class SVM")
        out = kernel_expansion(X, self.support_X, self.gamma, self.alphas)
        out -= self.rho
        return out

    boundary_score = decision_score


def fit_ocsvm(X, params: OcsvmParams = None):
    """SMO on  min 1/2 a'Ka  s.t. sum a = 1, 0 <= a_i <= 1/(nu n): `smo`
    with lo = 0, hi = 1/(nu n) and p = 0, from LIBSVM's start. Its kernel
    rows, never computed one alone, are bit-identical to the rows of the
    full n x n kernel matrix this solver once built (see `KernelRowCache`).
    """
    params = params or OcsvmParams()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) < 2:
        raise DataError("one-class SVM needs at least 2 rows")
    _require_finite(X, "one-class SVM")
    n = len(X)
    ub = 1.0 / (params.nu * n)
    if ub * n < 1.0 - 1e-12:
        raise InvalidSpec("infeasible: nu * n leaves too little mass")
    gamma = resolve_gamma(params.gamma, X)
    cache = KernelRowCache(X, gamma)

    # LIBSVM-style start: pile the unit of mass onto the first ceil(nu n)
    # coefficients
    alpha = np.zeros(n)
    n_full = int(np.floor(params.nu * n))
    alpha[:n_full] = ub
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * ub
    n_start = int(np.count_nonzero(alpha > 0))  # alpha[:n_start] > 0
    # their rows in blocks of at most a quarter of the cache and at least
    # two rows each (array_split of blocks of 4 or more leaves no block of 1)
    per_block = max(4, cache.capacity // 4)
    first = np.arange(max(n_start, 2))
    grad = np.zeros(n)
    for block in np.array_split(first, -(-len(first) // per_block)):
        for i, row in zip(block.tolist(), cache.rows(block)):
            if i < n_start:
                grad += alpha[i] * row

    n_iter, converged = smo(cache, alpha, grad, np.zeros(n), np.full(n, ub),
                            params.tol, params.max_iter)

    free = (alpha > ub * 1e-8) & (alpha < ub * (1.0 - 1e-8))
    if free.any():
        # free vectors sit exactly on the contour at the optimum; taking
        # their smallest gradient (they agree to within tol) keeps every
        # boundary vector at a non-negative score, so only bound-mass
        # points -- at most nu*n of them -- can score negative
        rho = float(np.min(grad[free]))
    else:
        upper = grad[alpha <= ub * 1e-8]
        lower = grad[alpha >= ub * (1.0 - 1e-8)]
        hi = upper.min() if upper.size else grad.max()
        lo = lower.max() if lower.size else grad.min()
        rho = float(0.5 * (hi + lo))

    sv = alpha > 1e-12
    meta = {"n_iter": n_iter, "n_support": int(sv.sum()),
            "kernel_rows": cache.computed}
    return OneClassSvmModel(X[sv].copy(), alpha[sv].copy(), rho, gamma,
                            converged, meta)


# -- boundary grid export --------------------------------------------------------

@dataclass
class BoundaryGrid:
    """Dense score field over a 2-D box plus the scored scatter points."""

    x_values: np.ndarray
    y_values: np.ndarray
    scores: np.ndarray            # (resolution_y, resolution_x)
    points: list = field(default_factory=list)  # (x, y, score, tag)
    sizes: dict = field(default_factory=dict)   # what was scored; not in the CSV

    def to_csv_text(self, shared=None):
        """The grid as CSV text, every number written as its `repr`, each
        distinct value formatted once.

        `shared`, when given, is a dict that carries point text from one
        call to the next, such as between two models' grids of one eye: a
        call leaves the text of its points' coordinates there, and the next
        call takes it out and reuses it when its coordinates are the same,
        bit for bit. So the text is held between two calls at most."""
        xs = _float_text(self.x_values)
        ys = _float_text(self.y_values)
        scores = _float_text(self.scores)
        # one string per grid row and one for the points, so that few line
        # strings are alive at once
        parts = ["kind,x,y,value,tag\n"]
        for i, yv in enumerate(ys):
            row = scores[i * len(xs):(i + 1) * len(xs)]
            parts.append("".join([f"grid,{xv},{yv},{score},\n"
                                  for xv, score in zip(xs, row)]))
        del scores
        if self.points:
            px, py, values, tags = zip(*self.points)
            key = np.array([px, py], dtype=float).tobytes()
            heads = shared.pop(key, None) if shared is not None else None
            if heads is None:
                heads = [f"point,{x},{y}," for x, y in zip(_float_text(px), _float_text(py))]
                if shared is not None:
                    shared.clear()
                    shared[key] = heads
            parts.append("".join([f"{head}{value},{tag}\n" for head, value, tag
                                  in zip(heads, _float_text(values), tags)]))
        return "".join(parts)


def _float_text(values):
    """`repr` of every value as floats, flattened, as a list; each distinct
    value (bit pattern, so -0.0 is not 0.0) is formatted once."""
    a = np.ascontiguousarray(values, dtype=float).ravel()
    bits, inverse = np.unique(a.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def load_boundary_grid(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["kind", "x", "y", "value", "tag"]:
            raise DataError(f"{path}: expected header kind,x,y,value,tag")
        grid_rows, points = [], []
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 5:
                raise DataError(f"{path}:{lineno}: expected 5 fields, got {len(rec)}")
            kind, x, y, value, tag = rec
            if kind not in ("grid", "point"):
                raise DataError(f"{path}:{lineno}: unknown row kind {kind!r}")
            try:
                x, y, value = float(x), float(y), float(value)
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
            if kind == "grid":
                grid_rows.append((x, y, value))
            else:
                points.append((x, y, value, tag))
    xs = sorted({r[0] for r in grid_rows})
    ys = sorted({r[1] for r in grid_rows})
    scores = np.full((len(ys), len(xs)), np.nan)
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    for x, y, v in grid_rows:
        scores[yi[y], xi[x]] = v
    return BoundaryGrid(np.array(xs), np.array(ys), scores, points)


def grid_cells(xs, ys):
    """The (x, y) points of the grid xs x ys as rows, x fastest."""
    gx, gy = np.meshgrid(xs, ys)
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def export_boundary_grid(model, X_train, X_regular, X_novel, resolution=100):
    """Score a resolution^2 grid spanning all points (padded 10% per side)
    plus every point itself, tagged train/regular/novel.

    The grid is (x, y): each set has two columns, x then y, and a set of
    any other width, or holding NaN or inf, raises DataError. The grid's
    cells (`grid_cells`) are scored as points, through `boundary_score`
    as the sets are, so a model of other than two columns raises DataError
    too; the grid's `sizes` record the cells and points scored.
    """
    if resolution < 2:
        raise InvalidSpec("resolution must be >= 2")
    sets = [as_rows(s, 2, "boundary grid") for s in (X_train, X_regular, X_novel)]
    for tag, pts in zip(("train", "regular", "novel"), sets):
        _require_finite(pts, f"boundary grid {tag} points")
    allpts = np.concatenate(sets, axis=0)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    pad = 0.1 * np.where(hi > lo, hi - lo, 1.0)
    xs = np.linspace(lo[0] - pad[0], hi[0] + pad[0], resolution)
    ys = np.linspace(lo[1] - pad[1], hi[1] + pad[1], resolution)

    scores = model.boundary_score(grid_cells(xs, ys)).reshape(resolution, resolution)

    points = []
    for tag, pts in zip(("train", "regular", "novel"), sets):
        vals = model.boundary_score(pts).tolist()
        px, py = pts.T.tolist()
        points.extend((x, y, v, tag) for x, y, v in zip(px, py, vals))
    sizes = {"grid_cells": int(scores.size), "points": len(points)}
    return BoundaryGrid(xs, ys, scores, points, sizes)
