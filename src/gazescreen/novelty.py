"""Unsupervised novelty detection trained on control data only: isolation
forest and nu-one-class SVM, plus a dense decision-boundary grid export.

Both detectors expose ``boundary_score`` with one shared sign convention:
positive = regular, negative = novel. For the one-class SVM this is its
native decision function f(x) = sum_i alpha_i k(x_i, x) - rho; for the
isolation forest it is 0.5 - anomaly_score, since 0.5 is the score of a
point whose expected path length matches the average for the subsample
size.
"""
from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import atomic_write_text
from .errors import (
    DataError,
    EmptyDataset,
    InvalidHyperParam,
    InvalidSpec,
    MissingColumn,
)
from .kernels import rbf_kernel, resolve_gamma
from .models.tree import FlatEnsemble, node_depths

EULER_GAMMA = 0.5772156649

_harmonic_cache = np.array([0.0])  # _harmonic_cache[i] = H(i)


def harmonic_number(i):
    """H(i) = sum_{k=1..i} 1/k, exact partial sums (cached); for large i
    this agrees with ln(i) + Euler's constant to O(1/i)."""
    global _harmonic_cache
    i = int(i)
    if i < 0:
        raise InvalidSpec("harmonic number needs i >= 0")
    if i >= len(_harmonic_cache):
        start = len(_harmonic_cache)
        extra = np.cumsum(1.0 / np.arange(start, i + 1)) + _harmonic_cache[-1]
        _harmonic_cache = np.concatenate([_harmonic_cache, extra])
    return float(_harmonic_cache[i])


def average_path_length(m):
    """c(m) = 2 H(m-1) - 2 (m-1)/m: expected unsuccessful-search path
    length in a binary search tree of m points; 0 for m <= 1."""
    m = int(m)
    if m <= 1:
        return 0.0
    return 2.0 * harmonic_number(m - 1) - 2.0 * (m - 1) / m


# -- isolation forest ----------------------------------------------------------

@dataclass
class IsoForestParams:
    n_trees: int = 100
    subsample: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1 or self.subsample < 2:
            raise InvalidHyperParam("need n_trees >= 1 and subsample >= 2")


def _grow_iso_tree(X, rng, height_limit):
    """Random axis-aligned splits; leaves store their training size."""
    feature, threshold, left, right, size = [], [], [], [], []
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
    }


def _average_path_lengths(sizes):
    """Elementwise `average_path_length`, with the same arithmetic."""
    m = np.asarray(sizes, dtype=np.int64)
    out = np.zeros(len(m))
    big = m > 1
    if big.any():
        harmonic_number(m.max() - 1)  # extend the cache
        mb = m[big]
        out[big] = 2.0 * _harmonic_cache[mb - 1] - 2.0 * (mb - 1) / mb
    return out


def _iso_ensemble(trees):
    """Isolation trees as one flat ensemble whose leaves hold the path
    length (depth + c(size)). The strict split `x < t` is stored as
    `x <= nextafter(t, -inf)`, which is the same test for every float."""
    return FlatEnsemble(
        trees,
        [node_depths(t) + _average_path_lengths(t["size"]) for t in trees],
        thresholds=[np.nextafter(np.asarray(t["threshold"], dtype=float), -np.inf)
                    for t in trees])


def _iso_path_lengths(tree, X):
    """Depth at exit plus c(leaf size), vectorised over rows."""
    return _iso_ensemble([tree]).sum(X)


class IsolationForestModel:
    """Bag of random isolation trees; anomaly_score in (0, 1), higher is
    more anomalous, 0.5 at the average path length."""

    def __init__(self, trees, psi, n_features):
        self.trees = trees
        self.psi = psi
        self.n_features = n_features
        self._c_psi = average_path_length(psi)
        self._paths = _iso_ensemble(trees)

    def expected_path_length(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        return self._paths.sum(X) / len(self.trees)

    def anomaly_score(self, X):
        eh = self.expected_path_length(X)
        return np.power(2.0, -eh / self._c_psi)

    def boundary_score(self, X):
        return 0.5 - self.anomaly_score(X)


def fit_isolation_forest(X, params: IsoForestParams = None):
    params = params or IsoForestParams()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) < 2:
        raise EmptyDataset("isolation forest needs at least 2 rows")
    psi = min(params.subsample, len(X))
    height_limit = int(np.ceil(np.log2(psi)))
    trees = []
    for i in range(params.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence((params.seed, i)))
        idx = rng.choice(len(X), size=psi, replace=False)
        trees.append(_grow_iso_tree(X[idx], rng, height_limit))
    return IsolationForestModel(trees, psi, X.shape[1])


# -- nu one-class SVM ----------------------------------------------------------

@dataclass
class OcsvmParams:
    # the dual gradient K@alpha lives in [0, 1] for any data (RBF entries
    # <= 1, sum alpha = 1), so an absolute stopping tolerance is scale-free;
    # 1e-6 resolves the boundary-vector band, which is far narrower than
    # the classic 1e-3
    nu: float = 0.1
    gamma: object = "scale"
    tol: float = 1e-6
    max_iter: int = 500_000

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise InvalidHyperParam("nu must be in (0, 1]")
        if self.tol <= 0 or self.max_iter < 1:
            raise InvalidHyperParam("tol and max_iter must be positive")


class OneClassSvmModel:
    """f(x) = sum_i alpha_i k(x_i, x) - rho; negative means novel.

    Coefficients satisfy the nu-formulation constraints: they sum to 1
    and lie in [0, 1/(nu n)].
    """

    def __init__(self, support_X, alphas, rho, gamma, converged=True):
        self.support_X = support_X
        self.alphas = alphas
        self.rho = rho
        self.gamma = gamma
        self.converged = converged
        self.n_features = support_X.shape[1]

    def decision_score(self, X, chunk=4096):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        out = np.empty(len(X))
        for lo in range(0, len(X), chunk):
            hi = min(lo + chunk, len(X))
            out[lo:hi] = rbf_kernel(X[lo:hi], self.support_X, self.gamma) @ self.alphas
        return out - self.rho

    boundary_score = decision_score

    def predict_novel(self, X):
        return (self.decision_score(X) < 0.0).astype(np.int64)


def fit_ocsvm(X, params: OcsvmParams = None):
    """SMO on  min 1/2 a'Ka  s.t. sum a = 1, 0 <= a_i <= 1/(nu n).

    The maximal violating pair transfers mass between a decreasable and an
    increasable coefficient; the full gradient K a is maintained so
    selection is O(n).
    """
    params = params or OcsvmParams()
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or len(X) < 2:
        raise EmptyDataset("one-class SVM needs at least 2 rows")
    n = len(X)
    ub = 1.0 / (params.nu * n)
    if ub * n < 1.0 - 1e-12:
        raise InvalidHyperParam("infeasible: nu * n leaves too little mass")
    gamma = resolve_gamma(params.gamma, X)
    K = rbf_kernel(X, X, gamma) if n <= 6000 else None

    def krow(i, cache={}):
        if K is not None:
            return K[i]
        row = cache.get(i)
        if row is None:
            row = rbf_kernel(X[i:i + 1], X, gamma)[0]
            if len(cache) > 512:
                cache.clear()
            cache[i] = row
        return row

    # LIBSVM-style start: pile the unit of mass onto the first ceil(nu n)
    # coefficients
    alpha = np.zeros(n)
    n_full = int(np.floor(params.nu * n))
    alpha[:n_full] = ub
    if n_full < n:
        alpha[n_full] = 1.0 - n_full * ub
    grad = np.zeros(n)
    for i in np.nonzero(alpha > 0)[0]:
        grad += alpha[i] * krow(i)

    converged = False
    for _ in range(params.max_iter):
        can_dec = alpha > 1e-14
        can_inc = alpha < ub - 1e-14
        dec_idx = np.nonzero(can_dec)[0]
        inc_idx = np.nonzero(can_inc)[0]
        if dec_idx.size == 0 or inc_idx.size == 0:
            converged = True
            break
        i = dec_idx[np.argmax(grad[dec_idx])]
        j = inc_idx[np.argmin(grad[inc_idx])]
        if grad[i] - grad[j] <= params.tol:
            converged = True
            break
        Ki = krow(i)
        Kj = krow(j)
        quad = max(Ki[i] + Kj[j] - 2.0 * Ki[j], 1e-12)
        delta = (grad[i] - grad[j]) / quad
        delta = min(delta, alpha[i], ub - alpha[j])
        alpha[i] -= delta
        alpha[j] += delta
        grad += delta * (Kj - Ki)

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
    return OneClassSvmModel(X[sv].copy(), alpha[sv].copy(), rho, gamma, converged)


# -- boundary grid export --------------------------------------------------------

@dataclass
class BoundaryGrid:
    """Dense score field over a 2-D box plus the scored scatter points."""

    x_values: np.ndarray
    y_values: np.ndarray
    scores: np.ndarray            # (resolution_y, resolution_x)
    points: list = field(default_factory=list)  # (x, y, score, tag)

    def to_csv_text(self):
        buf = io.StringIO()
        buf.write("kind,x,y,value,tag\n")
        for iy, yv in enumerate(self.y_values):
            for ix, xv in enumerate(self.x_values):
                buf.write(
                    f"grid,{float(xv)!r},{float(yv)!r},"
                    f"{float(self.scores[iy, ix])!r},\n")
        for x, y, score, tag in self.points:
            buf.write(f"point,{float(x)!r},{float(y)!r},{float(score)!r},{tag}\n")
        return buf.getvalue()

    def save(self, path):
        atomic_write_text(path, self.to_csv_text())


def load_boundary_grid(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["kind", "x", "y", "value", "tag"]:
            raise MissingColumn(f"{path}: expected header kind,x,y,value,tag")
        grid_rows, points = [], []
        for rec in reader:
            if not rec:
                continue
            kind, x, y, value, tag = rec
            if kind == "grid":
                grid_rows.append((float(x), float(y), float(value)))
            elif kind == "point":
                points.append((float(x), float(y), float(value), tag))
            else:
                raise DataError(f"{path}: unknown row kind {kind!r}")
    xs = sorted({r[0] for r in grid_rows})
    ys = sorted({r[1] for r in grid_rows})
    scores = np.full((len(ys), len(xs)), np.nan)
    xi = {v: i for i, v in enumerate(xs)}
    yi = {v: i for i, v in enumerate(ys)}
    for x, y, v in grid_rows:
        scores[yi[y], xi[x]] = v
    return BoundaryGrid(np.array(xs), np.array(ys), scores, points)


def export_boundary_grid(model, X_train, X_regular, X_novel, dims=(0, 1),
                         resolution=100):
    """Score a resolution^2 grid spanning all points (padded 10% per side)
    plus every point itself, tagged train/regular/novel.

    Models fit on more than the two plotted dimensions are evaluated with
    the remaining features pinned at the training medians.
    """
    if resolution < 2:
        raise InvalidSpec("resolution must be >= 2")
    dims = tuple(dims)
    sets = [np.asarray(s, dtype=float) for s in (X_train, X_regular, X_novel)]
    allpts = np.concatenate([s[:, dims] for s in sets], axis=0)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    pad = 0.1 * np.where(hi > lo, hi - lo, 1.0)
    xs = np.linspace(lo[0] - pad[0], hi[0] + pad[0], resolution)
    ys = np.linspace(lo[1] - pad[1], hi[1] + pad[1], resolution)

    d_model = model.n_features
    medians = np.median(sets[0], axis=0)

    def full_dim(pairs):
        if d_model == 2 and dims == (0, 1):
            return pairs
        out = np.tile(medians, (len(pairs), 1))
        out[:, dims[0]] = pairs[:, 0]
        out[:, dims[1]] = pairs[:, 1]
        return out

    gx, gy = np.meshgrid(xs, ys)
    cells = np.stack([gx.ravel(), gy.ravel()], axis=1)
    scores = model.boundary_score(full_dim(cells)).reshape(resolution, resolution)

    points = []
    for tag, pts in zip(("train", "regular", "novel"), sets):
        vals = model.boundary_score(pts)
        for row, v in zip(pts[:, dims], vals):
            points.append((float(row[0]), float(row[1]), float(v), tag))
    return BoundaryGrid(xs, ys, scores, points)
