"""RBF kernel helpers shared by the SVM, one-class SVM and GP classifier."""
from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .errors import InvalidHyperParam


def squared_norms(B):
    return np.sum(B * B, axis=1)


def squared_distances(A, B, b_sq=None):
    """Pairwise squared Euclidean distances, clipped at 0 so float
    cancellation never produces tiny negatives. `b_sq` may hold
    `squared_norms(B)`, summed once by a caller that reuses B."""
    if b_sq is None:
        b_sq = squared_norms(B)
    sq = (squared_norms(A)[:, None]
          + b_sq[None, :]
          - 2.0 * (A @ B.T))
    return np.maximum(sq, 0.0)


def rbf_kernel(A, B, gamma, b_sq=None):
    return np.exp(-gamma * squared_distances(A, B, b_sq))


class KernelRowCache:
    """Least-recently-used cache of at most `capacity` RBF kernel rows
    k(X[i], X), as the SMO solvers request them.

    `rows(idx)` returns the rows of `idx` in order. When any of them is
    missing, all of `idx` are computed together in one `rbf_kernel` call,
    which takes the squared norms of X summed once at construction. The
    BLAS product behind a one-row call (gemv) can round differently from
    the one behind a call of two or more rows (gemm), so the caller decides
    which rows share a call. `computed` counts the rows computed so far.
    """

    def __init__(self, X, gamma, capacity):
        self.X = X
        self.gamma = gamma
        self.capacity = capacity
        self.computed = 0
        self._rows = OrderedDict()
        self._sq = squared_norms(X)

    def rows(self, idx):
        idx = [int(i) for i in idx]
        if all(i in self._rows for i in idx):
            for i in idx:
                self._rows.move_to_end(i)
            return [self._rows[i] for i in idx]
        block = rbf_kernel(self.X[idx], self.X, self.gamma, self._sq)
        self.computed += len(idx)
        out = []
        for i, row in zip(idx, block):
            # a copy, so an evicted row frees its memory whatever else
            # its block shared it with
            row = row.copy()
            self._rows[i] = row
            self._rows.move_to_end(i)
            if len(self._rows) > self.capacity:
                self._rows.popitem(last=False)
            out.append(row)
        return out


def gamma_scale(X):
    """The 'scale' heuristic: 1 / (d * mean per-feature variance)."""
    X = np.asarray(X, dtype=float)
    v = float(np.mean(np.var(X, axis=0)))
    if v <= 0:
        v = 1.0  # constant data: fall back so the kernel stays defined
    return 1.0 / (X.shape[1] * v)


def resolve_gamma(gamma, X):
    if gamma == "scale":
        return gamma_scale(X)
    g = float(gamma)
    if g <= 0:
        raise InvalidHyperParam(f"gamma must be positive, got {gamma!r}")
    return g
