"""RBF kernel helpers shared by the SVM, one-class SVM and GP classifier,
and the SMO solver of the two SVMs' duals."""
from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .errors import InvalidSpec


def squared_norms(B):
    return np.sum(B * B, axis=1)


# Elements of one row block of the in-place elementwise steps: the block
# of the product and its scratch sum of norms each stay near 64 KB, in cache
_BLOCK_CELLS = 1 << 13


def _block_rows(n_cols):
    return max(1, _BLOCK_CELLS // max(n_cols, 1))


def _distances_in_place(A, B, b_sq, out, gamma):
    if b_sq is None:
        b_sq = squared_norms(B)
    a_sq = squared_norms(A)
    # the one BLAS product (syrk when A is B), then every step in place:
    # the same operations on the same operands as
    # max(a_sq + b_sq - 2 A B', 0), so the same bits
    D = np.matmul(A, B.T, out=out)
    D *= 2.0
    rows = _block_rows(D.shape[1])
    scratch = np.empty((min(rows, len(D)), D.shape[1]))
    for lo in range(0, len(D), rows):
        block = D[lo:lo + rows]
        s = scratch[:len(block)]
        np.add(a_sq[lo:lo + rows, None], b_sq[None, :], out=s)
        np.subtract(s, block, out=block)
        np.maximum(block, 0.0, out=block)
        if gamma is not None:
            block *= -gamma
            np.exp(block, out=block)
    return D


def squared_distances(A, B, b_sq=None, out=None):
    """Pairwise squared Euclidean distances, clipped at 0 so float
    cancellation never produces tiny negatives. `b_sq` may hold
    `squared_norms(B)`, summed once by a caller that reuses B. With `out`,
    a C-contiguous (len(A), len(B)) float array, the distances are written
    there and no other array of that size is allocated."""
    return _distances_in_place(A, B, b_sq, out, None)


def rbf_kernel(A, B, gamma, b_sq=None, out=None):
    """exp(-gamma * squared_distances(A, B)), bit for bit, computed in the
    one array that holds the result (`out` when given)."""
    return _distances_in_place(A, B, b_sq, out, gamma)


# Rows per block of a kernel expansion. BLAS rounds a product by its
# shape, so scores keep their bits only while the blocks keep this size
_EXPANSION_ROWS = 4096


def kernel_expansion(X, S, gamma, coef):
    """sum_i coef[i] exp(-gamma |x - S[i]|^2) for every row x of X.

    Blocks of `_EXPANSION_ROWS` rows of X are computed by `rbf_kernel`, all
    in one buffer allocated per call, and each is multiplied by coef in one
    BLAS gemv."""
    out = np.empty(len(X))
    buf = np.empty((min(_EXPANSION_ROWS, len(X)), len(S)))
    s_sq = squared_norms(S)
    for lo in range(0, len(X), _EXPANSION_ROWS):
        hi = min(lo + _EXPANSION_ROWS, len(X))
        K = rbf_kernel(X[lo:hi], S, gamma, s_sq, out=buf[:hi - lo])
        np.matmul(K, coef, out=out[lo:hi])
    return out


# Byte budget of a kernel-row cache. At 3000 training rows it holds about
# 2800 rows, so an SMO run there never evicts; at 10,000 rows about 840 and
# at the SVC's published cap of 16,000 rows 524.
_KERNEL_CACHE_BYTES = 64 << 20


class KernelRowCache:
    """Least-recently-used cache of RBF kernel rows k(X[i], X), as `smo`
    and the one-class SVM's start request them. Its `capacity` is
    `_KERNEL_CACHE_BYTES` worth of rows, and at least two.

    `rows(idx)` returns the rows of `idx` in order. When any of them is
    missing, all of `idx` are computed together in one `rbf_kernel` call,
    which takes the squared norms of X summed once at construction. A call
    of two or more rows goes through BLAS gemm, whose rows match those of
    the full n x n kernel matrix at sizes such as 3000 rows; a one-row call
    would go through gemv and round differently, so no caller makes one.
    `computed` counts the rows computed so far.
    """

    def __init__(self, X, gamma):
        self.X = X
        self.gamma = gamma
        self.capacity = max(2, _KERNEL_CACHE_BYTES // (8 * len(X)))
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


def smo(cache, beta, grad, lo, hi, tol, max_iter):
    """Sequential minimal optimisation of

        min 1/2 b'Kb + p'b  s.t. sum b fixed, lo <= b <= hi,

    K the kernel matrix whose rows `cache` serves. On entry `grad` holds
    K beta + p; `beta` and `grad` are updated in place. Returns (n_iter,
    converged).

    Each step moves mass from the maximal violating pair's decreasable
    coefficient i to its increasable one j (first-order working-set
    selection), by the exact two-variable step clipped to the box. The
    full gradient and both selection masks are kept from step to step, so
    a step selects with one masked argmax and one masked argmin, takes the
    pair's rows in one `cache.rows([i, j])` call and updates the masks at
    the pair alone.
    """
    # can_dec is 0 where a coefficient can decrease and -inf where not,
    # can_inc 0 where it can increase and +inf where not; a mask added to
    # the (finite) gradient gives the masked values, whose first
    # argmax/argmin is the pair, and an infinite pick means an empty set
    can_dec = np.where(beta > lo + 1e-14, 0.0, -np.inf)
    can_inc = np.where(beta < hi - 1e-14, 0.0, np.inf)
    masked = np.empty(len(beta))
    step = np.empty(len(beta))
    n_iter = 0
    while n_iter < max_iter:
        i = np.add(grad, can_dec, out=masked).argmax()
        if masked[i] == -np.inf:
            return n_iter, True
        j = np.add(grad, can_inc, out=masked).argmin()
        if masked[j] == np.inf or grad[i] - grad[j] <= tol:
            return n_iter, True
        Ki, Kj = cache.rows([i, j])
        quad = max(Ki[i] + Kj[j] - 2.0 * Ki[j], 1e-12)
        delta = min((grad[i] - grad[j]) / quad, beta[i] - lo[i], hi[j] - beta[j])
        beta[i] -= delta
        beta[j] += delta
        np.subtract(Kj, Ki, out=step)
        step *= delta
        grad += step
        for k in (i, j):
            can_dec[k] = 0.0 if beta[k] > lo[k] + 1e-14 else -np.inf
            can_inc[k] = 0.0 if beta[k] < hi[k] - 1e-14 else np.inf
        n_iter += 1
    return n_iter, False


def mean_variance(X):
    """The mean per-feature variance of X, the scale that SVM's gamma and
    GPC's length-scale start from; 1.0 for constant data, so that the
    kernel stays defined."""
    v = float(np.mean(np.var(X, axis=0)))
    return 1.0 if v <= 0 else v


def gamma_scale(X):
    """The 'scale' heuristic: 1 / (d * mean per-feature variance)."""
    X = np.asarray(X, dtype=float)
    return 1.0 / (X.shape[1] * mean_variance(X))


def resolve_gamma(gamma, X):
    if gamma == "scale":
        return gamma_scale(X)
    g = float(gamma)
    if g <= 0:
        raise InvalidSpec(f"gamma must be positive, got {gamma!r}")
    return g
