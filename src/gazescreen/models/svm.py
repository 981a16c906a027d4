"""Soft-margin RBF SVC trained by sequential minimal optimisation.

The dual  min 1/2 a'Qa - e'a  s.t. y'a = 0, 0 <= a_i <= C_i  is solved by
repeatedly optimising the maximal violating pair (first-order working-set
selection) with the exact two-variable update, maintaining the full
gradient and both selection masks, so a step selects with one masked
argmax and one masked argmin and updates the masks at the pair alone.
Per-sample box bounds C_i carry class weighting. Kernel rows are computed
on demand and kept in a bounded LRU cache.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import InvalidHyperParam
from ..kernels import KernelRowCache, kernel_expansion, resolve_gamma
from .base import FeatureMatrix, FittedModel, arr, as_rows, register_model

_TAU = 1e-12


@dataclass
class SvcParams:
    C: float = 1.0
    gamma: object = "scale"
    tol: float = 1e-3
    max_iter: int = 200_000
    cache_rows: int = 512

    def __post_init__(self):
        if self.C <= 0:
            raise InvalidHyperParam("C must be positive")
        if self.tol <= 0:
            raise InvalidHyperParam("tol must be positive")
        if self.max_iter < 1:
            raise InvalidHyperParam("max_iter must be >= 1")


@register_model
class SvcRbfModel(FittedModel):
    kind = "SVC"
    threshold = 0.0

    def __init__(self, n_features, support_X, dual_coef, intercept, gamma,
                 converged=True):
        super().__init__(n_features)
        self.support_X = as_rows(support_X, n_features, "SVC support_X")
        self.dual_coef = arr(dual_coef)  # alpha_i * y_i for support vectors
        self.intercept = float(intercept)
        self.gamma = float(gamma)
        self.converged = bool(converged)

    def _score(self, X):
        out = kernel_expansion(X, self.support_X, self.gamma, self.dual_coef)
        out += self.intercept
        return out

    def _params_to_json(self):
        return {
            "support_X": self.support_X.tolist(),
            "dual_coef": self.dual_coef.tolist(),
            "intercept": self.intercept,
            "gamma": self.gamma,
            "converged": self.converged,
        }


def fit_svc_rbf(fm: FeatureMatrix, hp: SvcParams = None, seed: int = 0):
    """SMO is deterministic (no randomness in selection); `seed` is recorded
    for interface uniformity only."""
    hp = hp or SvcParams()
    fm.require_both_classes()
    X = fm.X
    y = fm.signed_labels()
    n = fm.n
    C = hp.C * fm.normalized_weights()
    gamma = resolve_gamma(hp.gamma, X)
    cache = KernelRowCache(X, gamma, hp.cache_rows)

    alpha = np.zeros(n)
    grad = -np.ones(n)  # G = Q alpha - e
    neg_y = -y
    yg = np.empty(n)
    # the selection masks, kept from step to step: up is 0 where a
    # coefficient is in I_up and -inf where not, low 0 where it is in I_low
    # and +inf where not; a mask added to the (finite) -y G gives the masked
    # values, whose first argmax/argmin is the pair, and an infinite pick
    # means an empty set
    up = np.where(((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0)), 0.0, -np.inf)
    low = np.where(((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0)), 0.0, np.inf)
    masked = np.empty(n)
    converged = False
    n_iter = 0  # pair updates made
    while n_iter < hp.max_iter:
        np.multiply(neg_y, grad, out=yg)
        i = np.add(yg, up, out=masked).argmax()
        if masked[i] == -np.inf:
            converged = True
            break
        j = np.add(yg, low, out=masked).argmin()
        if masked[j] == np.inf:
            converged = True
            break
        if yg[i] - yg[j] <= hp.tol:
            converged = True
            break
        # one row per call, as SVC rows have always been computed: a pair
        # would go through gemm instead of gemv and could move the last
        # bits of the saved models and reports
        Ki, = cache.rows([i])
        Kj, = cache.rows([j])
        Qi = y[i] * (y * Ki)
        Qj = y[j] * (y * Kj)
        old_i, old_j = alpha[i], alpha[j]
        if y[i] != y[j]:
            quad = max(Qi[i] + Qj[j] + 2.0 * Qi[j], _TAU)
            delta = (-grad[i] - grad[j]) / quad
            diff = old_i - old_j
            ai, aj = old_i + delta, old_j + delta
            if diff > 0:
                if aj < 0:
                    aj = 0.0
                    ai = diff
            else:
                if ai < 0:
                    ai = 0.0
                    aj = -diff
            if diff > C[i] - C[j]:
                if ai > C[i]:
                    ai = C[i]
                    aj = C[i] - diff
            else:
                if aj > C[j]:
                    aj = C[j]
                    ai = C[j] + diff
        else:
            quad = max(Qi[i] + Qj[j] - 2.0 * Qi[j], _TAU)
            delta = (grad[i] - grad[j]) / quad
            total = old_i + old_j
            ai, aj = old_i - delta, old_j + delta
            if total > C[i]:
                if ai > C[i]:
                    ai = C[i]
                    aj = total - C[i]
            else:
                if aj < 0:
                    aj = 0.0
                    ai = total
            if total > C[j]:
                if aj > C[j]:
                    aj = C[j]
                    ai = total - C[j]
            else:
                if ai < 0:
                    ai = 0.0
                    aj = total
        alpha[i], alpha[j] = ai, aj
        grad += Qi * (ai - old_i) + Qj * (aj - old_j)
        for k in (i, j):
            below, above = alpha[k] < C[k], alpha[k] > 0
            up[k] = 0.0 if (below if y[k] > 0 else above) else -np.inf
            low[k] = 0.0 if (below if y[k] < 0 else above) else np.inf
        n_iter += 1

    # intercept from free vectors, else midpoint of the final KKT interval
    yg = neg_y * grad
    free = (alpha > 1e-8 * C) & (alpha < C * (1.0 - 1e-8))
    if free.any():
        b = float(np.mean(yg[free]))
    else:
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y < 0) & (alpha < C)) | ((y > 0) & (alpha > 0))
        hi = yg[up].max() if up.any() else 0.0
        lo = yg[low].min() if low.any() else 0.0
        b = float(0.5 * (hi + lo))

    sv = alpha > 1e-12
    model = SvcRbfModel(fm.d, X[sv].copy(), (alpha * y)[sv], b, gamma, converged)
    model.meta = {"hyperparams": {**asdict(hp), "gamma": str(hp.gamma)},
                  "seed": seed, "gamma_value": gamma, "n_iter": n_iter,
                  "n_support": int(sv.sum()), "converged": converged,
                  "kernel_rows": cache.computed}
    return model
