"""Soft-margin RBF SVC trained by sequential minimal optimisation.

The dual  min 1/2 a'Qa - e'a  s.t. y'a = 0, 0 <= a_i <= C_i, Q = yy'K, is
solved in the variables b = y a, where it reads

    min 1/2 b'Kb - y'b  s.t. sum b = 0, min(0, y_i C_i) <= b_i <= max(0, y_i C_i),

by `smo`, the one-class SVM's solver. Per-sample box bounds C_i carry
class weighting. Kernel rows are computed on demand and kept in a bounded
LRU cache.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import InvalidSpec
from ..kernels import KernelRowCache, kernel_expansion, resolve_gamma, smo
from .base import FeatureMatrix, FittedModel, arr, as_rows


@dataclass
class SvcParams:
    C: float = 1.0
    gamma: object = "scale"
    tol: float = 1e-3
    max_iter: int = 200_000

    def __post_init__(self):
        if self.C <= 0:
            raise InvalidSpec("C must be positive")
        if self.tol <= 0:
            raise InvalidSpec("tol must be positive")
        if self.max_iter < 1:
            raise InvalidSpec("max_iter must be >= 1")


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
    cache = KernelRowCache(X, gamma)

    beta = np.zeros(n)  # y * alpha
    grad = -y  # K beta - y
    lo = np.where(y < 0, -C, 0.0)
    hi = np.where(y > 0, C, 0.0)
    n_iter, converged = smo(cache, beta, grad, lo, hi, hp.tol, hp.max_iter)

    # intercept from free vectors, else midpoint of the final KKT interval
    yg = -grad
    alpha = np.abs(beta)
    free = (alpha > 1e-8 * C) & (alpha < C * (1.0 - 1e-8))
    if free.any():
        b = float(np.mean(yg[free]))
    else:
        up, low = beta < hi, beta > lo
        b = float(0.5 * ((yg[up].max() if up.any() else 0.0)
                         + (yg[low].min() if low.any() else 0.0)))

    sv = alpha > 1e-12
    model = SvcRbfModel(fm.d, X[sv].copy(), beta[sv], b, gamma, converged)
    model.meta = {"hyperparams": {**asdict(hp), "gamma": str(hp.gamma)},
                  "seed": seed, "gamma_value": gamma, "n_iter": n_iter,
                  "n_support": int(sv.sum()), "kernel_rows": cache.computed}
    return model
