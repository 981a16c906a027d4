"""Discrete AdaBoost over depth-limited decision stumps.

Each round fits a stump to the current sample distribution, weighs it by
alpha_m = learning_rate * ln((1 - eps_m) / eps_m), and multiplies the
weights of misclassified samples by exp(alpha_m) before renormalising.
A perfect stump (eps == 0) is clamped to 1e-10 and stops boosting early;
a stump no better than chance (eps >= 0.5) is discarded and also stops.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import InvalidSpec
from .base import FeatureMatrix, FittedModel, require_finite
from .tree import CartGrower, FlatEnsemble, TreeParams, checked_trees, descend, grow_tree

_EPS_FLOOR = 1e-10


@dataclass
class AdaBoostParams:
    n_estimators: int = 50
    learning_rate: float = 1.0
    base_max_depth: int = 1

    def __post_init__(self):
        if self.n_estimators < 1:
            raise InvalidSpec("n_estimators must be >= 1")
        if self.learning_rate <= 0:
            raise InvalidSpec("learning_rate must be positive")
        if self.base_max_depth < 1:
            raise InvalidSpec("base_max_depth must be >= 1")


class AdaBoostModel(FittedModel):
    kind = "ADA"
    threshold = 0.0

    def __init__(self, n_features, alphas, stumps):
        super().__init__(n_features)
        self.alphas = [float(a) for a in alphas]
        require_finite(alphas=self.alphas)
        self.stumps = checked_trees(stumps, n_features)
        # each leaf holds alpha_m * h_m(x), with stump outputs mapped to +-1
        self._weighted = FlatEnsemble(self.stumps, [
            a * np.where(s["p1"] > 0.5, 1.0, -1.0) for s, a in zip(self.stumps, self.alphas)])

    @property
    def n_nodes(self):
        return self._weighted.n_nodes

    def _score(self, X):
        """Sum of alpha_m * h_m(x) over the rounds."""
        return self._weighted.sum(X)


def fit_adaboost(fm: FeatureMatrix, hp: AdaBoostParams = None, seed: int = 0):
    hp = hp or AdaBoostParams()
    fm.require_both_classes()
    X = fm.X
    y = fm.y.astype(float)
    dist = fm.normalized_weights()
    dist = dist / dist.sum()
    # every round grows on all rows, so the grower sorts the root once
    grower = CartGrower(X, y, TreeParams(max_depth=hp.base_max_depth))
    stumps, alphas = [], []
    for _ in range(hp.n_estimators):
        nodes = grower.grow(dist)[0]
        pred = descend(nodes, X) > 0.5
        mis = pred != fm.y.astype(bool)
        eps = float(dist[mis].sum())
        if eps >= 0.5:
            break
        alpha = hp.learning_rate * np.log((1.0 - max(eps, _EPS_FLOOR)) / max(eps, _EPS_FLOOR))
        stumps.append(nodes)
        alphas.append(float(alpha))
        if eps <= 0.0:
            break
        dist = dist * np.exp(alpha * mis)
        dist = dist / dist.sum()
    if not stumps:
        # every stump was at-chance; fall back to the majority-class constant
        nodes = grow_tree(X, y, fm.normalized_weights(),
                          TreeParams(min_samples_split=len(X) + 1))
        stumps, alphas = [nodes], [0.0]
    model = AdaBoostModel(fm.d, alphas, stumps)
    model.meta = {"hyperparams": asdict(hp), "seed": seed,
                  "n_rounds": len(stumps)}
    return model
