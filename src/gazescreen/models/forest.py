"""Random forest of CART trees: bootstrap rows, per-split random feature
subsets, majority vote."""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import InvalidSpec
from .base import FeatureMatrix, FittedModel
from .tree import (
    CartGrower,
    FlatEnsemble,
    TreeParams,
    check_trees,
    nodes_from_json,
    nodes_to_json,
)


@dataclass
class ForestParams:
    """max_features None means floor(sqrt(d)); max_samples None draws a
    full-size bootstrap."""

    n_estimators: int = 100
    max_features: int = None
    bootstrap: bool = True
    max_samples: int = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_depth: int = None

    def __post_init__(self):
        if self.n_estimators < 1:
            raise InvalidSpec("n_estimators must be >= 1")
        if self.max_features is not None and self.max_features < 1:
            raise InvalidSpec("max_features must be >= 1 when set")
        if self.max_samples is not None and self.max_samples < 1:
            raise InvalidSpec("max_samples must be >= 1 when set")


def _tree_rng(seed, index):
    # per-tree stream: SeedSequence keyed by (forest seed, tree index)
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


class RandomForestModel(FittedModel):
    kind = "RF"
    threshold = 0.5  # decision_score is the fraction of trees voting 1

    def __init__(self, n_features, trees):
        super().__init__(n_features)
        self.trees = [nodes_from_json(t) for t in trees]
        check_trees(self.trees, n_features)
        # each tree's leaf votes 1 when its class-1 fraction exceeds 1/2
        self._votes = FlatEnsemble(self.trees,
                                   [(t["p1"] > 0.5).astype(float) for t in self.trees])

    @property
    def n_nodes(self):
        return self._votes.n_nodes

    def _score(self, X):
        return self._votes.sum(X) / len(self.trees)

    def _params_to_json(self):
        return {"trees": [nodes_to_json(t) for t in self.trees]}


def fit_random_forest(fm: FeatureMatrix, hp: ForestParams = None, seed: int = 0):
    """Each tree draws its bootstrap and then its split features from its own
    RNG stream derived from (seed, tree_index), so results do not depend on
    scheduling; the trees grow in lockstep."""
    hp = hp or ForestParams()
    w = fm.normalized_weights()
    m = hp.max_features if hp.max_features is not None else max(1, int(np.sqrt(fm.d)))
    m = min(m, fm.d)
    n_draw = hp.max_samples if hp.max_samples is not None else fm.n
    n_draw = min(n_draw, fm.n)
    tree_hp = TreeParams(min_samples_split=hp.min_samples_split,
                         min_samples_leaf=hp.min_samples_leaf,
                         max_depth=hp.max_depth)
    rngs = [_tree_rng(seed, i) for i in range(hp.n_estimators)]
    bags = [rng.integers(0, fm.n, size=n_draw) if hp.bootstrap else np.arange(n_draw)
            for rng in rngs]
    trees = CartGrower(fm.X, fm.y, tree_hp, max_features=m).grow(w, bags, rngs)
    model = RandomForestModel(fm.d, trees)
    model.meta = {"hyperparams": asdict(hp), "seed": seed}
    return model
