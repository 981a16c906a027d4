"""Random forest of CART trees: bootstrap rows, per-split random feature
subsets, majority vote."""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .. import forked
from ..settings import Settings
from .base import FeatureMatrix, FittedModel
from .tree import CartGrower, FlatEnsemble, TreeParams, checked_trees, tree_rng


@dataclass
class ForestParams(Settings):
    """max_features None means floor(sqrt(d)); max_samples None draws a
    full-size bootstrap."""

    RANGES = {"n_estimators": "[1, inf)", "max_features": "[1, inf)",
              "max_samples": "[1, inf)", **TreeParams.RANGES}
    n_estimators: int = 100
    max_features: int = None
    bootstrap: bool = True
    max_samples: int = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_depth: int = None


# bag rows (trees times rows drawn per tree) per process of a split fit: a
# fit grows in one piece per this many rows, at most one per CPU. On a
# 2-core Xeon (100 trees, medians of 15 alternating fits) two processes
# against one took 30.3 vs 27.4 ms at 15,000 bag rows, 53.3 vs 49.7 ms at
# 30,000, 68.9 vs 71.2 ms at 40,000 and 110.6 vs 146.0 ms at 60,000
_BAG_ROWS_PER_PROCESS = 30_000


class RandomForestModel(FittedModel):
    kind = "RF"
    threshold = 0.5  # decision_score is the fraction of trees voting 1

    def __init__(self, n_features, trees):
        super().__init__(n_features)
        self.trees = checked_trees(trees, n_features)
        # each tree's leaf votes 1 when its class-1 fraction exceeds 1/2
        self._votes = FlatEnsemble(self.trees,
                                   [(t["p1"] > 0.5).astype(float) for t in self.trees])

    @property
    def n_nodes(self):
        return self._votes.n_nodes

    def _score(self, X):
        return self._votes.sum(X) / len(self.trees)


def fit_random_forest(fm: FeatureMatrix, hp: ForestParams = None, seed: int = 0):
    """Each tree draws its bootstrap and then its split features from its own
    RNG stream derived from (seed, tree_index), so results do not depend on
    scheduling. The trees grow in lockstep, in contiguous ranges of tree
    indices, one per process of `forked.run_pieces`, and are concatenated
    in index order: one process or several give the same trees."""
    hp = hp or ForestParams()
    w = fm.normalized_weights()
    m = hp.max_features if hp.max_features is not None else max(1, int(np.sqrt(fm.d)))
    m = min(m, fm.d)
    n_draw = hp.max_samples if hp.max_samples is not None else fm.n
    n_draw = min(n_draw, fm.n)
    tree_hp = TreeParams(min_samples_split=hp.min_samples_split,
                         min_samples_leaf=hp.min_samples_leaf,
                         max_depth=hp.max_depth)
    grower = CartGrower(fm.X, fm.y, tree_hp, max_features=m)
    n_trees = hp.n_estimators
    k = max(1, min(forked.worker_count(), n_trees,
                   n_trees * n_draw // _BAG_ROWS_PER_PROCESS))
    ends = [n_trees * j // k for j in range(k + 1)]

    def grow(piece):
        rngs = [tree_rng(seed, i) for i in range(ends[piece], ends[piece + 1])]
        bags = [rng.integers(0, fm.n, size=n_draw) if hp.bootstrap else np.arange(n_draw)
                for rng in rngs]
        return grower.grow(w, bags, rngs)
    model = RandomForestModel(fm.d, [t for trees in forked.run_pieces(grow, k) for t in trees])
    model.meta = {"hyperparams": asdict(hp), "seed": seed}
    return model
