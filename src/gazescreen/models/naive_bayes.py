"""Gaussian naive Bayes with weighted sufficient statistics."""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import InvalidSpec
from .base import FeatureMatrix, FittedModel, arr, as_rows, require_finite

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class NBParams:
    """var_smoothing adds that fraction of the largest feature variance to
    every per-class variance, keeping likelihoods finite on constant
    features."""

    var_smoothing: float = 1e-9

    def __post_init__(self):
        if self.var_smoothing < 0:
            raise InvalidSpec("var_smoothing must be >= 0")


class GaussianNaiveBayes(FittedModel):
    kind = "NB"
    threshold = 0.0

    def __init__(self, n_features, class_log_prior, means, variances):
        super().__init__(n_features)
        self.class_log_prior = arr(class_log_prior)
        self.means = as_rows(means, n_features, "NB means")              # (2, d)
        self.variances = as_rows(variances, n_features, "NB variances")  # (2, d)
        require_finite(class_log_prior=self.class_log_prior, means=self.means,
                       variances=self.variances)

    def joint_log_likelihood(self, X):
        """(n, 2) array of log prior + sum of per-feature Gaussian log pdfs."""
        X = self._check_X(X)
        out = np.empty((len(X), 2))
        for c in (0, 1):
            diff = X - self.means[c]
            out[:, c] = self.class_log_prior[c] - 0.5 * np.sum(
                LOG_2PI + np.log(self.variances[c]) + diff * diff / self.variances[c],
                axis=1)
        return out

    def _score(self, X):
        jll = self.joint_log_likelihood(X)
        return jll[:, 1] - jll[:, 0]


def fit_naive_bayes(fm: FeatureMatrix, hp: NBParams = None, seed: int = 0):
    """Weighted ML estimates: weighted means, biased weighted variances and
    weighted class priors, so integer weights reproduce row replication
    exactly. The fit draws nothing, so `seed` leaves it unchanged."""
    hp = hp or NBParams()
    fm.require_both_classes()
    w = fm.normalized_weights()
    total = w.sum()
    # smoothing scale: weighted variance of each feature over all classes
    gmean = (w @ fm.X) / total
    gvar = (w @ ((fm.X - gmean) ** 2)) / total
    eps = hp.var_smoothing * float(gvar.max())
    means = np.empty((2, fm.d))
    variances = np.empty((2, fm.d))
    log_prior = np.empty(2)
    for c in (0, 1):
        mask = fm.y == c
        wc = w[mask]
        wsum = wc.sum()
        means[c] = (wc @ fm.X[mask]) / wsum
        variances[c] = (wc @ ((fm.X[mask] - means[c]) ** 2)) / wsum + eps
        log_prior[c] = np.log(wsum / total)
    if variances.min() <= 0:
        variances += max(eps, 1e-12)
    model = GaussianNaiveBayes(fm.d, log_prior, means, variances)
    model.meta = {"hyperparams": asdict(hp)}
    return model
