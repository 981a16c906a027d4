"""Linear models: L2-regularised logistic regression (L-BFGS) and a
mistake-driven perceptron with optional per-update L2 shrinkage. Both fit
the same model, `X @ weights + intercept` (`_LinearModel`), and differ in
their kind and fit alone.

scipy is imported inside the functions that call it: scoring a logistic
regression is `X @ w + b`, and importing the package does not load scipy.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..errors import InvalidSpec
from .base import FeatureMatrix, FittedModel, as_rows, require_finite


class _LinearModel(FittedModel):
    """`X @ weights + intercept`, class 1 above 0."""

    threshold = 0.0

    def __init__(self, n_features, weights, intercept, converged=True):
        super().__init__(n_features)
        self.weights = as_rows(weights, n_features, f"{self.kind} weights")[0]
        self.intercept = float(intercept)
        self.converged = bool(converged)
        require_finite(weights=self.weights, intercept=self.intercept)

    def _score(self, X):
        return X @ self.weights + self.intercept


# -- logistic regression -------------------------------------------------------

@dataclass
class LogRegParams:
    l2: float = 1.0
    tol: float = 1e-4
    max_iter: int = 100

    def __post_init__(self):
        if self.l2 < 0:
            raise InvalidSpec("l2 must be >= 0")
        if self.tol <= 0 or self.max_iter < 1:
            raise InvalidSpec("tol must be > 0 and max_iter >= 1")


def logreg_objective(params, X, y, sample_weights, l2):
    """Weighted negative log-likelihood plus (l2/2)||w||^2 (intercept
    unpenalised); returns (value, gradient)."""
    from scipy.special import expit

    w = params[:-1]
    b = params[-1]
    z = X @ w + b
    # log(1 + e^z) - y z, computed stably
    value = sample_weights @ (np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * (w @ w)
    r = sample_weights * (expit(z) - y)
    grad = np.concatenate([X.T @ r + l2 * w, [r.sum()]])
    return value, grad


class LogisticRegressionModel(_LinearModel):
    kind = "LR"


def fit_logreg(fm: FeatureMatrix, hp: LogRegParams = None, seed: int = 0):
    """L-BFGS on the penalised NLL; stops at projected-gradient infinity
    norm <= tol or at the iteration cap (then flagged non-converged). The
    fit draws nothing, so `seed` leaves it unchanged."""
    from scipy.optimize import minimize

    hp = hp or LogRegParams()
    fm.require_both_classes()
    sw = fm.normalized_weights()
    y = fm.y.astype(float)
    x0 = np.zeros(fm.d + 1)
    res = minimize(
        logreg_objective, x0, args=(fm.X, y, sw, hp.l2),
        method="L-BFGS-B", jac=True,
        options={"maxiter": hp.max_iter, "gtol": hp.tol, "ftol": 1e-14})
    grad_inf = float(np.max(np.abs(res.jac)))
    model = LogisticRegressionModel(fm.d, res.x[:-1].copy(), res.x[-1],
                                    converged=grad_inf <= hp.tol)
    model.meta = {"hyperparams": asdict(hp), "n_iter": int(res.nit),
                  "grad_inf_norm": grad_inf}
    return model


# -- perceptron ----------------------------------------------------------------

@dataclass
class PerceptronParams:
    """eta0 is the update step, alpha the L2 shrinkage applied at each
    update. When validation_fraction > 0 a held-out slice (excluded from
    updates) supplies the plateau-stopping loss; otherwise the training
    loss is used. n_iter_no_change epochs without improving the best loss
    by tol stop training, as does a mistake-free epoch."""

    alpha: float = 1e-4
    max_iter: int = 100
    eta0: float = 1.0
    validation_fraction: float = 0.1
    tol: float = 1e-3
    n_iter_no_change: int = 5
    shuffle: bool = True

    def __post_init__(self):
        if self.eta0 <= 0:
            raise InvalidSpec("eta0 must be positive")
        if self.alpha < 0:
            raise InvalidSpec("alpha must be >= 0")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise InvalidSpec("validation_fraction must be in [0, 1)")
        if self.max_iter < 1 or self.tol <= 0 or self.n_iter_no_change < 1:
            raise InvalidSpec("max_iter, tol and n_iter_no_change must be positive")


class PerceptronModel(_LinearModel):
    kind = "PERC"


# rows the perceptron scans per vectorised margin check
_CHUNK = 2048


def _perceptron_loss(X, ypm, sw, w, b):
    margins = ypm * (X @ w + b)
    return float(sw @ np.maximum(0.0, -margins))


def fit_perceptron(fm: FeatureMatrix, hp: PerceptronParams = None, seed: int = 0):
    """Classic mistake-driven updates: on a sample with non-positive signed
    margin, w <- (1 - eta0*alpha) w + eta0*s_i*y_i*x_i (and the intercept
    moves by eta0*s_i*y_i). Scanning is chunked so epochs over mostly
    correct data cost vectorised passes, not per-row Python; each epoch
    permutes the rows once and scans slices of that copy."""
    hp = hp or PerceptronParams()
    fm.require_both_classes()
    rng = np.random.default_rng(seed)
    sw_all = fm.normalized_weights()
    ypm_all = fm.signed_labels()

    n = fm.n
    monitor_idx = None
    train_idx = np.arange(n)
    if hp.validation_fraction > 0:
        n_val = int(np.floor(hp.validation_fraction * n + 0.5))
        if 0 < n_val < n:
            perm = rng.permutation(n)
            monitor_idx = perm[:n_val]
            train_idx = perm[n_val:]
    X = fm.X[train_idx]
    ypm = ypm_all[train_idx]
    sw = sw_all[train_idx]

    w = np.zeros(fm.d)
    b = 0.0
    shrink = 1.0 - hp.eta0 * hp.alpha
    if shrink <= 0:
        raise InvalidSpec("eta0 * alpha must be < 1")
    best_loss = np.inf
    no_change = 0
    stop = "max_iter"
    epochs = 0
    for _ in range(hp.max_iter):
        epochs += 1
        if hp.shuffle:
            order = rng.permutation(len(X))
            Xe, ye, se = X[order], ypm[order], sw[order]
        else:
            Xe, ye, se = X, ypm, sw
        mistakes = 0
        ptr = 0
        while ptr < len(Xe):
            margins = ye[ptr:ptr + _CHUNK] * (Xe[ptr:ptr + _CHUNK] @ w + b)
            bad = np.flatnonzero(margins <= 0.0)
            if bad.size == 0:
                ptr += _CHUNK
                continue
            k = ptr + bad[0]
            step = hp.eta0 * se[k] * ye[k]
            w = shrink * w + step * Xe[k]
            b += step
            mistakes += 1
            ptr = k + 1
        if mistakes == 0:
            stop = "separated"
            break
        if monitor_idx is not None:
            loss = _perceptron_loss(fm.X[monitor_idx], ypm_all[monitor_idx],
                                    sw_all[monitor_idx], w, b)
        else:
            loss = _perceptron_loss(X, ypm, sw, w, b)
        if loss > best_loss - hp.tol:
            no_change += 1
            if no_change >= hp.n_iter_no_change:
                stop = "plateau"
                break
        else:
            no_change = 0
        best_loss = min(best_loss, loss)
    # a plateau is the normal stop on data that is not separable; only
    # running out of epochs leaves the fit unconverged
    model = PerceptronModel(fm.d, w, b, converged=stop != "max_iter")
    model.meta = {"hyperparams": asdict(hp), "seed": seed,
                  "n_epochs": epochs, "stop": stop}
    return model
