"""Gaussian process classification with a logistic likelihood and the
Laplace approximation.

Mode finding uses the numerically stable Newton iteration on
B = I + W^1/2 K W^1/2; the log marginal likelihood and its gradients with
respect to the kernel hyperparameters (log length-scale, log amplitude)
include both the explicit and the implicit (mode-shift) terms, and the
hyperparameters are optimised by L-BFGS. Predictions use the probit-scaled
approximation of the logistic-Gaussian integral.

scipy is imported inside the functions that call it, so importing the
package (and every command that fits or scores no GPC) does not load it.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from ..errors import DataError, InvalidSpec, NumericError
from ..kernels import mean_variance, squared_distances, squared_norms
from ..settings import Settings, takes
from .base import FeatureMatrix, FittedModel, arr, as_rows

_JITTER = 1e-8
# Test rows per block of `GpcModel.latent`. BLAS rounds a product by its
# shape, so scores keep their bits only while the blocks keep this size
_LATENT_ROWS = 2048
_MAX_JITTER_TRIES = 3


@dataclass
class GpcParams(Settings):
    """theta0 entries are (log length-scale, log amplitude); None picks the
    length-scale from the data scale (sqrt of d * mean feature variance)
    and unit amplitude. max_iter_predict caps the Newton mode search;
    optimizer_max_iter = 0 keeps theta0."""

    RANGES = {"max_iter_predict": "[1, inf)", "newton_tol": "(0, inf)",
              "max_train": "[2, inf)", "optimizer_max_iter": "[0, inf)"}
    max_iter_predict: int = 100
    newton_tol: float = 1e-8
    max_train: int = 2000
    optimizer_max_iter: int = 30
    theta0: tuple = None

    def __post_init__(self):
        super().__post_init__()
        if self.theta0 is not None and not (
                len(self.theta0) == 2 and all(takes("float", v) for v in self.theta0)):
            raise InvalidSpec(f"theta0 must be two finite numbers, got {self.theta0!r}")


def _chol_with_jitter(M):
    jitter = _JITTER
    for attempt in range(_MAX_JITTER_TRIES + 1):
        try:
            return np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            if attempt == _MAX_JITTER_TRIES:
                break
            M = M + jitter * np.eye(len(M))
            jitter *= 10.0
    raise NumericError("kernel matrix not positive definite after jitter retries")


def _kernel_from_theta(sqdist, theta, out=None):
    """sf2 exp(-0.5 sqdist / ell^2), step by step in one array: `out`
    (which may be sqdist itself) or a new one, so sqdist is kept unless
    it is passed as `out`."""
    ell = np.exp(theta[0])
    sf2 = np.exp(2.0 * theta[1])
    K = np.multiply(-0.5, sqdist, out=out)
    K /= ell * ell
    np.exp(K, out=K)
    K *= sf2
    return K


def _log_sigmoid(z):
    return -np.logaddexp(0.0, -z)


def _posterior_mode(K, ypm, tol, cap):
    """Newton iteration for the Laplace mode (stable parameterisation).

    Returns (f_hat, a, pi, sqrt_W, L, log_lik, steps); `a` solves
    f_hat = K a, and L is the Cholesky factor of B at f_hat. Convergence is
    declared when the per-sample objective change drops below tol.
    """
    from scipy.linalg import cho_solve
    from scipy.special import expit

    n = len(ypm)
    t = 0.5 * (ypm + 1.0)
    f = np.zeros(n)
    prev_obj = -np.inf
    a = np.zeros(n)
    steps = 0
    for _ in range(cap):
        steps += 1
        pi = expit(f)
        W = pi * (1.0 - pi)
        sw = np.sqrt(W)
        B = np.eye(n) + (sw[:, None] * K) * sw[None, :]
        L = _chol_with_jitter(B)
        grad_ll = t - pi
        b = W * f + grad_ll
        a = b - sw * cho_solve((L, True), sw * (K @ b))
        f = K @ a
        obj = -0.5 * (a @ f) + float(np.sum(_log_sigmoid(ypm * f)))
        if abs(obj - prev_obj) / n < tol:
            break
        prev_obj = obj
    pi = expit(f)
    sw = np.sqrt(pi * (1.0 - pi))
    B = np.eye(n) + (sw[:, None] * K) * sw[None, :]
    L = _chol_with_jitter(B)
    log_lik = float(np.sum(_log_sigmoid(ypm * f)))
    return f, a, pi, sw, L, log_lik, steps


class _Evaluation(NamedTuple):
    """One Laplace evaluation at theta: the log marginal likelihood, its
    gradient, the mode f_hat, the Cholesky factor L of B at the mode and
    the Newton steps the mode took."""
    lml: float
    grad: np.ndarray
    f_hat: np.ndarray
    L: np.ndarray
    newton_steps: int


def gpc_lml_and_grad(theta, X, ypm, newton_tol=1e-10, newton_cap=100):
    """Laplace log marginal likelihood and its gradient wrt theta.

    The gradient includes the implicit term from the dependence of the
    mode on the kernel, via s2' s3.
    """
    ev = _evaluate(theta, X, ypm, newton_tol, newton_cap)
    return ev.lml, ev.grad


def _evaluate(theta, X, ypm, newton_tol, newton_cap):
    """`gpc_lml_and_grad`, keeping the mode and factor it computed."""
    from scipy.linalg import cho_solve, solve_triangular

    theta = np.asarray(theta, dtype=float)
    sqdist = squared_distances(X, X)
    K = _kernel_from_theta(sqdist, theta)
    f, a, pi, sw, L, log_lik, steps = _posterior_mode(K, ypm, newton_tol, newton_cap)
    lml = -0.5 * (a @ f) + log_lik - float(np.sum(np.log(np.diag(L))))

    t = 0.5 * (ypm + 1.0)
    grad_ll = t - pi
    R = sw[:, None] * cho_solve((L, True), np.diag(sw))
    C = solve_triangular(L, sw[:, None] * K, lower=True)
    d3 = pi * (1.0 - pi) * (2.0 * pi - 1.0)  # third derivative of log lik
    # dZ/df_hat = +0.5 * posterior variance * d3 (the -0.5 d(logdet) and the
    # dW/df = -d3 signs cancel)
    s2 = 0.5 * (np.diag(K) - np.sum(C * C, axis=0)) * d3

    ell = np.exp(theta[0])
    dKs = (K * (sqdist / (ell * ell)), 2.0 * K)
    grad = np.empty(2)
    for j, dK in enumerate(dKs):
        s1 = 0.5 * (a @ (dK @ a)) - 0.5 * float(np.sum(R * dK))
        bvec = dK @ grad_ll
        s3 = bvec - K @ (R @ bvec)
        grad[j] = s1 + s2 @ s3
    return _Evaluation(float(lml), grad, f, L, steps)


class GpcModel(FittedModel):
    kind = "GPC"
    threshold = 0.0  # decision_score is the probit-scaled latent mean

    def __init__(self, n_features, X_train, y_train, f_hat, theta, converged=True, *,
                 L=None):
        """Keeps the prediction terms at the mode; L, when the fit already
        factored B at this mode and theta, is that factor. A factor holding
        NaN or inf raises ValueError, so `latent` need not check it per block."""
        from scipy.special import expit

        super().__init__(n_features)
        self.X_train = as_rows(X_train, n_features, "GPC X_train")
        self.y_train = np.asarray(y_train, dtype=np.int64)
        self.f_hat = arr(f_hat)
        self.theta = arr(theta)
        self.converged = bool(converged)
        ypm = 2.0 * self.y_train - 1.0
        pi = expit(self.f_hat)
        self._grad_ll = 0.5 * (ypm + 1.0) - pi
        self._sw = np.sqrt(pi * (1.0 - pi))
        if L is None:
            sq = squared_distances(self.X_train, self.X_train)
            K = _kernel_from_theta(sq, self.theta, out=sq)
            L = _chol_with_jitter(np.eye(len(K)) + (self._sw[:, None] * K) * self._sw[None, :])
        if not np.isfinite(L).all():
            raise ValueError("GPC: the factor of B must not contain infs or NaNs")
        self._L = L
        self._train_sq = squared_norms(self.X_train)
        self._sf2 = float(np.exp(2.0 * self.theta[1]))

    def latent(self, X):
        """(mean, variance) of the latent function at X.

        Each block of `_LATENT_ROWS` rows goes through one buffer allocated
        per call: the kernel k*, then in place W^1/2 k* in its transpose,
        which is the Fortran-ordered right-hand side the triangular solve
        overwrites with v = L^-1 W^1/2 k*, then v * v (GPML Alg. 3.2).
        X holding NaN or inf raises DataError here, once, and the
        constructor checked L, so the solve skips its per-block scans."""
        from scipy.linalg import solve_triangular

        X = self._check_X(X)
        if not np.isfinite(X).all():
            raise DataError("GPC: inputs must not contain infs or NaNs")
        mean = np.empty(len(X))
        var = np.empty(len(X))
        buf = np.empty((min(_LATENT_ROWS, len(X)), len(self.X_train)))
        for lo in range(0, len(X), _LATENT_ROWS):
            hi = min(lo + _LATENT_ROWS, len(X))
            ks = squared_distances(X[lo:hi], self.X_train, self._train_sq, out=buf[:hi - lo])
            _kernel_from_theta(ks, self.theta, out=ks)
            np.matmul(ks, self._grad_ll, out=mean[lo:hi])
            v = np.multiply(self._sw[:, None], ks.T, out=ks.T)
            v = solve_triangular(self._L, v, lower=True, overwrite_b=True,
                                 check_finite=False)
            v *= v
            var[lo:hi] = np.maximum(self._sf2 - np.sum(v, axis=0), 0.0)
        return mean, var

    def _score(self, X):
        mean, var = self.latent(X)
        return mean / np.sqrt(1.0 + np.pi * var / 8.0)


def default_theta0(X):
    ell0 = np.sqrt(X.shape[1] * mean_variance(X))
    return np.array([np.log(ell0), 0.0])


def fit_gpc(fm: FeatureMatrix, hp: GpcParams = None, seed: int = 0):
    """Mode-find at theta0, optionally optimise theta by L-BFGS on the
    marginal likelihood, then take the mode at the optimum.

    The last evaluation is kept, keyed by the bytes of its theta: when
    L-BFGS-B returns the theta it evaluated last, that evaluation's mode
    and factor are the final ones, bit for bit, and are not recomputed.
    `meta` records theta, the evaluations, the Newton steps and whether
    theta ended on a bound.

    Dense n x n algebra: refuses more than hp.max_train rows; callers are
    expected to subsample (the pipeline does, with a documented cap).
    """
    from scipy.optimize import minimize

    hp = hp or GpcParams()
    fm.require_both_classes()
    if fm.n > hp.max_train:
        raise DataError(
            f"GPC dense solve capped at {hp.max_train} rows, got {fm.n}")
    ypm = fm.signed_labels()
    theta = np.asarray(hp.theta0, dtype=float) if hp.theta0 is not None else default_theta0(fm.X)
    converged = True
    at_bound = False
    last = {}  # theta bytes -> the evaluation at that theta
    n_evals = newton_steps = 0
    if hp.optimizer_max_iter > 0:
        bounds = [(theta[0] - np.log(1e3), theta[0] + np.log(1e3)),
                  (np.log(1e-2), np.log(1e2))]

        def objective(th):
            nonlocal n_evals, newton_steps
            th = np.asarray(th, dtype=float)
            last.clear()
            ev = last[th.tobytes()] = _evaluate(th, fm.X, ypm, hp.newton_tol,
                                                hp.max_iter_predict)
            n_evals += 1
            newton_steps += ev.newton_steps
            return -ev.lml, -ev.grad

        res = minimize(objective, theta, method="L-BFGS-B", jac=True,
                       bounds=bounds, options={"maxiter": hp.optimizer_max_iter})
        theta = np.asarray(res.x, dtype=float)
        converged = bool(res.success) or res.status == 1  # 1: hit maxiter
        # L-BFGS-B projects onto its box, so a theta on a bound equals it
        at_bound = any(v in b for v, b in zip(theta.tolist(), bounds))

    ev = last.get(theta.tobytes())
    if ev is not None:
        f_hat, L = ev.f_hat, ev.L
    else:
        K = _kernel_from_theta(squared_distances(fm.X, fm.X), theta)
        f_hat, _, _, _, L, _, steps = _posterior_mode(K, ypm, hp.newton_tol,
                                                     hp.max_iter_predict)
        newton_steps += steps
    model = GpcModel(fm.d, fm.X.copy(), fm.y.copy(), f_hat, theta, converged, L=L)
    model.meta = {"hyperparams": {**asdict(hp), "theta0": None if hp.theta0 is None else list(hp.theta0)},
                  "seed": seed, "theta": [float(v) for v in theta],
                  "n_lml_evals": n_evals, "newton_steps": newton_steps,
                  "theta_at_bound": bool(at_bound)}
    return model
