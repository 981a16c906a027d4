"""Shared training-input container, fitted-model contract and JSON
serialisation for every classifier in this package; `MODEL_KINDS` (in
``models/__init__.py``) finds the class that loads each kind's files.

Scores and labels obey one convention: ``predict`` returns 1 exactly when
``decision_score`` exceeds the model's ``threshold`` attribute; a score
landing exactly on the threshold resolves to class 0 (ties go to control,
matching the vote/gini tie-breaks used while fitting).
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..data import atomic_write_text
from ..errors import DataError, InvalidSpec, SingleClass

FORMAT_NAME = "gazescreen-model"
FORMAT_VERSION = 1


def as_rows(X, n_features, what):
    """X as a float (n, n_features) array, a 1-D X being one row; any other
    shape raises DataError."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise DataError(
            f"{what}: expected (n, {n_features}) inputs, got {X.shape}")
    return X


@dataclass
class FeatureMatrix:
    """Validated training input: dense features, binary labels, optional
    positive per-sample weights."""

    X: np.ndarray
    y: np.ndarray
    sample_weights: np.ndarray = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2:
            raise DataError(f"X must be 2-D, got shape {self.X.shape}")
        if len(self.X) == 0:
            raise DataError("feature matrix has no rows")
        if not np.all(np.isfinite(self.X)):
            raise DataError("features must be finite")
        if self.y.shape != (len(self.X),):
            raise DataError("y must align with the rows of X")
        if not np.isin(self.y, (0, 1)).all():
            raise DataError("labels must be 0/1")
        self.y = self.y.astype(np.int64)
        if self.sample_weights is not None:
            self.sample_weights = np.asarray(self.sample_weights, dtype=float)
            if self.sample_weights.shape != (len(self.X),):
                raise DataError("sample_weights must align with rows")
            if not np.all(np.isfinite(self.sample_weights)) or self.sample_weights.min() <= 0:
                raise InvalidSpec("sample weights must be positive and finite")

    @classmethod
    def from_dataset(cls, ds, sample_weights=None):
        return cls(ds.features, ds.labels, sample_weights)

    @property
    def n(self):
        return len(self.X)

    @property
    def d(self):
        return self.X.shape[1]

    def normalized_weights(self):
        """Weights rescaled to mean 1 (uniform ones when absent).

        The rescaling makes every fit invariant to multiplying all weights
        by a positive constant, which would otherwise leak into L2/C
        regularisation strength.
        """
        if self.sample_weights is None:
            return np.ones(self.n)
        return self.sample_weights * (self.n / self.sample_weights.sum())

    def require_both_classes(self):
        if self.y.min() == self.y.max():
            raise SingleClass("training data contains a single class")

    def signed_labels(self):
        return 2.0 * self.y - 1.0


class FittedModel:
    """Base class: subclasses set `kind` and `threshold` and implement
    `_score(X)` and `_params_to_json`.

    A subclass has one constructor, `(n_features, **params)`, used both by
    its fit and by `from_dict`: the keys of `_params_to_json` are its
    arguments after `n_features`, and it converts each from its JSON form
    and checks the width of each array that has one against `n_features`.
    """

    kind = "?"
    threshold = 0.0

    def __init__(self, n_features):
        self.n_features = n_features
        self.meta = {}

    def _check_X(self, X):
        return as_rows(X, self.n_features, self.kind)

    def decision_score(self, X):
        """Real-valued confidence; larger means more concussed-like."""
        return self._score(self._check_X(X))

    def predict(self, X):
        s = self.decision_score(X)
        return (s > self.threshold).astype(np.int64)

    # -- serialisation --------------------------------------------------------

    def to_dict(self):
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "kind": self.kind,
            "n_features": self.n_features,
            "meta": self.meta,
            "params": self._params_to_json(),
        }

    def save(self, path):
        atomic_write_text(path, json.dumps(self.to_dict()))

    @classmethod
    def from_dict(cls, payload):
        try:
            model = cls(payload["n_features"], **payload["params"])
        except (KeyError, TypeError, ValueError, DataError) as e:
            raise InvalidSpec(f"{cls.kind} model file: bad or missing field: {e}") from None
        model.meta = payload.get("meta", {})
        return model


def arr(x):
    return np.asarray(x, dtype=float)
