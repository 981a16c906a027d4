"""Eight from-scratch supervised classifiers behind one small interface.

`MODEL_KINDS` declares each kind once, in report column order: its report
name, its model class (whose constructor is its loader), its
hyperparameter record, its fit, ``fit(fm, hp=None, seed=0) ->
FittedModel``, its training protocol (a balanced per-class subset or all
rows with class weights) and its default cap on training rows. Fitting,
loading, the training matrix and the report's column order all look a
kind up there. A fitted model has ``predict`` / ``decision_score`` /
``save``; ``load_model`` restores any of them from the versioned JSON
that ``save`` writes.
"""
import json
from typing import NamedTuple

from ..errors import InvalidSpec
from .base import FORMAT_NAME, FORMAT_VERSION, FeatureMatrix, FittedModel
from .boosting import AdaBoostModel, AdaBoostParams, fit_adaboost
from .forest import ForestParams, RandomForestModel, fit_random_forest
from .gpc import GpcModel, GpcParams, default_theta0, fit_gpc, gpc_lml_and_grad
from .linear import (
    LogisticRegressionModel,
    LogRegParams,
    PerceptronModel,
    PerceptronParams,
    fit_logreg,
    fit_perceptron,
    logreg_objective,
)
from .naive_bayes import GaussianNaiveBayes, NBParams, fit_naive_bayes
from .svm import SvcParams, SvcRbfModel, fit_svc_rbf
from .tree import DecisionTreeModel, TreeParams, fit_decision_tree


class ModelKind(NamedTuple):
    name: str       # report name
    model: type     # the FittedModel subclass; its constructor loads its files
    params: type    # hyperparameter record
    fit: object     # fit(fm, hp=None, seed=0) -> model
    weighting: str  # training protocol: "balanced-subset" or "class-weights"
    cap: int        # default cap on training rows (None: uncapped)


# short kind -> its entry, in report column order
MODEL_KINDS = {
    "RF": ModelKind("Random Forest", RandomForestModel, ForestParams, fit_random_forest,
                    "class-weights", 16000),
    "ADA": ModelKind("AdaBoost", AdaBoostModel, AdaBoostParams, fit_adaboost,
                     "balanced-subset", None),
    "GPC": ModelKind("Gaussian Process Classifier", GpcModel, GpcParams, fit_gpc,
                     "balanced-subset", 1000),
    "DT": ModelKind("Decision Tree", DecisionTreeModel, TreeParams, fit_decision_tree,
                    "class-weights", None),
    "NB": ModelKind("Naive Bayes", GaussianNaiveBayes, NBParams, fit_naive_bayes,
                    "balanced-subset", None),
    "SVC": ModelKind("SVM", SvcRbfModel, SvcParams, fit_svc_rbf, "class-weights", 16000),
    "LR": ModelKind("Logistic Regression", LogisticRegressionModel, LogRegParams,
                    fit_logreg, "class-weights", None),
    "PERC": ModelKind("Perceptron", PerceptronModel, PerceptronParams, fit_perceptron,
                      "class-weights", None),
}


def model_kind(kind):
    """The entry of `kind`; an unknown kind raises InvalidSpec."""
    try:
        return MODEL_KINDS[kind]
    except (KeyError, TypeError):
        raise InvalidSpec(f"unknown model kind {kind!r}; valid: {list(MODEL_KINDS)}") from None


def model_from_dict(payload):
    if payload.get("format") != FORMAT_NAME:
        raise InvalidSpec("not a model file")
    if payload.get("version") != FORMAT_VERSION:
        raise InvalidSpec(f"unsupported model format version {payload.get('version')}")
    return model_kind(payload.get("kind")).model.from_dict(payload)


def load_model(path):
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise InvalidSpec(f"{path}: not a JSON model file: {e}") from None
    if not isinstance(payload, dict):
        raise InvalidSpec(f"{path}: a model file holds a JSON object")
    return model_from_dict(payload)


__all__ = [
    "FeatureMatrix", "FittedModel", "load_model", "model_from_dict",
    "AdaBoostModel", "AdaBoostParams", "fit_adaboost",
    "ForestParams", "RandomForestModel", "fit_random_forest",
    "GpcModel", "GpcParams", "default_theta0", "fit_gpc", "gpc_lml_and_grad",
    "LogisticRegressionModel", "LogRegParams", "PerceptronModel",
    "PerceptronParams", "fit_logreg", "fit_perceptron", "logreg_objective",
    "GaussianNaiveBayes", "NBParams", "fit_naive_bayes",
    "SvcParams", "SvcRbfModel", "fit_svc_rbf",
    "DecisionTreeModel", "TreeParams", "fit_decision_tree",
    "ModelKind", "MODEL_KINDS", "model_kind",
]
