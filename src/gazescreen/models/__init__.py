"""Eight from-scratch supervised classifiers behind one small interface:
``fit_<model>(FeatureMatrix, params, ...) -> FittedModel`` with
``predict`` / ``decision_score`` / ``save``; ``load_model`` restores any
of them from the versioned JSON produced by ``save``.
"""
from .base import FeatureMatrix, FittedModel, load_model, model_from_dict
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

# canonical short kinds -> human-readable report names
DISPLAY_NAMES = {
    "RF": "Random Forest",
    "ADA": "AdaBoost",
    "GPC": "Gaussian Process Classifier",
    "DT": "Decision Tree",
    "NB": "Naive Bayes",
    "SVC": "SVM",
    "LR": "Logistic Regression",
    "PERC": "Perceptron",
}

MODEL_KINDS = list(DISPLAY_NAMES)

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
    "DISPLAY_NAMES", "MODEL_KINDS",
]
