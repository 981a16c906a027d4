"""gazescreen: synthetic vestibular/ocular-motor screening sessions and a
from-scratch classification + novelty-detection pipeline over gaze frames.
"""
from . import data, kernels, metrics, models, novelty, pipeline, simulate
from .data import (
    ClassWeights,
    GazeDataset,
    SplitConfig,
    balanced_subset,
    class_weights,
    load_csv,
    split,
    write_csv,
)
from .simulate import ImpairmentParams, SessionSpec, generate_cohort, simulate_session

__version__ = "0.1.0"

__all__ = [
    "data", "kernels", "metrics", "models", "novelty", "pipeline", "simulate",
    "ClassWeights", "GazeDataset", "SplitConfig",
    "balanced_subset", "class_weights", "load_csv", "split", "write_csv",
    "ImpairmentParams", "SessionSpec", "generate_cohort", "simulate_session",
    "__version__",
]
