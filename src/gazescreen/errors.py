"""Exception hierarchy shared across the package.

One class per CLI exit code: InvalidSpec -> 2 (a bad run config,
hyperparameter, spec or model file), DataError -> 3 (bad or insufficient
input data), NumericError -> 4 (a numerical failure). A PipelineError
wraps one of them with the stage that raised it and exits with its code.
SingleClass is the one subclass, because `metrics.compute_metrics`
catches it to report an undefined AUC where any other DataError must
propagate.
"""


class GazeScreenError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidSpec(GazeScreenError):
    """Bad configuration: run config, hyperparameters, spec and model files."""


class DataError(GazeScreenError):
    """Bad or insufficient input data."""


class SingleClass(DataError):
    """An operation that needs both classes saw only one."""


class NumericError(GazeScreenError):
    """Numerical failure (non-convergence, indefinite kernel, ...)."""


class PipelineError(GazeScreenError):
    """Wraps an error with the pipeline stage and input that produced it."""

    def __init__(self, stage, detail, cause):
        self.stage = stage
        self.detail = detail
        self.cause = cause
        super().__init__(f"stage '{stage}' failed on {detail}: {cause}")
        self.__cause__ = cause

    def __reduce__(self):
        # the default rebuilds from `args`, the one message string
        return type(self), (self.stage, self.detail, self.cause)
