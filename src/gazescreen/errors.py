"""Exception hierarchy shared across the package.

The three intermediate bases carry the CLI exit-code contract:
ConfigError -> 2, DataError -> 3, NumericError -> 4.
"""


class GazeScreenError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigError(GazeScreenError):
    """Bad configuration: hyperparameters, run config, spec files."""


class DataError(GazeScreenError):
    """Bad or insufficient input data."""


class NumericError(GazeScreenError):
    """Numerical failure (non-convergence, indefinite kernel, ...)."""


# --- data / dataset errors -------------------------------------------------

class MissingColumn(DataError):
    pass


class NonUnitDirection(DataError):
    pass


class BadLabel(DataError):
    pass


class NonBinaryLabel(BadLabel):
    pass


class NonMonotonicTime(DataError):
    pass


class EmptyDataset(DataError):
    pass


class SingleClass(DataError):
    """An operation that needs both classes saw only one."""


class SingleClassStratify(SingleClass):
    pass


class InsufficientClassSamples(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class LengthMismatch(DataError):
    pass


class TrainingSizeExceeded(DataError):
    """Training set larger than a model's dense-algebra cap."""


# --- config errors ----------------------------------------------------------

class InvalidSpec(ConfigError):
    pass


class OutOfRangeTime(InvalidSpec):
    """Trajectory queried outside the session's time span."""


class InvalidHyperParam(ConfigError):
    pass


# --- numeric errors ---------------------------------------------------------

class KernelNotPD(NumericError):
    """Kernel matrix stayed non positive definite after jitter retries."""


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
