"""The error classes: one per exit code, declared on the class, and the
code the CLI gives each."""
import inspect

import pytest

from gazescreen import errors
from gazescreen.errors import (
    DataError,
    InvalidSpec,
    NumericError,
    PipelineError,
    SingleClass,
    exit_code_of,
)


def test_one_class_per_exit_code():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined == {"GazeScreenError", "InvalidSpec", "DataError", "SingleClass",
                       "NumericError", "PipelineError"}


@pytest.mark.parametrize("cls, code", [(InvalidSpec, 2), (DataError, 3), (SingleClass, 3),
                                       (NumericError, 4)])
def test_exit_code_of_each_class_bare_and_wrapped(cls, code):
    assert cls.exit_code == code
    assert exit_code_of(cls("x")) == code
    assert exit_code_of(PipelineError("fit", "model NB", cls("x"))) == code


@pytest.mark.parametrize("err", [FileNotFoundError(2, "No such file", "a.csv"),
                                 IsADirectoryError(21, "Is a directory", "runs"),
                                 PermissionError(13, "Permission denied", "out")])
def test_an_os_error_bare_and_wrapped_is_a_data_error(err):
    # a path that cannot be read or written
    assert exit_code_of(err) == 3
    assert exit_code_of(PipelineError("acquire", "a.csv", err)) == 3
