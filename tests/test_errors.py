"""The error classes: one per exit code, and the code the CLI gives each."""
import inspect

import pytest

from gazescreen import errors
from gazescreen.cli import _exit_code_for
from gazescreen.errors import DataError, InvalidSpec, NumericError, PipelineError, SingleClass


def test_one_class_per_exit_code():
    defined = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert defined == {"GazeScreenError", "InvalidSpec", "DataError", "SingleClass",
                       "NumericError", "PipelineError"}


@pytest.mark.parametrize("cls, code", [(InvalidSpec, 2), (DataError, 3), (SingleClass, 3),
                                       (NumericError, 4)])
def test_exit_code_of_each_class_bare_and_wrapped(cls, code):
    assert _exit_code_for(cls("x")) == code
    assert _exit_code_for(PipelineError("fit", "model NB", cls("x"))) == code
