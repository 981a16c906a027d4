"""Settings records that check themselves: a dataclass subclassing
`Settings` checks each field's type, then the interval its `RANGES`
declares, whenever it is built. Checks that span fields stay in the
record's own `__post_init__`, after this one."""
from __future__ import annotations

import math
import numbers
from dataclasses import fields

from .errors import InvalidSpec

# the types each field annotation takes
_TAKES = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str,
          "tuple": (list, tuple), "dict": dict, "object": object}


def takes(annotation, value):
    """Whether a field annotated `annotation` takes `value`: a bool, which
    is an int to isinstance, only where it is "bool" or "object", and a
    float only if finite (an int always is; isfinite overflows on a huge one)."""
    return (isinstance(value, _TAKES[annotation])
            and (annotation in ("bool", "object") or not isinstance(value, bool))
            and (annotation != "float" or isinstance(value, numbers.Integral)
                 or math.isfinite(value)))


class Interval:
    """An interval as README writes one, "(0, 1]" or "[1, inf)": a bracket
    closes an end, a parenthesis opens it. `rule` refuses a value outside:
    "must be >= k" for [k, inf), "must be positive" for (0, inf) and
    "must be in (a, b]" for any other."""

    def __init__(self, text):
        lo, sep, hi = text[1:-1].partition(",")
        if not (sep and text[0] in "[(" and text[-1] in "])"):
            raise ValueError(f"not an interval: {text!r}")
        self.lo, self.hi = float(lo), float(hi)
        self.lo_closed, self.hi_closed = text[0] == "[", text[-1] == "]"
        unbounded = self.hi == math.inf and not self.hi_closed
        if unbounded and self.lo_closed:
            self.rule = f"must be >= {lo.strip()}"
        else:
            self.rule = ("must be positive" if unbounded and self.lo == 0
                         else f"must be in {text}")

    def __contains__(self, v):
        return ((self.lo <= v if self.lo_closed else self.lo < v)
                and (v <= self.hi if self.hi_closed else v < self.hi))


class Settings:
    """Base of the settings dataclasses; `RANGES` maps a field to its interval."""

    RANGES = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # parsed once, so a malformed interval fails at import
        cls._intervals = {name: Interval(text) for name, text in cls.RANGES.items()}

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            if not takes(f.type, value):
                raise InvalidSpec(f"{f.name} must be {f.type}, got {value!r}")
            interval = self._intervals.get(f.name)
            if interval is not None and value not in interval:
                raise InvalidSpec(f"{f.name} {interval.rule}, got {value!r}")
