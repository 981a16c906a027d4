"""The settings records: each declares its fields' types and ranges once,
and `settings.Settings` checks them whenever one is built."""
import dataclasses
import math
import pathlib

import pytest

from gazescreen.data import SplitConfig
from gazescreen.errors import InvalidSpec
from gazescreen.models.forest import ForestParams
from gazescreen.novelty import OcsvmParams
from gazescreen.pipeline import RunConfig  # imports every settings record
from gazescreen.settings import _TAKES, Interval, Settings

RECORDS = sorted(Settings.__subclasses__(), key=lambda cls: cls.__name__)


def _outside(interval, annotation):
    """A value of the type `annotation` names just outside each finite end
    of `interval`."""
    values = []
    for end, closed, away in ((interval.lo, interval.lo_closed, -1),
                              (interval.hi, interval.hi_closed, 1)):
        if not math.isfinite(end):
            continue
        if annotation == "int":
            values.append(int(end) + away if closed else int(end))
        else:
            values.append(math.nextafter(end, away * math.inf) if closed else end)
    return values


def test_every_settings_declaration_agrees():
    """Every record's annotations have a type check, its RANGES name its
    fields in intervals that parse, its defaults pass, and a value just
    outside a finite end of a range is refused, naming the field."""
    assert {cls.__name__ for cls in RECORDS} >= {
        "RunConfig", "SplitConfig", "ImpairmentParams", "IsoForestParams", "OcsvmParams",
        "TreeParams", "ForestParams", "AdaBoostParams", "LogRegParams", "PerceptronParams",
        "NBParams", "SvcParams", "GpcParams"}
    for cls in RECORDS:
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        assert set(types.values()) <= set(_TAKES), cls
        assert set(cls.RANGES) <= set(types), cls
        cls()  # every default passes
        for name, text in cls.RANGES.items():
            interval = Interval(text)
            assert types[name] in ("int", "float"), (cls, name)
            outside = _outside(interval, types[name])
            assert outside, (cls, name)
            for value in outside:
                with pytest.raises(InvalidSpec, match=f"^{name} must be"):
                    cls(**{name: value})


@pytest.mark.parametrize("text, rule", [
    ("[1, inf)", "must be >= 1"),
    ("[0.5, inf)", "must be >= 0.5"),
    ("(0, inf)", "must be positive"),
    ("(0, 1]", "must be in (0, 1]"),
    ("[0, 30)", "must be in [0, 30)"),
])
def test_interval_rule(text, rule):
    assert Interval(text).rule == rule


@pytest.mark.parametrize("text", ["0, 1", "[0; 1]", "(a, 1]", "{0, 1}"])
def test_malformed_interval_is_refused(text):
    with pytest.raises(ValueError):
        Interval(text)


@pytest.mark.parametrize("build, message", [
    (lambda: RunConfig(seed=1.5), "seed must be int, got 1.5"),
    (lambda: RunConfig(grid_resolution=2.5), "grid_resolution must be int, got 2.5"),
    (lambda: RunConfig(n_control=True), "n_control must be int, got True"),
    (lambda: RunConfig(outdir=pathlib.Path("runs/out")), "outdir must be str, got "),
    (lambda: RunConfig(csv_path=5), "csv_path must be str, got 5"),
    (lambda: RunConfig(novelty_methods="iforest"), "novelty_methods must be tuple, got 'iforest'"),
    (lambda: OcsvmParams(nu=float("nan")), "nu must be float, got nan"),
    (lambda: SplitConfig(seed=1.5), "seed must be int, got 1.5"),
    (lambda: ForestParams(max_depth=0), "max_depth must be >= 1, got 0"),
], ids=["seed", "grid_resolution", "n_control", "outdir", "csv_path", "novelty_methods",
        "nu", "split_seed", "max_depth"])
def test_library_refuses_a_bad_setting(build, message):
    with pytest.raises(InvalidSpec) as caught:
        build()
    assert str(caught.value).startswith(message)
