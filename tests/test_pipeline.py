"""End-to-end pipeline and CLI tests at desk-toy scale.

Every experiment here simulates 2+2 sessions, so the feature tables are a
few thousand rows and the whole module stays in the low seconds.
"""
import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pickle
import shutil
import signal

import numpy as np
import pytest

from gazescreen import cli
from gazescreen import pipeline as pipeline_mod
from gazescreen.cli import main as cli_main
from gazescreen.data import load_csv, split
from gazescreen.errors import DataError, InvalidSpec, PipelineError, SingleClass
from gazescreen.metrics import parse_report_csv
from gazescreen.models import MODEL_KINDS, FeatureMatrix, FittedModel, LogRegParams, load_model
from gazescreen.novelty import OcsvmParams, load_boundary_grid
from gazescreen.pipeline import (
    OUTDIR_ENV_VAR,
    RunConfig,
    evaluate_saved_models,
    make_params,
    reproduce,
    run_config_from_ini,
    run_experiment,
    run_novelty,
    synthesize_cohort,
    training_matrix,
)

# 2+2 SP sessions -> 7200 frames; balanced_per_class must fit inside the
# ~2520 control frames that survive the 0.2/0.1 split
SMALL = dict(test_kind="SP", n_control=2, n_concussed=2,
             models=("NB", "DT"), balanced_per_class=400, seed=11)


@pytest.fixture(scope="module")
def exp(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    cfg = RunConfig(outdir=str(out / "a"), **SMALL)
    return cfg, run_experiment(cfg)


@pytest.fixture(scope="module")
def train_ds():
    cfg = RunConfig(**SMALL)
    ds = synthesize_cohort(cfg)
    tr, _, _ = split(ds, cfg.split_config())
    return tr


# -- config file round-trip -------------------------------------------------


_FULL_INI = """\
[run]
test_kind = VMS
n_control = 5
n_concussed = 7
csv_path = some.csv
seed = 3
outdir = runs/x
models = RF, NB
test_fraction = 0.25
validation_fraction = 0.05
balanced_per_class = 123
train_caps = {"SVC": 500}
hyper_overrides = {"RF": {"n_estimators": 7}}
control_overrides = {"noise_deg": 0.1}
concussed_overrides = {"pupil_shift_mm": 0.5}
novelty_train = 77
novelty_test_per_class = 33
grid_resolution = 9
novelty_methods = iforest
"""


def _ini_keys(text):
    return {line.split("=")[0].strip() for line in text.splitlines() if "=" in line}


def test_ini_round_trip(tmp_path):
    # every field is an INI key: a RunConfig field without a parser for its
    # annotation would fail here
    assert _ini_keys(_FULL_INI) == {f.name for f in dataclasses.fields(RunConfig)}
    path = tmp_path / "run.ini"
    path.write_text(_FULL_INI)
    assert run_config_from_ini(str(path)) == RunConfig(
        test_kind="VMS", n_control=5, n_concussed=7, csv_path="some.csv",
        seed=3, outdir="runs/x", models=("RF", "NB"), test_fraction=0.25,
        validation_fraction=0.05, balanced_per_class=123, train_caps={"SVC": 500},
        hyper_overrides={"RF": {"n_estimators": 7}},
        control_overrides={"noise_deg": 0.1},
        concussed_overrides={"pupil_shift_mm": 0.5},
        novelty_train=77, novelty_test_per_class=33, grid_resolution=9,
        novelty_methods=("iforest",))


def test_ini_defaults_round_trip(tmp_path):
    # the defaults written out; csv_path has no INI spelling for None
    text = """\
[run]
test_kind = SP
n_control = 100
n_concussed = 100
seed = 0
outdir = runs/out
models = RF,ADA,GPC,DT,NB,SVC,LR,PERC
test_fraction = 0.2
validation_fraction = 0.1
balanced_per_class = 8000
train_caps = {}
hyper_overrides = {}
control_overrides = {}
concussed_overrides = {}
novelty_train = 10000
novelty_test_per_class = 5000
grid_resolution = 100
novelty_methods = iforest,ocsvm
"""
    assert _ini_keys(text) == {f.name for f in dataclasses.fields(RunConfig)} - {"csv_path"}
    path = tmp_path / "run.ini"
    path.write_text(text)
    assert run_config_from_ini(str(path)) == RunConfig()


@pytest.mark.parametrize("body", [
    "[other]\nseed = 1\n",                 # wrong section
    "[run]\nbogus_key = 1\n",              # unknown key
    "[run]\nn_control = abc\n",            # bad int
    "[run]\ntrain_caps = not json\n",      # bad dict
])
def test_ini_bad_inputs(tmp_path, body):
    path = tmp_path / "bad.ini"
    path.write_text(body)
    with pytest.raises(InvalidSpec):
        run_config_from_ini(str(path))


def test_ini_missing_file(tmp_path):
    with pytest.raises(InvalidSpec):
        run_config_from_ini(str(tmp_path / "nope.ini"))


def test_every_text_parser_serves_a_field():
    # a missing parser fails at import; an unused one would linger unseen
    assert set(pipeline_mod._TEXT_PARSERS) == {f.type for f in dataclasses.fields(RunConfig)}


# -- RunConfig validation -----------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"test_kind": "XX"},
    {"novelty_methods": ("bogus",)},
    {"models": ("NB", "XX")},
    {"seed": -1},
    {"grid_resolution": 1},
])
def test_config_rejects(kwargs):
    with pytest.raises(InvalidSpec):
        RunConfig(**kwargs)


def test_make_params():
    assert make_params("DT", {"max_depth": 2}).max_depth == 2
    with pytest.raises(InvalidSpec):
        make_params("DT", {"not_a_knob": 3})
    with pytest.raises(InvalidSpec, match="unknown model kind"):
        make_params("XGB")


@pytest.mark.parametrize("kind", list(MODEL_KINDS))
def test_model_kind_table(kind, tmp_path):
    """Each kind's fit takes a seed, `fit_model` passes it on and returns
    the table's class, and a saved file loads back as that class."""
    entry = MODEL_KINDS[kind]
    rng = np.random.default_rng(5)
    X = np.vstack([rng.normal(0, 1, (30, 3)), rng.normal(2, 1, (30, 3))])
    fm = FeatureMatrix(X, np.repeat([0, 1], 30))
    model = pipeline_mod.fit_model(kind, fm, None, 4)
    assert type(model) is entry.model and model.kind == kind
    assert model.to_dict() == entry.fit(fm, seed=4).to_dict()
    path = str(tmp_path / f"{kind}.json")
    model.save(path)
    assert type(load_model(path)) is entry.model


@pytest.mark.parametrize("kind, knob, value", [("DT", "criterion", "gini"),
                                              ("GPC", "optimize_hyperparams", False)])
def test_removed_hyperparameter_exits_2(kind, knob, value, tmp_path):
    # both knobs are gone; each value was once legal
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\nmodels = {kind}\n"
                   f"hyper_overrides = {json.dumps({kind: {knob: value}})}\n")
    argv = ["train", "--config", str(ini), "--n-control", "1", "--n-concussed", "1",
            "--balanced-per-class", "100", "--out-dir", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli_main(argv) == 2


# -- cohort synthesis ---------------------------------------------------------


def test_cohort_label_layout():
    cfg = RunConfig(**SMALL)
    ds = synthesize_cohort(cfg)
    assert len(ds) == 4 * 1800
    assert not ds.labels[:2 * 1800].any()       # control sessions first
    assert ds.labels[2 * 1800:].all()


def test_cohort_override_unknown_field():
    with pytest.raises(InvalidSpec, match="sharpness"):
        RunConfig(**SMALL | {"control_overrides": {"sharpness": 1.0}})


def test_cohort_override_touches_only_its_class():
    base = synthesize_cohort(RunConfig(**SMALL))
    mod = synthesize_cohort(RunConfig(
        **SMALL | {"control_overrides": {"noise_deg": 0.4}}))
    con = slice(2 * 1800, None)
    assert np.array_equal(base.features[con], mod.features[con])
    assert not np.array_equal(base.features[:2 * 1800],
                              mod.features[:2 * 1800])


# -- per-model weighting protocol ----------------------------------------------


def test_training_matrix_balanced_subset(train_ds):
    cfg = RunConfig(**SMALL)
    fm, info = training_matrix("NB", train_ds, cfg)
    assert info == {"weighting": "balanced-subset", "per_class": 400}
    assert fm.X.shape == (800, train_ds.features.shape[1])
    assert np.sum(fm.y == 0) == np.sum(fm.y == 1) == 400
    assert fm.sample_weights is None


def test_training_matrix_class_weights(train_ds):
    cfg = RunConfig(**SMALL)
    fm, info = training_matrix("DT", train_ds, cfg)
    assert info["weighting"] == "class-weights"
    assert info["train_rows"] == len(train_ds)
    w0, w1 = info["class_weights"]
    assert w0 > 0 and w1 > 0
    assert fm.sample_weights is not None and fm.sample_weights.mean() == pytest.approx(1.0)


def test_training_matrix_cap(train_ds):
    cfg = RunConfig(**SMALL | {"train_caps": {"DT": 100}})
    fm, info = training_matrix("DT", train_ds, cfg)
    assert info["train_rows"] == 100
    assert fm.X.shape[0] == 100


def test_training_matrix_cap_bounds_balanced_subset(train_ds):
    # GPC's dense-algebra cap halves into the per-class subset size
    cfg = RunConfig(**SMALL | {"balanced_per_class": 2000})
    assert MODEL_KINDS["GPC"].cap == 1000
    fm, info = training_matrix("GPC", train_ds, cfg)
    assert info["per_class"] == 500
    assert fm.X.shape[0] == 1000


def test_partial_train_caps_keep_the_other_default_caps(train_ds, monkeypatch):
    # a cap for one kind replaces that kind's default cap and no other
    cfg = RunConfig(**SMALL | {"balanced_per_class": 2000, "train_caps": {"SVC": 500}})
    fm, info = training_matrix("GPC", train_ds, cfg)
    assert info["per_class"] == 500 and fm.X.shape[0] == 1000
    fm, info = training_matrix("SVC", train_ds, cfg)
    assert info["train_rows"] == fm.X.shape[0] == 500
    # RF's default of 16000 is above this cohort's training rows, so a
    # smaller declared cap stands in for it
    monkeypatch.setitem(MODEL_KINDS, "RF", MODEL_KINDS["RF"]._replace(cap=1000))
    fm, info = training_matrix("RF", train_ds, cfg)
    assert info["train_rows"] == fm.X.shape[0] == 1000 < len(train_ds)


# -- experiment runner -----------------------------------------------------------


def test_experiment_writes_outputs(exp):
    cfg, res = exp
    for rel in ("models/NB.json", "models/DT.json", "report.txt",
                "report.csv", "manifest.json"):
        assert os.path.exists(os.path.join(cfg.outdir, rel)), rel
    assert set(res.per_model) == {"Naive Bayes", "Decision Tree"}
    for ms in res.per_model.values():
        assert 0.8 <= ms.accuracy <= 1.0


def test_experiment_report_parses_back(exp):
    cfg, res = exp
    with open(res.report_csv_path) as fh:
        parsed = parse_report_csv(fh.read())
    assert set(parsed) == set(res.per_model)
    for name, vals in parsed.items():
        # the CSV keeps one decimal of percent, so half of 0.1 pp in fraction
        assert vals["Accuracy"] == pytest.approx(
            res.per_model[name].accuracy, abs=5e-4)


def test_experiment_manifest(exp):
    cfg, res = exp
    with open(res.manifest_path) as fh:
        man = json.load(fh)
    assert man["tool"] == "gazescreen"
    assert man["command"] == "experiment"
    assert man["config"]["models"] == ["NB", "DT"]
    assert man["config"]["seed"] == cfg.seed
    d = man["data"]
    assert d["frames"] == 4 * 1800
    assert sum(d["split"].values()) == d["frames"]
    assert man["models"]["NB"]["weighting"] == "balanced-subset"
    assert man["models"]["DT"]["weighting"] == "class-weights"
    # recorded digests match the bytes on disk
    for rel, digest in man["outputs"].items():
        with open(os.path.join(cfg.outdir, rel), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, rel
    assert {s["stage"] for s in man["stages"]} == {
        "acquire", "split", "weight", "fit", "save", "evaluate", "report"}
    assert man["stages"][-1]["stage"] == "report"
    assert man["peak_rss_mb"] > 0


@pytest.fixture(scope="module")
def exp_all_models(tmp_path_factory):
    """All eight models, small caps, and a logistic regression held to one
    iteration so that its fit cannot converge."""
    cfg = RunConfig(**SMALL | {
        "models": ("RF", "ADA", "GPC", "DT", "NB", "SVC", "LR", "PERC"),
        "balanced_per_class": 100,
        "train_caps": {"SVC": 300, "RF": 300, "GPC": 100},
        "hyper_overrides": {"RF": {"n_estimators": 5}, "LR": {"max_iter": 1}},
        "outdir": str(tmp_path_factory.mktemp("all"))})
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        res = run_experiment(cfg)
    with open(res.manifest_path) as fh:
        return json.load(fh), stderr.getvalue()


def test_manifest_stage_labels(exp_all_models):
    man, _ = exp_all_models
    fit_labels = [s["label"] for s in man["stages"] if s["stage"] == "fit"]
    assert len(fit_labels) == 8
    assert len(set(fit_labels)) == 8
    assert "model RF (300 rows)" in fit_labels
    assert all(s["label"] for s in man["stages"])


def test_manifest_stage_peak_rss(exp_all_models):
    man, _ = exp_all_models
    peaks = [s["peak_rss_mb"] for s in man["stages"]]
    assert peaks and peaks[0] > 0
    assert all(a <= b for a, b in zip(peaks, peaks[1:]))
    assert peaks[-1] <= man["peak_rss_mb"]


def test_manifest_fit_diagnostics_and_convergence_warning(exp_all_models):
    man, stderr = exp_all_models
    fits = {kind: info["fit"] for kind, info in man["models"].items()}
    assert set(fits["LR"]) == {"converged", "n_iter", "grad_inf_norm"}
    assert fits["LR"]["converged"] is False and fits["LR"]["n_iter"] == 1
    # how far the unconverged fit stopped from its tolerance
    assert fits["LR"]["grad_inf_norm"] > LogRegParams().tol
    assert fits["NB"] == {}
    assert set(fits["SVC"]) == {"converged", "n_iter", "n_support", "kernel_rows"}
    assert fits["SVC"]["n_iter"] > 0
    # a step computes at most its two rows, and the first step both
    assert 2 <= fits["SVC"]["kernel_rows"] <= 2 * fits["SVC"]["n_iter"]
    assert set(fits["GPC"]) == {"converged", "theta", "n_lml_evals", "newton_steps",
                                "theta_at_bound"}
    assert len(fits["GPC"]["theta"]) == 2 and fits["GPC"]["n_lml_evals"] > 0
    assert set(fits["PERC"]) == {"converged", "n_epochs", "stop"}
    assert set(fits["ADA"]) == {"n_rounds", "nodes"}
    assert set(fits["DT"]) == set(fits["RF"]) == {"nodes"}
    unconverged = sorted(k for k, f in fits.items() if f.get("converged") is False)
    assert stderr.splitlines() == [
        f"warning: {k} fit did not converge" for k in man["config"]["models"]
        if k in unconverged]


def test_experiment_deterministic(exp, tmp_path):
    cfg, res = exp
    cfg2 = dataclasses.replace(cfg, outdir=str(tmp_path / "b"))
    res2 = run_experiment(cfg2)
    with open(res.report_csv_path, "rb") as fh:
        first = fh.read()
    with open(res2.report_csv_path, "rb") as fh:
        assert fh.read() == first


def test_evaluate_saved_models_matches(exp):
    cfg, res = exp
    ds = synthesize_cohort(cfg)
    _, _, test_ds = split(ds, cfg.split_config())
    again = evaluate_saved_models(sorted(res.model_paths.values()), test_ds)
    assert again == res.per_model


def test_evaluate_scores_each_model_once(exp, monkeypatch):
    cfg, res = exp
    calls = []
    original = FittedModel.decision_score

    def counted(self, X):
        calls.append(self.kind)
        return original(self, X)

    monkeypatch.setattr(FittedModel, "decision_score", counted)
    ds = synthesize_cohort(cfg)
    _, _, test_ds = split(ds, cfg.split_config())
    again = evaluate_saved_models(sorted(res.model_paths.values()), test_ds)
    assert again == res.per_model
    assert sorted(calls) == sorted(cfg.models)


def test_evaluate_refuses_two_files_of_a_kind(exp, tmp_path):
    # the report has one column per kind, so a copy of a model file would
    # silently replace the original's column
    cfg, res = exp
    models = tmp_path / "models"
    models.mkdir()
    for name in ("DT.json", "DT_old.json"):
        shutil.copy(res.model_paths["DT"], models / name)
    _, _, test_ds = split(synthesize_cohort(cfg), cfg.split_config())
    with pytest.raises(InvalidSpec, match=r"DT\.json and .*DT_old\.json are both DT"):
        evaluate_saved_models(sorted(str(p) for p in models.iterdir()), test_ds)


def test_failed_train_leaves_no_outputs(tmp_path, capsys):
    # DT is fitted and saved, then NB cannot draw its balanced subset
    out = tmp_path / "run"
    assert cli_main(["train", "--n-control", "1", "--n-concussed", "1",
                     "--models", "DT,NB", "--out-dir", str(out)]) == 3
    assert "stage 'weight'" in capsys.readouterr().err
    assert os.listdir(out) == ["models"]
    assert os.listdir(out / "models") == []


def test_pipeline_error_pickles():
    err = pickle.loads(pickle.dumps(PipelineError("fit", "model NB", SingleClass("x"))))
    assert (err.stage, err.detail, str(err)) == ("fit", "model NB",
                                                 "stage 'fit' failed on model NB: x")
    assert type(err.cause) is SingleClass and str(err.cause) == "x"
    assert err.__cause__ is err.cause


def test_experiment_error_carries_stage(tmp_path):
    # default balanced_per_class can't be met by a 2+2 cohort
    cfg = RunConfig(**SMALL | {"balanced_per_class": 8000,
                               "outdir": str(tmp_path)})
    with pytest.raises(PipelineError) as ei:
        run_experiment(cfg)
    assert ei.value.stage == "weight"
    assert isinstance(ei.value.cause, DataError)
    assert str(ei.value.cause).startswith("need 8000 per class, have control=")
    assert "weight" in str(ei.value)


def test_balanced_shortfall_is_refused_before_any_fit(tmp_path, capsys, monkeypatch):
    # NB's balanced subset needs 8000 frames per class; a 1+1 cohort has
    # fewer, which the run learns right after the split, not after DT's fit
    fits = []
    real = pipeline_mod.fit_model
    monkeypatch.setattr(pipeline_mod, "fit_model",
                        lambda kind, *args: fits.append(kind) or real(kind, *args))
    assert cli_main(["train", "--n-control", "1", "--n-concussed", "1",
                     "--models", "DT,NB", "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "stage 'weight' failed on model NB: need 8000 per class" in err
    assert fits == []
    assert os.listdir(tmp_path / "models") == []


# -- novelty runner ----------------------------------------------------------------


@pytest.fixture(scope="module")
def nov(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("nov"))
    cfg = RunConfig(test_kind="SP", n_control=2, n_concussed=2, seed=7,
                    outdir=out, novelty_train=200, novelty_test_per_class=50,
                    grid_resolution=5)
    return cfg, run_novelty(cfg)


def test_novelty_outputs(nov):
    cfg, paths = nov
    expected = {os.path.join(cfg.outdir, f"{m}_SP_{e}.csv")
                for m in ("iforest", "ocsvm")
                for e in ("left", "right", "cyclopean")}
    assert set(paths) == expected
    for p in paths:
        assert os.path.exists(p)


def test_novelty_grids_load(nov):
    cfg, paths = nov
    for p in paths:
        grid = load_boundary_grid(p)
        assert grid.scores.shape == (5, 5)
        tags = [t for _, _, _, t in grid.points]
        assert tags.count("train") == 200
        assert tags.count("regular") == 50
        assert tags.count("novel") == 50


def test_novelty_manifest(nov):
    cfg, _ = nov
    with open(os.path.join(cfg.outdir, "manifest.json")) as fh:
        man = json.load(fh)
    assert man["peak_rss_mb"] > 0
    assert man["command"] == "novelty"
    assert man["data"] == {"train_rows": 200, "test_regular": 50,
                           "test_novel": 50}
    assert len(man["outputs"]) == 6
    assert {s["stage"] for s in man["stages"]} == {
        "acquire", "split", "novelty-fit", "novelty-grid", "grid-write"}
    assert sum(s["stage"] == "grid-write" for s in man["stages"]) == 6
    fits = man["fits"]
    assert set(fits) == {f"{m} {e}" for m in ("iforest", "ocsvm")
                         for e in ("left", "right", "cyclopean")}
    for eye in ("left", "right", "cyclopean"):
        iforest, ocsvm = fits[f"iforest {eye}"], fits[f"ocsvm {eye}"]
        assert set(iforest) == {"n_trees", "grower_rounds", "nodes"}
        assert iforest["n_trees"] == 100
        assert iforest["nodes"] >= 100 * 3
        # one round per split candidate of the largest tree, which has
        # fewer candidates than its 200 rows
        assert 0 < iforest["grower_rounds"] < 200
        assert set(ocsvm) == {"converged", "n_iter", "n_support", "kernel_rows"}
        assert ocsvm["converged"] is True
        # the 20 starting rows (nu n = 0.1 * 200), then two per missing pair
        assert ocsvm["kernel_rows"] >= 20
    grids = man["grids"]
    assert set(grids) == set(fits)
    for label, sizes in grids.items():
        # 5 x 5 cells; 200 training, 50 regular and 50 novel points; a
        # forest on one eye's (x, y) reads its grid from its cell tables
        scored = {"scored_by": "tables"} if label.startswith("iforest") else {}
        assert sizes == {"grid_cells": 25, "points": 300, **scored}


def test_novelty_warns_on_unconverged_ocsvm(tmp_path, monkeypatch):
    monkeypatch.setattr(pipeline_mod, "OcsvmParams", lambda: OcsvmParams(max_iter=1))
    cfg = RunConfig(test_kind="SP", n_control=2, n_concussed=2, seed=7,
                    outdir=str(tmp_path), novelty_train=100,
                    novelty_test_per_class=20, grid_resolution=3,
                    novelty_methods=("ocsvm",))
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        run_novelty(cfg)
    assert stderr.getvalue().splitlines() == [
        f"warning: ocsvm {eye} fit did not converge"
        for eye in ("left", "right", "cyclopean")]
    with open(os.path.join(cfg.outdir, "manifest.json")) as fh:
        fits = json.load(fh)["fits"]
    assert all(fits[f"ocsvm {eye}"]["converged"] is False
               and fits[f"ocsvm {eye}"]["n_iter"] == 1
               for eye in ("left", "right", "cyclopean"))


def test_novelty_needs_control_frames(tmp_path):
    # one control frame, which a high test fraction sends to the test split
    cfg = RunConfig(test_kind="SP", n_control=1, n_concussed=1, test_fraction=0.9,
                    novelty_train=50, novelty_test_per_class=20, grid_resolution=4,
                    outdir=str(tmp_path))
    ds = synthesize_cohort(cfg)
    ds = ds.subset(np.r_[0, np.nonzero(ds.labels == 1)[0]])
    _, _, test_ds = split(ds, cfg.split_config())
    assert test_ds.class_counts()[0] == 1
    with pytest.raises(PipelineError) as ei:
        run_novelty(cfg, ds)
    assert ei.value.stage == "novelty-train"
    assert isinstance(ei.value.cause, SingleClass)


def test_novelty_unknown_method(tmp_path):
    # rejected by the config, before any fit
    with pytest.raises(InvalidSpec, match="unknown novelty method"):
        RunConfig(**SMALL | {"outdir": str(tmp_path),
                             "novelty_methods": ("iforest", "knn"),
                             "novelty_train": 50,
                             "novelty_test_per_class": 20,
                             "grid_resolution": 4})


def test_novelty_failure_removes_its_grids(tmp_path, monkeypatch, capsys):
    # both left-eye grids are written, then the right eye's one-class SVM
    # fails
    fit_ocsvm, fits = pipeline_mod.fit_ocsvm, []

    def fit_then_fail(X, params):
        fits.append(len(os.listdir(out)))
        if len(fits) == 2:
            raise DataError("one-class SVM failed")
        return fit_ocsvm(X, params)

    monkeypatch.setattr(pipeline_mod, "fit_ocsvm", fit_then_fail)
    out = tmp_path / "nov"
    assert cli_main(["novelty", "--n-control", "2", "--n-concussed", "2",
                     "--out-dir", str(out), "--novelty-train", "100",
                     "--novelty-test-per-class", "30", "--grid-resolution", "4"]) == 3
    assert "stage 'novelty-fit' failed on ocsvm right" in capsys.readouterr().err
    assert fits == [0, 2]
    assert os.listdir(out) == []


# -- full reproduction -----------------------------------------------------------


def test_reproduce_layout_and_env_override(tmp_path, monkeypatch):
    # the environment variable must win over the argument, and the nested
    # sp/vms/novelty directories must survive it
    forced = tmp_path / "forced"
    monkeypatch.setenv(OUTDIR_ENV_VAR, str(forced))
    results = reproduce(RunConfig(
        seed=3, outdir=str(tmp_path / "decoy"), n_control=2, n_concussed=2,
        models=("NB",), balanced_per_class=300, novelty_train=150,
        novelty_test_per_class=40, grid_resolution=4,
        novelty_methods=("iforest",)))
    assert set(results) == {"SP", "VMS", "novelty-SP", "novelty-VMS"}
    assert not (tmp_path / "decoy").exists()
    for rel in ("sp/report.csv", "sp/models/NB.json", "sp/manifest.json",
                "vms/report.csv", "vms/models/NB.json",
                "novelty/sp/iforest_SP_left.csv",
                "novelty/sp/manifest.json",
                "novelty/vms/iforest_VMS_cyclopean.csv",
                "novelty/vms/manifest.json"):
        assert (forced / rel).exists(), rel
    assert results["SP"].report_csv_path == str(forced / "sp" / "report.csv")
    assert set(results["SP"].per_model) == {"Naive Bayes"}

    # the top-level manifest times each cohort's one simulation
    man = json.loads((forced / "manifest.json").read_text())
    assert man["command"] == "reproduce" and man["seed"] == 3
    assert [(s["stage"], s["label"]) for s in man["stages"]] == [
        ("acquire", "synthetic cohort (2+2 SP)"), ("acquire", "synthetic cohort (2+2 VMS)")]
    assert all(s["seconds"] > 0 for s in man["stages"])
    assert man["peak_rss_mb"] > 0
    for section, rel in man["sections"].items():
        assert (forced / rel).exists(), section
    assert set(man["sections"]) == set(results)


def test_reproduce_simulates_each_cohort_once(tmp_path, monkeypatch):
    calls = []
    simulate = pipeline_mod.synthesize_cohort

    def counted(cfg):
        calls.append(cfg.test_kind)
        return simulate(cfg)

    monkeypatch.setattr(pipeline_mod, "synthesize_cohort", counted)
    kw = dict(seed=5, n_control=2, n_concussed=2, models=("NB",),
              balanced_per_class=300, novelty_train=120,
              novelty_test_per_class=30, grid_resolution=4)
    reproduce(RunConfig(outdir=str(tmp_path / "shared"), **kw))
    assert calls == ["SP", "VMS"]

    # the same outputs as the experiment and novelty runs acquiring their
    # own cohorts
    for kind in ("SP", "VMS"):
        common = dict(test_kind=kind, seed=5, n_control=2, n_concussed=2,
                      models=("NB",), novelty_train=120,
                      novelty_test_per_class=30, grid_resolution=4)
        run_experiment(RunConfig(**common, balanced_per_class=300,
                                 outdir=str(tmp_path / "alone" / kind.lower())))
        run_novelty(RunConfig(**common, outdir=str(
            tmp_path / "alone" / "novelty" / kind.lower())))
    assert calls == ["SP", "VMS"] + ["SP", "SP", "VMS", "VMS"]
    alone = sorted(p.relative_to(tmp_path / "alone")
                   for p in (tmp_path / "alone").rglob("*")
                   if p.suffix in (".csv", ".txt") or p.parent.name == "models")
    assert len(alone) == 2 * (2 + 1) + 2 * 6
    for rel in alone:
        assert (tmp_path / "shared" / rel).read_bytes() == \
            (tmp_path / "alone" / rel).read_bytes(), rel


def test_reproduce_sections_record_the_callers_config(tmp_path):
    # every section runs the caller's config with its own test_kind and
    # outdir; nothing else, balanced_per_class included, falls back to a default
    cfg = RunConfig(seed=4, outdir=str(tmp_path), n_control=2, n_concussed=2,
                    models=("NB",), balanced_per_class=250,
                    train_caps={"NB": 600}, novelty_train=90,
                    novelty_test_per_class=25, grid_resolution=3,
                    novelty_methods=("iforest",))
    reproduce(cfg)
    expected = json.loads(json.dumps(dataclasses.asdict(cfg)))
    for rel, kind in (("sp", "SP"), ("vms", "VMS"),
                      ("novelty/sp", "SP"), ("novelty/vms", "VMS")):
        man = json.loads((tmp_path / rel / "manifest.json").read_text())
        assert man["config"] == expected | {"test_kind": kind,
                                            "outdir": str(tmp_path / rel)}, rel


def test_every_manifest_has_the_common_keys(tmp_path):
    reproduce(RunConfig(seed=2, outdir=str(tmp_path), n_control=2, n_concussed=2,
                        models=("NB",), balanced_per_class=250, novelty_train=80,
                        novelty_test_per_class=20, grid_resolution=3,
                        novelty_methods=("iforest",)))
    for rel, command, outputs in (
            ("", "reproduce", set()),
            ("sp", "experiment", {"models/NB.json", "report.txt", "report.csv"}),
            ("novelty/vms", "novelty", {f"iforest_VMS_{eye}.csv"
                                        for eye in ("left", "right", "cyclopean")})):
        man = json.loads((tmp_path / rel / "manifest.json").read_text())
        assert {"tool", "command", "stages", "peak_rss_mb", "outputs"} <= set(man), rel
        assert (man["tool"], man["command"]) == ("gazescreen", command)
        assert set(man["outputs"]) == outputs, rel
        assert man["stages"] and all(s["stage"] and s["label"] for s in man["stages"]), rel
        assert man["peak_rss_mb"] > 0


def test_reproduce_rejects_csv_path(tmp_path):
    with pytest.raises(InvalidSpec):
        reproduce(RunConfig(csv_path="cohort.csv", outdir=str(tmp_path)))


# -- command line -------------------------------------------------------------------


def test_cli_simulate_train_evaluate_report(tmp_path):
    csv = tmp_path / "cohort.csv"
    rc = cli_main(["simulate", "--out", str(csv), "--n-control", "2",
                   "--n-concussed", "2", "--seed", "1"])
    assert rc == 0
    ds = load_csv(str(csv), "SP")
    assert len(ds) == 4 * 1800

    run_dir = tmp_path / "run"
    rc = cli_main(["train", "--csv-path", str(csv), "--models", "NB",
                   "--balanced-per-class", "300", "--seed", "1",
                   "--out-dir", str(run_dir)])
    assert rc == 0
    assert (run_dir / "report.csv").exists()
    with open(run_dir / "manifest.json") as fh:
        assert json.load(fh)["data"]["source"] == str(csv)

    eval_dir = tmp_path / "eval"
    rc = cli_main(["evaluate", "--data", str(csv),
                   "--models-dir", str(run_dir / "models"),
                   "--out-dir", str(eval_dir)])
    assert rc == 0
    assert (eval_dir / "report.txt").exists()

    table = tmp_path / "table.txt"
    rc = cli_main(["report", "--metrics-csv", str(run_dir / "report.csv"),
                   "--out", str(table)])
    assert rc == 0
    assert "Naive Bayes" in table.read_text()


def test_cli_calls_parse_independently(monkeypatch):
    """The parser is built once; each call's subcommand and flags reach only
    that call."""
    seen = []
    for name in ("report", "evaluate"):
        monkeypatch.setitem(cli._COMMANDS, name, lambda args: seen.append(args) or 0)
    assert cli_main(["report", "--metrics-csv", "a.csv", "--title", "T"]) == 0
    assert cli_main(["evaluate", "--data", "d.csv", "--models-dir", "m",
                     "--test-kind", "VMS"]) == 0
    assert cli_main(["report", "--metrics-csv", "b.csv"]) == 0
    assert cli_main(["evaluate", "--data", "e.csv", "--models-dir", "n"]) == 0
    first, second, third, fourth = (vars(a) for a in seen)
    assert first == {"command": "report", "metrics_csv": "a.csv", "out": None,
                     "title": "T"}
    assert second == {"command": "evaluate", "data": "d.csv", "test_kind": "VMS",
                      "models_dir": "m", "outdir": "."}
    assert third["title"] == "Evaluation on held-out test frames"
    assert third["metrics_csv"] == "b.csv"
    assert fourth["test_kind"] == "SP"
    assert cli._parser() is cli._parser()


def test_cli_config_file_with_flag_override(tmp_path):
    out = tmp_path / "out"
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\ntest_kind = SP\nn_control = 2\nn_concussed = 2\n"
                   "models = NB\nbalanced_per_class = 300\nseed = 11\n"
                   f"outdir = {out}\n")
    rc = cli_main(["train", "--config", str(ini), "--seed", "9"])
    assert rc == 0
    with open(out / "manifest.json") as fh:
        man = json.load(fh)
    assert man["config"]["seed"] == 9            # flag beats config file
    assert man["config"]["balanced_per_class"] == 300


def test_cli_outdir_env_override(tmp_path, monkeypatch):
    forced = tmp_path / "forced"
    monkeypatch.setenv(OUTDIR_ENV_VAR, str(forced))
    rc = cli_main(["train", "--n-control", "2", "--n-concussed", "2",
                   "--models", "NB", "--balanced-per-class", "300",
                   "--seed", "5", "--out-dir", str(tmp_path / "flag")])
    assert rc == 0
    assert (forced / "report.csv").exists()
    assert not (tmp_path / "flag").exists()


def test_cli_novelty(tmp_path):
    rc = cli_main(["novelty", "--n-control", "2", "--n-concussed", "2",
                   "--seed", "2", "--out-dir", str(tmp_path),
                   "--novelty-train", "100", "--novelty-test-per-class", "30",
                   "--grid-resolution", "4"])
    assert rc == 0
    assert (tmp_path / "iforest_SP_left.csv").exists()
    assert (tmp_path / "ocsvm_SP_cyclopean.csv").exists()


def test_cli_exit_codes(tmp_path, capsys):
    bad_ini = tmp_path / "bad.ini"
    bad_ini.write_text("[nope]\n")
    assert cli_main(["train", "--config", str(bad_ini)]) == 2

    assert cli_main(["train", "--models", "NB,BOGUS",
                     "--out-dir", str(tmp_path)]) == 2

    missing = str(tmp_path / "missing.csv")
    assert cli_main(["train", "--csv-path", missing,
                     "--out-dir", str(tmp_path / "r")]) == 3

    assert cli_main(["evaluate", "--data", missing,
                     "--models-dir", str(tmp_path)]) == 3

    os.makedirs(tmp_path / "empty")
    csv = tmp_path / "c.csv"
    cli_main(["simulate", "--out", str(csv), "--n-control", "1",
              "--n-concussed", "1", "--seed", "0"])
    assert cli_main(["evaluate", "--data", str(csv),
                     "--models-dir", str(tmp_path / "empty")]) == 2
    capsys.readouterr()                       # swallow the error chatter

    # a truncated model file and one that lacks a parameter
    assert cli_main(["train", "--n-control", "1", "--n-concussed", "1", "--seed", "0",
                     "--models", "LR", "--out-dir", str(tmp_path / "lr")]) == 0
    good = (tmp_path / "lr" / "models" / "LR.json").read_text()
    payload = json.loads(good)
    del payload["params"]["intercept"]
    for name, text in [("truncated", good[:len(good) // 2]),
                       ("no_intercept", json.dumps(payload))]:
        os.makedirs(tmp_path / name)
        (tmp_path / name / "LR.json").write_text(text)
        capsys.readouterr()
        assert cli_main(["evaluate", "--data", str(csv),
                         "--models-dir", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (evaluate):") and "Traceback" not in err

    # tree files that would split on a missing column, index past the node
    # arrays, or loop forever at a root that is its own child
    assert cli_main(["train", "--n-control", "1", "--n-concussed", "1", "--seed", "0",
                     "--models", "DT", "--out-dir", str(tmp_path / "dt")]) == 0
    tree = json.loads((tmp_path / "dt" / "models" / "DT.json").read_text())
    assert tree["params"]["feature"][0] >= 0
    for name, root in [("far_feature", {"feature": 20}), ("far_left", {"left": 10 ** 6}),
                       ("own_child", {"left": 0, "right": 0})]:
        params = {k: [root.get(k, v[0])] + v[1:] for k, v in tree["params"].items()}
        os.makedirs(tmp_path / name)
        (tmp_path / name / "DT.json").write_text(json.dumps({**tree, "params": params}))
        capsys.readouterr()
        with _time_limit(60):
            assert cli_main(["evaluate", "--data", str(csv),
                             "--models-dir", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (evaluate):") and "Traceback" not in err


@contextlib.contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the main thread after `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_cli_evaluate_binary_file_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "image.png"
    data.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR\xff\xfe")
    os.makedirs(tmp_path / "models")
    assert cli_main(["evaluate", "--data", str(data),
                     "--models-dir", str(tmp_path / "models")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error (evaluate): {data}: not a text file")
    assert "Traceback" not in err


@pytest.mark.parametrize("row", ["AUC,SVM", "AUC,SVM,abc"])
def test_cli_report_malformed_row_is_a_data_error(row, tmp_path, capsys):
    csv = tmp_path / "f.csv"
    csv.write_text(f"metric,model,value_percent\nAUC,SVM,99.5\n{row}\n")
    assert cli_main(["report", "--metrics-csv", str(csv)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error (report): report CSV line 3: expected "
                          f"metric,model,value_percent, got {row!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("row, message", [
    ("Bogus,SVM,50", "unknown metric 'Bogus'"),
    ("AUC,SVM,12", "a second AUC for 'SVM'"),
])
def test_cli_report_row_it_cannot_mean_is_a_data_error(row, message, tmp_path, capsys):
    csv = tmp_path / "f.csv"
    csv.write_text(f"metric,model,value_percent\nAUC,SVM,99.5\n{row}\n")
    assert cli_main(["report", "--metrics-csv", str(csv)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error (report): report CSV line 3: {message}")
    assert "Traceback" not in err


def test_cli_report_binary_file_is_a_data_error(tmp_path, capsys):
    csv = tmp_path / "image.png"
    csv.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR\xff\xfe")
    assert cli_main(["report", "--metrics-csv", str(csv)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error (report): {csv}: not a text file")
    assert "Traceback" not in err


def test_cli_rejects_bad_novelty_settings_before_work(tmp_path, monkeypatch, capsys):
    # an unknown method (INI key) or a one-line grid (INI key or flag) exits
    # 2 before any cohort is drawn or file written
    def no_work(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(pipeline_mod, "_acquire", no_work)
    out = tmp_path / "out"
    for i, (body, flags) in enumerate([
            ("novelty_methods = iforest,bogus\n", []),
            ("grid_resolution = 1\n", []),
            ("", ["--grid-resolution", "1"])]):
        ini = tmp_path / f"run{i}.ini"
        ini.write_text("[run]\n" + body)
        assert cli_main(["novelty", "--config", str(ini), "--out-dir", str(out)]
                        + flags) == 2
        assert "error (novelty):" in capsys.readouterr().err
    assert not out.exists()


# -- the CLI surface ------------------------------------------------------------------

# each subcommand's option strings, as given since the flags were first spelled
_RUN_OPTIONS = {
    "-h", "--help", "--config", "--test-kind", "--n-control", "--n-concussed",
    "--csv-path", "--seed", "--out-dir", "--models", "--test-fraction",
    "--validation-fraction", "--balanced-per-class",
    "--novelty-train", "--novelty-test-per-class", "--grid-resolution"}
_CLI_OPTIONS = {
    "simulate": _RUN_OPTIONS | {"--out"},
    "train": _RUN_OPTIONS,
    "evaluate": {"-h", "--help", "--data", "--test-kind", "--models-dir", "--out-dir"},
    "novelty": _RUN_OPTIONS,
    "report": {"-h", "--help", "--metrics-csv", "--out", "--title"},
    "reproduce": {"-h", "--help", "--seed", "--out-dir", "--n-control",
                  "--n-concussed", "--models", "--balanced-per-class", "--train-caps",
                  "--novelty-train", "--novelty-test-per-class", "--grid-resolution"},
}


def test_cli_option_strings():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_CLI_OPTIONS)
    for name, p in sub.choices.items():
        assert {o for a in p._actions for o in a.option_strings} == _CLI_OPTIONS[name], name


def test_cli_reproduce_defaults(tmp_path, monkeypatch):
    # the config of each section, captured before any work is done
    seen = []

    class Done:
        report_csv_path = "report.csv"

    def capture(cfg, ds=None):
        seen.append(cfg)
        return Done()

    monkeypatch.delenv(OUTDIR_ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pipeline_mod, "_acquire", lambda cfg: None)
    monkeypatch.setattr(pipeline_mod, "run_experiment", capture)
    monkeypatch.setattr(pipeline_mod, "run_novelty", capture)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["reproduce"]) == 0
    assert [(c.test_kind, c.outdir) for c in seen] == [
        ("SP", os.path.join("runs/reproduce", "sp")),
        ("SP", os.path.join("runs/reproduce", "novelty", "sp")),
        ("VMS", os.path.join("runs/reproduce", "vms")),
        ("VMS", os.path.join("runs/reproduce", "novelty", "vms"))]
    for c in seen:
        assert (c.seed, c.n_control, c.n_concussed, c.balanced_per_class) == \
            (0, 100, 100, 8000)
        assert (c.novelty_train, c.novelty_test_per_class, c.grid_resolution) == \
            (10000, 5000, 100)


@pytest.mark.parametrize("argv", [
    ["train", "--n-control", "abc"],
    ["train", "--test-kind", "XX"],
    ["train", "--weighting", "auto"],     # the flag is gone
    ["reproduce", "--train-caps", "{bad"],
])
def test_cli_bad_flag_values_exit_2(argv, tmp_path, capsys):
    # argparse rejects a flag with SystemExit, a RunConfig check with a
    # returned code; either way the code is 2 and nothing is written
    try:
        code = cli_main(argv + ["--out-dir", str(tmp_path / "out")])
    except SystemExit as e:
        code = e.code
    assert code == 2
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


@pytest.mark.parametrize("command, flags, ini", [
    ("train", ["--n-control", "-1"], ""),
    ("train", ["--models", "NB", "--balanced-per-class", "-5"], ""),
    ("train", ["--models", "NB", "--balanced-per-class", "0"], ""),
    ("novelty", ["--novelty-train", "1"], ""),
    ("novelty", ["--novelty-test-per-class", "0"], ""),
    ("novelty", ["--test-fraction", "1.5"], ""),
    ("train", ["--validation-fraction", "1"], ""),
    ("train", [], 'hyper_overrides = ["NB"]'),
    ("train", [], 'hyper_overrides = {"NB": 3}'),
    ("train", [], "train_caps = 5"),
    ("train", [], 'train_caps = {"SVC": 0}'),
    ("train", [], 'train_caps = {"XGB": 100}'),
    ("train", [], 'control_overrides = {"noise_deg": "big"}'),
    ("novelty", [], 'concussed_overrides = {"noise_deg": true}'),
    ("train", [], 'hyper_overrides = {"PERC": {"bogus": 1}}'),
    ("train", ["--csv-path", "x.csv"], 'control_overrides = {"sharpness": 1.0}'),
    ("train", ["--models", "NB,NB"], ""),
    ("train", [], "weighting = auto"),
    ("train", [], "allow_weighted_balanced_models = no"),
])
def test_cli_bad_run_values_exit_2_before_work(command, flags, ini, tmp_path,
                                               monkeypatch, capsys):
    def no_work(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(pipeline_mod, "_acquire", no_work)
    path = tmp_path / "run.ini"
    path.write_text(f"[run]\n{ini}\n")
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(path), "--out-dir", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error ({command}):") and "Traceback" not in err
    assert not out.exists()
