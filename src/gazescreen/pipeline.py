"""End-to-end experiment orchestration: simulate or load data, split,
weight, fit every requested model, evaluate, and render the report table,
with a manifest recording config, seeds, content hashes, stage timings and
the host.

Models are fitted one after another and fully seeded; a random forest
grows its trees on the CPUs this process may use (`forked`), with the same
trees on any number of them. So two runs with the same config produce
byte-identical report CSVs and model files (the acceptance bar for
reproducibility); the manifest additionally carries wall-clock timings
and the host and is therefore not expected to be identical between runs.
"""
from __future__ import annotations

import configparser
import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import forked
from . import metrics as metrics_mod
from .data import (
    EYE_SLICES,
    TEST_KINDS,
    SplitConfig,
    atomic_write_text,
    balanced_subset,
    class_weights,
    load_csv,
    require_per_class,
    split,
    stratified_cap,
)
from .errors import DataError, GazeScreenError, InvalidSpec, PipelineError, SingleClass
from .models import MODEL_KINDS, FeatureMatrix, load_model, model_kind
from .novelty import (
    IsoForestParams,
    OcsvmParams,
    export_boundary_grid,
    fit_isolation_forest,
    fit_ocsvm,
)
from .settings import Settings, takes
from .simulate import ImpairmentParams, generate_cohort

EYE_CHANNELS = tuple(EYE_SLICES)

# each novelty method's fit (X, seed), in the order run_novelty fits them
# for each eye: the one-class SVM's fit is where a novelty run peaks in
# memory, so it runs while no point text is held, and the forest's grid
# then reuses the text the SVM's grid formatted. Each fit is looked up in
# this module when it is called, so a replaced `fit_ocsvm` or
# `fit_isolation_forest` is the one that runs.
_NOVELTY_FITS = {
    "ocsvm": lambda X, seed: fit_ocsvm(X, OcsvmParams()),
    "iforest": lambda X, seed: fit_isolation_forest(X, IsoForestParams(seed=seed)),
}
NOVELTY_METHODS = tuple(sorted(_NOVELTY_FITS))

OUTDIR_ENV_VAR = "GAZESCREEN_OUTDIR"


@dataclass
class RunConfig(Settings):
    """One experiment: data source, split, models, novelty.

    Data comes from `csv_path` when set, otherwise from simulating
    n_control + n_concussed sessions of `test_kind`. Each model trains by
    the protocol its `MODEL_KINDS` entry declares, on at most its entry's
    cap of rows; `train_caps` overrides that cap kind by kind.
    Building one checks every setting: `hyperparams[kind]` and
    `impairments[label]` are the records the run uses, overrides applied.
    """

    # the split's fractions and seed, and the least sizes a run works with
    # (a novelty fit needs two rows, and each test class and balanced subset one)
    RANGES = {**SplitConfig.RANGES, "n_control": "[0, inf)", "n_concussed": "[0, inf)",
              "balanced_per_class": "[1, inf)", "novelty_train": "[2, inf)",
              "novelty_test_per_class": "[1, inf)", "grid_resolution": "[2, inf)"}
    test_kind: str = "SP"
    n_control: int = 100
    n_concussed: int = 100
    csv_path: str = None
    seed: int = 0
    outdir: str = "runs/out"
    models: tuple = tuple(MODEL_KINDS)
    test_fraction: float = 0.2
    validation_fraction: float = 0.1
    balanced_per_class: int = 8000
    train_caps: dict = field(default_factory=dict)
    hyper_overrides: dict = field(default_factory=dict)
    control_overrides: dict = field(default_factory=dict)
    concussed_overrides: dict = field(default_factory=dict)
    # novelty stage
    novelty_train: int = 10000
    novelty_test_per_class: int = 5000
    grid_resolution: int = 100
    novelty_methods: tuple = NOVELTY_METHODS

    def __post_init__(self):
        super().__post_init__()
        if self.test_kind not in TEST_KINDS:
            raise InvalidSpec(f"test_kind must be SP or VMS, got {self.test_kind!r}")
        for name in ("models", "novelty_methods"):
            names = getattr(self, name)
            if not names or len(set(names)) < len(names):
                raise InvalidSpec(f"{name} must name at least one, each once; got {list(names)}")
        unknown = [m for m in self.novelty_methods if m not in NOVELTY_METHODS]
        if unknown:
            raise InvalidSpec(f"unknown novelty method(s) {unknown}; valid: {NOVELTY_METHODS}")
        unknown = [k for k in self.train_caps if k not in MODEL_KINDS]
        if unknown:
            raise InvalidSpec(f"unknown model kind(s) {unknown} in train_caps")
        for kind, cap in self.train_caps.items():
            # fewer than two rows cannot hold both classes
            if not takes("int", cap) or cap < 2:
                raise InvalidSpec(f"train_caps[{kind!r}] must be an integer >= 2, got {cap!r}")
        # each record checks its own values; these are not fields, so asdict
        # and == see only the settings
        self.hyperparams = {kind: make_params(kind, self.hyper_overrides.get(kind))
                            for kind in (*self.models, *self.hyper_overrides)}
        self.impairments = {}
        for label, name in ((0, "control_overrides"), (1, "concussed_overrides")):
            try:
                self.impairments[label] = replace(ImpairmentParams.for_label(label),
                                                  **getattr(self, name))
            except (TypeError, InvalidSpec) as e:
                raise InvalidSpec(f"{name}: {e}") from None

    def split_config(self):
        return SplitConfig(test_fraction=self.test_fraction,
                           validation_fraction=self.validation_fraction,
                           seed=self.seed)


def _parse_list(raw):
    return tuple(v.strip() for v in raw.split(",") if v.strip())


# how a text value (INI or flag) becomes each RunConfig field, chosen by
# the field's annotation; a field of any other type fails here, at import
_TEXT_PARSERS = {"str": str, "int": int, "float": float, "tuple": _parse_list,
                 "dict": json.loads}
FIELD_PARSERS = {f.name: _TEXT_PARSERS[f.type] for f in fields(RunConfig)}


def resolved_outdir(outdir):
    """`outdir`, unless the GAZESCREEN_OUTDIR environment variable forces
    another; entry points (CLI, reproduce) call this once so nested stages
    keep their subdirectories."""
    return os.environ.get(OUTDIR_ENV_VAR, "") or outdir


def run_config_from_ini(path):
    """The RunConfig fields an INI file's [run] section sets, each parsed
    from its text: dict-valued keys take JSON, tuple-valued keys
    comma-separated lists, and a `%` is literal. The values are checked
    when a RunConfig is built from them."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise InvalidSpec(f"cannot read config file {path}")
    except (configparser.Error, UnicodeDecodeError) as e:
        # on one line: some of configparser's messages span three
        raise InvalidSpec(f"cannot parse config file {path}: {' '.join(str(e).split())}") from None
    if not parser.has_section("run"):
        raise InvalidSpec(f"{path}: missing [run] section")
    values = {}
    for key, raw in parser.items("run"):
        if key not in FIELD_PARSERS:
            raise InvalidSpec(f"{path} [run]: unknown key {key!r}")
        try:
            values[key] = FIELD_PARSERS[key](raw)
        except ValueError as e:
            raise InvalidSpec(f"{path} [run]: bad value for {key}: {e}") from None
    return values


# -- model dispatch -------------------------------------------------------------

def make_params(kind, overrides=None):
    """The params record of `kind` with `overrides` applied. An unknown
    kind or hyperparameter raises InvalidSpec, and so does a value the
    record refuses (`settings.Settings`)."""
    entry = model_kind(kind)
    overrides = {} if overrides is None else overrides
    if not isinstance(overrides, dict):
        raise InvalidSpec(f"{kind}: hyperparameters must be a JSON object, got {overrides!r}")
    try:
        return entry.params(**overrides)
    except (TypeError, InvalidSpec) as e:
        raise InvalidSpec(f"{kind}: {e}") from None


def fit_model(kind, fm, params=None, seed=0):
    """The fit of `kind`, with its params record and seed."""
    return model_kind(kind).fit(fm, params, seed)


def _train_cap(kind, cfg):
    """The row cap of `kind`: its entry's, unless `cfg.train_caps` replaces it."""
    return cfg.train_caps.get(kind, model_kind(kind).cap)


def _balanced_per_class(kind, cfg):
    """Frames per class of `kind`'s balanced subset: `cfg.balanced_per_class`,
    at most half the kind's cap."""
    cap = _train_cap(kind, cfg)
    return cfg.balanced_per_class if cap is None else min(cfg.balanced_per_class, cap // 2)


def training_matrix(kind, train_ds, cfg):
    """Apply the training protocol and row cap `kind` declares; a cap in
    `cfg.train_caps` replaces the declared one.

    Returns (FeatureMatrix, description dict for the manifest).
    """
    entry = model_kind(kind)
    info = {"weighting": entry.weighting}
    if entry.weighting == "balanced-subset":
        per_class = _balanced_per_class(kind, cfg)
        sub = balanced_subset(train_ds, per_class, seed=cfg.seed)
        info["per_class"] = per_class
        return FeatureMatrix.from_dataset(sub), info
    cap = _train_cap(kind, cfg)
    capped = stratified_cap(train_ds, cap, cfg.seed) if cap is not None else train_ds
    cw = class_weights(capped)
    info["train_rows"] = len(capped)
    info["class_weights"] = [cw.control, cw.concussed]
    return FeatureMatrix.from_dataset(capped, cw.per_sample(capped.labels)), info


# -- the run record ----------------------------------------------------------------

class _Run:
    """The record of one pipeline command, used as a context manager. It
    makes the output directory, times each stage, lists each file written
    under it with the file's sha256, deletes those files if the block
    raises (so a failed run leaves none of its outputs behind), and writes
    all of it to manifest.json."""

    def __init__(self, outdir, command):
        os.makedirs(outdir, exist_ok=True)
        self.outdir = outdir
        self.command = command
        self.stages = []
        self.outputs = {}

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for name in self.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(os.path.join(self.outdir, name))

    def stage(self, name, detail, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except GazeScreenError as e:
            raise PipelineError(name, detail, e) from e
        self.stages.append({"stage": name, "label": detail,
                            "seconds": time.perf_counter() - t0,
                            "peak_rss_mb": _peak_rss_mb()})
        return out

    def write(self, name, text):
        """Write `text` to `name` under the output directory; returns its path."""
        path = os.path.join(self.outdir, name)
        atomic_write_text(path, text)
        self.outputs[name] = hashlib.sha256(text.encode()).hexdigest()
        return path

    def save_model(self, model, name):
        """Write a model file to `name` under the output directory; returns its path."""
        path = os.path.join(self.outdir, name)
        model.save(path)
        self.outputs[name] = _sha256_file(path)
        return path

    def finish(self, **body):
        """Write manifest.json: the common keys plus the runner's `body`;
        returns its path."""
        path = os.path.join(self.outdir, "manifest.json")
        manifest = {"tool": "gazescreen", "command": self.command, "stages": self.stages,
                    "peak_rss_mb": _peak_rss_mb(), "host": _host(),
                    "outputs": self.outputs, **body}
        atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True))
        return path


def _mb(maxrss):
    """A ru_maxrss in MB (it is in KiB on Linux and in bytes on macOS)."""
    return maxrss / (1 << 20) if sys.platform == "darwin" else maxrss / (1 << 10)


def _peak_rss_mb():
    """Peak resident set size so far of this process."""
    return _mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _host():
    """Where the run ran: the CPUs this process may use, the peak RSS of
    the largest random forest worker it has reaped (0 before any split),
    the numpy version, scipy's when the run loaded it, and numpy's BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    host = {"cpus": forked.cpu_count(),
            "workers_peak_rss_mb": _mb(forked.workers_peak_rss),
            "numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "threads": _blas_threads()}}
    scipy = sys.modules.get("scipy")
    if scipy is not None:
        host["scipy"] = scipy.__version__
    return host


def _blas_threads():
    """Threads of numpy's OpenBLAS, asked through the library's own
    symbol, or None where it cannot be found (no /proc/self/maps, or
    another BLAS). numpy's copy has the 64-bit-integer symbols; scipy's
    own copy, when loaded, has the plain ones."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        for path in libs:
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def synthesize_cohort(cfg):
    """Simulate the configured cohort with its two impairment records."""
    return generate_cohort(
        cfg.n_control, cfg.n_concussed, cfg.test_kind, base_seed=cfg.seed,
        control_impairment=cfg.impairments[0], concussed_impairment=cfg.impairments[1])


def _acquire(cfg):
    if cfg.csv_path:
        return load_csv(cfg.csv_path, cfg.test_kind)
    return synthesize_cohort(cfg)


# -- experiment runner -------------------------------------------------------------

@dataclass
class ExperimentResult:
    per_model: dict           # display name -> MetricSet
    report_txt_path: str
    report_csv_path: str
    manifest_path: str
    model_paths: dict


def run_experiment(cfg, ds=None):
    """Simulate/load -> split -> per-model weight/cap/fit -> evaluate ->
    report + manifest. Returns an ExperimentResult. `ds`, when given, is
    the cohort `cfg` describes, already acquired."""
    with _Run(cfg.outdir, "experiment") as run:
        os.makedirs(os.path.join(cfg.outdir, "models"), exist_ok=True)
        source = cfg.csv_path or f"synthetic cohort ({cfg.n_control}+{cfg.n_concussed} {cfg.test_kind})"
        if ds is None:
            ds = run.stage("acquire", source, _acquire, cfg)
        train_ds, val_ds, test_ds = run.stage(
            "split", f"{len(ds)} frames", split, ds, cfg.split_config())
        # a balanced subset the split cannot hold fails its weight stage
        # here, before any model is fitted
        for kind in cfg.models:
            if MODEL_KINDS[kind].weighting == "balanced-subset":
                try:
                    require_per_class(train_ds, _balanced_per_class(kind, cfg))
                except DataError as e:
                    raise PipelineError("weight", f"model {kind}", e) from e
        per_model = {}
        model_paths = {}
        model_info = {}
        for kind in cfg.models:
            fm, info = run.stage("weight", f"model {kind}", training_matrix,
                                 kind, train_ds, cfg)
            model = run.stage("fit", f"model {kind} ({fm.n} rows)",
                              fit_model, kind, fm, cfg.hyperparams[kind], cfg.seed)
            model_paths[kind] = run.stage("save", f"model {kind}", run.save_model,
                                          model, f"models/{kind}.json")
            per_model[MODEL_KINDS[kind].name] = run.stage(
                "evaluate", f"model {kind}", evaluate_model, model, test_ds)
            model_info[kind] = {**info, "fit": fit_diagnostics(kind, model)}
        title = f"Evaluation on held-out test frames ({cfg.test_kind})"
        txt_path, csv_path = run.stage("report", f"{len(per_model)} models", lambda: (
            run.write("report.txt", metrics_mod.render_report_text(per_model, title)),
            run.write("report.csv", metrics_mod.render_report_csv(per_model))))
        manifest_path = run.finish(
            config=asdict(cfg),
            data={
                "source": source,
                "sha256": _sha256_file(cfg.csv_path) if cfg.csv_path else None,
                "frames": len(ds),
                "split": {"train": len(train_ds), "validation": len(val_ds),
                          "test": len(test_ds)},
            },
            models=model_info)
        return ExperimentResult(per_model, txt_path, csv_path, manifest_path, model_paths)


def evaluate_model(model, test_ds):
    """MetricSet of one fitted model on a dataset. The model is scored once;
    its labels are `score > threshold`, exactly what `predict` returns."""
    scores = model.decision_score(test_ds.features)
    pred = (scores > model.threshold).astype(np.int64)
    return metrics_mod.evaluate_predictions(test_ds.labels, pred, scores)


def fit_diagnostics(label, model):
    """How the fit of `label` behaved: the model's meta but its
    hyperparameters and seed (which the config records), with whether it
    converged and its tree nodes where the model has them. A fit that did
    not converge also prints a warning on stderr."""
    diag = {k: v for k, v in model.meta.items() if k not in ("hyperparams", "seed")}
    if hasattr(model, "n_nodes"):
        diag["nodes"] = int(model.n_nodes)
    if hasattr(model, "converged"):
        diag["converged"] = bool(model.converged)
        if not model.converged:
            print(f"warning: {label} fit did not converge", file=sys.stderr)
    return diag


def evaluate_saved_models(model_paths, test_ds):
    """Re-evaluate serialised models on a dataset; returns {display: MetricSet}.
    The report has one column per kind, so a second file of a kind raises
    InvalidSpec."""
    per_model, paths = {}, {}
    for path in model_paths:
        model = load_model(path)
        if model.kind in paths:
            raise InvalidSpec(f"{paths[model.kind]} and {path} are both {model.kind} models")
        paths[model.kind] = path
        per_model[MODEL_KINDS[model.kind].name] = evaluate_model(model, test_ds)
    return per_model


# -- novelty runner -----------------------------------------------------------------

def run_novelty(cfg, ds=None):
    """Fit control-only detectors per eye channel and export boundary grids.

    Uses (x, y) direction components of one eye at a time, mirroring the
    per-eye scatter panels of the screening figures. Produces
    {method}_{kind}_{eye}.csv files and a manifest with each fit's
    diagnostics and each grid's sizes. `ds`, when given, is the cohort
    `cfg` describes, already acquired.
    """
    with _Run(cfg.outdir, "novelty") as run:
        if ds is None:
            ds = run.stage("acquire", f"novelty cohort {cfg.test_kind}", _acquire, cfg)
        train_ds, _, test_ds = run.stage("split", f"{len(ds)} frames",
                                         split, ds, cfg.split_config())
        rng = np.random.default_rng(cfg.seed)
        # novelty detectors train on regular (control) frames only
        pool_idx = np.nonzero(train_ds.labels == 0)[0]
        if pool_idx.size == 0:
            raise PipelineError("novelty-train", "control pool",
                                SingleClass("no control frames to train on"))
        take = min(cfg.novelty_train, pool_idx.size)
        train_pool = train_ds.subset(rng.choice(pool_idx, size=take, replace=False))

        per_class = cfg.novelty_test_per_class
        n0, n1 = test_ds.class_counts()
        test_parts = []
        for c, avail in ((0, n0), (1, n1)):
            k = min(per_class, avail)
            if k == 0:
                raise PipelineError("novelty-test", f"class {c}",
                                    SingleClass(f"no class-{c} frames in the test split"))
            test_parts.append(test_ds.subset(
                rng.choice(np.nonzero(test_ds.labels == c)[0], size=k, replace=False)))
        test_reg, test_nov = test_parts

        grid_paths = []
        fits, grids = {}, {}
        # carries one eye's point text from its first grid's CSV to its
        # second's
        shared = {}
        for eye in EYE_CHANNELS:
            Xtr = train_pool.eye_dirs(eye)[:, :2]
            Xreg = test_reg.eye_dirs(eye)[:, :2]
            Xnov = test_nov.eye_dirs(eye)[:, :2]
            for method, fit in _NOVELTY_FITS.items():
                if method not in cfg.novelty_methods:
                    continue
                label = f"{method} {eye}"
                model = run.stage("novelty-fit", label, fit, Xtr, cfg.seed)
                fits[label] = fit_diagnostics(label, model)
                grid = run.stage("novelty-grid", label, export_boundary_grid,
                                 model, Xtr, Xreg, Xnov, cfg.grid_resolution)
                grids[label] = grid.sizes
                name = f"{method}_{cfg.test_kind}_{eye}.csv"
                grid_paths.append(run.stage(
                    "grid-write", label, lambda: run.write(name, grid.to_csv_text(shared))))
                # done with: dropped before the next fit, so that a forest and
                # its cell tables (about 3 MB) do not add to that fit's peak RSS
                del model, grid

        run.finish(config=asdict(cfg),
                   data={"train_rows": len(train_pool),
                         "test_regular": len(test_reg), "test_novel": len(test_nov)},
                   fits=fits, grids=grids)
        return grid_paths


# -- full reproduction ----------------------------------------------------------------

def reproduce(cfg):
    """Run the SP experiment, the VMS experiment and both novelty stages
    of `cfg` under its seed; returns {section: result}. Each section runs
    `cfg` with its own test_kind and outdir. Each cohort is simulated
    once and shared by its experiment and its novelty stage. The top-level
    manifest times each cohort's simulation as an `acquire` stage and
    points to each section's own manifest."""
    if cfg.csv_path:
        raise InvalidSpec("reproduce simulates its cohorts; csv_path must be unset")
    outdir = resolved_outdir(cfg.outdir)
    results = {}
    sections = {}
    with _Run(outdir, "reproduce") as run:
        for kind in TEST_KINDS:
            exp_cfg = replace(cfg, test_kind=kind, outdir=os.path.join(outdir, kind.lower()))
            ds = run.stage("acquire",
                           f"synthetic cohort ({cfg.n_control}+{cfg.n_concussed} {kind})",
                           _acquire, exp_cfg)
            results[kind] = run_experiment(exp_cfg, ds)
            nov_cfg = replace(cfg, test_kind=kind,
                              outdir=os.path.join(outdir, "novelty", kind.lower()))
            results[f"novelty-{kind}"] = run_novelty(nov_cfg, ds)
            sections[kind] = os.path.join(kind.lower(), "manifest.json")
            sections[f"novelty-{kind}"] = os.path.join("novelty", kind.lower(), "manifest.json")
        run.finish(seed=cfg.seed, sections=sections)
    return results
