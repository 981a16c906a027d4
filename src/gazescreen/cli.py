"""Command-line interface.

Subcommands: simulate, train, evaluate, novelty, report, reproduce.
Values resolve flag > config file > built-in default; the output
directory can additionally be forced with the GAZESCREEN_OUTDIR
environment variable. Exit codes: 0 success, 2 configuration error,
3 data error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import metrics as metrics_mod
from .data import TEST_KINDS, atomic_write_text, load_csv, write_csv
from .errors import DataError, GazeScreenError, InvalidSpec, NumericError, PipelineError
from .pipeline import (
    FIELD_PARSERS,
    OUTDIR_ENV_VAR,
    RunConfig,
    evaluate_saved_models,
    reproduce,
    run_config_from_ini,
    run_experiment,
    run_novelty,
    synthesize_cohort,
)

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _exit_code_for(err):
    cause = err.cause if isinstance(err, PipelineError) else err
    if isinstance(cause, InvalidSpec):
        return EXIT_CONFIG
    if isinstance(cause, DataError):
        return EXIT_DATA
    if isinstance(cause, NumericError):
        return EXIT_NUMERIC
    return 1


def _load_config(args):
    """RunConfig from --config (if given) with set flags layered on top."""
    config = getattr(args, "config", None)
    cfg = run_config_from_ini(config) if config else RunConfig()
    updates = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
               if getattr(args, f.name, None) is not None}
    cfg = dataclasses.replace(cfg, **updates)
    return dataclasses.replace(cfg, outdir=cfg.resolved_outdir())


# the RunConfig fields each subcommand takes as flags
_RUN_FLAGS = ("test_kind", "n_control", "n_concussed", "csv_path", "seed", "outdir",
              "models", "test_fraction", "validation_fraction", "balanced_per_class",
              "novelty_train", "novelty_test_per_class", "grid_resolution")
_REPRODUCE_FLAGS = ("seed", "outdir", "n_control", "n_concussed", "models",
                    "balanced_per_class", "train_caps", "novelty_train",
                    "novelty_test_per_class", "grid_resolution")


def _add_run_flags(p, names):
    """One flag per RunConfig field, parsed as its INI key is; unset flags
    stay None so the config file or the field default applies."""
    for name in names:
        flag = "--out-dir" if name == "outdir" else "--" + name.replace("_", "-")
        p.add_argument(flag, dest=name, type=FIELD_PARSERS[name])


def _add_common(p):
    p.add_argument("--config", help="INI file with a [run] section")
    _add_run_flags(p, _RUN_FLAGS)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gazescreen",
        description="Simulate screening sessions and run the classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort CSV")
    _add_common(p)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("train", help="fit the configured models; writes models + report")
    _add_common(p)

    p = sub.add_parser("evaluate", help="evaluate saved models on a CSV")
    p.add_argument("--data", required=True, help="gaze CSV to evaluate on")
    p.add_argument("--test-kind", dest="test_kind", choices=TEST_KINDS, default="SP")
    p.add_argument("--models-dir", required=True, help="directory of model JSON files")
    p.add_argument("--out-dir", dest="outdir", default=".")

    p = sub.add_parser("novelty", help="fit novelty detectors and export boundary grids")
    _add_common(p)

    p = sub.add_parser("report", help="re-render a report CSV as a text table")
    p.add_argument("--metrics-csv", required=True)
    p.add_argument("--out", help="write the table here instead of stdout")
    p.add_argument("--title", default="Evaluation on held-out test frames")

    p = sub.add_parser("reproduce", help="run both experiments plus novelty under one seed")
    _add_run_flags(p, _REPRODUCE_FLAGS)
    p.set_defaults(outdir="runs/reproduce")
    return parser


@functools.cache
def _parser():
    """The parser of every `main` call in this process. Building it takes
    about 3 ms, and parsing leaves it unchanged."""
    return build_parser()


def _cmd_simulate(args):
    cfg = _load_config(args)
    ds = synthesize_cohort(cfg)
    write_csv(ds, args.out)
    print(f"wrote {len(ds)} frames ({cfg.n_control}+{cfg.n_concussed} sessions, "
          f"{cfg.test_kind}) to {args.out}")
    return 0


def _cmd_train(args):
    cfg = _load_config(args)
    result = run_experiment(cfg)
    with open(result.report_txt_path) as fh:
        print(fh.read(), end="")
    print(f"\nreport: {result.report_csv_path}\nmanifest: {result.manifest_path}")
    return 0


def _cmd_evaluate(args):
    ds = load_csv(args.data, args.test_kind)
    paths = sorted(
        os.path.join(args.models_dir, f) for f in os.listdir(args.models_dir)
        if f.endswith(".json") and f != "manifest.json")
    if not paths:
        raise InvalidSpec(f"no model files in {args.models_dir}")
    per_model = evaluate_saved_models(paths, ds)
    outdir = os.environ.get(OUTDIR_ENV_VAR, "") or args.outdir
    os.makedirs(outdir, exist_ok=True)
    title = f"Evaluation on {os.path.basename(args.data)} ({args.test_kind})"
    text = metrics_mod.render_report_text(per_model, title)
    atomic_write_text(os.path.join(outdir, "report.txt"), text)
    atomic_write_text(os.path.join(outdir, "report.csv"),
                      metrics_mod.render_report_csv(per_model))
    print(text, end="")
    return 0


def _cmd_novelty(args):
    cfg = _load_config(args)
    paths = run_novelty(cfg)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_report(args):
    try:
        with open(args.metrics_csv) as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise DataError(f"{args.metrics_csv}: not a text file: {e}") from None
    parsed = metrics_mod.parse_report_csv(text)
    per_model = {
        model: metrics_mod.MetricSet(**{f: vals.get(name, float("nan"))
                                        for name, f in metrics_mod.METRIC_FIELDS.items()})
        for model, vals in parsed.items()}
    text = metrics_mod.render_report_text(per_model, args.title)
    if args.out:
        atomic_write_text(args.out, text)
    else:
        print(text, end="")
    return 0


def _cmd_reproduce(args):
    results = reproduce(_load_config(args))
    for kind in TEST_KINDS:
        print(f"{kind}: report {results[kind].report_csv_path}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "novelty": _cmd_novelty,
    "report": _cmd_report,
    "reproduce": _cmd_reproduce,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except PipelineError as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code_for(e)
    except GazeScreenError as e:
        print(f"error ({args.command}): {e}", file=sys.stderr)
        return _exit_code_for(e)
    except FileNotFoundError as e:
        print(f"error ({args.command}): {e}", file=sys.stderr)
        return EXIT_DATA
