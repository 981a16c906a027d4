"""Command-line interface.

Subcommands: simulate, train, evaluate, novelty, report, reproduce. The
run commands (all but evaluate and report) take --config and one flag
per `RunConfig` field; values resolve flag > config file > command
default > field default, and the GAZESCREEN_OUTDIR environment variable
forces the output directory. Exit codes: 0 success, and for an error the
code its class declares (`errors.exit_code_of`): 2 configuration error,
3 data error (an OSError too), 4 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

from . import metrics as metrics_mod
from .data import TEST_KINDS, atomic_write_text, load_csv, write_csv
from .errors import DataError, GazeScreenError, InvalidSpec, exit_code_of
from .pipeline import (
    FIELD_PARSERS,
    RunConfig,
    reproduce,
    resolved_outdir,
    run_config_from_ini,
    run_evaluation,
    run_experiment,
    run_novelty,
    synthesize_cohort,
)


def _load_config(args, **defaults):
    """The one RunConfig built from `defaults`, then --config's keys (if
    given), then the flags that are set, merged in that order, with the
    output directory resolved; only the merged values are checked."""
    values = {**defaults, **(run_config_from_ini(args.config) if args.config else {})}
    values.update((name, value) for name in FIELD_PARSERS
                  if (value := getattr(args, name, None)) is not None)
    values["outdir"] = resolved_outdir(values.get("outdir", RunConfig.outdir))
    return RunConfig(**values)


def _add_run_flags(p, fixed=()):
    """--config, and one flag per RunConfig field but the `fixed` ones,
    parsed as its INI key is; unset flags stay None so the config file or
    a default applies."""
    p.add_argument("--config", help="INI file with a [run] section")
    for name, parse in FIELD_PARSERS.items():
        if name not in fixed:
            flag = "--out-dir" if name == "outdir" else "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, type=parse)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gazescreen",
        description="Simulate screening sessions and run the classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic cohort CSV")
    _add_run_flags(p)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("train", help="fit the configured models; writes models + report")
    _add_run_flags(p)

    p = sub.add_parser("evaluate", help="evaluate saved models on a CSV")
    p.add_argument("--data", required=True, help="gaze CSV to evaluate on")
    p.add_argument("--test-kind", dest="test_kind", choices=TEST_KINDS, default="SP")
    p.add_argument("--models-dir", required=True, help="directory of model JSON files")
    p.add_argument("--out-dir", dest="outdir", default=".")

    p = sub.add_parser("novelty", help="fit novelty detectors and export boundary grids")
    _add_run_flags(p)

    p = sub.add_parser("report", help="re-render a report CSV as a text table")
    p.add_argument("--metrics-csv", required=True)
    p.add_argument("--out", help="write the table here instead of stdout")
    p.add_argument("--title", default="Evaluation on held-out test frames")

    p = sub.add_parser("reproduce", help="run both experiments plus novelty under one seed")
    # each section sets its own test_kind, so a config file's is not read;
    # the cohorts are always simulated
    _add_run_flags(p, fixed=("test_kind", "csv_path"))
    p.set_defaults(test_kind=TEST_KINDS[0])
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
    result = run_evaluation(paths, ds, args.data, resolved_outdir(args.outdir))
    with open(result.report_txt_path) as fh:
        print(fh.read(), end="")
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
    per_model = metrics_mod.parse_report_csv(text)
    text = metrics_mod.render_report_text(per_model, args.title)
    if args.out:
        atomic_write_text(args.out, text)
    else:
        print(text, end="")
    return 0


def _cmd_reproduce(args):
    results = reproduce(_load_config(args, outdir="runs/reproduce"))
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
    except (GazeScreenError, OSError) as e:
        print(f"error ({args.command}): {e}", file=sys.stderr)
        return exit_code_of(e)
