"""The benchmark's workloads: how each one's inputs are prepared, what one
timed iteration runs, and which output files must match byte for byte.

Sizes are scaled down from the published 100+100 runs so that one
iteration takes a few seconds on a 2-core machine and a timed run holds
several iterations; the caps keep the same models dominant as at full
scale (RF and GPC in training, grid scoring and SMO in novelty).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import time
from dataclasses import dataclass

from gazescreen import cli, pipeline
from gazescreen.data import write_csv
from gazescreen.errors import GazeScreenError

# the SP experiment; `evaluate` scores the models this config fits
SP_TRAIN = dict(test_kind="SP", n_control=3, n_concussed=3,
                train_caps={"SVC": 2000, "RF": 2000, "GPC": 200},
                balanced_per_class=2000)
# the cohort `evaluate` reads from CSV, drawn with seed + 1
EVALUATE_COHORT = dict(test_kind="SP", n_control=2, n_concussed=2)
NOVELTY_VMS = dict(test_kind="VMS", n_control=3, n_concussed=3,
                   novelty_train=3000, novelty_test_per_class=1000,
                   grid_resolution=100)

GRID_FILES = tuple(f"{method}_VMS_{eye}.csv" for method in ("iforest", "ocsvm")
                   for eye in pipeline.EYE_CHANNELS)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: object   # (seed, inputs_dir) -> None; runs in the set-up process
    run: object       # (seed, inputs_dir, out_dir) -> None; one timed iteration
    outputs: tuple    # files under out_dir checked against the references


def _prepare_nothing(seed, inputs_dir):
    """sp-train and novelty-vms simulate their cohort inside the timed call."""


def _run_sp_train(seed, inputs_dir, out_dir):
    pipeline.run_experiment(pipeline.RunConfig(**SP_TRAIN, seed=seed, outdir=out_dir))


def _run_novelty(seed, inputs_dir, out_dir):
    pipeline.run_novelty(pipeline.RunConfig(**NOVELTY_VMS, seed=seed, outdir=out_dir))


def _prepare_evaluate(seed, inputs_dir):
    """What `gazescreen simulate` and `gazescreen train` leave behind: a
    cohort CSV and the eight model files fitted with the sp-train config."""
    cohort = pipeline.synthesize_cohort(
        pipeline.RunConfig(**EVALUATE_COHORT, seed=seed + 1))
    write_csv(cohort, os.path.join(inputs_dir, "cohort.csv"))
    _run_sp_train(seed, inputs_dir, os.path.join(inputs_dir, "train"))


def _run_evaluate(seed, inputs_dir, out_dir):
    """`gazescreen evaluate`, in-process, with its table output discarded."""
    argv = ["evaluate", "--data", os.path.join(inputs_dir, "cohort.csv"),
            "--test-kind", "SP",
            "--models-dir", os.path.join(inputs_dir, "train", "models"),
            "--out-dir", out_dir]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        raise GazeScreenError(f"evaluate exited with {code}: {stderr.getvalue().strip()}")


WORKLOADS = {w.name: w for w in (
    Workload("sp-train", _prepare_nothing, _run_sp_train, ("report.csv",)),
    Workload("novelty-vms", _prepare_nothing, _run_novelty, GRID_FILES),
    Workload("evaluate", _prepare_evaluate, _run_evaluate, ("report.csv",)),
)}


def file_digests(out_dir, names):
    """sha256 of each named output file; a missing file digests as None."""
    digests = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        else:
            digests[name] = None
    return digests


def outputs_ok(digest_runs, reference):
    """True when every iteration wrote every output, all iterations agree
    byte for byte, and they match the committed reference (when the seed
    has one)."""
    if not digest_runs:
        return False
    first = digest_runs[0]
    if any(v is None for v in first.values()):
        return False
    if any(d != first for d in digest_runs[1:]):
        return False
    return reference is None or first == reference


def closed_loop(steps, seconds, clock=time.perf_counter):
    """One client: run `steps` in turn, each only after the previous one
    finished, until `seconds` have passed and every step ran once.

    Each step returns the seconds it timed. A step that raises
    GazeScreenError counts as failed (recorded as None) and the loop goes
    on. Returns [(step_index, seconds or None)] in run order."""
    record = []
    deadline = clock() + seconds
    i = 0
    while i < len(steps) or clock() < deadline:
        k = i % len(steps)
        i += 1
        try:
            record.append((k, steps[k]()))
        except GazeScreenError as e:
            print(f"iteration {i} failed: {e}", file=sys.stderr)
            record.append((k, None))
    return record
