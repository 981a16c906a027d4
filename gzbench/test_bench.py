"""Tests of the benchmark's own machinery (not of gazescreen).

    python3 -m pytest -q gzbench/test_bench.py
"""
import itertools
import json
import signal
import subprocess
import sys
import time

import pytest

from run import BENCH_DIR, ROOT, use_checkout_source

use_checkout_source()

import probe  # noqa: E402
import spans  # noqa: E402
from gazescreen import pipeline  # noqa: E402
from gazescreen.errors import GazeScreenError, InvalidSpec  # noqa: E402
from workloads import closed_loop, file_digests, outputs_ok  # noqa: E402


def _span(name, start, end, parent=None, metric=None, counts=None):
    return spans.Span(name, metric or name, start, end, parent, counts or {})


def test_self_times_subtract_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    tree = [_span("root", 0.0, 10.0), _span("a", 1.0, 4.0, parent=0),
            _span("b", 5.0, 9.0, parent=0), _span("c", 6.0, 8.0, parent=2)]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.0, 2.0, 2.0])


def test_layer_metrics_sum_self_times_and_counts_per_metric():
    tree = [_span("fit", 0.0, 4.0, metric="models.RF.fit_s", counts={"models.RF.fit_rows": 10}),
            _span("score", 1.0, 2.0, parent=0, metric="models.RF.score_s",
                  counts={"models.RF.score_calls": 1}),
            _span("score", 5.0, 6.5, metric="models.RF.score_s",
                  counts={"models.RF.score_calls": 1})]
    m = spans.layer_metrics(tree, wall_s=8.0)
    assert m["models.RF.fit_s"] == pytest.approx(3.0)
    assert m["models.RF.score_s"] == pytest.approx(2.5)
    assert m["models.RF.score_calls"] == 2
    assert m["models.RF.fit_rows"] == 10
    assert m["pipeline.accounted_share"] == pytest.approx(5.5 / 8.0)


def test_wrappers_are_gone_after_a_traced_call_even_when_it_raises():
    targets = spans.gazescreen_targets()
    originals = [getattr(owner, attr) for owner, attr, _ in targets]
    tracer = spans.Tracer(targets)
    cfg = pipeline.RunConfig(n_control=1, n_concussed=1, seed=0)
    with tracer.installed():
        assert pipeline.synthesize_cohort is not originals[0]
        ds = pipeline.synthesize_cohort(cfg)
    assert [getattr(owner, attr) for owner, attr, _ in targets] == originals
    assert [(s.name, s.metric, s.counts) for s in tracer.spans] == [
        ("pipeline.synthesize_cohort", "simulate.cohort_s", {"simulate.frames": len(ds)})]

    with pytest.raises(InvalidSpec):
        with tracer.installed():
            pipeline.synthesize_cohort(
                pipeline.RunConfig(n_control=1, n_concussed=1,
                                   control_overrides={"no_such_field": 1.0}))
    assert [getattr(owner, attr) for owner, attr, _ in targets] == originals


def test_a_flipped_output_byte_fails_the_output_check(tmp_path):
    (tmp_path / "report.csv").write_bytes(b"metric,model,value_percent\nAUC,SVM,99.5\n")
    reference = file_digests(str(tmp_path), ["report.csv"])
    assert outputs_ok([reference, dict(reference)], reference)

    data = bytearray((tmp_path / "report.csv").read_bytes())
    data[-3] ^= 0x01
    (tmp_path / "report.csv").write_bytes(bytes(data))
    flipped = file_digests(str(tmp_path), ["report.csv"])
    assert not outputs_ok([flipped], reference)
    assert not outputs_ok([reference, flipped], None)  # iterations must agree
    assert not outputs_ok([file_digests(str(tmp_path), ["missing.csv"])], None)


def test_a_raised_gazescreen_error_counts_as_failed_and_the_loop_goes_on():
    calls = itertools.count()

    def step():
        if next(calls) == 1:
            raise GazeScreenError("boom")
        return 0.5

    clock = itertools.count().__next__  # one tick per call: a few iterations
    record = closed_loop([step], seconds=6, clock=clock)
    assert record[1] == (0, None)
    assert len(record) > 2 and all(s == 0.5 for _, s in record[2:])


def test_ticks_are_timed_around_and_inside_a_block_and_the_timer_is_restored():
    previous = signal.getsignal(signal.SIGALRM)
    ticks = []
    with pytest.raises(GazeScreenError):
        with probe.sampled(ticks):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 5 * probe.PERIOD_S:
                pass
            raise GazeScreenError("boom")
    assert len(ticks) >= 4 and all(dt > 0 for _, dt in ticks)
    assert [start for start, _ in ticks] == sorted(start for start, _ in ticks)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_trace_run_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "evaluate",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert [m["name"] for m in spec["per_layer"]] == list(result["metrics"])
    assert result["metrics"]["pipeline.accounted_share"]["value"] >= 0.95
    assert result["metrics"]["models.GPC.score_calls"]["value"] == 2
