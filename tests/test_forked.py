"""One call split across forked processes (`gazescreen.forked`), and the
random forest fit that uses it: the same model bytes from one process and
from forked pieces, a child's error raised with its class, a killed
child's piece grown again in the caller, and no child left unreaped."""
import json
import os
import signal
import threading
import time

import numpy as np
import pytest

from conftest import unreaped_child
from gazescreen import forked, pipeline
from gazescreen.errors import DataError
from gazescreen.models import FeatureMatrix, ForestParams, fit_random_forest
from gazescreen.models import forest as forest_mod
from gazescreen.models import tree as tree_mod

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def forest_matrix():
    rng = np.random.default_rng(11)
    X = np.round(rng.normal(0, 1, (90, 4)), 2)
    y = (X[:, 0] + X[:, 1] * X[:, 2] + rng.normal(0, 0.5, 90) > 0).astype(int)
    return FeatureMatrix(X, y, rng.uniform(0.5, 2.0, 90))


def rf_json(n_estimators=7, seed=3):
    model = fit_random_forest(forest_matrix(), ForestParams(n_estimators=n_estimators), seed)
    return json.dumps(model.to_dict())


@pytest.fixture
def pieces(monkeypatch):
    """split(cpus) makes every later fit split as far as `cpus` processes
    allow; returns the piece count of each `run_pieces` call."""
    counts = []
    run_pieces = forked.run_pieces

    def counted(fn, k):
        counts.append(k)
        return run_pieces(fn, k)

    def split(cpus):
        monkeypatch.setattr(forest_mod, "_BAG_ROWS_PER_PROCESS", 1)
        monkeypatch.setattr(forked, "worker_count", lambda: cpus)
        monkeypatch.setattr(forked, "run_pieces", counted)
        return counts
    return split


def in_children(monkeypatch, action):
    """Run action() in each forked child just before it grows its trees."""
    parent = os.getpid()
    grow = tree_mod.CartGrower.grow

    def patched(self, *args):
        if os.getpid() != parent:
            action()
        return grow(self, *args)
    monkeypatch.setattr(tree_mod.CartGrower, "grow", patched)


@pytest.mark.parametrize("n_estimators,cpus,k", [(1, 2, 1), (7, 2, 2), (7, 3, 3)])
def test_forked_pieces_give_the_same_model_bytes(pieces, n_estimators, cpus, k):
    one = rf_json(n_estimators)
    counts = pieces(cpus)
    assert rf_json(n_estimators) == one
    assert counts == [k]
    assert_no_children()


def test_small_forest_grows_in_process(monkeypatch):
    # 100 trees on 90 rows are 9,000 bag rows, under one process's share
    assert 100 * 90 < forest_mod._BAG_ROWS_PER_PROCESS
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    fit_random_forest(forest_matrix(), ForestParams(), 0)
    assert forks == []


def test_child_data_error_reaches_the_caller(pieces, monkeypatch):
    pieces(3)

    def fail():
        raise DataError("refused in a child")
    in_children(monkeypatch, fail)
    with pytest.raises(DataError, match="refused in a child"):
        rf_json()
    assert_no_children()


@pytest.mark.parametrize("how", ["sigkill", "other error"])
def test_child_without_result_has_its_piece_grown_here(pieces, monkeypatch, how):
    one = rf_json()
    counts = pieces(3)

    def kill():
        os.kill(os.getpid(), signal.SIGKILL)

    def lost():
        # not a GazeScreenError, so the child ends without sending it and
        # the caller grows the piece, meeting the error itself if it repeats
        raise RuntimeError("only in a child")
    in_children(monkeypatch, kill if how == "sigkill" else lost)
    assert rf_json() == one
    assert counts == [3]
    assert_no_children()


def test_caller_error_kills_and_reaps_the_children(pieces, monkeypatch):
    pieces(3)
    parent = os.getpid()
    grow = tree_mod.CartGrower.grow

    def patched(self, *args):
        if os.getpid() != parent:
            time.sleep(60)  # a child still running when the caller fails
            return grow(self, *args)
        raise DataError("refused in the caller")
    monkeypatch.setattr(tree_mod.CartGrower, "grow", patched)
    t0 = time.perf_counter()
    with pytest.raises(DataError, match="refused in the caller"):
        rf_json()
    assert time.perf_counter() - t0 < 30
    assert_no_children()


def test_results_larger_than_a_pipe_buffer_arrive_in_piece_order():
    # 64 KB fills a Linux pipe; each child's result is several times that
    results = forked.run_pieces(lambda i: bytes([i]) * 300_000, 3)
    assert results == [bytes([i]) * 300_000 for i in range(3)]
    assert_no_children()


def test_reaped_workers_peak_rss_is_kept(monkeypatch):
    monkeypatch.setattr(forked, "workers_peak_rss", 0)
    forked.run_pieces(lambda i: i, 2)
    assert forked.workers_peak_rss > 0
    assert pipeline._host()["workers_peak_rss_mb"] > 0


def test_pieces_run_here_when_fork_fails(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")
    monkeypatch.setattr(os, "fork", no_fork)
    callers = forked.run_pieces(lambda i: (i, os.getpid()), 3)
    assert callers == [(i, os.getpid()) for i in range(3)]


def test_worker_count_is_one_with_one_cpu_or_another_thread(monkeypatch):
    assert forked.worker_count() == forked.cpu_count() == len(os.sched_getaffinity(0))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert forked.worker_count() == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert forked.worker_count() == forked.cpu_count() == 1


def test_leftover_child_guard_sees_an_unreaped_child():
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    try:
        assert unreaped_child() is not None
    finally:
        # reaped by the guard's call once it had ended; reap it otherwise
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
    assert unreaped_child() is None
