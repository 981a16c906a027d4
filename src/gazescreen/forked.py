"""Run the pieces of one long call on the CPUs this process may use.

`run_pieces(fn, k)` runs piece 0 in the calling process and pieces
1..k-1 in forked children, and returns the k results in piece order. A
child shares the caller's memory copy-on-write, so `fn` may read anything
the caller built; it pickles its result, or the `GazeScreenError` it
raised, into a pipe and ends with `os._exit`, never returning into the
caller's frames (whose cleanup would run twice). A child that ends
without a result (killed by a signal or out of memory, or after an error
other than a GazeScreenError, which it does not send) has its piece run
again in the calling process, which then meets that error itself.

The children are forked, not spawned: a spawned one would import numpy
and rebuild what the caller built before doing any work. A fork costs
10-20 ms on a 2-core Xeon, so only a call that runs far longer gains; the
caller decides how many pieces pay. OpenBLAS's own threads are not Python
threads; the library stops them around a fork.
"""
from __future__ import annotations

import contextlib
import os
import pickle
import signal
import threading

from .errors import GazeScreenError


def cpu_count():
    """CPUs in this process's affinity mask (`taskset -c 0` gives 1), or
    None where the platform has no affinity mask."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    return len(os.sched_getaffinity(0))


def worker_count():
    """Processes a split may use: `cpu_count()`, or 1 where this process
    cannot fork or another Python thread runs (a fork copies only the
    calling thread, and a lock another thread holds stays held in the
    child)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return cpu_count() or 1


def run_pieces(fn, k):
    """[fn(0), ..., fn(k - 1)], pieces 1..k-1 each in a forked child.

    Every child is reaped before this returns or raises. A child's
    GazeScreenError is raised here with its class; if piece 0 raises, the
    children are killed first."""
    children = {}  # piece -> (pid, read end, or None once closed)
    try:
        for i in range(1, k):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the rest run here
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                os.close(r)
                _serve(fn, i, w)
            # closed before the next fork, so that child i alone holds it and
            # its exit ends the parent's read
            os.close(w)
            children[i] = (pid, r)
        results = [fn(0)]
        for i in range(1, k):
            if i not in children:
                results.append(fn(i))
                continue
            pid, r = children[i]
            # read to EOF before reaping: a result larger than the pipe's
            # buffer blocks the child until it is read
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            children[i] = (pid, None)
            os.close(r)
            status = os.waitpid(pid, 0)[1]
            del children[i]
            if os.waitstatus_to_exitcode(status) != 0:
                results.append(fn(i))
                continue
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, r in children.values():
            if r is not None:
                os.close(r)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn, i, w):
    """In a forked child: write piece i's pickled (ok, result or error) to
    the pipe's write end w and end the process, with status 0 only when
    the whole outcome was written."""
    status = 1
    try:
        try:
            outcome = (True, fn(i))
        except GazeScreenError as e:
            outcome = (False, e)
        with open(w, "wb") as fh:
            pickle.dump(outcome, fh, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
