"""Time how fast the host runs while a workload iteration runs.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 1.5x within a second and in spells that last minutes; a fixed
workload iteration then takes anywhere between 2.5 and 4.5 s. While an
iteration runs, a timer interrupts it every PERIOD_S seconds and times a
fixed tick: a plain Python loop of about 2 ms. The tick slows down with the
host, so an iteration's wall time (less the ticks) divided by the median
tick of that iteration stays steady, while a change to the program still
moves it. One tick is also timed just before and just after the iteration,
so that every iteration has at least two.

The timer is SIGALRM from setitimer: no thread is started. Python runs the
handler between bytecodes, so a tick that falls in a long C call (a BLAS
product, say) runs when that call returns.
"""
from __future__ import annotations

import contextlib
import signal
import time

PERIOD_S = 0.05
TICK_LOOPS = 20_000


def tick():
    """(start, seconds) of the fixed tick, timed now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(TICK_LOOPS):
        s += i * i % 7
    return t0, time.perf_counter() - t0


@contextlib.contextmanager
def sampled(ticks):
    """Append to `ticks` the (start, seconds) of each tick taken while the
    block runs, and of one just before and one just after it."""
    def on_alarm(signum, frame):
        ticks.append(tick())

    ticks.append(tick())
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
        ticks.append(tick())
