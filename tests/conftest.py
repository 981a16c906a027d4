"""Collects the acceptance-gate verdict lines and replays them after the
run summary, so every gate shows one [PASS]/[FAIL] line regardless of
output capturing; and fails any test that leaves a child process
unreaped."""
import os

import pytest

_gate_lines = []


def record_gate(line):
    _gate_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _gate_lines:
        terminalreporter.section("acceptance gates")
        for line in _gate_lines:
            terminalreporter.line(line)


def unreaped_child():
    """None when this process has no child process; otherwise a note on
    one it has, running or ended but not reaped (an ended one is reaped
    by asking)."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return None
    return f"pid {pid}, status {status}" if pid else "a child is still running"


@pytest.fixture(autouse=True)
def no_leftover_child_processes():
    yield
    left = unreaped_child()
    if left is not None:
        pytest.fail(f"the test left a child process unreaped: {left}")
