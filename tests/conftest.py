import os
import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def two_cpus(monkeypatch):
    """Pin the CPU set that ``streams.keyed_map`` counts when it splits the
    trials to two, so a call with ``threads=2`` forks exactly one worker on
    any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def assert_no_child_left():
    """This process has no child, running or unreaped.  A child left by
    a bare ``os.fork`` is invisible to ``multiprocessing.active_children``."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def time_limit(seconds: int):
    """Raise ``TimeoutError`` in this process once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
