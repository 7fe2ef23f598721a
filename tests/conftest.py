import os
import shutil
import signal
from contextlib import contextmanager

import pytest

from rwre import clocks


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled step loop into a cache of this session's own, not
    the user's; subprocesses the tests start inherit it."""
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
    clocks._compiled_loop.cache_clear()
    yield
    clocks._compiled_loop.cache_clear()
    patch.undo()


def compiled_loop():
    """The compiled step loop, or None on a host without a C compiler.  A
    host with one must build it, so a broken build fails the test instead
    of passing on the Python loop alone."""
    walk = clocks._compiled_loop()
    if walk is None and shutil.which(clocks._compiler()[0]):
        pytest.fail("a C compiler is on this host, "
                    "but the compiled step loop did not build")
    return walk


@pytest.fixture
def both_loops(monkeypatch):
    """The engine's two step loops, to iterate over: the body of
    ``for loop in both_loops:`` runs under the compiled loop, then under
    ``clocks._python_loop``, forced by patching the private loader.  On a
    host without a C compiler only the Python loop runs."""
    def each():
        if compiled_loop() is not None:
            yield "compiled"
        monkeypatch.setattr(clocks, "_compiled_loop", lambda: None)
        yield "python"

    return each()


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
