import os

import pytest


@pytest.fixture
def two_cpus(monkeypatch):
    """Pin the CPU set ``streams.keyed_map`` sizes its pool by to two, so a
    call with ``threads=2`` forks exactly one worker on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
