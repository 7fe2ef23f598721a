"""Every hash block is drawn through the ``streams`` primitives.

The counts below are taken through the module attributes the engine, the
samplers and the truncation ladder look up, the same bindings an outside
tracer wraps.  A code path that hashes a block without going through
``uniforms_from``, or reads a clock block without ``clock_init_block`` or
``clock_advance_block``, breaks one of the identities.

The last tests guard the benchmark's traced run, which holds every pass
to the counts of its first: a sampler built before a wrapper is installed
still hashes through it, and a first traced run in a fresh interpreter is
correct on every workload.
"""

import json
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

from rwre import clocks, quenched, streams, walk
from rwre.clocks import StopRule, run_extension
from rwre.env import EnvSpec, make_weight_sampler
from rwre.tree import ROOT
from rwre.walk import run_walk

B = 4
ROOT_DIR = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT_DIR / "BENCHMARK.json").read_text())["workloads"]]


class _Counts:
    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.in_sampler = False
        for name in ("uniforms_from", "clock_init_block",
                     "clock_advance_block", "child_digest", "child_digests"):
            monkeypatch.setattr(streams, name, self._counted(name, getattr(streams, name)))
        for mod in (clocks, quenched):
            monkeypatch.setattr(mod, "make_weight_sampler",
                                self._sampler_factory(mod.make_weight_sampler))

    def _counted(self, name, fn):
        def wrapper(*args):
            self.calls[name] += 1
            if name == "uniforms_from" and self.in_sampler:
                self.calls["sampler_blocks"] += 1
            return fn(*args)

        return wrapper

    def _sampler_factory(self, factory):
        def make(spec):
            sampler = factory(spec)

            def counted(digest):
                self.calls["sampler"] += 1
                self.in_sampler = True
                try:
                    return sampler(digest)
                finally:
                    self.in_sampler = False

            return counted

        return make

    def assert_blocks_balance(self):
        c = self.calls
        assert c["uniforms_from"] == (c["clock_init_block"] + c["clock_advance_block"]
                                      + c["sampler_blocks"])


def _departures(run) -> dict:
    """Slots each vertex id was left through, in step order."""
    out = defaultdict(list)
    lv = run.levels
    for t in range(1, len(run.ids)):
        a, c = run.ids[t - 1], run.ids[t]
        out[a].append(run.dig[c] if lv[t] > lv[t - 1] else 0)
    return out


def _advance_blocks(departures) -> int:
    """Advance blocks a run must read: ceil(K' / 8) for each (vertex, slot),
    K' counting the jumps along the slot that another race at the vertex
    follows.  A jump's next clock is drawn only when the walk races there
    again, so each vertex's last jump draws none."""
    jumps = Counter()
    for v, slots in departures.items():
        for j in slots[:-1]:
            jumps[(v, j)] += 1
    return sum((k + 7) // 8 for k in jumps.values())


@pytest.mark.parametrize("kind, subtree", [
    ("lerrw:1.0", ROOT),
    ("lerrw:0.5", (1,)),
])
def test_engine_draws_every_block_through_the_primitives(monkeypatch, kind, subtree):
    counts = _Counts(monkeypatch)
    spec = EnvSpec(b=B, kind=kind, seed=21)
    if subtree == ROOT:
        run = run_walk(spec, StopRule(max_steps=3000))
    else:
        run = run_extension(spec, subtree, StopRule(max_steps=3000))
    c = counts.calls
    assert run.steps_taken == 3000
    counts.assert_blocks_balance()
    assert c["child_digest"] == len(run.fresh) - 1
    departures = _departures(run)
    # vertex 0, the anchor (nu's parent or the sentinel), has one open slot,
    # toward nu, vertex 1, so the walk leaves it without a race: no weights
    # and no clocks there
    assert set(departures.pop(0)) == {run.dig[1]}
    # b + 1 <= 8 slots: one k = 0 block and one weight draw per raced vertex
    assert c["clock_init_block"] == c["sampler"] == len(departures) > 0
    assert c["clock_advance_block"] == _advance_blocks(departures) > 0
    if kind == "lerrw:1.0":
        # one exponential and b normals: nine uniforms, two blocks
        assert c["sampler_blocks"] == 2 * c["sampler"]
    else:
        assert c["sampler_blocks"] >= 2 * c["sampler"]


def test_ladder_draws_every_block_through_the_primitives(monkeypatch):
    counts = _Counts(monkeypatch)
    spec = EnvSpec(b=B, kind="lerrw:1.0", seed=22)
    ladder = quenched._truncation_ladder(spec)
    for _ in range(4):
        next(ladder)
    nodes = (B ** 4 - 1) // (B - 1)
    c = counts.calls
    counts.assert_blocks_balance()
    assert c["sampler"] == nodes
    # each parent is hashed once, for all B of its children
    assert c["child_digests"] * B == nodes - 1
    assert c["child_digest"] == 0
    assert c["sampler_blocks"] == 2 * nodes
    assert c["clock_init_block"] == c["clock_advance_block"] == 0


def test_benchmark_tracer_identities_hold(monkeypatch):
    # The benchmark's tracer checks from outside that every hash block,
    # engine step and child digest went through a binding it wraps, and
    # that child digests number the fresh vertices less one anchor or root
    # per run.  It rebinds module attributes, so the entry points are
    # called through them.
    monkeypatch.syspath_prepend(str(ROOT_DIR / "bench"))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        spec = EnvSpec(b=B, kind="lerrw:1.0", seed=23)
        walk.run_walk(spec, clocks.StopRule(max_steps=2000))
        clocks.run_extension(spec, (2, 1), clocks.StopRule(max_steps=2000))
        clocks.independence_check(spec, (1,), (2,), trials=100, threads=1)
    finally:
        tracer.uninstall()
    assert tracer.engine_runs == 2 + 2 * 100
    assert tracer.identity_failures() == []


def test_benchmark_tracer_survives_worker_processes(monkeypatch, two_cpus):
    # A forked worker inherits the tracer's rebound names, but what they
    # count stays in the worker's memory: the tracer sees only the
    # parent's chunk, and its identities still hold there.
    monkeypatch.syspath_prepend(str(ROOT_DIR / "bench"))
    from tracer import Tracer

    spec = EnvSpec(b=B, kind="lerrw:1.0", seed=23)
    want = clocks.independence_check(spec, (1,), (2,), trials=100, threads=1)
    tracer = Tracer()
    tracer.install()
    try:
        got = clocks.independence_check(spec, (1,), (2,), trials=100,
                                        threads=2)
    finally:
        tracer.uninstall()
    assert got.table.tobytes() == want.table.tobytes()
    assert tracer.engine_runs == 2 * 50
    assert tracer.identity_failures() == []


@pytest.mark.parametrize("kind", ["lerrw:0.5", "lerrw:2.0", "gamma:0.5,2",
                                  "gamma:2,0.5", "lerrw:1.0",
                                  "lognormal:0,0.5", "uniform:0.5,1.5"])
def test_a_sampler_built_before_a_wrapper_reports_through_it(monkeypatch,
                                                             kind):
    # Samplers are built once per law and shared, so a tracer may wrap
    # uniforms_from after the sampler it counts was built; the sampler
    # must find the wrapper when it is called.
    spec = EnvSpec(b=B, kind=kind, seed=24)
    sampler = make_weight_sampler(spec)
    digests = [streams.root_digest(s) for s in range(50)]
    want = [sampler(d) for d in digests]
    blocks = []
    hash_block = streams.uniforms_from
    monkeypatch.setattr(streams, "uniforms_from",
                        lambda msg: blocks.append(msg) or hash_block(msg))
    assert [sampler(d) for d in digests] == want
    # each digest's weight blocks 0, 1, .. in order, each hashed once
    at = 0
    for d in digests:
        n = 0
        while at < len(blocks) and blocks[at][:16] == d:
            assert blocks[at] == d + b"W" + n.to_bytes(4, "little")
            at += 1
            n += 1
        assert n >= 1
    assert at == len(blocks)


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_first_traced_run_is_correct(name):
    # The benchmark's traced run compares the counts of every traced pass
    # with those of its first, so work done only on a process's first run
    # of a law (a cache filled through a traced function) makes it
    # incorrect.  Each run gets a fresh interpreter: in one shared with
    # an earlier run, the first pass finds every cache already filled.
    code = ("import json, sys; sys.path.insert(0, 'bench'); "
            "from run import execute; "
            f"result, info = execute({name!r}, seed=1, seconds=0, "
            "trace=True, tiny=True); "
            "print(json.dumps([result['correct'], result['failed'], "
            "[line for line in info if list(line) == ['errors']]]))")
    got = subprocess.run([sys.executable, "-c", code], cwd=ROOT_DIR,
                         capture_output=True, text=True, timeout=300)
    assert got.returncode == 0, got.stderr
    correct, failed, errors = json.loads(got.stdout.strip().splitlines()[-1])
    assert correct and not failed, errors
