"""The engine's two step loops: the compiled one (``rwre/_engine.c``) and
its reference, ``clocks._python_loop``.

Both must give the same trajectory, field for field, on any run; the
compiled loop is built once per process into the user's cache, and where
it cannot be built, or no cache directory is known, the Python loop runs
and writes the same outputs.
Inside the compiled loop, an exception a callback raises comes out
unchanged, a callback's malformed result raises before it is read, the
loop's own memory is freed on every exit, and a long walk stays
interruptible.  Both loops reject a malformed weight vector or clock block
with the same error, a short clock block excepted.
"""

import functools
import json
import operator
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from rwre import cli, clocks, streams
from rwre.clocks import StopRule, _simulate
from rwre.env import EnvSpec
from rwre.errors import RwreError
from rwre.experiments import MAX_STEPS_PER_WALK
from rwre.tree import ROOT

from conftest import assert_no_child_left, compiled_loop

SRC = Path(clocks.__file__).resolve().parents[1]
FIELDS = ("ids", "par", "dig", "dep", "dgs", "stop_reason", "truncated")
BRANCHING = (1, 2, 3, 4, 7, 9, 16, 255)
# gamma:0.05,1 draws weights down to about 1e-100; gamma:0.005,1 draws
# some that underflow to 0.0, whose clocks are inf
LAWS = ("lerrw:1.0", "lerrw:0.5", "lerrw:3.0", "gamma:0.05,1",
        "gamma:0.005,1", "gamma:0.5,2", "const:1.0", "const:0.2",
        "uniform:0,1", "lognormal:0,2")
CONFIGS_PER_LAW = 30


def _configs(kind: str):
    """Seeded random runs of one law: (spec, nu, stop, walk index), over
    every slot count, nu at the root or 1-3 levels down, step-only and
    level stops, and clock replicas 0, 1 and 5."""
    rng = random.Random(f"loops-{kind}")
    for _ in range(CONFIGS_PER_LAW):
        b = rng.choice(BRANCHING)
        nu = tuple(rng.randint(1, b) for _ in range(rng.randint(0, 3)))
        max_level = (None if rng.random() < 0.5
                     else rng.randint(max(1, len(nu)), len(nu) + 4))
        stop = StopRule(max_steps=rng.choice((1, 7, 120, 600)),
                        max_level=max_level)
        yield (EnvSpec(b=b, kind=kind, seed=rng.randrange(2 ** 64)), nu,
               stop, rng.choice((0, 1, 5)))


def _fields(run) -> tuple:
    return tuple(getattr(run, f) for f in FIELDS)


@pytest.fixture
def walk():
    """The compiled loop's ``walk``; skips the test on a host without a C
    compiler."""
    built = compiled_loop()
    if built is None:
        pytest.skip("no C compiler on this host")
    return built


@pytest.fixture
def fresh_loader(monkeypatch):
    """A loader that has not run in this process yet, and one that runs
    again, from the session's cache, after the test."""
    loader = clocks._compiled_loop
    loader.cache_clear()
    yield
    loader.cache_clear()


def _python_loop_only(monkeypatch):
    monkeypatch.setattr(clocks, "_compiled_loop", lambda: None)


@pytest.mark.parametrize("kind", LAWS)
def test_both_loops_give_the_same_trajectory(kind, monkeypatch, walk):
    zero_weights = []
    factory = clocks.make_weight_sampler

    def counting(spec):
        sampler = factory(spec)

        def sample(digest):
            w = sampler(digest)
            zero_weights.append(w.count(0.0))
            return w

        return sample

    monkeypatch.setattr(clocks, "make_weight_sampler", counting)
    configs = list(_configs(kind))
    compiled = [_fields(_simulate(*c)) for c in configs]
    _python_loop_only(monkeypatch)
    reasons = set()
    for config, got in zip(configs, compiled):
        want = _fields(_simulate(*config))
        for name, a, b in zip(FIELDS, got, want):
            assert a == b, (name, config)
        reasons.add((got[5], got[6]))
    assert {("level", False), ("steps", False)} <= reasons
    if kind == "gamma:0.005,1":
        assert sum(zero_weights) > 0


SENTINEL_THEN_CHILDREN = ([1, 0, 1, 2, 1, 3], [-1, 0, 1, 1], [0, 1, 1, 2],
                          [-1, 0, 1, 1], [b"s", b"r", b"c", b"c"])
# (slots, child weight, the lists after 5 steps, the callbacks' calls)
HANDED = [
    # every first clock is y: the root's race ties and goes up; the
    # sentinel steps back down; the root's parent sum is then 2y against y
    # below, so the walk goes down to child 1, whose own race ties and
    # goes up; the root's sums are then 2y, 2y, y, so it goes to child 2
    (3, 1.0, SENTINEL_THEN_CHILDREN,
     [("sampler", ()), ("init", (0,)), ("advance", (0, 0)), ("child", ()),
      ("sampler", ()), ("init", (0,)), ("advance", (1, 0)), ("child", ())]),
    # the same walk at ten slots: each race hashes k = 0 blocks 0 and 1,
    # in that order, each once
    (10, 1.0, SENTINEL_THEN_CHILDREN,
     [("sampler", ()), ("init", (0,)), ("init", (1,)), ("advance", (0, 0)),
      ("child", ()), ("sampler", ()), ("init", (0,)), ("init", (1,)),
      ("advance", (1, 0)), ("child", ())]),
    # children at rate 2.0 sum y / 2 against the parent's y: the children
    # tie, so every race goes down to child 1
    (10, 2.0, ([1, 2, 3, 4, 5, 6], [-1, 0, 1, 2, 3, 4, 5], [0] + [1] * 6,
               [-1, 0, 1, 2, 3, 4, 5], [b"s", b"r"] + [b"c"] * 5),
     [("sampler", ()), ("init", (0,)), ("init", (1,)), ("child", ())] * 5),
]


def test_the_compiled_loop_takes_the_callables_it_is_handed(walk):
    # the loop reads no hash or weight of its own: with one block word in
    # every lane and equal child weights, every race ends in a tie, among
    # all its slots or among the children, and ties go to the smaller slot
    words = (2 ** 63,) * 8

    def run(loop, n_slots, weight):
        calls = []

        def record(name, value):
            return lambda *args: calls.append((name, args[2:])) or value

        lists = ([1], [-1, 0], [0, 1], [-1, 0], [b"s", b"r"])
        reached = loop(*lists, n_slots, 1, 5, -2, b"w8",
                       record("sampler", (weight,) * (n_slots - 1)),
                       record("init", words), record("advance", words),
                       record("child", b"c"))
        return reached, lists, calls

    for n_slots, weight, lists, calls in HANDED:
        compiled = run(walk, n_slots, weight)
        assert compiled == (False, lists, calls), (n_slots, weight)
        # the Python loop makes the same calls, call for call, and the
        # same lists
        assert run(clocks._python_loop, n_slots, weight) == compiled


def _clt(tmp_path: Path, name: str) -> dict:
    """The outputs of one small ``rwre clt`` run, timestamp aside."""
    cfg = tmp_path / "clt.ini"
    cfg.write_text("[env]\nkind = lerrw:1.0\n"
                   "[clt]\nwalks = 100\nn_steps = 50\nspeed_gaps = 16\n")
    out = tmp_path / name
    rc = cli.main(["clt", "--config", str(cfg), "--out", str(out),
                   "--seed", "3"])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    report = json.loads(files["clt_report.json"])
    report.pop("timestamp")
    files["clt_report.json"] = report
    return {"rc": rc, **files}


def _source_tree() -> dict:
    return {p: p.stat().st_mtime_ns for p in SRC.rglob("*")
            if "__pycache__" not in p.parts}


def test_a_failed_build_runs_the_python_loop(tmp_path, monkeypatch,
                                             fresh_loader):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    compiler = clocks._compiler
    tried = []
    monkeypatch.setattr(clocks, "_compiler", lambda: tried.append(1) or
                        [str(tmp_path / "no-such-cc")])
    before = _source_tree()
    fallback = _clt(tmp_path, "fallback")
    # one attempt for the whole command, which ran many walks
    assert tried == [1]
    assert clocks._compiled_loop() is None and tried == [1]
    assert not list((tmp_path / "cache" / "rwre").iterdir())

    monkeypatch.setattr(clocks, "_compiler", compiler)
    clocks._compiled_loop.cache_clear()
    if compiled_loop() is None:
        pytest.skip("no C compiler on this host")
    assert _clt(tmp_path, "compiled") == fallback
    assert _source_tree() == before
    built, = (tmp_path / "cache" / "rwre").iterdir()
    assert built.name.startswith("_engine-")


def test_the_build_is_cached_in_the_user_cache(tmp_path, monkeypatch,
                                               fresh_loader):
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setenv("HOME", str(tmp_path))
    if compiled_loop() is None:
        pytest.skip("no C compiler on this host")
    built, = (tmp_path / ".cache" / "rwre").iterdir()
    assert built.name.startswith("_engine-")
    # a warm cache is loaded, not built again
    clocks._compiled_loop.cache_clear()

    def no_build():
        raise AssertionError("the cached build was compiled again")

    monkeypatch.setattr(clocks, "_compiler", no_build)
    assert clocks._compiled_loop() is not None


def test_a_host_with_no_home_runs_the_python_loop(monkeypatch, fresh_loader):
    # With HOME unset and no passwd entry for the uid, Path.home raises;
    # without XDG_CACHE_HOME there is then no cache to build into
    def no_home():
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.setattr(Path, "home", no_home)
    stop = StopRule(max_steps=500)
    assert clocks._compiled_loop() is None
    ids = _simulate(SPEC, ROOT, stop).ids
    _python_loop_only(monkeypatch)
    assert ids == _simulate(SPEC, ROOT, stop).ids


def test_a_build_that_does_not_load_runs_the_python_loop(tmp_path, monkeypatch,
                                                       walk, fresh_loader):
    # A file at the built name that is no extension fails to load: the
    # loader returns None, compiles nothing and leaves the file as it is.
    # It is moved onto the name, not written in place, because this process
    # has mapped the real build; a fresh process runs the loader.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    assert clocks._compiled_loop() is not None
    built, = (tmp_path / "cache" / "rwre").iterdir()
    junk = tmp_path / "junk"
    junk.write_bytes(b"not an extension\n")
    os.replace(junk, built)
    code = ("import json; from rwre import clocks; "
            "from rwre.clocks import StopRule, _simulate; "
            "from rwre.env import EnvSpec; "
            "clocks._compiler = lambda: 1 / 0; "
            "loaded = clocks._compiled_loop() is not None; "
            "run = _simulate(EnvSpec(b=4, kind='lerrw:1.0', seed=3), (), "
            "StopRule(max_steps=500)); "
            "print(json.dumps([loaded, run.ids]))")
    got = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=300)
    assert got.returncode == 0, got.stderr
    loaded, ids = json.loads(got.stdout)
    assert not loaded
    assert built.read_bytes() == b"not an extension\n"
    assert [p.name for p in built.parent.iterdir()] == [built.name]
    _python_loop_only(monkeypatch)
    assert ids == _simulate(SPEC, ROOT, StopRule(max_steps=500)).ids


def test_two_processes_build_a_cold_cache_at_once(tmp_path, monkeypatch,
                                                  two_cpus, walk,
                                                  fresh_loader):
    # keyed_map forks its worker before either process has run a walk, so
    # both find the cache cold; each waits at its compiler lookup until
    # the other has reached it too, so the two compiles overlap.  Each
    # compiles to a name of its own and renames it into place.
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    arrived = tmp_path / "arrived"
    arrived.mkdir()
    compiler = clocks._compiler

    def meet_then_compile():
        (arrived / str(os.getpid())).touch()
        deadline = time.monotonic() + 60
        while len(list(arrived.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        return compiler()

    monkeypatch.setattr(clocks, "_compiler", meet_then_compile)
    spec = EnvSpec(b=4, kind="lerrw:1.0", seed=5)

    def trial(t):
        run = _simulate(spec, ROOT, StopRule(max_steps=200), t)
        return os.getpid(), clocks._compiled_loop() is not None, run.ids

    got = streams.keyed_map(trial, 2, threads=2)
    assert_no_child_left()
    assert len({pid for pid, _, _ in got}) == 2
    assert all(loaded for _, loaded, _ in got)
    assert len(list(arrived.iterdir())) == 2
    built, = (tmp_path / "cache" / "rwre").iterdir()
    assert built.name.startswith("_engine-")
    _python_loop_only(monkeypatch)
    assert [ids for _, _, ids in got] == [
        _simulate(spec, ROOT, StopRule(max_steps=200), t).ids for t in (0, 1)]


def _failing_child_digest(after: int):
    """``streams.child_digest`` that raises on its call ``after + 1``."""
    real = streams.child_digest
    calls = []

    def child_digest(digest, i):
        calls.append(i)
        if len(calls) > after:
            raise RwreError(f"no digest after {after}")
        return real(digest, i)

    return child_digest


SPEC = EnvSpec(b=4, kind="lerrw:1.0", seed=3)


def test_a_callback_error_comes_out_unchanged(monkeypatch, walk):
    with monkeypatch.context() as patch:
        patch.setattr(streams, "child_digest", _failing_child_digest(50))
        with pytest.raises(RwreError, match="^no digest after 50$"):
            _simulate(SPEC, ROOT, StopRule(max_steps=4000))

    def failing_factory(spec):
        def sampler(digest):
            raise RwreError("no weights here")

        return sampler

    monkeypatch.setattr(clocks, "make_weight_sampler", failing_factory)
    with pytest.raises(RwreError, match="^no weights here$"):
        _simulate(SPEC, (2,), StopRule(max_steps=4000))


def test_a_failing_run_frees_its_state(walk):
    # 1,000 runs that each fail after 30 fresh vertices leave tracemalloc
    # where it was: under a byte per run, where one leaked race record
    # would be over two hundred

    real = streams.child_digest

    def fail_once():
        # no pytest.raises: its own objects outlive each call
        streams.child_digest = _failing_child_digest(30)
        try:
            _simulate(SPEC, ROOT, StopRule(max_steps=4000))
        except RwreError:
            pass
        else:
            raise AssertionError("the run did not fail")
        finally:
            streams.child_digest = real

    for _ in range(3):
        fail_once()
    tracemalloc.start()
    try:
        for _ in range(3):
            fail_once()
        baseline = tracemalloc.get_traced_memory()[0]
        for _ in range(1000):
            fail_once()
        grown = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert grown < 1000, grown


def _sampler_of(weights):
    return lambda spec: lambda digest: weights


# A short block is rejected by the compiled loop only: the Python loop
# reads only the lanes a race uses, and ``streams`` always returns eight
# words (``test_uniforms_from_is_deterministic_and_open_interval``), so the
# two loops differ only on a block that no run is given.
COMPILED_ONLY = ("compiled",)
BOTH = ("compiled", "python")


@pytest.mark.parametrize("patch, error, loops", [
    (("streams", "clock_init_block", lambda d, w8, m: (1,) * 7), ValueError,
     COMPILED_ONLY),
    (("streams", "clock_advance_block", lambda d, w8, j, m: (1,) * 7),
     ValueError, COMPILED_ONLY),
    (("streams", "clock_init_block", lambda d, w8, m: ("1",) * 8), TypeError,
     BOTH),
    (("streams", "clock_init_block", lambda d, w8, m: None), TypeError, BOTH),
    (("clocks", "make_weight_sampler", _sampler_of((1.0,) * 3)), ValueError,
     BOTH),
    (("clocks", "make_weight_sampler", _sampler_of((1.0,) * 5)), ValueError,
     BOTH),
    (("clocks", "make_weight_sampler", _sampler_of(("1",) * 4)), TypeError,
     BOTH),
], ids=["init-7-words", "advance-7-words", "init-str-words", "init-none",
        "sampler-b-1", "sampler-b+1", "sampler-str"])
def test_a_malformed_callback_result_raises(monkeypatch, both_loops, patch,
                                            error, loops):
    module, name, value = patch
    monkeypatch.setattr({"streams": streams, "clocks": clocks}[module],
                        name, value)
    ran = []
    for loop in both_loops:
        if loop in loops:
            with pytest.raises(error):
                _simulate(SPEC, ROOT, StopRule(max_steps=4000))
            ran.append(loop)
    if not ran:
        pytest.skip("no C compiler on this host")


def _constant(value):
    """A callable written in C, running no Python code, that returns
    ``value`` whatever it is called with: the argument that is ``value``
    is the maximum under ``key=is value``."""
    return functools.partial(max, value,
                             key=functools.partial(operator.is_, value))


def test_a_long_walk_can_be_interrupted(walk):
    # At b = 255 with tiny weights the walk steps between the root and the
    # sentinel for all MAX_STEPS_PER_WALK steps, about half a second.
    # Every callback is written in C, so no Python code runs until the
    # loop itself checks for signals, every 4,096 steps.
    words = (2 ** 63,) * 8

    class Interrupted(Exception):
        pass

    def interrupt(signum, frame):
        raise Interrupted

    ids = [1]
    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, 0.02)
    try:
        with pytest.raises(Interrupted):
            walk(ids, [-1, 0], [0, 1], [-1, 0], [bytes(16)] * 2, 256, 1,
                 MAX_STEPS_PER_WALK, -2, bytes(8),
                 _constant((1e-300,) * 255), _constant(words),
                 _constant(words), _constant(bytes(16)))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    steps = len(ids) - 1
    assert 0 < steps < MAX_STEPS_PER_WALK
    assert steps % 4096 == 0
    assert set(ids) == {0, 1}
