"""Deterministic stream tests.

Distribution oracles are scipy's exact moments; sampling tolerances are
set to several standard errors at the pinned sample sizes, and every draw
is reproducible by construction, so these never flake.
"""

import ast
import hashlib
import math
import os
import random
import struct
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as st

from rwre import streams
from rwre.env import EnvSpec, _weight_sampler, make_weight_sampler
from rwre.errors import (ConfigError, DataQualityError, InvalidInputError,
                         RwreError)

from conftest import assert_no_child_left, time_limit


class TestDigests:
    def test_root_digest_depends_on_seed(self):
        assert streams.root_digest(1) != streams.root_digest(2)
        assert streams.root_digest(7) == streams.root_digest(7)

    def test_child_digest_chain_matches_vertex_digest(self):
        d = streams.root_digest(9)
        assert streams.child_digest(d, 2) == streams.vertex_digest(9, (2,))
        d2 = streams.child_digest(streams.child_digest(d, 1), 3)
        assert d2 == streams.vertex_digest(9, (1, 3))

    def test_digest_length_is_stable(self):
        assert len(streams.root_digest(0)) == len(streams.vertex_digest(0, (1, 1)))

    def test_derive_seed_separates_tags_and_indices(self):
        s = streams.derive_seed(5, b"a", 0)
        assert s != streams.derive_seed(5, b"a", 1)
        assert s != streams.derive_seed(5, b"b", 0)
        assert s == streams.derive_seed(5, b"a", 0)

    def test_walk_token_is_eight_bytes_and_injective_on_small_ints(self):
        tokens = {streams.walk_token(i) for i in range(64)}
        assert len(tokens) == 64
        assert all(len(t) == 8 for t in tokens)


def _one_shot(msg, k: int) -> bytes:
    return hashlib.blake2b(msg, digest_size=k).digest()


def _le(i: int, n: int) -> bytes:
    return i.to_bytes(n, "little")


def _one_shot_cases():
    """(call, expected) pairs for every hashing primitive, each expected
    value a one-shot hash of the message the module docstring gives."""
    cases = []
    for seed in (0, 1, 7, 2 ** 63 + 5, 2 ** 64 - 1):
        s8 = _le(seed, 8)
        root = _one_shot(b"v" + s8, 16)
        cases.append((partial(streams.root_digest, seed), root))
        for tag in (b"", b"T", b"beta-env"):
            for index in (0, 1, 255, 2 ** 40):
                msg = b"T" + s8 + tag + _le(index, 8)
                cases.append((partial(streams.derive_seed, seed, tag, index),
                              struct.unpack("<Q", _one_shot(msg, 8))[0]))
        for stream in (b"s", b"m"):
            for index in (0, 3, 2 ** 33):
                cases.append((partial(streams.sample_digest, seed, stream, index),
                              _one_shot(stream + s8 + _le(index, 8), 16)))
        for path in ((), (1,), (4, 2, 3), (255,) * 5):
            d = root
            for i in path:
                d = _one_shot(d + bytes([i]), 16)
            cases.append((partial(streams.vertex_digest, seed, path), d))
            for i in (1, 2, 255):
                cases.append((partial(streams.child_digest, d, i),
                              _one_shot(d + bytes([i]), 16)))
            w8 = streams.walk_token(len(path))
            for block in (0, 1, 4095, 4096, 2 ** 32 - 1):
                init = d + b"C" + w8 + _le(block, 4)
                cases.append((partial(streams.clock_init_block, d, w8, block),
                              struct.unpack("<8Q", _one_shot(init, 64))))
                for slot in (0, 1, 5, 255):
                    adv = d + b"c" + w8 + bytes([slot]) + _le(block, 4)
                    cases.append((partial(streams.clock_advance_block, d, w8,
                                          slot, block),
                                  struct.unpack("<8Q", _one_shot(adv, 64))))
    for msg in (b"", b"x", bytes(range(129)), bytes(3000)):
        cases.append((partial(streams.uniforms_from, msg),
                      struct.unpack("<8Q", _one_shot(msg, 64))))
    return cases


class TestOneShotEquality:
    """Each primitive hashes from a copy of a prebuilt state; the bytes are
    those of a one-shot ``hashlib.blake2b`` over the documented message."""

    def test_every_primitive_equals_its_one_shot_hash_in_any_order(self):
        cases = _one_shot_cases()
        shuffled = cases[:]
        random.Random(5).shuffle(shuffled)
        # the same calls in three orders: no prebuilt state is mutated
        for order in (cases, cases[::-1], shuffled):
            for call, want in order:
                assert call() == want

    @pytest.mark.parametrize("b", [1, 4, 255])
    def test_child_digests_are_the_child_digests_in_order(self, b):
        for seed in (0, 3, 2 ** 64 - 1):
            d = streams.vertex_digest(seed, (2, 1))
            want = [streams.child_digest(d, i) for i in range(1, b + 1)]
            assert want == [_one_shot(d + bytes([i]), 16)
                            for i in range(1, b + 1)]
            # the ladder passes 16-byte slices of a bytearray
            level = bytearray(16) + bytearray(d)
            assert streams.child_digests(d, b) == want
            assert streams.child_digests(level[16:32], b) == want
            # interleaved with the one-child primitive, from either side
            assert [streams.child_digest(d, b)] + streams.child_digests(d, b) \
                == [want[-1]] + want
            assert streams.child_digests(want[0], b)[0] \
                == streams.child_digest(want[0], 1)


def test_only_streams_names_blake2b():
    # every keyed digest and block is hashed in streams; cli's sha256
    # config hash is not one of them
    namers = set()
    for path in Path(streams.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None),
                     getattr(node, "value", None))
            if "blake2b" in names:
                namers.add(path.name)
    assert namers == {"streams.py"}


def _lane_uniforms(words):
    return [(w >> 11) * streams.TWO53 + streams.TWO54 for w in words]


def _weight_block(d: bytes, m: int):
    """The words of weight block ``m`` of the vertex with digest ``d``."""
    return streams.uniforms_from(d + b"W" + m.to_bytes(4, "little"))


def _digests(label: bytes, n: int):
    return [streams.root_digest(streams.derive_seed(0, label, i)) for i in range(n)]


class TestUniformBlocks:
    def test_uniforms_from_is_deterministic_and_open_interval(self):
        w = streams.uniforms_from(b"block-test")
        assert w == streams.uniforms_from(b"block-test")
        assert len(w) == 8
        assert all(isinstance(x, int) and 0 <= x < 2 ** 64 for x in w)
        assert all(0.0 < u < 1.0 for u in _lane_uniforms(w))
        # the map never reaches zero; only the top 2**11 words round to one
        low, below_top, top = _lane_uniforms([0, 2 ** 64 - 2 ** 11 - 1, 2 ** 64 - 2 ** 11])
        assert (low, top) == (2.0 ** -54, 1.0)
        assert below_top < 1.0

    def test_weight_and_clock_blocks_are_distinct_streams(self):
        d = streams.root_digest(3)
        w8 = streams.walk_token(0)
        assert _weight_block(d, 0) != streams.clock_init_block(d, w8, 0)
        assert (streams.clock_init_block(d, w8, 0)
                != streams.clock_advance_block(d, w8, 0, 0))

    def test_weight_stream_reads_the_weight_blocks_in_order(self):
        # uniform:0,1 maps lane i of the flat weight stream to child i's
        # weight unchanged: lanes 0-7 from block 0, then 8-15 from block 1
        d = streams.root_digest(3)
        sampler = make_weight_sampler(EnvSpec(b=16, kind="uniform:0,1", seed=0))
        assert sampler(d) == tuple(_lane_uniforms(_weight_block(d, 0)
                                                  + _weight_block(d, 1)))
        assert _weight_block(d, 1) != _weight_block(d, 0)

    def test_clock_blocks_differ_across_walk_tokens(self):
        d = streams.root_digest(3)
        a = streams.clock_init_block(d, streams.walk_token(0), 0)
        b = streams.clock_init_block(d, streams.walk_token(1), 0)
        assert a != b


def _clock_uniforms(d, w8):
    init = streams.clock_init_block(d, w8, 0)
    for slot in (0, 1):
        advance = (streams.clock_advance_block(d, w8, slot, 0)
                   + streams.clock_advance_block(d, w8, slot, 1))
        yield from _lane_uniforms((init[slot],) + advance[:9])


class TestUniformStream:
    """Draws read off the flat weight streams and the clock blocks."""

    def test_reproducible(self):
        d = streams.root_digest(11)
        assert _weight_block(d, 2) == _weight_block(d, 2)
        # gamma shapes 1.125 (Z_0) and 0.625 (Z_1, Z_2, boosted); the
        # second sampler is built afresh, past the cache
        sample = make_weight_sampler(EnvSpec(b=2, kind="lerrw:0.8", seed=0))
        fresh = _weight_sampler.__wrapped__(2, "lerrw:0.8")
        assert sample(d) == sample(d) == fresh(d)

    def test_uniform_moments(self):
        x = np.array([u for d in _digests(b"u", 2500)
                      for u in _lane_uniforms(_weight_block(d, 0))])
        assert x.mean() == pytest.approx(0.5, abs=0.011)
        assert x.var() == pytest.approx(1.0 / 12.0, abs=0.004)

    def test_normal_moments(self):
        # the lognormal law's log-weights are its Box-Muller normals
        sampler = make_weight_sampler(EnvSpec(b=8, kind="lognormal:0,1", seed=2))
        x = np.log([w for d in _digests(b"n", 2500) for w in sampler(d)])
        assert x.mean() == pytest.approx(0.0, abs=0.03)
        assert x.std() == pytest.approx(1.0, abs=0.03)
        assert st.skew(x) == pytest.approx(0.0, abs=0.08)

    def test_exponential_moments(self):
        # clock k = 0 of slots 0 and 1 and clocks k = 1..9 of each slot:
        # the k = 0 block and the first two advance blocks of each slot
        w8 = streams.walk_token(0)
        x = np.array([-math.log(u) for d in _digests(b"e", 1000)
                      for u in _clock_uniforms(d, w8)])
        assert x.mean() == pytest.approx(1.0, abs=0.03)
        assert x.var() == pytest.approx(1.0, abs=0.08)

    @pytest.mark.parametrize("shape", [0.5, 1.5, 4.0])
    def test_gamma_moments(self, shape):
        sample = make_weight_sampler(EnvSpec(b=8, kind=f"gamma:{shape},1",
                                             seed=0))
        x = np.array([g for d in _digests(b"g", 2500) for g in sample(d)])
        se_mean = math.sqrt(shape / 20000)
        assert x.mean() == pytest.approx(shape, abs=5 * se_mean + 0.01)
        assert x.var() == pytest.approx(shape, rel=0.08)

    def test_gamma_small_shape_matches_scipy_quantiles(self):
        sample = make_weight_sampler(EnvSpec(b=8, kind="gamma:0.5,1", seed=0))
        x = np.sort([g for d in _digests(b"gq", 2500) for g in sample(d)])
        for q in (0.1, 0.5, 0.9):
            want = st.gamma.ppf(q, a=0.5)
            got = x[int(q * len(x))]
            assert got == pytest.approx(want, rel=0.06, abs=0.002)

    def test_gamma_rejects_nonpositive_shape(self):
        # when the law is parsed, before any sampler is built
        for kind in ("gamma:0,1", "gamma:-2,1"):
            with pytest.raises(ConfigError, match="positive shape"):
                make_weight_sampler(EnvSpec(b=2, kind=kind, seed=0))


def _trial_and_pid(t: int):
    return t, os.getpid()


def _fail_from(first: int, t: int):
    if t >= first:
        raise DataQualityError(f"trial {t} failed")
    return t


def _block_of(t: int) -> bytes:
    return t.to_bytes(8, "little") * 8


def _exit_at(stop: int, t: int):
    if t == stop:
        os._exit(3)
    return t


def _sleep_after_trial_0(fail: bool, t: int):
    if t > 0:
        time.sleep(60)
    elif fail:
        raise DataQualityError("trial 0 failed")
    return t


class TestKeyedMap:
    """The ordered trial map; ``two_cpus`` makes it fork one worker."""

    def test_chunks_are_contiguous_and_capped_by_the_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert streams._chunks(10, 8) == [range(0, 3), range(3, 6),
                                          range(6, 10)]
        assert streams._chunks(10, 2) == [range(0, 5), range(5, 10)]
        assert streams._chunks(2, 8) == [range(0, 1), range(1, 2)]
        assert streams._chunks(0, 8) == [range(0, 0)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert streams._chunks(10, 8) == [range(0, 10)]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 2, 9])
    def test_the_result_is_fn_of_each_trial_in_order(self, two_cpus, n,
                                                     threads):
        fn = partial(streams.derive_seed, 5, b"k")
        assert streams.keyed_map(fn, n, threads) == [fn(t) for t in range(n)]
        assert_no_child_left()

    def test_one_process_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert streams.keyed_map(_trial_and_pid, 5, 1) == [
            (t, os.getpid()) for t in range(5)]

    def test_one_process_without_fork(self, monkeypatch, two_cpus):
        monkeypatch.delattr(os, "fork")
        assert streams._chunks(10, 8) == [range(0, 10)]
        assert streams.keyed_map(_trial_and_pid, 5, 2) == [
            (t, os.getpid()) for t in range(5)]

    def test_one_chunk_runs_in_this_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert streams.keyed_map(_trial_and_pid, 7, 2) == [
            (t, os.getpid()) for t in range(7)]

    def test_results_come_back_in_chunk_order(self, two_cpus):
        got = streams.keyed_map(_trial_and_pid, 9, 2)
        assert [t for t, _ in got] == list(range(9))
        # the parent runs chunk 0 and one forked worker chunk 1
        pids = [pid for _, pid in got]
        assert pids[:4] == [os.getpid()] * 4
        assert len(set(pids[4:])) == 1 and pids[4] != os.getpid()
        assert_no_child_left()

    def test_a_worker_error_arrives_with_its_type_and_message(self, two_cpus):
        with pytest.raises(DataQualityError, match="^trial 6 failed$"):
            streams.keyed_map(partial(_fail_from, 6), 10, 2)
        assert_no_child_left()

    def test_the_first_error_in_chunk_order_wins(self, two_cpus):
        # both chunks fail; the parent's trial 3 comes first in trial order
        with pytest.raises(DataQualityError, match="^trial 3 failed$"):
            streams.keyed_map(partial(_fail_from, 3), 10, 2)
        assert_no_child_left()

    def test_results_larger_than_a_pipe_buffer_come_back_whole(self, two_cpus):
        # the worker's 20,000 blocks of 64 bytes pickle to about 1.3 MB,
        # far past the 64 KiB a pipe holds before its writer blocks
        with time_limit(60):
            got = streams.keyed_map(_block_of, 40_000, 2)
        assert got == [_block_of(t) for t in range(40_000)]
        assert_no_child_left()

    def test_a_worker_that_dies_mid_chunk_names_its_exit_status(self,
                                                                 two_cpus):
        with time_limit(60), pytest.raises(RwreError,
                                           match="exit status 3"):
            streams.keyed_map(partial(_exit_at, 7), 10, 2)
        assert_no_child_left()

    def test_a_parent_error_kills_the_later_workers(self, two_cpus):
        # the worker's trial sleeps a minute; the parent's error must not
        # wait for it
        with time_limit(10), pytest.raises(DataQualityError,
                                           match="^trial 0 failed$"):
            streams.keyed_map(partial(_sleep_after_trial_0, True), 2, 2)
        assert_no_child_left()

    def test_an_interrupted_parent_kills_its_workers(self, two_cpus):
        # the parent's chunk is done and it waits on the sleeping worker
        start = time.monotonic()
        with pytest.raises(TimeoutError), time_limit(1):
            streams.keyed_map(partial(_sleep_after_trial_0, False), 2, 2)
        assert time.monotonic() - start < 10
        assert_no_child_left()

    def test_threads_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            streams.keyed_map(_trial_and_pid, 4, 0)
