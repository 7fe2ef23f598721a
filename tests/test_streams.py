"""Deterministic stream tests.

Distribution oracles are scipy's exact moments; sampling tolerances are
set to several standard errors at the pinned sample sizes, and every draw
is reproducible by construction, so these never flake.
"""

import math

import numpy as np
import pytest
from scipy import stats as st

from rwre import streams
from rwre.tree import ROOT, SENTINEL


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


class TestUniformBlocks:
    def test_uniforms_from_is_deterministic_and_open_interval(self):
        u = streams.uniforms_from(b"block-test")
        assert u == streams.uniforms_from(b"block-test")
        assert len(u) == 8
        assert all(0.0 < x < 1.0 for x in u)

    def test_weight_and_clock_blocks_are_distinct_streams(self):
        d = streams.root_digest(3)
        w8 = streams.walk_token(0)
        assert streams.weight_block(d, 0) != streams.clock_init_block(d, w8, 0)
        assert (streams.clock_init_block(d, w8, 0)
                != streams.clock_advance_block(d, w8, 0, 0))

    def test_weight_stream_reads_the_weight_blocks_in_order(self):
        d = streams.root_digest(3)
        s = streams.weight_stream(d)
        assert isinstance(s, streams.UniformStream)
        first = [s.uniform() for _ in range(16)]
        assert first == list(streams.weight_block(d, 0) + streams.weight_block(d, 1))
        again = streams.UniformStream(d + b"W")
        assert [again.uniform() for _ in range(16)] == first

    def test_clock_blocks_differ_across_walk_tokens(self):
        d = streams.root_digest(3)
        a = streams.clock_init_block(d, streams.walk_token(0), 0)
        b = streams.clock_init_block(d, streams.walk_token(1), 0)
        assert a != b


class TestUniformStream:
    def test_reproducible(self):
        s1 = streams.labeled_stream(11, b"x")
        s2 = streams.labeled_stream(11, b"x")
        assert [s1.uniform() for _ in range(20)] == [s2.uniform() for _ in range(20)]

    def test_uniform_moments(self):
        s = streams.labeled_stream(1, b"u")
        x = np.array([s.uniform() for _ in range(20000)])
        assert x.mean() == pytest.approx(0.5, abs=0.011)
        assert x.var() == pytest.approx(1.0 / 12.0, abs=0.004)

    def test_normal_moments(self):
        s = streams.labeled_stream(2, b"n")
        x = np.array([s.normal() for _ in range(20000)])
        assert x.mean() == pytest.approx(0.0, abs=0.03)
        assert x.std() == pytest.approx(1.0, abs=0.03)
        assert st.skew(x) == pytest.approx(0.0, abs=0.08)

    def test_exponential_moments(self):
        s = streams.labeled_stream(3, b"e")
        x = np.array([s.exponential() for _ in range(20000)])
        assert x.mean() == pytest.approx(1.0, abs=0.03)
        assert x.var() == pytest.approx(1.0, abs=0.08)

    @pytest.mark.parametrize("shape", [0.5, 1.5, 4.0])
    def test_gamma_moments(self, shape):
        s = streams.labeled_stream(4, b"g")
        x = np.array([s.gamma(shape) for _ in range(20000)])
        se_mean = math.sqrt(shape / 20000)
        assert x.mean() == pytest.approx(shape, abs=5 * se_mean + 0.01)
        assert x.var() == pytest.approx(shape, rel=0.08)

    def test_gamma_small_shape_matches_scipy_quantiles(self):
        s = streams.labeled_stream(5, b"gq")
        x = np.sort([s.gamma(0.5) for _ in range(20000)])
        for q in (0.1, 0.5, 0.9):
            want = st.gamma.ppf(q, a=0.5)
            got = x[int(q * len(x))]
            assert got == pytest.approx(want, rel=0.06, abs=0.002)

    def test_gamma_rejects_nonpositive_shape(self):
        s = streams.labeled_stream(6, b"bad")
        with pytest.raises(Exception):
            s.gamma(0.0)


class TestClockPrimitives:
    def test_clock_exponential_positive_and_deterministic(self):
        d = streams.vertex_digest(8, (1, 2))
        w8 = streams.walk_token(0)
        x = streams.clock_exponential(d, w8, 0, 0)
        assert x > 0.0
        assert x == streams.clock_exponential(d, w8, 0, 0)

    def test_clock_exponential_mean_over_keys(self):
        w8 = streams.walk_token(0)
        vals = []
        for i in range(4000):
            d = streams.vertex_digest(i, ROOT)
            vals.append(streams.clock_exponential(d, w8, 0, 0))
        assert np.mean(vals) == pytest.approx(1.0, abs=0.05)
