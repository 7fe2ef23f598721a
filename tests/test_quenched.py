"""Quenched non-return probabilities and their negative moments.

With every child weight equal to c, beta solves beta = S/(1+S) with
S = c b beta, so beta = 1 - 1/(c b).
"""

import tracemalloc
from itertools import islice

import numpy as np
import pytest

from rwre import streams
from rwre.env import EnvSpec, make_weight_sampler
from rwre.errors import InsufficientDataError, InvalidInputError
from rwre.quenched import (
    BetaMomentReport,
    BetaValue,
    _truncation_ladder,
    beta_root,
    effectively_converged,
    geometric_moment_bound,
    negative_moment_of_beta,
)

CONST = EnvSpec(b=4, kind="const:1.0", seed=21)


class TestBetaRoot:
    def test_constant_environment_fixed_point(self):
        bv = beta_root(CONST, tol=1e-6, rel_tol=0.0)
        assert isinstance(bv, BetaValue)
        assert bv.converged
        assert bv.value == pytest.approx(0.75, abs=1e-5)

    def test_random_environment_is_a_probability(self):
        bv = beta_root(EnvSpec(b=4, kind="lerrw:1.0", seed=21),
                       tol=1e-6, rel_tol=0.02)
        assert 0.0 < bv.value < 1.0
        assert effectively_converged(bv, 0.02)

    def test_claimed_error_is_below_a_tiny_value(self):
        # gamma shape 0.005 makes most weights underflow, so beta is far
        # below tol: converging needs an error below the value itself
        bv = beta_root(EnvSpec(b=3, kind="gamma:0.005,1", seed=8),
                       tol=1e-4, rel_tol=0.02)
        assert bv.converged
        assert 0.0 < bv.value < 1e-100
        assert bv.upper_gap < bv.value

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            beta_root(CONST, tol=0.0, rel_tol=0.0)

    def test_node_budget_stops_a_random_ladder(self):
        # depth 3 has 1 + 128 + 128**2 weight nodes; depth 4 would add
        # 128**3 and pass the two-million budget, so the ladder ends there
        # short of the unreachable tolerance
        bv = beta_root(EnvSpec(b=128, kind="uniform:0.5,1.5", seed=3),
                       tol=1e-300, rel_tol=0.0)
        assert (bv.depth, bv.converged) == (3, False)
        assert bv.value == 0.9924647729515286


def test_beta_is_at_most_the_root_weight_sum_share():
    # beta = S/(1+S) with S = sum_i A_i beta_i <= sum A, so beta <=
    # sum A/(1+sum A).  The boundary-one ladder starts at exactly that value
    # and never increases with depth, so every depth bounds beta from above.
    base = EnvSpec(b=4, kind="lerrw:1.0", seed=7)
    for i in range(120):
        spec = base.subseed(b"beta-bound", i)
        ladder = list(islice(_truncation_ladder(spec), 5))
        assert len(ladder) == 5
        for shallow, deep in zip(ladder, ladder[1:]):
            assert deep <= shallow * (1.0 + 1e-12)
        s = float(np.sum(make_weight_sampler(spec)(
            streams.root_digest(spec.seed))))
        assert ladder[0] == pytest.approx(s / (1.0 + s), rel=1e-15, abs=0.0)


def test_ladder_memory_is_its_weights_and_one_digest_blob():
    # The ladder may hold 8b bytes of weights per node and 16 bytes of
    # digest per deepest node, and its sweep two arrays of the deepest
    # level: about 61 bytes per node here.  The bound leaves no room for a
    # bytes object per node, which costs about 57 bytes more.
    ladder = _truncation_ladder(EnvSpec(b=4, kind="lerrw:1.0", seed=3))
    next(ladder)  # depth 1 builds the sampler
    tracemalloc.start()
    try:
        assert len(list(islice(ladder, 7))) == 7  # depths 2-8
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * (4 ** 8 - 1) // 3


class TestEffectivelyConverged:
    def _bv(self, value, gap):
        return BetaValue(value=value, depth=9, upper_gap=gap, converged=False)

    def test_small_relative_gap_is_accepted(self):
        assert effectively_converged(self._bv(0.5, 0.005), 0.02)

    def test_recurrent_looking_value_is_rejected(self):
        assert not effectively_converged(self._bv(0.5, 0.5), 0.02)
        assert not effectively_converged(self._bv(0.0, 0.0), 0.02)


class TestNegativeMoment:
    # The ladder stops once its remaining error is below 2% of the value,
    # so the estimates sit within a few percent of the exact limits.
    def test_constant_environment(self):
        rep = negative_moment_of_beta(CONST, 2.0, n_envs=100)
        assert isinstance(rep, BetaMomentReport)
        assert rep.n_samples == 100
        assert rep.estimate == pytest.approx(0.75 ** -2, rel=0.05)
        assert rep.std_error == 0.0
        assert len(rep.values) == 100

    def test_estimate_comes_from_the_listed_environments(self):
        rep = negative_moment_of_beta(EnvSpec(b=4, kind="lerrw:1.0", seed=5),
                                      2.0, n_envs=100)
        assert len(rep.betas) == 100
        vals = [bv.value ** -2.0 for bv in rep.betas
                if effectively_converged(bv, 0.05)]
        assert rep.n_samples == len(vals)
        assert rep.estimate == pytest.approx(np.mean(vals), rel=1e-12)
        assert list(rep.values ** -2.0) == pytest.approx(vals, rel=1e-15)

    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            negative_moment_of_beta(CONST, 1.0, n_envs=99)


class TestGeometricMomentBound:
    def test_first_moment_exact_value(self):
        # Y geometric on {0, 1, ...} with success theta: E[Y] = (1-theta)/theta
        exact, bound = geometric_moment_bound(0.25, 1.0)
        assert exact == pytest.approx(3.0, rel=1e-9)
        assert exact <= bound

    def test_power_must_be_positive_and_finite(self):
        for p in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(InvalidInputError):
                geometric_moment_bound(0.25, p)

    @pytest.mark.parametrize("p", [64.0, 200.0])
    def test_overflow_is_an_input_error(self, p):
        # at theta = 0.01, k^p overflows from p ~ 63.2 and p^(p+1) at 200
        with pytest.raises(InvalidInputError, match=f"p = {p}, theta = 0.01"):
            geometric_moment_bound(0.01, p)
