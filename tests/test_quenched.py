"""Quenched non-return probabilities and their negative moments.

With every child weight equal to c, beta solves beta = S/(1+S) with
S = c b beta, so beta = 1 - 1/(c b); the escape-through-a-child quantity
is gamma = sum_i omega(child_i) beta = b c beta / (1 + b c).
"""

import numpy as np
import pytest

from rwre.env import EnvSpec
from rwre.errors import InsufficientDataError, InvalidInputError
from rwre.quenched import (
    BetaMomentReport,
    BetaValue,
    beta_root,
    effectively_converged,
    gamma_vertex,
    geometric_moment_bound,
    negative_moment_of_beta,
)

CONST = EnvSpec(b=4, kind="const:1.0", seed=21)


class TestBetaRoot:
    def test_constant_environment_fixed_point(self):
        bv = beta_root(CONST)
        assert isinstance(bv, BetaValue)
        assert bv.converged
        assert bv.value == pytest.approx(0.75, abs=1e-5)
        assert bv.child_values == pytest.approx((0.75,) * 4, abs=1e-5)
        assert bv.probs == pytest.approx((0.2,) * 5)

    def test_random_environment_is_a_probability(self):
        bv = beta_root(EnvSpec(b=4, kind="lerrw:1.0", seed=21), rel_tol=0.02)
        assert 0.0 < bv.value < 1.0
        assert len(bv.child_values) == 4
        assert effectively_converged(bv)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            beta_root(CONST, depth=0)
        with pytest.raises(InvalidInputError):
            beta_root(CONST, tol=0.0)


class TestGamma:
    def test_constant_environment_value(self):
        bv = beta_root(CONST)
        assert gamma_vertex(bv.probs, bv.child_values) == pytest.approx(0.6, abs=1e-5)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            gamma_vertex((0.5, 0.5), (0.5, 0.5))
        with pytest.raises(InvalidInputError):
            gamma_vertex((0.5, 0.5), (1.5,))


class TestEffectivelyConverged:
    def _bv(self, value, gap):
        return BetaValue(value=value, depth=9, upper_gap=gap, converged=False,
                         child_values=(), probs=())

    def test_small_relative_gap_is_accepted(self):
        assert effectively_converged(self._bv(0.5, 0.005))

    def test_recurrent_looking_value_is_rejected(self):
        assert not effectively_converged(self._bv(0.5, 0.5))
        assert not effectively_converged(self._bv(0.0, 0.0))


class TestNegativeMoment:
    # The ladder stops once its remaining error is below 2% of the value,
    # so the estimates sit within a few percent of the exact limits.
    def test_constant_environment(self):
        rep = negative_moment_of_beta(CONST, 2.0, n_envs=100)
        assert isinstance(rep, BetaMomentReport)
        assert rep.n_samples == 100
        assert rep.estimate == pytest.approx(0.75 ** -2, rel=0.05)
        assert rep.std_error == 0.0
        assert not rep.suspect_divergence

    def test_gamma_indicator_variant(self):
        rep = negative_moment_of_beta(CONST, 1.0, n_envs=100,
                                      variant="gamma_indicator")
        assert rep.estimate == pytest.approx(1.0 / 0.6, rel=0.05)

    def test_estimate_comes_from_the_listed_environments(self):
        rep = negative_moment_of_beta(EnvSpec(b=4, kind="lerrw:1.0", seed=5),
                                      2.0, n_envs=100)
        assert len(rep.betas) == 100
        vals = [bv.value ** -2.0 for bv in rep.betas
                if effectively_converged(bv, 0.05)]
        assert rep.n_samples == len(vals)
        assert rep.estimate == pytest.approx(np.mean(vals), rel=1e-12)

    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            negative_moment_of_beta(CONST, 1.0, n_envs=99)
        with pytest.raises(InvalidInputError):
            negative_moment_of_beta(CONST, 1.0, n_envs=100, variant="other")


class TestGeometricMomentBound:
    def test_first_moment_exact_value(self):
        # Y geometric on {0, 1, ...} with success theta: E[Y] = (1-theta)/theta
        exact, bound = geometric_moment_bound(0.25, 1.0)
        assert exact == pytest.approx(3.0, rel=1e-9)
        assert exact <= bound
