"""Environment sampling and moment-formula tests.

Closed-form oracles: for the reinforced model with strength one on the
4-regular tree, the marginal parent probability is Beta(1, 2) (mean 1/3,
second moment 1/6) and each child probability is Beta(1/2, 5/2) (mean 1/6,
second moment 1/16).  The negative moment of the weight sum for b=5, p=2
is exactly 8/3 by the beta-function ratio.
"""

import math

import numpy as np
import pytest

from rwre import streams
from rwre.env import (
    EnvSpec,
    _lerrw_gamma_shapes,
    check_assumption_a,
    lerrw_negative_moment_cf,
    make_weight_sampler,
    marginal_weight_moment,
    parse_descriptor,
    sample_weights,
    transition_probs,
    weight_sum_tail_index,
    weight_sums,
)
from rwre.errors import ConfigError, InvalidInputError


class TestDescriptors:
    def test_parse_known_kinds(self):
        assert parse_descriptor("const:2.0") == ("const", (2.0,))
        assert parse_descriptor("gamma:3.0,1.5") == ("gamma", (3.0, 1.5))
        assert parse_descriptor("lerrw:1.0") == ("lerrw", (1.0,))

    def test_parse_rejects_garbage(self):
        for bad in ("nope:1", "gamma:", "gamma:1", "const:-1", "lerrw:0"):
            with pytest.raises(ConfigError):
                parse_descriptor(bad)

    @pytest.mark.parametrize("kind", [
        "const:nan", "const:inf", "uniform:0,inf", "gamma:inf,1",
        "gamma:1,nan", "lognormal:nan,1", "lognormal:0,inf", "lerrw:inf",
        "lerrw:nan"])
    def test_parse_rejects_non_finite_parameters(self, kind):
        # nan slips past every order check, and an infinite parameter
        # breaks the samplers (lerrw:inf divides by a zero shape)
        with pytest.raises(ConfigError, match="non-finite"):
            parse_descriptor(kind)

    def test_parse_rejects_a_lognormal_whose_draws_overflow(self):
        # every Box-Muller normal has |x| <= sqrt(108 ln 2) ~ 8.652, so
        # exp(mu + s x) stays finite exactly when mu + 8.652 s <= 709.78
        for kind in ("lognormal:0,1000", "lognormal:800,0", "lognormal:0,83"):
            with pytest.raises(ConfigError, match="largest float"):
                parse_descriptor(kind)
        for kind in ("lognormal:0,82", "lognormal:709.78,0"):
            assert parse_descriptor(kind)[0] == "lognormal"

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            EnvSpec(b=0, kind="const:1.0", seed=0)
        with pytest.raises(ConfigError):
            EnvSpec(b=2, kind="bogus:1", seed=0)
        with pytest.raises(InvalidInputError):  # would alias seed 0
            EnvSpec(b=2, kind="const:1.0", seed=2 ** 64)

    def test_subseed_changes_seed_only(self):
        spec = EnvSpec(b=3, kind="const:1.0", seed=5)
        sub = spec.subseed(b"t", 2)
        assert sub.b == spec.b and sub.kind == spec.kind
        assert sub.seed != spec.seed
        assert sub == spec.subseed(b"t", 2)

    @pytest.mark.parametrize("kind", ["const:1.0", "uniform:0.5,1.5",
                                      "gamma:0.5,2", "lognormal:0,0.5",
                                      "lerrw:0.5"])
    def test_subseed_is_the_spec_of_the_derived_seed(self, kind):
        # subseed skips the second validation; the spec it returns must
        # still be the one the constructor gives
        spec = EnvSpec(b=4, kind=kind, seed=9)
        for tag, i in ((b"ind", 0), (b"couple", 7), (b"beta-env", 2 ** 40)):
            sub = spec.subseed(tag, i)
            want = EnvSpec(spec.b, spec.kind,
                           streams.derive_seed(spec.seed, tag, i))
            assert sub == want and hash(sub) == hash(want)
            assert (type(sub), vars(sub)) == (EnvSpec, vars(want))


class TestTransitionProbs:
    def test_hand_computed_two_child_case(self):
        probs = transition_probs((2.0, 0.5))
        assert probs[0] == pytest.approx(2.0 / 7.0)
        assert probs[1] == pytest.approx(4.0 / 7.0)
        assert probs[2] == pytest.approx(1.0 / 7.0)

    def test_probabilities_sum_to_one(self):
        spec = EnvSpec(b=4, kind="lerrw:1.0", seed=3)
        for i in range(20):
            w = sample_weights(spec.subseed(b"p", i), ())
            assert math.fsum(transition_probs(w)) == pytest.approx(1.0)

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidInputError):
            transition_probs(())
        with pytest.raises(InvalidInputError):
            transition_probs((1.0, -0.5))
        with pytest.raises(InvalidInputError):
            transition_probs((1.0, math.nan))
        with pytest.raises(InvalidInputError):
            transition_probs((1.0, math.inf))

    def test_zero_weight_is_a_closed_edge(self):
        assert transition_probs((1.0, 0.0)) == (0.5, 0.5, 0.0)


class TestWeightSampling:
    def test_deterministic_per_vertex(self):
        spec = EnvSpec(b=3, kind="gamma:2.0,1.0", seed=9)
        assert sample_weights(spec, (1, 2)) == sample_weights(spec, (1, 2))
        assert sample_weights(spec, (1, 2)) != sample_weights(spec, (2, 1))

    def test_const_weights_are_constant(self):
        spec = EnvSpec(b=2, kind="const:2.5", seed=4)
        assert sample_weights(spec, (1,)) == (2.5, 2.5)

    def test_reinforced_marginals_match_beta_oracle(self):
        spec = EnvSpec(b=4, kind="lerrw:1.0", seed=12)
        parents = np.empty(8000)
        children = np.empty(8000)
        for i in range(8000):
            probs = transition_probs(sample_weights(spec.subseed(b"m", i), ()))
            parents[i] = probs[0]
            children[i] = probs[1]
        assert parents.mean() == pytest.approx(1.0 / 3.0, abs=0.01)
        assert np.mean(parents ** 2) == pytest.approx(1.0 / 6.0, abs=0.01)
        assert children.mean() == pytest.approx(1.0 / 6.0, abs=0.008)
        assert np.mean(children ** 2) == pytest.approx(1.0 / 16.0, abs=0.006)


class TestGammaRepresentation:
    def test_shape_pair_identity(self):
        g0, g = _lerrw_gamma_shapes(1.0)
        assert (g0, g) == (1.0, 0.5)
        g0, g = _lerrw_gamma_shapes(0.5)
        assert (g0, g) == (1.5, 1.0)
        assert g0 == pytest.approx(g + 0.5)

    def test_marginal_moment_closed_form_vs_mc(self):
        # inf over the t grid of the Monte Carlo E[A_1^t], from the first
        # weight of independently keyed copies of one vertex (stream b"m")
        spec = EnvSpec(b=4, kind="lerrw:1.0", seed=6)
        sampler = make_weight_sampler(spec)
        loga = np.log([sampler(streams.sample_digest(spec.seed, b"m", i))[0]
                       for i in range(40000)])
        mc = min(float(np.exp(loga * t).mean())
                 for t in np.linspace(0.0, 1.0, 101))
        assert mc == pytest.approx(check_assumption_a(spec), rel=0.02)

    def test_fractional_moment_diverges_at_shape_boundary(self):
        spec = EnvSpec(b=2, kind="lerrw:1.0", seed=0)
        assert marginal_weight_moment(spec, 1.0) == math.inf
        assert marginal_weight_moment(spec, 0.5) < math.inf


class TestTransienceCriterion:
    def test_constant_unit_weights_pass_for_two_children(self):
        assert check_assumption_a(
            EnvSpec(b=2, kind="const:1.0", seed=0)) == pytest.approx(1.0)

    def test_single_child_line_fails(self):
        assert check_assumption_a(
            EnvSpec(b=1, kind="const:1.0", seed=0)) <= 1.0

    @pytest.mark.parametrize("b", [2, 4, 5])
    def test_reinforced_walks_pass(self, b):
        assert check_assumption_a(
            EnvSpec(b=b, kind="lerrw:1.0", seed=0)) > 1.0 / b

    def test_wide_lognormal_moment_past_the_largest_float_is_inf(self):
        # exp(s^2 / 2) at s = 40 is e^800: the moment at t = 1 is inf, not
        # an OverflowError, and the infimum is the t = 0 moment
        spec = EnvSpec(b=4, kind="lognormal:0,40", seed=0)
        assert marginal_weight_moment(spec, 1.0) == math.inf
        assert check_assumption_a(spec) == 1.0


class TestNegativeMoments:
    def test_closed_form_value_for_five_children(self):
        assert lerrw_negative_moment_cf(5, 2.0, 1.0) == pytest.approx(8.0 / 3.0)

    @pytest.mark.parametrize("b,q", [(5, 2.0), (6, 2.0), (5, 1.5)])
    def test_closed_form_matches_quadrature(self, b, q):
        # Gamma-function free: x = 1/(1 + sum A) is Beta(g0, b g), and
        # (x/(1-x))^p against its density, over the bare density, is the
        # moment.  p = q/delta keeps p below the index b/(2 delta).
        from scipy.integrate import quad

        for delta in (0.5, 1.0, 2.0):
            p = q / delta
            g0, g = _lerrw_gamma_shapes(delta)
            num = quad(lambda x: 1.0, 0.0, 1.0, weight="alg",
                       wvar=(g0 + p - 1.0, b * g - p - 1.0))[0]
            den = quad(lambda x: 1.0, 0.0, 1.0, weight="alg",
                       wvar=(g0 - 1.0, b * g - 1.0))[0]
            assert abs(lerrw_negative_moment_cf(b, p, delta)
                       - num / den) < 1e-8

    def test_divergent_case_reports_infinity(self):
        assert lerrw_negative_moment_cf(4, 2.0, 1.0) == math.inf

    def test_mc_estimate_brackets_closed_form(self):
        vals = weight_sums(EnvSpec(b=5, kind="lerrw:1.0", seed=14),
                           200000) ** -2.0
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 8.0 / 3.0) <= 3.0 * se


class TestWeightSumTailIndex:
    # E[(sum A)^-p] is finite exactly when p is below the index.
    @pytest.mark.parametrize("b", [2, 3, 4, 5])
    @pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
    def test_lerrw_split_is_the_closed_form(self, b, delta):
        index = weight_sum_tail_index(
            EnvSpec(b=b, kind=f"lerrw:{delta}", seed=0))
        assert index == b / (2 * delta)
        for p in (0.5 * index, 0.99 * index, index, 1.01 * index,
                  2 * index):
            cf = lerrw_negative_moment_cf(b, p, delta)
            assert (p < index) == math.isfinite(cf)

    @pytest.mark.parametrize("b", [1, 2, 4])
    @pytest.mark.parametrize("shape", [0.25, 0.5, 2.0])
    def test_gamma_split_is_the_gamma_function_ratio(self, b, shape):
        # The sum S is Gamma(bk, theta), and E[S^-p] = theta^-p G(bk-p)/G(bk)
        # where that ratio is a finite positive number (checked against
        # quadrature); on this p grid it is a pole or negative elsewhere.
        from scipy.integrate import quad

        bk, theta = b * shape, 1.5
        index = weight_sum_tail_index(
            EnvSpec(b=b, kind=f"gamma:{shape},{theta}", seed=0))
        assert index == bk
        for p in (0.25 * bk, 0.5 * bk, bk, 1.01 * bk, 2 * bk):
            try:
                ratio = theta ** -p * math.gamma(bk - p) / math.gamma(bk)
            except ValueError:  # a pole of the gamma function
                ratio = math.inf
            assert (p < index) == (0 < ratio < math.inf)
            if p < index:
                num = quad(lambda u: u ** (bk - p - 1) * math.exp(-u), 0,
                           math.inf)[0]
                den = quad(lambda u: u ** (bk - 1) * math.exp(-u), 0,
                           math.inf)[0]
                assert ratio == pytest.approx(theta ** -p * num / den,
                                              rel=1e-6)

    def test_lerrw_index_above_two_is_delta_below_quarter_b(self):
        # some p > 2 has E[(sum A)^-p] finite exactly when b/(2 delta) > 2
        for b, delta, above in ((4, 1.0, False), (5, 1.0, True),
                                (2, 0.4, True), (2, 0.5, False)):
            index = weight_sum_tail_index(
                EnvSpec(b=b, kind=f"lerrw:{delta}", seed=0))
            assert (index > 2) == above == (delta < b / 4)

    @pytest.mark.parametrize("b", [1, 3, 4])
    def test_uniform_from_zero_has_index_b(self, b):
        assert weight_sum_tail_index(
            EnvSpec(b=b, kind="uniform:0,2", seed=0)) == b

    @pytest.mark.parametrize("kind", ["const:0.5", "uniform:0.1,2",
                                      "lognormal:0,1"])
    def test_other_laws_have_every_negative_moment(self, kind):
        assert weight_sum_tail_index(EnvSpec(b=3, kind=kind, seed=0)) \
            == math.inf

