"""Environment sampling and moment-formula tests.

Closed-form oracles: for the reinforced model with strength one on the
4-regular tree, the marginal parent probability is Beta(1, 2) (mean 1/3,
second moment 1/6) and each child probability is Beta(1/2, 5/2) (mean 1/6,
second moment 1/16).  The negative moment of the weight sum for b=5, p=2
is exactly 8/3 by the beta-function ratio.
"""

import math
from collections import Counter

import numpy as np
import pytest

from rwre import streams
from rwre.env import (
    EnvSpec,
    _gamma_constants,
    _gamma_variates,
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

    def test_spec_rejects_bounded_weights_whose_sum_overflows(self):
        # e^709 ~ 8.2e307 is a float, but four of them sum to inf
        with pytest.raises(ConfigError, match="largest float"):
            EnvSpec(b=4, kind="lognormal:709,0", seed=0)
        assert EnvSpec(b=1, kind="lognormal:709,0", seed=0).b == 1
        for kind in ("const:1e308", "uniform:0,1e308"):
            with pytest.raises(ConfigError, match="largest float"):
                EnvSpec(b=2, kind=kind, seed=0)
            assert EnvSpec(b=1, kind=kind, seed=0).kind == kind

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


def _weight_words(digest, n_blocks):
    # streams.weight_words before the samplers were compiled
    words = streams.uniforms_from(digest + b"W" + (0).to_bytes(4, "little"))
    for i in range(1, n_blocks):
        words += streams.uniforms_from(digest + b"W" + i.to_bytes(4, "little"))
    return words


def _gamma_sampler(shapes, rejected):
    """streams.gamma_sampler before the gamma laws were compiled: the
    Marsaglia-Tsang rejection loop over the whole vector, counting in
    ``rejected`` the proposals each of its two tests rejects."""
    prepared = []
    for shape in shapes:
        power = 0.0  # no boost draw
        if shape < 1.0:
            power = 1.0 / shape
            shape += 1.0
        d = shape - 1.0 / 3.0
        prepared.append((d, 1.0 / math.sqrt(9.0 * d), power))
    log = math.log
    sqrt = math.sqrt
    cos = math.cos
    two53 = streams.TWO53
    two54 = streams.TWO54

    def sample(digest):
        prefix = digest + b"W"
        words = streams.uniforms_from(prefix + (0).to_bytes(4, "little"))
        n_blocks = 1
        pos = 0
        out = []
        for d, c, power in prepared:
            boost = 1.0
            if power:
                if pos == len(words):
                    words += streams.uniforms_from(
                        prefix + n_blocks.to_bytes(4, "little"))
                    n_blocks += 1
                boost = ((words[pos] >> 11) * two53 + two54) ** power
                pos += 1
            while True:
                if pos + 3 > len(words):
                    words += streams.uniforms_from(
                        prefix + n_blocks.to_bytes(4, "little"))
                    n_blocks += 1
                u1 = (words[pos] >> 11) * two53 + two54
                u2 = (words[pos + 1] >> 11) * two53 + two54
                pos += 2
                x = sqrt(-2.0 * log(u1)) * cos(streams.TWO_PI * u2)
                t = 1.0 + c * x
                if t <= 0.0:
                    rejected["t <= 0"] += 1
                    continue
                v = t * t * t
                u = (words[pos] >> 11) * two53 + two54
                pos += 1
                x2 = x * x
                if u < 1.0 - 0.0331 * x2 * x2:
                    break
                if log(u) < 0.5 * x2 + d - d * v + d * log(v):
                    break
                rejected["log test"] += 1
            out.append(d * v * boost)
        return out

    return sample


def _loop_sampler(b, kind, rejected):
    """The loop forms of the compiled samplers, kept as the reference the
    compiled ones must equal bit for bit."""
    name, args = parse_descriptor(kind)
    words_of = _weight_words
    log = math.log
    sqrt = math.sqrt
    cos = math.cos
    exp = math.exp
    two53 = streams.TWO53
    two54 = streams.TWO54
    two_pi = streams.TWO_PI
    if name == "uniform":
        lo, hi = args
        span = hi - lo
        n_blocks = (b + 7) // 8

        def sampler(digest: bytes):
            words = words_of(digest, n_blocks)
            return tuple([lo + span * ((words[i] >> 11) * two53 + two54)
                          for i in range(b)])

    elif name == "lognormal":
        mu, sd = args
        n_blocks = (2 * b + 7) // 8

        def sampler(digest: bytes):
            words = words_of(digest, n_blocks)
            out = []
            for i in range(0, 2 * b, 2):
                x = (sqrt(-2.0 * log((words[i] >> 11) * two53 + two54))
                     * cos(two_pi * ((words[i + 1] >> 11) * two53 + two54)))
                out.append(exp(mu + sd * x))
            return tuple(out)

    elif name == "gamma":
        shape, scale = args
        gammas = _gamma_sampler((shape,) * b, rejected)

        def sampler(digest: bytes):
            return tuple([scale * x for x in gammas(digest)])

    elif args[0] != 1.0:  # lerrw, a gamma law
        g0, g = _lerrw_gamma_shapes(args[0])
        gammas = _gamma_sampler((g0,) + (g,) * b, rejected)

        def sampler(digest: bytes):
            z = gammas(digest)
            z0 = z[0]
            return tuple([z[i] / z0 for i in range(1, b + 1)])

    else:  # lerrw:1.0
        n_blocks = (2 * b + 8) // 8

        def sampler(digest: bytes):
            words = words_of(digest, n_blocks)
            z0 = -log((words[0] >> 11) * two53 + two54)
            out = []
            for i in range(1, 2 * b, 2):
                x = (sqrt(-2.0 * log((words[i] >> 11) * two53 + two54))
                     * cos(two_pi * ((words[i + 1] >> 11) * two53 + two54)))
                out.append(0.5 * x * x / z0)
            return tuple(out)

    return sampler


# gamma:0.005,1 draws a boost u ** 200, which underflows to 0.0 for u
# below about 0.03
GAMMA_LAWS = ["gamma:2,0.5", "gamma:0.5,2", "gamma:0.005,1", "lerrw:0.5",
              "lerrw:2.0"]


@pytest.mark.parametrize("kind", [
    "uniform:0.5,1.5", "uniform:0.1,0.30000000000000004", "uniform:0,1e200",
    "lognormal:0,0.5", "lognormal:-0.5,1e-300", "lognormal:1.1,0.7",
    "lerrw:1.0", "lerrw:1"] + GAMMA_LAWS)
def test_compiled_samplers_equal_their_loop_forms(monkeypatch, kind):
    blocks = []
    hash_block = streams.uniforms_from
    monkeypatch.setattr(streams, "uniforms_from",
                        lambda msg: blocks.append(msg) or hash_block(msg))
    rejected = Counter()
    zeros = 0
    for b in (1, 2, 3, 4, 7, 8, 9, 16, 255):
        compiled = make_weight_sampler(EnvSpec(b, kind, 0))
        reference = _loop_sampler(b, kind, rejected)
        for s in range(200):
            d = streams.sample_digest(b, b"r", s)
            blocks.clear()
            got = compiled(d)
            read = blocks[:]
            blocks.clear()
            assert got == reference(d)
            assert type(got) is tuple and len(got) == b
            assert read == blocks
            zeros += got.count(0.0)
    if kind in GAMMA_LAWS:
        # the digests reach both ways a proposal is rejected
        assert rejected["t <= 0"] > 0 and rejected["log test"] > 0
    assert (zeros > 0) == (kind == "gamma:0.005,1")


def _first_rejected(prepared, digest):
    """The index of the first variate whose first Marsaglia-Tsang proposal
    is rejected, with every variate's first proposal (and boost lane) read
    at the lanes it takes when all before it were accepted; None if none
    is rejected."""
    words = _weight_words(digest, (4 * len(prepared) + 7) // 8)
    lanes = [(w >> 11) * streams.TWO53 + streams.TWO54 for w in words]
    pos = 0
    for i, (d, c, power) in enumerate(prepared):
        pos += power > 0
        u1, u2, u = lanes[pos:pos + 3]
        pos += 3
        x = math.sqrt(-2.0 * math.log(u1)) * math.cos(streams.TWO_PI * u2)
        t = 1.0 + c * x
        v = t * t * t
        x2 = x * x
        if t <= 0.0 or not (u < 1.0 - 0.0331 * x2 * x2 or math.log(u) <
                            0.5 * x2 + d - d * v + d * math.log(v)):
            return i
    return None


@pytest.mark.parametrize("kind", ["gamma:2,0.5", "gamma:0.5,2", "lerrw:0.5",
                                  "lerrw:2.0"])
def test_the_rejection_loop_from_lane_0_equals_the_compiled_sampler(
        monkeypatch, kind):
    # The compiled samplers restart a rejected vector in _gamma_variates
    # with the blocks they have hashed; called with none, the loop alone
    # must give the same weights from the same blocks, hashed through
    # uniforms_from as it is found when the loop is called.
    blocks = []
    hash_block = streams.uniforms_from
    monkeypatch.setattr(streams, "uniforms_from",
                        lambda msg: blocks.append(msg) or hash_block(msg))
    name, args = parse_descriptor(kind)
    for b in (1, 4, 9):
        if name == "gamma":
            shapes = (args[0],) * b
            weights = lambda z: tuple([args[1] * x for x in z])
        else:
            g0, g = _lerrw_gamma_shapes(args[0])
            shapes = (g0,) + (g,) * b
            weights = lambda z: tuple([x / z[0] for x in z[1:]])
        prepared = [_gamma_constants(g) for g in shapes]
        compiled = make_weight_sampler(EnvSpec(b, kind, 0))
        first = Counter()
        for s in range(300):
            d = streams.sample_digest(b, b"x", s)
            first[_first_rejected(prepared, d)] += 1
            blocks.clear()
            want = compiled(d)
            read = blocks[:]
            blocks.clear()
            assert weights(_gamma_variates(prepared, d + b"W", ())) == want
            assert blocks == read
        # digests whose first proposals are rejected at the first variate
        # and at the last
        assert first[0] > 0 and first[len(shapes) - 1] > 0, first


class TestGammaRepresentation:
    def test_shape_pair_identity(self):
        g0, g = _lerrw_gamma_shapes(1.0)
        assert (g0, g) == (1.0, 0.5)
        g0, g = _lerrw_gamma_shapes(0.5)
        assert (g0, g) == (1.5, 1.0)
        assert g0 == pytest.approx(g + 0.5)

    @pytest.mark.parametrize("kind", [
        "lerrw:1.0", "gamma:0.3,3.3333333333333335", "gamma:2,0.5"])
    def test_marginal_moment_closed_form_vs_mc(self, kind):
        # inf over the t grid of the Monte Carlo E[A_1^t], from the first
        # weight of independently keyed copies of one vertex (stream b"m");
        # the gamma laws check the closed form check_assumption_a reads
        # for every gamma:k,theta
        spec = EnvSpec(b=4, kind=kind, seed=6)
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

    @pytest.mark.parametrize("k", [1, 0.5, 0.3, 0.2, 0.15, 0.125, 0.1])
    def test_unit_mean_gamma_laws_pass_at_four_children(self, k):
        # gamma:k,1/k has mean one for every k; the small shapes put
        # weights near zero, and the infimum falls from 0.886 at k = 1 to
        # 0.463 at k = 0.1, still above 1/b
        spec = EnvSpec(b=4, kind=f"gamma:{k},{1 / k}", seed=0)
        assert check_assumption_a(spec) > 1.0 / 4

    def test_uniform_moment_of_a_huge_law_is_finite(self):
        # hi ** 2 overflows, but E[A] = hi / 2 does not
        spec = EnvSpec(b=4, kind="uniform:0,1e200", seed=0)
        assert marginal_weight_moment(spec, 1.0) == 5e199
        assert check_assumption_a(spec) == 1.0

    @pytest.mark.parametrize("hi", [1e-200, 1e-160])
    def test_uniform_moment_of_a_tiny_law_is_not_lost(self, hi):
        # hi ** 2 underflows, to zero or to a subnormal, but E[A] = hi / 2
        # is a normal float
        spec = EnvSpec(b=4, kind=f"uniform:0,{hi}", seed=0)
        assert marginal_weight_moment(spec, 1.0) == hi / 2

    def test_uniform_moment_at_t_minus_one_is_the_log_ratio(self):
        # E[1/A] = log(hi / lo) / (hi - lo) for lo > 0, where the power
        # formula divides by t + 1 = 0
        spec = EnvSpec(b=4, kind="uniform:0.5,1.5", seed=0)
        assert marginal_weight_moment(spec, -1.0) == pytest.approx(
            math.log(3.0), rel=1e-15)
        for t in (-1.0 - 1e-7, -1.0 + 1e-7):
            assert marginal_weight_moment(spec, t) == pytest.approx(
                math.log(3.0), rel=1e-6)
        # from lo = 0, E[A^t] diverges at every t <= -1
        spec = EnvSpec(b=4, kind="uniform:0,1", seed=0)
        for t in (-1.0, -2.0):
            assert marginal_weight_moment(spec, t) == math.inf

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

