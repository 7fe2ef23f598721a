"""Statistics on hand-computed inputs and on seeded samples with known law."""

import math

import numpy as np
import pytest
import scipy.stats

from rwre.errors import (
    DegenerateDataError,
    InsufficientDataError,
    InvalidInputError,
)
from rwre.env import EnvSpec, weight_sums
from rwre.regen import GapSample
from rwre.stats import (
    TailFit,
    _chi2_tail,
    chi_square_independence,
    direct_sigma,
    estimate_sigma,
    estimate_speed,
    fit_geometric_tail,
    kolmogorov_sf,
    moment_check,
)


class TestKolmogorov:
    @pytest.mark.parametrize("lam", [0.3, 0.8, 1.0, 1.3581, 2.0])
    def test_matches_scipy_limit_law(self, lam):
        assert kolmogorov_sf(lam) == pytest.approx(
            scipy.stats.kstwobign.sf(lam), abs=1e-9)

    def test_nonpositive_argument(self):
        assert kolmogorov_sf(0.0) == 1.0

    @pytest.mark.parametrize("n, alpha, asymptotic", [
        (100, 0.01, 0.01135), (100, 1e-4, 1.263e-4),
        (500, 0.01, 0.01054), (500, 1e-4, 1.087e-4)])
    def test_finite_n_tests_are_conservative(self, n, alpha, asymptotic):
        # At the statistic where the exact law of D_n has tail alpha, the
        # asymptotic p the KS tests report is larger, so they reject less
        # often than alpha; the stats docstring quotes these figures.
        p = kolmogorov_sf(math.sqrt(n) * scipy.stats.kstwo.isf(alpha, n))
        assert p > alpha
        assert p == pytest.approx(asymptotic, rel=1e-3)


class TestSpeedInterval:
    def test_coverage_is_nominal_on_iid_gaps(self):
        # L ~ Geometric(0.6) on {1, 2, ...}, D ~ Poisson(L / 4), T = L + 2D:
        # E[T] = 1.5 E[L], so v = 2/3.  The normal quantile covers 98.25% at
        # 160 gaps and 97.8% at 1600; t with 15 dof covers 99.2% and 98.9%.
        rng = np.random.default_rng(1)
        reps = 4000
        tol = 3 * math.sqrt(0.99 * 0.01 / reps)
        for n in (160, 1600):
            hits = 0
            for _ in range(reps):
                lg = rng.geometric(0.6, n)
                tg = lg + 2 * rng.poisson(0.25 * lg)
                e = estimate_speed(GapSample(level_gaps=lg, time_gaps=tg))
                hits += e.ci_low < 2 / 3 < e.ci_high
            assert abs(hits / reps - 0.99) <= tol, (n, hits / reps)


class TestSigma:
    def test_blocks_by_hand(self):
        # y = level_gap - v * time_gap = (0.5, 1.5): variance 0.5, mean
        # time gap 2, so sigma^2 = 0.25
        gaps = GapSample(np.array([1, 3]), np.array([1, 3]))
        est = estimate_sigma(gaps, 0.5)
        assert isinstance(est, float)
        assert est == pytest.approx(0.5)

    def test_direct_by_hand(self):
        est = direct_sigma([0.0, 2.0], 1, 0.0)
        assert est == pytest.approx(math.sqrt(2.0))
        with pytest.raises(InvalidInputError):
            direct_sigma([0.0, 2.0], 0, 0.0)


class TestGeometricTail:
    def test_both_fits_recover_the_decay_rate(self):
        # P(G >= k) = a^(k-1) on {1, 2, ...}
        a = 0.6
        u = 1.0 - np.random.default_rng(8).random(5000)  # uniform on (0, 1]
        gaps = [1 + int(math.log(x) / math.log(a)) for x in u]
        mle, reg = fit_geometric_tail(gaps)
        assert isinstance(mle, TailFit)
        assert mle.a_hat == pytest.approx(a, abs=0.02)
        assert reg.a_hat == pytest.approx(a, abs=0.03)
        assert reg.r_squared > 0.98

    def test_too_few_gaps(self):
        with pytest.raises(InsufficientDataError):
            fit_geometric_tail([1, 2] * 100)


class TestMomentCheck:
    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0, 50.0])
    def test_constant_sample_is_finite_at_every_power(self, p):
        rep = moment_check([2.0] * 400, p)
        assert rep.finite
        assert rep.tail_index == math.inf
        assert rep.estimate == pytest.approx(2.0 ** p, rel=1e-12)
        assert rep.std_error == pytest.approx(0.0, abs=1e-12 * 2.0 ** p)
        assert rep.n_samples == 400

    def test_hill_estimate_by_hand(self):
        # n = 100, so k = 10: the top ten are 2^1..2^10 over x_(11) = 1
        x = [1.0] * 90 + [2.0 ** j for j in range(1, 11)]
        rep = moment_check(x, 1.0)
        assert rep.tail_index == pytest.approx(1.0 / (5.5 * math.log(2.0)))
        lo, hi = rep.index_ci
        assert lo < rep.tail_index < hi
        assert rep.estimate == pytest.approx(np.mean(x))

    @pytest.mark.parametrize("seed", range(8))
    def test_keyed_gamma_weight_sums_far_from_the_index(self, seed):
        # b=2, gamma:0.5,2: the sum is Exp with mean 2, and 1/sum has tail
        # index b k = 1
        inv = 1.0 / weight_sums(EnvSpec(b=2, kind="gamma:0.5,2", seed=seed),
                                2000)
        assert moment_check(inv, 0.5).finite
        assert not moment_check(inv, 2.0).finite

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            moment_check([1.0] * 49, 1.0)


class TestChiSquareIndependence:
    # The tail is the finite sum stats._chi2_tail (Abramowitz & Stegun
    # 26.4.4-5), and scipy.stats.chi2.sf is only the oracle.  The two round
    # differently: on 20,000 statistics per dof they agreed to 3.1e-13 or
    # better up to dof 361, bit for bit on 1-15% of them.  So the check is
    # a relative 1e-12, not equality.
    @pytest.mark.parametrize("b", range(2, 17))
    def test_p_value_is_exactly_the_chi2_tail(self, b):
        rng = np.random.default_rng(100 + b)
        for _ in range(50):
            table = rng.integers(1, 40, size=(b, b))
            stat, p, dof = chi_square_independence(table)
            assert dof == (b - 1) ** 2
            assert p == pytest.approx(scipy.stats.chi2.sf(stat, dof),
                                      rel=1e-12)
            expected = scipy.stats.chi2_contingency(table, correction=False)
            assert stat == pytest.approx(expected.statistic, rel=1e-12)

    @pytest.mark.parametrize("dof", [1, 2, 3, 4, 9, 16, 225, 361])
    def test_tail_on_a_grid(self, dof):
        assert _chi2_tail(dof, 0.0) == 1.0
        top = dof + 40.0 * math.sqrt(dof) + 100.0
        for stat in np.concatenate((np.geomspace(1e-12, 1.0, 25),
                                    np.linspace(1.0, top, 200))):
            assert _chi2_tail(dof, stat) == pytest.approx(
                scipy.stats.chi2.sf(stat, dof), rel=1e-12)

    def test_independent_table_has_statistic_zero(self):
        # an outer product of margins over the total: every cell expected
        stat, p, dof = chi_square_independence([[1, 2], [2, 4]])
        assert (stat, p, dof) == (0.0, 1.0, 1)

    def test_far_tail(self):
        # diagonal b x b table with n per cell: statistic n b (b - 1)
        stat, p, dof = chi_square_independence(100 * np.eye(4))
        assert stat == pytest.approx(1200.0, rel=1e-12)
        assert 0.0 < p < 1e-100
        assert p == pytest.approx(scipy.stats.chi2.sf(stat, dof), rel=1e-12)

    @pytest.mark.parametrize("table", [[1, 2, 3], [[1, 2, 3]], [[1], [2]]])
    def test_smaller_than_two_by_two_is_rejected(self, table):
        with pytest.raises(InvalidInputError):
            chi_square_independence(table)

    @pytest.mark.parametrize("table", [[[0, 0], [0, 0]], [[0, 0], [1, 2]],
                                       [[0, 3], [0, 2]]])
    def test_empty_row_or_column_is_degenerate(self, table):
        with pytest.raises(DegenerateDataError):
            chi_square_independence(table)
