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
from rwre.regen import GapSample
from rwre.stats import (
    StabilityReport,
    TailFit,
    chi_square_independence,
    direct_sigma,
    doubling_stability,
    estimate_sigma,
    estimate_speed,
    fit_geometric_tail,
    kolmogorov_sf,
)


class TestKolmogorov:
    @pytest.mark.parametrize("lam", [0.3, 0.8, 1.0, 1.3581, 2.0])
    def test_matches_scipy_limit_law(self, lam):
        assert kolmogorov_sf(lam) == pytest.approx(
            scipy.stats.kstwobign.sf(lam), abs=1e-9)

    def test_nonpositive_argument(self):
        assert kolmogorov_sf(0.0) == 1.0


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


class TestDoublingStability:
    def test_constant_sample_is_stable(self):
        rep = doubling_stability([2.0] * 400, 3.0, rel_tol=0.05)
        assert isinstance(rep, StabilityReport)
        assert rep.passed
        assert rep.estimate == pytest.approx(8.0)
        assert rep.drift == 0.0

    def test_late_spike_fails(self):
        x = [1.0] * 400
        x[-1] = 100.0
        rep = doubling_stability(x, 1.0, rel_tol=0.05)
        assert not rep.passed
        assert rep.drift == pytest.approx(1.0 - 1.0 / rep.estimate)


class TestChiSquareIndependence:
    # The tail comes from scipy.special.chdtrc, the routine behind
    # scipy.stats.chi2.sf, so the p-value must match it bit for bit.
    @pytest.mark.parametrize("b", [2, 3, 4, 5])
    def test_p_value_is_exactly_the_chi2_tail(self, b):
        rng = np.random.default_rng(100 + b)
        for _ in range(50):
            table = rng.integers(1, 40, size=(b, b))
            stat, p, dof = chi_square_independence(table)
            assert dof == (b - 1) ** 2
            assert p == scipy.stats.chi2.sf(stat, dof)
            expected = scipy.stats.chi2_contingency(table, correction=False)
            assert stat == pytest.approx(expected.statistic, rel=1e-12)

    def test_independent_table_has_statistic_zero(self):
        # an outer product of margins over the total: every cell expected
        stat, p, dof = chi_square_independence([[1, 2], [2, 4]])
        assert (stat, p, dof) == (0.0, 1.0, 1)

    def test_far_tail(self):
        # diagonal b x b table with n per cell: statistic n b (b - 1)
        stat, p, dof = chi_square_independence(100 * np.eye(4))
        assert stat == pytest.approx(1200.0, rel=1e-12)
        assert 0.0 < p < 1e-100
        assert p == scipy.stats.chi2.sf(stat, dof)

    @pytest.mark.parametrize("table", [[1, 2, 3], [[1, 2, 3]], [[1], [2]]])
    def test_smaller_than_two_by_two_is_rejected(self, table):
        with pytest.raises(InvalidInputError):
            chi_square_independence(table)

    @pytest.mark.parametrize("table", [[[0, 0], [0, 0]], [[0, 0], [1, 2]],
                                       [[0, 3], [0, 2]]])
    def test_empty_row_or_column_is_degenerate(self, table):
        with pytest.raises(DegenerateDataError):
            chi_square_independence(table)
