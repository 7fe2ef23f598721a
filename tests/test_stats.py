"""Statistics on hand-computed inputs and on seeded samples with known law."""

import math

import numpy as np
import pytest
import scipy.stats

from rwre import streams
from rwre.errors import InsufficientDataError, InvalidInputError
from rwre.regen import GapSample
from rwre.stats import (
    SigmaEstimate,
    StabilityReport,
    TailFit,
    direct_sigma,
    doubling_stability,
    estimate_sigma,
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


class TestSigma:
    def test_blocks_by_hand(self):
        # y = level_gap - v * time_gap = (0.5, 1.5): variance 0.5, mean
        # time gap 2, so sigma^2 = 0.25
        gaps = GapSample(np.array([1, 3]), np.array([1, 3]), drop_first=True)
        est = estimate_sigma(gaps, 0.5)
        assert isinstance(est, SigmaEstimate)
        assert est.sigma_hat == pytest.approx(0.5)
        assert est.method == "regeneration_blocks"

    def test_direct_by_hand(self):
        est = direct_sigma([0.0, 2.0], 1, 0.0)
        assert est.sigma_hat == pytest.approx(math.sqrt(2.0))
        assert est.method == "direct_variance"
        with pytest.raises(InvalidInputError):
            direct_sigma([0.0, 2.0], 0, 0.0)


class TestGeometricTail:
    def test_both_fits_recover_the_decay_rate(self):
        # P(G >= k) = a^(k-1) on {1, 2, ...}
        a = 0.6
        s = streams.labeled_stream(8, b"tail")
        gaps = [1 + int(math.log(s.uniform()) / math.log(a)) for _ in range(5000)]
        mle, reg = fit_geometric_tail(gaps)
        assert isinstance(mle, TailFit)
        assert mle.method == "geometric_mle"
        assert reg.method == "log_survival_regression"
        assert mle.a_hat == pytest.approx(a, abs=0.02)
        assert reg.a_hat == pytest.approx(a, abs=0.03)
        assert reg.r_squared > 0.98

    def test_too_few_gaps(self):
        with pytest.raises(InsufficientDataError):
            fit_geometric_tail([1, 2] * 100)


class TestDoublingStability:
    def test_constant_sample_is_stable(self):
        rep = doubling_stability([2.0] * 400, 3.0)
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
