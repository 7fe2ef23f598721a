"""Statistics over gap samples and level processes: speed, diffusion
constant, geometric tail fits, normality tests, chi-square tests, and the
sample-doubling stability check for empirical moments.

The Kolmogorov-Smirnov p-values use the asymptotic Kolmogorov
distribution; every caller here has n >= 100, where the asymptotic
approximation error is far below the working level 0.01.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
import scipy.stats

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    InvalidInputError,
)
from .regen import GapSample

_Z99 = 2.5758293035489004
_SQRT2 = math.sqrt(2.0)


def kolmogorov_sf(lam: float) -> float:
    """Tail of the Kolmogorov distribution, Q(lam) = 2 sum (-1)^(j-1) e^(-2 j^2 lam^2).

    Truncated at 100 terms or when a term drops below 1e-10; the series
    alternates, so the truncation error is below the first dropped term.
    """
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    e = -2.0 * lam * lam
    for j in range(1, 101):
        term = math.exp(e * j * j)
        total += sign * term
        if term < 1e-10:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))


# ---------------------------------------------------------------- speed


@dataclass(frozen=True)
class SpeedEstimate:
    v_hat: float
    ci_low: float
    ci_high: float
    n_gaps: int


def estimate_speed(gaps: GapSample) -> SpeedEstimate:
    """Ratio estimator sum(level gaps)/sum(time gaps) with a batch-means CI.

    The 99% CI comes from the spread of the ratio over 16 contiguous
    batches, which absorbs mild dependence left near the guard boundary.
    """
    n = len(gaps)
    if n < 16:
        raise InsufficientDataError("need at least 16 gaps for a batch CI")
    lg = gaps.level_gaps.astype(np.float64)
    tg = gaps.time_gaps.astype(np.float64)
    v = float(lg.sum() / tg.sum())
    cut = n - n % 16
    bl = lg[:cut].reshape(16, -1).sum(axis=1)
    bt = tg[:cut].reshape(16, -1).sum(axis=1)
    ratios = bl / bt
    se = float(ratios.std(ddof=1) / 4.0)  # sqrt(16) batches
    return SpeedEstimate(
        v_hat=v,
        ci_low=v - _Z99 * se,
        ci_high=v + _Z99 * se,
        n_gaps=n,
    )


# ---------------------------------------------------------------- sigma


@dataclass(frozen=True)
class SigmaEstimate:
    sigma_hat: float
    method: str  # "regeneration_blocks" or "direct_variance"
    n: int


def estimate_sigma(gaps: GapSample, v: float) -> SigmaEstimate:
    """Per-step diffusion constant from regeneration blocks.

    The centered block variables level_gap - v * time_gap are i.i.d.; their
    variance divided by the mean time gap is the variance rate per step.
    """
    if not 0.0 < v <= 1.0:
        raise InvalidInputError("v must lie in (0, 1]")
    if len(gaps) < 2:
        raise InsufficientDataError("need at least 2 gaps")
    y = gaps.level_gaps - v * gaps.time_gaps
    var = float(np.var(y, ddof=1))
    if var == 0.0:
        raise DegenerateDataError("zero block variance: deterministic gaps")
    s2 = var / float(gaps.time_gaps.mean())
    return SigmaEstimate(sigma_hat=math.sqrt(s2), method="regeneration_blocks", n=len(gaps))


def direct_sigma(final_levels: Sequence[float], n: int, v: float) -> SigmaEstimate:
    """Diffusion constant from the endpoint spread of independent walks:
    Var(|X_n| - v n)/n over walks run for exactly n steps."""
    lv = np.asarray(final_levels, dtype=np.float64)
    if len(lv) < 2:
        raise InsufficientDataError("need at least 2 walks")
    if n < 1:
        raise InvalidInputError("n must be positive")
    var = float(np.var(lv - v * n, ddof=1))
    if var == 0.0:
        raise DegenerateDataError("zero endpoint variance")
    return SigmaEstimate(sigma_hat=math.sqrt(var / n), method="direct_variance", n=len(lv))


# ---------------------------------------------------------------- tail fit


@dataclass(frozen=True)
class TailFit:
    a_hat: float
    r_squared: float
    k_range: Tuple[int, int]
    method: str  # "geometric_mle" or "log_survival_regression"


def fit_geometric_tail(level_gaps: Sequence[int], min_exceedances: int = 30,
                       tail_from: int = 2) -> Tuple[TailFit, TailFit]:
    """Fit P(gap >= k) ~ a^k two ways and report both.

    The MLE treats gap - tail_from as geometric on {0, 1, ...} over the
    gaps of at least ``tail_from``; real gap laws are geometric only in
    the tail, and conditioning makes the MLE estimate the same decay
    rate the regression sees (``tail_from=1`` recovers the textbook
    full-sample MLE on gap - 1).  The regression fits a line to the log
    empirical survival over every k observed by at least
    ``min_exceedances`` gaps; its r-squared measures how straight the
    log-tail actually is.
    """
    g = np.asarray(level_gaps, dtype=np.int64)
    if len(g) < 1000:
        raise InsufficientDataError("need at least 1000 gaps for a tail fit")
    if g.min() < 1:
        raise InvalidInputError("gaps must be positive")
    if tail_from < 1:
        raise InvalidInputError("tail_from must be at least 1")
    if g.max() == g.min():
        raise DegenerateDataError("all gaps equal: no tail to fit")
    tail = g[g >= tail_from] - tail_from
    if len(tail) < 100:
        raise InsufficientDataError(
            f"only {len(tail)} gaps reach {tail_from}; tail MLE needs 100")
    m = float(tail.mean())
    a_mle = m / (1.0 + m)
    mle = TailFit(a_hat=a_mle, r_squared=float("nan"),
                  k_range=(int(tail_from), int(g.max())), method="geometric_mle")

    n = len(g)
    counts = np.bincount(g)
    exceed = n - np.concatenate(([0], np.cumsum(counts)))[: len(counts)]
    ks = np.nonzero(exceed >= min_exceedances)[0]
    ks = ks[ks >= 1]
    if len(ks) < 3:
        raise DegenerateDataError("fewer than 3 usable survival points")
    x = ks.astype(np.float64)
    y = np.log(exceed[ks] / n)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 0.0
    reg = TailFit(a_hat=float(math.exp(slope)), r_squared=r2,
                  k_range=(int(ks[0]), int(ks[-1])), method="log_survival_regression")
    return mle, reg


# ---------------------------------------------------------------- KS tests


@dataclass(frozen=True)
class NormalityReport:
    ks_statistic: float
    p_value: float
    n: int


def ks_normality_test(samples: Sequence[float]) -> NormalityReport:
    """One-sample KS test against the standard normal distribution."""
    x = np.asarray(samples, dtype=np.float64)
    if len(x) < 100:
        raise InsufficientDataError("need at least 100 samples")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("samples must be finite")
    n = len(x)
    xs = np.sort(x)
    cdf = 0.5 * (1.0 + np.array([math.erf(v / _SQRT2) for v in xs]))
    i = np.arange(1, n + 1)
    d = float(max((i / n - cdf).max(), (cdf - (i - 1) / n).max()))
    return NormalityReport(ks_statistic=d, p_value=kolmogorov_sf(math.sqrt(n) * d), n=n)


# ---------------------------------------------------------------- chi-square


def chi_square_independence(table: Sequence[Sequence[float]]) -> Tuple[float, float, int]:
    """Independence test for a two-way contingency table."""
    t = np.asarray(table, dtype=np.float64)
    if t.ndim != 2 or t.shape[0] < 2 or t.shape[1] < 2:
        raise InvalidInputError("table must be at least 2x2")
    rows = t.sum(axis=1)
    cols = t.sum(axis=0)
    total = t.sum()
    if total <= 0 or (rows == 0).any() or (cols == 0).any():
        raise DegenerateDataError("table has an empty row or column")
    exp = np.outer(rows, cols) / total
    stat = float(((t - exp) ** 2 / exp).sum())
    dof = (t.shape[0] - 1) * (t.shape[1] - 1)
    return stat, float(scipy.stats.chi2.sf(stat, dof)), dof


# ---------------------------------------------------------------- FCLT


@dataclass(frozen=True)
class FcltReport:
    increment_tests: Tuple[NormalityReport, ...]
    correlations: Tuple[float, ...]
    correlation_limit: float
    alpha: float
    passed: bool


def fclt_increment_test(levels_at_times: np.ndarray, n: int, v: float,
                        sigma: float, alpha: float = 0.01,
                        times: Sequence[float] = (0.25, 0.5, 0.75, 1.0)) -> FcltReport:
    """Brownian-increment checks on the rescaled level process.

    ``levels_at_times`` holds one row per walk with the level at steps
    floor(n t) for each listed t.  Increments between consecutive listed
    times are standardized by v and sigma and tested for (i) standard
    normality via KS and (ii) pairwise correlations within 3 standard
    errors of zero.  Increments start at the first listed time, not at
    zero, so the start-up transient near the root cancels; a plug-in
    error dv still shifts every z by dv*sqrt(dt)/sigma, which is why v
    must come from a large fit sample.
    """
    lv = np.asarray(levels_at_times, dtype=np.float64)
    if lv.ndim != 2 or lv.shape[1] != len(times):
        raise InvalidInputError("levels_at_times must be (walks, len(times))")
    if len(times) < 2:
        raise InvalidInputError("need at least two times")
    if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise InvalidInputError("times must be strictly increasing")
    if times[0] <= 0.0 or times[-1] > 1.0:
        raise InvalidInputError("times must lie in (0, 1]")
    m = lv.shape[0]
    if m < 500:
        raise InsufficientDataError("need at least 500 walks")
    if sigma <= 0:
        raise InvalidInputError("sigma must be positive")
    steps = [math.floor(n * t) for t in times]
    zs = []
    for j in range(1, len(steps)):
        dt = steps[j] - steps[j - 1]
        z = (lv[:, j] - lv[:, j - 1] - v * dt) / (sigma * math.sqrt(dt))
        zs.append(z)
    reports = tuple(ks_normality_test(z) for z in zs)
    corrs = []
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            corrs.append(float(np.corrcoef(zs[i], zs[j])[0, 1]))
    limit = 3.0 / math.sqrt(m)
    ok = all(r.p_value >= alpha for r in reports) and all(abs(c) <= limit for c in corrs)
    return FcltReport(
        increment_tests=reports,
        correlations=tuple(corrs),
        correlation_limit=limit,
        alpha=alpha,
        passed=ok,
    )


# ---------------------------------------------------------------- moments


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the sample-doubling stabilization diagnostic."""

    passed: bool
    drift: float
    estimate: float
    half_estimate: float
    n_samples: int
    power: float
    rel_tol: float


def doubling_stability(samples: Sequence[float], p: float,
                       rel_tol: float = 0.05) -> StabilityReport:
    """Sample-doubling check: does the running p-th moment settle?

    Compares the moment over the first half with the full sample; the check
    passes when the relative drift on that final doubling is below
    ``rel_tol``.
    """
    x = np.abs(np.asarray(samples, dtype=np.float64)) ** p
    if len(x) < 200:
        raise InsufficientDataError("need at least 200 samples")
    full = float(x.mean())
    half = float(x[: len(x) // 2].mean())
    if full == 0.0:
        return StabilityReport(passed=True, drift=0.0, estimate=0.0,
                               half_estimate=0.0, n_samples=len(x), power=p,
                               rel_tol=rel_tol)
    drift = abs(full - half) / full
    return StabilityReport(passed=drift < rel_tol, drift=drift, estimate=full,
                           half_estimate=half, n_samples=len(x), power=p,
                           rel_tol=rel_tol)
