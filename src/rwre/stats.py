"""Statistics over gap samples and level processes: speed, diffusion
constant, geometric tail fits, normality tests, chi-square tests, and
finiteness checks for empirical moments.

The Kolmogorov-Smirnov p-values use the asymptotic Kolmogorov
distribution, and every caller here has n >= 100.  Against the exact law
of D_n (``scipy.stats.kstwo``), at the statistic whose exact p is 0.01 or
1e-4 the asymptotic p reads 0.01135 or 1.263e-4 at n = 100 and 0.01054 or
1.087e-4 at n = 500, so these tests reject less often than their nominal
level.  The chi-square tail at a contingency table's integer dof is a
finite sum (``_chi2_tail``).  Only numpy is needed at run time; scipy
serves the tests as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    InvalidInputError,
)

if TYPE_CHECKING:
    from .regen import GapSample

_T15_995 = 2.946712883475238  # 0.995 quantile of Student's t, 15 dof
_Z995 = 2.5758293035489004  # 0.995 quantile of the standard normal
_SQRT2 = math.sqrt(2.0)

# Fractions of the walk length at which the FCLT reads the level process.
FCLT_TIMES = (0.25, 0.5, 0.75, 1.0)


def kolmogorov_sf(lam: float) -> float:
    """Tail of the Kolmogorov distribution, Q(lam) = 2 sum (-1)^(j-1) e^(-2 j^2 lam^2).

    Truncated at 100 terms or when a term drops below 1e-10; the series
    alternates, so the truncation error is below the first dropped term.
    As a p-value for D_n at finite n it reads high, so a test at level
    alpha rejects less often than alpha (see the module docstring).
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
    batches, which absorbs mild dependence left near the guard boundary;
    its quantile is Student's t with 15 degrees of freedom.
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
        ci_low=v - _T15_995 * se,
        ci_high=v + _T15_995 * se,
        n_gaps=n,
    )


# ---------------------------------------------------------------- sigma


def estimate_sigma(gaps: GapSample, v: float) -> float:
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
    return math.sqrt(var / float(gaps.time_gaps.mean()))


def direct_sigma(final_levels: Sequence[float], n: int, v: float) -> float:
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
    return math.sqrt(var / n)


# ---------------------------------------------------------------- tail fit


@dataclass(frozen=True)
class TailFit:
    a_hat: float
    r_squared: float
    k_range: Tuple[int, int]


def fit_geometric_tail(level_gaps: Sequence[int]) -> Tuple[TailFit, TailFit]:
    """Fit P(gap >= k) ~ a^k two ways and report both.

    The MLE treats gap - 2 as geometric on {0, 1, ...} over the gaps of at
    least 2; real gap laws are geometric only in the tail, and conditioning
    makes the MLE estimate the same decay rate the regression sees.  The
    regression fits a line to the log empirical survival over every k
    observed by at least 30 gaps; its r-squared measures how straight the
    log-tail actually is.
    """
    g = np.asarray(level_gaps, dtype=np.int64)
    if len(g) < 1000:
        raise InsufficientDataError("need at least 1000 gaps for a tail fit")
    if g.min() < 1:
        raise InvalidInputError("gaps must be positive")
    if g.max() == g.min():
        raise DegenerateDataError("all gaps equal: no tail to fit")
    tail = g[g >= 2] - 2
    if len(tail) < 100:
        raise InsufficientDataError(
            f"only {len(tail)} gaps reach 2; tail MLE needs 100")
    m = float(tail.mean())
    a_mle = m / (1.0 + m)
    mle = TailFit(a_hat=a_mle, r_squared=float("nan"),
                  k_range=(2, int(g.max())))

    n = len(g)
    counts = np.bincount(g)
    exceed = n - np.concatenate(([0], np.cumsum(counts)))[: len(counts)]
    ks = np.nonzero(exceed >= 30)[0]
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
                  k_range=(int(ks[0]), int(ks[-1])))
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


def _chi2_tail(dof: int, stat: float) -> float:
    """P(X >= stat) for X chi-square with integer ``dof`` >= 1.

    With h = stat/2 and m = dof // 2 (Abramowitz & Stegun 26.4.4-5), the
    tail is sum_{j<m} e^-h h^s / Gamma(s + 1) over s = j at even dof, and
    erfc(sqrt(h)) plus the same sum over s = j + 1/2 at odd dof.  Each term
    is taken in log space and the terms are added by ``math.fsum``.
    """
    if stat <= 0.0:
        return 1.0
    m, odd = divmod(dof, 2)
    h = 0.5 * stat
    log_h = math.log(h)
    terms = [math.exp(-h + s * log_h - math.lgamma(s + 1.0))
             for s in (j + 0.5 * odd for j in range(m))]
    return math.fsum([math.erfc(math.sqrt(h)) if odd else 0.0, *terms])


def chi_square_independence(table: Sequence[Sequence[float]]) -> Tuple[float, float, int]:
    """Independence test for a two-way contingency table.

    The p-value is the chi-square upper tail at the table's integer dof,
    ``_chi2_tail(dof, stat)``.  Against ``scipy.stats.chi2.sf``, the tests'
    oracle, on 20,000 statistics per dof drawn uniformly from [0, dof +
    10 sqrt(2 dof) + 20], its largest relative error was 3.1e-14 at dof 1,
    at most 7.8e-15 at dof 4, 9 and 16, and 3.1e-13 at dof 361.
    """
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
    return stat, _chi2_tail(dof, stat), dof


# ---------------------------------------------------------------- FCLT


@dataclass(frozen=True)
class FcltReport:
    increment_tests: Tuple[NormalityReport, ...]
    correlations: Tuple[float, ...]
    correlation_limit: float
    passed: bool


def fclt_increment_test(levels_at_times: np.ndarray, n: int, v: float,
                        sigma: float, alpha: float) -> FcltReport:
    """Brownian-increment checks on the rescaled level process.

    ``levels_at_times`` holds one row per walk with the level at steps
    floor(n t) for each t in ``FCLT_TIMES``.  Increments between
    consecutive times are standardized by v and sigma and tested for (i)
    standard normality via KS and (ii) pairwise correlations within 3
    standard errors of zero.  Increments start at the first time, not at
    zero, so the start-up transient near the root cancels; a plug-in
    error dv still shifts every z by dv*sqrt(dt)/sigma, which is why v
    must come from a large fit sample.
    """
    lv = np.asarray(levels_at_times, dtype=np.float64)
    if lv.ndim != 2 or lv.shape[1] != len(FCLT_TIMES):
        raise InvalidInputError("levels_at_times must be (walks, len(FCLT_TIMES))")
    m = lv.shape[0]
    if m < 500:
        raise InsufficientDataError("need at least 500 walks")
    if sigma <= 0:
        raise InvalidInputError("sigma must be positive")
    steps = [math.floor(n * t) for t in FCLT_TIMES]
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
        passed=ok,
    )


# ---------------------------------------------------------------- moments


@dataclass(frozen=True)
class MomentCheck:
    """A sample's p-th absolute moment and whether it is finite."""

    estimate: float
    std_error: float
    n_samples: int
    tail_index: float
    index_ci: Tuple[float, float]
    finite: bool


def moment_check(samples: Sequence[float], p: float) -> MomentCheck:
    """Mean of |x|^p with its standard error, and a verdict on whether
    E|X|^p is finite: it is exactly when the tail index of |X| exceeds p.

    The index is Hill's estimator (Hill 1975, Ann. Statist. 3) on the top
    k = floor(sqrt(n)) order statistics, one over the mean of
    log(x_(i) / x_(k+1)) for i <= k.  Over an exact Pareto tail, k times
    the true index over Hill's is Gamma(k, 1); the two-sided 99% interval
    takes that law's quantiles in the Wilson-Hilferty form.  The moment is
    called infinite only when the whole interval lies below p.  Hill reads
    low where the tail is Pareto only asymptotically, so for such laws a
    finite moment with p just below the index is called infinite more
    often than 0.5% of the time.
    """
    x = np.abs(np.asarray(samples, dtype=np.float64))
    n = len(x)
    if n < 50:
        raise InsufficientDataError("need at least 50 samples")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("samples must be finite")
    k = math.isqrt(n)
    top = np.sort(x)[-k - 1:]
    if top[0] <= 0.0:
        raise DegenerateDataError(f"fewer than {k + 1} nonzero samples")
    mean_log = float(np.log(top[1:] / top[0]).mean())
    index = math.inf if mean_log == 0.0 else 1.0 / mean_log
    lo, hi = (index * (1.0 - 1.0 / (9 * k) + z / (3.0 * math.sqrt(k))) ** 3
              for z in (-_Z995, _Z995))
    y = x ** p
    return MomentCheck(
        estimate=float(y.mean()),
        std_error=float(y.std(ddof=1) / math.sqrt(n)),
        n_samples=n,
        tail_index=index,
        index_ci=(lo, hi),
        finite=bool(hi >= p),
    )
