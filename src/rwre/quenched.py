"""Quenched quantities of a fixed environment: the non-return probability
beta at the root, its negative moments over environments, and moment
bounds for geometric variables.

beta is computed by the bottom-up fixed-point recursion

    beta = S / (1 + S),    S = sum_i A_i * beta_child_i,

on the depth-D truncation with boundary value one.  Boundary-one makes the
depth-D value exactly the quenched probability of reaching depth D before
the parent sentinel, which decreases monotonically to beta as D grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator, List, Tuple

import numpy as np

from . import streams
from .env import EnvSpec, make_weight_sampler, parse_descriptor
from .errors import (
    DataQualityError,
    DegenerateDataError,
    InsufficientDataError,
    InvalidInputError,
)

DEPTH_CAP = 2 ** 14


@dataclass(frozen=True)
class BetaValue:
    """Root non-return probability at the deepest evaluated truncation.

    ``upper_gap`` estimates the remaining truncation error: the last
    inter-depth drop extrapolated by its observed geometric decay rate.
    The truncated sequence is nonincreasing, so value - upper_gap brackets
    the limit when the decay estimate holds.
    """

    value: float
    depth: int
    upper_gap: float
    converged: bool


def _tail_estimate(gaps: List[float]) -> float:
    """Remaining-error estimate from the last two inter-depth drops.

    If the drops decay geometrically at rate r, the tail past the last
    depth sums to about gap * r / (1 - r).  A non-decaying sequence gets
    an infinite estimate, which reads as not converged.
    """
    if len(gaps) < 2 or gaps[-1] <= 0.0:
        return float("inf") if not gaps or gaps[-1] > 0.0 else 0.0
    r = gaps[-1] / gaps[-2]
    if r >= 1.0:
        return float("inf")
    return gaps[-1] * r / (1.0 - r)


def _truncation_ladder(spec: EnvSpec) -> Iterator[float]:
    """The boundary-one truncated beta at depths 1, 2, ...

    For constant environments this is a scalar iteration without end.  For
    random environments the per-level weight arrays are enumerated once and
    reused: each depth draws one new level of digests and weights, only
    when its value is asked for, plus a cheap array sweep.  The ladder ends
    once the next depth would take the tree past two million weight nodes.
    """
    b = spec.b
    name, args = parse_descriptor(spec.kind)
    if name == "const":
        x = 1.0  # boundary value before any levels
        while True:
            s = args[0] * b * x
            x = s / (1.0 + s)
            yield x
    sampler = make_weight_sampler(spec)
    digests = [streams.root_digest(spec.seed)]
    weights: List[np.ndarray] = []
    nodes = 0  # weight nodes down to the current depth
    while True:
        n = len(digests)
        w = np.fromiter(chain.from_iterable(map(sampler, digests)),
                        dtype=np.float64, count=n * b)
        weights.append(w.reshape(n, b))
        nodes += n
        beta = np.ones(n * b, dtype=np.float64)
        for w in reversed(weights):
            s = (w * beta.reshape(w.shape[0], b)).sum(axis=1)
            beta = s / (1.0 + s)
        yield float(beta[0])
        if nodes + n * b > 2_000_000:
            return
        digests = [streams.child_digest(dg, i) for dg in digests
                   for i in range(1, b + 1)]


def beta_root(spec: EnvSpec, tol: float, rel_tol: float) -> BetaValue:
    """Deepening evaluation of the root non-return probability.

    The truncation depth grows one level at a time until the estimated
    remaining error drops below ``tol`` (or below ``rel_tol`` times the
    value, when that is larger) and below the value itself, the depth
    reaches ``DEPTH_CAP``, or (for random environments, whose truncated
    tree must be enumerated) the next level would take the tree past two
    million weight nodes.  Weight arrays are shared across depths, so
    deepening is incremental.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    ladder = islice(_truncation_ladder(spec), DEPTH_CAP)
    value = next(ladder)
    depth = 1
    gaps: List[float] = []
    err = float("inf")
    converged = False
    for depth, new_value in enumerate(ladder, start=2):
        gaps.append(value - new_value)
        value = new_value
        err = _tail_estimate(gaps)
        if err < min(value, max(tol, rel_tol * value)):
            converged = True
            break
    return BetaValue(value=value, depth=depth, upper_gap=err,
                     converged=converged)


def effectively_converged(bv: BetaValue, rel_tol: float) -> bool:
    """Accept a depth-capped value whose estimated remaining error,
    ``upper_gap`` (``_tail_estimate``'s extrapolated tail past the last
    one-level deepening), is under ``rel_tol`` relatively.  Random
    environments hit the node budget long before an absolute 1e-6 gap; a
    small relative gap still pins the value well enough for Monte Carlo
    comparisons, while recurrent environments (value and gap of the same
    size) stay rejected."""
    if bv.converged:
        return True
    return bv.value > 0.0 and bv.upper_gap <= rel_tol * bv.value


def geometric_moment_bound(theta: float, p: float) -> Tuple[float, float]:
    """(exact, bound) for E[Y^p] with Y geometric on {0,1,...}.

    Exact value by direct summation with additive tail below 1e-12; bound
    is 1 + C_p * theta / lambda^(p+1) with lambda = -ln(1-theta) and
    C_p = p^(p+1) e^(-p) + Gamma(p+1).
    """
    if not 0.0 < theta < 1.0:
        raise InvalidInputError("theta must lie in (0, 1)")
    if not 0.0 < p < math.inf:
        raise InvalidInputError("p must be positive and finite")
    q = 1.0 - theta
    lam = -math.log(q)
    c_p = p ** (p + 1) * math.exp(-p) + math.gamma(p + 1)
    bound = 1.0 + c_p * theta / lam ** (p + 1)
    exact = 0.0
    k = 1
    qk = q
    # k^p q^k is eventually decreasing; past the mode the remaining tail is
    # dominated by term / (1 - q), so stop once that bound dips below 1e-12.
    mode = p / lam
    while True:
        term = k ** p * qk * theta
        exact += term
        if k > mode and term / theta * q / (1.0 - q) < 1e-12:
            break
        k += 1
        qk *= q
        if k > 10_000_000:
            raise DegenerateDataError("series did not reach the tail tolerance")
    return exact, bound


@dataclass(frozen=True)
class BetaMomentReport:
    """A Monte Carlo estimate of E[beta^(-p)] plus the per-environment
    solutions behind it, in draw order; environments that did not
    converge are listed in ``betas`` but left out of ``values`` and the
    estimate."""

    estimate: float
    std_error: float
    n_samples: int
    values: np.ndarray
    betas: Tuple[BetaValue, ...]


def negative_moment_of_beta(spec: EnvSpec, p: float, n_envs: int,
                            rel_tol: float = 0.05) -> BetaMomentReport:
    """Monte Carlo E[beta^(-p)] over environments.

    Environments are drawn by sub-seed; each is solved by ``beta_root``.
    More than 1% of environments failing to converge is a data-quality
    error rather than a silently biased estimate.
    """
    if n_envs < 100:
        raise InsufficientDataError("need at least 100 environments")
    betas = [beta_root(spec.subseed(b"beta-env", i), tol=1e-4,
                       rel_tol=0.4 * rel_tol) for i in range(n_envs)]
    used = [bv.value for bv in betas if effectively_converged(bv, rel_tol)]
    bad = n_envs - len(used)
    if bad > 0.01 * n_envs:
        raise DataQualityError(
            f"{bad}/{n_envs} environments failed to converge")
    vals = np.array([v ** (-p) for v in used])
    return BetaMomentReport(
        estimate=float(vals.mean()),
        std_error=float(vals.std(ddof=1) / math.sqrt(len(vals))),
        n_samples=len(vals),
        values=np.array(used),
        betas=tuple(betas),
    )
