"""Quenched quantities of a fixed environment: the non-return probability
beta at the root, the never-return-to-either quantity gamma, their negative
moments over environments, and moment bounds for geometric variables.

beta is computed by the bottom-up fixed-point recursion

    beta = S / (1 + S),    S = sum_i A_i * beta_child_i,

on the depth-D truncation with boundary value one.  Boundary-one makes the
depth-D value exactly the quenched probability of reaching depth D before
the parent sentinel, which decreases monotonically to beta as D grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import streams
from .env import (
    EnvSpec,
    MomentReport,
    make_weight_sampler,
    moment_diagnostics,
    parse_descriptor,
    transition_probs,
)
from .errors import (
    DataQualityError,
    DegenerateDataError,
    InsufficientDataError,
    InvalidInputError,
)

DEPTH_CAP = 2 ** 14
NODE_BUDGET = 2_000_000


@dataclass(frozen=True)
class BetaValue:
    """Root non-return probability at the deepest evaluated truncation.

    ``upper_gap`` estimates the remaining truncation error: the last
    inter-depth drop extrapolated by its observed geometric decay rate.
    The truncated sequence is nonincreasing, so value - upper_gap brackets
    the limit when the decay estimate holds.  ``child_values`` are the
    root children's values one level shallower, exactly the inputs that
    produced ``value``.
    """

    value: float
    depth: int
    upper_gap: float
    converged: bool
    child_values: Tuple[float, ...]
    probs: Tuple[float, ...]


def _nodes_with_weights(b: int, depth: int) -> int:
    return (b ** depth - 1) // (b - 1) if b > 1 else depth


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


class _TruncationLadder:
    """Evaluates the boundary-one truncated beta at successive depths.

    For constant environments this is a scalar iteration.  For random
    environments the per-level weight arrays are enumerated once and
    reused: evaluating one more depth costs one new level of digests and
    weights plus a cheap array sweep per evaluation.
    """

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self.b = spec.b
        name, args = parse_descriptor(spec.kind)
        self.scalar = name == "const"
        if self.scalar:
            self._c = args[0]
            self._x = 1.0  # boundary value before any levels
            self._child = 1.0
            self.depth = 0
        else:
            self._sampler = make_weight_sampler(spec)
            self._digests: List[bytes] = [streams.root_digest(spec.seed)]
            self._digest_level = 0
            self._weights: List[np.ndarray] = []
            self.depth = 0

    def nodes_at_next_depth(self) -> int:
        return _nodes_with_weights(self.b, self.depth + 1)

    def _extend_weights(self, levels: int) -> None:
        child = streams.child_digest
        b = self.b
        sampler = self._sampler
        while len(self._weights) < levels:
            if self._digest_level < len(self._weights):
                self._digests = [child(dg, i) for dg in self._digests
                                 for i in range(1, b + 1)]
                self._digest_level += 1
            level = self._digests
            w = np.empty((len(level), b), dtype=np.float64)
            for j, dg in enumerate(level):
                w[j] = sampler(dg)
            self._weights.append(w)

    def advance(self) -> Tuple[float, Tuple[float, ...], Tuple[float, ...]]:
        """Value at depth+1: (root value, child values, root probs)."""
        self.depth += 1
        if self.scalar:
            s = self._c * self.b * self._x
            self._child = self._x
            self._x = s / (1.0 + s)
            return self._x, (self._child,) * self.b, transition_probs((self._c,) * self.b)
        d = self.depth
        self._extend_weights(d)
        beta = np.ones(self.b ** d, dtype=np.float64)
        child_vals: Tuple[float, ...] = (1.0,) * self.b
        for lvl in range(d - 1, -1, -1):
            w = self._weights[lvl]
            if lvl == 0:
                child_vals = tuple(beta[: self.b])
            s = (w * beta.reshape(w.shape[0], self.b)).sum(axis=1)
            beta = s / (1.0 + s)
        return float(beta[0]), child_vals, transition_probs(tuple(self._weights[0][0]))


def beta_root(spec: EnvSpec, depth: int = 1, tol: float = 1e-6,
              depth_cap: int = DEPTH_CAP, node_budget: int = NODE_BUDGET,
              rel_tol: float = 0.0) -> BetaValue:
    """Deepening evaluation of the root non-return probability.

    The truncation depth grows one level at a time, at least to ``depth``,
    until the estimated remaining error drops below ``tol`` (or below
    ``rel_tol`` times the value, when rel_tol is positive), the depth cap
    is reached, or (for random environments, whose truncated tree must be
    enumerated) the next level would exceed the node budget.  Weight
    arrays are shared across depths, so deepening is incremental.
    """
    if depth < 1:
        raise InvalidInputError("depth must be at least 1")
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    ladder = _TruncationLadder(spec)
    value, children, probs = ladder.advance()
    gaps: List[float] = []
    err = float("inf")
    converged = False
    while True:
        if ladder.depth >= depth_cap:
            break
        if not ladder.scalar and ladder.nodes_at_next_depth() > node_budget:
            break
        new_value, children, probs = ladder.advance()
        gaps.append(value - new_value)
        value = new_value
        err = _tail_estimate(gaps)
        if ladder.depth >= depth and err < max(tol, rel_tol * value):
            converged = True
            break
    return BetaValue(value=value, depth=ladder.depth, upper_gap=err,
                     converged=converged, child_values=children, probs=probs)


def gamma_vertex(probs: Sequence[float], child_betas: Sequence[float]) -> float:
    """Probability of escaping through a child and never coming back:
    gamma = sum_i omega(child_i) * beta_child_i."""
    if len(probs) != len(child_betas) + 1:
        raise InvalidInputError("probs must be (parent, children...) for these children")
    for x in child_betas:
        if not 0.0 <= x <= 1.0:
            raise InvalidInputError("child betas must lie in [0, 1]")
    return float(np.dot(probs[1:], child_betas))


def effectively_converged(bv: BetaValue, rel_tol: float = 0.02) -> bool:
    """Accept a depth-capped value whose last doubling moved it by under
    ``rel_tol`` relatively.  Random environments hit the node budget long
    before an absolute 1e-6 gap; a small relative gap still pins the value
    well enough for Monte Carlo comparisons, while recurrent environments
    (value and gap of the same size) stay rejected."""
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
    if p <= 0:
        raise InvalidInputError("p must be positive")
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
class BetaMomentReport(MomentReport):
    """A moment estimate plus the per-environment solutions behind it, in
    draw order; environments that did not converge are listed here but
    left out of the estimate."""

    betas: Tuple[BetaValue, ...] = ()


def negative_moment_of_beta(spec: EnvSpec, p: float, n_envs: int = 200,
                            depth: int = 1, tol: float = 1e-4,
                            variant: str = "beta", epsilon: float = 0.3,
                            max_nonconverged: float = 0.01,
                            rel_tol: float = 0.05) -> BetaMomentReport:
    """Monte Carlo E[beta^(-p)] over environments, or the cutoff variant
    E[gamma^(-p) 1{omega(parent) <= 1 - epsilon}].

    Environments are drawn by sub-seed; each is solved by ``beta_root``.
    More than ``max_nonconverged`` of environments failing to converge is
    a data-quality error rather than a silently biased estimate.
    """
    if n_envs < 100:
        raise InsufficientDataError("need at least 100 environments")
    if variant not in ("beta", "gamma_indicator"):
        raise InvalidInputError("variant must be beta or gamma_indicator")
    if not 0.0 < epsilon < 1.0 / 3.0:
        raise InvalidInputError("epsilon must lie in (0, 1/3)")
    vals = np.empty(n_envs, dtype=np.float64)
    betas: List[BetaValue] = []
    bad = 0
    for i in range(n_envs):
        sub = spec.subseed(b"beta-env", i)
        bv = beta_root(sub, depth=depth, tol=tol, rel_tol=0.4 * rel_tol)
        betas.append(bv)
        if not effectively_converged(bv, rel_tol):
            bad += 1
            vals[i] = np.nan
        elif variant == "beta":
            vals[i] = bv.value ** (-p)
        elif bv.probs[0] > 1.0 - epsilon:
            vals[i] = 0.0
        else:
            vals[i] = gamma_vertex(bv.probs, bv.child_values) ** (-p)
    if bad > max_nonconverged * n_envs:
        raise DataQualityError(
            f"{bad}/{n_envs} environments failed to converge")
    vals = vals[np.isfinite(vals)]
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(len(vals)))
    share, drift = moment_diagnostics(vals)
    name = "E[beta^-p]" if variant == "beta" else "E[gamma^-p; omega_parent <= 1-eps]"
    return BetaMomentReport(
        quantity=name,
        estimate=est,
        std_error=se,
        n_samples=len(vals),
        method="mc",
        suspect_divergence=bool(share > 0.5 or drift > 0.25),
        max_batch_share=share,
        half_drift=drift,
        betas=tuple(betas),
    )
