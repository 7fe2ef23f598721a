"""Quenched quantities of a fixed environment: the non-return probability
beta at the root, its negative moments over environments, and moment
bounds for geometric variables.

beta is computed by the bottom-up fixed-point recursion

    beta = S / (1 + S),    S = sum_i A_i * beta_child_i,

on the depth-D truncation with boundary value one.  Boundary-one makes the
depth-D value exactly the quenched probability of reaching depth D before
the parent sentinel, which decreases monotonically to beta as D grows.

A random environment's truncation is enumerated level by level, and its
memory is what the recursion needs: the float64 weights of every level and
the deepest level's 16-byte digests in one blob.  At the two-million node
budget (b = 4, depth 11, 1,398,101 nodes) that peaks near 61 bytes per
node, about 85 MB of arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, List, Tuple

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


def _children(parents: bytes, b: int, out: bytearray) -> Iterator[List[bytes]]:
    """The child digests of a level in order, in batches of 64 parents'
    children, each batch also written to its place in ``out``.
    ``parents`` holds the level's 16-byte digests end to end, and ``out``
    has room for b times as many.  Each parent is hashed once: one
    ``streams.child_digests`` call gives its b children.

    Batches keep the hashing and the sampling in tight separate loops, as
    a list of the whole level would, while no per-node object outlives
    its batch.
    """
    child_digests = streams.child_digests
    step = 16 * 64
    for start in range(0, len(parents), step):
        kids = [kid for k in range(start, min(start + step, len(parents)), 16)
                for kid in child_digests(parents[k:k + 16], b)]
        out[start * b:(start + step) * b] = b"".join(kids)
        yield kids


def _truncation_ladder(spec: EnvSpec) -> Iterator[float]:
    """The boundary-one truncated beta at depths 1, 2, ...

    For constant environments this is a scalar iteration without end.  A
    random environment's tree is enumerated one level per depth, only when
    that depth's value is asked for.  Between depths the ladder holds the
    float64 weights of every level (8b bytes per node) and the deepest
    level's digests as one blob of 16 bytes per node.  A new level is
    hashed from that blob and sampled batch by batch (``_children``), and
    its sweep starts from the level's row sums (the boundary is one, so S
    is the sum of the weights), with at most two arrays of one level alive
    besides the weights.  The ladder ends once the next depth would take
    the tree past two million weight nodes: at b = 4 after depth 11, whose
    sweep peaks near 61 bytes per node (85 MB for 1,398,101 nodes).
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
    digests = streams.root_digest(spec.seed)
    level: Iterable[bytes] = (digests,)
    weights: List[np.ndarray] = []
    n = 1  # nodes of the deepest level
    nodes = 0  # weight nodes down to the current depth
    while True:
        w = np.fromiter(chain.from_iterable(map(sampler, level)),
                        dtype=np.float64, count=n * b).reshape(n, b)
        weights.append(w)
        nodes += n
        beta = w.sum(axis=1)  # S at the deepest level: the boundary is one
        beta /= 1.0 + beta
        for w in islice(reversed(weights), 1, None):
            beta = (w * beta.reshape(w.shape[0], b)).sum(axis=1)
            beta /= 1.0 + beta
        yield float(beta[0])
        if nodes + n * b > 2_000_000:
            return
        parents, digests = digests, bytearray(16 * n * b)
        level = chain.from_iterable(_children(parents, b, digests))
        del parents  # the pass holds the only reference, and frees it
        n *= b


def beta_root(spec: EnvSpec, tol: float, rel_tol: float) -> BetaValue:
    """Deepening evaluation of the root non-return probability.

    The truncation depth grows one level at a time until the estimated
    remaining error drops below ``tol`` (or below ``rel_tol`` times the
    value, when that is larger) and below the value itself, the depth
    reaches ``DEPTH_CAP``, or (for random environments, whose truncated
    tree must be enumerated) the next level would take the tree past two
    million weight nodes.  Deepening is incremental: each depth samples
    one new level and sweeps the levels it holds (see
    ``_truncation_ladder``), so a random environment costs the weights of
    the nodes down to its last depth plus 16 bytes of digest per node of
    that depth, about 61 bytes per node at the node budget, and the call
    frees all of it when it returns.
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
    C_p = p^(p+1) e^(-p) + Gamma(p+1).  Raises ``InvalidInputError`` where
    a term of the sum or the bound overflows a float (from p ~ 63.2 at
    theta = 0.01).
    """
    if not 0.0 < theta < 1.0:
        raise InvalidInputError("theta must lie in (0, 1)")
    if not 0.0 < p < math.inf:
        raise InvalidInputError("p must be positive and finite")
    q = 1.0 - theta
    lam = -math.log(q)
    exact = 0.0
    try:
        c_p = p ** (p + 1) * math.exp(-p) + math.gamma(p + 1)
        bound = 1.0 + c_p * theta / lam ** (p + 1)
        k = 1
        qk = q
        # k^p q^k is eventually decreasing; past the mode the remaining tail
        # is dominated by term / (1 - q), so stop once that dips below 1e-12.
        mode = p / lam
        while True:
            term = k ** p * qk * theta
            exact += term
            if k > mode and term / theta * q / (1.0 - q) < 1e-12:
                break
            k += 1
            qk *= q
            if k > 10_000_000:
                raise DegenerateDataError(
                    "series did not reach the tail tolerance")
    except (OverflowError, ZeroDivisionError):
        bound = math.inf
    if not (math.isfinite(exact) and math.isfinite(bound)):
        raise InvalidInputError(
            f"E[Y^p] or its bound overflows a float at p = {p}, theta = {theta}")
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
