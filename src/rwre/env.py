"""Random environments on the b-regular tree.

Every vertex carries a weight vector A = (A_1, .., A_b), one positive weight
per child edge; the parent edge always has weight 1.  The walk leaves a
vertex through child i with probability A_i / (1 + sum(A)) and through the
parent edge with probability 1 / (1 + sum(A)).  Weight vectors are i.i.d.
across vertices and are reproduced on demand from the master seed, so the
(infinite) environment is never materialized.

Weight laws are named by short descriptor strings:

    const:c            every child weight equals c
    uniform:lo,hi      i.i.d. uniform on [lo, hi]
    gamma:k,theta      i.i.d. gamma, shape k, scale theta
    lognormal:mu,s     i.i.d. exp(mu + s N(0,1))
    lerrw:delta        A_i = Z_i / Z_0 with (Z_0, .., Z_b) Dirichlet
                       ((1+delta)/(2*delta), 1/(2*delta), .., 1/(2*delta));
                       the discrete skeleton of linearly edge-reinforced
                       walk with initial edge weight delta

The lerrw components share the Z_0 denominator, so they are exchangeable
but not independent; all other kinds have i.i.d. components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from . import streams
from .errors import ConfigError, InvalidInputError
from .tree import SENTINEL, Vertex, validate_path

WeightVector = Tuple[float, ...]
ProbVector = Tuple[float, ...]

KINDS = ("const", "uniform", "gamma", "lognormal", "lerrw")


@dataclass(frozen=True)
class EnvSpec:
    """Immutable description of an environment law: branching number, weight
    descriptor, and master seed."""

    b: int
    kind: str
    seed: int

    def __post_init__(self):
        if not isinstance(self.b, int) or self.b < 1:
            raise InvalidInputError("branching number b must be a positive integer")
        if self.b > 255:
            raise InvalidInputError("branching numbers above 255 are not supported")
        parse_descriptor(self.kind)  # validates
        streams.seed_bytes(self.seed)

    def subseed(self, tag: bytes, index: int) -> "EnvSpec":
        """Spec for an independent replica, derived reproducibly."""
        return replace(self, seed=streams.derive_seed(self.seed, tag, index))


@dataclass(frozen=True)
class MomentReport:
    """Outcome of a scalar moment estimate or check."""

    quantity: str
    estimate: float
    std_error: Optional[float]
    n_samples: Optional[int]
    method: str
    passed: Optional[bool] = None
    threshold: Optional[float] = None
    suspect_divergence: Optional[bool] = None
    max_batch_share: Optional[float] = None
    half_drift: Optional[float] = None


@lru_cache(maxsize=256)
def parse_descriptor(kind: str) -> Tuple[str, Tuple[float, ...]]:
    """Split and validate a weight-law descriptor string."""
    if not isinstance(kind, str) or ":" not in kind:
        raise ConfigError(f"malformed weight descriptor {kind!r}")
    name, _, argstr = kind.partition(":")
    if name not in KINDS:
        raise ConfigError(f"unknown weight kind {name!r}; expected one of {KINDS}")
    try:
        args = tuple(float(a) for a in argstr.split(","))
    except ValueError:
        raise ConfigError(f"non-numeric parameters in descriptor {kind!r}") from None
    if name == "const":
        if len(args) != 1 or args[0] <= 0:
            raise ConfigError("const requires a single positive value")
    elif name == "uniform":
        if len(args) != 2 or not (0 <= args[0] < args[1]):
            raise ConfigError("uniform requires 0 <= lo < hi")
    elif name == "gamma":
        if len(args) != 2 or args[0] <= 0 or args[1] <= 0:
            raise ConfigError("gamma requires positive shape and scale")
    elif name == "lognormal":
        if len(args) != 2 or args[1] < 0:
            raise ConfigError("lognormal requires mu and s >= 0")
    elif name == "lerrw":
        if len(args) != 1 or args[0] <= 0:
            raise ConfigError("lerrw requires a positive reinforcement delta")
    return name, args


def lerrw_gamma_shapes(delta: float) -> Tuple[float, float]:
    """(shape of Z_0, shape of each Z_i) in the gamma representation."""
    return (1.0 + delta) / (2.0 * delta), 1.0 / (2.0 * delta)


def make_weight_sampler(spec: EnvSpec) -> Callable[[bytes], WeightVector]:
    """A fast sampler mapping a vertex digest to that vertex's weight vector.

    The sampler consumes the vertex's dedicated uniform stream front to
    back, so the result is a pure function of (seed, vertex).
    """
    name, args = parse_descriptor(spec.kind)
    b = spec.b
    if name == "const":
        w = (args[0],) * b

        def sampler(digest: bytes) -> WeightVector:
            return w

    elif name == "uniform":
        lo, hi = args
        span = hi - lo

        def sampler(digest: bytes) -> WeightVector:
            s = streams.weight_stream(digest)
            u = s.uniform
            return tuple([lo + span * u() for _ in range(b)])

    elif name == "gamma":
        shape, scale = args

        def sampler(digest: bytes) -> WeightVector:
            s = streams.weight_stream(digest)
            ga = s.gamma
            return tuple([scale * ga(shape) for _ in range(b)])

    elif name == "lognormal":
        mu, sd = args

        def sampler(digest: bytes) -> WeightVector:
            s = streams.weight_stream(digest)
            nm = s.normal
            return tuple([math.exp(mu + sd * nm()) for _ in range(b)])

    else:  # lerrw
        g0, g = lerrw_gamma_shapes(args[0])
        if g == 0.5 and g0 == 1.0:
            # Reinforcement one: the parent variate is Exp(1) and each
            # child variate is half a squared standard normal.

            def sampler(digest: bytes) -> WeightVector:
                s = streams.weight_stream(digest)
                z0 = s.exponential()
                nm = s.normal
                out = []
                for _ in range(b):
                    x = nm()
                    out.append(0.5 * x * x / z0)
                return tuple(out)

        else:

            def sampler(digest: bytes) -> WeightVector:
                s = streams.weight_stream(digest)
                ga = s.gamma
                z0 = ga(g0)
                return tuple([ga(g) / z0 for _ in range(b)])

    return sampler


def sample_weights(spec: EnvSpec, v: Vertex) -> WeightVector:
    """Weight vector of vertex ``v``; deterministic in (spec, v)."""
    if v is SENTINEL:
        raise InvalidInputError("the sentinel has no weight vector")
    validate_path(v, spec.b)
    return make_weight_sampler(spec)(streams.vertex_digest(spec.seed, v))


def transition_probs(w: WeightVector) -> ProbVector:
    """One-step law out of a vertex: parent edge first, then children.

    The parent edge has weight one, so the parent entry is 1/(1+sum(w)).
    """
    if len(w) < 1:
        raise InvalidInputError("weight vector must have at least one entry")
    for x in w:
        if not (x > 0) or math.isinf(x):
            raise InvalidInputError("weights must be positive and finite")
    total = 1.0 + math.fsum(w)
    return (1.0 / total,) + tuple(x / total for x in w)


def marginal_weight_moment(spec: EnvSpec, t: float) -> float:
    """E[A^t] for a single child weight, in closed form; may be inf."""
    name, args = parse_descriptor(spec.kind)
    if name == "const":
        return args[0] ** t
    if name == "uniform":
        lo, hi = args
        if t == 0:
            return 1.0
        if lo == 0 and t <= -1:
            return math.inf
        return (hi ** (t + 1) - lo ** (t + 1)) / ((hi - lo) * (t + 1))
    if name == "gamma":
        shape, scale = args
        if shape + t <= 0:
            return math.inf
        return scale ** t * math.exp(math.lgamma(shape + t) - math.lgamma(shape))
    if name == "lognormal":
        mu, sd = args
        return math.exp(mu * t + 0.5 * sd * sd * t * t)
    g0, g = lerrw_gamma_shapes(args[0])
    if g0 - t <= 0 or g + t <= 0:
        return math.inf
    return math.exp(
        math.lgamma(g + t) - math.lgamma(g) + math.lgamma(g0 - t) - math.lgamma(g0)
    )


def check_assumption_a(
    spec: EnvSpec,
    n_grid: int = 101,
    method: str = "closed_form",
    n_samples: int = 100_000,
) -> MomentReport:
    """Transience criterion: inf over t in [0,1] of E[A^t] must exceed 1/b.

    The infimum is taken over a uniform t grid.  All supported weight laws
    have closed-form fractional moments; the Monte Carlo route exists as an
    independent cross-check.
    """
    if n_grid < 2:
        raise InvalidInputError("need at least two grid points")
    if method not in ("closed_form", "mc"):
        raise InvalidInputError("method must be 'closed_form' or 'mc'")
    grid = np.linspace(0.0, 1.0, n_grid)
    threshold = 1.0 / spec.b
    if method == "closed_form":
        vals = [marginal_weight_moment(spec, float(t)) for t in grid]
        est = min(vals)
        report = MomentReport(
            quantity="inf_t E[A^t]",
            estimate=est,
            std_error=None,
            n_samples=None,
            method="closed_form",
            threshold=threshold,
            passed=bool(est > threshold),
        )
        return report
    a = _marginal_samples(spec, n_samples)
    loga = np.log(a)
    best = math.inf
    best_se = None
    for t in grid:
        vals = np.exp(loga * t)
        m = float(vals.mean())
        if m < best:
            best = m
            best_se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return MomentReport(
        quantity="inf_t E[A^t]",
        estimate=best,
        std_error=best_se,
        n_samples=n_samples,
        method="mc",
        threshold=threshold,
        passed=bool(best > threshold),
    )


def _marginal_samples(spec: EnvSpec, n: int) -> np.ndarray:
    """n draws of the single-edge weight A, via the first component of the
    weight vector of n independently seeded copies."""
    sampler = make_weight_sampler(spec)
    out = np.empty(n)
    for i in range(n):
        dg = streams._blake(b"m" + streams.seed_bytes(spec.seed) + i.to_bytes(8, "little"),
                            digest_size=16).digest()
        out[i] = sampler(dg)[0]
    return out


def _sum_weight_samples(spec: EnvSpec, n: int) -> np.ndarray:
    sampler = make_weight_sampler(spec)
    out = np.empty(n)
    for i in range(n):
        dg = streams._blake(b"s" + streams.seed_bytes(spec.seed) + i.to_bytes(8, "little"),
                            digest_size=16).digest()
        out[i] = math.fsum(sampler(dg))
    return out


def moment_diagnostics(vals: np.ndarray, n_batches: int = 8) -> Tuple[float, float]:
    """Divergence heuristics for a nonnegative sample of a moment statistic.

    Returns (max batch share, relative half-sample drift): the largest
    fraction of the total mass carried by one of ``n_batches`` contiguous
    batches, and |mean - half-sample mean| / mean.  Both stay small for
    integrable statistics at these sample sizes and either grows on the
    heavy-tailed boundary; neither is a proof.
    """
    n = len(vals)
    total = float(vals.sum())
    if total <= 0:
        return 0.0, 0.0
    cut = n - n % n_batches
    shares = vals[:cut].reshape(n_batches, -1).sum(axis=1) / total
    est = total / n
    half = float(vals[: n // 2].mean())
    return float(shares.max()), abs(est - half) / est


def negative_moment_mc(
    spec: EnvSpec,
    p: float,
    n_samples: int = 100_000,
    n_batches: int = 8,
    max_share: float = 0.5,
    drift_limit: float = 0.25,
) -> MomentReport:
    """Monte Carlo estimate of E[(A_1 + .. + A_b)^(-p)] with divergence flags.

    Two heuristics mark a suspect estimate: a single batch of the 8-way
    split carrying more than half the total mass, or the full-sample mean
    drifting from the half-sample mean by more than ``drift_limit``
    relatively.  Either fires on the heavy-tailed boundary cases; neither
    is a proof.
    """
    if p <= 0:
        raise InvalidInputError("p must be positive")
    if n_samples < n_batches * 2:
        raise InvalidInputError("need at least two samples per batch")
    s = _sum_weight_samples(spec, n_samples)
    vals = s ** (-p)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    max_batch_share, drift = moment_diagnostics(vals, n_batches)
    return MomentReport(
        quantity=f"E[(sum A)^-{p}]",
        estimate=est,
        std_error=se,
        n_samples=n_samples,
        method="mc",
        suspect_divergence=bool(max_batch_share > max_share or drift > drift_limit),
        max_batch_share=max_batch_share,
        half_drift=float(drift),
    )


def lerrw_negative_moment_cf(b: int, p: float, delta: float = 1.0) -> float:
    """Closed form of E[(sum A)^(-p)] for the lerrw law.

    With x = 1/(1 + sum A) a Beta((1+delta)/(2 delta), b/(2 delta)) variable,
    the moment is B(g0 + p, b*g - p) / B(g0, b*g); it is finite exactly when
    p < b/(2 delta), and +inf otherwise.
    """
    if b < 1 or p <= 0 or delta <= 0:
        raise InvalidInputError("need b >= 1, p > 0, delta > 0")
    g0, g = lerrw_gamma_shapes(delta)
    bg = b * g
    if bg - p <= 0:
        return math.inf
    return math.exp(
        math.lgamma(g0 + p) - math.lgamma(g0) + math.lgamma(bg - p) - math.lgamma(bg)
    )


def lerrw_negative_moment_quadrature(b: int, p: float, delta: float = 1.0) -> float:
    """Adaptive quadrature of the same moment, gamma-function free.

    Integrates (x/(1-x))^p against the Beta density of x = 1/(1 + sum A),
    normalizing by a second quadrature of the bare density, so the route is
    independent of the closed form.  Only defined in the finite regime.
    """
    from scipy.integrate import quad

    g0, g = lerrw_gamma_shapes(delta)
    bg = b * g
    if bg - p <= 0:
        raise InvalidInputError("moment is infinite for p >= b/(2 delta)")
    num, num_err = quad(lambda x: 1.0, 0.0, 1.0, weight="alg", wvar=(g0 + p - 1.0, bg - p - 1.0))
    den, den_err = quad(lambda x: 1.0, 0.0, 1.0, weight="alg", wvar=(g0 - 1.0, bg - 1.0))
    if den <= 0 or not math.isfinite(num):
        raise InvalidInputError("quadrature failed to converge")
    return num / den


def lerrw_fclt_condition(b: int, delta: float) -> bool:
    """Whether some p > 2 has E[(sum A)^-p] finite: requires delta < b/4."""
    if b < 1 or delta <= 0:
        raise InvalidInputError("need b >= 1 and delta > 0")
    return delta < b / 4.0
