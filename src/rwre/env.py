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
                       ((1+delta)/(2*delta), 1/(2*delta), .., 1/(2*delta))

The lerrw shapes are those of the Dirichlet representation of linearly
edge-reinforced walk on a tree (Pemantle 1988, Ann. Probab. 16) with unit
initial edge weights and reinforcement delta: each crossing adds delta to
the edge crossed.  The walk first enters a vertex through its parent
edge, which then weighs 1 + delta against 1 for each child edge, and
every later excursion out and back adds 2*delta to the edge it used; the
exits form a Polya urn whose limit law is Dirichlet with shapes equal to
those weights over 2*delta.  At the root the parent edge is the sentinel
edge, taken as already crossed once.  ``lerrw:delta`` is therefore not
initial edge weight delta.

The lerrw components share the Z_0 denominator, so they are exchangeable
but not independent; all other kinds have i.i.d. components.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Tuple

import numpy as np

from . import streams
from .errors import ConfigError, InvalidInputError
from .tree import VertexPath, validate_path

WeightVector = Tuple[float, ...]
ProbVector = Tuple[float, ...]

KINDS = ("const", "uniform", "gamma", "lognormal", "lerrw")

# The largest |N(0,1)| the samplers draw: Box-Muller from a uniform of at
# least 2^-54, computed as they compute it.
_NORMAL_MAX = math.sqrt(-2.0 * math.log(streams.TWO54))
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
        """Spec for an independent replica, derived reproducibly.

        It equals ``EnvSpec(b, kind, derive_seed(seed, tag, index))``, but
        is not validated again: ``b`` and ``kind`` were checked with this
        spec, and a derived seed is a 64-bit word.
        """
        spec = object.__new__(EnvSpec)
        # the stores the constructor makes, without __post_init__
        object.__setattr__(spec, "b", self.b)
        object.__setattr__(spec, "kind", self.kind)
        object.__setattr__(spec, "seed",
                           streams.derive_seed(self.seed, tag, index))
        return spec


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
    if not all(math.isfinite(a) for a in args):
        raise ConfigError(f"non-finite parameters in descriptor {kind!r}")
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
        # exp(mu + s x) of the samplers' largest x must be a finite float
        if args[0] + args[1] * _NORMAL_MAX > _LOG_FLOAT_MAX:
            raise ConfigError(f"lognormal {kind!r} draws weights past the "
                              "largest float")
    elif name == "lerrw":
        if len(args) != 1 or args[0] <= 0:
            raise ConfigError("lerrw requires a positive reinforcement delta")
    return name, args


def _lerrw_gamma_shapes(delta: float) -> Tuple[float, float]:
    """(shape of Z_0, shape of each Z_i) in the gamma representation."""
    return (1.0 + delta) / (2.0 * delta), 1.0 / (2.0 * delta)


def make_weight_sampler(spec: EnvSpec) -> Callable[[bytes], WeightVector]:
    """A fast sampler mapping a vertex digest to that vertex's weight vector.

    The sampler reads the vertex's flat weight stream (see ``streams``)
    front to back, so the result is a pure function of (seed, vertex).  It
    depends on the law only, not on the seed, so it is built once per
    (b, kind) and shared; it finds ``streams.uniforms_from`` when it is
    called, so a wrapper installed there later still sees every block.
    """
    return _weight_sampler(spec.b, spec.kind)


@lru_cache(maxsize=256)
def _weight_sampler(b: int, kind: str) -> Callable[[bytes], WeightVector]:
    """The sampler of ``make_weight_sampler`` for one law.  Building it
    calls no public function of this module, so the first run of a law
    makes the same public calls as every later one."""
    name, args = parse_descriptor(kind)
    words_of = streams.weight_words
    log = math.log
    sqrt = math.sqrt
    cos = math.cos
    exp = math.exp
    two53 = streams.TWO53
    two54 = streams.TWO54
    two_pi = streams.TWO_PI
    if name == "const":
        w = (args[0],) * b

        def sampler(digest: bytes) -> WeightVector:
            return w

    elif name == "uniform":
        lo, hi = args
        span = hi - lo
        n_blocks = (b + 7) // 8

        def sampler(digest: bytes) -> WeightVector:
            words = words_of(digest, n_blocks)
            return tuple([lo + span * ((words[i] >> 11) * two53 + two54)
                          for i in range(b)])

    elif name == "lognormal":
        mu, sd = args
        n_blocks = (2 * b + 7) // 8

        def sampler(digest: bytes) -> WeightVector:
            words = words_of(digest, n_blocks)
            out = []
            for i in range(0, 2 * b, 2):
                x = (sqrt(-2.0 * log((words[i] >> 11) * two53 + two54))
                     * cos(two_pi * ((words[i + 1] >> 11) * two53 + two54)))
                out.append(exp(mu + sd * x))
            return tuple(out)

    elif name == "gamma":
        shape, scale = args
        gammas = streams.gamma_sampler((shape,) * b)

        def sampler(digest: bytes) -> WeightVector:
            return tuple([scale * x for x in gammas(digest)])

    else:  # lerrw
        g0, g = _lerrw_gamma_shapes(args[0])
        if g == 0.5 and g0 == 1.0:
            # Reinforcement one: the parent variate is Exp(1) and each
            # child variate is half a squared standard normal.
            n_blocks = (2 * b + 8) // 8

            def sampler(digest: bytes) -> WeightVector:
                words = words_of(digest, n_blocks)
                z0 = -log((words[0] >> 11) * two53 + two54)
                out = []
                for i in range(1, 2 * b, 2):
                    x = (sqrt(-2.0 * log((words[i] >> 11) * two53 + two54))
                         * cos(two_pi * ((words[i + 1] >> 11) * two53 + two54)))
                    out.append(0.5 * x * x / z0)
                return tuple(out)

        else:
            gammas = streams.gamma_sampler((g0,) + (g,) * b)

            def sampler(digest: bytes) -> WeightVector:
                z = gammas(digest)
                z0 = z[0]
                return tuple([z[i] / z0 for i in range(1, b + 1)])

    return sampler


def sample_weights(spec: EnvSpec, v: VertexPath) -> WeightVector:
    """Weight vector of vertex ``v``; deterministic in (spec, v)."""
    validate_path(v, spec.b)
    return make_weight_sampler(spec)(streams.vertex_digest(spec.seed, v))


def transition_probs(w: WeightVector) -> ProbVector:
    """One-step law out of a vertex: parent edge first, then children.

    The parent edge has weight one, so the parent entry is 1/(1+sum(w)).
    A weight of exactly zero is a legal draw (a gamma variate of shape
    below one can underflow) and gives its child probability zero.
    """
    if len(w) < 1:
        raise InvalidInputError("weight vector must have at least one entry")
    for x in w:
        if not (x >= 0) or math.isinf(x):
            raise InvalidInputError("weights must be non-negative and finite")
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
        log_m = mu * t + 0.5 * sd * sd * t * t
        return math.exp(log_m) if log_m <= _LOG_FLOAT_MAX else math.inf
    g0, g = _lerrw_gamma_shapes(args[0])
    if g0 - t <= 0 or g + t <= 0:
        return math.inf
    return math.exp(
        math.lgamma(g + t) - math.lgamma(g) + math.lgamma(g0 - t) - math.lgamma(g0)
    )


def check_assumption_a(spec: EnvSpec) -> float:
    """inf over t in [0,1] of E[A^t]; the walk is transient when it
    exceeds 1/b.

    The infimum is taken over a uniform grid of 101 values of t, in
    closed form: every supported weight law has closed-form fractional
    moments.
    """
    return min(marginal_weight_moment(spec, float(t))
               for t in np.linspace(0.0, 1.0, 101))


def weight_sum_tail_index(spec: EnvSpec) -> float:
    """Tail index of 1/(A_1 + .. + A_b) in closed form: E[(sum A)^-p] is
    finite exactly when p is below it.

    The index is the power of s in P(sum A < s) as s -> 0: b*k for
    gamma:k,theta (the sum is Gamma(b*k, theta)), b for uniform:0,hi (the
    sum's density is ~ s^(b-1) at 0), and b/(2 delta) for lerrw:delta
    (see ``lerrw_negative_moment_cf``).  Every other law keeps the sum
    away from zero or has all its negative moments, so the index is inf.
    """
    name, args = parse_descriptor(spec.kind)
    if name == "gamma":
        return spec.b * args[0]
    if name == "lerrw":
        return spec.b / (2.0 * args[0])
    if name == "uniform" and args[0] == 0:
        return float(spec.b)
    return math.inf


def weight_sums(spec: EnvSpec, n_samples: int) -> np.ndarray:
    """A_1 + .. + A_b over ``n_samples`` independently keyed vertices
    (stream b"s"), for Monte Carlo moments of the weight sum."""
    sampler = make_weight_sampler(spec)
    return np.array([
        math.fsum(sampler(streams.sample_digest(spec.seed, b"s", i)))
        for i in range(n_samples)])


def lerrw_negative_moment_cf(b: int, p: float, delta: float) -> float:
    """Closed form of E[(sum A)^(-p)] for the lerrw law.

    With x = 1/(1 + sum A) a Beta((1+delta)/(2 delta), b/(2 delta)) variable,
    the moment is B(g0 + p, b*g - p) / B(g0, b*g); it is finite exactly when
    p < b/(2 delta), and +inf otherwise.
    """
    if b < 1 or p <= 0 or delta <= 0:
        raise InvalidInputError("need b >= 1, p > 0, delta > 0")
    g0, g = _lerrw_gamma_shapes(delta)
    bg = b * g
    if bg - p <= 0:
        return math.inf
    return math.exp(
        math.lgamma(g0 + p) - math.lgamma(g0) + math.lgamma(bg - p) - math.lgamma(bg)
    )

