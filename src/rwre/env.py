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

A vertex's weight vector is read front to back from its weight stream,
the lanes of its blocks digest + b"W" + block4 (see ``streams``):
``uniform`` reads b lanes, ``lognormal`` 2b and ``lerrw:1.0`` 1 + 2b (an
exponential, then b cosine-branch Box-Muller normals).  The gamma laws
(``gamma``, ``lerrw`` with delta != 1) draw their variates in order by
Marsaglia-Tsang rejection (Marsaglia & Tsang 2000, ACM TOMS 26(3)): a
shape below one reads one boost lane, then each proposal reads three
lanes (two when 1 + c x <= 0 rejects it) until one is accepted.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Tuple

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
        name, args = parse_descriptor(self.kind)  # validates
        # A bounded law's b largest weights must sum to a finite float, or
        # the row sums of the walk and the beta ladder are inf.
        if name in ("const", "uniform", "lognormal"):
            top = (args[0] if name == "const" else args[1] if name == "uniform"
                   else math.exp(args[0] + args[1] * _NORMAL_MAX))
            if math.isinf(self.b * top):
                raise ConfigError(f"{self.kind} at b = {self.b} draws weights "
                                  "whose sum passes the largest float")
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

    The sampler reads the vertex's weight stream front to back, so the
    result is a pure function of (seed, vertex).  It depends on the law
    only, not on the seed, so it is built once per (b, kind) and shared;
    it finds ``streams.uniforms_from`` when it is called, so a wrapper
    installed there later still sees every block.

    Every law but ``const`` is compiled, once per (b, kind), into one
    straight-line function that reads each lane by a constant index: the
    fixed-lane laws all of their lanes, the gamma laws the first proposal
    of each variate.  A compiled sampler hashes the blocks of the lanes it
    reads up front, and a rejection restarts from lane 0 on those blocks:
    when a first proposal is rejected, a gamma sampler draws the whole
    vector again in ``_gamma_variates``, which hashes further blocks only
    as it reads past them.  The restart repeats the operations of the
    variates accepted so far, so values and blocks match the loop's.
    """
    return _weight_sampler(spec.b, spec.kind)


def _lane(i: int) -> str:
    """Source of the uniform of lane i of a vertex's weight stream: word
    i % 8 of its block i // 8, mapped as ``streams`` maps a word."""
    return f"((w{i >> 3}[{i & 7}] >> 11) * two53 + two54)"


def _normal(i: int) -> str:
    """Source of the cosine-branch Box-Muller normal of lanes i and i + 1."""
    return f"(sqrt(-2.0 * log({_lane(i)})) * cos(two_pi * {_lane(i + 1)}))"


def _compile_sampler(kind: str, n_lanes: int, body: List[str],
                     children: List[str], variates: List[str],
                     **params: object) -> Callable[[bytes], WeightVector]:
    """A sampler written out as straight-line source for one law and one b,
    the way ``collections.namedtuple`` writes its methods.

    It hashes the weight blocks of lanes 0 .. ``n_lanes`` - 1 up front, in
    order, into ``w0``, ``w1``, .. through ``streams.uniforms_from`` as it
    finds it when called: every lane the body reads lies in those blocks.
    Then it runs the statements ``body`` and returns the tuple of the
    expressions ``children``, one per child.  A gamma law's ``variates``
    name the variates the children read; the same expressions then make
    ``finish``, the map from those variates to the weights, which the
    body's rejection exits call on a restart from lane 0 on those blocks.
    Only lane and block indices are written
    into the source; the law's parameters are names in the function's
    namespace, so no float goes through its repr.
    """
    weights = f"({''.join(c + ', ' for c in children)})"
    lines = []
    if variates:
        lines += [f"def finish({', '.join(variates)}):",
                  f"    return {weights}"]
    lines += ["def sampler(digest):",
              "    hash_block = streams.uniforms_from"]
    for m in range((n_lanes + 7) >> 3):
        key = b"W" + m.to_bytes(4, "little")  # see the streams layout
        lines.append(f"    w{m} = hash_block(digest + {key!r})")
    lines += [f"    {s}" for s in body]
    lines.append(f"    return {weights}")
    namespace = dict(params, streams=streams, log=math.log, sqrt=math.sqrt,
                     cos=math.cos, exp=math.exp, two53=streams.TWO53,
                     two54=streams.TWO54, two_pi=streams.TWO_PI)
    exec(compile("\n".join(lines), f"<{kind} sampler, b={len(children)}>",
                 "exec"), namespace)
    return namespace["sampler"]


def _gamma_constants(shape: float) -> Tuple[float, float, float]:
    """The Marsaglia-Tsang constants of one gamma shape: d, c and the
    boost exponent, 0.0 for a shape of at least one (no boost draw)."""
    power = 0.0
    if shape < 1.0:
        power = 1.0 / shape
        shape += 1.0
    d = shape - 1.0 / 3.0
    return d, 1.0 / math.sqrt(9.0 * d), power


def _gamma_variates(prepared: List[Tuple[float, float, float]],
                    prefix: bytes, words: Tuple[int, ...]) -> List[float]:
    """The gamma variates of a weight vector by Marsaglia-Tsang rejection,
    read from lane 0 of its weight stream.

    ``prepared`` holds each variate's ``_gamma_constants``, ``prefix`` is
    the digest followed by b"W", and ``words`` the words of the weight
    blocks already hashed, from block 0 on.  A shape below one returns the
    variate of shape + 1 times u ** (1 / shape), u its boost lane; other
    shapes read no boost lane.  Further blocks are hashed only when a lane
    of them is read, through ``streams.uniforms_from`` as this function
    finds it when called.
    """
    log = math.log
    sqrt = math.sqrt
    cos = math.cos
    two_pi = streams.TWO_PI
    two53 = streams.TWO53
    two54 = streams.TWO54
    pos = 0
    out = []
    for d, c, power in prepared:
        boost_lane = pos
        if power:
            pos += 1
        while True:
            # Reading ahead when fewer than three lanes remain hashes no
            # block early: the boost lane is read with the first proposal,
            # and a proposal rejected after two lanes is followed by
            # another, which reads at least two more.
            if pos + 3 > len(words):
                words += streams.uniforms_from(
                    prefix + (len(words) >> 3).to_bytes(4, "little"))
            u1 = (words[pos] >> 11) * two53 + two54
            u2 = (words[pos + 1] >> 11) * two53 + two54
            pos += 2
            x = sqrt(-2.0 * log(u1)) * cos(two_pi * u2)
            t = 1.0 + c * x
            if t <= 0.0:
                continue
            v = t * t * t
            u = (words[pos] >> 11) * two53 + two54
            pos += 1
            x2 = x * x
            if u < 1.0 - 0.0331 * x2 * x2:
                break
            if log(u) < 0.5 * x2 + d - d * v + d * log(v):
                break
        z = d * v
        if power:
            z *= ((words[boost_lane] >> 11) * two53 + two54) ** power
        out.append(z)
    return out


def _compile_gamma(kind: str, shapes: Tuple[float, ...], children: List[str],
                   **params: float) -> Callable[[bytes], WeightVector]:
    """The compiled sampler of a gamma law: the variates z0, z1, .. of
    ``shapes`` mapped to the weights ``children``.

    It hashes up front the blocks of each variate's boost lane and first
    proposal, and reads those lanes as ``_gamma_variates`` reads them.  A
    rejected first proposal returns ``finish(*gamma_variates(prepared,
    digest + b"W", <all those blocks' words>))``: a restart from lane 0,
    which reads every lane of those blocks before it hashes another, since
    each variate takes its boost lane and at least one three-lane
    proposal.  So every path hashes the loop's blocks in the loop's order.
    """
    prepared = [_gamma_constants(g) for g in shapes]
    n_lanes = sum(4 if power else 3 for _, _, power in prepared)
    words = " + ".join(f"w{m}" for m in range((n_lanes + 7) >> 3))
    body: List[str] = []
    pos = 0
    for i, (_, _, power) in enumerate(prepared):
        boost_lane = pos
        if power:
            pos += 1
        body += [
            f"x = {_normal(pos)}",
            f"t = 1.0 + c{i} * x",
            "v = t * t * t",
            "x2 = x * x",
            f"u = {_lane(pos + 2)}",
            "if t <= 0.0 or not (u < 1.0 - 0.0331 * x2 * x2 or log(u) < "
            f"0.5 * x2 + d{i} - d{i} * v + d{i} * log(v)):",
            "    return finish(*gamma_variates(prepared, digest + b'W', "
            f"{words}))",
            f"z{i} = d{i} * v"
            + (f" * {_lane(boost_lane)} ** p{i}" if power else ""),
        ]
        pos += 3
    names = {f"{name}{i}": x for i, consts in enumerate(prepared)
             for name, x in zip("dcp", consts)}
    return _compile_sampler(kind, n_lanes, body, children,
                            [f"z{i}" for i in range(len(prepared))],
                            prepared=prepared, gamma_variates=_gamma_variates,
                            **names, **params)


@lru_cache(maxsize=256)
def _weight_sampler(b: int, kind: str) -> Callable[[bytes], WeightVector]:
    """The sampler of ``make_weight_sampler`` for one law.  Building it
    calls no public function of this module, so the first run of a law
    makes the same public calls as every later one."""
    name, args = parse_descriptor(kind)
    if name == "const":
        w = (args[0],) * b

        def sampler(digest: bytes) -> WeightVector:
            return w

    elif name == "uniform":
        lo, hi = args
        sampler = _compile_sampler(
            kind, b, [], [f"lo + span * {_lane(c)}" for c in range(b)], [],
            lo=lo, span=hi - lo)

    elif name == "lognormal":
        mu, sd = args
        sampler = _compile_sampler(
            kind, 2 * b, [],
            [f"exp(mu + sd * {_normal(2 * c)})" for c in range(b)], [],
            mu=mu, sd=sd)

    elif name == "gamma":
        shape, scale = args
        sampler = _compile_gamma(kind, (shape,) * b,
                                 [f"scale * z{c}" for c in range(b)],
                                 scale=scale)

    else:  # lerrw
        g0, g = _lerrw_gamma_shapes(args[0])
        if g == 0.5 and g0 == 1.0:
            # Reinforcement one: the parent variate is Exp(1) and each
            # child variate is half a squared standard normal.
            sampler = _compile_sampler(
                kind, 2 * b + 1, [f"z0 = -log({_lane(0)})"]
                + [f"x{c} = {_normal(2 * c + 1)}" for c in range(b)],
                [f"0.5 * x{c} * x{c} / z0" for c in range(b)], [])

        else:
            sampler = _compile_gamma(kind, (g0,) + (g,) * b,
                                     [f"z{c} / z0" for c in range(1, b + 1)])

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
        if t == -1:
            return (math.log(hi) - math.log(lo)) / (hi - lo)
        try:
            top = hi ** (t + 1)
        except OverflowError:
            top = math.inf
        if sys.float_info.min <= top < math.inf:
            return (top - lo ** (t + 1)) / ((hi - lo) * (t + 1))
        # hi ** (t + 1) is past the largest float or below the smallest
        # normal one, but the moment is at most hi ** t: take that factor out
        r = lo / hi
        return hi ** t * ((1.0 - r ** (t + 1)) / ((1.0 - r) * (t + 1)))
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

