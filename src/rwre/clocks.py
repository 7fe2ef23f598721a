"""Exponential-clock construction that drives every walk in this package.

Each oriented edge (v, u) with u a neighbor of v carries an i.i.d. sequence
of unit-mean exponential clocks Y(v, u, k), k = 0, 1, 2, ...  Sitting at v,
the walk leaves along the neighbor u (within the allowed subtree) whose
rate-scaled cumulative clock sum

    S(v, u) = sum_{j=0}^{k_u} Y(v, u, j) / r(v, u)

is smallest, where k_u counts the jumps already made from v to u and the
rate r(v, u) is 1 toward the parent and the child weight A_i toward child
i.  Competing exponentials reproduce the one-step law exactly, and because
the clocks are keyed (not drawn sequentially), a walk restricted to a
subtree consumes the very same clock values as the full walk: runs on
nested subtrees coincide step for step, and runs on edge-disjoint subtrees
are independent.

The engine below simulates any such walk lazily: vertices get 16-byte
chained digests on first visit, weight vectors and clock sums are created
on demand, and cumulative sums are advanced incrementally, so memory and
time are proportional to the number of distinct visited vertices plus the
number of steps.  The k = 0 race at a fresh vertex is one routine,
``_k0_clocks``, shared by the engine, ``first_child`` and
``walk.step_walk``, so single steps and full runs agree by construction.

Every run, full-tree walk or subtree extension alike, is recorded as one
``Trajectory``: the per-step levels (an int64 array), the per-step vertex
ids, and the per-vertex discovery structure from which vertex paths and
digests are rebuilt on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import streams
from .env import EnvSpec, make_weight_sampler, sample_weights
from .errors import DegenerateDataError, InvalidInputError
from .tree import (
    ROOT,
    SENTINEL,
    Vertex,
    VertexPath,
    is_ancestor_or_self,
    level,
    lowest_common_ancestor,
    parent,
    validate_path,
)

_INF = math.inf
_SENTINEL_ID = -1
_SENTINEL_DIGEST = b"\x00" * 16


@dataclass(frozen=True)
class ClockKey:
    """Oriented edge plus jump count; addresses one exponential variable."""

    from_vertex: Vertex
    to_vertex: Vertex
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise InvalidInputError("jump count k must be nonnegative")
        _slot_of(self.from_vertex, self.to_vertex)  # validates adjacency


def _slot_of(frm: Vertex, to: Vertex) -> int:
    """Direction slot of the oriented edge: 0 toward the parent, i toward
    child i.  Raises for non-neighbors."""
    if frm is SENTINEL:
        if to == ROOT:
            return 1
        raise InvalidInputError("the sentinel's only neighbor is the root")
    if to is SENTINEL:
        if frm == ROOT:
            return 0
        raise InvalidInputError("only the root neighbors the sentinel")
    if len(to) == len(frm) - 1 and frm[:-1] == to:
        return 0
    if len(to) == len(frm) + 1 and to[:-1] == frm:
        return to[-1]
    raise InvalidInputError(f"{frm!r} and {to!r} are not neighbors")


def clock_sample(spec: EnvSpec, key: ClockKey, walk_index: int = 0) -> float:
    """The exponential clock attached to ``key``: a pure function of
    (spec.seed, key, walk replica)."""
    slot = _slot_of(key.from_vertex, key.to_vertex)
    if key.from_vertex is SENTINEL:
        dg = streams.root_digest(spec.seed)[::-1]  # distinct stream, never raced
    else:
        validate_path(key.from_vertex, spec.b)
        dg = streams.vertex_digest(spec.seed, key.from_vertex)
    return streams.clock_exponential(dg, streams.walk_token(walk_index), slot, key.k)


def jump_rate(spec: EnvSpec, frm: Vertex, to: Vertex) -> float:
    """Rate of the oriented edge: 1 toward the parent, A_i toward child i."""
    slot = _slot_of(frm, to)
    if frm is SENTINEL or slot == 0:
        return 1.0
    return sample_weights(spec, frm)[slot - 1]


@dataclass(frozen=True)
class SubtreeSpec:
    """A connected subtree the walk may be restricted to.

    kinds: ``full_tree`` (everything, sentinel included); ``lambda``
    (a vertex, its parent, and all its descendants); ``path`` (the geodesic
    between two vertices).  The subtree root is its vertex closest to the
    tree root.
    """

    kind: str
    vertex: Optional[VertexPath] = None
    endpoints: Optional[Tuple[Vertex, Vertex]] = None

    def __post_init__(self):
        if self.kind == "full_tree":
            if self.vertex is not None or self.endpoints is not None:
                raise InvalidInputError("full_tree takes no vertex arguments")
        elif self.kind == "lambda":
            if self.vertex is None or self.vertex is SENTINEL:
                raise InvalidInputError("lambda subtree needs a non-sentinel vertex")
        elif self.kind == "path":
            if self.endpoints is None or len(self.endpoints) != 2:
                raise InvalidInputError("path subtree needs two endpoints")
            u, w = self.endpoints
            if u == w:
                raise InvalidInputError("path endpoints must differ")
        else:
            raise InvalidInputError(f"unknown subtree kind {self.kind!r}")

    @staticmethod
    def full_tree() -> "SubtreeSpec":
        return SubtreeSpec(kind="full_tree")

    @staticmethod
    def lambda_subtree(v: VertexPath) -> "SubtreeSpec":
        return SubtreeSpec(kind="lambda", vertex=tuple(v))

    @staticmethod
    def path_subtree(u: Vertex, w: Vertex) -> "SubtreeSpec":
        return SubtreeSpec(kind="path", endpoints=(u if u is SENTINEL else tuple(u),
                                                   w if w is SENTINEL else tuple(w)))

    @property
    def root_of_subtree(self) -> Vertex:
        if self.kind == "full_tree":
            return ROOT
        if self.kind == "lambda":
            return parent(self.vertex)
        u, w = self.endpoints
        return lowest_common_ancestor(u, w)

    def path_vertices(self) -> List[Vertex]:
        """For path kind: the geodesic vertex list, endpoint to endpoint."""
        if self.kind != "path":
            raise InvalidInputError("path_vertices only applies to path subtrees")
        return _geodesic(*self.endpoints)

    def _edge_rep(self):
        """Edges keyed by their deeper endpoint: ('cone', v) is every edge
        whose deeper endpoint has v as a prefix; ('finite', set) lists them."""
        if self.kind == "full_tree":
            return ("cone", ROOT)
        if self.kind == "lambda":
            return ("cone", self.vertex)
        deepers = set()
        verts = _geodesic(self.endpoints[0], self.endpoints[1])
        for a, c in zip(verts, verts[1:]):
            deepers.add(c if level(c) > level(a) else a)
        return ("finite", frozenset(deepers))


def _geodesic(u: Vertex, w: Vertex) -> List[Vertex]:
    l = lowest_common_ancestor(u, w)
    up: List[Vertex] = []
    x = u
    while x != l:
        up.append(x)
        x = SENTINEL if x == ROOT else parent(x)
    down: List[Vertex] = []
    y = w
    while y != l:
        down.append(y)
        y = SENTINEL if y == ROOT else parent(y)
    return up + [l] + down[::-1]


def edge_disjoint(a: SubtreeSpec, b: SubtreeSpec) -> bool:
    ka, va = a._edge_rep()
    kb, vb = b._edge_rep()
    if ka == "cone" and kb == "cone":
        return not (is_ancestor_or_self(va, vb) or is_ancestor_or_self(vb, va))
    if ka == "cone":
        return not any(x is not SENTINEL and is_ancestor_or_self(va, x) for x in vb)
    if kb == "cone":
        return not any(x is not SENTINEL and is_ancestor_or_self(vb, x) for x in va)
    return not (va & vb)


class Trajectory:
    """One engine run: per-step levels and vertex ids, plus the per-vertex
    discovery structure (parent id, child digit, depth, digest) from which
    paths are rebuilt lazily.  Memory is proportional to the number of steps
    plus the number of distinct visited vertices.

    ``fresh`` lists (step, vertex id) at first visits; ``stop_reason`` is
    ``level``, ``sentinel`` or ``steps``, and ``truncated`` marks a run that
    hit its step budget before a requested level.
    """

    __slots__ = ("anchor", "levels", "ids", "par", "dig", "dep", "dgs",
                 "fresh", "stop_reason", "truncated")

    def __init__(self, anchor: VertexPath):
        self.anchor = anchor
        self.levels: np.ndarray = np.zeros(0, dtype=np.int64)
        self.ids: List[int] = []
        self.par: List[int] = []
        self.dig: List[int] = []
        self.dep: List[int] = []
        self.dgs: List[bytes] = []
        self.fresh: List[Tuple[int, int]] = []
        self.stop_reason = ""
        self.truncated = False

    @property
    def steps_taken(self) -> int:
        return len(self.levels) - 1

    @property
    def max_level_attained(self) -> int:
        return int(self.levels.max())

    def path_of(self, vid: int) -> Vertex:
        if vid == _SENTINEL_ID:
            return SENTINEL
        rel: List[int] = []
        while vid != 0:
            rel.append(self.dig[vid])
            vid = self.par[vid]
        return self.anchor + tuple(reversed(rel))

    def digest_of(self, vid: int) -> bytes:
        return _SENTINEL_DIGEST if vid == _SENTINEL_ID else self.dgs[vid]

    def visited_digest_sequence(self) -> List[bytes]:
        return [self.digest_of(i) for i in self.ids]

    def vertex_path_at_step(self, step: int) -> Vertex:
        return self.path_of(self.ids[step])

    def fresh_vertex_times(self) -> List[Tuple[int, VertexPath]]:
        """(step, vertex) pairs at first visits, in step order."""
        return [(step, self.path_of(vid)) for step, vid in self.fresh]

    def visit_counts(self) -> Dict[Vertex, int]:
        counts: Dict[int, int] = {}
        for i in self.ids:
            counts[i] = counts.get(i, 0) + 1
        return {self.path_of(vid): c for vid, c in counts.items()}

    def first_passage_steps(self) -> np.ndarray:
        """T_n for n = 0..max level: the first step at which level n is hit."""
        lv = self.levels
        out = np.full(int(lv.max()) + 1, -1, dtype=np.int64)
        running = -1
        for step, l in enumerate(lv):
            if l > running:
                running = l
                if l >= 0:
                    out[l] = step
        return out

    def distinct_per_level(self) -> np.ndarray:
        """Number of distinct visited vertices at each level 0..max."""
        top = int(self.levels.max())
        out = np.zeros(top + 1, dtype=np.int64)
        for _, vid in self.fresh:
            d = self.dep[vid]
            if d <= top:
                out[d] += 1
        return out


def _k0_clocks(digest: bytes, walk8: bytes, weights: Sequence[float],
               slots: Sequence[int]) -> List[float]:
    """The k = 0 race at a fresh vertex: rate-scaled first clocks of the
    allowed ``slots`` (0 toward the parent, i toward child i), ``inf`` for
    every other slot.  The walk leaves through the smallest entry; ties go
    to the smaller slot, which is what ``list.index(min(...))`` returns."""
    log = math.log
    s = [_INF] * (len(weights) + 1)
    blk: Sequence[float] = ()
    blk_m = -1
    for j in slots:
        m = j >> 3
        if m != blk_m:
            blk = streams.clock_init_block(digest, walk8, m)
            blk_m = m
        y = -log(blk[j & 7])
        s[j] = y if j == 0 else y / weights[j - 1]
    return s


def _first_move(spec: EnvSpec, v: VertexPath, walk_index: int,
                slots: Sequence[int]) -> int:
    """Slot through which a walk first leaves ``v`` when only ``slots`` are
    open: the winner of the k = 0 race there."""
    validate_path(v, spec.b)
    dg = streams.vertex_digest(spec.seed, v)
    s = _k0_clocks(dg, streams.walk_token(walk_index),
                   make_weight_sampler(spec)(dg), slots)
    return s.index(min(s))


def _simulate(
    spec: EnvSpec,
    subtree: SubtreeSpec,
    *,
    walk_index: int = 0,
    max_steps: int,
    max_level: Optional[int] = None,
    stop_at_sentinel: bool = False,
) -> Trajectory:
    """Run the clock-driven walk restricted to ``subtree``.

    Stops at the first of: absolute level == max_level, arrival at the
    sentinel (if requested), or max_steps steps (sets the truncated flag
    when a max_level target was set)."""
    b = spec.b
    if max_steps < 1:
        raise InvalidInputError("max_steps must be at least 1")
    sampler = make_weight_sampler(spec)
    seed = spec.seed
    w8 = streams.walk_token(walk_index)
    all_slots = tuple(range(b + 1))

    # Resolve anchor vertex, start position, and the allowed-slot policy.
    start_at_sentinel = False
    anchor = ROOT
    anchor_slots: Tuple[int, ...] = all_slots
    path_slots: Optional[Dict[VertexPath, Tuple[int, ...]]] = None
    if subtree.kind == "full_tree":
        pass
    elif subtree.kind == "lambda":
        nu = subtree.vertex
        validate_path(nu, b)
        if nu == ROOT:
            start_at_sentinel = True
        else:
            anchor = nu[:-1]
            anchor_slots = (nu[-1],)
    else:
        verts = _geodesic(*subtree.endpoints)
        for v in verts:
            if v is not SENTINEL:
                validate_path(v, b)
        path_slots = {}
        vset = {v for v in verts if v is not SENTINEL}
        has_sentinel = any(v is SENTINEL for v in verts)
        for v in verts:
            if v is SENTINEL:
                continue
            slots = []
            if (v == ROOT and has_sentinel) or (v != ROOT and v[:-1] in vset):
                slots.append(0)
            for w in verts:
                if w is not SENTINEL and len(w) == len(v) + 1 and w[:-1] == v:
                    slots.append(w[-1])
            path_slots[v] = tuple(sorted(slots))
        root_of = subtree.root_of_subtree
        if root_of is SENTINEL:
            start_at_sentinel = True
            anchor = ROOT
        else:
            anchor = root_of
        anchor_slots = path_slots.get(anchor, ())

    run = Trajectory(anchor)
    anchor_level = len(anchor)
    log = math.log

    # Per-vertex state, indexed by discovery order.
    par = run.par
    dig = run.dig
    dep = run.dep
    dgs = run.dgs
    fresh = run.fresh
    weights: List[Optional[Tuple[float, ...]]] = []
    children: List[List[int]] = []
    S: List[Optional[List[float]]] = []
    K: List[Optional[List[int]]] = []
    slots_of: List[Tuple[int, ...]] = []
    rel_of: Optional[List[VertexPath]] = [] if path_slots is not None else None

    def new_vertex(p: int, digit: int, digest: bytes, depth: int,
                   slots: Tuple[int, ...], step: int) -> int:
        vid = len(par)
        par.append(p)
        dig.append(digit)
        dep.append(depth)
        dgs.append(digest)
        weights.append(None)
        children.append([-1] * b)
        S.append(None)
        K.append(None)
        slots_of.append(slots)
        fresh.append((step, vid))
        return vid

    anchor_digest = streams.vertex_digest(seed, anchor)
    new_vertex(-1, 0, anchor_digest, anchor_level, anchor_slots,
               1 if start_at_sentinel else 0)
    if rel_of is not None:
        rel_of.append(anchor)

    levels: List[int] = []
    ids = run.ids
    lap = levels.append
    iap = ids.append

    at_sentinel = start_at_sentinel
    cur = 0
    lvl = -1 if start_at_sentinel else anchor_level
    lap(lvl)
    iap(_SENTINEL_ID if at_sentinel else 0)
    # Levels never go below -1, so -2 stands for "no level target".
    target = -2 if max_level is None else max_level
    # A run anchored at its target level stops before its first step.
    reason = "level" if not start_at_sentinel and lvl == target else ""
    limit = 0 if reason else max_steps

    advbuf: Dict[Tuple[int, int], Tuple[float, ...]] = {}
    adv_block = streams.clock_advance_block
    steps = 0
    while steps < limit:
        steps += 1
        if at_sentinel:
            at_sentinel = False
            cur = 0
            lvl = anchor_level
            lap(lvl)
            iap(0)
            if lvl == target:
                reason = "level"
                break
            continue
        s = S[cur]
        if s is None:
            w = sampler(dgs[cur])
            weights[cur] = w
            s = S[cur] = _k0_clocks(dgs[cur], w8, w, slots_of[cur])
            K[cur] = [0] * (b + 1)
        j = s.index(min(s))
        kv = K[cur]
        k = kv[j] + 1
        kv[j] = k
        pos = (k - 1) & 7
        bkey = (cur, j)
        if pos == 0:
            advbuf[bkey] = adv_block(dgs[cur], w8, j, (k - 1) >> 3)
        y = -log(advbuf[bkey][pos])
        s[j] += y if j == 0 else y / weights[cur][j - 1]
        if j == 0:
            p = par[cur]
            if p == -1:
                at_sentinel = True
                lvl = -1
                lap(-1)
                iap(_SENTINEL_ID)
                if stop_at_sentinel:
                    reason = "sentinel"
                    break
                continue
            cur = p
            lvl -= 1
        else:
            c = children[cur][j - 1]
            if c == -1:
                child_dg = streams.child_digest(dgs[cur], j)
                if path_slots is not None:
                    rel = rel_of[cur] + (j,)
                    cslots = path_slots.get(rel, ())
                    c = new_vertex(cur, j, child_dg, dep[cur] + 1, cslots, steps)
                    rel_of.append(rel)
                else:
                    c = new_vertex(cur, j, child_dg, dep[cur] + 1, all_slots, steps)
                children[cur][j - 1] = c
            cur = c
            lvl += 1
        lap(lvl)
        iap(cur)
        if lvl == target:
            reason = "level"
            break
    run.levels = np.asarray(levels, dtype=np.int64)
    run.stop_reason = reason or "steps"
    run.truncated = reason == "" and max_level is not None
    return run


def run_extension(
    spec: EnvSpec,
    subtree: SubtreeSpec,
    stop: "StopRule",
    walk_index: int = 0,
) -> Trajectory:
    """Clock-driven walk on ``subtree`` starting at the subtree root."""
    return _simulate(
        spec,
        subtree,
        walk_index=walk_index,
        max_steps=stop.max_steps,
        max_level=stop.max_level,
        stop_at_sentinel=stop.stop_at_sentinel,
    )


def first_child(spec: EnvSpec, v: VertexPath, walk_index: int = 0) -> VertexPath:
    """The child of ``v`` whose k=0 clock over its edge rate is smallest;
    the walk's first descent from ``v`` always goes there."""
    if v is SENTINEL:
        raise InvalidInputError("the sentinel has no children to race")
    return v + (_first_move(spec, v, walk_index, range(1, spec.b + 1)),)


def lambda_restriction_sequence(run: Trajectory, nu: VertexPath) -> List[bytes]:
    """Digest sequence of the full walk's jumps along edges of the subtree
    around ``nu`` (its parent edge plus everything below it), in step order.

    This is the object the restriction identity says must equal the visited
    sequence of the extension on that subtree, on the shared prefix.
    """
    if run.anchor != ROOT:
        raise InvalidInputError("restriction applies to full-tree runs")
    n = len(nu)
    in_cone: Dict[int, bool] = {}

    def cone(vid: int) -> bool:
        got = in_cone.get(vid)
        if got is not None:
            return got
        if vid == _SENTINEL_ID or run.dep[vid] < n:
            res = False
        elif run.dep[vid] == n:
            res = run.path_of(vid) == nu
        else:
            res = cone(run.par[vid])
        in_cone[vid] = res
        return res

    seq: List[bytes] = []
    ids = run.ids
    levels = run.levels.tolist()
    for t in range(1, len(ids)):
        a, c = ids[t - 1], ids[t]
        deeper = c if levels[t] > levels[t - 1] else a
        if deeper != _SENTINEL_ID and cone(deeper):
            if not seq:
                seq.append(run.digest_of(a))
            seq.append(run.digest_of(c))
    return seq


def independence_check(
    spec: EnvSpec,
    subtree_a: SubtreeSpec,
    subtree_b: SubtreeSpec,
    trials: int = 2000,
    max_steps: int = 10_000,
) -> "IndependenceReport":
    """Chi-square independence test between discrete statistics read off the
    two extensions, across fully independent trials (fresh seed each).

    The statistic of a lambda subtree is the digit of the first grandchild
    level the extension descends to (the first child chosen at the subtree's
    defining vertex).  Edge-disjointness is required, exactness of the
    independence claim is what the p-value probes.
    """
    from .stats import chi_square_independence

    if subtree_a.kind != "lambda" or subtree_b.kind != "lambda":
        raise InvalidInputError("independence statistics are defined for lambda subtrees")
    if not edge_disjoint(subtree_a, subtree_b):
        raise InvalidInputError("subtrees share an edge")
    if trials < 100:
        raise InvalidInputError("need at least 100 trials")
    b = spec.b
    table = np.zeros((b, b), dtype=np.int64)
    for t in range(trials):
        s = spec.subseed(b"ind", t)
        da = _first_descent_digit(s, subtree_a, max_steps)
        db = _first_descent_digit(s, subtree_b, max_steps)
        table[da - 1, db - 1] += 1
    stat, p, dof = chi_square_independence(table)
    return IndependenceReport(statistic=stat, p_value=p, dof=dof, table=table, trials=trials)


def _first_descent_digit(spec: EnvSpec, subtree: SubtreeSpec, max_steps: int) -> int:
    nu = subtree.vertex
    run = _simulate(spec, subtree, max_steps=max_steps, max_level=len(nu) + 1)
    if run.stop_reason != "level":
        raise DegenerateDataError("extension failed to descend; raise max_steps")
    return run.path_of(run.ids[-1])[-1]


@dataclass
class IndependenceReport:
    statistic: float
    p_value: float
    dof: int
    table: np.ndarray
    trials: int
