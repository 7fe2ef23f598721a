"""Exponential-clock construction that drives every walk in this package.

Each oriented edge (v, u) with u a neighbor of v carries an i.i.d. sequence
of unit-mean exponential clocks Y(v, u, k), k = 0, 1, 2, ...  Sitting at v,
the walk leaves along the neighbor u (within the allowed subtree) whose
rate-scaled cumulative clock sum

    S(v, u) = sum_{j=0}^{k_u} Y(v, u, j) / r(v, u)

is smallest, where k_u counts the jumps already made from v to u and the
rate r(v, u) is 1 toward the parent and the child weight A_i toward child
i; a weight of zero gives its edge S = inf, so that edge is never taken.
Competing exponentials reproduce the one-step law exactly, and because
the clocks are keyed (not drawn sequentially), a walk restricted to a
subtree consumes the very same clock values as the full walk: runs on
nested subtrees coincide step for step, and runs on edge-disjoint subtrees
are independent.

A run is restricted to the subtree of one vertex ``nu``: ``nu``, its
parent and everything below ``nu``, which is what the regeneration and
coupling arguments use.  ``nu = ROOT`` is the full tree, whose root's
parent is the reflecting sentinel.  Vertex 0 of every run is that parent,
the anchor: a lambda run (``nu`` below the root) starts there, a full-tree
run at the root, vertex 1.  One ``StopRule`` says when a run ends: at
``max_level`` (reason ``level``) or when its step budget runs out
(``steps``).  ``walk.run_walk`` and ``run_extension`` pass it straight to
the engine, ``_simulate``.  The sentinel is known only to the engine, as
vertex 0 of a full-tree run, at level -1 with a zero digest.

The engine below simulates any such walk lazily: vertices get 16-byte
chained digests on first visit, weight vectors and clock sums are created
on demand, and cumulative sums are advanced incrementally when a race
reads them, so memory and time are proportional to the number of distinct
visited vertices plus the number of steps.

Each vertex the walk has raced at keeps one race-state record, indexed by
slot (0 toward the parent, i toward child i): the rate-scaled clock sums,
the rates (1.0 toward the parent, so the parent slot needs no special case:
y / 1.0 == y exactly), the jump counts, the advance block currently being
read (jump k + 1 along a slot reads lane k mod 8 of its block k div 8), and
the child vertex ids; then the pending slot, the one the walk last left
through.  A jump's next clock is drawn only when the walk races at that
vertex again: the race first adds it to the pending slot's sum, so every
sum a race compares is the one an eager redraw at jump time would give,
and a clock no race reads is never drawn.  A step is one ``min``, plus at
most one deferred lane read and add.

The anchor has one open slot, so the walk leaves it toward ``nu`` (the
root, for the sentinel) on every step from it without a race: the anchor
draws no weights and no clocks.

The engine is the only reader of the clock blocks: the k = 0 race when
the walk first leaves a vertex reads ``streams.clock_init_block``, and a
race that follows a jump one lane of ``streams.clock_advance_block``.
Both are looked up on the ``streams`` module when a run starts, so a
wrapper installed there sees every block.

Every run, full-tree walk or subtree extension alike, is recorded as one
``Trajectory``: the per-step levels (an int64 array), the per-step vertex
ids, and the per-vertex discovery structure from which vertex paths and
digests are rebuilt on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Tuple

import numpy as np

from . import streams
from .env import EnvSpec, make_weight_sampler
from .errors import DegenerateDataError, InvalidInputError
from .tree import ROOT, VertexPath, is_ancestor_or_self, validate_path


def edge_disjoint(a: VertexPath, b: VertexPath) -> bool:
    """The subtree of a vertex holds the edges whose deeper endpoint lies at
    or below it, so two subtrees share an edge exactly when one top vertex
    is an ancestor of the other."""
    return not (is_ancestor_or_self(a, b) or is_ancestor_or_self(b, a))


@dataclass(frozen=True)
class StopRule:
    """When to stop a run: at an absolute level or a step budget.  The
    step budget is a hard safety cap so recurrent configurations always
    terminate."""

    max_steps: int
    max_level: Optional[int] = None

    def __post_init__(self):
        if self.max_level is not None and self.max_level < 1:
            raise InvalidInputError("max_level must be at least 1")
        if self.max_steps < 1:
            raise InvalidInputError("max_steps must be at least 1")


# The levels of every run the engine has not finished: one shared,
# read-only empty array; a run's own array is made once, when it ends.
_NO_LEVELS = np.zeros(0, dtype=np.int64)
_NO_LEVELS.flags.writeable = False


class Trajectory:
    """One engine run: per-step levels and vertex ids, plus the per-vertex
    discovery structure (parent id, child digit, depth, digest) from which
    paths are rebuilt lazily.  Memory is proportional to the number of steps
    plus the number of distinct visited vertices.

    ``nu`` is the run's top vertex (``ROOT`` for the full tree) and vertex
    1 is ``nu`` itself; vertex 0 is the anchor above it, which for the full
    tree is the sentinel, at level -1 with a zero digest and no path.
    ``fresh`` lists (step, vertex id) at first visits, the sentinel
    excepted; ``stop_reason`` is ``level`` or ``steps``, and ``truncated``
    marks a run that hit its step budget before a requested level.
    """

    __slots__ = ("nu", "levels", "ids", "par", "dig", "dep", "dgs",
                 "fresh", "stop_reason", "truncated")

    def __init__(self, nu: VertexPath):
        self.nu = nu
        self.levels: np.ndarray = _NO_LEVELS
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

    def path_of(self, vid: int) -> VertexPath:
        if vid == 0:
            if not self.nu:
                raise InvalidInputError("the sentinel has no path")
            return self.nu[:-1]
        rel: List[int] = []
        while vid != 1:
            rel.append(self.dig[vid])
            vid = self.par[vid]
        return self.nu + tuple(reversed(rel))

    def visited_digest_sequence(self) -> List[bytes]:
        return [self.dgs[i] for i in self.ids]


def _simulate(spec: EnvSpec, nu: VertexPath, stop: StopRule,
              walk_index: int = 0) -> Trajectory:
    """Run the clock-driven walk restricted to the subtree of ``nu``.

    Stops at the first of: absolute level == stop.max_level, or
    stop.max_steps steps (sets the truncated flag when a level target was
    set).  ``walk_index`` picks the clock replica (see ``streams``); the
    program runs replica 0."""
    b = spec.b
    validate_path(nu, b)
    sampler = make_weight_sampler(spec)
    seed = spec.seed
    w8 = streams.walk_token(walk_index)

    run = Trajectory(nu)
    log = math.log
    two53 = streams.TWO53
    two54 = streams.TWO54
    child_digest = streams.child_digest
    init_block = streams.clock_init_block
    adv_block = streams.clock_advance_block
    n_slots = b + 1

    # Discovery structure, indexed by vertex id (discovery order).
    par = run.par
    dig = run.dig
    dep = run.dep
    dgs = run.dgs
    fresh = run.fresh
    # Race state of each vertex, created at its first race:
    # [clock sums, rates, jump counts, current advance block, child ids],
    # each indexed by slot, then the pending slot.
    state: List[Optional[list]] = [None]
    # Vertex 0, the anchor, has one open slot (slot 1 for the sentinel):
    # the walk always leaves it toward nu, vertex 1, without a race.
    anchor_slot = nu[-1] if nu else 1
    anchor_kids = [-1] * n_slots
    par.append(-1)
    dig.append(0)
    dep.append(len(nu) - 1)
    dgs.append(streams.vertex_digest(seed, nu[:-1]) if nu else bytes(16))
    cur = 0
    if not nu:
        # A full-tree run starts at the root, below the sentinel.
        cur = anchor_kids[anchor_slot] = 1
        par.append(0)
        dig.append(anchor_slot)
        dep.append(0)
        dgs.append(streams.vertex_digest(seed, ROOT))
        state.append(None)
    fresh.append((0, cur))

    levels: List[int] = []
    ids = run.ids
    lap = levels.append
    iap = ids.append

    lvl = dep[cur]
    lap(lvl)
    iap(cur)
    # Levels never go below -1, so -2 stands for "no level target".
    target = -2 if stop.max_level is None else stop.max_level
    # A run anchored at its target level stops before its first step.
    reason = "level" if lvl == target else ""
    limit = 0 if reason else stop.max_steps

    steps = 0
    while steps < limit:
        steps += 1
        st = state[cur]
        if st is not None:
            # Add the clock the last jump from here uncovered: jump k + 1
            # along slot j reads lane k mod 8 of j's advance block k div 8.
            s, rates, jumps, blocks, kids, j = st
            k = jumps[j] - 1
            if k & 7:
                blk = blocks[j]
            else:
                blk = blocks[j] = adv_block(dgs[cur], w8, j, k >> 3)
            s[j] += -log((blk[k & 7] >> 11) * two53 + two54) / rates[j]
            j = s.index(min(s))
            st[5] = j
            jumps[j] += 1
        elif cur:
            # The k = 0 race: each slot's first clock over its rate.  Ties
            # go to the smaller slot, which is what s.index(min(s)) returns.
            dg = dgs[cur]
            rates = (1.0,) + sampler(dg)
            s = []
            for j in range(n_slots):
                if not j & 7:
                    blk = init_block(dg, w8, j >> 3)
                try:
                    s.append(-log((blk[j & 7] >> 11) * two53 + two54) / rates[j])
                except ZeroDivisionError:  # a weight that underflowed to 0.0
                    s.append(math.inf)
            j = s.index(min(s))
            jumps = [0] * n_slots
            jumps[j] = 1
            kids = [-1] * n_slots
            state[cur] = [s, rates, jumps, [()] * n_slots, kids, j]
        else:
            # The anchor: the walk leaves it toward nu, no race.
            j = anchor_slot
            kids = anchor_kids
        if j == 0:
            cur = par[cur]
            lvl -= 1
        else:
            c = kids[j]
            if c == -1:
                c = kids[j] = len(par)
                par.append(cur)
                dig.append(j)
                dep.append(lvl + 1)
                dgs.append(child_digest(dgs[cur], j))
                fresh.append((steps, c))
                state.append(None)
            cur = c
            lvl += 1
        lap(lvl)
        iap(cur)
        if lvl == target:
            reason = "level"
            break
    run.levels = np.asarray(levels, dtype=np.int64)
    run.stop_reason = reason or "steps"
    run.truncated = reason == "" and stop.max_level is not None
    return run


def run_extension(spec: EnvSpec, nu: VertexPath, stop: StopRule) -> Trajectory:
    """Clock-driven walk on the subtree of ``nu``, from the parent of
    ``nu`` (from the root when ``nu`` is the root)."""
    return _simulate(spec, nu, stop)


def lambda_restriction_sequence(run: Trajectory, nu: VertexPath) -> List[bytes]:
    """Digest sequence of the full walk's jumps along edges of the subtree
    around ``nu`` (its parent edge plus everything below it), in step order.

    This is the object the restriction identity says must equal the visited
    sequence of the extension on that subtree, on the shared prefix.
    """
    if run.nu:
        raise InvalidInputError("restriction applies to full-tree runs")
    n = len(nu)
    # a parent is discovered before its children, so it has the smaller id
    cone: List[bool] = []
    for vid, d in enumerate(run.dep):
        if d == n:
            cone.append(run.path_of(vid) == nu)
        else:
            cone.append(d > n and cone[run.par[vid]])

    seq: List[bytes] = []
    ids = run.ids
    dgs = run.dgs
    levels = run.levels.tolist()
    for t in range(1, len(ids)):
        a, c = ids[t - 1], ids[t]
        if cone[c if levels[t] > levels[t - 1] else a]:
            if not seq:
                seq.append(dgs[a])
            seq.append(dgs[c])
    return seq


def independence_check(
    spec: EnvSpec,
    nu_a: VertexPath,
    nu_b: VertexPath,
    trials: int,
    threads: int,
) -> "IndependenceReport":
    """Chi-square independence test between discrete statistics read off the
    extensions on the subtrees of ``nu_a`` and ``nu_b``, across fully
    independent trials (fresh seed each).

    The statistic of a subtree is the digit of the first grandchild level
    the extension descends to (the first child chosen at its top vertex).
    Both vertices lie below the root, and edge-disjointness is required;
    exactness of the independence claim is what the p-value probes.
    """
    from .stats import chi_square_independence

    if not nu_a or not nu_b:
        raise InvalidInputError("independence statistics need vertices below the root")
    if not edge_disjoint(nu_a, nu_b):
        raise InvalidInputError("subtrees share an edge")
    if trials < 100:
        raise InvalidInputError("need at least 100 trials")
    stop_a = StopRule(max_level=len(nu_a) + 1, max_steps=10_000)
    stop_b = StopRule(max_level=len(nu_b) + 1, max_steps=10_000)
    digits = np.array(streams.keyed_map(
        partial(_descent_digits, spec, nu_a, nu_b, stop_a, stop_b), trials,
        threads)) - 1
    table = np.zeros((spec.b, spec.b), dtype=np.int64)
    np.add.at(table, (digits[:, 0], digits[:, 1]), 1)
    stat, p, dof = chi_square_independence(table)
    return IndependenceReport(statistic=stat, p_value=p, dof=dof, table=table, trials=trials)


def _descent_digits(spec: EnvSpec, nu_a: VertexPath, nu_b: VertexPath,
                    stop_a: StopRule, stop_b: StopRule,
                    t: int) -> Tuple[int, int]:
    """The first descent digits of both extensions in trial ``t``."""
    s = spec.subseed(b"ind", t)
    return (_first_descent_digit(s, nu_a, stop_a),
            _first_descent_digit(s, nu_b, stop_b))


def _first_descent_digit(spec: EnvSpec, nu: VertexPath, stop: StopRule) -> int:
    run = _simulate(spec, nu, stop)
    if run.stop_reason != "level":
        raise DegenerateDataError("extension failed to descend within its step cap")
    return run.dig[run.ids[-1]]


@dataclass
class IndependenceReport:
    statistic: float
    p_value: float
    dof: int
    table: np.ndarray
    trials: int
