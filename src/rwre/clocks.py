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

In the Python loop each vertex the walk has raced at keeps one
race-state record, a flat list
``[s, j, k_0..k_b, blk_0..blk_b, kid_0..kid_b, 1.0, A_1..A_b]`` indexed
by slot (0 toward the parent, i toward child i): ``s`` is the list of
rate-scaled clock sums and ``j`` the pending slot, the one the
walk last left through.  With n = b + 1 slots, slot i's jump count sits
at offset 2 + i, the advance block it is reading at 2 + n + i (jump
k + 1 along a slot reads lane k mod 8 of its block k div 8), its child's
vertex id at 2 + 2n + i and its rate at 2 + 3n + i (1.0 toward the
parent, so the parent slot needs no special case: y / 1.0 == y exactly).
The first race at a vertex builds its record: the reference loop draws
the weights, hashes the k = 0 blocks, races every slot's first clock in
a plain loop and writes the record.  A jump's next clock is drawn
only when the walk races at that vertex again: the race first adds it to
the pending slot's sum, so every sum a race compares is the one an eager
redraw at jump time would give, and a clock no race reads is never
drawn.  A later step is one ``min``, plus at most one deferred lane read
and add.

The anchor has one open slot, so the walk leaves it toward ``nu`` (the
root, for the sentinel) on every step from it without a race: the anchor
draws no weights and no clocks, and its record is a list of -1s that
holds only its child's id, at the child-id offset.

The engine is the only reader of the clock blocks: the k = 0 race when
the walk first leaves a vertex reads ``streams.clock_init_block``, and a
race that follows a jump one lane of ``streams.clock_advance_block``.
Both are looked up on the ``streams`` module when a run starts, so a
wrapper installed there sees every block.

``_simulate`` sets a run up (the anchor, the root and the
``Trajectory``) and hands its steps to one of two loops with the same
arguments and the same result.  The compiled loop, ``_engine.c``, keeps
the race state above in C arrays instead of lists (sums, rates, jump
counts, child ids, each slot's current advance block and the pending
slot) and runs the k = 0 race, the deferred advance and the discovery
appends in C.  It hashes and samples nothing itself: it calls back the
objects ``_simulate`` bound when the run started, the weight sampler
``make_weight_sampler(spec)``, ``streams.clock_init_block``,
``streams.clock_advance_block`` and ``streams.child_digest``, with the
same arguments and in the same order as the Python loop, so every count
a wrapper takes of them is unchanged.  ``_python_loop`` is its
reference in the tests, and the loop that runs wherever the compiled
one cannot be built.  The compiled loop is built on the first run of a
process that needs it (``_compiled_loop``), not at import, with the C
compiler the interpreter was built with (``cc`` if it names none), into
``$XDG_CACHE_HOME/rwre`` (``~/.cache/rwre`` by default), never into the
package; a cached build is only loaded.  A process whose build fails,
or that knows no cache directory, runs the Python loop, to the same
outputs.

Every run, full-tree walk or subtree extension alike, is recorded as one
``Trajectory``: the per-step vertex ids and the per-vertex discovery
structure from which vertex paths and digests are rebuilt on demand.
The engine records nothing else per step or per vertex: the per-step
levels (an int64 array) and the first visits are derived from the ids
when they are read.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from pathlib import Path
from typing import Callable, List, Optional, Tuple

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


class Trajectory:
    """One engine run: per-step vertex ids, plus the per-vertex
    discovery structure (parent id, child digit, depth, digest) from which
    paths are rebuilt lazily.  Memory is proportional to the number of steps
    plus the number of distinct visited vertices.

    ``nu`` is the run's top vertex (``ROOT`` for the full tree) and vertex
    1 is ``nu`` itself; vertex 0 is the anchor above it, which for the full
    tree is the sentinel, at level -1 with a zero digest and no path.
    ``stop_reason`` is ``level`` or ``steps``, and ``truncated`` marks a
    run that hit its step budget before a requested level.  The engine
    records each step's vertex id only.  ``levels``, the int64 array of
    their depths, is built when it is first read, so a run whose levels
    nobody reads builds none; ``fresh``, the first visits, is derived
    from the ids on every read.  ``levels_at`` reads a few steps' levels
    without that array, so no other module reads the storage lists.
    """

    __slots__ = ("nu", "_levels", "ids", "par", "dig", "dep",
                 "dgs", "stop_reason", "truncated")

    def __init__(self, nu: VertexPath):
        self.nu = nu
        self._levels: Optional[np.ndarray] = None
        self.ids: List[int] = []
        self.par: List[int] = []
        self.dig: List[int] = []
        self.dep: List[int] = []
        self.dgs: List[bytes] = []
        self.stop_reason = ""
        self.truncated = False

    @property
    def levels(self) -> np.ndarray:
        """The level of each step, from step 0, as an int64 array."""
        if self._levels is None:
            self._levels = np.asarray(self.dep, dtype=np.int64)[self.ids]
        return self._levels

    def levels_at(self, steps: List[int]) -> List[int]:
        """The levels of the given steps, read off the depth table."""
        return [self.dep[self.ids[k]] for k in steps]

    @property
    def fresh(self) -> List[Tuple[int, int]]:
        """(first step, vertex id) of each first visit, the sentinel
        excepted (a lambda run's anchor is visited at step 0).  Ids are
        assigned in first-visit order, so vertex v is new at the first
        step whose id is v while every smaller id has been seen."""
        out = []
        nxt = 0 if self.nu else 1
        for t, v in enumerate(self.ids):
            if v == nxt:
                out.append((t, v))
                nxt += 1
        return out

    @property
    def steps_taken(self) -> int:
        return len(self.ids) - 1

    @property
    def max_level_attained(self) -> int:
        return max(self.dep)

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


# The compiler flags of the compiled loop: no fused multiply-add, so every
# sum rounds as the Python loop's does.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _compiler() -> List[str]:
    """The C compiler command: the interpreter's ``CC``, else ``cc``."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


@lru_cache(maxsize=1)
def _compiled_loop() -> Optional[Callable[..., bool]]:
    """``walk`` of the compiled loop ``_engine.c``, built on this process's
    first call, or None where it cannot be built or loaded, or where no
    cache directory is known (no ``XDG_CACHE_HOME`` and no home).

    The build goes to ``$XDG_CACHE_HOME/rwre`` (``~/.cache/rwre`` by
    default), in a file named by the sha256 of the source, the flags and
    the extension suffix, so a warm cache only loads it.  One attempt per
    process: the result is cached."""
    from importlib.machinery import EXTENSION_SUFFIXES
    from importlib.util import module_from_spec, spec_from_file_location

    source = Path(__file__).with_name("_engine.c")
    suffix = EXTENSION_SUFFIXES[0]
    try:
        text = source.read_bytes()
        # Path.home raises RuntimeError where no home directory is known.
        cache = Path(os.environ.get("XDG_CACHE_HOME")
                     or Path.home() / ".cache") / "rwre"
    except (OSError, RuntimeError):
        return None
    key = hashlib.sha256(b"\0".join(
        [text, " ".join(_CFLAGS).encode(), suffix.encode()])).hexdigest()
    built = cache / f"_engine-{key[:32]}{suffix}"
    if not built.exists() and not _build(source, built):
        return None
    spec = spec_from_file_location("rwre._engine", built)
    try:
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    return module.walk


def _build(source: Path, built: Path) -> bool:
    """Compile ``source`` to ``built``; False if that failed.  The compiler
    writes a name of this process's own, renamed into place, so processes
    that build at once each leave a whole file."""
    import subprocess
    import sysconfig

    partial_build = built.with_name(f"{built.name}.{os.getpid()}.tmp")
    try:
        built.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run([*_compiler(), *_CFLAGS,
                        "-I" + sysconfig.get_paths()["include"], str(source),
                        "-o", str(partial_build)],
                       check=True, capture_output=True, timeout=300)
        os.replace(partial_build, built)
    except (OSError, subprocess.SubprocessError):
        partial_build.unlink(missing_ok=True)
        return False
    return True


def _simulate(spec: EnvSpec, nu: VertexPath, stop: StopRule,
              walk_index: int = 0) -> Trajectory:
    """Run the clock-driven walk restricted to the subtree of ``nu``.

    Stops at the first of: absolute level == stop.max_level, or
    stop.max_steps steps (sets the truncated flag when a level target was
    set).  ``walk_index`` picks the clock replica (see ``streams``); the
    program runs replica 0.  ``nu`` is not validated here: the public
    entry points check it once per call.  The steps are run by the
    compiled loop where it could be built, else by ``_python_loop``."""
    sampler = make_weight_sampler(spec)
    seed = spec.seed
    w8 = streams._WALK0 if walk_index == 0 else streams.walk_token(walk_index)
    run = Trajectory(nu)
    par = run.par
    dig = run.dig
    dep = run.dep
    dgs = run.dgs
    # Vertex 0, the anchor, has one open slot (slot 1 for the sentinel):
    # the walk always leaves it toward nu, vertex 1, without a race.
    anchor_slot = nu[-1] if nu else 1
    par.append(-1)
    dig.append(0)
    dep.append(len(nu) - 1)
    dgs.append(streams.vertex_digest(seed, nu[:-1]) if nu else bytes(16))
    cur = 0
    if not nu:
        # A full-tree run starts at the root, below the sentinel.
        cur = 1
        par.append(0)
        dig.append(anchor_slot)
        dep.append(0)
        dgs.append(streams.vertex_digest(seed, ROOT))
    run.ids.append(cur)
    # Levels never go below -1, so -2 stands for "no level target".
    target = -2 if stop.max_level is None else stop.max_level
    # A run anchored at its target level stops before its first step.
    reached = dep[cur] == target
    if not reached:
        loop = _compiled_loop() or _python_loop
        reached = loop(run.ids, par, dig, dep, dgs, spec.b + 1, anchor_slot,
                       stop.max_steps, target, w8, sampler,
                       streams.clock_init_block, streams.clock_advance_block,
                       streams.child_digest)
    run.stop_reason = "level" if reached else "steps"
    run.truncated = not reached and stop.max_level is not None
    return run


def _python_loop(ids: List[int], par: List[int], dig: List[int],
                 dep: List[int], dgs: List[bytes], n_slots: int,
                 anchor_slot: int, limit: int, target: int, w8: bytes,
                 sampler: Callable, init_block: Callable,
                 adv_block: Callable, child_digest: Callable) -> bool:
    """The engine's step loop, the reference of the compiled one
    (``_engine.c``) and the loop that runs where it cannot be built.

    Takes up to ``limit`` steps from ``ids[-1]``, appending each step's
    vertex to ``ids`` and each new vertex to the discovery lists ``par``,
    ``dig``, ``dep`` and ``dgs``, which hold the anchor, vertex 0, and
    for a full-tree run the root, vertex 1.  Returns whether it stopped at
    level ``target`` (-2 for none)."""
    log = math.log
    inf = math.inf
    two53 = streams.TWO53
    two54 = streams.TWO54
    # Race state of each vertex, created at its first race: one flat
    # record [s, j, jump counts, advance blocks, child ids, rates], the
    # last four at these offsets plus the slot.
    n = n_slots
    blocks_at = 2 + n
    kids_at = 2 + 2 * n
    rates_at = 2 + 3 * n
    state: List[Optional[list]] = [None] * len(par)
    # The anchor's record holds only its child, nu: vertex 1, when there.
    anchor = [-1] * rates_at
    if len(par) > 1:
        anchor[kids_at + anchor_slot] = 1
    cur = ids[-1]
    lvl = dep[cur]
    for _ in range(limit):
        st = state[cur]
        if st is not None:
            # Add the clock the last jump from here uncovered: jump k + 1
            # along slot j reads lane k mod 8 of j's advance block k div 8.
            s = st[0]
            j = st[1]
            k = st[2 + j] - 1
            if k & 7:
                blk = st[blocks_at + j]
            else:
                blk = st[blocks_at + j] = adv_block(dgs[cur], w8, j, k >> 3)
            s[j] += -log((blk[k & 7] >> 11) * two53 + two54) / st[rates_at + j]
            j = st[1] = s.index(min(s))
            st[2 + j] += 1
        elif cur:
            # The k = 0 race.  Lanes: slot i's first clock is lane i mod 8
            # of k = 0 block i div 8 over its rate, inf at a zero weight.
            # Ties: ``index`` finds the first minimum, the smaller slot.
            digest = dgs[cur]
            rates = [1.0, *sampler(digest)]
            words = [x for m in range((n + 7) >> 3)
                     for x in init_block(digest, w8, m)]
            s = [inf] * n
            for i, r in zip(range(n), rates, strict=True):
                if r:
                    s[i] = -log((words[i] >> 11) * two53 + two54) / r
            j = s.index(min(s))
            st = state[cur] = [s, j] + [0] * n + [()] * n + [-1] * n + rates
            st[2 + j] = 1
        else:
            # The anchor: the walk leaves it toward nu, no race.
            j = anchor_slot
            st = anchor
        if j == 0:
            cur = par[cur]
            lvl -= 1
        else:
            c = st[kids_at + j]
            if c == -1:
                c = st[kids_at + j] = len(par)
                par.append(cur)
                dig.append(j)
                dep.append(lvl + 1)
                dgs.append(child_digest(dgs[cur], j))
                state.append(None)
            cur = c
            lvl += 1
        ids.append(cur)
        if lvl == target:
            return True
    return False


def run_extension(spec: EnvSpec, nu: VertexPath, stop: StopRule) -> Trajectory:
    """Clock-driven walk on the subtree of ``nu``, from the parent of
    ``nu`` (from the root when ``nu`` is the root)."""
    validate_path(nu, spec.b)
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
    dep = run.dep
    for t in range(1, len(ids)):
        a, c = ids[t - 1], ids[t]
        if cone[c if dep[c] > dep[a] else a]:
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
    validate_path(nu_a, spec.b)
    validate_path(nu_b, spec.b)
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
