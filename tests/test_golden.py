"""Golden digests of the stream layout and of the raw sampled values.

The walk digests reduce every run to integers and bytes (levels, visited
vertex digests, first-visit (step, depth) pairs, stop reason) and hash
them, so those constants do not depend on how libm rounds a logarithm,
only on which clock won each race.  A refactor of the engine that keeps
pinned-seed outputs byte-identical leaves every digest here unchanged; any
change to the stream layout, the race order or the tie rule moves at least
one.

The eager reference walk at the end draws each clock at jump time and
races at every vertex it leaves; the engine, which draws a clock only
when a race reads it, must reproduce its runs step for step.

The sampler and clock digests hash raw float64 bytes, and the ladder
values are pinned as ``float.hex``, so a sampler, a clock read or a ladder
sweep that drifts by one ulp moves them.  Like the CLI output digests,
those constants depend on the platform's libm (log, exp, cos, sqrt and
pow).
"""

import hashlib
import math
from itertools import islice

import numpy as np
import pytest

from rwre import streams
from rwre.clocks import StopRule, _simulate
from rwre.env import EnvSpec, make_weight_sampler
from rwre.quenched import _truncation_ladder
from rwre.tree import ROOT

SEEDS = (5, 1234)
BRANCHING = (3, 9)  # nine children put slots 8 and 9 in a second clock block

# The sentinel above the root, where a reference walk may step; the
# engine gives it id 0 at level -1, and the digests hash it as [-1].
ABOVE_ROOT = object()

# (top vertex, walk index and stop-rule keyword arguments); max_level=1 on
# a depth-two lambda stops at the anchor before the first step.
RUNS = (
    (ROOT, dict(max_steps=5000, max_level=12)),
    (ROOT, dict(max_steps=300, walk_index=3)),
    (ROOT, dict(max_steps=5, max_level=4)),
    ((1,), dict(max_steps=200)),
    ((2, 1), dict(max_steps=2000, max_level=4)),
    ((2, 1), dict(max_steps=10, max_level=1)),
)

GOLDEN = {
    "const:1.0": "94118e39a919216ae4915aea1eba9a1b",
    "uniform:0.5,1.5": "fe97d1dfa60599c5638510fbc5a45767",
    "gamma:2,0.5": "364708cc6eb5b87d58f16aa68a7bdd3d",
    "lognormal:0,0.5": "56df52db38ae0a89817b3d03005308fe",
    "lerrw:1.0": "ac8b7a7702928b142ccce4569f6e59e1",
    "lerrw:0.5": "4f86d7ea3f7c8679d551ef3586af91ae",
    # gamma shapes below one take the boost branch: 0.75 and 0.25 here
    "lerrw:2.0": "ab5846758f66445cefa7475de4f76a63",
    "gamma:0.5,2": "2aed4f7ff652522959e168915e7afdf1",
}


def _ints(h, values) -> None:
    h.update(np.asarray(values, dtype=np.int64).tobytes())
    h.update(b"|")


def _hash_run(h, run) -> None:
    _ints(h, run.levels)
    h.update(b"".join(run.visited_digest_sequence()) + b"|")
    _ints(h, [(step, run.dep[vid]) for step, vid in run.fresh])
    h.update(run.stop_reason.encode() + (b"T" if run.truncated else b"F"))


def _hash_vertex(h, v) -> None:
    _ints(h, [-1] if v is ABOVE_ROOT else [len(v), *v])


def _run(spec, nu, walk_index=0, **stop):
    return _simulate(spec, nu, StopRule(**stop), walk_index)


def _exponential(word: int) -> float:
    return -math.log((word >> 11) * streams.TWO53 + streams.TWO54)


def _race(spec, v, walk_index, slots) -> int:
    """Reference k = 0 race at ``v``: the slot among ``slots`` (0 toward
    the parent, i toward child i) whose first clock over its rate is
    smallest, the smaller slot on a tie.  A walk first leaves a fresh
    vertex through it."""
    dg = streams.vertex_digest(spec.seed, v)
    w8 = streams.walk_token(walk_index)
    rates = (1.0,) + make_weight_sampler(spec)(dg)
    clock = {j: _exponential(streams.clock_init_block(dg, w8, j >> 3)[j & 7])
             / rates[j] for j in slots}
    return min(slots, key=clock.__getitem__)


def _first_step(spec, v, walk_index):
    j = _race(spec, v, walk_index, range(spec.b + 1))
    if j:
        return v + (j,)
    return ABOVE_ROOT if v == ROOT else v[:-1]


def _first_descent(spec, v, walk_index):
    return v + (_race(spec, v, walk_index, range(1, spec.b + 1)),)


def _kind_digest(kind: str) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for b in BRANCHING:
            spec = EnvSpec(b=b, kind=kind, seed=seed)
            for nu, kw in RUNS:
                _hash_run(h, _run(spec, nu, **kw))
            for w in range(8):
                for v in (ROOT, (1, 2)):
                    _hash_vertex(h, _first_step(spec, v, w))
                    _hash_vertex(h, _first_descent(spec, v, w))
    return h.hexdigest()[:32]


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_stream_layout_digest(kind):
    assert _kind_digest(kind) == GOLDEN[kind]


def test_first_step_matches_the_race():
    spec = EnvSpec(b=3, kind="lerrw:1.0", seed=404)
    for w in range(8):
        run = _run(spec, ROOT, walk_index=w, max_steps=1)
        vid = run.ids[1]
        assert (run.path_of(vid) if vid else ABOVE_ROOT) == \
            _first_step(spec, ROOT, w)


def test_first_descent_matches_the_race():
    # clocks of edges the walk has not yet taken keep their k = 0 values,
    # so however often the root is left upward first, the first descent
    # goes to the child that wins the children's race
    spec = EnvSpec(b=3, kind="lerrw:1.0", seed=404)
    for w in range(8):
        run = _run(spec, ROOT, walk_index=w, max_steps=10 ** 8, max_level=1)
        assert run.path_of(run.ids[-1]) == _first_descent(spec, ROOT, w)


SAMPLER_DIGESTS = 512
GOLDEN_SAMPLER = {
    "const:1.0": "99efa5e4ad9262c40a4150fd167cf90f",
    "uniform:0.5,1.5": "25a46147fac89cac21fd9af1f544d67b",
    "gamma:2,0.5": "cb0217f9f58eb16ae65c523ea9ad451d",
    "gamma:0.5,2": "c70d0333916abb74f7a88815591dfe83",
    "lognormal:0,0.5": "fe80cad1f79679149587a3697d0f7dcf",
    "lerrw:1.0": "de483fd5457a4ecfc626914f5e17b224",
    "lerrw:0.5": "b53cc2a75da93bb4044494227ecdeecd",
    "lerrw:2.0": "10db4a97c9e724771b3b29ecf2a98cd4",
}
# Weight blocks hashed in the same sweep: a sampler hashes a block only
# when it reads a lane of it.
SAMPLER_BLOCKS = {
    "const:1.0": 0,
    "uniform:0.5,1.5": 1536,
    "gamma:2,0.5": 3077,
    "gamma:0.5,2": 3598,
    "lognormal:0,0.5": 2048,
    "lerrw:1.0": 2048,
    "lerrw:0.5": 3246,
    "lerrw:2.0": 3790,
}
GOLDEN_CLOCKS = "3633117f2ce577634199fda68cf064e9"


@pytest.mark.parametrize("kind", sorted(GOLDEN_SAMPLER))
def test_sampler_value_digest(kind, monkeypatch):
    blocks = []
    hash_block = streams.uniforms_from
    monkeypatch.setattr(streams, "uniforms_from",
                        lambda msg: blocks.append(msg) or hash_block(msg))
    h = hashlib.sha256()
    for b in BRANCHING:
        sampler = make_weight_sampler(EnvSpec(b=b, kind=kind, seed=0))
        for s in range(SAMPLER_DIGESTS):
            w = sampler(streams.root_digest(s))
            assert len(w) == b
            h.update(np.asarray(w, dtype=np.float64).tobytes())
    assert h.hexdigest()[:32] == GOLDEN_SAMPLER[kind]
    assert len(blocks) == SAMPLER_BLOCKS[kind]


def _clock(dg, w8, slot, k) -> float:
    """Clock k of one slot: lane slot mod 8 of k = 0 block slot div 8, or
    lane (k - 1) mod 8 of the slot's advance block (k - 1) div 8."""
    if k == 0:
        return _exponential(streams.clock_init_block(dg, w8, slot >> 3)[slot & 7])
    block = streams.clock_advance_block(dg, w8, slot, (k - 1) >> 3)
    return _exponential(block[(k - 1) & 7])


def test_clock_value_digest():
    h = hashlib.sha256()
    for s in range(16):
        dg = streams.vertex_digest(s, (1, 2))
        for w in (0, 5):
            w8 = streams.walk_token(w)
            for slot in (0, 1, 9):
                for k in (0, 1, 7, 8, 9):
                    h.update(np.float64(_clock(dg, w8, slot, k)).tobytes())
    assert h.hexdigest()[:32] == GOLDEN_CLOCKS


# The boundary-one truncated beta at depths 1-7, as ``float.hex``: the
# ladder's level sweep is pinned here at the values themselves, not only
# through the ``moments`` report digest.
GOLDEN_LADDER = {
    (4, "lerrw:1.0", 5): [
        "0x1.8f8e84dee3b37p-1", "0x1.6678a6be6650ep-1", "0x1.5a58d289fa165p-1",
        "0x1.5581e62c430d5p-1", "0x1.53c3b551271fdp-1", "0x1.534be2cd0c6c9p-1",
        "0x1.53164cf3645bep-1"],
    (4, "lerrw:1.0", 1234): [
        "0x1.6558bf9937ef0p-2", "0x1.11cf38688bd75p-2", "0x1.bd4a52b099cd7p-3",
        "0x1.8f39fb75c5c1cp-3", "0x1.78ad97c98c27dp-3", "0x1.72a445ed0557ap-3",
        "0x1.70e5c0dd48677p-3"],
    (3, "gamma:0.5,2", 5): [
        "0x1.1a08355230f20p-1", "0x1.cdf9f816a91eep-2", "0x1.88629d2c649d5p-2",
        "0x1.5d5a32a72ae2ap-2", "0x1.5259138b63470p-2", "0x1.4e3bfc5379782p-2",
        "0x1.4c53cbe682591p-2"],
    (3, "gamma:0.5,2", 1234): [
        "0x1.24ea30c7359a9p-1", "0x1.b3df58cb978aap-2", "0x1.7d32811c9df47p-2",
        "0x1.6511a5cb0b756p-2", "0x1.5906782d5333fp-2", "0x1.534ef7530d786p-2",
        "0x1.511d142628443p-2"],
}


@pytest.mark.parametrize("b, kind, seed", sorted(GOLDEN_LADDER))
def test_ladder_values(b, kind, seed):
    ladder = _truncation_ladder(EnvSpec(b=b, kind=kind, seed=seed))
    assert [v.hex() for v in islice(ladder, 7)] == GOLDEN_LADDER[b, kind, seed]


def _eager_walk(spec, nu, walk_index, steps):
    """Reference walk that draws each jump's next clock when it jumps and
    races at every vertex it leaves, the anchor of a lambda subtree too
    (with only the slot toward nu open).  Returns the engine's ids, levels
    and fresh, and the highest advance block any race read."""
    b = spec.b
    w8 = streams.walk_token(walk_index)
    sampler = make_weight_sampler(spec)
    anchor = v = nu[:-1]
    # the engine's vertex 0 is the anchor, the sentinel for the full tree
    ids = {} if nu else {ABOVE_ROOT: 0}
    fresh, races, read = [], {}, 0
    out_ids, levels = [], []
    for step in range(steps + 1):
        if step and v is ABOVE_ROOT:
            v = ROOT
        elif step:
            if v not in races:
                dg = streams.vertex_digest(spec.seed, v)
                rates = (1.0,) + sampler(dg)
                slots = (nu[-1],) if nu and v == anchor else range(b + 1)
                races[v] = (dg, rates, [0] * (b + 1), {
                    j: _exponential(streams.clock_init_block(dg, w8, j >> 3)[j & 7])
                    / rates[j] for j in slots})
            dg, rates, jumps, s = races[v]
            j = min(s, key=s.__getitem__)
            k = jumps[j]
            jumps[j] += 1
            if k:
                read = max(read, (k - 1) >> 3)
            s[j] += _exponential(streams.clock_advance_block(dg, w8, j, k >> 3)[k & 7]) / rates[j]
            v = v + (j,) if j else (v[:-1] if v else ABOVE_ROOT)
        if v not in ids:
            ids[v] = len(ids)
            fresh.append((step, ids[v]))
        out_ids.append(ids[v])
        levels.append(-1 if v is ABOVE_ROOT else len(v))
    return out_ids, levels, fresh, read


@pytest.mark.parametrize("kind, b", [
    ("const:0.3", 2), ("lerrw:1.0", 3), ("lerrw:0.5", 4), ("gamma:0.5,2", 3)])
def test_engine_matches_the_eager_reference_walk(kind, b):
    spec = EnvSpec(b=b, kind=kind, seed=77)
    deepest = 0
    for nu in (ROOT, (2, 1)):
        for w in range(8):
            run = _run(spec, nu, walk_index=w, max_steps=300)
            ids, levels, fresh, read = _eager_walk(spec, nu, w, 300)
            assert (run.ids, run.levels.tolist(), run.fresh) == (ids, levels, fresh)
            deepest = max(deepest, read)
    if kind == "const:0.3":
        # some race read a clock from a slot's second advance block
        assert deepest >= 1
