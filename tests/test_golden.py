"""Golden digests of the stream layout.

Every run below is reduced to integers and bytes (levels, visited vertex
digests, first-visit (step, depth) pairs, stop reason) and hashed, so the
pinned constants do not depend on how libm rounds a logarithm, only on
which clock won each race.  A refactor of the engine that keeps pinned-seed
outputs byte-identical leaves every digest here unchanged; any change to
the stream layout, the race order or the tie rule moves at least one.
"""

import hashlib

import numpy as np
import pytest

from rwre.clocks import SubtreeSpec, _simulate, first_child
from rwre.env import EnvSpec
from rwre.tree import ROOT, SENTINEL
from rwre.walk import step_walk

SEEDS = (5, 1234)
BRANCHING = (3, 9)  # nine children put slots 8 and 9 in a second clock block

# (subtree, engine keyword arguments); lambda_subtree(ROOT) and a path
# through the sentinel start at the sentinel, max_level=1 on a depth-two
# lambda stops at the anchor before the first step.
RUNS = (
    (SubtreeSpec.full_tree(), dict(max_steps=5000, max_level=12)),
    (SubtreeSpec.full_tree(), dict(max_steps=300, walk_index=3)),
    (SubtreeSpec.full_tree(), dict(max_steps=5, max_level=4)),
    (SubtreeSpec.lambda_subtree((1,)), dict(max_steps=200)),
    (SubtreeSpec.lambda_subtree(ROOT), dict(max_steps=100, walk_index=1)),
    (SubtreeSpec.lambda_subtree((2, 1)), dict(max_steps=2000, max_level=4)),
    (SubtreeSpec.lambda_subtree((2, 1)), dict(max_steps=10, max_level=1)),
    (SubtreeSpec.path_subtree((1, 1), (2,)), dict(max_steps=100)),
    (SubtreeSpec.path_subtree(SENTINEL, (1, 2)), dict(max_steps=100)),
)

GOLDEN = {
    "const:1.0": "5f0cf8063f2cca85e79f01eee0b65bad",
    "uniform:0.5,1.5": "02e8c5056776a9e609ea058f6581e2cc",
    "gamma:2,0.5": "b928f1047330c49453da889c8aa01830",
    "lognormal:0,0.5": "edd3d0bc98d1f8fd51bf62e171c8e5d0",
    "lerrw:1.0": "67fe3cee52a01fcff9c2f66d8a49b6a7",
    "lerrw:0.5": "c9769ff11a96f0df67b2123580a9b21b",
}
GOLDEN_SENTINEL_STOP = "35bf05edb809a68a3793565c498d6967"


def _ints(h, values) -> None:
    h.update(np.asarray(values, dtype=np.int64).tobytes())
    h.update(b"|")


def _hash_run(h, run) -> None:
    _ints(h, run.levels)
    h.update(b"".join(run.visited_digest_sequence()) + b"|")
    _ints(h, [(step, run.dep[vid]) for step, vid in run.fresh])
    h.update(run.stop_reason.encode() + (b"T" if run.truncated else b"F"))


def _hash_vertex(h, v) -> None:
    _ints(h, [-1] if v is SENTINEL else [len(v), *v])


def _kind_digest(kind: str) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        for b in BRANCHING:
            spec = EnvSpec(b=b, kind=kind, seed=seed)
            for subtree, kw in RUNS:
                _hash_run(h, _simulate(spec, subtree, **kw))
            for w in range(8):
                for v in (ROOT, (1, 2)):
                    _hash_vertex(h, step_walk(spec, v, walk_index=w))
                    _hash_vertex(h, first_child(spec, v, walk_index=w))
    return h.hexdigest()[:32]


@pytest.mark.parametrize("kind", sorted(GOLDEN))
def test_stream_layout_digest(kind):
    assert _kind_digest(kind) == GOLDEN[kind]


def test_sentinel_stop_digest():
    # const:1.0 at b=1 is recurrent, so the walk returns to the sentinel
    h = hashlib.sha256()
    spec = EnvSpec(b=1, kind="const:1.0", seed=3)
    for w in range(4):
        _hash_run(h, _simulate(spec, SubtreeSpec.full_tree(), walk_index=w,
                               max_steps=5000, stop_at_sentinel=True))
    assert h.hexdigest()[:32] == GOLDEN_SENTINEL_STOP
