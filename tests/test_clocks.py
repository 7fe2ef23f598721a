"""Exponential-clock machinery: keys, rates, subtree extensions, and the
restriction/independence structure they support."""

import numpy as np
import pytest

from rwre.clocks import (
    ClockKey,
    IndependenceReport,
    SubtreeSpec,
    clock_sample,
    edge_disjoint,
    first_child,
    independence_check,
    jump_rate,
    lambda_restriction_sequence,
    run_extension,
)
from rwre.env import EnvSpec, sample_weights
from rwre.errors import InvalidInputError
from rwre.tree import ROOT, SENTINEL
from rwre.walk import StopRule, run_walk


SPEC = EnvSpec(b=3, kind="lerrw:1.0", seed=404)


class TestClockKey:
    def test_negative_jump_count_rejected(self):
        with pytest.raises(InvalidInputError):
            ClockKey(from_vertex=(1,), to_vertex=(), k=-1)

    def test_non_neighbors_rejected(self):
        with pytest.raises(InvalidInputError):
            ClockKey(from_vertex=(1,), to_vertex=(2, 1), k=0)
        with pytest.raises(InvalidInputError):
            ClockKey(from_vertex=SENTINEL, to_vertex=(1,), k=0)

    def test_sentinel_root_edge_is_valid(self):
        key = ClockKey(from_vertex=SENTINEL, to_vertex=ROOT, k=0)
        assert clock_sample(SPEC, key) > 0.0


class TestClockSample:
    def test_deterministic_in_key_and_replica(self):
        key = ClockKey(from_vertex=(2,), to_vertex=(2, 3), k=5)
        a = clock_sample(SPEC, key, walk_index=7)
        b = clock_sample(SPEC, key, walk_index=7)
        assert a == b
        assert clock_sample(SPEC, key, walk_index=8) != a

    def test_distinct_jump_counts_decouple(self):
        vals = {clock_sample(SPEC, ClockKey((1,), (1, 2), k=k)) for k in range(32)}
        assert len(vals) == 32

    def test_unit_mean_over_many_edges(self):
        # k-indexed clocks over one edge form an i.i.d. unit-exponential family
        vals = [clock_sample(SPEC, ClockKey((3,), (3, 1), k=k)) for k in range(20000)]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.03)

    def test_paired_directions_uncorrelated(self):
        up = np.array([clock_sample(SPEC, ClockKey((1, 1), (1,), k=k))
                       for k in range(20000)])
        down = np.array([clock_sample(SPEC, ClockKey((1,), (1, 1), k=k))
                         for k in range(20000)])
        corr = np.corrcoef(up, down)[0, 1]
        assert abs(corr) < 0.03


class TestJumpRate:
    def test_parent_edge_rate_is_one(self):
        assert jump_rate(SPEC, (2, 1), (2,)) == 1.0
        assert jump_rate(SPEC, ROOT, SENTINEL) == 1.0
        assert jump_rate(SPEC, SENTINEL, ROOT) == 1.0

    def test_child_edge_rate_matches_environment(self):
        w = sample_weights(SPEC, (2,))
        for i in range(1, SPEC.b + 1):
            assert jump_rate(SPEC, (2,), (2, i)) == w[i - 1]


class TestSubtreeSpec:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SubtreeSpec(kind="blob")
        with pytest.raises(InvalidInputError):
            SubtreeSpec(kind="full_tree", vertex=(1,))
        with pytest.raises(InvalidInputError):
            SubtreeSpec(kind="lambda", vertex=SENTINEL)
        with pytest.raises(InvalidInputError):
            SubtreeSpec(kind="lambda")

    def test_subtree_roots(self):
        assert SubtreeSpec.full_tree().root_of_subtree == ROOT
        assert SubtreeSpec.lambda_subtree((2, 3)).root_of_subtree == (2,)
        assert SubtreeSpec.lambda_subtree(ROOT).root_of_subtree is SENTINEL


class TestEdgeDisjoint:
    def test_sibling_cones_are_disjoint(self):
        a = SubtreeSpec.lambda_subtree((1,))
        b = SubtreeSpec.lambda_subtree((2,))
        assert edge_disjoint(a, b)

    def test_nested_cones_share_edges(self):
        a = SubtreeSpec.lambda_subtree((1,))
        b = SubtreeSpec.lambda_subtree((1, 1))
        assert not edge_disjoint(a, b)
        assert not edge_disjoint(SubtreeSpec.full_tree(), a)


class TestExtensions:
    def test_lambda_run_stays_in_its_cone(self):
        # the anchor (2,) may only step down to (2, 1), also when the run
        # comes back to it; everything else the run visits lies below (2, 1)
        st = SubtreeSpec.lambda_subtree((2, 1))
        returns = 0
        for w in range(8):
            traj = run_extension(SPEC, st, StopRule(max_steps=500), walk_index=w)
            paths = [traj.vertex_path_at_step(t) for t in range(len(traj.ids))]
            assert paths[:2] == [(2,), (2, 1)]
            assert all(p == (2,) or p[:2] == (2, 1) for p in paths)
            returns += paths[2:].count((2,))
        assert returns

    def test_extension_is_reproducible(self):
        st = SubtreeSpec.lambda_subtree((2,))
        a = run_extension(SPEC, st, StopRule(max_steps=500), walk_index=3)
        b = run_extension(SPEC, st, StopRule(max_steps=500), walk_index=3)
        assert np.array_equal(a.levels, b.levels)
        assert a.visited_digest_sequence() == b.visited_digest_sequence()

    def test_anchor_is_subtree_root(self):
        st = SubtreeSpec.lambda_subtree((2, 1))
        traj = run_extension(SPEC, st, StopRule(max_steps=50))
        assert traj.vertex_path_at_step(0) == (2,)
        assert traj.levels[0] == 1

    def test_root_race_frequency(self):
        # the root races the sentinel edge (rate 1) against two child edges
        # (rate 3 each): the first step goes up with probability 1/7
        spec = EnvSpec(b=2, kind="const:3.0", seed=404)
        ups = 0
        trials = 4000
        for w in range(trials):
            traj = run_extension(spec, SubtreeSpec.full_tree(),
                                 StopRule(max_steps=1), walk_index=w)
            ups += int(traj.levels[1] == -1)
        assert ups / trials == pytest.approx(1 / 7, abs=0.02)


class TestFirstChild:
    def test_matches_first_descent_of_extension(self):
        for walk_index in range(6):
            traj = run_extension(SPEC, SubtreeSpec.full_tree(),
                                 StopRule(max_level=1), walk_index=walk_index)
            assert traj.vertex_path_at_step(traj.steps_taken) == \
                first_child(SPEC, ROOT, walk_index=walk_index)

    def test_sentinel_rejected(self):
        with pytest.raises(InvalidInputError):
            first_child(SPEC, SENTINEL)


class TestRestriction:
    def test_restriction_matches_extension_prefix(self):
        nu = first_child(SPEC, ROOT)  # cone the walk is guaranteed to enter
        traj = run_walk(SPEC, StopRule(max_steps=3000))
        restr = lambda_restriction_sequence(traj, nu)
        assert len(restr) > 2
        ext = run_extension(SPEC, SubtreeSpec.lambda_subtree(nu),
                            StopRule(max_steps=len(restr) - 1))
        full = ext.visited_digest_sequence()
        assert full[: len(restr)] == restr

    def test_restriction_requires_full_tree_run(self):
        ext = run_extension(SPEC, SubtreeSpec.lambda_subtree((1, 2)),
                            StopRule(max_steps=100))
        with pytest.raises(InvalidInputError):
            lambda_restriction_sequence(ext, (1, 2, 1))


class TestIndependence:
    def test_disjoint_cones_pass(self):
        rep = independence_check(SPEC, SubtreeSpec.lambda_subtree((1,)),
                                 SubtreeSpec.lambda_subtree((2,)), trials=400)
        assert isinstance(rep, IndependenceReport)
        assert rep.table.sum() == 400
        assert rep.dof == (SPEC.b - 1) ** 2
        assert rep.p_value > 0.01

    def test_overlapping_cones_rejected(self):
        with pytest.raises(InvalidInputError):
            independence_check(SPEC, SubtreeSpec.lambda_subtree((1,)),
                               SubtreeSpec.lambda_subtree((1, 2)), trials=400)

    def test_non_lambda_subtree_rejected(self):
        with pytest.raises(InvalidInputError):
            independence_check(SPEC, SubtreeSpec.full_tree(),
                               SubtreeSpec.lambda_subtree((2,)), trials=400)
