"""Exponential-clock machinery: the clock values, subtree extensions, and
the restriction/independence structure they support."""

import tracemalloc

import numpy as np
import pytest

from rwre import streams
from rwre.clocks import (
    IndependenceReport,
    StopRule,
    _simulate,
    edge_disjoint,
    independence_check,
    lambda_restriction_sequence,
    run_extension,
)
from rwre.env import EnvSpec
from rwre.errors import InvalidInputError
from rwre.tree import ROOT
from rwre.walk import run_walk

from conftest import assert_no_child_left


SPEC = EnvSpec(b=3, kind="lerrw:1.0", seed=404)


def _advance_clocks(v, slot, n, walk_index=0):
    """Clocks k = 1..n of one slot of ``v``, read off its advance blocks
    eight at a time, as the walk engine reads them."""
    dg = streams.vertex_digest(SPEC.seed, v)
    w8 = streams.walk_token(walk_index)
    words = [x for m in range((n + 7) // 8)
             for x in streams.clock_advance_block(dg, w8, slot, m)]
    return np.array([-np.log((x >> 11) * streams.TWO53 + streams.TWO54)
                     for x in words[:n]])


class TestClockSample:
    def test_deterministic_in_key_and_replica(self):
        a = _advance_clocks((2,), 3, 16, walk_index=7)
        assert np.array_equal(a, _advance_clocks((2,), 3, 16, walk_index=7))
        assert not np.any(a == _advance_clocks((2,), 3, 16, walk_index=8))

    def test_distinct_jump_counts_decouple(self):
        assert len(set(_advance_clocks((1,), 2, 32))) == 32

    def test_unit_mean_over_many_edges(self):
        # k-indexed clocks over one edge form an i.i.d. unit-exponential family
        vals = _advance_clocks((3,), 1, 20000)
        assert np.mean(vals) == pytest.approx(1.0, abs=0.03)

    def test_paired_directions_uncorrelated(self):
        # the two orientations of the edge between (1,) and (1, 1)
        up = _advance_clocks((1, 1), 0, 20000)
        down = _advance_clocks((1,), 1, 20000)
        corr = np.corrcoef(up, down)[0, 1]
        assert abs(corr) < 0.03


class TestSubtrees:
    def test_validation(self):
        # a top vertex is a path of digits in 1..b
        for nu in ((0,), (1, SPEC.b + 1)):
            with pytest.raises(InvalidInputError):
                run_extension(SPEC, nu, StopRule(max_steps=1))
        # independence statistics need two vertices below the root
        with pytest.raises(InvalidInputError):
            independence_check(SPEC, ROOT, (2,), trials=400, threads=1)

    def test_subtree_roots(self):
        # a run starts at its subtree's root: the vertex closest to the root
        def start(nu):
            run = run_extension(SPEC, nu, StopRule(max_steps=1))
            return run.path_of(run.ids[0]), int(run.levels[0])

        assert start(ROOT) == (ROOT, 0)
        assert start((2, 3)) == ((2,), 1)


class TestEdgeDisjoint:
    def test_sibling_cones_are_disjoint(self):
        assert edge_disjoint((1,), (2,))

    def test_nested_cones_share_edges(self):
        assert not edge_disjoint((1,), (1, 1))
        assert not edge_disjoint(ROOT, (1,))


class TestExtensions:
    def test_lambda_run_stays_in_its_cone(self):
        # the anchor (2,) may only step down to (2, 1), also when the run
        # comes back to it; everything else the run visits lies below (2, 1)
        returns = 0
        for w in range(8):
            traj = _simulate(SPEC, (2, 1), StopRule(max_steps=500), w)
            paths = [traj.path_of(i) for i in traj.ids]
            assert paths[:2] == [(2,), (2, 1)]
            assert all(p == (2,) or p[:2] == (2, 1) for p in paths)
            returns += paths[2:].count((2,))
        assert returns

    def test_extension_is_reproducible(self):
        a = _simulate(SPEC, (2,), StopRule(max_steps=500), 3)
        b = _simulate(SPEC, (2,), StopRule(max_steps=500), 3)
        assert np.array_equal(a.levels, b.levels)
        assert a.visited_digest_sequence() == b.visited_digest_sequence()

    def test_anchor_is_subtree_root(self):
        traj = run_extension(SPEC, (2, 1), StopRule(max_steps=50))
        assert traj.path_of(traj.ids[0]) == (2,)
        assert traj.levels[0] == 1

    def test_root_race_frequency(self):
        # the root races the sentinel edge (rate 1) against two child edges
        # (rate 3 each): the first step goes up with probability 1/7
        spec = EnvSpec(b=2, kind="const:3.0", seed=404)
        ups = 0
        trials = 4000
        for w in range(trials):
            traj = _simulate(spec, ROOT, StopRule(max_steps=1), w)
            ups += int(traj.levels[1] == -1)
        assert ups / trials == pytest.approx(1 / 7, abs=0.02)


class TestMemory:
    def test_a_visited_vertex_costs_under_a_kilobyte(self, both_loops):
        # A 4,000-step walk at (4, lerrw:1.0) allocates its trajectory and
        # the race state of each raced vertex; its peak traced allocation
        # stays within 1,000 bytes per visited vertex.
        for loop in both_loops:
            for seed in (3, 11, 2024):
                spec = EnvSpec(b=4, kind="lerrw:1.0", seed=seed)
                # build the cached sampler and load the loop before tracing
                _simulate(spec, ROOT, StopRule(max_steps=10))
                tracemalloc.start()
                try:
                    run = _simulate(spec, ROOT, StopRule(max_steps=4000))
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                visited = len(run.par) - 1  # the sentinel aside
                assert peak <= 1000 * visited, (loop, seed, peak / visited)


class TestRestriction:
    def test_restriction_matches_extension_prefix(self):
        traj = run_walk(SPEC, StopRule(max_steps=3000))
        # the cone of the root's first descent: the walk is sure to enter it
        nu = traj.path_of(traj.ids[int(np.argmax(traj.levels == 1))])
        restr = lambda_restriction_sequence(traj, nu)
        assert len(restr) > 2
        ext = run_extension(SPEC, nu, StopRule(max_steps=len(restr) - 1))
        full = ext.visited_digest_sequence()
        assert full[: len(restr)] == restr

    def test_restriction_requires_full_tree_run(self):
        ext = run_extension(SPEC, (1, 2), StopRule(max_steps=100))
        with pytest.raises(InvalidInputError):
            lambda_restriction_sequence(ext, (1, 2, 1))


class TestIndependence:
    def test_disjoint_cones_pass(self):
        rep = independence_check(SPEC, (1,), (2,), trials=400, threads=1)
        assert isinstance(rep, IndependenceReport)
        assert rep.table.sum() == 400
        assert rep.dof == (SPEC.b - 1) ** 2
        assert rep.p_value > 0.01

    def test_table_is_thread_invariant(self, two_cpus):
        one = independence_check(SPEC, (1,), (2,), trials=400, threads=1)
        two = independence_check(SPEC, (1,), (2,), trials=400, threads=2)
        assert two.table.dtype == one.table.dtype
        assert two.table.tobytes() == one.table.tobytes()
        assert (two.statistic, two.p_value) == (one.statistic, one.p_value)
        assert_no_child_left()

    def test_overlapping_cones_rejected(self):
        with pytest.raises(InvalidInputError):
            independence_check(SPEC, (1,), (1, 2), trials=400, threads=1)

    def test_non_lambda_subtree_rejected(self):
        with pytest.raises(InvalidInputError):
            independence_check(SPEC, ROOT, (2,), trials=400, threads=1)

    def test_bad_digit_rejected_before_any_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(streams, "keyed_map", no_trials)
        for nu_a, nu_b in (((1,), (SPEC.b + 1,)), ((0, 1), (2,))):
            with pytest.raises(InvalidInputError):
                independence_check(SPEC, nu_a, nu_b, trials=100, threads=1)

