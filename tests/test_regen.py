"""Regeneration detection on hand-traced level sequences and the gap
machinery built on it."""

from types import SimpleNamespace

import numpy as np
import pytest

from rwre.env import EnvSpec
from rwre.errors import InsufficientDataError, InvalidInputError
from rwre.regen import (
    GapSample,
    concat_gaps,
    detect_regenerations,
    regeneration_gaps,
)
from rwre.clocks import StopRule
from rwre.walk import run_walk


def fake_traj(levels):
    return SimpleNamespace(levels=np.asarray(levels, dtype=np.int64))


class TestDetection:
    def test_hand_traced_sequence(self):
        # the step-1 maximum is disqualified by the later dip to 0;
        # steps 4 and 5 are true regenerations
        times = detect_regenerations(fake_traj([0, 1, 0, 1, 2, 3]), guard=0)
        assert times.dtype == np.int64
        assert list(times) == [0, 4, 5]

    def test_guard_marks_top_records_unconfirmed(self):
        assert list(detect_regenerations(fake_traj([0, 1, 0, 1, 2, 3]),
                                         guard=1)) == [0, 4]
        assert list(detect_regenerations(fake_traj([0, 1, 0, 1, 2, 3]),
                                         guard=4)) == []

    def test_origin_record_only(self):
        assert list(detect_regenerations(fake_traj([0]), guard=0)) == [0]

    def test_sentinel_dip_disqualifies_origin(self):
        # only a fresh maximum can regenerate: the re-climb through levels
        # 1 and 2 stays below the old maximum, so step 9 is the single hit,
        # and the origin dips to -1 later
        times = detect_regenerations(
            fake_traj([0, 1, 2, 1, 0, -1, 0, 1, 2, 3]), guard=0)
        assert list(times) == [9]

    def test_negative_guard_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_regenerations(fake_traj([0, 1]), guard=-1)


class TestGaps:
    def test_gaps_drop_the_first(self):
        # confirmed records at (level, time) (0, 0), (2, 4), (3, 5): the
        # origin-to-first gap (2, 4) is dropped
        g = regeneration_gaps(fake_traj([0, 1, 0, 1, 2, 3]), guard=0)
        assert list(g.level_gaps) == [1]
        assert list(g.time_gaps) == [1]

    def test_insufficient_confirmed_records(self):
        with pytest.raises(InsufficientDataError):
            regeneration_gaps(fake_traj([0, 1, 0, 1, 2, 3]), guard=1)

    def test_gap_sample_validation(self):
        with pytest.raises(InvalidInputError):
            GapSample(level_gaps=np.array([2]), time_gaps=np.array([1]))
        with pytest.raises(InvalidInputError):
            GapSample(level_gaps=np.array([1, 1]), time_gaps=np.array([3]))
        with pytest.raises(InvalidInputError):
            GapSample(level_gaps=np.array([0]), time_gaps=np.array([2]))

    def test_concat_pools_in_order(self):
        a = GapSample(np.array([1, 2]), np.array([1, 4]))
        b = GapSample(np.array([3]), np.array([5]))
        pool = concat_gaps([a, b])
        assert list(pool.level_gaps) == [1, 2, 3]
        assert list(pool.time_gaps) == [1, 4, 5]
        with pytest.raises(InsufficientDataError):
            concat_gaps([])


class TestOnRealWalks:
    SPEC = EnvSpec(b=4, kind="lerrw:1.0", seed=33)
    STOP = StopRule(max_steps=10 ** 8, max_level=400)

    def test_cut_levels_hold_one_distinct_vertex(self):
        traj = run_walk(self.SPEC, self.STOP)
        times = detect_regenerations(traj, guard=60)
        times = times[times > 0]
        levels = traj.levels[times]
        assert len(levels) > 50
        per_level = np.bincount([traj.dep[vid] for _, vid in traj.fresh])
        assert (per_level[levels] == 1).all()
        # levels and times are strictly ordered along the record chain
        assert (np.diff(levels) > 0).all() and (np.diff(times) > 0).all()

    def test_levels_visited_once_are_cut_levels(self):
        # the paper's regenerative levels, visited exactly once, are a
        # subset of the cut levels; the converse fails, since a cut level
        # can be revisited from above
        traj = run_walk(self.SPEC, self.STOP)
        times = detect_regenerations(traj, guard=60)
        cut = traj.max_level_attained - 60
        visits = np.bincount(traj.levels[traj.levels >= 0])
        once = np.flatnonzero(visits[:cut + 1] == 1)
        assert len(once) > 50
        assert set(once) <= set(traj.levels[times])
        assert (visits[traj.levels[times]] > 1).any()

    def test_gap_consistency_on_real_walk(self):
        g = regeneration_gaps(run_walk(self.SPEC, self.STOP), guard=60)
        assert (g.level_gaps <= g.time_gaps).all()
        assert (np.asarray(g.time_gaps) % 2 == np.asarray(g.level_gaps) % 2).all()
