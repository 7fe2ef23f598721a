"""Regeneration detection on hand-traced level sequences, the walk summary
built on it, and the abstract's visited-once levels on real walks."""

from types import SimpleNamespace

import numpy as np
import pytest

from rwre.env import EnvSpec
from rwre.errors import InvalidInputError
from rwre.regen import GapSample, detect_regenerations, summarize
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
        g = summarize(fake_traj([0, 1, 0, 1, 2, 3]), guard=0).gaps
        assert list(g.level_gaps) == [1]
        assert list(g.time_gaps) == [1]

    def test_insufficient_confirmed_records(self):
        # two confirmed records give one gap, the dropped first; none
        # give none
        assert len(summarize(fake_traj([0, 1, 0, 1, 2, 3]), guard=1).gaps) == 0
        assert len(summarize(fake_traj([0, 1]), guard=4).gaps) == 0

    def test_gap_sample_validation(self):
        with pytest.raises(InvalidInputError):
            GapSample(level_gaps=np.array([2]), time_gaps=np.array([1]))
        with pytest.raises(InvalidInputError):
            GapSample(level_gaps=np.array([1, 1]), time_gaps=np.array([3]))
        with pytest.raises(InvalidInputError):
            GapSample(level_gaps=np.array([0]), time_gaps=np.array([2]))


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
        g = summarize(run_walk(self.SPEC, self.STOP), guard=60).gaps
        assert (g.level_gaps <= g.time_gaps).all()
        assert (np.asarray(g.time_gaps) % 2 == np.asarray(g.level_gaps) % 2).all()

    def test_summary_holds_what_the_pipelines_read(self):
        traj = run_walk(self.SPEC, self.STOP)
        summary = summarize(traj, guard=60)
        times = detect_regenerations(traj, guard=60)
        assert np.array_equal(summary.times, times)
        assert np.array_equal(summary.gaps.level_gaps,
                              np.diff(traj.levels[times])[1:])
        assert np.array_equal(summary.gaps.time_gaps, np.diff(times)[1:])
        assert len(summary.gaps) == len(times) - 2 > 50
        assert summary.root_visits == (traj.levels == 0).sum() > 0
        assert summary.top == traj.max_level_attained == 400


# Reinforced walks of two strengths and the simple walk at b = 4, and a
# gamma law at b = 3: the rule holds for every law on every tree.
VISITED_ONCE_LAWS = [(4, "lerrw:1.0"), (4, "const:1.0"), (4, "lerrw:2.0"),
                     (3, "gamma:0.3,3.3333333333333335")]


@pytest.mark.parametrize("b, kind", VISITED_ONCE_LAWS)
def test_no_two_consecutive_visited_once_levels_differ_by_two(b, kind):
    # The abstract's regenerative levels, those a walk visits exactly
    # once, are never two apart.  A walk that ends above level n + 2 and
    # visits n and n + 2 once each is below n before its visit to n, then
    # steps up to n + 1 (a step down would bring it back to n), then to
    # n + 2, and stays above n + 2 afterwards: so it visits n + 1 once
    # too, and n and n + 2 are not consecutive visited-once levels.  Cut
    # records (``detect_regenerations``) obey no such rule, and their gaps
    # of 2 show that the test tells the two notions apart.
    once_gaps_of_2 = cut_gaps_of_2 = 0
    for seed in range(3):
        traj = run_walk(EnvSpec(b=b, kind=kind, seed=seed),
                        StopRule(max_steps=10 ** 8, max_level=400))
        visits = np.bincount(traj.levels[traj.levels >= 0])
        once = np.flatnonzero(visits[:traj.max_level_attained - 60 + 1] == 1)
        assert len(once) > 10
        once_gaps_of_2 += int((np.diff(once) == 2).sum())
        cut_gaps_of_2 += int(
            (summarize(traj, guard=60).gaps.level_gaps == 2).sum())
    assert once_gaps_of_2 == 0
    assert cut_gaps_of_2 > 0
