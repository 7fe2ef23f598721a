"""Regeneration detection on hand-traced level sequences and the gap
machinery built on it."""

import io
from types import SimpleNamespace

import numpy as np
import pytest

from rwre.env import EnvSpec
from rwre.errors import InsufficientDataError, InvalidInputError
from rwre.regen import (
    GapSample,
    RegenRecord,
    concat_gaps,
    detect_regenerations,
    export_records_csv,
    regeneration_gaps,
)
from rwre.walk import StopRule, run_walk


def fake_traj(levels):
    return SimpleNamespace(levels=np.asarray(levels, dtype=np.int64))


class TestDetection:
    def test_hand_traced_sequence(self):
        # the step-1 maximum is disqualified by the later dip to 0;
        # steps 4 and 5 are true regenerations
        recs = detect_regenerations(fake_traj([0, 1, 0, 1, 2, 3]), guard=0)
        assert [(r.m, r.level, r.time) for r in recs] == [
            (0, 0, 0), (1, 2, 4), (2, 3, 5)]
        assert all(r.confirmed for r in recs)

    def test_guard_marks_top_records_unconfirmed(self):
        recs = detect_regenerations(fake_traj([0, 1, 0, 1, 2, 3]), guard=1)
        assert [r.confirmed for r in recs] == [True, True, False]
        recs = detect_regenerations(fake_traj([0, 1, 0, 1, 2, 3]), guard=4)
        assert [r.confirmed for r in recs] == [False, False, False]

    def test_origin_record_only(self):
        recs = detect_regenerations(fake_traj([0]), guard=0)
        assert [(r.m, r.level, r.time, r.confirmed) for r in recs] == [
            (0, 0, 0, True)]

    def test_records_are_value_objects(self):
        recs = detect_regenerations(fake_traj([0, 1, 2]), guard=1)
        assert recs == [RegenRecord(0, 0, 0, True), RegenRecord(1, 1, 1, True),
                        RegenRecord(2, 2, 2, False)]

    def test_sentinel_dip_disqualifies_origin(self):
        # only a fresh maximum can regenerate: the re-climb through levels
        # 1 and 2 stays below the old maximum, so step 9 is the single hit
        recs = detect_regenerations(fake_traj([0, 1, 2, 1, 0, -1, 0, 1, 2, 3]),
                                    guard=0)
        assert [(r.m, r.level, r.time) for r in recs] == [(0, 0, 0), (1, 3, 9)]
        assert not recs[0].confirmed  # origin dips to -1 later
        assert recs[1].confirmed

    def test_negative_guard_rejected(self):
        with pytest.raises(InvalidInputError):
            detect_regenerations(fake_traj([0, 1]), guard=-1)


class TestGaps:
    RECS = detect_regenerations(fake_traj([0, 1, 0, 1, 2, 3]), guard=0)

    def test_gaps_with_and_without_first(self):
        g = regeneration_gaps(self.RECS, drop_first=False)
        assert list(g.level_gaps) == [2, 1]
        assert list(g.time_gaps) == [4, 1]
        g2 = regeneration_gaps(self.RECS, drop_first=True)
        assert list(g2.level_gaps) == [1]
        assert list(g2.time_gaps) == [1]
        assert g2.drop_first

    def test_insufficient_confirmed_records(self):
        recs = detect_regenerations(fake_traj([0, 1, 0, 1, 2, 3]), guard=1)
        with pytest.raises(InsufficientDataError):
            regeneration_gaps(recs, drop_first=True)

    def test_gap_sample_validation(self):
        with pytest.raises(InvalidInputError):
            GapSample(level_gaps=np.array([2]), time_gaps=np.array([1]),
                      drop_first=True)
        with pytest.raises(InvalidInputError):
            GapSample(level_gaps=np.array([1, 1]), time_gaps=np.array([3]),
                      drop_first=True)
        with pytest.raises(InvalidInputError):
            GapSample(level_gaps=np.array([0]), time_gaps=np.array([2]),
                      drop_first=True)

    def test_concat_pools_in_order(self):
        a = GapSample(np.array([1, 2]), np.array([1, 4]), drop_first=True)
        b = GapSample(np.array([3]), np.array([5]), drop_first=True)
        pool = concat_gaps([a, b])
        assert list(pool.level_gaps) == [1, 2, 3]
        assert list(pool.time_gaps) == [1, 4, 5]
        with pytest.raises(InsufficientDataError):
            concat_gaps([])


class TestOnRealWalks:
    def test_cut_levels_hold_one_distinct_vertex(self):
        spec = EnvSpec(b=4, kind="lerrw:1.0", seed=33)
        traj = run_walk(spec, StopRule(max_level=400))
        recs = detect_regenerations(traj, guard=60)
        confirmed = [r for r in recs if r.m >= 1 and r.confirmed]
        assert len(confirmed) > 50
        per_level = traj.distinct_per_level()
        for r in confirmed:
            assert per_level[r.level] == 1
        # levels and times are strictly ordered along the record chain
        assert all(a.level < b.level and a.time < b.time
                   for a, b in zip(confirmed, confirmed[1:]))

    def test_gap_consistency_on_real_walk(self):
        spec = EnvSpec(b=4, kind="lerrw:1.0", seed=33)
        traj = run_walk(spec, StopRule(max_level=400))
        g = regeneration_gaps(detect_regenerations(traj, guard=60),
                              drop_first=True)
        assert (g.level_gaps <= g.time_gaps).all()
        assert (np.asarray(g.time_gaps) % 2 == np.asarray(g.level_gaps) % 2).all()


class TestCsvExport:
    def test_rows_and_header(self):
        recs = detect_regenerations(fake_traj([0, 1, 0, 1, 2, 3]), guard=1)
        fh = io.StringIO()
        export_records_csv(fh, [(0, recs)])
        rows = fh.getvalue().strip().splitlines()
        assert rows[0] == "run_id,m,level,time,confirmed"
        assert rows[1] == "0,0,0,0,1"
        assert rows[-1] == "0,2,3,5,0"
