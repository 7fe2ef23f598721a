"""Step-level behavior of the quenched walk runner and its summaries."""

import io

import numpy as np
import pytest

from rwre.env import EnvSpec
from rwre.errors import InvalidInputError
from rwre.tree import ROOT, SENTINEL
from rwre.walk import (
    EscapeEstimate,
    StopRule,
    escape_probability,
    run_walk,
    step_walk,
    trajectory_summary,
    trajectory_to_csv,
)


SPEC = EnvSpec(b=2, kind="lerrw:1.0", seed=88)


class TestStopRule:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            StopRule(max_level=0)
        with pytest.raises(InvalidInputError):
            StopRule(max_steps=0)


class TestRunWalk:
    def test_unit_level_increments(self):
        traj = run_walk(SPEC, StopRule(max_steps=2000))
        diffs = np.diff(traj.levels)
        assert set(np.unique(diffs)) <= {-1, 1}
        assert traj.levels[0] == 0

    def test_deterministic_per_replica(self):
        a = run_walk(SPEC, StopRule(max_steps=800), walk_index=4)
        b = run_walk(SPEC, StopRule(max_steps=800), walk_index=4)
        c = run_walk(SPEC, StopRule(max_steps=800), walk_index=5)
        assert np.array_equal(a.levels, b.levels)
        assert not np.array_equal(a.levels, c.levels)

    def test_stop_reasons(self):
        caps = run_walk(SPEC, StopRule(max_steps=100))
        assert caps.stop_reason == "steps"
        assert caps.steps_taken == 100
        lvl = run_walk(SPEC, StopRule(max_level=30))
        assert lvl.stop_reason == "level"
        assert lvl.levels[-1] == 30
        assert lvl.max_level_attained == 30

    def test_sentinel_reflects_and_can_stop(self):
        # const:1.0 at b=1 is recurrent, so the sentinel is hit quickly
        spec = EnvSpec(b=1, kind="const:1.0", seed=3)
        bounce = run_walk(spec, StopRule(max_steps=5000))
        assert bounce.levels.min() == -1
        i = int(np.argmin(bounce.levels))
        assert bounce.levels[i + 1] == 0
        halted = run_walk(spec, StopRule(max_steps=5000, stop_at_sentinel=True))
        assert halted.stop_reason == "sentinel"
        assert halted.levels[-1] == -1

    def test_first_step_matches_step_walk(self):
        for w in range(8):
            traj = run_walk(SPEC, StopRule(max_steps=1), walk_index=w)
            assert traj.vertex_path_at_step(1) == step_walk(SPEC, ROOT, walk_index=w)

    def test_step_from_sentinel_returns_to_root(self):
        assert step_walk(SPEC, SENTINEL) == ROOT


class TestTrajectoryViews:
    def test_visit_counts_account_for_every_step(self):
        traj = run_walk(SPEC, StopRule(max_steps=700))
        counts = traj.visit_counts()
        assert sum(counts.values()) == traj.steps_taken + 1
        assert counts[ROOT] >= 1

    def test_fresh_vertices_start_at_root(self):
        traj = run_walk(SPEC, StopRule(max_steps=700))
        fresh = traj.fresh_vertex_times()
        assert fresh[0] == (0, ROOT)
        steps = [s for s, _ in fresh]
        assert steps == sorted(steps)
        assert traj.distinct_per_level()[0] == 1
        assert traj.distinct_per_level().sum() == len(
            [v for _, v in fresh if v is not SENTINEL])

    def test_first_passage_steps_are_first_hits(self):
        traj = run_walk(SPEC, StopRule(max_level=25))
        tn = traj.first_passage_steps()
        assert tn[0] == 0
        assert len(tn) == 26
        for n in (1, 10, 25):
            assert traj.levels[tn[n]] == n
            assert np.all(traj.levels[: tn[n]] < n)

    def test_summary_keys(self):
        traj = run_walk(SPEC, StopRule(max_level=10))
        s = trajectory_summary(traj)
        assert s["stop_reason"] == "level"
        assert s["max_level"] == 10
        assert s["first_passage_steps"]["10"] == traj.steps_taken


class TestCsvExport:
    def test_stride_keeps_last_row(self):
        traj = run_walk(SPEC, StopRule(max_steps=103))
        fh = io.StringIO()
        trajectory_to_csv(traj, fh, stride=10)
        rows = fh.getvalue().strip().splitlines()
        assert rows[0] == "step,level"
        assert rows[1] == "0,0"
        assert rows[-1] == f"103,{traj.levels[-1]}"
        assert len(rows) == 2 + 103 // 10 + 1

    def test_stride_validation(self):
        traj = run_walk(SPEC, StopRule(max_steps=10))
        with pytest.raises(InvalidInputError):
            trajectory_to_csv(traj, io.StringIO(), stride=0)


class TestEscapeProbability:
    def test_depth_one_equal_weights_oracle(self):
        # A == 1 at the root: first move decides, two of three edges go down
        spec = EnvSpec(b=2, kind="const:1.0", seed=12)
        est = escape_probability(spec, 1, trials=4000)
        assert isinstance(est, EscapeEstimate)
        assert est.probability == pytest.approx(2.0 / 3.0, abs=0.025)
        assert est.ci_low < 2.0 / 3.0 < est.ci_high
        assert est.scaled_estimate == pytest.approx(2 * est.probability)
        assert est.successes == round(est.probability * est.trials)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            escape_probability(SPEC, 0, trials=500)
        with pytest.raises(InvalidInputError):
            escape_probability(SPEC, 2, trials=50)
