"""Experiment pipelines on environments whose answers are known.

With every child weight 1 on the b = 4 tree, the level process away from
the root steps up with probability 4/5 and down with 1/5: speed 3/5 and
diffusion constant sqrt(1 - (3/5)^2) = 4/5.
"""

import pytest

from rwre.env import EnvSpec
from rwre.experiments import (
    CltReport,
    CouplingReport,
    FcltRunReport,
    HarvestResult,
    MomentHarvest,
    SpeedReport,
    clt_report,
    coupling_suite,
    fclt_report,
    final_distances,
    harvest_gaps,
    moment_harvest,
    speed_report,
)
from rwre.walk import StopRule, run_walk

CONST = EnvSpec(b=4, kind="const:1.0", seed=17)


def test_harvest_pools_confirmed_gaps():
    h = harvest_gaps(CONST, 16, max_level=100, guard=20)
    assert isinstance(h, HarvestResult)
    assert len(h.gaps) >= 16
    assert h.walks >= 1
    assert h.total_steps >= int(h.gaps.time_gaps.sum())


def test_speed_interval_covers_the_exact_speed():
    sr = speed_report(CONST, n_gaps=2000, max_level=400, guard=40)
    assert isinstance(sr, SpeedReport)
    e = sr.estimate
    assert e.ci_low < 0.6 < e.ci_high
    assert len(sr.harvest.gaps) == e.n_gaps


def test_final_distances_are_walk_endpoints():
    d = final_distances(CONST, 3, 50, tag=b"fd")
    for i in range(3):
        traj = run_walk(CONST.subseed(b"fd", i), StopRule(max_steps=50))
        assert d[i] == abs(int(traj.levels[-1]))


def test_clt_plug_ins_match_the_exact_constants():
    cr = clt_report(CONST, n_walks=100, n_steps=200)
    assert isinstance(cr, CltReport)
    assert len(cr.z_scores) == cr.n_test == 100
    assert cr.v_hat == pytest.approx(0.6, abs=0.05)
    assert cr.sigma_hat == pytest.approx(0.8, rel=0.25)


def test_fclt_report_shapes():
    fr = fclt_report(CONST, n_walks=500, n_steps=200, gap_target=500)
    assert isinstance(fr, FcltRunReport)
    assert fr.v_hat == fr.speed.v_hat
    assert len(fr.report.increment_tests) == 3
    assert len(fr.report.correlations) == 3


def test_moment_harvest_counts():
    mh = moment_harvest(CONST, trials=20, max_level=80, guard=30)
    assert isinstance(mh, MomentHarvest)
    assert mh.trials == 20
    assert (mh.root_visits >= 1).all()
    assert len(mh.first_regen_times) >= 19
    assert (mh.first_regen_times >= 1).all()


def test_coupling_identities_are_exact():
    rep = coupling_suite(EnvSpec(b=2, kind="lerrw:1.0", seed=2), seeds=6,
                         n_steps=500)
    assert isinstance(rep, CouplingReport)
    assert rep.all_exact
    assert rep.nonempty_restrictions >= 1
    assert rep.restriction_compared > rep.nonempty_restrictions
