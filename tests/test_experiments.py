"""Experiment pipelines on environments whose answers are known.

With every child weight 1 on the b = 4 tree, the level process away from
the root steps up with probability 4/5 and down with 1/5: speed 3/5 and
diffusion constant sqrt(1 - (3/5)^2) = 4/5.
"""

import pytest

from rwre import experiments
from rwre.env import EnvSpec
from rwre.errors import DataQualityError
from rwre.experiments import (
    CltReport,
    CouplingReport,
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
from rwre.stats import FcltReport
from rwre.clocks import StopRule
from rwre.walk import run_walk

CONST = EnvSpec(b=4, kind="const:1.0", seed=17)


def test_harvest_pools_confirmed_gaps():
    h = harvest_gaps(CONST, 16, max_level=100, guard=20)
    assert isinstance(h, HarvestResult)
    assert len(h.gaps) >= 16
    assert h.walks >= 1


def test_harvest_skips_walks_too_short_to_regenerate(monkeypatch):
    # 50 steps climb fewer than guard = 40 levels, so no walk confirms a
    # record: each is skipped and the harvest as a whole reports the shortfall
    monkeypatch.setattr(experiments, "MAX_STEPS_PER_WALK", 50)
    monkeypatch.setattr(experiments, "MAX_WALKS", 3)
    with pytest.raises(DataQualityError, match="collected 0 gaps from 3 walks"):
        harvest_gaps(CONST, 16, max_level=100, guard=40)


def test_speed_interval_covers_the_exact_speed():
    sr = speed_report(CONST, n_gaps=2000)
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
    assert len(cr.z_scores) == 100
    assert cr.v_hat == pytest.approx(0.6, abs=0.05)
    assert cr.sigma_hat == pytest.approx(0.8, rel=0.25)


def test_fclt_report_shapes():
    fr = fclt_report(CONST, n_walks=500, n_steps=200, gap_target=500,
                     alpha=0.01)
    assert isinstance(fr, FcltReport)
    assert len(fr.increment_tests) == 3
    assert len(fr.correlations) == 3


def test_moment_harvest_counts():
    mh = moment_harvest(CONST, trials=20, epsilon=0.3)
    assert isinstance(mh, MomentHarvest)
    assert (mh.root_visits >= 1).all()
    assert len(mh.first_regen_times) >= 19
    assert (mh.first_regen_times >= 1).all()


def test_coupling_identities_are_exact():
    rep = coupling_suite(EnvSpec(b=2, kind="lerrw:1.0", seed=2), seeds=6,
                         n_steps=500)
    assert isinstance(rep, CouplingReport)
    assert rep.full_matches == rep.restriction_matches == 6
    assert rep.nonempty_restrictions >= 1
    assert rep.restriction_compared > rep.nonempty_restrictions
