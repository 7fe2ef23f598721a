"""Experiment pipelines on environments whose answers are known.

With every child weight 1 on the b = 4 tree, the level process away from
the root steps up with probability 4/5 and down with 1/5: speed 3/5 and
diffusion constant sqrt(1 - (3/5)^2) = 4/5.
"""

import math

import numpy as np
import pytest

from rwre import experiments
from rwre.env import EnvSpec
from rwre.errors import DataQualityError
from rwre.experiments import (
    CltReport,
    CouplingReport,
    HarvestResult,
    MomentHarvest,
    clt_report,
    coupling_suite,
    ensemble_levels,
    harvest_gaps,
    moment_harvest,
)
from rwre.stats import (
    FcltReport,
    estimate_sigma,
    estimate_speed,
    fclt_increment_test,
)
from rwre.clocks import StopRule
from rwre.walk import run_walk

from conftest import assert_no_child_left

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
    h = harvest_gaps(CONST, 2000, tag=b"speed")
    e = estimate_speed(h.gaps)
    assert e.ci_low < 0.6 < e.ci_high
    assert len(h.gaps) == e.n_gaps


def test_ensemble_levels_are_walk_levels_at_fclt_times():
    # steps floor(50 t) for t = 1/4, 1/2, 3/4, 1
    levels = ensemble_levels(CONST, 3, 50, tag=b"fd")
    assert levels.shape == (3, 4)
    for i in range(3):
        traj = run_walk(CONST.subseed(b"fd", i), StopRule(max_steps=50))
        assert list(levels[i]) == [traj.levels[k] for k in (12, 25, 37, 50)]
        assert levels[i, -1] == traj.levels[-1]


def test_clt_plug_ins_match_the_exact_constants():
    cr = clt_report(CONST, n_walks=100, n_steps=200)
    assert isinstance(cr, CltReport)
    assert len(cr.z_scores) == 100
    assert cr.v_hat == pytest.approx(0.6, abs=0.05)
    assert cr.sigma_hat == pytest.approx(0.8, rel=0.25)
    # the z-scores are the test ensemble's normalized endpoint distances
    z = ((np.abs(cr.levels[:, -1]) - cr.v_hat * 200)
         / (cr.sigma_hat * math.sqrt(200)))
    assert np.array_equal(cr.z_scores, z)


def test_clt_levels_feed_the_fclt_test():
    cr = clt_report(CONST, n_walks=500, n_steps=200)
    h = harvest_gaps(CONST, 500, tag=b"speed")
    v = estimate_speed(h.gaps).v_hat
    fr = fclt_increment_test(cr.levels, 200, v, estimate_sigma(h.gaps, v),
                             alpha=0.01)
    assert isinstance(fr, FcltReport)
    assert len(fr.increment_tests) == 3
    assert all(t.n == 500 for t in fr.increment_tests)
    assert len(fr.correlations) == 3


def test_moment_harvest_counts():
    mh = moment_harvest(CONST, trials=20, epsilon=0.3, threads=1)
    assert isinstance(mh, MomentHarvest)
    assert (mh.root_visits >= 1).all()
    assert len(mh.first_regen_times) >= 19
    assert (mh.first_regen_times >= 1).all()


def test_coupling_identities_are_exact():
    rep = coupling_suite(EnvSpec(b=2, kind="lerrw:1.0", seed=2), seeds=6,
                         n_steps=500, threads=1)
    assert isinstance(rep, CouplingReport)
    assert rep.restriction_matches == 6
    assert rep.nonempty_restrictions >= 1
    assert rep.restriction_compared > rep.nonempty_restrictions


def test_coupling_suite_counts_are_thread_invariant(two_cpus):
    spec = EnvSpec(b=2, kind="lerrw:1.0", seed=2)
    one = coupling_suite(spec, seeds=6, n_steps=500, threads=1)
    assert coupling_suite(spec, seeds=6, n_steps=500, threads=2) == one
    assert_no_child_left()


def test_moment_harvest_arrays_are_thread_invariant(two_cpus):
    one = moment_harvest(CONST, trials=20, epsilon=0.3, threads=1)
    two = moment_harvest(CONST, trials=20, epsilon=0.3, threads=2)
    for a, b in ((one.root_visits, two.root_visits),
                 (one.first_regen_times, two.first_regen_times)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert_no_child_left()


def test_moment_harvest_error_is_thread_invariant(two_cpus):
    # every child weight 0.01 puts the root's parent-edge probability at
    # 1/1.04 > 1 - epsilon, so no redraw meets the root condition
    spec = EnvSpec(b=4, kind="const:0.01", seed=3)
    errors = []
    for threads in (1, 2):
        with pytest.raises(DataQualityError) as info:
            moment_harvest(spec, trials=4, epsilon=0.3, threads=threads)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert_no_child_left()
