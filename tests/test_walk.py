"""Step-level behavior of the quenched walk runner and its agreement with
the quenched escape probability of the ladder."""

from collections import Counter
from itertools import islice

import numpy as np
import pytest
from scipy import stats as st

from rwre.clocks import StopRule, _simulate
from rwre.env import EnvSpec, sample_weights, transition_probs
from rwre.errors import InvalidInputError
from rwre.quenched import _truncation_ladder, beta_root
from rwre.tree import ROOT
from rwre.walk import run_walk


SPEC = EnvSpec(b=2, kind="lerrw:1.0", seed=88)


class TestStopRule:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            StopRule(max_steps=100, max_level=0)
        with pytest.raises(InvalidInputError):
            StopRule(max_steps=0)


class TestRunWalk:
    def test_unit_level_increments(self):
        traj = run_walk(SPEC, StopRule(max_steps=2000))
        diffs = np.diff(traj.levels)
        assert set(np.unique(diffs)) <= {-1, 1}
        assert traj.levels[0] == 0

    def test_deterministic_per_replica(self):
        stop = StopRule(max_steps=800)
        a = _simulate(SPEC, ROOT, stop, 4)
        b = _simulate(SPEC, ROOT, stop, 4)
        c = _simulate(SPEC, ROOT, stop, 5)
        assert np.array_equal(a.levels, b.levels)
        assert not np.array_equal(a.levels, c.levels)

    def test_stop_reasons(self):
        caps = run_walk(SPEC, StopRule(max_steps=100))
        assert caps.stop_reason == "steps"
        assert caps.steps_taken == 100
        lvl = run_walk(SPEC, StopRule(max_steps=10 ** 8, max_level=30))
        assert lvl.stop_reason == "level"
        assert lvl.levels[-1] == 30
        assert lvl.max_level_attained == 30

    def test_sentinel_reflects_and_has_no_path(self):
        # const:1.0 at b=1 is recurrent, so the sentinel is hit quickly; a
        # step onto it (id 0, level -1) is followed by one back to the root
        # (id 1, level 0)
        spec = EnvSpec(b=1, kind="const:1.0", seed=3)
        bounce = run_walk(spec, StopRule(max_steps=5000))
        assert bounce.stop_reason == "steps"
        i = int(np.argmin(bounce.levels))
        assert bounce.levels[i] == -1 and bounce.ids[i] == 0
        assert bounce.levels[i + 1] == 0 and bounce.ids[i + 1] == 1
        assert bounce.path_of(1) == ROOT
        with pytest.raises(InvalidInputError):
            bounce.path_of(0)


    def test_zero_child_weight_is_never_taken(self):
        # A gamma shape below one draws u ** (1 / shape), which underflows
        # to 0.0 for small u: at this seed the root's first child weight is
        # exactly zero, a legal draw whose edge the walk must never take.
        spec = EnvSpec(b=3, kind="gamma:0.005,1", seed=8)
        assert sample_weights(spec, ROOT)[0] == 0.0
        traj = run_walk(spec, StopRule(max_steps=200))
        assert traj.steps_taken == 200
        assert (1,) not in {traj.path_of(vid) for vid in traj.ids if vid}
        assert transition_probs(sample_weights(spec, ROOT))[1] == 0.0
        assert 0.0 <= beta_root(spec, tol=1e-6, rel_tol=0.0).value <= 1.0


class TestTrajectoryViews:
    def test_fresh_vertices_start_at_root(self):
        # fresh lists each visited vertex but the sentinel (id 0) once, at
        # the step it is first hit
        traj = run_walk(SPEC, StopRule(max_steps=700))
        assert traj.fresh[0] == (0, 1)
        assert traj.path_of(1) == ROOT
        assert [traj.ids.index(vid) for _, vid in traj.fresh] == \
            [step for step, _ in traj.fresh]
        assert sorted(vid for _, vid in traj.fresh) == \
            sorted(set(traj.ids) - {0})


# Replicas per environment and environments per case of the oracle below.
ORACLE_REPLICAS = 400
ORACLE_ENVS = 24


@pytest.mark.parametrize("kind, b, n", [("lerrw:1.0", 4, 5), ("lerrw:0.5", 3, 6)])
def test_escape_counts_match_the_ladder(kind, b, n):
    # In a fixed environment the ladder's boundary-one depth-n value is
    # exactly the chance of reaching level n before the sentinel (level
    # -1), and walk indices give independent clocks in that environment,
    # so each escape count is Binomial(ORACLE_REPLICAS, beta_n).  A run
    # escaped when it reaches level n without ever visiting level -1.
    # Nothing is fitted, so Pearson's statistic over the environments has
    # ORACLE_ENVS degrees of freedom; the test rejects at p < 1e-3
    # (statistic above 51.2).
    spec = EnvSpec(b=b, kind=kind, seed=7)
    stop = StopRule(max_steps=10 ** 8, max_level=n)
    chi2 = 0.0
    for e in range(ORACLE_ENVS):
        sub = spec.subseed(b"oracle", e)
        beta = next(islice(_truncation_ladder(sub), n - 1, None))
        runs = [_simulate(sub, ROOT, stop, r) for r in range(ORACLE_REPLICAS)]
        assert {run.stop_reason for run in runs} == {"level"}
        escapes = sum(int(run.levels.min()) >= 0 for run in runs)
        expected = ORACLE_REPLICAS * beta
        chi2 += (escapes - expected) ** 2 / (expected * (1.0 - beta))
    assert st.chi2.sf(chi2, ORACLE_ENVS) > 1e-3, chi2


def _lerrw_path_law(b, n, delta):
    """Exact law of the first n steps of linearly edge-reinforced walk from
    the root: unit initial weights, each crossing adds ``delta``, and the
    root's edge to the sentinel (``None``, which reflects) counts as
    crossed once.  An edge is keyed by its deeper endpoint."""
    law = {}

    def extend(path, weights, prob):
        v = path[-1]
        if len(path) == n + 1:
            law[tuple(path)] = prob
            return
        if v is None:
            moves = [(ROOT, ROOT)]
        else:
            moves = [(v[:-1] if v else None, v)] + [(v + (i,), v + (i,))
                                                    for i in range(1, b + 1)]
        total = sum(weights.get(e, 1.0) for _, e in moves)
        for u, e in moves:
            w = weights.get(e, 1.0)
            extend(path + [u], {**weights, e: w + delta}, prob * w / total)

    extend([ROOT], {ROOT: 1.0 + delta}, 1.0)
    return law


# Walks per law of the oracle below.
LERRW_WALKS = 20_000


@pytest.mark.parametrize("b, n, delta", [(2, 6, 1.0), (2, 6, 0.5), (3, 5, 2.0)])
def test_lerrw_path_law_matches_reinforcement(b, n, delta):
    # lerrw:delta is the Dirichlet environment of edge-reinforced walk
    # (Pemantle 1988), so the vertex paths of independent walks, each in
    # its own environment, follow the reinforced walk's exact path law.
    # Cells are pooled, rarest first, until each expects at least 5 walks;
    # nothing is fitted, so Pearson's statistic has one degree of freedom
    # less than the pools, and the test rejects at p < 1e-3.
    law = _lerrw_path_law(b, n, delta)
    spec = EnvSpec(b=b, kind=f"lerrw:{delta}", seed=7)
    stop = StopRule(max_steps=n)
    seen = Counter()
    for k in range(LERRW_WALKS):
        run = run_walk(spec.subseed(b"lerrw-oracle", k), stop)
        seen[tuple(run.path_of(v) if v else None for v in run.ids)] += 1
    assert set(seen) <= set(law)
    pools, obs, exp = [], 0, 0.0
    for path in sorted(law, key=law.get):
        obs += seen[path]
        exp += LERRW_WALKS * law[path]
        if exp >= 5:
            pools.append((obs, exp))
            obs, exp = 0, 0.0
    if exp:
        last_obs, last_exp = pools.pop()
        pools.append((last_obs + obs, last_exp + exp))
    chi2 = sum((o - e) ** 2 / e for o, e in pools)
    assert st.chi2.sf(chi2, len(pools) - 1) > 1e-3, (chi2, len(pools) - 1)
