"""Experiment pipelines shared by the command line tool and the test suite.

Each pipeline derives every stream it needs from the caller's master spec
through tagged sub-seeds, so distinct pipelines never share randomness and
any report is reproducible from the master seed alone.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .clocks import (
    SubtreeSpec,
    lambda_restriction_sequence,
    run_extension,
)
from .env import EnvSpec, sample_weights, transition_probs
from .errors import DataQualityError, DegenerateDataError, InvalidInputError
from .tree import ROOT
from .regen import GapSample, concat_gaps, detect_regenerations, regeneration_gaps
from .stats import (
    FcltReport,
    NormalityReport,
    SpeedEstimate,
    direct_sigma,
    estimate_sigma,
    estimate_speed,
    fclt_increment_test,
    ks_normality_test,
)
from .walk import StopRule, run_walk


@dataclass(frozen=True)
class HarvestResult:
    """Pooled confirmed regeneration gaps from a batch of independent walks."""

    gaps: GapSample
    walks: int
    total_steps: int


def harvest_gaps(
    spec: EnvSpec,
    n_gaps: int,
    max_level: int = 1200,
    guard: int = 100,
    tag: bytes = b"harvest",
    max_steps_per_walk: int = 2_000_000,
    max_walks: int = 4096,
) -> HarvestResult:
    """Run fresh walks (environment and clocks both re-drawn per walk) until
    at least ``n_gaps`` confirmed gaps are pooled.

    The first gap of every walk is dropped, so the pool is identically
    distributed across walks and within each walk.
    """
    if n_gaps < 16:
        raise InvalidInputError("need at least 16 gaps for batching")
    if max_level <= 2 * guard:
        raise InvalidInputError("max_level must exceed twice the guard")
    parts: List[GapSample] = []
    total = 0
    steps = 0
    for i in range(max_walks):
        sub = spec.subseed(tag, i)
        traj = run_walk(sub, StopRule(max_level=max_level,
                                      max_steps=max_steps_per_walk))
        steps += traj.steps_taken
        recs = detect_regenerations(traj, guard=guard)
        try:
            g = regeneration_gaps(recs, drop_first=True)
        except DegenerateDataError:
            continue
        parts.append(g)
        total += len(g)
        if total >= n_gaps:
            return HarvestResult(gaps=concat_gaps(parts), walks=i + 1,
                                 total_steps=steps)
    raise DataQualityError(
        f"collected {total} gaps from {max_walks} walks, wanted {n_gaps}; "
        "the environment may be recurrent or nearly so")


@dataclass(frozen=True)
class SpeedReport:
    estimate: SpeedEstimate
    harvest: HarvestResult


def speed_report(
    spec: EnvSpec,
    n_gaps: int = 3000,
    max_level: int = 1200,
    guard: int = 100,
    tag: bytes = b"speed",
) -> SpeedReport:
    """Harvest gaps and form the ratio estimator with its 99% interval."""
    h = harvest_gaps(spec, n_gaps, max_level=max_level, guard=guard, tag=tag)
    return SpeedReport(estimate=estimate_speed(h.gaps), harvest=h)


def final_distances(spec: EnvSpec, n_walks: int, n_steps: int,
                    tag: bytes) -> np.ndarray:
    """Distance from the root after exactly ``n_steps`` steps, one fresh
    walk per entry.  The sentinel sits at distance one."""
    if n_walks < 1:
        raise InvalidInputError("need at least one walk")
    out = np.empty(n_walks, dtype=np.float64)
    stop = StopRule(max_steps=n_steps)
    for i in range(n_walks):
        traj = run_walk(spec.subseed(tag, i), stop)
        out[i] = abs(int(traj.levels[-1]))
    return out


@dataclass(frozen=True)
class CltReport:
    """Normalized-endpoint normality test with plug-ins fitted on an
    independent ensemble of the same size and length."""

    v_hat: float
    sigma_hat: float
    n_fit: int
    n_test: int
    n_steps: int
    ks: NormalityReport
    z_scores: np.ndarray


def clt_report(
    spec: EnvSpec,
    n_walks: int = 2000,
    n_steps: int = 5000,
    fit_tag: bytes = b"clt-fit",
    test_tag: bytes = b"clt-test",
) -> CltReport:
    if n_walks < 100:
        raise InvalidInputError("need at least 100 walks per split")
    fit = final_distances(spec, n_walks, n_steps, tag=fit_tag)
    v = float(fit.mean()) / n_steps
    sig = direct_sigma(fit, n_steps, v)
    test = final_distances(spec, n_walks, n_steps, tag=test_tag)
    z = (test - v * n_steps) / (sig.sigma_hat * math.sqrt(n_steps))
    return CltReport(v_hat=v, sigma_hat=sig.sigma_hat, n_fit=n_walks,
                     n_test=n_walks, n_steps=n_steps,
                     ks=ks_normality_test(z), z_scores=z)


@dataclass(frozen=True)
class FcltRunReport:
    v_hat: float
    sigma_hat: float
    speed: SpeedEstimate
    report: FcltReport
    n_walks: int
    n_steps: int


def fclt_report(
    spec: EnvSpec,
    n_walks: int = 1000,
    n_steps: int = 4000,
    times: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    gap_target: int = 180_000,
    guard: int = 100,
    alpha: float = 0.01,
) -> FcltRunReport:
    """Increment normality and cross-increment correlation tests, with the
    drift and scale plug-ins fitted from an independent gap harvest.

    A plug-in error dv shifts every standardized increment by
    dv*sqrt(dt)/sigma, and sd(v_hat) ~ sigma/sqrt(mean_tgap * gaps), so
    the harvest must be much larger than the walk ensemble: the default
    keeps the two-standard-error shift below about 0.08 for dt ~ 1000.
    """
    sr = speed_report(spec, n_gaps=gap_target, guard=guard, tag=b"fclt-fit")
    v = sr.estimate.v_hat
    sig = estimate_sigma(sr.harvest.gaps, v)
    idx = np.array([int(math.floor(n_steps * t)) for t in times])
    mat = np.empty((n_walks, len(times)), dtype=np.float64)
    stop = StopRule(max_steps=n_steps)
    for i in range(n_walks):
        traj = run_walk(spec.subseed(b"fclt", i), stop)
        mat[i] = traj.levels[idx]
    rep = fclt_increment_test(mat, n_steps, v, sig.sigma_hat,
                              alpha=alpha, times=tuple(times))
    return FcltRunReport(v_hat=v, sigma_hat=sig.sigma_hat, speed=sr.estimate,
                         report=rep, n_walks=n_walks, n_steps=n_steps)


@dataclass(frozen=True)
class MomentHarvest:
    """Per-walk root-visit totals and first-regeneration times drawn from a
    single ensemble (the two diagnostics tolerate shared walks)."""

    root_visits: np.ndarray
    first_regen_times: np.ndarray
    trials: int


def moment_harvest(
    spec: EnvSpec,
    trials: int,
    max_level: int = 100,
    guard: int = 60,
    tag: bytes = b"moments",
    max_steps: int = 800_000,
    epsilon: Optional[float] = None,
) -> MomentHarvest:
    """One pass of fresh walks yielding both the root-visit count and the
    first confirmed regeneration time of each walk.

    With ``epsilon`` set, each trial's environment is redrawn until the
    root's parent-edge probability is at most 1 - epsilon.  The cubic
    visit moment and the 5/2 regeneration-time moment are finite under
    that root condition; without it a heavy root-parent edge inflates
    both statistics and their raw moments need not exist.
    """
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    if max_level <= guard:
        raise InvalidInputError("max_level must exceed the guard")
    if epsilon is not None and not 0.0 < epsilon < 1.0 / 3.0:
        raise InvalidInputError("epsilon must lie in (0, 1/3)")
    visits = np.empty(trials, dtype=np.float64)
    times = np.empty(trials, dtype=np.float64)
    bad = 0
    stop = StopRule(max_level=max_level, max_steps=max_steps)
    for t in range(trials):
        if epsilon is None:
            sub = spec.subseed(tag, t)
        else:
            for j in range(t * 64, t * 64 + 64):
                sub = spec.subseed(tag, j)
                probs = transition_probs(sample_weights(sub, ROOT))
                if probs[0] <= 1.0 - epsilon:
                    break
            else:
                raise DataQualityError(
                    "64 straight environment redraws failed the root "
                    "condition; the weight law puts almost no mass there")
        traj = run_walk(sub, stop)
        if traj.stop_reason != "level":
            raise DataQualityError(
                "walk exhausted its step cap before the cutoff depth; "
                "the environment may be recurrent or nearly so")
        visits[t] = float((traj.levels == 0).sum())
        recs = detect_regenerations(traj, guard=guard)
        found = next((r for r in recs if r.m >= 1 and r.confirmed), None)
        if found is None:
            bad += 1
            times[t] = np.nan
        else:
            times[t] = float(found.time)
    if bad > max(1, trials // 100):
        raise DataQualityError(
            f"{bad}/{trials} walks had no confirmed regeneration below "
            "max_level - guard; increase max_level")
    return MomentHarvest(root_visits=visits,
                         first_regen_times=times[np.isfinite(times)],
                         trials=trials)


@dataclass(frozen=True)
class CouplingReport:
    """Exact-identity audit between direct walks, whole-tree extensions and
    subtree extensions, over independent seeds."""

    seeds: int
    n_steps: int
    full_matches: int
    restriction_matches: int
    restriction_compared: int
    nonempty_restrictions: int

    @property
    def all_exact(self) -> bool:
        return (self.full_matches == self.seeds
                and self.restriction_matches == self.seeds)


def coupling_suite(
    spec: EnvSpec,
    seeds: int = 50,
    n_steps: int = 10_000,
    nu_digit: int = 1,
    tag: bytes = b"couple",
    restriction_cap: int = 2000,
) -> CouplingReport:
    """For each derived seed: the whole-tree extension must reproduce the
    direct walk exactly, and the extension on the subtree hanging above one
    child of the root must reproduce the direct walk's restriction to that
    subtree on their shared prefix (compared up to ``restriction_cap``
    entries; the whole-tree check already audits full length)."""
    if seeds < 1:
        raise InvalidInputError("need at least one seed")
    nu = (nu_digit,)
    full_ok = 0
    restr_ok = 0
    compared = 0
    nonempty = 0
    stop = StopRule(max_steps=n_steps)
    for s in range(seeds):
        sub = spec.subseed(tag, s)
        direct = run_walk(sub, stop)
        ext = run_extension(sub, SubtreeSpec.full_tree(), stop)
        if (np.array_equal(direct.levels, ext.levels)
                and direct.visited_digest_sequence()
                == ext.visited_digest_sequence()):
            full_ok += 1
        restr = lambda_restriction_sequence(direct, nu)
        if len(restr) > restriction_cap:
            restr = restr[:restriction_cap]
        if restr:
            nonempty += 1
            lam = run_extension(
                sub, SubtreeSpec.lambda_subtree(nu),
                StopRule(max_steps=max(1, len(restr) - 1)))
            lam_seq = lam.visited_digest_sequence()
            k = min(len(restr), len(lam_seq))
            compared += k
            if restr[:k] == lam_seq[:k]:
                restr_ok += 1
        else:
            restr_ok += 1
    return CouplingReport(seeds=seeds, n_steps=n_steps, full_matches=full_ok,
                          restriction_matches=restr_ok,
                          restriction_compared=compared,
                          nonempty_restrictions=nonempty)
