"""Experiment pipelines shared by the command line tool and the test suite.

Each pipeline derives every stream it needs from the caller's master spec
through tagged sub-seeds, so distinct pipelines never share randomness and
any report is reproducible from the master seed alone.
"""

import math
from dataclasses import dataclass
from functools import partial
from typing import List, Tuple

import numpy as np

from .clocks import (
    StopRule,
    lambda_restriction_sequence,
    run_extension,
)
from .env import EnvSpec, sample_weights, transition_probs
from .errors import DataQualityError, InvalidInputError
from .tree import ROOT
from .regen import GapSample, summarize
from .streams import keyed_map
from .stats import (
    FCLT_TIMES,
    NormalityReport,
    direct_sigma,
    ks_normality_test,
)
from .walk import run_walk

# Limits of one gap harvest: steps per walk and walks in all.  A harvest
# whose first FAIL_FAST_WALKS walks all give no gaps stops there.
MAX_STEPS_PER_WALK = 2_000_000
MAX_WALKS = 4096
FAIL_FAST_WALKS = 8


@dataclass(frozen=True)
class HarvestResult:
    """Pooled confirmed regeneration gaps from a batch of independent walks."""

    gaps: GapSample
    walks: int


def harvest_gaps(
    spec: EnvSpec,
    n_gaps: int,
    max_level: int = 1200,
    guard: int = 100,
    tag: bytes = b"harvest",
) -> HarvestResult:
    """Run fresh walks (environment and clocks both re-drawn per walk) until
    at least ``n_gaps`` confirmed gaps are pooled.

    The first gap of every walk is dropped, so the pool is identically
    distributed across walks and within each walk.  If none of the first
    ``FAIL_FAST_WALKS`` walks gives a gap, the harvest raises at once:
    near the transience boundary a walk can use its whole step budget
    without confirming a record, and the full ``MAX_WALKS`` would run
    for hours.
    """
    if n_gaps < 16:
        raise InvalidInputError("need at least 16 gaps for batching")
    if max_level <= 2 * guard:
        raise InvalidInputError("max_level must exceed twice the guard")
    parts: List[GapSample] = []
    total = 0
    top = -1  # the highest level any walk has reached
    for i in range(MAX_WALKS):
        sub = spec.subseed(tag, i)
        summary = summarize(run_walk(sub, StopRule(
            max_level=max_level, max_steps=MAX_STEPS_PER_WALK)), guard)
        top = max(top, summary.top)
        if len(summary.gaps):
            parts.append(summary.gaps)
            total += len(summary.gaps)
        elif not parts and i + 1 == FAIL_FAST_WALKS:
            raise DataQualityError(
                f"none of the first {FAIL_FAST_WALKS} walks, each capped "
                f"at {MAX_STEPS_PER_WALK} steps, gave a gap; the highest "
                f"level reached was {top}, against a target of "
                f"{max_level}; the environment may be recurrent or too "
                "near the transience boundary")
        if total >= n_gaps:
            return HarvestResult(gaps=GapSample(
                level_gaps=np.concatenate([g.level_gaps for g in parts]),
                time_gaps=np.concatenate([g.time_gaps for g in parts])),
                walks=i + 1)
    raise DataQualityError(
        f"collected {total} gaps from {MAX_WALKS} walks, wanted {n_gaps}; "
        "the environment may be recurrent or nearly so")


def ensemble_levels(spec: EnvSpec, n_walks: int, n_steps: int,
                    tag: bytes) -> np.ndarray:
    """Levels of fresh walks at steps floor(n_steps * t), t in
    ``FCLT_TIMES``: one row per walk, the last column its endpoint."""
    idx = [math.floor(n_steps * t) for t in FCLT_TIMES]
    out = np.empty((n_walks, len(FCLT_TIMES)), dtype=np.float64)
    stop = StopRule(max_steps=n_steps)
    for i in range(n_walks):
        # Four reads of the depth table: a levels array of all the steps
        # would cost about 40 times as much.
        out[i] = run_walk(spec.subseed(tag, i), stop).levels_at(idx)
    return out


@dataclass(frozen=True)
class CltReport:
    """Normality test of the test ensemble's normalized distances from the
    root (the sentinel sits at distance one), with plug-ins fitted on an
    independent ensemble of the same size and length.  ``levels`` is the
    test ensemble's ``ensemble_levels`` matrix, which the FCLT increment
    test reads too."""

    v_hat: float
    sigma_hat: float
    ks: NormalityReport
    z_scores: np.ndarray
    levels: np.ndarray


def clt_report(
    spec: EnvSpec,
    n_walks: int,
    n_steps: int,
) -> CltReport:
    if n_walks < 100:
        raise InvalidInputError("need at least 100 walks per split")
    fit = np.abs(ensemble_levels(spec, n_walks, n_steps, b"clt-fit")[:, -1])
    v = float(fit.mean()) / n_steps
    sig = direct_sigma(fit, n_steps, v)
    levels = ensemble_levels(spec, n_walks, n_steps, b"clt-test")
    z = (np.abs(levels[:, -1]) - v * n_steps) / (sig * math.sqrt(n_steps))
    return CltReport(v_hat=v, sigma_hat=sig, ks=ks_normality_test(z),
                     z_scores=z, levels=levels)


@dataclass(frozen=True)
class MomentHarvest:
    """Per-walk root-visit totals and first-regeneration times drawn from a
    single ensemble (the two diagnostics tolerate shared walks)."""

    root_visits: np.ndarray
    first_regen_times: np.ndarray


def moment_harvest(
    spec: EnvSpec,
    trials: int,
    epsilon: float,
    threads: int,
) -> MomentHarvest:
    """One pass of fresh walks yielding both the root-visit count and the
    first confirmed regeneration time of each walk.  Each walk runs to
    level 100, and a record counts as confirmed 60 levels below that.

    Each trial's environment is redrawn until the root's parent-edge
    probability is at most 1 - epsilon; without that root condition a
    heavy root-parent edge inflates both statistics.  Whether the cubic
    visit moment and the 5/2 regeneration-time moment are finite under it
    is what ``rwre moments`` checks on these samples, with
    ``stats.moment_check``.
    """
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    if not 0.0 < epsilon < 1.0 / 3.0:
        raise InvalidInputError("epsilon must lie in (0, 1/3)")
    visits, times = np.array(keyed_map(partial(_moment_trial, spec, epsilon),
                                       trials, threads)).T
    bad = int(np.isnan(times).sum())
    if bad > max(1, trials // 100):
        raise DataQualityError(
            f"{bad}/{trials} walks had no confirmed regeneration below "
            "level 40")
    return MomentHarvest(root_visits=visits,
                         first_regen_times=times[np.isfinite(times)])


def _moment_trial(spec: EnvSpec, epsilon: float, t: int) -> Tuple[float, float]:
    """Root visits and first regeneration time (NaN without a confirmed
    record) of trial ``t``."""
    for j in range(t * 64, t * 64 + 64):
        sub = spec.subseed(b"moments", j)
        probs = transition_probs(sample_weights(sub, ROOT))
        if probs[0] <= 1.0 - epsilon:
            break
    else:
        raise DataQualityError(
            "64 straight environment redraws failed the root "
            "condition; the weight law puts almost no mass there")
    traj = run_walk(sub, StopRule(max_level=100, max_steps=800_000))
    if traj.stop_reason != "level":
        raise DataQualityError(
            "walk exhausted its step cap before the cutoff depth; "
            "the environment may be recurrent or nearly so")
    summary = summarize(traj, guard=60)
    cuts = summary.times[summary.times > 0]
    return (float(summary.root_visits),
            float(cuts[0]) if len(cuts) else math.nan)


@dataclass(frozen=True)
class CouplingReport:
    """Exact-identity audit between direct walks and subtree extensions,
    over independent seeds."""

    restriction_matches: int
    restriction_compared: int
    nonempty_restrictions: int


def coupling_suite(
    spec: EnvSpec,
    seeds: int,
    n_steps: int,
    threads: int,
) -> CouplingReport:
    """For each derived seed, the extension on the subtree hanging above
    the root's first child must reproduce the direct walk's restriction to
    that subtree on their shared prefix (compared up to 2000 entries)."""
    if seeds < 1:
        raise InvalidInputError("need at least one seed")
    counts = keyed_map(partial(_coupling_seed, spec, n_steps), seeds, threads)
    restr_ok, compared, nonempty = (sum(c) for c in zip(*counts))
    return CouplingReport(restriction_matches=restr_ok,
                          restriction_compared=compared,
                          nonempty_restrictions=nonempty)


def _coupling_seed(spec: EnvSpec, n_steps: int,
                   s: int) -> Tuple[int, int, int]:
    """Match (0 or 1), compared entries and nonempty restriction (0 or 1)
    of seed ``s``."""
    nu = (1,)
    sub = spec.subseed(b"couple", s)
    restr = lambda_restriction_sequence(
        run_walk(sub, StopRule(max_steps=n_steps)), nu)[:2000]
    if not restr:
        return 1, 0, 0
    lam = run_extension(sub, nu, StopRule(max_steps=max(1, len(restr) - 1)))
    lam_seq = lam.visited_digest_sequence()
    k = min(len(restr), len(lam_seq))
    return int(restr[:k] == lam_seq[:k]), k, 1
