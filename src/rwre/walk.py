"""The main walk on the lazily generated tree.

The walk starts at the root, steps to neighbors with the weight-determined
probabilities, and reflects off the sentinel above the root.  It is run as
the full-tree case of the clock engine, so the exact-coupling and
restriction identities with subtree extensions hold by construction rather
than by a separate code path.  ``run_walk`` takes the engine's one stop
type, ``clocks.StopRule``, and returns the engine's own record,
``clocks.Trajectory``; both are re-exported here, and they are the same
types every subtree extension takes and returns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO

from .clocks import StopRule, SubtreeSpec, Trajectory, _first_move, _simulate
from .env import EnvSpec
from .errors import InvalidInputError
from .tree import ROOT, SENTINEL, Vertex

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


def run_walk(spec: EnvSpec, stop: StopRule, walk_index: int = 0) -> Trajectory:
    """Run the walk from the root until the stop rule fires."""
    return _simulate(spec, SubtreeSpec.full_tree(), stop, walk_index)


def step_walk(spec: EnvSpec, current: Vertex, walk_index: int = 0) -> Vertex:
    """One step from ``current`` with no prior history at that vertex.

    The sentinel steps to the root with probability one; elsewhere the k=0
    clocks race, which is exactly how a run first leaves a fresh vertex, so
    single steps and full runs agree.
    """
    if current is SENTINEL:
        return ROOT
    j = _first_move(spec, current, walk_index, range(spec.b + 1))
    if j == 0:
        return SENTINEL if current == ROOT else current[:-1]
    return current + (j,)


@dataclass(frozen=True)
class EscapeEstimate:
    """Monte Carlo escape probability with a 99% normal CI."""

    n: int
    trials: int
    successes: int
    probability: float
    std_error: float
    ci_low: float
    ci_high: float
    scaled_estimate: float  # b^n times the probability


def escape_probability(spec: EnvSpec, n: int, trials: int) -> EscapeEstimate:
    """Annealed chance that a fresh walk reaches level n before level -1.

    Each trial draws a new environment and walk (derived sub-seed) and runs
    until level n or the sentinel is hit.
    """
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    if trials < 100:
        raise InvalidInputError("need at least 100 trials")
    full = SubtreeSpec.full_tree()
    stop = StopRule(max_level=n, max_steps=10 ** 7, stop_at_sentinel=True)
    successes = 0
    for t in range(trials):
        run = _simulate(spec.subseed(b"esc", t), full, stop)
        if run.stop_reason == "level":
            successes += 1
        elif run.stop_reason != "sentinel":
            raise InvalidInputError("escape trial exhausted its step cap")
    p = successes / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return EscapeEstimate(
        n=n,
        trials=trials,
        successes=successes,
        probability=p,
        std_error=se,
        ci_low=max(0.0, p - _Z99 * se),
        ci_high=min(1.0, p + _Z99 * se),
        scaled_estimate=float(spec.b) ** n * p,
    )


def trajectory_to_csv(traj: Trajectory, fh: IO[str], stride: int = 1) -> None:
    """(step, level) rows, downsampled by ``stride``; the last step is
    always included."""
    if stride < 1:
        raise InvalidInputError("stride must be at least 1")
    w = csv.writer(fh)
    w.writerow(["step", "level"])
    last = len(traj.levels) - 1
    for i in range(0, last + 1, stride):
        w.writerow([i, int(traj.levels[i])])
    if last % stride:
        w.writerow([last, int(traj.levels[last])])

