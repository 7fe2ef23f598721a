"""The main walk on the lazily generated tree.

The walk starts at the root, steps to neighbors with the weight-determined
probabilities, and reflects off the sentinel above the root.  It is run as
the full-tree case of the clock engine, so the exact-coupling and
restriction identities with subtree extensions hold by construction rather
than by a separate code path.  ``run_walk`` returns the engine's own
record, ``clocks.Trajectory`` (re-exported here), the same type every
subtree extension returns.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Optional

from .clocks import SubtreeSpec, Trajectory, _first_move, _simulate
from .env import EnvSpec
from .errors import InvalidInputError
from .tree import ROOT, SENTINEL, Vertex

_Z99 = 2.5758293035489004  # two-sided 99% normal quantile


@dataclass(frozen=True)
class StopRule:
    """When to stop a run: at an absolute level, a step budget, or the
    sentinel.  The step budget is a hard safety cap so recurrent
    configurations always terminate."""

    max_level: Optional[int] = None
    max_steps: int = 10 ** 8
    stop_at_sentinel: bool = False

    def __post_init__(self):
        if self.max_level is not None and self.max_level < 1:
            raise InvalidInputError("max_level must be at least 1")
        if self.max_steps < 1:
            raise InvalidInputError("max_steps must be at least 1")


def run_walk(spec: EnvSpec, stop: StopRule, walk_index: int = 0) -> Trajectory:
    """Run the walk from the root until the stop rule fires."""
    return _simulate(
        spec,
        SubtreeSpec.full_tree(),
        walk_index=walk_index,
        max_steps=stop.max_steps,
        max_level=stop.max_level,
        stop_at_sentinel=stop.stop_at_sentinel,
    )


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
    successes = 0
    for t in range(trials):
        sub = spec.subseed(b"esc", t)
        run = _simulate(sub, SubtreeSpec.full_tree(), max_steps=10 ** 7,
                        max_level=n, stop_at_sentinel=True)
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


def trajectory_summary(traj: Trajectory) -> dict:
    """JSON-ready summary: step count, stop reason, and the T_n table."""
    tn = traj.first_passage_steps()
    return {
        "steps_taken": int(traj.steps_taken),
        "truncated": bool(traj.truncated),
        "stop_reason": traj.stop_reason,
        "max_level": int(traj.max_level_attained),
        "first_passage_steps": {str(i): int(t) for i, t in enumerate(tn)},
    }
