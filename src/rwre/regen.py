"""Regeneration structure of a transient walk: cut times, cut levels, and
the inter-regeneration gap samples that feed every limit-theorem statistic.

A step k is a regeneration when the walk sits at a fresh level maximum and
never goes strictly below that level afterward.  On a tree this traps the
walk in the subtree of the current vertex, so the pieces between
consecutive regenerations are independent, and identically distributed
from the second piece on.

These are cut times, not the paper's regenerative levels, the levels the
walk visits exactly once.  A level visited exactly once holds a cut time,
but a cut level may be visited again later, from above: on b=4 trees under
``lerrw:1.0`` about a third of the confirmed cut levels are.

A finite trajectory cannot certify "never afterward" for levels near its
endpoint, so only records at least ``guard`` levels below the maximum
attained level are confirmed, and only confirmed records enter gap samples.

``summarize`` is the gap pipelines' one read of a walk: its confirmed
(cut, not visited-once) record times, their gaps with the first dropped,
its steps at level 0 and its highest level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .clocks import Trajectory


@dataclass(frozen=True)
class GapSample:
    """Differences between consecutive confirmed regenerations."""

    level_gaps: np.ndarray
    time_gaps: np.ndarray

    def __post_init__(self):
        lg, tg = self.level_gaps, self.time_gaps
        if len(lg) != len(tg):
            raise InvalidInputError("gap arrays must have equal length")
        if len(lg) and (lg.min() < 1 or tg.min() < 1):
            raise InvalidInputError("gaps must be positive")
        if len(lg) and (lg > tg).any():
            raise InvalidInputError("a level gap cannot exceed its time gap")

    def __len__(self) -> int:
        return len(self.level_gaps)


def detect_regenerations(traj: Trajectory, guard: int) -> np.ndarray:
    """Times of the confirmed regeneration records of a trajectory, oldest
    first, as an int64 array.

    The trajectory starts at level 0, and time 0 is the conventional origin
    record: it counts as a fresh maximum, so a sentinel dip below level 0
    disqualifies it.  A record is confirmed when its level is at least
    ``guard`` below the maximum attained level, so that a later dip below
    it (which would disqualify it) is geometrically unlikely beyond the
    observed window.
    """
    if guard < 0:
        raise InvalidInputError("guard must be non-negative")
    lv = traj.levels
    # k is a record iff level[k] exceeds every earlier level and no later
    # level falls strictly below it
    fresh = np.ones(len(lv), dtype=bool)
    fresh[1:] = lv[1:] > np.maximum.accumulate(lv[:-1])
    never_below = lv == np.minimum.accumulate(lv[::-1])[::-1]
    return np.flatnonzero(fresh & never_below & (lv <= lv.max() - guard))


@dataclass(frozen=True)
class WalkSummary:
    """What the gap pipelines read of one walk; ``gaps`` is empty below
    three confirmed records."""

    times: np.ndarray
    gaps: GapSample
    root_visits: int
    top: int


def summarize(traj: Trajectory, guard: int) -> WalkSummary:
    """The records ``detect_regenerations(traj, guard)`` confirms, their
    (level, time) gaps with the first dropped (the gap from the origin
    record has a law of its own), the steps at level 0 and the top level."""
    times = detect_regenerations(traj, guard)
    lv = traj.levels
    return WalkSummary(
        times, GapSample(np.diff(lv[times])[1:], np.diff(times)[1:]),
        root_visits=int((lv == 0).sum()), top=int(lv.max()))
