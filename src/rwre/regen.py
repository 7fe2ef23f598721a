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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
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


def regeneration_gaps(traj: Trajectory, guard: int) -> GapSample:
    """Consecutive (level, time) differences over the confirmed records of
    ``detect_regenerations(traj, guard)``, first gap dropped.

    The gap between the origin record and the first regeneration has a
    different law from the rest, so dropping the first gap leaves an
    identically distributed sample.
    """
    times = detect_regenerations(traj, guard)
    if len(times) < 3:
        raise InsufficientDataError(
            f"need at least 3 confirmed records, have {len(times)}")
    return GapSample(
        level_gaps=np.diff(traj.levels[times])[1:],
        time_gaps=np.diff(times)[1:],
    )


def concat_gaps(samples: Sequence[GapSample]) -> GapSample:
    """Pool gap samples from independent walks into one sample."""
    if not samples:
        raise InsufficientDataError("no gap samples to pool")
    return GapSample(
        level_gaps=np.concatenate([s.level_gaps for s in samples]),
        time_gaps=np.concatenate([s.time_gaps for s in samples]),
    )
