"""Regeneration structure of a transient walk: cut times, cut levels, and
the inter-regeneration gap samples that feed every limit-theorem statistic.

A step k is a regeneration when the walk sits at a fresh level maximum and
never goes strictly below that level afterward.  On a tree this traps the
walk in the subtree of the current vertex, so the pieces between
consecutive regenerations are independent, and identically distributed
from the second piece on.

A finite trajectory cannot certify "never afterward" for levels near its
endpoint, so records within ``guard`` levels of the maximum attained level
are reported with ``confirmed=False`` and excluded from gap samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .clocks import Trajectory


@dataclass(frozen=True)
class RegenRecord:
    m: int
    level: int
    time: int
    confirmed: bool


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


def detect_regenerations(traj: Trajectory, guard: int) -> List[RegenRecord]:
    """All regeneration records of a trajectory, oldest first.

    Record 0 is the conventional origin record (level 0, time 0).  A record
    is confirmed when its level is at least ``guard`` below the maximum
    attained level, so that a later dip below it (which would disqualify
    it) is geometrically unlikely beyond the observed window.
    """
    if guard < 0:
        raise InvalidInputError("guard must be non-negative")
    lv = traj.levels
    top = int(lv.max())
    cut = top - guard
    # an observed sentinel dip falsifies the origin's never-below claim
    records = [RegenRecord(0, 0, 0, 0 <= cut and int(lv.min()) >= 0)]
    if len(lv) < 2:
        return records
    # k >= 1 is a regeneration iff level[k] exceeds every earlier level and
    # no later level falls strictly below it.
    premax = np.maximum.accumulate(lv[:-1])
    sufmin = np.minimum.accumulate(lv[::-1])[::-1]
    hits = np.nonzero((lv[1:] > premax) & (lv[1:] == sufmin[1:]))[0] + 1
    for m, k in enumerate(hits, start=1):
        level = int(lv[k])
        records.append(RegenRecord(m, level, int(k), level <= cut))
    return records


def regeneration_gaps(records: Sequence[RegenRecord]) -> GapSample:
    """Consecutive (level, time) differences over the confirmed records,
    first gap dropped.

    The gap between the origin record and the first regeneration has a
    different law from the rest, so dropping the first gap leaves an
    identically distributed sample.
    """
    conf = [r for r in records if r.confirmed]
    if len(conf) < 3:
        raise InsufficientDataError(
            f"need at least 3 confirmed records, have {len(conf)}")
    levels = np.array([r.level for r in conf], dtype=np.int64)
    times = np.array([r.time for r in conf], dtype=np.int64)
    return GapSample(
        level_gaps=np.diff(levels)[1:],
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
