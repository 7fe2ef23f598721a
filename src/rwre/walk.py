"""The main walk on the lazily generated tree.

The walk starts at the root, steps to neighbors with the weight-determined
probabilities, and reflects off the sentinel above the root.  It is run as
the full-tree case of the clock engine, so the exact-coupling and
restriction identities with subtree extensions hold by construction rather
than by a separate code path.  ``run_walk`` takes the engine's one stop
type, ``clocks.StopRule``, and returns the engine's own record,
``clocks.Trajectory``, the same types every subtree extension takes and
returns.
"""

from __future__ import annotations

from .clocks import StopRule, Trajectory, _simulate
from .env import EnvSpec
from .tree import ROOT


def run_walk(spec: EnvSpec, stop: StopRule) -> Trajectory:
    """Run the walk from the root until the stop rule fires."""
    return _simulate(spec, ROOT, stop)

