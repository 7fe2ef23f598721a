"""Addressing vertices of the rooted b-regular tree.

A vertex is addressed by its path from the root: a tuple of child digits,
each in 1..b.  The root is the empty tuple.  The reflecting vertex that
sits above the root (the walk bounces back from it with probability one)
has no path: it belongs to the walk engine, ``clocks._simulate``, as
vertex 0 of a full-tree run, at level -1.
"""

from __future__ import annotations

from typing import Tuple

from .errors import InvalidInputError

VertexPath = Tuple[int, ...]

ROOT: VertexPath = ()


def validate_path(v: VertexPath, b: int) -> None:
    """Check every digit of a path lies in 1..b."""
    for d in v:
        if not 1 <= d <= b:
            raise InvalidInputError(f"path digit {d} outside 1..{b}")


def is_ancestor_or_self(a: VertexPath, v: VertexPath) -> bool:
    """True when ``a`` lies on the path from the root (inclusive) to ``v``."""
    return len(a) <= len(v) and v[: len(a)] == a
