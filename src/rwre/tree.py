"""Vertex addressing on the rooted b-regular tree.

A vertex is addressed by its path from the root: a tuple of child digits,
each in 1..b.  The root is the empty tuple.  The reflecting vertex that
sits above the root (the walk bounces back from it with probability one)
is the module-level ``SENTINEL`` singleton and has level -1.
"""

from __future__ import annotations

from typing import Tuple, Union

from .errors import InvalidInputError

VertexPath = Tuple[int, ...]

ROOT: VertexPath = ()


class _Sentinel:
    """Reflecting parent of the root; level -1; no weight vector."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "SENTINEL"


SENTINEL = _Sentinel()

Vertex = Union[VertexPath, _Sentinel]


def validate_path(v: Vertex, b: int) -> None:
    """Check every digit of a path lies in 1..b."""
    if v is SENTINEL:
        return
    for d in v:
        if not 1 <= d <= b:
            raise InvalidInputError(f"path digit {d} outside 1..{b}")


def is_ancestor_or_self(a: Vertex, v: Vertex) -> bool:
    """True when ``a`` lies on the path from the root (inclusive) to ``v``.

    The sentinel is treated as an ancestor of everything.
    """
    if a is SENTINEL:
        return True
    if v is SENTINEL:
        return False
    return len(a) <= len(v) and v[: len(a)] == a
