"""Deterministic keyed randomness built on BLAKE2b.

Every random quantity in this package is a pure function of a 64-bit master
seed plus a structural label, so any vertex weight or clock variable can be
regenerated in isolation, in any order, on any worker.  Vertices are
identified by a 16-byte chained digest rather than by their full path, which
keeps message sizes constant at any depth.

Stream layout (all hashes are unkeyed BLAKE2b over the concatenated fields):

    vertex digests    root: b"v" + seed8          child i: digest + bytes([i])
    weight stream     digest + b"W" + block4          -> 8 uniforms per block
    clock, k = 0      digest + b"C" + walk8 + block4  -> slots 8m..8m+7
    clock, k >= 1     digest + b"c" + walk8 + slot1 + block4
                                                      -> k = 8m+1 .. 8m+8
    derived seeds     b"T" + seed8 + tag + index8     -> uint64

``walk8`` is a walk replica index: replicas with the same seed share the
environment (the b"W" streams do not depend on it) but have independent
clock fields, which is what quenched experiments need.  Uniforms are mapped
from 64-bit words into the open interval (0, 1) so logs never see zero.
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Tuple

from .errors import InvalidInputError
from .tree import SENTINEL, Vertex

_blake = hashlib.blake2b
_U8 = struct.Struct("<8Q").unpack
_U1 = struct.Struct("<Q").unpack

TWO53 = 2.0 ** -53
TWO54 = 2.0 ** -54
_TWO_PI = 6.283185307179586

# Small-integer byte tables keep the hot loops free of int.to_bytes calls.
BYTE1 = [bytes([i]) for i in range(256)]
_BLOCK4 = [i.to_bytes(4, "little") for i in range(4096)]


def _b4(i: int) -> bytes:
    if i < 4096:
        return _BLOCK4[i]
    return i.to_bytes(4, "little")


def seed_bytes(seed: int) -> bytes:
    """Normalize a master seed to 8 little-endian bytes."""
    if not isinstance(seed, int) or seed < 0:
        raise InvalidInputError("seed must be a non-negative integer")
    return (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def derive_seed(seed: int, tag: bytes, index: int) -> int:
    """A reproducible 64-bit sub-seed for trial ``index`` of stream ``tag``."""
    msg = b"T" + seed_bytes(seed) + tag + index.to_bytes(8, "little")
    return _U1(_blake(msg, digest_size=8).digest())[0]


def root_digest(seed: int) -> bytes:
    return _blake(b"v" + seed_bytes(seed), digest_size=16).digest()


def child_digest(digest: bytes, i: int) -> bytes:
    return _blake(digest + BYTE1[i], digest_size=16).digest()


def vertex_digest(seed: int, v: Vertex) -> bytes:
    """Digest of a vertex given by its full path (the sentinel has none)."""
    if v is SENTINEL:
        raise InvalidInputError("the sentinel carries no randomness")
    d = root_digest(seed)
    for i in v:
        d = _blake(d + BYTE1[i], digest_size=16).digest()
    return d


def uniforms_from(msg: bytes) -> Tuple[float, ...]:
    """Eight uniforms in (0,1) from one 64-byte hash of ``msg``."""
    # Unrolled: this sits under every sampler and every clock draw.
    w0, w1, w2, w3, w4, w5, w6, w7 = _U8(_blake(msg, digest_size=64).digest())
    return (
        (w0 >> 11) * TWO53 + TWO54,
        (w1 >> 11) * TWO53 + TWO54,
        (w2 >> 11) * TWO53 + TWO54,
        (w3 >> 11) * TWO53 + TWO54,
        (w4 >> 11) * TWO53 + TWO54,
        (w5 >> 11) * TWO53 + TWO54,
        (w6 >> 11) * TWO53 + TWO54,
        (w7 >> 11) * TWO53 + TWO54,
    )


def weight_block(digest: bytes, block: int) -> Tuple[float, ...]:
    return uniforms_from(digest + b"W" + _b4(block))


def clock_init_block(digest: bytes, walk8: bytes, block: int) -> Tuple[float, ...]:
    """Uniforms feeding the k = 0 exponentials of slots 8*block .. 8*block+7."""
    return uniforms_from(digest + b"C" + walk8 + _b4(block))


def clock_advance_block(digest: bytes, walk8: bytes, slot: int, block: int) -> Tuple[float, ...]:
    """Uniforms feeding exponentials k = 8*block+1 .. 8*block+8 of one slot."""
    return uniforms_from(digest + b"c" + walk8 + BYTE1[slot] + _b4(block))


def clock_exponential(digest: bytes, walk8: bytes, slot: int, k: int) -> float:
    """The unit-mean exponential attached to (oriented edge slot, jump count k).

    Random access into the same values the walk engine consumes in bulk.
    """
    if k == 0:
        blk = clock_init_block(digest, walk8, slot >> 3)
        return -math.log(blk[slot & 7])
    blk = clock_advance_block(digest, walk8, slot, (k - 1) >> 3)
    return -math.log(blk[(k - 1) & 7])


class UniformStream:
    """Sequential uniform stream over the blocks of one label.

    The label fixes the block family; blocks are fetched lazily.  All
    distribution samplers consume this stream front to back, so a sample is
    a pure function of (label, position).
    """

    __slots__ = ("_prefix", "_buf", "_pos", "_block")

    def __init__(self, prefix: bytes):
        self._prefix = prefix
        self._buf: Tuple[float, ...] = ()
        self._pos = 8
        self._block = 0

    def uniform(self) -> float:
        if self._pos == 8:
            self._buf = uniforms_from(self._prefix + _b4(self._block))
            self._block += 1
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def exponential(self) -> float:
        return -math.log(self.uniform())

    def normal(self) -> float:
        # Box-Muller, cosine branch only: fixed two-uniform consumption.
        pos = self._pos
        if pos <= 6:
            buf = self._buf
            u1 = buf[pos]
            u2 = buf[pos + 1]
            self._pos = pos + 2
        else:
            u1 = self.uniform()
            u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)

    def gamma(self, shape: float) -> float:
        """Marsaglia-Tsang sampler; shapes below one use the boost identity."""
        if shape <= 0.0:
            raise InvalidInputError("gamma shape must be positive")
        boost = 1.0
        if shape < 1.0:
            boost = self.uniform() ** (1.0 / shape)
            shape += 1.0
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        log = math.log
        while True:
            x = self.normal()
            t = 1.0 + c * x
            if t <= 0.0:
                continue
            v = t * t * t
            u = self.uniform()
            x2 = x * x
            if u < 1.0 - 0.0331 * x2 * x2:
                return d * v * boost
            if log(u) < 0.5 * x2 + d - d * v + d * log(v):
                return d * v * boost


def weight_stream(digest: bytes) -> UniformStream:
    """The per-vertex stream that weight-vector samplers consume."""
    return UniformStream(digest + b"W")


def labeled_stream(seed: int, label: bytes) -> UniformStream:
    """A free-standing stream for estimators that are not tied to a vertex."""
    return UniformStream(_blake(b"L" + seed_bytes(seed) + label, digest_size=16).digest() + b"W")


def walk_token(walk_index: int) -> bytes:
    if not isinstance(walk_index, int) or walk_index < 0:
        raise InvalidInputError("walk_index must be a non-negative integer")
    return walk_index.to_bytes(8, "little")
