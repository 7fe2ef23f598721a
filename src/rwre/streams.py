"""Deterministic keyed randomness built on BLAKE2b.

Every random quantity in this package is a pure function of a 64-bit master
seed plus a structural label, so any vertex weight or clock variable can be
regenerated in isolation, in any order, on any worker.  Vertices are
identified by a 16-byte chained digest rather than by their full path, which
keeps message sizes constant at any depth.

Stream layout (all hashes are unkeyed BLAKE2b over the concatenated fields):

    vertex digests    root: b"v" + seed8          child i: digest + bytes([i])
    weight stream     digest + b"W" + block4          -> lanes 8m..8m+7
    clock, k = 0      digest + b"C" + walk8 + block4  -> slots 8m..8m+7
    clock, k >= 1     digest + b"c" + walk8 + slot1 + block4
                                                      -> k = 8m+1 .. 8m+8
    derived seeds     b"T" + seed8 + tag + index8     -> uint64
    sample digests    stream1 + seed8 + index8        -> 16-byte digest

``seed8`` is the master seed as 8 little-endian bytes, so seeds run from 0
to 2**64 - 1.  A sample digest stands in for the vertex digest of copy
``index`` of one vertex in single-vertex Monte Carlo estimates; ``stream1``
is b"s" for the weight sum (``env.weight_sums``) and b"m" for the
marginal weight, which only the Monte Carlo cross-check of
``env.marginal_weight_moment`` in the test suite reads.

``walk8`` is a walk replica index: replicas with the same seed share the
environment (the b"W" streams do not depend on it) but have independent
clock fields, which is what quenched experiments need.

A block is one 64-byte hash read as eight little-endian 64-bit words
(``uniforms_from``).  A word w becomes a uniform in (0, 1], so logs
never see zero, by the single map

    u = (w >> 11) * 2**-53 + 2**-54

(the top 2**11 of the 2**64 words round to exactly 1.0)

and each consumer maps only the lanes it reads:

* the weight stream of a vertex is the flat sequence of its weight
  blocks, read front to back: ``lerrw:1.0`` reads one exponential and
  then b cosine-branch Box-Muller normals (1 + 2b lanes), ``uniform``
  reads b lanes, ``lognormal`` 2b lanes, and the gamma laws
  (``gamma``, ``lerrw`` with delta != 1) read as many lanes as their
  rejection sampler, ``gamma_variates``, asks for;
* a k = 0 clock block serves slots 8m..8m+7 of one vertex, and the first
  race at a vertex reads the lanes of all its slots (a run's one-slot
  anchor never races);
* an advance block of one slot is read one lane per race that follows a
  jump along it, not one lane per jump: the engine adds a jump's next
  clock only when the walk races at that vertex again.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import sys
from typing import Callable, List, Sequence, Tuple, TypeVar

from .errors import InvalidInputError
from .tree import VertexPath

_T = TypeVar("_T")

_blake = hashlib.blake2b
_U8 = struct.Struct("<8Q").unpack
_U1 = struct.Struct("<Q").unpack

TWO53 = 2.0 ** -53
TWO54 = 2.0 ** -54
TWO_PI = 6.283185307179586

# Small-integer byte tables keep the hot loops free of int.to_bytes calls.
BYTE1 = [bytes([i]) for i in range(256)]
_BLOCK4 = [i.to_bytes(4, "little") for i in range(4096)]


def _b4(i: int) -> bytes:
    if i < 4096:
        return _BLOCK4[i]
    return i.to_bytes(4, "little")


def seed_bytes(seed: int) -> bytes:
    """A master seed as 8 little-endian bytes."""
    if not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise InvalidInputError("seed must be an integer in [0, 2**64)")
    return seed.to_bytes(8, "little")


def derive_seed(seed: int, tag: bytes, index: int) -> int:
    """A reproducible 64-bit sub-seed for trial ``index`` of stream ``tag``."""
    msg = b"T" + seed_bytes(seed) + tag + index.to_bytes(8, "little")
    return _U1(_blake(msg, digest_size=8).digest())[0]


def sample_digest(seed: int, stream: bytes, index: int) -> bytes:
    """Digest of copy ``index`` of one vertex in sample stream ``stream``."""
    return _blake(stream + seed_bytes(seed) + index.to_bytes(8, "little"),
                  digest_size=16).digest()


def root_digest(seed: int) -> bytes:
    return _blake(b"v" + seed_bytes(seed), digest_size=16).digest()


def child_digest(digest: bytes, i: int) -> bytes:
    return _blake(digest + BYTE1[i], digest_size=16).digest()


def vertex_digest(seed: int, v: VertexPath) -> bytes:
    """Digest of a vertex given by its full path."""
    d = root_digest(seed)
    for i in v:
        d = _blake(d + BYTE1[i], digest_size=16).digest()
    return d


def uniforms_from(msg: bytes) -> Tuple[int, ...]:
    """The eight raw 64-bit words of one 64-byte hash of ``msg``: one block.

    This is the only function that hashes a block.  Consumers map just the
    lanes they read to uniforms, each with ``(w >> 11) * TWO53 + TWO54``.
    """
    return _U8(_blake(msg).digest())


def weight_words(digest: bytes, n_blocks: int) -> Tuple[int, ...]:
    """The words of the first ``n_blocks`` weight blocks of a vertex, in
    order: the front of its flat weight stream."""
    words = uniforms_from(digest + b"W" + _BLOCK4[0])
    for i in range(1, n_blocks):
        words += uniforms_from(digest + b"W" + _b4(i))
    return words


def clock_init_block(digest: bytes, walk8: bytes, block: int) -> Tuple[int, ...]:
    """Words feeding the k = 0 exponentials of slots 8*block .. 8*block+7."""
    return uniforms_from(digest + b"C" + walk8 + _b4(block))


def clock_advance_block(digest: bytes, walk8: bytes, slot: int, block: int) -> Tuple[int, ...]:
    """Words feeding exponentials k = 8*block+1 .. 8*block+8 of one slot."""
    return uniforms_from(digest + b"c" + walk8 + BYTE1[slot] + _b4(block))


def gamma_variates(digest: bytes, shapes: Sequence[float]) -> List[float]:
    """One gamma variate per entry of ``shapes``, drawn in order from the
    flat weight stream of ``digest`` by Marsaglia-Tsang rejection.

    A shape below one draws one uniform u first and returns the variate of
    shape + 1 times u ** (1 / shape).  Each proposal reads a cosine-branch
    Box-Muller normal (two uniforms) and, unless 1 + c x <= 0 rejects it
    outright, one acceptance uniform.  Blocks are hashed only when a lane
    of them is read.
    """
    if min(shapes) <= 0.0:
        raise InvalidInputError("gamma shape must be positive")
    log = math.log
    sqrt = math.sqrt
    cos = math.cos
    prefix = digest + b"W"
    words = uniforms_from(prefix + _BLOCK4[0])
    n_blocks = 1
    pos = 0
    out = []
    for shape in shapes:
        boost = 1.0
        if shape < 1.0:
            if pos == len(words):
                words += uniforms_from(prefix + _b4(n_blocks))
                n_blocks += 1
            boost = ((words[pos] >> 11) * TWO53 + TWO54) ** (1.0 / shape)
            pos += 1
            shape += 1.0
        d = shape - 1.0 / 3.0
        c = 1.0 / sqrt(9.0 * d)
        while True:
            # Reading ahead when fewer than three lanes remain hashes no
            # block early: a proposal rejected after two lanes is followed
            # by another proposal, which reads at least two more.
            if pos + 3 > len(words):
                words += uniforms_from(prefix + _b4(n_blocks))
                n_blocks += 1
            u1 = (words[pos] >> 11) * TWO53 + TWO54
            u2 = (words[pos + 1] >> 11) * TWO53 + TWO54
            pos += 2
            x = sqrt(-2.0 * log(u1)) * cos(TWO_PI * u2)
            t = 1.0 + c * x
            if t <= 0.0:
                continue
            v = t * t * t
            u = (words[pos] >> 11) * TWO53 + TWO54
            pos += 1
            x2 = x * x
            if u < 1.0 - 0.0331 * x2 * x2:
                break
            if log(u) < 0.5 * x2 + d - d * v + d * log(v):
                break
        out.append(d * v * boost)
    return out


def walk_token(walk_index: int) -> bytes:
    if not isinstance(walk_index, int) or walk_index < 0:
        raise InvalidInputError("walk_index must be a non-negative integer")
    return walk_index.to_bytes(8, "little")


def _chunks(n: int, threads: int) -> List[range]:
    """The contiguous trial ranges of one ``keyed_map`` call, one per
    process: k = min(threads, n, CPUs this process may run on), at least 1.
    The CPU set is read only when more than one process could run, so a
    platform without ``os.sched_getaffinity`` runs one process unchanged."""
    k = min(threads, n)
    if k > 1:
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        k = min(k, cpus)
    k = max(1, k)
    return [range(n * i // k, n * (i + 1) // k) for i in range(k)]


def _run_trials(fn: Callable[[int], _T], trials: range) -> List[_T]:
    return [fn(t) for t in trials]


def keyed_map(fn: Callable[[int], _T], n: int, threads: int) -> List[_T]:
    """``[fn(t) for t in range(n)]``, with the trials split into contiguous
    chunks over up to ``threads`` processes.

    A trial keyed by ``derive_seed`` draws the same bits in any process,
    so the split never changes a result, only the wall time.  The parent
    runs chunk 0 itself; every other chunk runs in a worker forked for this
    call, and the pool is closed before the call returns.  ``fork`` lets a
    worker start from the modules already loaded, where ``spawn`` would
    import numpy again; the package starts no thread of its own, and a
    fork pool forks its workers before it starts its management thread.
    A chunk stops at its first failing trial.  If chunks raise, the first
    exception in trial order is re-raised, with its type and message,
    after every worker has ended.  With one chunk the call stays in this
    process and loads neither ``multiprocessing`` nor
    ``concurrent.futures``.

    ``fn`` and its results are pickled, so ``fn`` must be a module-level
    function reached by its own name, or a ``functools.partial`` of one.
    A private function qualifies even while an outside tracer rebinds the
    package's public names, which pickling by reference would not find.
    """
    if not isinstance(threads, int) or threads < 1:
        raise InvalidInputError("threads must be a positive integer")
    chunks = _chunks(n, threads)
    if len(chunks) == 1:
        return _run_trials(fn, chunks[0])
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # A worker flushes the standard streams as it exits; a line still
    # buffered at the fork would be written once per process.
    sys.stdout.flush()
    sys.stderr.flush()
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(len(chunks) - 1, mp_context=fork) as pool:
        rest = [pool.submit(_run_trials, fn, c) for c in chunks[1:]]
        out = _run_trials(fn, chunks[0])
        for f in rest:
            out += f.result()
        return out
