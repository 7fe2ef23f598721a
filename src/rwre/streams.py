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
  rejection sampler, ``gamma_sampler``, asks for;
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
import pickle
import signal
import struct
import sys
import traceback
from typing import Callable, List, NoReturn, Sequence, Tuple, TypeVar

from .errors import InvalidInputError, RwreError
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


def gamma_sampler(shapes: Sequence[float]) -> Callable[[bytes], List[float]]:
    """A sampler mapping a digest to one gamma variate per entry of
    ``shapes``, drawn in order from the flat weight stream of the digest by
    Marsaglia-Tsang rejection.

    Each shape's constants (d, c and, for a shape below one, the boost
    exponent) are derived here, once.  A shape below one draws one uniform
    u first and returns the variate of shape + 1 times u ** (1 / shape).
    Each proposal reads a cosine-branch Box-Muller normal (two uniforms)
    and, unless 1 + c x <= 0 rejects it outright, one acceptance uniform.
    Blocks are hashed only when a lane of them is read, through
    ``uniforms_from`` as the sampler finds it when called.
    """
    if min(shapes) <= 0.0:
        raise InvalidInputError("gamma shape must be positive")
    prepared = []
    for shape in shapes:
        power = 0.0  # no boost draw
        if shape < 1.0:
            power = 1.0 / shape
            shape += 1.0
        d = shape - 1.0 / 3.0
        prepared.append((d, 1.0 / math.sqrt(9.0 * d), power))
    log = math.log
    sqrt = math.sqrt
    cos = math.cos

    def sample(digest: bytes) -> List[float]:
        prefix = digest + b"W"
        words = uniforms_from(prefix + _BLOCK4[0])
        n_blocks = 1
        pos = 0
        out = []
        for d, c, power in prepared:
            boost = 1.0
            if power:
                if pos == len(words):
                    words += uniforms_from(prefix + _b4(n_blocks))
                    n_blocks += 1
                boost = ((words[pos] >> 11) * TWO53 + TWO54) ** power
                pos += 1
            while True:
                # Reading ahead when fewer than three lanes remain hashes
                # no block early: a proposal rejected after two lanes is
                # followed by another proposal, which reads at least two
                # more.
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

    return sample


def walk_token(walk_index: int) -> bytes:
    if not isinstance(walk_index, int) or walk_index < 0:
        raise InvalidInputError("walk_index must be a non-negative integer")
    return walk_index.to_bytes(8, "little")


def _chunks(n: int, threads: int) -> List[range]:
    """The contiguous trial ranges of one ``keyed_map`` call, one per
    process: k = min(threads, n, CPUs this process may run on), at least 1,
    and 1 on a platform without ``os.fork``.  The CPU set is read only when
    more than one process could run, so a platform without
    ``os.sched_getaffinity`` runs one process unchanged."""
    k = min(threads, n) if hasattr(os, "fork") else 1
    if k > 1:
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        k = min(k, cpus)
    k = max(1, k)
    return [range(n * i // k, n * (i + 1) // k) for i in range(k)]


def _run_trials(fn: Callable[[int], _T], trials: range) -> List[_T]:
    return [fn(t) for t in trials]


def _worker(fn: Callable[[int], _T], trials: range, r: int,
            w: int) -> NoReturn:
    """The body of a forked worker: run ``trials``, write one pickle of
    ``(True, results)`` or ``(False, first error)`` to the pipe end ``w``,
    and leave through ``os._exit``, never returning into the caller."""
    status = 1
    try:
        # Without its own read end, a worker whose parent died gets a
        # broken pipe instead of blocking on a full one.
        os.close(r)
        try:
            outcome = (True, _run_trials(fn, trials))
        except Exception as exc:
            outcome = (False, exc)
        with open(w, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        sys.stdout.flush()
        sys.stderr.flush()
        status = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(status)


def keyed_map(fn: Callable[[int], _T], n: int, threads: int) -> List[_T]:
    """``[fn(t) for t in range(n)]``, with the trials split into contiguous
    chunks over up to ``threads`` processes.

    A trial keyed by ``derive_seed`` draws the same bits in any process,
    so the split never changes a result, only the wall time.  The parent
    runs chunk 0 itself; every other chunk runs in a child forked for this
    call, which starts from ``fn`` and the modules already loaded and
    sends back one pickle of its results, or of its first error, through a
    pipe.  Only results and errors are pickled, so ``fn`` may be any
    callable.  The package starts no thread of its own, so the fork copies
    no lock held by another thread.  The parent reads each pipe to its end
    before it reaps the child, because a chunk's results may outgrow the
    pipe's buffer.

    A chunk stops at its first failing trial, and the first error in trial
    order is re-raised with its type and message.  Once the parent's chunk
    or an earlier worker's has failed, or the parent is interrupted, the
    workers of later chunks are killed.  Every child is reaped before the
    call returns or raises.  A worker that ends without a complete result
    raises ``RwreError`` naming its exit status.  With one chunk the call
    stays in this process: no fork and no pipe.
    """
    if not isinstance(threads, int) or threads < 1:
        raise InvalidInputError("threads must be a positive integer")
    chunks = _chunks(n, threads)
    if len(chunks) == 1:
        return _run_trials(fn, chunks[0])
    # A worker inherits the standard streams' buffers; a line still
    # buffered at the fork would be written once per process.
    sys.stdout.flush()
    sys.stderr.flush()
    workers: List[Tuple[int, int]] = []   # (pid, read end) per chunk 1..
    reaped = 0
    try:
        for trials in chunks[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _worker(fn, trials, r, w)
            workers.append((pid, r))
            os.close(w)
        out = _run_trials(fn, chunks[0])
        for (pid, r), trials in zip(workers, chunks[1:]):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped += 1
            if code or not data:
                ended = (f"was killed by signal {-code}" if code < 0
                         else f"ended with exit status {code}")
                raise RwreError(
                    f"the worker of trials {trials.start}-{trials.stop - 1} "
                    f"{ended} before it returned its results")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            out += value
        return out
    finally:
        for pid, _ in workers[reaped:]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for _, r in workers:
            os.close(r)
