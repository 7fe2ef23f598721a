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
  blocks, read front to back; ``env`` says which lanes each weight law
  reads;
* a k = 0 clock block serves slots 8m..8m+7 of one vertex, and the first
  race at a vertex reads the lanes of all its slots (a run's one-slot
  anchor never races);
* an advance block of one slot is read one lane per race that follows a
  jump along it, not one lane per jump: the engine adds a jump's next
  clock only when the walk races at that vertex again.

Each hash starts from a copy of a module-level unkeyed BLAKE2b state of
its digest size (8 bytes for derived seeds, 16 for digests, 64 for
blocks), built once at import, and is updated with the message above; a
one-shot ``hashlib.blake2b(msg, digest_size=k)`` gives the same bytes but
parses its arguments and builds the parameter block on every call.
``child_digests`` hashes a parent digest once and finishes each of its
children from a copy of that state, which is how the β ladder of
``quenched`` hashes a level.

The clock blocks a walk reads most are block 0 of replica 0, the replica
the program runs: the k = 0 block of every vertex it leaves, and the
first advance block of every slot it leaves through more than once.
Their message tails after the digest, ``b"C" + walk8 + block4`` and one
``b"c" + walk8 + slot1 + block4`` per slot, are prebuilt at import, so
such a block's message is one concatenation.  The bytes hashed are the
same, and every block is still hashed by one ``uniforms_from`` call.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import struct
import sys
import traceback
from typing import Callable, List, NoReturn, Tuple, TypeVar

from .errors import InvalidInputError, RwreError
from .tree import VertexPath

_T = TypeVar("_T")

# Each returns a fresh copy of a prebuilt unkeyed state of digest size
# 8, 16 or 64 bytes.
_NEW8 = hashlib.blake2b(digest_size=8).copy
_NEW16 = hashlib.blake2b(digest_size=16).copy
_NEW64 = hashlib.blake2b().copy
_U8 = struct.Struct("<8Q").unpack
_U1 = struct.Struct("<Q").unpack

TWO53 = 2.0 ** -53
TWO54 = 2.0 ** -54
TWO_PI = 6.283185307179586

# The one-byte child and slot fields, so hot loops index a table instead
# of building bytes.
BYTE1 = [bytes([i]) for i in range(256)]


def seed_bytes(seed: int) -> bytes:
    """A master seed as 8 little-endian bytes."""
    if not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise InvalidInputError("seed must be an integer in [0, 2**64)")
    return seed.to_bytes(8, "little")


def derive_seed(seed: int, tag: bytes, index: int) -> int:
    """A reproducible 64-bit sub-seed for trial ``index`` of stream ``tag``."""
    h = _NEW8()
    h.update(b"T" + seed_bytes(seed) + tag + index.to_bytes(8, "little"))
    return _U1(h.digest())[0]


def sample_digest(seed: int, stream: bytes, index: int) -> bytes:
    """Digest of copy ``index`` of one vertex in sample stream ``stream``."""
    h = _NEW16()
    h.update(stream + seed_bytes(seed) + index.to_bytes(8, "little"))
    return h.digest()


def root_digest(seed: int) -> bytes:
    h = _NEW16()
    h.update(b"v" + seed_bytes(seed))
    return h.digest()


def child_digest(digest: bytes, i: int) -> bytes:
    h = _NEW16()
    h.update(digest + BYTE1[i])
    return h.digest()


def child_digests(digest: bytes, b: int) -> List[bytes]:
    """``[child_digest(digest, i) for i in 1..b]``, hashing ``digest`` once:
    each child finishes a copy of the state that has read its parent."""
    h = _NEW16()
    h.update(digest)
    out = []
    for i in range(1, b + 1):
        c = h.copy()
        c.update(BYTE1[i])
        out.append(c.digest())
    return out


def vertex_digest(seed: int, v: VertexPath) -> bytes:
    """Digest of a vertex given by its full path."""
    d = root_digest(seed)
    for i in v:
        h = _NEW16()
        h.update(d + BYTE1[i])
        d = h.digest()
    return d


def uniforms_from(msg: bytes) -> Tuple[int, ...]:
    """The eight raw 64-bit words of one 64-byte hash of ``msg``: one block.

    This is the only function that hashes a block.  Consumers map just the
    lanes they read to uniforms, each with ``(w >> 11) * TWO53 + TWO54``.
    """
    h = _NEW64()
    h.update(msg)
    return _U8(h.digest())


# The clock-replica token of replica 0, the one the program runs (the
# engine's token too), and its message tails at block 0, the blocks a
# walk reads most: the k = 0 tail, and the advance tail of each slot.
_WALK0 = bytes(8)
_INIT_TAIL0 = b"C" + _WALK0 + bytes(4)
_ADVANCE_TAILS0 = [b"c" + _WALK0 + s + bytes(4) for s in BYTE1]


def clock_init_block(digest: bytes, walk8: bytes, block: int) -> Tuple[int, ...]:
    """Words feeding the k = 0 exponentials of slots 8*block .. 8*block+7."""
    if block == 0 and walk8 == _WALK0:
        return uniforms_from(digest + _INIT_TAIL0)
    return uniforms_from(digest + b"C" + walk8 + block.to_bytes(4, "little"))


def clock_advance_block(digest: bytes, walk8: bytes, slot: int, block: int) -> Tuple[int, ...]:
    """Words feeding exponentials k = 8*block+1 .. 8*block+8 of one slot."""
    if block == 0 and walk8 == _WALK0:
        return uniforms_from(digest + _ADVANCE_TAILS0[slot])
    return uniforms_from(digest + b"c" + walk8 + BYTE1[slot]
                         + block.to_bytes(4, "little"))


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
