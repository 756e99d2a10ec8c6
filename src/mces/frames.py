"""Numeric core: token matrices, weighted frames, and merge kernels.

A frame is an (N, D) matrix of token embeddings. Consolidation never drops
frames, it averages them, so every stored frame carries a weight (how many
source frames it stands for) and a provenance record (which source indices,
with multiplicity). Kernels accumulate in float64; cosines are clamped to
[-1, 1] after division so downstream comparisons never see 1.0000000000000002.

Provenance is a sorted tuple of half-open ``(start, stop, count)`` intervals.
Counts matter: when consolidated frames are fed back in as context seeds, the
same source index can legitimately contribute to one frame more than once.
The invariant ``provenance_mass(p) == weight`` holds for every frame.

Each frame owns its tokens: the public constructor validates them and keeps
a read-only copy. A frame's row norms and the floor check on them (the index
of the first row whose norm is below NORM_FLOOR) are one lazy cache, filled
together (``WeightedFrame.norms``). A pair similarity of two frames computes
only the row dots, and still raises ZeroNorm on every call that meets such a
row. A merged frame is valid by construction: ``weighted_merge`` builds it
without the copy and re-validation, and fills its norms and floor check at
once. A pushed frame costs one check and one copy (``as_token_matrix``);
``ShortTermBuffer.push`` then compares its shape and sets its unit
provenance itself. ``from_tokens`` builds a frame the same way from a
caller's index; it wraps bare matrices given to ``frame_pair_similarity`` or
``frame_descriptor``, so a non-finite value or an empty axis is refused.

``as_token_matrix`` refuses two things besides a wrong shape: a non-finite
entry, and a matrix whose float64 sum of squares is above half the largest
float64 (entries of about 1e154 and up), whose row norms and dots would
overflow and give a nan or wrong similarity. Its check is one sum of squares
at the input's own precision: a C-contiguous float32 frame, as a stream
gives, is summed in float32, at half the bytes of its float64 copy. Widening
float32 is exact and a finite float32 sum cannot approach the limit, so the
decision is the same; when the sum is not in range, the float64 copy is
scanned entry by entry and its own sum of squares decides. A merge of two
valid frames is a weighted mean of rows in range, so ``weighted_merge``
refuses only a weighted sum that overflows.

The kernels on the consolidation path call numpy's ufuncs directly
(``np.add.reduce`` for sums and means, ``x.dot(x)`` under a square root for a
vector norm, ``np.maximum`` then ``np.minimum`` in place to clamp) instead of
the wrappers ``np.sum``, ``ndarray.mean``, ``np.linalg.norm`` and ``np.clip``.
A check takes one reduction on the common path (a sum of squares in range or
a finite sum of row norms vouches for every entry, a smallest norm at the
floor or above for every row) and looks further only when it fails. The
arithmetic is the same, operation for operation: similarities, relevance
scores and merge traces stay bitwise equal to the plain reference loop.

A window's first adjacent similarities (``_adjacent_similarities``, a fill's
merge prologue and a snapshot resume) take whole-window calls: each row
product goes through one reused frame-sized scratch and is reduced into a
row of a (frames, N) block, and the square roots, quotients, clamp and means
run once over the blocks. No array holds more than one frame's tokens.
``frame_pair_similarity`` stays the kernel for one pair: the merge loop and
the store's appends.

Large frames split their rows across two threads. When a frame holds at
least ``_SPLIT_VALUES`` (2**16) values and two or more rows, and the process
may run on two or more CPUs, each row-wise kernel runs rows ``[0, n//2)`` on
the caller's thread and rows ``[n//2, n)`` on one daemon thread,
``mces-rows``, started at the first such frame: the float64 copy in
``as_token_matrix``, the row dots of ``frame_pair_similarity``, the weighted
mean and row sums of squares of ``weighted_merge``, and the norm and dot
blocks of ``_adjacent_similarities``. Each row's arithmetic is the unsplit
one, and every whole-vector step (square roots, the floor check, quotients,
clamp, the mean over rows, the overflow test) runs on the caller after both
halves finish, so every value is bitwise that of one thread. The float32
sum of squares of a pushed frame reads only the input, so the caller takes
it, as one call, while the worker copies its rows. The boundary is the same
in every kernel, the push included, so each core writes the same half of a
frame and keeps reading it from its own cache. Below the threshold (a
(64, 512) frame and smaller, where the join, about 20 us, costs more than
the half saves) the kernels run on the caller alone, as written. The
relevance gate's token means sum down the rows, so they are not split.

A merge of two large frames is one row job (``_merge_between``; the merge
loop, ``consolidation._merge_down``, calls it for large frames, and
``weighted_merge`` with no neighbours). Each half computes its rows of the
weighted mean, their sums of squares, and their dots with the frames on
either side of the pair. The caller then takes the square roots, the
overflow test and the merged frame, and ends each neighbour similarity as
``frame_pair_similarity`` does: one join per merge instead of three (an
empty one costs about 17 us), with the bits and refusals of the three calls,
in their order. The buffers the large path allocates for tokens and row
scratch start on a 64-byte line (``_aligned``): numpy aligns to 16 bytes,
and a misaligned operand splits every vector load and store across two
cache lines (a float64 multiply over three (128, 768) operands takes 88 us
so, 59 us aligned). numpy's float64 loops give the same bits at any
alignment, which the tests pin. Aligning costs about 2 us a buffer, so
small frames keep numpy's buffers, and so does the push's copy, whose
aligned form read slower per step. Norm vectors stay owned arrays.

There is one worker per process, and a kernel hands it nothing but row
ranges of arrays the caller allocated; it keeps no reference once its half
is done. A caller that finds the worker busy (another thread's pipeline)
runs its rows alone. An exception in either half is raised after both have
finished. A wait that is interrupted drops the worker, so its late result is
never read as a later call's, and a forked child drops the parent's worker
and starts its own at its first large frame.
"""

from __future__ import annotations

import math
import os
import queue
import sys
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, ZeroNorm, checked

__all__ = [
    "NORM_FLOOR",
    "as_token_matrix",
    "unit_interval",
    "provenance_mass",
    "merge_provenance",
    "WeightedFrame",
    "cosine",
    "frame_descriptor",
    "frame_pair_similarity",
    "weighted_merge",
]

# Norms below this are treated as zero and refused, never silently mapped to 0.
NORM_FLOOR = 1e-12

# A frame's float64 sum of squares may be at most this, half the largest
# float64: then its row norms, their products and its row dots stay finite,
# so no similarity of two frames overflows or reads nan.
_SUMSQ_MAX = sys.float_info.max / 2

Interval = tuple[int, int, int]
_F32 = np.dtype(np.float32)

# frames of at least this many values split their rows across the caller and
# the mces-rows thread (module docstring)
_SPLIT_VALUES = 1 << 16
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
# held by the one caller whose rows the worker is running
_split_lock = threading.Lock()
# (jobs, results, thread) of the mces-rows thread, once a large frame starts it
_worker = None


def _split_rows(kernel, n: int, *args, then=None):
    """Run ``kernel(lo, hi, *args)`` over rows [0, n), split at n // 2.

    The caller runs the first half while the worker runs the second, then
    calls ``then()``, if given, before it waits for the worker, and returns
    its value. With one row, one CPU, or the worker busy with another
    caller, the caller runs ``kernel(0, n, *args)`` alone. Each half writes
    only its own rows of the arrays in ``args``.
    """
    global _worker
    if n < 2 or _CPUS < 2 or not _split_lock.acquire(blocking=False):
        kernel(0, n, *args)
        return then() if then else None
    try:
        if _worker is None:
            _worker = _start_worker()
        jobs, results, _ = _worker
        half = n // 2
        jobs.put((kernel, half, n, args))
        try:
            kernel(0, half, *args)
            value = then() if then else None
        finally:
            try:
                error = results.get()
            except BaseException:
                # an interrupted wait: this worker's late result must not be
                # read as a later call's
                _drop_worker()
                raise
        if error is not None:
            raise error
        return value
    finally:
        _split_lock.release()


def _start_worker():
    jobs, results = queue.SimpleQueue(), queue.SimpleQueue()
    thread = threading.Thread(target=_serve, args=(jobs, results), name="mces-rows",
                              daemon=True)
    thread.start()
    return jobs, results, thread


def _serve(jobs, results) -> None:
    # the mces-rows loop; None ends it. It drops each job before reporting it
    # done, so it holds no caller's array while it waits. Whatever a half
    # raises, SystemExit included, goes to the caller, which raises it: a
    # thread that died here would leave the caller waiting.
    while (job := jobs.get()) is not None:
        kernel, lo, hi, args = job
        error = None
        try:
            kernel(lo, hi, *args)
        except BaseException as raised:
            error = raised
        del job, kernel, args
        results.put(error)
        del error


def _drop_worker() -> None:
    global _worker
    if _worker is not None:
        _worker[0].put(None)  # the thread ends after the job it holds, if any
        _worker = None


def _forget_worker() -> None:
    # a forked child has no worker thread, and no caller mid-split that could
    # release a lock the fork copied held
    global _worker, _split_lock
    _worker, _split_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _aligned(shape) -> np.ndarray:
    # an uninitialised C-contiguous float64 array whose data starts on a
    # 64-byte line: numpy's allocator aligns to 16 bytes only
    n = math.prod(shape)
    raw = np.empty(n + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + n].reshape(shape)


def _copy_rows(lo, hi, a, x):
    # astype's values and warnings, into one half of the fresh matrix
    np.copyto(a[lo:hi], x[lo:hi], casting="unsafe")


def _dot_rows(lo, hi, out, ta, tb, scratch):
    np.add.reduce(np.multiply(ta[lo:hi], tb[lo:hi], out=scratch[lo:hi]), axis=1,
                  out=out[lo:hi])


def _merge_rows(lo, hi, out, sumsq, ta, wa, tb, wb, scratch, dots, left, right):
    # weighted_merge's weighted mean and row sums of squares, op for op, then
    # frame_pair_similarity's row dots of (left, merged) and (merged, right)
    # into dots[0] and dots[1]; a neighbour that is None is skipped
    t, s, a, b = out[lo:hi], scratch[lo:hi], ta[lo:hi], tb[lo:hi]
    if wa != 1:
        np.multiply(a, wa, out=t)
        t += b if wb == 1 else np.multiply(b, wb, out=s)
    elif wb != 1:
        np.multiply(b, wb, out=t)
        t += a
    else:
        np.add(a, b, out=t)
    t /= wa + wb
    np.add.reduce(np.multiply(t, t, out=s), axis=1, out=sumsq[lo:hi])
    if left is not None:
        np.add.reduce(np.multiply(left[lo:hi], t, out=s), axis=1, out=dots[0, lo:hi])
    if right is not None:
        np.add.reduce(np.multiply(t, right[lo:hi], out=s), axis=1, out=dots[1, lo:hi])


def _window_rows(lo, hi, frames, cached, nn, cos, scratch):
    # _adjacent_similarities' sums of squares and row dots, in one pass
    s = scratch[lo:hi]
    for f, norms, row in zip(frames, cached, nn):
        if norms is None:
            t = f.tokens[lo:hi]
            np.add.reduce(np.multiply(t, t, out=s), axis=1, out=row[lo:hi])
    for a, b, row in zip(frames, frames[1:], cos):
        np.add.reduce(np.multiply(a.tokens[lo:hi], b.tokens[lo:hi], out=s), axis=1,
                      out=row[lo:hi])


def as_token_matrix(x) -> np.ndarray:
    """Validate an array-like as an (N, D) token matrix.

    Returns a read-only float64 C-contiguous copy, always: the caller's
    array stays writable and later writes to it do not reach the copy.
    Rejects anything that is not 2-dimensional with N >= 1 and D >= 1, any
    non-finite entry, and a matrix whose float64 sum of squares is above
    half the largest float64 (its norms would overflow a similarity).

    A float32 frame with entries near 1e19 and up overflows its float32 sum
    of squares and is accepted after the scan, but numpy warns "overflow
    encountered in dot": ``np.errstate`` would cost about 1.5 us against a
    4.5 us step, and float64 ``einsum`` over 6x the dot, so the warning stays.

    Raises:
        DimensionMismatch: wrong rank or an empty axis.
        ValueError: non-finite entries, or a norm that overflows.
    """
    # astype copies an exact ndarray as np.array does, at less call overhead;
    # a C-contiguous float32 one is summed as it is: widening is exact, and it
    # is half the bytes and still in cache after the copy. A split copy sums
    # it on the caller while the worker copies its rows.
    sumsq = None
    if type(x) is np.ndarray:
        if x.size >= _SPLIT_VALUES:
            a = np.empty(x.shape)
            v = x.ravel() if x.dtype == _F32 and x.flags.c_contiguous else None
            sumsq = _split_rows(_copy_rows, len(x), a, x,
                                then=None if v is None else partial(v.dot, v))
            v = a.ravel() if v is None else v
        else:
            a = x.astype(np.float64, order="C")
            v = x.ravel() if x.dtype == _F32 and x.flags.c_contiguous else a.ravel()
    else:
        a = np.array(x, dtype=np.float64, order="C")
        v = a.ravel()
    if a.ndim != 2:
        raise DimensionMismatch(f"token matrix must be 2-D, got shape {a.shape}")
    if not a.size:
        raise DimensionMismatch(f"token matrix axes must be >= 1, got shape {a.shape}")
    # a sum of squares in range vouches for every entry; else test each entry
    if not float(v.dot(v) if sumsq is None else sumsq) <= _SUMSQ_MAX:
        if not np.isfinite(a).all():
            raise ValueError("token matrix contains non-finite values")
        v = a.ravel()
        if not v.dot(v) <= _SUMSQ_MAX:
            raise ValueError(
                f"token matrix norm overflows: sum of squares above {_SUMSQ_MAX:.3e}")
    a.setflags(write=False)
    return a


def _row_norms(tokens: np.ndarray) -> np.ndarray:
    """Euclidean norm of each token row, reduced along the contiguous axis."""
    return np.sqrt(np.add.reduce(tokens * tokens, axis=1))


def _first_below_floor(norms: np.ndarray) -> int:
    # index of the first norm below NORM_FLOOR, or -1; searched only if the min fails
    if np.minimum.reduce(norms) >= NORM_FLOOR:
        return -1
    bad = norms < NORM_FLOOR
    j = int(bad.argmax())
    return j if bad[j] else -1


def unit_interval(index: int) -> tuple[Interval, ...]:
    """Provenance of a single raw source frame."""
    if index < 0:
        raise ValueError(f"source index must be >= 0, got {index}")
    return ((index, index + 1, 1),)


def provenance_mass(intervals: Iterable[Interval]) -> int:
    """Total covered length, counting multiplicity."""
    return sum((stop - start) * count for start, stop, count in intervals)


def merge_provenance(a: Sequence[Interval], b: Sequence[Interval]) -> tuple[Interval, ...]:
    """Union of two provenance records, summing multiplicities.

    The result is sorted, non-overlapping, and coalesced (adjacent pieces with
    equal count become one interval).
    """
    if not a or not b or a[-1][1] <= b[0][0]:
        # a ends at or before b starts, as in a fill: coalesce a + b in one pass
        out: list[list[int]] = []
        for s, e, c in (*a, *b):
            if out and out[-1][1] == s and out[-1][2] == c:
                out[-1][1] = e
            else:
                out.append([s, e, c])
        return tuple((s, e, c) for s, e, c in out)
    # each record's boundaries, as (point, count change), are already in
    # order, so the sort only merges the two runs: one sweep in linear time
    edges = sorted([(p, d) for s, e, c in a for p, d in ((s, c), (e, -c))]
                   + [(p, d) for s, e, c in b for p, d in ((s, c), (e, -c))])
    out = []
    lo, count = None, 0
    for point, change in edges:
        if point != lo:
            # coverage is constant on [lo, point): no boundary lies inside
            if count:
                if out and out[-1][1] == lo and out[-1][2] == count:
                    out[-1][1] = point
                else:
                    out.append([lo, point, count])
            lo = point
        count += change
    return tuple((s, e, c) for s, e, c in out)


@dataclass(frozen=True, eq=False)
class WeightedFrame:
    """An (N, D) token matrix plus merge bookkeeping.

    weight counts the source frames this frame stands for (>= 1, with
    multiplicity). context_flag marks frames injected as carried-over context
    rather than read from the stream; merging keeps the flag only if both
    parents carry it. Frames compare and hash by identity.
    """

    tokens: np.ndarray
    weight: int = 1
    provenance: tuple[Interval, ...] = ()
    context_flag: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tokens", as_token_matrix(self.tokens))
        weight = checked("weight", int, self.weight)
        if weight < 1:
            raise ValueError(f"weight must be >= 1, got {weight}")
        prov = []
        for interval in self.provenance:
            start, stop, count = (checked("provenance", int, v) for v in interval)
            if start < 0 or stop <= start:
                raise ValueError(f"bad provenance interval ({start}, {stop}, {count})")
            if count < 1:
                raise ValueError(f"provenance count must be >= 1, got {count}")
            if prov and start < prov[-1][1]:
                raise ValueError("provenance intervals overlap or are out of order")
            prov.append((start, stop, count))
        if provenance_mass(prov) != weight:
            raise ValueError(f"provenance mass {provenance_mass(prov)} != weight {weight}")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "provenance", tuple(prov))

    @classmethod
    def _trusted(cls, tokens: np.ndarray, weight: int, provenance: tuple[Interval, ...],
                 context_flag: bool, norms: np.ndarray | None = None,
                 _bad_row: int = -1) -> "WeightedFrame":
        # a frame valid by construction, without __post_init__'s copy and
        # checks: tokens read-only finite float64 C-contiguous, provenance
        # valid with mass == weight; norms and _bad_row as .norms fills them
        frame = object.__new__(cls)
        frame.__dict__.update(tokens=tokens, weight=weight, provenance=provenance,
                              context_flag=context_flag)
        if norms is not None:
            frame.__dict__.update(norms=norms, _bad_row=_bad_row)
        return frame

    @classmethod
    def from_tokens(cls, tokens, source_index: int) -> "WeightedFrame":
        """Wrap a raw stream frame: weight 1, unit provenance."""
        provenance = unit_interval(int(source_index))
        return cls._trusted(as_token_matrix(tokens), 1, provenance, False)

    @property
    def n_tokens(self) -> int:
        return self.tokens.shape[0]

    @property
    def dims(self) -> int:
        return self.tokens.shape[1]

    @cached_property
    def norms(self) -> np.ndarray:
        """Read-only (N,) norms of the token rows, computed once per frame."""
        norms = _row_norms(self.tokens)
        norms.setflags(write=False)
        self.__dict__["_bad_row"] = _first_below_floor(norms)  # read only after norms
        return norms

    def as_context(self) -> "WeightedFrame":
        """This frame marked as injected context; tokens and norms are shared."""
        if self.context_flag:
            return self
        return WeightedFrame._trusted(self.tokens, self.weight, self.provenance, True,
                                      self.norms, self._bad_row)


def _vector(u) -> np.ndarray:
    # a 1-D vector checked and copied as a one-row token matrix; an empty one
    # is left to the caller's shape or norm test
    a = np.asarray(u)
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {a.shape}")
    return as_token_matrix(a.reshape(1, -1))[0] if a.size else np.zeros(0)


def cosine(u, v) -> float:
    """Cosine similarity of two vectors, accumulated in float64.

    The quotient is clamped to [-1, 1]. Vectors with norm below NORM_FLOOR
    are refused with ZeroNorm rather than mapped to zero similarity; a zero
    vector has no direction and pretending otherwise corrupts the merge order.
    """
    a, b = _vector(u), _vector(v)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector shapes differ: {a.shape} vs {b.shape}")
    return _cosine(a, _norm(a), b, _norm(b))


def _norm(a: np.ndarray) -> float:
    # bitwise np.linalg.norm(a) for a 1-D float64 vector, without its wrapper
    a = a.ravel(order="K")
    return math.sqrt(a.dot(a))


def _cosine(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    # cosine of two checked vectors of equal shape, given their norms
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        raise ZeroNorm(f"cosine undefined for near-zero vector (norms {na:.3e}, {nb:.3e})")
    return min(max(float(a.dot(b) / (na * nb)), -1.0), 1.0)


def frame_descriptor(frame) -> np.ndarray:
    """Unit-norm mean of a frame's token rows.

    Accepts a WeightedFrame or a bare (N, D) matrix, validated by
    :meth:`WeightedFrame.from_tokens`. Raises ZeroNorm when the token mean has
    norm below NORM_FLOOR (tokens cancel). The mean cannot overflow: its
    squared norm is at most the frame's sum of squares, which
    ``as_token_matrix`` keeps in range.
    """
    if type(frame) is not WeightedFrame:
        frame = WeightedFrame.from_tokens(frame, 0)
    tokens = frame.tokens
    # bitwise tokens.mean(axis=0)
    mean = np.add.reduce(tokens, axis=0) / tokens.shape[0]
    norm = _norm(mean)
    if norm < NORM_FLOOR:
        raise ZeroNorm(f"frame descriptor degenerate, token mean norm {norm:.3e}")
    return mean / norm


def frame_pair_similarity(a, b) -> float:
    """Mean cosine over aligned token rows of two frames.

    Token j of the first frame is compared with token j of the second; the N
    cosines are averaged in float64. Both frames must share (N, D). A bare
    matrix is validated as a frame first (:meth:`WeightedFrame.from_tokens`).
    A near-zero token row raises ZeroNorm carrying the offending row index.
    """
    if type(a) is not WeightedFrame:
        a = WeightedFrame.from_tokens(a, 0)
    if type(b) is not WeightedFrame:
        b = WeightedFrame.from_tokens(b, 0)
    ta, tb = a.tokens, b.tokens
    if ta.shape != tb.shape:
        raise DimensionMismatch(f"frame shapes differ: {ta.shape} vs {tb.shape}")
    if ta.size >= _SPLIT_VALUES:
        cos = np.empty(ta.shape[0])
        _split_rows(_dot_rows, ta.shape[0], cos, ta, tb, _aligned(ta.shape))
        return _pair_mean(a, b, cos)
    na, nb = a.norms, b.norms
    if a._bad_row >= 0 or b._bad_row >= 0:
        j, which = (a._bad_row, "first") if a._bad_row >= 0 else (b._bad_row, "second")
        raise ZeroNorm(f"token {j} of {which} frame has near-zero norm", token_index=j)
    # the ufuncs behind np.sum, np.clip (maximum, then minimum) and
    # ndarray.mean, called directly
    cos = np.add.reduce(np.multiply(ta, tb), axis=1)
    np.divide(cos, np.multiply(na, nb), out=cos)
    np.maximum(cos, -1.0, out=cos)
    np.minimum(cos, 1.0, out=cos)
    return float(np.add.reduce(cos) / cos.shape[0])


def _pair_mean(a: WeightedFrame, b: WeightedFrame, cos: np.ndarray) -> float:
    # frame_pair_similarity of a large pair, given its row dots in cos: the
    # same refusal of a row below the floor, quotient, clamp and mean
    na, nb = a.norms, b.norms
    if a._bad_row >= 0 or b._bad_row >= 0:
        j, which = (a._bad_row, "first") if a._bad_row >= 0 else (b._bad_row, "second")
        raise ZeroNorm(f"token {j} of {which} frame has near-zero norm", token_index=j)
    np.divide(cos, np.multiply(na, nb), out=cos)
    np.maximum(cos, -1.0, out=cos)
    np.minimum(cos, 1.0, out=cos)
    return float(np.add.reduce(cos) / cos.shape[0])


def _adjacent_similarities(frames: Sequence[WeightedFrame]) -> list[float]:
    """Bitwise ``[frame_pair_similarity(a, b)]`` over adjacent pairs, in whole-window calls.

    A frame whose norms are not cached yet caches an owned copy of its norm
    row, so no stored frame keeps the window's block alive. A window with two
    frame shapes or a row below NORM_FLOOR runs the per-pair loop, which
    raises what it raises on its own.
    """
    if len(frames) < 2:
        return []
    shape = frames[0].tokens.shape
    if any(f.tokens.shape != shape for f in frames):
        return _refused_pairs(frames)
    n = shape[0]
    split = math.prod(shape) >= _SPLIT_VALUES
    scratch = _aligned(shape) if split else np.empty(shape)
    cached = [f.__dict__.get("norms") for f in frames]
    # the rows of cached frames stay 0 until after the square root
    nn = np.zeros((len(frames), n))
    cos = np.empty((len(frames) - 1, n))
    if split:
        # the dots too, in the same join; a refused window wastes them
        _split_rows(_window_rows, n, frames, cached, nn, cos, scratch)
    else:
        for f, norms, row in zip(frames, cached, nn):
            if norms is None:
                np.add.reduce(np.multiply(f.tokens, f.tokens, out=scratch), axis=1, out=row)
    np.sqrt(nn, out=nn)
    for norms, row in zip(cached, nn):
        if norms is not None:
            row[:] = norms
    if not np.minimum.reduce(nn, axis=None) >= NORM_FLOOR:
        return _refused_pairs(frames)
    for f, norms, row in zip(frames, cached, nn):
        if norms is None:
            owned = row.copy()
            owned.setflags(write=False)
            f.__dict__.update(norms=owned, _bad_row=-1)
    if not split:
        for a, b, row in zip(frames, frames[1:], cos):
            np.add.reduce(np.multiply(a.tokens, b.tokens, out=scratch), axis=1, out=row)
    np.divide(cos, np.multiply(nn[:-1], nn[1:]), out=cos)
    np.maximum(cos, -1.0, out=cos)
    np.minimum(cos, 1.0, out=cos)
    return (np.add.reduce(cos, axis=1) / n).tolist()


def _refused_pairs(frames: Sequence[WeightedFrame]):
    # the per-pair loop over a window the batched path refused: it raises at
    # the first pair that fails, as greedy_merge's own loop did
    for a, b in zip(frames, frames[1:]):
        frame_pair_similarity(a, b)
    raise AssertionError("a refused window passed every pair")


def weighted_merge(a: WeightedFrame, b: WeightedFrame) -> WeightedFrame:
    """Merge two frames by weighted token averaging.

    Row j of the result is (w_a * a_j + w_b * b_j) / (w_a + w_b). Weights add,
    provenance records union with multiplicity, and the context flag survives
    only if both parents carry it. Weighted averaging makes the operation
    associative up to float error: any merge tree over the same multiset of
    weight-1 frames lands on the same weighted mean.

    Raises ValueError when the weighted sum overflows.
    """
    ta, tb = a.tokens, b.tokens
    if ta.shape != tb.shape:
        raise DimensionMismatch(
            f"cannot merge frames of shapes {ta.shape} and {tb.shape}")
    if ta.size >= _SPLIT_VALUES:
        return _merge_between(None, a, b, None)[0]
    wa, wb = a.weight, b.weight
    total = wa + wb
    # (wa * ta + wb * tb) / total in one fresh buffer. Multiplying by a
    # weight of exactly 1 is skipped and addition commutes, so every value
    # is bitwise what the plain expression gives.
    if wa != 1:
        tokens = np.multiply(ta, wa)
        tokens += tb if wb == 1 else wb * tb
    elif wb != 1:
        tokens = np.multiply(tb, wb)
        tokens += ta
    else:
        tokens = ta + tb
    tokens /= total
    norms = _row_norms(tokens)
    # each row is a weighted mean of two rows in range, so only the weighted
    # sum can overflow; an overflowed token makes its row norm, and so the
    # sum of the norms (all >= 0), non-finite
    if not math.isfinite(np.add.reduce(norms)):
        raise ValueError("merged token matrix overflows")
    tokens.setflags(write=False)
    norms.setflags(write=False)
    return WeightedFrame._trusted(
        tokens, total, merge_provenance(a.provenance, b.provenance),
        a.context_flag and b.context_flag, norms, _first_below_floor(norms))


def _merge_between(left: WeightedFrame | None, a: WeightedFrame, b: WeightedFrame,
                   right: WeightedFrame | None):
    """``weighted_merge(a, b)`` and its similarities to both neighbours, in one row job.

    For frames of at least ``_SPLIT_VALUES`` values, all of one shape.
    Returns ``(merged, frame_pair_similarity(left, merged),
    frame_pair_similarity(merged, right))``, with None for an absent
    neighbour, bitwise those calls' values. It raises what they raise, in
    their order: the overflow, then a refused row of the left pair, then one
    of the right pair. An overflowing merge may also warn of an invalid
    value: its neighbour dots were taken in the same job, before the test.
    """
    ta, tb = a.tokens, b.tokens
    n = ta.shape[0]
    tokens, norms, dots = _aligned(ta.shape), np.empty(n), np.empty((2, n))
    _split_rows(_merge_rows, n, tokens, norms, ta, a.weight, tb, b.weight,
                _aligned(ta.shape), dots, None if left is None else left.tokens,
                None if right is None else right.tokens)
    np.sqrt(norms, out=norms)
    # as weighted_merge: only the weighted sum can overflow
    if not math.isfinite(np.add.reduce(norms)):
        raise ValueError("merged token matrix overflows")
    tokens.setflags(write=False)
    norms.setflags(write=False)
    merged = WeightedFrame._trusted(
        tokens, a.weight + b.weight, merge_provenance(a.provenance, b.provenance),
        a.context_flag and b.context_flag, norms, _first_below_floor(norms))
    return (merged, None if left is None else _pair_mean(left, merged, dots[0]),
            None if right is None else _pair_mean(merged, right, dots[1]))
