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
a read-only copy. Token row norms are computed once per frame and cached
(``WeightedFrame.norms``), so a pair similarity computes only the row dots.
A merged frame is valid by construction: ``weighted_merge`` builds it
without the copy and re-validation, computes its row norms at once and
scans its tokens for non-finite values only when a norm is not finite.
``as_context`` shares the tokens and norms. Cached and uncached norms come
from one expression, so similarities and merge traces stay bitwise equal to
the plain reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, ZeroNorm

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
    "mean_token_similarity",
    "weighted_merge",
]

# Norms below this are treated as zero and refused, never silently mapped to 0.
NORM_FLOOR = 1e-12

Interval = tuple[int, int, int]


def as_token_matrix(x) -> np.ndarray:
    """Validate an array-like as an (N, D) token matrix.

    Returns a read-only float64 C-contiguous copy, always: the caller's
    array stays writable and later writes to it do not reach the copy.
    Rejects anything that is not 2-dimensional with N >= 1 and D >= 1, and
    any non-finite entry.

    Raises:
        DimensionMismatch: wrong rank or an empty axis.
        ValueError: non-finite entries.
    """
    a = np.array(x, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise DimensionMismatch(f"token matrix must be 2-D, got shape {a.shape}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise DimensionMismatch(f"token matrix axes must be >= 1, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("token matrix contains non-finite values")
    a.setflags(write=False)
    return a


def _row_norms(tokens: np.ndarray) -> np.ndarray:
    """Euclidean norm of each token row, reduced along the contiguous axis."""
    return np.sqrt(np.sum(tokens * tokens, axis=1))


def _norms_of(frame, tokens: np.ndarray) -> np.ndarray:
    # a WeightedFrame's cached row norms, or those of a bare matrix
    return frame.norms if isinstance(frame, WeightedFrame) else _row_norms(tokens)


def unit_interval(index: int) -> tuple[Interval, ...]:
    """Provenance of a single raw source frame."""
    if index < 0:
        raise ValueError(f"source index must be >= 0, got {index}")
    return ((index, index + 1, 1),)


def provenance_mass(intervals: Iterable[Interval]) -> int:
    """Total covered length, counting multiplicity."""
    return sum((stop - start) * count for start, stop, count in intervals)


def validate_provenance(intervals: Sequence[Interval]) -> None:
    prev_stop = None
    for start, stop, count in intervals:
        if start < 0 or stop <= start:
            raise ValueError(f"bad provenance interval ({start}, {stop}, {count})")
        if count < 1:
            raise ValueError(f"provenance count must be >= 1, got {count}")
        if prev_stop is not None and start < prev_stop:
            raise ValueError("provenance intervals overlap or are out of order")
        prev_stop = stop


def merge_provenance(a: Sequence[Interval], b: Sequence[Interval]) -> tuple[Interval, ...]:
    """Union of two provenance records, summing multiplicities.

    The result is sorted, non-overlapping, and coalesced (adjacent pieces with
    equal count become one interval).
    """
    ivals = list(a) + list(b)
    if not ivals:
        return ()
    points = sorted({p for start, stop, _ in ivals for p in (start, stop)})
    out: list[list[int]] = []
    for lo, hi in zip(points, points[1:]):
        # no interval boundary lies strictly inside (lo, hi), so coverage is
        # constant across the piece
        count = sum(c for s, e, c in ivals if s <= lo and hi <= e)
        if count == 0:
            continue
        if out and out[-1][1] == lo and out[-1][2] == count:
            out[-1][1] = hi
        else:
            out.append([lo, hi, count])
    return tuple((s, e, c) for s, e, c in out)


@dataclass(frozen=True)
class WeightedFrame:
    """An (N, D) token matrix plus merge bookkeeping.

    weight counts the source frames this frame stands for (>= 1, with
    multiplicity). context_flag marks frames injected as carried-over context
    rather than read from the stream; merging keeps the flag only if both
    parents carry it.
    """

    tokens: np.ndarray
    weight: int = 1
    provenance: tuple[Interval, ...] = ()
    context_flag: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tokens", as_token_matrix(self.tokens))
        if self.weight < 1:
            raise ValueError(f"weight must be >= 1, got {self.weight}")
        prov = tuple(tuple(int(v) for v in iv) for iv in self.provenance)
        validate_provenance(prov)
        if provenance_mass(prov) != self.weight:
            raise ValueError(
                f"provenance mass {provenance_mass(prov)} != weight {self.weight}"
            )
        object.__setattr__(self, "provenance", prov)

    @classmethod
    def _trusted(cls, tokens: np.ndarray, weight: int, provenance: tuple[Interval, ...],
                 context_flag: bool, norms: np.ndarray) -> "WeightedFrame":
        # a frame valid by construction, without __post_init__'s copy and
        # checks: tokens read-only finite float64 C-contiguous, provenance
        # valid with mass == weight, norms the cached row norms of tokens
        frame = object.__new__(cls)
        frame.__dict__.update(tokens=tokens, weight=weight, provenance=provenance,
                              context_flag=context_flag, norms=norms)
        return frame

    @classmethod
    def from_tokens(cls, tokens, source_index: int, context_flag: bool = False) -> "WeightedFrame":
        """Wrap a raw stream frame: weight 1, unit provenance."""
        return cls(tokens=tokens, weight=1, provenance=unit_interval(source_index),
                   context_flag=context_flag)

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
        return norms

    def as_context(self) -> "WeightedFrame":
        """This frame marked as injected context; tokens and norms are shared."""
        if self.context_flag:
            return self
        return WeightedFrame._trusted(self.tokens, self.weight, self.provenance, True,
                                      self.norms)


def _vector(u) -> np.ndarray:
    a = np.asarray(u, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {a.shape}")
    return a


def cosine(u, v) -> float:
    """Cosine similarity of two vectors, accumulated in float64.

    The quotient is clamped to [-1, 1]. Vectors with norm below NORM_FLOOR
    are refused with ZeroNorm rather than mapped to zero similarity; a zero
    vector has no direction and pretending otherwise corrupts the merge order.
    """
    a, b = _vector(u), _vector(v)
    if a.shape != b.shape:
        raise DimensionMismatch(f"vector shapes differ: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        raise ZeroNorm(f"cosine undefined for near-zero vector (norms {na:.3e}, {nb:.3e})")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def _tokens_of(frame) -> np.ndarray:
    tokens = getattr(frame, "tokens", frame)
    return np.asarray(tokens, dtype=np.float64)


def frame_descriptor(frame) -> np.ndarray:
    """Unit-norm mean of a frame's token rows.

    Accepts a WeightedFrame or a bare (N, D) matrix. Raises ZeroNorm when the
    token mean is degenerate (norm below NORM_FLOOR), which happens when
    tokens cancel.
    """
    tokens = _tokens_of(frame)
    if tokens.ndim != 2:
        raise DimensionMismatch(f"expected an (N, D) matrix, got shape {tokens.shape}")
    mean = tokens.mean(axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < NORM_FLOOR:
        raise ZeroNorm(f"frame descriptor degenerate, token mean norm {norm:.3e}")
    return mean / norm


def frame_pair_similarity(a, b) -> float:
    """Mean cosine over aligned token rows of two frames.

    Token j of the first frame is compared with token j of the second; the N
    cosines are averaged in float64. Both frames must share (N, D). A
    near-zero token row raises ZeroNorm carrying the offending row index.
    """
    ta, tb = _tokens_of(a), _tokens_of(b)
    if ta.shape != tb.shape:
        raise DimensionMismatch(f"frame shapes differ: {ta.shape} vs {tb.shape}")
    if ta.ndim != 2:
        raise DimensionMismatch(f"expected (N, D) matrices, got shape {ta.shape}")
    na, nb = _norms_of(a, ta), _norms_of(b, tb)
    for norms, which in ((na, "first"), (nb, "second")):
        bad = norms < NORM_FLOOR
        if bad.any():
            j = int(np.argmax(bad))
            raise ZeroNorm(f"token {j} of {which} frame has near-zero norm", token_index=j)
    dots = np.sum(ta * tb, axis=1)
    cos = np.clip(dots / (na * nb), -1.0, 1.0)
    return float(cos.mean())


def mean_token_similarity(frame, q) -> float:
    """Mean over token rows of cosine(token, q).

    The per-token alternative to comparing the pooled descriptor against q.
    """
    tokens = _tokens_of(frame)
    qv = _vector(q)
    if tokens.ndim != 2 or tokens.shape[1] != qv.shape[0]:
        raise DimensionMismatch(
            f"tokens {tokens.shape} incompatible with question {qv.shape}")
    nq = float(np.linalg.norm(qv))
    if nq < NORM_FLOOR:
        raise ZeroNorm("question vector has near-zero norm")
    nt = _norms_of(frame, tokens)
    bad = nt < NORM_FLOOR
    if bad.any():
        j = int(np.argmax(bad))
        raise ZeroNorm(f"token {j} has near-zero norm", token_index=j)
    cos = np.clip(tokens @ qv / (nt * nq), -1.0, 1.0)
    return float(cos.mean())


def weighted_merge(a: WeightedFrame, b: WeightedFrame) -> WeightedFrame:
    """Merge two frames by weighted token averaging.

    Row j of the result is (w_a * a_j + w_b * b_j) / (w_a + w_b). Weights add,
    provenance records union with multiplicity, and the context flag survives
    only if both parents carry it. Weighted averaging makes the operation
    associative up to float error: any merge tree over the same multiset of
    weight-1 frames lands on the same weighted mean.

    Raises ValueError when the merged tokens overflow to non-finite values.
    """
    ta, tb = a.tokens, b.tokens
    if ta.shape != tb.shape:
        raise DimensionMismatch(
            f"cannot merge frames of shapes {ta.shape} and {tb.shape}")
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
    # a non-finite token makes its row norm non-finite; a finite norm
    # vouches for its whole row
    if not np.isfinite(norms).all() and not np.isfinite(tokens).all():
        raise ValueError("token matrix contains non-finite values")
    tokens.setflags(write=False)
    norms.setflags(write=False)
    return WeightedFrame._trusted(
        tokens, total, merge_provenance(a.provenance, b.provenance),
        a.context_flag and b.context_flag, norms)
