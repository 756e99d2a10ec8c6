"""Bounded memory structures: short-term buffer, long-term store, positions.

The short-term buffer holds at most ``capacity`` frames. Pushing into a full
buffer pops the entire contents (a fill) and starts the next fill with the
frame that triggered the overflow. Context seeds put in front of that frame
by ``seed`` count against capacity, so the next fill completes after
capacity - len(seeds) fresh pushes.

The long-term store is built with the frame shape, like the buffer. It
appends consolidated frames of that shape only, with strictly increasing
position ids, and whenever it outgrows its cap it greedily merges the most
similar adjacent pair until it fits. It runs the very merge loop that
consolidates a fill. Weight is conserved; nothing is dropped.

Extended positions map indices in [0, n^2) onto an n-row base table: the
first n indices return base rows bitwise, the rest blend two rows. Blending
collapses for indices i*n + i (the blend of a row with itself), so a
collision scan is provided rather than pretending the map is injective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidSpec,
    MemoryTooLongForTable,
    PositionOutOfRange,
    SeedTooLarge,
    ShapeMismatch,
)
from .consolidation import _merge_down
from .frames import (
    WeightedFrame,
    _adjacent_similarities,
    as_token_matrix,
    frame_pair_similarity,
)
# unused here; kept only so bench/spans.py can wrap memory.weighted_merge
from .frames import weighted_merge  # noqa: F401

__all__ = [
    "ShortTermBuffer",
    "LongTermMemory",
    "PositionalTable",
    "extended_position",
    "enumerate_collisions",
    "assign_positions",
]


def _frame_shape(n_tokens: int, dims: int) -> tuple[int, int]:
    # the (n_tokens, dims) a store's frames must have; InvalidSpec unless both >= 1
    if n_tokens < 1 or dims < 1:
        raise InvalidSpec(f"bad frame shape ({n_tokens}, {dims})")
    return n_tokens, dims


class ShortTermBuffer:
    """Fixed-capacity FIFO of weighted frames with overflow popping.

    Each popped fill is one window: it is consolidated as a whole.
    """

    def __init__(self, capacity: int, n_tokens: int, dims: int):
        if capacity < 1:
            raise InvalidSpec(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.n_tokens, self.dims = self._shape = _frame_shape(n_tokens, dims)
        self._frames: list[WeightedFrame] = []
        self._next_source_index = 0

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def frames(self) -> tuple[WeightedFrame, ...]:
        return tuple(self._frames)

    @property
    def next_source_index(self) -> int:
        return self._next_source_index

    def _check_shape(self, tokens: np.ndarray) -> None:
        if tokens.shape != self._shape:
            raise ShapeMismatch(f"frame shape {tokens.shape} != configured {self._shape}")

    def push(self, frame) -> list[WeightedFrame] | None:
        """Push one raw frame.

        Returns None while the buffer accepts, or the popped fill (exactly
        ``capacity`` frames) when this push would overflow. The pushed frame
        is not part of the popped fill; it becomes the first element of the
        next one. Each accepted push consumes one source index for provenance;
        a refused one (bad values, then a wrong shape) consumes none.
        """
        tokens = as_token_matrix(frame)
        if tokens.shape != self._shape:
            self._check_shape(tokens)  # raises ShapeMismatch
        # the index is never negative, so unit_interval's check is not repeated
        i = self._next_source_index
        wrapped = WeightedFrame._trusted(tokens, 1, ((i, i + 1, 1),), False)
        self._next_source_index = i + 1
        if len(self._frames) >= self.capacity:
            popped = self._frames
            self._frames = [wrapped]
            return popped
        self._frames.append(wrapped)
        return None

    def seed(self, seeds: Sequence[WeightedFrame]) -> None:
        """Put carried-over context frames in front of the buffered ones.

        The buffer stores copies with context_flag set; the caller's frames
        are untouched. Seeds count against capacity, and SeedTooLarge is
        raised when they do not fit beside what is already buffered.
        """
        if len(seeds) + len(self._frames) > self.capacity:
            raise SeedTooLarge(
                f"{len(seeds)} seeds do not fit beside {len(self._frames)} frames "
                f"under capacity {self.capacity}")
        for seed in seeds:
            self._check_shape(seed.tokens)
        self._frames[:0] = [seed.as_context() for seed in seeds]

    def drain(self) -> list[WeightedFrame]:
        """Remove and return everything currently buffered."""
        frames, self._frames = self._frames, []
        return frames

    def _reset(self, frames: Sequence[WeightedFrame], next_source_index: int) -> None:
        # put back already-wrapped frames and the next source index: a failed
        # fire or flush rolls back with it, and a snapshot resumes with it;
        # callers keep the frames within capacity
        for frame in frames:
            self._check_shape(frame.tokens)
        self._frames = list(frames)
        self._next_source_index = next_source_index


class LongTermMemory:
    """Append-only consolidated store with greedy adjacent compaction.

    Entries keep strictly increasing position ids; compaction merges a pair
    into one entry that inherits the smaller (left) id. A cache of adjacent
    similarities is maintained incrementally; every cached value is exactly
    what recomputing from scratch would produce, because merges only disturb
    the two neighboring pairs.
    """

    def __init__(self, capacity: int, n_tokens: int, dims: int):
        if capacity < 1:
            raise InvalidSpec(f"long-term capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.n_tokens, self.dims = self._shape = _frame_shape(n_tokens, dims)
        self._entries: list[WeightedFrame] = []
        self._position_ids: list[int] = []
        self._next_position_id = 0
        self._pair_sims: list[float] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[WeightedFrame, ...]:
        return tuple(self._entries)

    @property
    def position_ids(self) -> tuple[int, ...]:
        return tuple(self._position_ids)

    @property
    def next_position_id(self) -> int:
        return self._next_position_id

    def total_weight(self) -> int:
        return sum(e.weight for e in self._entries)

    def _check_shape(self, tokens: np.ndarray) -> None:
        if tokens.shape != self._shape:
            raise ShapeMismatch(f"entry shape {tokens.shape} != configured {self._shape}")

    def _push_entry(self, frame: WeightedFrame) -> None:
        # append one entry and the similarity to its left neighbor
        self._check_shape(frame.tokens)
        if self._entries:
            self._pair_sims.append(frame_pair_similarity(self._entries[-1], frame))
        self._entries.append(frame)

    def append(self, frames: Sequence[WeightedFrame]) -> None:
        """Append consolidated frames in order, then compact if over cap.

        All or nothing: appending and compaction work on fresh copies of
        the store's lists. If anything raises (say ZeroNorm from a merged
        entry), the originals are put back and the store is as it was.
        """
        saved = dict(vars(self))
        for name in ("_entries", "_pair_sims", "_position_ids"):
            setattr(self, name, list(saved[name]))
        try:
            for frame in frames:
                self._push_entry(frame)
                self._position_ids.append(self._next_position_id)
                self._next_position_id += 1
            self.overflow_compact()
        except BaseException:
            vars(self).update(saved)
            raise

    def overflow_compact(self) -> None:
        """Merge most-similar adjacent pairs until the store fits its cap.

        Ties go to the lowest index. No-op when already within cap.
        """
        for _, best, _ in _merge_down(self._entries, self._pair_sims, self.capacity):
            # left id is the minimum of the merged group
            del self._position_ids[best + 1]

    def _restore(self, entries: Sequence[WeightedFrame], position_ids: Sequence[int],
                 next_position_id: int) -> None:
        # snapshot import path: checks the ids and the shapes, rebuilds the
        # similarity cache in whole-window calls
        if len(entries) != len(position_ids):
            raise InvalidSpec("entry and position id counts differ")
        # ids count up from 0, so each exceeds the one before it, the first -1
        if any(b <= a for a, b in zip([-1, *position_ids], position_ids)):
            raise InvalidSpec("position ids must be non-negative and strictly increasing")
        if position_ids and next_position_id <= position_ids[-1]:
            raise InvalidSpec(f"next_position_id {next_position_id} is not past the last id")
        for frame in entries:
            self._check_shape(frame.tokens)
        self._pair_sims = _adjacent_similarities(entries)
        self._entries = list(entries)
        self._position_ids = list(position_ids)
        self._next_position_id = next_position_id


@dataclass(frozen=True)
class PositionalTable:
    """Base table for extended positional encodings.

    ``base`` has n >= 2 pairwise-distinct rows; ``blend`` in (0, 1) weighs
    the high-order row when two rows combine. 0.5 is deliberately not the
    default: an even blend would also collide (i, j) with (j, i).
    """

    base: np.ndarray
    blend: float = 0.4

    def __post_init__(self):
        a = np.asarray(self.base, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] < 2 or a.shape[1] < 1:
            raise InvalidSpec(f"base table must be (n >= 2, dim >= 1), got {a.shape}")
        if not np.isfinite(a).all():
            raise InvalidSpec("base table contains non-finite values")
        for i in range(a.shape[0]):
            for j in range(i + 1, a.shape[0]):
                if np.array_equal(a[i], a[j]):
                    raise InvalidSpec(f"base rows {i} and {j} are identical")
        if not 0.0 < self.blend < 1.0:
            raise InvalidSpec(f"blend must be inside (0, 1), got {self.blend}")
        a = np.ascontiguousarray(a)
        a.setflags(write=False)
        object.__setattr__(self, "base", a)

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def dim(self) -> int:
        return self.base.shape[1]

    @property
    def max_positions(self) -> int:
        return self.n * self.n

    @classmethod
    def gaussian(cls, n: int, dim: int, seed: int = 0, blend: float = 0.4) -> "PositionalTable":
        """Random table for tests and demos; rows are i.i.d. Gaussian."""
        rng = np.random.default_rng(seed)
        return cls(base=rng.standard_normal((n, dim)), blend=blend)


def extended_position(table: PositionalTable, k: int) -> np.ndarray:
    """Positional vector for index k in [0, n^2).

    Indices below n return the base row itself, bitwise. Larger indices
    split as k = i*n + j and return blend*base[i] + (1-blend)*base[j].
    """
    n = table.n
    if not 0 <= k < n * n:
        raise PositionOutOfRange(f"position {k} outside [0, {n * n})")
    if k < n:
        return table.base[k]
    i, j = divmod(k, n)
    out = table.blend * table.base[i] + (1.0 - table.blend) * table.base[j]
    out.setflags(write=False)
    return out


def enumerate_collisions(table: PositionalTable, tol: float = 1e-8) -> list[tuple[int, int]]:
    """Brute-force scan for index pairs whose encodings coincide.

    Returns sorted (k1, k2) pairs with k1 < k2 and distance below tol. For a
    generic table the only hits are the diagonal degeneracies: k = i*n + i
    blends base[i] with itself and lands on position i again.
    """
    total = table.max_positions
    encodings = np.stack([extended_position(table, k) for k in range(total)])
    hits = []
    for k1 in range(total):
        diff = encodings[k1 + 1:] - encodings[k1]
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        for off in np.nonzero(dist < tol)[0]:
            hits.append((k1, k1 + 1 + int(off)))
    return hits


def assign_positions(memory: LongTermMemory, table: PositionalTable):
    """Pair each entry, in append-rank order, with its extended position.

    Raises MemoryTooLongForTable when the store holds more entries than the
    table can index (n^2).
    """
    if len(memory) > table.max_positions:
        raise MemoryTooLongForTable(
            f"{len(memory)} entries exceed table range {table.max_positions}")
    return [(entry, extended_position(table, rank))
            for rank, entry in enumerate(memory.entries)]
