"""Streaming engine: push frames in, keep memory bounded, assemble on demand.

One Pipeline serves one question (or none). Frames go through the short-term
buffer; every time it fills, the fill is consolidated under the question
gate, the result is appended to long-term memory, and the buffer restarts,
under ``merged_tokens`` seeded with that result as context. ``flush``
consolidates whatever is left at end of stream with a proportionally scaled
budget. Both go through :func:`consolidate`, the one gate from a window to
its merged frames. Assembly hands frames downstream without positions;
:func:`mces.memory.assign_positions` pairs the store with extended ones.

Each fact has one owner. Both stores are built with the frame shape, and
the pipeline reads it from its buffer. ``frames_pushed`` and
``consolidation_output_total`` are read-only views of the buffer's next
source index and the store's next position id, and ``seeded_weight_total``
of the weight both stores hold beyond ``frames_pushed``.

Memory accounting is a model over counters, not process introspection: raw
cost assumes 4 bytes per stored value (the container's precision), amortized
cost is raw scaled by the observed output/input frame ratio of completed
consolidations, and peak cost is both bounded structures at capacity. The
observed peak of resident frame slots, ``peak_resident_frames``, is a view
of the banks' high-water mark and the frames held, checked against it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

from .consolidation import (
    ConsolidationConfig,
    ConsolidationReport,
    greedy_merge,
    relevance_score,
)
from .errors import (
    EmptyInput,
    InvalidSpec,
    NotFlushed,
    StaleTimestamp,
    ZeroNorm,
)
from .frames import NORM_FLOOR, WeightedFrame, _norm, _vector
from .memory import LongTermMemory, ShortTermBuffer

__all__ = [
    "REINIT_MODES",
    "COUNTERS",
    "AccountingRecord",
    "VideoRepresentation",
    "Pipeline",
    "consolidate",
]

REINIT_MODES = ("merged_tokens", "none")

# Pipeline attributes that snapshots and reports carry, in report order.
COUNTERS = (
    "frames_pushed",
    "consolidations_run",
    "consolidation_input_total",
    "consolidation_output_total",
    "seeded_weight_total",
    "peak_resident_frames",
)

BYTES_PER_VALUE = 4


def _question(question):
    # the question's read-only float64 copy (frames._vector), or InvalidSpec
    try:
        return _vector(question)
    except ValueError as exc:
        raise InvalidSpec(f"question vector is not finite in float64: {exc}") from exc


def consolidate(frames: Sequence[WeightedFrame], question, cfg: ConsolidationConfig,
                *, _residue: bool = False):
    """Gate a window on question relevance, then merge to the gated budget.

    With no question, the window keeps the full base_target budget
    (question-agnostic mode). ``_residue`` marks the end-of-stream residue:
    its budget is the gated target scaled by its length relative to a full
    fill, within [1, len]. Returns (frames, report).
    """
    frames = list(frames)
    if not frames:
        raise EmptyInput("consolidate over an empty window")
    if question is None:
        score = relevant = None
        target = cfg.base_target
    else:
        score = relevance_score(frames, question)
        # the threshold is strict: score == sigma takes the reduced budget
        relevant = score > cfg.sigma
        target = cfg.base_target if relevant else cfg.weak_target()
    if _residue:
        # ceil(target * len / capacity) in exact integer arithmetic
        scaled = -(-target * len(frames) // cfg.capacity)
        target = min(max(scaled, 1), len(frames))
    out, report = greedy_merge(frames, target)
    return out, replace(report, relevance=score, relevant=relevant)


@dataclass(frozen=True)
class AccountingRecord:
    raw_bytes_per_frame: int
    amortized_bytes_per_frame: float
    peak_resident_bytes: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VideoRepresentation:
    """Ordered frames handed downstream."""

    frames: tuple[WeightedFrame, ...]
    mode: str
    breakpoint_index: int | None = None

    def __len__(self) -> int:
        return len(self.frames)

    def token_count(self) -> int:
        return sum(f.n_tokens for f in self.frames)


class Pipeline:
    """Single-pass streaming consolidation under one question."""

    def __init__(self, n_tokens: int, dims: int, cfg: ConsolidationConfig | None = None,
                 *, question=None, ltm_capacity: int = 256,
                 reinit_mode: str = "merged_tokens"):
        cfg = cfg if cfg is not None else ConsolidationConfig()
        if reinit_mode not in REINIT_MODES:
            raise InvalidSpec(f"reinit_mode must be one of {REINIT_MODES}, got {reinit_mode!r}")
        if reinit_mode != "none" and cfg.base_target >= cfg.capacity:
            raise InvalidSpec(
                "re-initialization needs base_target < capacity, otherwise every "
                f"fill would seed {cfg.base_target} >= {cfg.capacity} frames")
        self.question = None
        if question is not None:
            q = _question(question)
            if q.shape[0] != dims:
                raise InvalidSpec(f"question shape {q.shape} does not match dims {dims}")
            if _norm(q) < NORM_FLOOR:
                raise ZeroNorm("question vector has near-zero norm")
            self.question = q
        self.cfg = cfg
        self.reinit_mode = reinit_mode
        self.short = ShortTermBuffer(cfg.capacity, n_tokens, dims)
        self.long = LongTermMemory(ltm_capacity, n_tokens, dims)
        self.consolidations_run = 0
        self.consolidation_input_total = 0
        self._banked_peak = 0

    # -- streaming -------------------------------------------------------

    def step(self, frame) -> ConsolidationReport | None:
        """Push one frame; returns the consolidation report if one fired.

        If consolidating the fill or banking it in long-term memory raises,
        the frame is refused and the fill stays buffered: the pipeline is as
        it was before the call.
        """
        popped = self.short.push(frame)
        if popped is None:
            return None
        # a failed fire refuses the trigger: it gives back its source index
        out, report = self._fire(popped, self.frames_pushed - 1)
        if self.reinit_mode == "merged_tokens":
            self.short.seed(out)
        return report

    def flush(self) -> ConsolidationReport | None:
        """Consolidate the buffered residue at end of stream, if any.

        The residue's slot budget is the gated target scaled by its length
        relative to a full fill, never below one. Returns the report, or
        None when nothing was buffered. If consolidating or banking raises,
        the residue stays buffered and the pipeline is as it was.
        """
        window = self.short.drain()
        if not window:
            return None
        _, report = self._fire(window, self.frames_pushed, residue=True)
        return report

    def run_stream(self, frames: Iterable) -> list[ConsolidationReport]:
        """Push every frame, then flush. Returns all consolidation reports."""
        reports = [report for frame in frames if (report := self.step(frame)) is not None]
        last = self.flush()
        return reports if last is None else reports + [last]

    def _fire(self, window: list[WeightedFrame], next_source_index: int,
              residue: bool = False) -> tuple[list[WeightedFrame], ConsolidationReport]:
        # consolidate a window taken from the buffer, bank the result and count
        # it. The append is all or nothing: on any raise nothing is counted and
        # the window goes back with next_source_index, as the pipeline was
        try:
            out, report = consolidate(window, self.question, self.cfg, _residue=residue)
            resident = len(self.short) + len(self.long) + len(window) + len(out)
            self.long.append(out)
        except BaseException:
            self.short._reset(window, next_source_index)
            raise
        self.consolidations_run += 1
        self.consolidation_input_total += len(window)
        self._banked_peak = max(self._banked_peak, resident)
        return out, report

    @property
    def frames_pushed(self) -> int:
        """Frames accepted so far: the buffer's next source index."""
        return self.short.next_source_index

    @property
    def consolidation_output_total(self) -> int:
        """Frames banked so far: the store's next position id."""
        return self.long.next_position_id

    @property
    def seeded_weight_total(self) -> int:
        """Weight seeded back into the buffer so far: weight is conserved, so
        it is all weight held beyond one per frame pushed."""
        return self.total_memory_weight() - self.frames_pushed

    @property
    def peak_resident_frames(self) -> int:
        """Most frames resident at once: the banks' high-water mark, or the
        frames held now if more. Between banks the buffer only grows, so this
        is exact unless a caller drains or seeds ``short`` before a fire."""
        return max(self._banked_peak, len(self.short) + len(self.long))

    def counters(self) -> dict[str, int]:
        """The COUNTERS attributes by name, in order."""
        return {name: getattr(self, name) for name in COUNTERS}

    def _restore(self, counters: dict[str, int], entries: Sequence[WeightedFrame],
                 position_ids: Sequence[int], next_position_id: int,
                 buffered: Sequence[WeightedFrame], next_source_index: int) -> None:
        # snapshot resume: the stores take back and check their own state,
        # then the counters are checked against it. InvalidSpec on a break,
        # which would resume by handing out a source index or id twice
        self.long._restore(entries, position_ids, next_position_id)
        self.short._reset(buffered, next_source_index)
        negative = [name for name, value in counters.items() if value < 0]
        if negative:
            raise InvalidSpec(f"counters {negative} are negative")
        for view, store in (("frames_pushed", "short.next_source_index"),
                            ("consolidation_output_total", "long.next_position_id"),
                            ("seeded_weight_total", "the weight held beyond frames_pushed")):
            if counters[view] != getattr(self, view):
                raise InvalidSpec(
                    f"{store} {getattr(self, view)} != counters.{view} {counters[view]}")
        if self.reinit_mode == "none" and self.seeded_weight_total:
            raise InvalidSpec(f"reinit_mode 'none' seeds nothing, but the stores hold "
                              f"{self.seeded_weight_total} seeded weight")
        # each fill turns at least one input frame into at least one output
        run, out, seen = (counters[name] for name in (
            "consolidations_run", "consolidation_output_total", "consolidation_input_total"))
        if not run <= out <= seen:
            raise InvalidSpec(f"counters break consolidations_run {run} <= consolidation_"
                              f"output_total {out} <= consolidation_input_total {seen}")
        peak, held = counters["peak_resident_frames"], len(self.short) + len(self.long)
        if peak < held:
            raise InvalidSpec(f"peak_resident_frames {peak} is below the {held} frames held")
        for where, frames in (("long.entries", entries), ("short.frames", buffered)):
            # provenance is sorted: its last stop is its largest
            if any(f.provenance[-1][1] > self.frames_pushed for f in frames):
                raise InvalidSpec(
                    f"{where} reach past short.next_source_index {self.frames_pushed}")
        for name in ("consolidations_run", "consolidation_input_total"):
            setattr(self, name, counters[name])
        self._banked_peak = peak

    # -- assembly --------------------------------------------------------

    def assemble_global(self) -> VideoRepresentation:
        """Whole-stream representation: long-term entries in position order.

        Only valid once the stream is flushed; buffered frames would
        otherwise be silently missing from the answer.
        """
        if len(self.short):
            raise NotFlushed(f"{len(self.short)} frames still buffered; flush first")
        return VideoRepresentation(frames=self.long.entries, mode="global")

    def assemble_breakpoint(self, t: int) -> VideoRepresentation:
        """Live representation at frame t: long entries, short frames, then x_t.

        t must name the most recently pushed frame, which appears both as the
        last short-term frame and in the current slot. Buffered context seeds
        are left out: they copy long-term entries already listed.
        """
        if self.frames_pushed == 0 or t != self.frames_pushed - 1:
            raise StaleTimestamp(
                f"t={t} is not the live frame index "
                f"({self.frames_pushed - 1 if self.frames_pushed else 'none yet'})")
        if not len(self.short):
            raise StaleTimestamp("no live frame buffered (stream already flushed)")
        current = self.short.frames[-1]
        live = tuple(f for f in self.short.frames if not f.context_flag)
        return VideoRepresentation(frames=self.long.entries + live + (current,),
                                   mode="breakpoint", breakpoint_index=t)

    # -- accounting ------------------------------------------------------

    def bytes_model(self) -> AccountingRecord:
        """Accounting model over counters; see the module docstring."""
        raw = self.short.n_tokens * self.short.dims * BYTES_PER_VALUE
        if self.consolidation_input_total > 0:
            ratio = self.consolidation_output_total / self.consolidation_input_total
            amortized = raw * ratio
        else:
            amortized = float(raw)
        peak = (self.cfg.capacity + self.long.capacity) * raw
        if self.question is not None:
            peak += self.short.dims * BYTES_PER_VALUE
        return AccountingRecord(
            raw_bytes_per_frame=raw,
            amortized_bytes_per_frame=amortized,
            peak_resident_bytes=peak,
        )

    def total_memory_weight(self) -> int:
        """Weight currently banked across long-term, short-term, and nothing else."""
        return self.long.total_weight() + sum(f.weight for f in self.short.frames)
