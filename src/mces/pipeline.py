"""Streaming engine: push frames in, keep memory bounded, assemble on demand.

One Pipeline serves one question (or none). Frames go through the short-term
buffer; every time it fills, the fill is consolidated under the question
gate, the result is appended to long-term memory, and the buffer restarts,
optionally seeded with carried-over context. ``flush`` consolidates whatever
is left at end of stream with a proportionally scaled budget. Both go
through :func:`consolidate`, the one gate from a window to its merged frames.

Memory accounting is a model over counters, not process introspection: raw
cost assumes 4 bytes per stored value (the container's precision), amortized
cost is raw scaled by the observed output/input frame ratio of completed
consolidations, and peak cost is both bounded structures at capacity. A
separate instrumented counter tracks actually-resident frame slots so the
bound can be checked against observed behavior.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .consolidation import (
    ConsolidationConfig,
    ConsolidationReport,
    greedy_merge,
    relevance_score,
    target_count,
)
from .errors import (
    EmptyInput,
    InvalidSpec,
    MissingQuestion,
    NotFlushed,
    StaleTimestamp,
    ZeroNorm,
)
from .frames import NORM_FLOOR, WeightedFrame
from .baselines import uniform_sample_indices
from .memory import LongTermMemory, PositionalTable, ShortTermBuffer, assign_positions

__all__ = [
    "REINIT_MODES",
    "COUNTERS",
    "AccountingRecord",
    "VideoRepresentation",
    "Pipeline",
    "consolidate",
]

REINIT_MODES = ("merged_tokens", "last_k", "uniform_sample", "none")

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


def consolidate(frames: Sequence[WeightedFrame], question, cfg: ConsolidationConfig,
                *, _residue: bool = False):
    """Gate a window on question relevance, then merge to the gated budget.

    With no question and question_required unset, the window keeps the full
    base_target budget (question-agnostic mode). ``_residue`` marks the
    end-of-stream residue: its budget is the gated target scaled by its
    length relative to a full fill, within [1, len]. Returns (frames, report).
    """
    frames = list(frames)
    if not frames:
        raise EmptyInput("consolidate over an empty window")
    if question is None:
        if cfg.question_required:
            raise MissingQuestion("configuration requires a question vector")
        score = None
        target = cfg.base_target
    else:
        score = relevance_score(
            frames, question, basis=cfg.basis,
            question_similarity=cfg.question_similarity,
            exclude_context=cfg.relevance_exclude_context)
        target = target_count(score, cfg)
    if _residue:
        # ceil(target * len / capacity) in exact integer arithmetic
        scaled = -(-target * len(frames) // cfg.capacity)
        target = min(max(scaled, 1), len(frames))
    out, report = greedy_merge(frames, target)
    report = replace(report, relevance=score,
                     relevant=None if score is None else score > cfg.sigma)
    return out, report


@dataclass(frozen=True)
class AccountingRecord:
    raw_bytes_per_frame: int
    amortized_bytes_per_frame: float
    peak_resident_bytes: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class VideoRepresentation:
    """Ordered (frame, positional vector or None) pairs handed downstream."""

    items: tuple[tuple[WeightedFrame, np.ndarray | None], ...]
    mode: str
    breakpoint_index: int | None = None

    def __len__(self) -> int:
        return len(self.items)

    def frames(self) -> tuple[WeightedFrame, ...]:
        return tuple(f for f, _ in self.items)

    def token_count(self) -> int:
        return sum(f.n_tokens for f, _ in self.items)


class Pipeline:
    """Single-pass streaming consolidation under one question."""

    def __init__(self, n_tokens: int, dims: int, cfg: ConsolidationConfig | None = None,
                 *, question=None, ltm_capacity: int = 256,
                 reinit_mode: str = "merged_tokens",
                 pe_table: PositionalTable | None = None):
        cfg = cfg if cfg is not None else ConsolidationConfig()
        if reinit_mode not in REINIT_MODES:
            raise InvalidSpec(f"reinit_mode must be one of {REINIT_MODES}, got {reinit_mode!r}")
        if reinit_mode != "none" and cfg.base_target >= cfg.capacity:
            raise InvalidSpec(
                "re-initialization needs base_target < capacity, otherwise every "
                f"fill would seed {cfg.base_target} >= {cfg.capacity} frames")
        if cfg.question_required and question is None:
            raise MissingQuestion("configuration requires a question vector")
        self.question = None
        if question is not None:
            q = np.asarray(question, dtype=np.float64)
            if q.ndim != 1 or q.shape[0] != dims:
                raise InvalidSpec(f"question shape {q.shape} does not match dims {dims}")
            if not np.isfinite(q).all():
                raise InvalidSpec("question vector is not finite")
            if float(np.linalg.norm(q)) < NORM_FLOOR:
                raise ZeroNorm("question vector has near-zero norm")
            self.question = q
        self.cfg = cfg
        self.reinit_mode = reinit_mode
        self.pe_table = pe_table
        self.short = ShortTermBuffer(cfg.capacity, n_tokens, dims)
        self.long = LongTermMemory(ltm_capacity, n_tokens, dims)
        self.n_tokens = n_tokens
        self.dims = dims
        self.frames_pushed = 0
        self.consolidations_run = 0
        self.consolidation_input_total = 0
        self.consolidation_output_total = 0
        self.seeded_weight_total = 0
        self.peak_resident_frames = 0

    # -- streaming -------------------------------------------------------

    def step(self, frame) -> ConsolidationReport | None:
        """Push one frame; returns the consolidation report if one fired.

        If consolidating the fill or banking it in long-term memory raises,
        the frame is refused and the fill stays buffered: the pipeline is as
        it was before the call.
        """
        popped = self.short.push(frame)
        self.frames_pushed += 1
        if popped is None:
            self._note_resident(0)
            return None
        saved = self.counters()
        try:
            out, report = consolidate(popped, self.question, self.cfg)
            self._bank(popped, out)
        except BaseException:
            vars(self).update(saved)
            self.frames_pushed -= 1
            self.short.drain()
            self.short._restore(popped)
            self.short._next_source_index -= 1
            raise
        trigger = self.short.drain()
        seeds = self._pick_seeds(popped, out, report.target)
        self.short.reinit(seeds)
        self.short._restore(trigger)
        self.seeded_weight_total += sum(s.weight for s in seeds)
        self._note_resident(0)
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
        saved = self.counters()
        try:
            out, report = consolidate(window, self.question, self.cfg, _residue=True)
            self._bank(window, out)
        except BaseException:
            vars(self).update(saved)
            self.short._restore(window)
            raise
        self._note_resident(0)
        return report

    def run_stream(self, frames: Iterable, flush: bool = True) -> list[ConsolidationReport]:
        """Push every frame, then flush. Returns all consolidation reports."""
        return list(self._stream_reports(frames, flush))

    def _stream_reports(self, frames: Iterable, flush: bool = True):
        # run_stream one report at a time: a caller that wants only the final
        # state drains it without holding a report per fill
        for frame in frames:
            report = self.step(frame)
            if report is not None:
                yield report
        if flush:
            report = self.flush()
            if report is not None:
                yield report

    def _bank(self, window: list[WeightedFrame], out: list[WeightedFrame]) -> None:
        # count a consolidated window and append its result to long-term
        # memory; the append is all or nothing, and the caller resets the
        # counters when it raises
        self.consolidations_run += 1
        self.consolidation_input_total += len(window)
        self.consolidation_output_total += len(out)
        self._note_resident(len(window) + len(out))
        self.long.append(out)

    def counters(self) -> dict[str, int]:
        """The COUNTERS attributes by name, in order."""
        return {name: getattr(self, name) for name in COUNTERS}

    def _pick_seeds(self, window, consolidated, target):
        if self.reinit_mode == "none":
            return []
        if self.reinit_mode == "merged_tokens":
            return list(consolidated)
        if self.reinit_mode == "last_k":
            return list(window[-target:])
        return [window[i] for i in uniform_sample_indices(len(window), target)]

    def _note_resident(self, in_flight: int) -> None:
        resident = len(self.short) + len(self.long) + in_flight
        if resident > self.peak_resident_frames:
            self.peak_resident_frames = resident

    # -- assembly --------------------------------------------------------

    def assemble_global(self) -> VideoRepresentation:
        """Whole-stream representation: long-term entries in position order.

        Only valid once the stream is flushed; buffered frames would
        otherwise be silently missing from the answer.
        """
        if len(self.short):
            raise NotFlushed(f"{len(self.short)} frames still buffered; flush first")
        return VideoRepresentation(items=self._long_items(), mode="global")

    def assemble_breakpoint(self, t: int) -> VideoRepresentation:
        """Live representation at frame t: long entries, short frames, then x_t.

        t must name the most recently pushed frame; the current frame
        appears both as the last short-term element and in the dedicated
        current slot, by construction.
        """
        if self.frames_pushed == 0 or t != self.frames_pushed - 1:
            raise StaleTimestamp(
                f"t={t} is not the live frame index "
                f"({self.frames_pushed - 1 if self.frames_pushed else 'none yet'})")
        if not len(self.short):
            raise StaleTimestamp("no live frame buffered (stream already flushed)")
        current = self.short.frames[-1]
        items = self._long_items()
        items += tuple((f, None) for f in self.short.frames)
        items += ((current, None),)
        return VideoRepresentation(items=items, mode="breakpoint", breakpoint_index=t)

    def _long_items(self):
        if self.pe_table is not None:
            return tuple(assign_positions(self.long, self.pe_table))
        return tuple((e, None) for e in self.long.entries)

    # -- accounting ------------------------------------------------------

    def bytes_model(self) -> AccountingRecord:
        """Accounting model over counters; see the module docstring."""
        raw = self.n_tokens * self.dims * BYTES_PER_VALUE
        if self.consolidation_input_total > 0:
            ratio = self.consolidation_output_total / self.consolidation_input_total
            amortized = raw * ratio
        else:
            amortized = float(raw)
        peak = (self.cfg.capacity + self.long.capacity) * raw
        if self.question is not None:
            peak += self.dims * BYTES_PER_VALUE
        return AccountingRecord(
            raw_bytes_per_frame=raw,
            amortized_bytes_per_frame=amortized,
            peak_resident_bytes=peak,
        )

    def total_memory_weight(self) -> int:
        """Weight currently banked across long-term, short-term, and nothing else."""
        return self.long.total_weight() + sum(f.weight for f in self.short.frames)
