"""Primitives of question-gated greedy consolidation of a window of frames.

The window's relevance to a question decides how many frames survive: above
the threshold the window keeps ``base_target`` frames, at or below it the
budget shrinks to round(alpha * base_target), never under one. Consolidation
itself repeatedly merges the adjacent pair with the highest tokenwise
similarity until the budget is met. Order is preserved and weight is
conserved; nothing is sampled or discarded. The gate that chains these
primitives, :func:`mces.pipeline.consolidate`, lives with the pipeline.

The merge loop maintains adjacent similarities incrementally. A merge at
index m only disturbs the pairs (m-1, m) and (m, m+1), and untouched pairs
keep bitwise-identical values, so the loop is step-for-step equal to a naive
version that recomputes every similarity each iteration. The tests hold it
to exactly that.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .errors import EmptyInput, InvalidSpec, InvalidTarget
from .frames import (
    WeightedFrame,
    cosine,
    frame_descriptor,
    frame_pair_similarity,
    mean_token_similarity,
    weighted_merge,
)

__all__ = [
    "RELEVANCE_BASES",
    "QUESTION_SIMILARITIES",
    "ConsolidationConfig",
    "ConsolidationReport",
    "relevance_score",
    "target_count",
    "greedy_merge",
]

RELEVANCE_BASES = ("mean", "min", "max")
QUESTION_SIMILARITIES = ("pooled", "per_token")


@dataclass(frozen=True)
class ConsolidationConfig:
    """Knobs for one consolidation policy.

    capacity is the fill size K: every fill is consolidated as one window.
    base_target is the slot budget for a relevant window, alpha scales it for
    irrelevant ones, sigma is the strict relevance threshold. Ties in the
    merge loop always break toward the lowest index; that is part of the
    contract, not a knob.
    """

    capacity: int = 16
    base_target: int = 4
    alpha: float = 0.25
    sigma: float = 0.25
    basis: str = "mean"
    question_required: bool = False
    question_similarity: str = "pooled"
    relevance_exclude_context: bool = False

    def __post_init__(self):
        if self.capacity < 1:
            raise InvalidSpec(f"capacity must be >= 1, got {self.capacity}")
        if not 1 <= self.base_target <= self.capacity:
            raise InvalidSpec(
                f"base_target must be in [1, {self.capacity}], got {self.base_target}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidSpec(f"alpha must be in (0, 1], got {self.alpha}")
        if not -1.0 <= self.sigma <= 1.0:
            raise InvalidSpec(f"sigma must be in [-1, 1], got {self.sigma}")
        if self.basis not in RELEVANCE_BASES:
            raise InvalidSpec(f"basis must be one of {RELEVANCE_BASES}, got {self.basis!r}")
        if self.question_similarity not in QUESTION_SIMILARITIES:
            raise InvalidSpec(
                f"question_similarity must be one of {QUESTION_SIMILARITIES}, "
                f"got {self.question_similarity!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ConsolidationConfig":
        """Build a config from a plain dict (a --config ``cfg`` or a snapshot).

        Unknown keys raise InvalidSpec. Files written before the window
        knobs were retired may carry window_size and windows_per_fill; they
        are accepted only when their product equals capacity, then dropped.
        """
        doc = dict(doc)
        unknown = sorted(set(doc) - {f.name for f in fields(cls)}
                         - {"window_size", "windows_per_fill"})
        if unknown:
            raise InvalidSpec(f"unknown config keys {unknown}")
        try:
            if "window_size" in doc or "windows_per_fill" in doc:
                capacity = doc.get("capacity", cls.capacity)
                product = doc.pop("window_size", capacity) * doc.pop("windows_per_fill", 1)
                if product != capacity:
                    raise InvalidSpec(
                        f"legacy window_size * windows_per_fill = {product} "
                        f"!= capacity {capacity}")
            return cls(**doc)
        except TypeError as exc:
            raise InvalidSpec(f"bad config value: {exc}") from exc

    def to_dict(self) -> dict:
        """Snapshot form. It still writes the retired window keys (one window
        per fill), so readers of snapshot version 1 without from_dict load it."""
        return {**asdict(self), "window_size": self.capacity, "windows_per_fill": 1}

    def weak_target(self) -> int:
        """Slot budget for an irrelevant window: round-half-up, clamped."""
        scaled = math.floor(self.alpha * self.base_target + 0.5)
        return min(max(scaled, 1), self.base_target)


@dataclass(frozen=True)
class ConsolidationReport:
    """What one consolidation did and why.

    relevance and relevant are None when no question steered the run. trace
    holds one (step, merge index, similarity) triple per merge, in order;
    its length always equals input_count minus the output length.
    """

    input_count: int
    relevance: float | None
    relevant: bool | None
    target: int
    trace: tuple[tuple[int, int, float], ...]

    def to_dict(self) -> dict:
        return {
            "input_count": self.input_count,
            "relevance": self.relevance,
            "relevant": self.relevant,
            "target": self.target,
            "trace": [[step, index, value] for step, index, value in self.trace],
        }


def relevance_score(frames: Sequence[WeightedFrame], question, basis: str = "mean",
                    question_similarity: str = "pooled",
                    exclude_context: bool = False) -> float:
    """Aggregate question similarity over a window of frames.

    Each frame scores cosine(descriptor, question) in pooled mode, or the
    mean per-token cosine in per_token mode; scores aggregate by mean, min,
    or max. When exclude_context is set, context-flagged frames are left out
    unless that would empty the window.
    """
    if basis not in RELEVANCE_BASES:
        raise InvalidSpec(f"basis must be one of {RELEVANCE_BASES}, got {basis!r}")
    if question_similarity not in QUESTION_SIMILARITIES:
        raise InvalidSpec(f"unknown question_similarity {question_similarity!r}")
    frames = list(frames)
    if not frames:
        raise EmptyInput("relevance over an empty window")
    if exclude_context:
        fresh = [f for f in frames if not f.context_flag]
        if fresh:
            frames = fresh
    q = np.asarray(question, dtype=np.float64)
    if question_similarity == "pooled":
        scores = [cosine(frame_descriptor(f), q) for f in frames]
    else:
        scores = [mean_token_similarity(f, q) for f in frames]
    if basis == "mean":
        return float(np.mean(scores))
    if basis == "min":
        return float(np.min(scores))
    return float(np.max(scores))


def target_count(score: float, cfg: ConsolidationConfig) -> int:
    """Slot budget for a window with the given relevance score.

    The threshold is strict: score == sigma takes the reduced branch.
    """
    if score > cfg.sigma:
        return cfg.base_target
    return cfg.weak_target()


def _merge_down(work: list[WeightedFrame], sims: list[float], target: int):
    """Merge the most similar adjacent pair of ``work`` until ``target`` remain.

    ``sims[i]`` must hold frame_pair_similarity(work[i], work[i + 1]); both
    lists are updated in place. Ties go to the lowest index. Returns one
    (step, merge index, similarity) triple per merge, in order.
    """
    trace: list[tuple[int, int, float]] = []
    while len(work) > target:
        best = 0
        for i in range(1, len(sims)):
            if sims[i] > sims[best]:
                best = i
        trace.append((len(trace), best, sims[best]))
        merged = weighted_merge(work[best], work[best + 1])
        work[best] = merged
        del work[best + 1]
        del sims[best]
        if best > 0:
            sims[best - 1] = frame_pair_similarity(work[best - 1], merged)
        if best < len(sims):
            sims[best] = frame_pair_similarity(merged, work[best + 1])
    return trace


def greedy_merge(frames: Sequence[WeightedFrame], target: int):
    """Merge adjacent frames until at most ``target`` remain.

    Each step merges the adjacent pair with the highest tokenwise similarity
    (lowest index on ties) and records (step, index, similarity). Returns
    (frames, report); the report's relevance fields are None here and get
    filled in by :func:`mces.pipeline.consolidate`.
    """
    if target < 1:
        raise InvalidTarget(f"target must be >= 1, got {target}")
    work = list(frames)
    input_count = len(work)
    trace = []
    if len(work) > target:
        sims = [frame_pair_similarity(work[i], work[i + 1]) for i in range(len(work) - 1)]
        trace = _merge_down(work, sims, target)
    report = ConsolidationReport(
        input_count=input_count, relevance=None, relevant=None,
        target=target, trace=tuple(trace))
    return work, report

