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
to exactly that. Its prologue, the window's first similarities, and the
relevance gate each run in a few whole-window numpy calls over blocks of one
row per frame, with values bitwise those of the per-frame kernels.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import frames as _frames
from .errors import DimensionMismatch, EmptyInput, InvalidSpec, InvalidTarget, checked
from .frames import (
    NORM_FLOOR,
    WeightedFrame,
    _adjacent_similarities,
    _cosine,
    _norm,
    _vector,
    frame_descriptor,
    frame_pair_similarity,
    weighted_merge,
)

__all__ = [
    "ConsolidationConfig",
    "ConsolidationReport",
    "relevance_score",
    "greedy_merge",
]

_KINDS = {"int": int, "float": float}


def _check_keys(doc: dict, known, where: str = "config") -> None:
    # refuse keys outside known, naming them all
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise InvalidSpec(f"unknown {where} keys {unknown}")


@dataclass(frozen=True)
class ConsolidationConfig:
    """Knobs for one consolidation policy.

    capacity is the fill size K: every fill is consolidated as one window.
    base_target is the slot budget for a relevant window, alpha scales it for
    irrelevant ones, sigma is the strict relevance threshold. Ties in the
    merge loop always break toward the lowest index; that is part of the
    contract, not a knob. Every field must have its declared type, by the
    rule of :func:`mces.errors.checked`.
    """

    capacity: int = 16
    base_target: int = 4
    alpha: float = 0.25
    sigma: float = 0.25

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               checked(f.name, _KINDS[f.type], getattr(self, f.name)))
        if self.capacity < 1:
            raise InvalidSpec(f"capacity must be >= 1, got {self.capacity}")
        if not 1 <= self.base_target <= self.capacity:
            raise InvalidSpec(
                f"base_target must be in [1, {self.capacity}], got {self.base_target}")
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidSpec(f"alpha must be in (0, 1], got {self.alpha}")
        if not -1.0 <= self.sigma <= 1.0:
            raise InvalidSpec(f"sigma must be in [-1, 1], got {self.sigma}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ConsolidationConfig":
        """Build a config from a plain dict (a --config ``cfg`` or a snapshot).

        Any key but the four fields raises InvalidSpec. Only the snapshot
        format-1 reader knows the retired keys its files carry; it takes
        them out before it calls this.
        """
        _check_keys(doc, {f.name for f in fields(cls)})
        return cls(**doc)

    def to_dict(self) -> dict:
        """The four fields. The snapshot format-1 writer adds the retired
        keys its files carry."""
        return asdict(self)

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


def relevance_score(frames: Sequence[WeightedFrame], question) -> float:
    """Mean question similarity over a window of frames.

    Each frame scores cosine(descriptor, question), bitwise what
    :func:`mces.cosine` gives; the question is checked and its norm taken
    once per call. The token means are reduced into one (frames, D) block,
    one row per frame, and the norms, cosines, clamp and mean then run once
    for the window: ``np.vecdot`` runs numpy's float64 dot loop, as
    ``ndarray.dot`` does. A width mismatch or a degenerate descriptor runs
    the per-frame loop, which raises what it raises on its own.
    """
    frames = list(frames)
    if not frames:
        raise EmptyInput("relevance over an empty window")
    q = _vector(question)
    nq = _norm(q)
    frames = [f if type(f) is WeightedFrame else WeightedFrame.from_tokens(f, 0)
              for f in frames]
    means = np.empty((len(frames), q.shape[0]))
    counts = []
    for f, row in zip(frames, means):
        if f.dims != q.shape[0]:
            return _refused_descriptors(frames, q, nq)
        # bitwise frame_descriptor's mean, divided by N below
        np.add.reduce(f.tokens, axis=0, out=row)
        counts.append(f.n_tokens)
    np.divide(means, np.reshape(counts, (-1, 1)), out=means)
    norms = np.sqrt(np.vecdot(means, means))
    if not np.minimum.reduce(norms) >= NORM_FLOOR:
        return _refused_descriptors(frames, q, nq)
    np.divide(means, norms[:, None], out=means)
    # _cosine's quotient: each unit descriptor's own norm times the question's
    norms = np.sqrt(np.vecdot(means, means))
    if not (np.minimum.reduce(norms) >= NORM_FLOOR and nq >= NORM_FLOOR):
        return _refused_descriptors(frames, q, nq)
    cos = np.vecdot(means, q)
    np.divide(cos, np.multiply(norms, nq), out=cos)
    np.maximum(cos, -1.0, out=cos)
    np.minimum(cos, 1.0, out=cos)
    return float(np.add.reduce(cos) / cos.shape[0])


def _refused_descriptors(frames: list[WeightedFrame], q: np.ndarray, nq: float):
    # the per-frame loop over a window the batched gate refused: it raises at
    # the first frame that fails
    for f in frames:
        d = frame_descriptor(f)
        if d.shape != q.shape:
            raise DimensionMismatch(f"vector shapes differ: {d.shape} vs {q.shape}")
        _cosine(d, _norm(d), q, nq)
    raise AssertionError("a refused window passed every frame")


def _merge_down(work: list[WeightedFrame], sims: list[float], target: int):
    """Merge the most similar adjacent pair of ``work`` until ``target`` remain.

    ``sims[i]`` must hold frame_pair_similarity(work[i], work[i + 1]); both
    lists are updated in place. Ties go to the lowest index. Returns one
    (step, merge index, similarity) triple per merge, in order.
    """
    trace: list[tuple[int, int, float]] = []
    while len(work) > target:
        # max tests `>` left to right; index finds the first equal: lowest on ties
        best = sims.index(max(sims))
        trace.append((len(trace), best, sims[best]))
        if work[best].tokens.size >= _frames._SPLIT_VALUES:
            # one row job: the merge and its similarities to both neighbours
            left = work[best - 1] if best > 0 else None
            right = work[best + 2] if best + 2 < len(work) else None
            merged, to_left, to_right = _frames._merge_between(
                left, work[best], work[best + 1], right)
            work[best:best + 2] = [merged]
            del sims[best]
            if left is not None:
                sims[best - 1] = to_left
            if right is not None:
                sims[best] = to_right
            continue
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
        trace = _merge_down(work, _adjacent_similarities(work), target)
    report = ConsolidationReport(
        input_count=input_count, relevance=None, relevant=None,
        target=target, trace=tuple(trace))
    return work, report

