"""Reference retention policies the consolidation engine is compared against."""

from __future__ import annotations

import warnings
from typing import Iterator

import numpy as np

from .errors import EmptyInput, InvalidLambda, InvalidSpec
from .frames import WeightedFrame, _first_below_floor, _row_norms

__all__ = [
    "POLICY_IDS",
    "DegenerateFrameWarning",
    "uniform_sample_indices",
    "no_memory",
    "spatial_pool",
    "temporal_pool",
    "ema",
    "token_budget",
]

# stream_merge runs the pipeline without question gating, question_merge with it
POLICY_IDS = ("no_memory", "spatial_pool", "temporal_pool", "ema",
              "stream_merge", "question_merge")


class DegenerateFrameWarning(UserWarning):
    """A pooled frame came out with a near-zero token row."""


def _iter_frames(frames) -> Iterator[np.ndarray]:
    # the frames one at a time, holding none after it has moved past it;
    # EmptyInput when there are none
    if isinstance(frames, np.ndarray) and frames.ndim != 3:
        raise InvalidSpec(f"expected (T, N, D) frames, got shape {frames.shape}")
    empty = True
    for frame in frames:
        empty = False
        yield frame
    if empty:
        raise EmptyInput("no frames")


def uniform_sample_indices(total: int, count: int) -> list[int]:
    """floor(i * total / count) for i in range(count), deduplicated in order."""
    if total < 1 or count < 1:
        raise InvalidSpec(f"need total >= 1 and count >= 1, got {total}, {count}")
    seen: list[int] = []
    for i in range(count):
        idx = i * total // count
        if not seen or seen[-1] != idx:
            seen.append(idx)
    return seen


def no_memory(frames, sample_count: int = 16) -> list[WeightedFrame]:
    """Keep a uniform sample of raw frames; everything else is forgotten.

    The sample indices come from ``len(frames)`` (an iterable without a
    length is listed first), and only the sampled frames are held.
    """
    if not hasattr(frames, "__len__"):
        frames = list(frames)
    total = len(frames)
    keep = set(uniform_sample_indices(total, sample_count)) if total else ()
    return [WeightedFrame.from_tokens(f, i)
            for i, f in enumerate(_iter_frames(frames)) if i in keep]


def spatial_pool(frames) -> list[WeightedFrame]:
    """Collapse each frame to a single token, the mean over its rows.

    Its output holds one token per input frame, so it grows with T.
    """
    out = []
    for i, f in enumerate(_iter_frames(frames)):
        pooled = np.asarray(f, dtype=np.float64).mean(axis=0, keepdims=True)
        _warn_if_degenerate(pooled, f"spatial_pool frame {i}")
        out.append(WeightedFrame.from_tokens(pooled, i))
    return out


def temporal_pool(frames) -> WeightedFrame:
    """Collapse the whole stream to one frame, each token averaged over time.

    One pass: a float64 sum in frame order, divided by T, which is bitwise
    the mean of the stacked frames.
    """
    it = _iter_frames(frames)
    total = np.array(next(it), dtype=np.float64)
    count = 1
    for f in it:
        total += f
        count += 1
    pooled = total / count
    _warn_if_degenerate(pooled, "temporal_pool output")
    return WeightedFrame(tokens=pooled, weight=count,
                         provenance=((0, count, 1),))


def ema(frames, decay: float = 0.5) -> WeightedFrame:
    """Exponential moving average over frames: m_t = decay*m_{t-1} + (1-decay)*x_t."""
    if not 0.0 <= decay < 1.0:
        raise InvalidLambda(f"decay must be in [0, 1), got {decay}")
    it = _iter_frames(frames)
    state = np.array(next(it), dtype=np.float64)
    count = 1
    for f in it:
        state = decay * state + (1.0 - decay) * np.asarray(f, dtype=np.float64)
        count += 1
    _warn_if_degenerate(state, "ema output")
    return WeightedFrame(tokens=state, weight=count,
                         provenance=((0, count, 1),))


def _warn_if_degenerate(tokens: np.ndarray, what: str) -> None:
    if _first_below_floor(_row_norms(tokens)) >= 0:
        warnings.warn(f"{what} has a near-zero token row", DegenerateFrameWarning,
                      stacklevel=3)


def token_budget(policy: str, *, frame_count: int, n_tokens: int,
                 sample_count: int = 16, ltm_capacity: int | None = None) -> int:
    """Upper bound on tokens the policy hands downstream for a T-frame stream."""
    if policy not in POLICY_IDS:
        raise InvalidSpec(f"unknown policy {policy!r}")
    if policy == "no_memory":
        return min(sample_count, frame_count) * n_tokens
    if policy == "spatial_pool":
        return frame_count
    if policy in ("temporal_pool", "ema"):
        return n_tokens
    if ltm_capacity is None:
        raise InvalidSpec(f"policy {policy!r} needs ltm_capacity for its budget")
    return ltm_capacity * n_tokens
