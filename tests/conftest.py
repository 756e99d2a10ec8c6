from __future__ import annotations

import numpy as np
import pytest

from mces import WeightedFrame
from mces import streamio


def make_frames(rng, count, n_tokens, dims, start=0):
    """Fresh unit-weight frames with gaussian tokens and sequential sources."""
    return [
        WeightedFrame.from_tokens(
            rng.standard_normal((n_tokens, dims)), start + i
        )
        for i in range(count)
    ]


def directional_frames(direction, count, n_tokens, start=0, jitter=None, rng=None):
    """Frames whose every token points along ``direction`` (plus optional noise)."""
    d = np.asarray(direction, dtype=np.float64)
    out = []
    for i in range(count):
        tokens = np.tile(d, (n_tokens, 1))
        if jitter:
            tokens = tokens + jitter * rng.standard_normal(tokens.shape)
        out.append(WeightedFrame.from_tokens(tokens, start + i))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)


@pytest.fixture
def opened(monkeypatch):
    """The files streamio opens for reading, in order."""
    handles = []

    def spy(path, mode, *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if mode == "rb":
            handles.append(fh)
        return fh

    monkeypatch.setattr(streamio, "open", spy, raising=False)
    return handles
