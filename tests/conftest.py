from __future__ import annotations

import sys

import numpy as np
import pytest

from mces import WeightedFrame
from mces import frames, streamio


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


def oracle_case(case):
    """Acceptance check c1's seeded case: its raw (N, D) token matrices and target."""
    r = np.random.default_rng(9_000 + case)
    k = int(r.integers(3, 17))
    n = int(r.integers(1, 5))
    d = int(r.integers(2, 9))
    m = int(r.integers(1, k + 1))
    return [r.standard_normal((n, d)) for _ in range(k)], m


@pytest.fixture
def split_rows(monkeypatch):
    """A switch for the row split of mces.frames' kernels, as on two CPUs.

    ``split_rows(True)`` splits every frame of two or more rows between the
    caller and the row worker; ``split_rows(False)`` splits none.
    """
    def switch(on: bool) -> None:
        monkeypatch.setattr(frames, "_SPLIT_VALUES", 2 if on else sys.maxsize)
        monkeypatch.setattr(frames, "_CPUS", 2)

    return switch


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
