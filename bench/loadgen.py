"""Seeded load generator: synthetic token-embedding streams, built in chunks.

The streams follow the planted-stream convention of mces's own examples:
the README quick start, its `plant.json` and demos/policy_comparison.py all
use `SyntheticSpec(frame_count=160, ..., segments=((64, 80, 0.9),),
noise_scale=0.05)`, generated as `mces.iter_synthetic` does. That is:

- every frame points along its own random unit direction, orthogonal to the
  question;
- frames 64 to 79 of the 160 are relevant instead: their direction has
  cosine exactly 0.9 with the question;
- each token is the frame's direction plus 0.05 times a standard normal
  jitter row, centred over the frame's tokens.

The benchmark tiles that 160-frame period over the whole stream, so one
frame in ten is relevant, at the same places for every seed. The seed draws
the question, the directions and the jitter.

Two things differ from `iter_synthetic`, which the benchmark does not call,
so that its inputs do not depend on the code it measures. Jitter rows are
drawn from a fixed seeded pool of rows, which is cheap enough to regenerate
the stream for every job. And any chunk of frames can be rebuilt on its own
from (seed, tag, chunk index). That lets the benchmark generate ahead of the
timed pushes, and rebuild the sources for its output check, without holding
the whole stream.
"""

from __future__ import annotations

import numpy as np

PERIOD = 160
SEGMENT = (64, 80)
RHO = 0.9
NOISE_SCALE = 0.05
NOISE_ROWS = 4096
CHUNK_BYTES = 8 << 20


class Stream:
    """A deterministic (T, N, D) float32 stream and its question vector."""

    def __init__(self, seed: int, tag: int, frame_count: int, n_tokens: int, dims: int):
        self.seed, self.tag = seed, tag
        self.frame_count, self.n_tokens, self.dims = frame_count, n_tokens, dims
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag, 0)))
        q = rng.standard_normal(dims)
        self.question = (q / np.linalg.norm(q)).astype(np.float32)
        self.noise = rng.standard_normal((NOISE_ROWS, dims)).astype(np.float32)
        phase = np.arange(frame_count) % PERIOD
        self.relevant = (phase >= SEGMENT[0]) & (phase < SEGMENT[1])
        self.relevant_frame_share = float(self.relevant.mean())
        self.chunk_frames = max(1, CHUNK_BYTES // (n_tokens * dims * 4))
        self.n_chunks = -(-frame_count // self.chunk_frames)

    def chunk_range(self, c: int) -> tuple[int, int]:
        start = c * self.chunk_frames
        return start, min(start + self.chunk_frames, self.frame_count)

    def chunk(self, c: int) -> np.ndarray:
        """Frames of chunk c as one (L, N, D) float32 array."""
        start, stop = self.chunk_range(c)
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.tag, 1, c)))
        q = self.question.astype(np.float64)
        u = rng.standard_normal((stop - start, self.dims))
        u -= np.outer(u @ q, q)
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        relevant = self.relevant[start:stop, None]
        directions = np.where(relevant, RHO * q + np.sqrt(1.0 - RHO * RHO) * u, u)
        jitter = self.noise[rng.integers(0, NOISE_ROWS, size=(stop - start, self.n_tokens))]
        jitter -= jitter.mean(axis=1, keepdims=True)
        jitter *= NOISE_SCALE
        jitter += directions.astype(np.float32)[:, None, :]
        return jitter

    def frames(self):
        """Every frame in order, one chunk held at a time."""
        for c in range(self.n_chunks):
            yield from self.chunk(c)
