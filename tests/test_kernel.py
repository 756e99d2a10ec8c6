"""The merge kernel at real frame widths: bitwise against the oracles.

The acceptance sweep (c1) draws D <= 8, where numpy's pairwise summation
never engages; these cases cover the widths the engine runs at, with unit
and larger input weights, for fill merging and long-term compaction alike.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from mces import LongTermMemory, WeightedFrame, greedy_merge

import oracles

SHAPES = [(32, 256), (128, 768), (16, 128)]


def weighted_frames(seed, count, shape, max_weight):
    """Gaussian frames with weights in [1, max_weight] and contiguous sources."""
    r = np.random.default_rng(seed)
    frames, start = [], 0
    for _ in range(count):
        weight = int(r.integers(1, max_weight + 1))
        frames.append(WeightedFrame(r.standard_normal(shape), weight=weight,
                                    provenance=((start, start + weight, 1),)))
        start += weight
    return frames


def assert_same_entries(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.tokens, w.tokens)
        assert g.weight == w.weight
        assert oracles.prov_counter(g.provenance) == w.sources


@pytest.mark.parametrize("max_weight", [1, 5], ids=["unit", "weighted"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_greedy_merge_is_bitwise_the_naive_loop(shape, max_weight):
    frames = weighted_frames(7, 16, shape, max_weight)
    for target in (4, 1):
        out, report = greedy_merge(frames, target)
        want, trace = oracles.naive_greedy_merge(frames, target)
        assert report.trace == tuple(trace)
        assert_same_entries(out, want)


@pytest.mark.parametrize("max_weight", [1, 5], ids=["unit", "weighted"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_compaction_is_bitwise_the_naive_loop(shape, max_weight):
    batches = [weighted_frames(seed, 6, shape, max_weight) for seed in (1, 2, 3)]
    memory, slots, next_id = LongTermMemory(5), [], 0
    for batch in batches:
        memory.append(batch)
        for frame in batch:
            slots.append((oracles.entry_from_frame(frame), next_id))
            next_id += 1
        slots = oracles.naive_compact(slots, 5)
    assert memory.position_ids == tuple(i for _, i in slots)
    assert_same_entries(memory.entries, [e for e, _ in slots])


def test_greedy_merge_peak_stays_within_eight_frames():
    # the kernel holds its outputs plus a few frame-sized temporaries; a
    # design that stacks the fill into one block would need K frames more
    frames = weighted_frames(0, 16, (128, 768), 1)
    size = frames[0].tokens.nbytes
    tracemalloc.start()
    try:
        out, _ = greedy_merge(frames, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 4
    assert peak <= 8 * size
