"""The merge kernel at real frame widths: bitwise against the oracles.

The acceptance sweep (c1) draws D <= 8, where numpy's pairwise summation
never engages; these cases cover the widths the engine runs at, with unit
and larger input weights, for fill merging and long-term compaction alike.
The similarity and relevance kernels are held bitwise to the plain numpy
expressions they replace, written out here.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from mces import (
    NORM_FLOOR,
    DimensionMismatch,
    LongTermMemory,
    ShortTermBuffer,
    WeightedFrame,
    ZeroNorm,
    cosine,
    frame_descriptor,
    frame_pair_similarity,
    greedy_merge,
    relevance_score,
    unit_interval,
    weighted_merge,
)

from mces.frames import _adjacent_similarities, _first_below_floor, _row_norms

import oracles

SHAPES = [(32, 256), (128, 768), (16, 128)]
# plus a token count that is not a power of two, where dividing a sum by N
# and multiplying it by 1 / N can round differently
MEAN_SHAPES = SHAPES + [(24, 200)]


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
    memory, slots, next_id = LongTermMemory(5, *shape), [], 0
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


def plain_relevance(frames, question):
    """The mean of cosine(frame_descriptor(f), q), through numpy's wrappers."""
    q = np.asarray(question, dtype=np.float64)
    scores = []
    for f in frames:
        mean = f.tokens.mean(axis=0)
        d = mean / float(np.linalg.norm(mean))
        na, nq = float(np.linalg.norm(d)), float(np.linalg.norm(q))
        scores.append(float(np.clip(np.dot(d, q) / (na * nq), -1.0, 1.0)))
    return float(np.mean(scores))


def question_frames(seed, shape):
    """A question and weighted frames leaning toward it by varying amounts."""
    r = np.random.default_rng(seed)
    q = r.standard_normal(shape[1])
    frames = weighted_frames(seed, 16, shape, 5)
    leaning = [WeightedFrame(f.tokens + lean * q, weight=f.weight, provenance=f.provenance)
               for f, lean in zip(frames, np.linspace(-0.5, 0.5, len(frames)))]
    return q, leaning


@pytest.mark.parametrize("stat", ["mean", "min", "max"])
@pytest.mark.parametrize("shape", MEAN_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_relevance_score_is_bitwise_the_plain_expression(shape, stat):
    # mean: the whole window; min and max: a one-frame window (a residue of
    # one) holding the least or the most question-aligned frame
    q, frames = question_frames(3, shape)
    frames += [weighted_merge(frames[0], frames[1]), frames[2].as_context()]
    scores = [plain_relevance([f], q) for f in frames]
    if stat == "min":
        frames = [frames[int(np.argmin(scores))]]
    elif stat == "max":
        frames = [frames[int(np.argmax(scores))]]
    want = plain_relevance(frames, q)
    assert relevance_score(frames, q) == want
    assert relevance_score(frames, list(q)) == want
    for f in frames:
        assert cosine(frame_descriptor(f), q) == plain_relevance([f], q)
        assert np.array_equal(frame_descriptor(f.tokens), frame_descriptor(f))


def test_relevance_refusals_are_the_per_frame_loop():
    # a degenerate descriptor, a width mismatch or a zero question raise
    # what the per-frame cosine(frame_descriptor(f), q) raises first
    q, frames = question_frames(4, (16, 128))
    cancelled = np.ones((16, 128))
    cancelled[8:] = -1.0
    degenerate = WeightedFrame.from_tokens(cancelled, 0)
    narrow = WeightedFrame.from_tokens(np.ones((16, 64)), 0)
    for window, question in (([*frames[:3], degenerate, *frames[3:]], q),
                             ([*frames[:3], narrow, degenerate], q),
                             ([*frames[:3], degenerate, narrow], q),
                             (frames, np.zeros(128))):
        with pytest.raises(Exception) as want:
            for f in window:
                cosine(frame_descriptor(f), question)
        with pytest.raises(type(want.value)) as got:
            relevance_score(window, question)
        assert str(got.value) == str(want.value)


def test_relevance_clamps_to_one():
    # a frame whose mean is the question, and whose unclamped cosine rounds above 1
    for q in np.random.default_rng(1).standard_normal((64, 16)):
        d = q / np.sqrt(q.dot(q))
        if d.dot(q) / (np.sqrt(d.dot(d)) * np.sqrt(q.dot(q))) > 1.0:
            break
    else:
        pytest.fail("no question rounds above 1")
    assert relevance_score([WeightedFrame.from_tokens(q[None], 0)], q) == 1.0


def adjacent_window(shape):
    """Context seeds, fresh frames and merged frames, built anew on every call.

    Two adjacent frames share their tokens, so some of their row cosines
    round above 1 before the clamp.
    """
    fresh = weighted_frames(9, 10, shape, 3)
    seeds = [f.as_context() for f in weighted_frames(10, 2, shape, 1)]
    merged = [weighted_merge(fresh[6], fresh[7]), weighted_merge(fresh[8], fresh[9])]
    twin = WeightedFrame(fresh[2].tokens, fresh[2].weight, fresh[2].provenance)
    return [*seeds, *fresh[:3], twin, merged[0], *fresh[3:6], merged[1]]


@pytest.mark.parametrize("shape", MEAN_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_adjacent_similarities_are_bitwise_the_pair_loop(shape):
    window, reference = adjacent_window(shape), adjacent_window(shape)
    fresh = [f for f in window if "norms" not in vars(f)]
    assert len(fresh) == 7
    got = _adjacent_similarities(window)
    want = [frame_pair_similarity(a, b) for a, b in zip(reference, reference[1:])]
    assert got == want and all(type(v) is float for v in got)
    for f in fresh:
        # an owned copy: no frame keeps the window's norm block alive
        assert np.array_equal(f.norms, _row_norms(f.tokens))
        assert not f.norms.flags.writeable and f.norms.base is None
        assert f._bad_row == -1
    assert _adjacent_similarities(window) == want
    assert _adjacent_similarities(window[:1]) == [] == _adjacent_similarities([])


def test_adjacent_similarities_clamp_to_one():
    # a one-row frame whose dot with itself rounds above its squared norm
    rows = np.random.default_rng(0).standard_normal((64, 16))
    sq = np.add.reduce(rows * rows, axis=1)
    ratio = sq / (np.sqrt(sq) * np.sqrt(sq))
    assert ratio.max() > 1.0
    row = rows[int(ratio.argmax())][None]
    twins = [WeightedFrame.from_tokens(row, i) for i in range(2)]
    assert _adjacent_similarities(twins) == [1.0] == [frame_pair_similarity(*twins)]


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
@pytest.mark.parametrize("where", [0, 4, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_adjacent_similarities_refuse_as_the_pair_loop(shape, where, cached):
    row = shape[0] // 3

    def window():
        frames = adjacent_window(shape)
        tokens = frames[where].tokens.copy()
        tokens[row] = 0.0
        frames[where] = WeightedFrame.from_tokens(tokens, 0)
        if cached:
            assert frames[where].norms[row] == 0.0
        return frames

    reference = window()
    with pytest.raises(ZeroNorm) as want:
        [frame_pair_similarity(a, b) for a, b in zip(reference, reference[1:])]
    with pytest.raises(ZeroNorm) as got:
        _adjacent_similarities(window())
    assert str(got.value) == str(want.value)
    assert got.value.token_index == want.value.token_index == row
    frames = adjacent_window(shape)
    frames[where] = WeightedFrame.from_tokens(np.ones((shape[0], shape[1] + 1)), 0)
    with pytest.raises(DimensionMismatch, match="frame shapes differ"):
        _adjacent_similarities(frames)


@pytest.mark.parametrize("shape", MEAN_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_pair_similarity_is_bitwise_the_oracle_on_frames_and_arrays(shape):
    frames = weighted_frames(5, 8, shape, 5)
    frames += [weighted_merge(frames[0], frames[1]), frames[2].as_context()]
    for a, b in zip(frames, frames[1:]):
        want = oracles.pairwise_mean_cosine(a.tokens, b.tokens)
        assert frame_pair_similarity(a, b) == want
        assert frame_pair_similarity(a.tokens, b.tokens) == want
        assert frame_pair_similarity(a, b.tokens) == want


@pytest.mark.parametrize("merged", [False, True], ids=["pushed", "merged"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_zero_norm_row_is_refused_on_every_call(shape, merged):
    # the floor check is cached per frame, the refusal is not
    r = np.random.default_rng(11)
    row = shape[0] // 2
    tokens = r.standard_normal(shape)
    if merged:
        # a merge in which one row cancels exactly: its norms and floor
        # check come from weighted_merge, not from a pushed frame
        opposite = tokens.copy()
        opposite[row] *= -1.0
        bad = weighted_merge(WeightedFrame.from_tokens(tokens, 0),
                             WeightedFrame.from_tokens(opposite, 1))
        assert not bad.tokens[row].any()
    else:
        tokens[row] = 0.0
        bad = WeightedFrame.from_tokens(tokens, 0)
    good = WeightedFrame.from_tokens(r.standard_normal(shape), 2)
    for first, second, which in ((bad, good, "first"), (good, bad, "second"),
                                 (bad, bad, "first")):
        for _ in range(3):
            with pytest.raises(ZeroNorm) as err:
                frame_pair_similarity(first, second)
            assert err.value.token_index == row
            assert str(err.value) == f"token {row} of {which} frame has near-zero norm"
        with pytest.raises(ZeroNorm) as bare:
            frame_pair_similarity(first.tokens, second.tokens)
        assert str(bare.value) == str(err.value)
    assert frame_pair_similarity(good, good.as_context()) == \
        oracles.pairwise_mean_cosine(good.tokens, good.tokens)
    # the floor check searches for the index only when the smallest norm is
    # below the floor or nan, and gives the plain search's index
    def searched(norms):
        below = norms < NORM_FLOOR
        return int(below.argmax()) if below.any() else -1
    norms = good.norms.copy()
    norms[row] = np.nan
    assert _first_below_floor(norms) == searched(norms) == -1
    norms[-1] = NORM_FLOOR / 2
    assert _first_below_floor(norms) == searched(norms) == shape[0] - 1
    assert _first_below_floor(bad.norms) == searched(bad.norms) == row
    assert _first_below_floor(good.norms) == searched(good.norms) == -1


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_pushed_frame_equals_the_public_constructor(shape):
    r = np.random.default_rng(13)
    buffer = ShortTermBuffer(8, *shape)
    raw = [r.standard_normal(shape).astype(np.float32) for _ in range(5)]
    for x in raw:
        buffer.push(x)
    pushed = [*buffer.frames,
              WeightedFrame.from_tokens(raw[0], np.int64(7)).as_context()]
    wants = [WeightedFrame(x, 1, unit_interval(i)) for i, x in enumerate(raw)]
    wants.append(WeightedFrame(raw[0], 1, unit_interval(7), context_flag=True))
    assert len(pushed) == len(wants)
    for got, want in zip(pushed, wants):
        assert np.array_equal(got.tokens, want.tokens)
        assert got.tokens.dtype == np.float64 and got.tokens.flags.c_contiguous
        assert not got.tokens.flags.writeable
        assert (got.weight, got.provenance, got.context_flag) == \
            (want.weight, want.provenance, want.context_flag)
        assert all(type(v) is int for v in got.provenance[0])
        assert np.array_equal(got.norms, want.norms)
    with pytest.raises(ValueError):
        WeightedFrame.from_tokens(raw[0], -1)
    with pytest.raises(ValueError):
        WeightedFrame.from_tokens(np.full(shape, np.nan), 0)
