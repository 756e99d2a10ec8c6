"""The merge kernel at real frame widths: bitwise against the oracles.

The acceptance sweep (c1) draws D <= 8, where numpy's pairwise summation
never engages; these cases cover the widths the engine runs at, with unit
and larger input weights, for fill merging and long-term compaction alike.
The similarity and relevance kernels are held bitwise to the plain numpy
expressions they replace, written out here. With the row split forced on
every frame of two or more rows, the kernels are held bitwise to their
unsplit runs, and the row worker thread to its rules. A large frame's merge
and its two neighbour similarities are one row job on 64-byte-aligned
buffers: it is held to the unfused calls' bits and refusals, and the
kernels to the same bits at every alignment of their inputs.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mces import (
    NORM_FLOOR,
    ConsolidationConfig,
    DimensionMismatch,
    LongTermMemory,
    Pipeline,
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

from mces import frames as frames_module
from mces.consolidation import _merge_down
from mces.frames import (
    _adjacent_similarities,
    _aligned,
    _first_below_floor,
    _row_norms,
    _split_rows,
    as_token_matrix,
)

import oracles
import test_pipeline
from conftest import oracle_case

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


# frames of 3 and 5 rows split unevenly: the caller takes 1 and 2 rows
ODD_SHAPES = [(3, 7), (5, 16)]


def row_workers():
    return [t for t in threading.enumerate() if t.name == "mces-rows"]


def make_pair(shape):
    r = np.random.default_rng(17)
    return [WeightedFrame.from_tokens(r.standard_normal(shape), i) for i in range(2)]


def split_figures(shape):
    """What the row-split kernels compute on one window, built anew."""
    window = adjacent_window(shape)
    raw = np.random.default_rng(8).standard_normal((2, *shape)).astype(np.float32)
    window += [WeightedFrame.from_tokens(x, i) for i, x in enumerate(raw)]
    sims = _adjacent_similarities(window)
    merged = [weighted_merge(a, b) for a, b in zip(window, window[1:])]
    pairs = [frame_pair_similarity(a, b) for a, b in zip(merged, merged[1:])]
    return window + merged, sims + pairs


@pytest.mark.parametrize("shape", MEAN_SHAPES + ODD_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_split_kernels_are_bitwise_the_unsplit_run(shape, split_rows):
    split_rows(False)
    want_frames, want = split_figures(shape)
    split_rows(True)
    got_frames, got = split_figures(shape)
    assert got == want
    for g, w in zip(got_frames, want_frames, strict=True):
        assert g.tokens.tobytes() == w.tokens.tobytes()
        assert g.norms.tobytes() == w.norms.tobytes()
        assert (g.weight, g.provenance, g._bad_row) == (w.weight, w.provenance, w._bad_row)
    # the pair loop's test, with every kernel in it split
    test_adjacent_similarities_are_bitwise_the_pair_loop(shape)
    assert len(row_workers()) == 1


@pytest.fixture
def fused_calls(monkeypatch):
    """Each _merge_between call, as (has a left neighbour, has a right one)."""
    calls = []
    fused = frames_module._merge_between

    def spy(left, a, b, right):
        calls.append((left is not None, right is not None))
        return fused(left, a, b, right)

    monkeypatch.setattr(frames_module, "_merge_between", spy)
    return calls


def test_split_merge_is_bitwise_the_unsplit_merge_on_c1_cases(split_rows, fused_calls):
    # every fifth case of acceptance check c1: 1 to 4 token rows per frame
    for case in range(0, 1000, 5):
        tokens, target = oracle_case(case)
        runs = []
        for on in (False, True):
            split_rows(on)
            frames = [WeightedFrame.from_tokens(t, i) for i, t in enumerate(tokens)]
            out, report = greedy_merge(frames, target)
            runs.append((out, report.trace))
        (want, want_trace), (got, got_trace) = runs
        assert got_trace == want_trace, case
        for g, w in zip(got, want, strict=True):
            assert g.tokens.tobytes() == w.tokens.tobytes(), case
            assert (g.weight, g.provenance) == (w.weight, w.provenance), case
        oracle, oracle_trace = oracles.naive_greedy_merge(frames, target)
        assert got_trace == tuple(oracle_trace), case
        assert_same_entries(got, oracle)
    # the split runs took the fused path, with and without each neighbour
    assert {(True, True), (False, True), (True, False)} <= set(fused_calls)


def twin_window(shape, where):
    """Six weighted frames whose pair at ``where`` is by far the most similar."""
    frames = weighted_frames(21, 6, shape, 3)
    j = where % 5
    twin = frames[j].tokens + 0.01 * np.random.default_rng(22).standard_normal(shape)
    frames[j + 1] = WeightedFrame(twin, frames[j + 1].weight, frames[j + 1].provenance)
    return frames


def merged_down(shape, where):
    """_merge_down's first merge on a twin window, then the rest down to one frame."""
    work = twin_window(shape, where)
    sims = _adjacent_similarities(work)
    first = _merge_down(work, sims, len(work) - 1)
    figures = [first, list(sims), [(f.tokens.tobytes(), f.norms.tobytes(), f._bad_row,
                                    f.weight, f.provenance) for f in work]]
    figures.append(_merge_down(work, sims, 1))
    figures.append((work[0].tokens.tobytes(), work[0].norms.tobytes(), sims))
    return figures


@pytest.mark.parametrize("where", [0, 2, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("shape", ODD_SHAPES + [(16, 128)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_fused_merge_is_bitwise_the_unsplit_loop(shape, where, split_rows, fused_calls):
    split_rows(False)
    want = merged_down(shape, where)
    assert not fused_calls
    split_rows(True)
    got = merged_down(shape, where)
    assert got == want
    # the first merge is the twin pair's: no left neighbour at the first
    # index, no right one at the last
    assert got[0][0][1] == where % 5
    assert fused_calls[0] == (where != 0, where != -1)
    assert len(fused_calls) == 5


@pytest.mark.parametrize("shape", ODD_SHAPES + [(16, 128)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_fused_compaction_is_bitwise_the_unsplit_store(shape, split_rows, fused_calls):
    stores = []
    for on in (False, True):
        split_rows(on)
        memory = LongTermMemory(5, *shape)
        for seed in (1, 2, 3):
            memory.append(weighted_frames(seed, 6, shape, 5))
        stores.append((memory.position_ids, memory._pair_sims,
                       [(e.tokens.tobytes(), e.norms.tobytes(), e.weight, e.provenance)
                        for e in memory.entries]))
    assert stores[1] == stores[0]
    assert fused_calls
    # and against the naive compaction, still split
    test_compaction_is_bitwise_the_naive_loop(shape, 5)


def unfused(left, a, b, right):
    """_merge_down's steps below the threshold: the merge, then each similarity."""
    merged = weighted_merge(a, b)
    return (merged, None if left is None else frame_pair_similarity(left, merged),
            None if right is None else frame_pair_similarity(merged, right))


def refusal_cases(shape, row):
    """(left, a, b, right) quadruples whose merge or similarities refuse."""
    r = np.random.default_rng(31)
    good = [WeightedFrame.from_tokens(r.standard_normal(shape), i) for i in range(4)]
    zero = good[0].tokens.copy()
    zero[row] = 0.0
    bad = WeightedFrame.from_tokens(zero, 0)
    opposite = good[2].tokens.copy()
    opposite[row] = -good[1].tokens[row]
    cancels = WeightedFrame.from_tokens(opposite, 2)
    # valid frames whose weighted sum overflows: weights above about 1e154
    w = 10 ** 160
    huge = [WeightedFrame(np.full(shape, 1e150), weight=w, provenance=((i * w, (i + 1) * w, 1),))
            for i in (1, 2)]
    return {
        "overflow": (bad, *huge, bad),
        "merged-row-left": (good[0], good[1], cancels, good[3]),
        "merged-row-right-only": (None, good[1], cancels, good[3]),
        "bad-left": (bad, good[1], good[2], good[3]),
        "bad-right": (good[0], good[1], good[2], bad),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("row", [1, 3], ids=["callers-half", "workers-half"])
@pytest.mark.parametrize("case", ["overflow", "merged-row-left", "merged-row-right-only",
                                  "bad-left", "bad-right"])
def test_fused_merge_raises_what_the_unfused_calls_raise(case, row, split_rows):
    shape = (5, 16)
    split_rows(False)
    with pytest.raises(Exception) as want:
        unfused(*refusal_cases(shape, row)[case])
    split_rows(True)
    with pytest.raises(type(want.value)) as got:
        frames_module._merge_between(*refusal_cases(shape, row)[case])
    assert str(got.value) == str(want.value)
    assert getattr(got.value, "token_index", None) == getattr(want.value, "token_index", None)
    expected = {"overflow": "merged token matrix overflows",
                "merged-row-left": f"token {row} of second frame has near-zero norm",
                "merged-row-right-only": f"token {row} of first frame has near-zero norm",
                "bad-left": f"token {row} of first frame has near-zero norm",
                "bad-right": f"token {row} of second frame has near-zero norm"}
    assert str(got.value) == expected[case]


@pytest.mark.parametrize("question", [None, test_pipeline.Q4[:2]], ids=["agnostic", "question"])
@pytest.mark.parametrize("call", ["step", "flush"])
def test_a_raising_fused_append_changes_nothing(tmp_path, call, question, split_rows,
                                               fused_calls):
    # the store's compaction refuses inside a fused merge with a right
    # neighbour; the fills' two-frame merges are fused too
    split_rows(True)
    keeps_state = test_pipeline.TestFailedConsolidationKeepsState()
    keeps_state.test_raising_long_term_append_changes_nothing(tmp_path, call, question)
    assert (False, True) in fused_calls


@pytest.mark.parametrize("shape", [(1,), (1, 1), (1, 7), (3, 7), (5, 16), (128, 768)],
                         ids=lambda s: "x".join(map(str, s)))
def test_aligned_buffers_start_on_a_64_byte_line(shape):
    for _ in range(8):
        a = _aligned(shape)
        assert a.shape == shape and a.dtype == np.float64
        assert a.flags.c_contiguous and a.flags.writeable
        assert a.ctypes.data % 64 == 0


def test_large_merged_tokens_are_aligned_and_read_only():
    a, b, c = weighted_frames(4, 3, (128, 768), 3)
    assert a.tokens.size >= frames_module._SPLIT_VALUES
    merged = [weighted_merge(a, b), *frames_module._merge_between(None, a, b, c)[:1],
              *greedy_merge([a, b, c], 1)[0]]
    for m in merged:
        assert m.tokens.ctypes.data % 64 == 0
        assert m.tokens.flags.c_contiguous and not m.tokens.flags.writeable
        # the norms stay an owned array
        assert m.norms.base is None and not m.norms.flags.writeable


def at_offset(tokens, k):
    """A read-only copy of ``tokens`` whose data starts 8 * k bytes past a 64-byte line."""
    moved = _aligned((tokens.size + 8,))[k:k + tokens.size].reshape(tokens.shape)
    moved[...] = tokens
    moved.setflags(write=False)
    assert moved.ctypes.data % 64 == 8 * k
    return moved


def offset_figures(shape, k):
    """What the consolidation kernels compute on one window placed at offset k."""
    q, window = question_frames(5, shape)
    window = [WeightedFrame._trusted(at_offset(f.tokens, k), f.weight, f.provenance, False)
              for f in window]
    sims = _adjacent_similarities(window)
    merged = [weighted_merge(a, b) for a, b in zip(window, window[1:])]
    return (sims, [frame_pair_similarity(a, b) for a, b in zip(merged, window[1:])],
            [(m.tokens.tobytes(), m.norms.tobytes()) for m in merged],
            relevance_score(window, at_offset(q, k)), relevance_score(merged, q))


@pytest.mark.parametrize("split", [False, True], ids=["inline", "split"])
@pytest.mark.parametrize("shape", MEAN_SHAPES + ODD_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_kernels_give_the_same_bits_at_every_input_offset(shape, split, split_rows):
    # the alignment of the large path's buffers changes no value: numpy's
    # float64 loops give the same bits wherever their inputs start
    split_rows(split)
    want = offset_figures(shape, 0)
    for k in range(1, 8):
        assert offset_figures(shape, k) == want, k


@pytest.mark.parametrize("dtype", ["<U8", object])
def test_an_error_in_the_workers_half_reaches_the_caller(dtype, split_rows):
    split_rows(True)
    x = np.full((4, 3), "1.5", dtype=dtype)
    x[3, 1] = "x"  # a row of the worker's half, [2, 4)
    with pytest.raises(ValueError) as want:
        x.astype(np.float64)
    with pytest.raises(type(want.value)) as got:
        as_token_matrix(x)
    assert str(got.value) == str(want.value)
    assert as_token_matrix(x[:3]).tobytes() == x[:3].astype(np.float64).tobytes()
    assert len(row_workers()) == 1


def test_either_halfs_error_is_raised_after_both_halves(split_rows):
    split_rows(True)
    for failing in (0, 2):
        finished = []

        def kernel(lo, hi):
            if lo == failing:
                raise KeyError(lo)
            time.sleep(0.05)
            finished.append(lo)

        with pytest.raises(KeyError) as err:
            _split_rows(kernel, 4)
        assert err.value.args == (failing,)
        assert finished == [2 - failing]


def test_an_interrupted_wait_drops_the_worker(split_rows):
    split_rows(True)
    a, b = make_pair((4, 3))
    want = frame_pair_similarity(a, b)
    jobs, results, thread = frames_module._worker

    class Interrupted:
        def get(self):
            raise KeyboardInterrupt

    # set, not patched: the dropped worker must not come back after the test
    frames_module._worker = (jobs, Interrupted(), thread)
    with pytest.raises(KeyboardInterrupt):
        frame_pair_similarity(a, b)
    assert frames_module._worker is None
    thread.join(timeout=10)
    assert not thread.is_alive()
    # the dropped worker's late result stays in its own queue
    assert results.get(timeout=10) is None
    assert frame_pair_similarity(a, b) == want
    assert len(row_workers()) == 1


def test_a_split_call_leaves_no_traced_memory(split_rows):
    split_rows(True)
    a, b = make_pair((128, 768))
    want = frame_pair_similarity(a, b)
    merged = weighted_merge(a, b)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert frame_pair_similarity(a, b) == want
        assert _adjacent_similarities([a, b]) == [want]
        assert weighted_merge(a, b).tokens.tobytes() == merged.tokens.tobytes()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before <= 1024
    assert len(row_workers()) == 1


def test_concurrent_pipelines_are_bitwise_the_sequential_runs(monkeypatch):
    # 2**16 values per frame: split at the real threshold, by whichever
    # caller holds the worker, while the others run their rows alone
    monkeypatch.setattr(frames_module, "_CPUS", 2)
    shape = (128, 512)
    assert shape[0] * shape[1] == frames_module._SPLIT_VALUES
    cfg = ConsolidationConfig(capacity=4, base_target=2)
    streams = [np.random.default_rng(seed).standard_normal((10, *shape)).astype(np.float32)
               for seed in range(3)]

    def run(stream):
        pipe = Pipeline(*shape, cfg, ltm_capacity=3, reinit_mode="none")
        pipe.run_stream(stream)
        return pipe.long.entries

    want = [run(stream) for stream in streams]
    got = [None] * len(streams)

    def target(i):
        try:
            got[i] = run(streams[i])
        except BaseException as error:  # reported by the assertion below
            got[i] = error

    threads = [threading.Thread(target=target, args=(i,)) for i in range(len(streams))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert isinstance(g, tuple), g
        assert len(g) == len(w)
        for ge, we in zip(g, w):
            assert ge.tokens.tobytes() == we.tokens.tobytes()
            assert (ge.weight, ge.provenance) == (we.weight, we.provenance)
    assert len(row_workers()) == 1


def similarity_in_child(a, b, want):
    sys.exit(0 if frame_pair_similarity(a, b) == want else 1)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_runs_its_own_split(split_rows):
    split_rows(True)
    a, b = make_pair((4, 3))
    want = frame_pair_similarity(a, b)
    assert len(row_workers()) == 1
    child = multiprocessing.get_context("fork").Process(
        target=similarity_in_child, args=(a.tokens, b.tokens, want))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
    child.close()


def test_one_cpu_starts_no_worker(monkeypatch):
    worker = frames_module._worker
    frames_module._drop_worker()
    if worker is not None:
        worker[2].join(timeout=10)
    assert not row_workers()
    monkeypatch.setattr(frames_module, "_SPLIT_VALUES", 2)
    monkeypatch.setattr(frames_module, "_CPUS", 1)
    split_figures((5, 16))
    pipe = Pipeline(5, 16, ConsolidationConfig(capacity=4, base_target=2),
                    ltm_capacity=3, reinit_mode="none")
    pipe.run_stream(np.random.default_rng(0).standard_normal((20, 5, 16)))
    assert not row_workers()


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_the_cpu_count_is_the_affinity():
    # a process pinned to one CPU (taskset -c 0) splits no frame
    assert frames_module._CPUS == len(os.sched_getaffinity(0))
