"""The fill block: a fill's fresh frames as rows of one (capacity, N, D) array.

Below the row-split threshold the short-term buffer copies each accepted
frame straight into a row of its fill's block, and a fire hands the block to
the relevance gate and the merge prologue. These tests hold the block path
bitwise to the per-frame path, check that a refused push takes no row, that
no banked entry keeps a block alive, and that a fire that fails to bank and
is pushed again ends where an uninterrupted run ends.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mces import (
    ConsolidationConfig,
    DimensionMismatch,
    LongTermMemory,
    Pipeline,
    ShapeMismatch,
    ShortTermBuffer,
    WeightedFrame,
    consolidate,
    frame_pair_similarity,
    relevance_score,
    weighted_merge,
)
from mces.frames import _SPLIT_VALUES, _adjacent_similarities

# below the split threshold; with widths where pairwise summation engages
# and token counts that are not powers of two
SHAPES = [(1, 1), (1, 7), (3, 5), (4, 16), (7, 33), (16, 128), (24, 200), (32, 256)]


def block_rows(buf: ShortTermBuffer) -> int:
    """Rows of the buffer's current block that hold frames."""
    return 0 if buf._block is None else len(buf._block) - len(buf._spare)


def seed_frames(r, count, shape, cached):
    """Merged context frames, with their norms cached or not."""
    out = []
    for i in range(count):
        a, b = (WeightedFrame.from_tokens(r.standard_normal(shape), 2 * i + j) for j in (0, 1))
        merged = weighted_merge(a, b)
        if not cached:
            merged = WeightedFrame(merged.tokens, merged.weight, merged.provenance)
        out.append(merged)
    return out


def twin(frame: WeightedFrame) -> WeightedFrame:
    """The same frame on its own copy of the tokens, with the same norm cache."""
    cache = vars(frame)
    return WeightedFrame._trusted(frame.tokens.copy(), frame.weight, frame.provenance,
                                  frame.context_flag, cache.get("norms"),
                                  cache.get("_bad_row", -1))


def blocked_window(seed, shape, capacity, seeds, fresh, full, warm, cached):
    """A window popped or drained from a buffer, and the block it came with.

    ``warm`` pops one fill first, so the next fill's first fresh frame is
    that fill's trigger, repacked into the new block at the next push.
    """
    r = np.random.default_rng(seed)
    buf = ShortTermBuffer(capacity, *shape)
    pushed = 0
    if warm:
        for _ in range(capacity + 1):
            buf.push(r.standard_normal(shape).astype(np.float32))
        buf._take_block()
        pushed = 1
    buf.seed(seed_frames(r, seeds, shape, cached))
    for _ in range(fresh - pushed):
        buf.push(r.standard_normal(shape))
    if full:
        window = buf.push(r.standard_normal(shape))
    else:
        window = buf.drain()
    return window, buf._take_block()


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(SHAPES),
       capacity=st.integers(2, 12), seeds=st.integers(0, 4), data=st.data())
def test_block_path_is_bitwise_the_per_frame_path(seed, shape, capacity, seeds, data):
    seeds = min(seeds, capacity - 1)
    full = data.draw(st.booleans(), label="full")
    fresh = capacity - seeds if full else data.draw(st.integers(1, capacity - seeds),
                                                    label="fresh")
    warm = data.draw(st.booleans(), label="warm")
    cached = data.draw(st.booleans(), label="cached")
    window, block = blocked_window(seed, shape, capacity, seeds, fresh, full, warm, cached)
    assert len(window) == seeds + fresh
    if block is not None:
        # the block's rows are the window's fresh frames, and only those
        assert len(block) == fresh
        assert all(f.tokens.base is block.base for f in window[seeds:])
        assert not any(np.shares_memory(f.tokens, block) for f in window[:seeds])
    else:
        assert warm and fresh == 1
    question = np.random.default_rng(seed + 1).standard_normal(shape[1])
    per_frame, pairs = [twin(f) for f in window], [twin(f) for f in window]
    want = relevance_score(per_frame, question)
    assert relevance_score(window, question, _block=block) == want
    sims = _adjacent_similarities(window, block)
    assert sims == _adjacent_similarities(per_frame)
    assert sims == [frame_pair_similarity(a, b) for a, b in zip(pairs, pairs[1:])]
    for got, ref in zip(window, per_frame):
        assert got.norms.tobytes() == ref.norms.tobytes()
        assert got._bad_row == ref._bad_row == -1
        # owned: no frame keeps the window's norm rows alive
        assert not got.norms.flags.writeable and got.norms.base is None
    cfg = ConsolidationConfig(capacity=capacity, base_target=1)
    rewound = [twin(f) for f in per_frame]
    got_out, got_report = consolidate(window, question, cfg, _residue=not full, _block=block)
    want_out, want_report = consolidate(rewound, question, cfg, _residue=not full)
    assert got_report == want_report
    assert [f.tokens.tobytes() for f in got_out] == [f.tokens.tobytes() for f in want_out]


@pytest.mark.parametrize("shape", [(1, 2), (16, 128)])
def test_blocks_hold_small_frames_only(shape):
    buf = ShortTermBuffer(4, *shape)
    buf.push(np.ones(shape))
    assert block_rows(buf) == 1 and buf._block.shape == (4, *shape)
    large = (128, 768)
    assert large[0] * large[1] >= _SPLIT_VALUES
    buf = ShortTermBuffer(4, *large)
    for _ in range(5):
        buf.push(np.ones(large))
    assert buf._block is None and buf._take_block() is None
    assert all(f.tokens.base is None for f in buf.frames)


def test_a_huge_capacity_keeps_one_array_per_frame():
    buf = ShortTermBuffer(10**9, 2, 3)
    buf.push(np.ones((2, 3)))
    assert buf._block is None and buf.frames[0].tokens.base is None


def leaning_stream(r, count, shape, question):
    """Frames along the question, with every seventh one pointing away.

    The odd frame is the least like its neighbours, so it survives its
    fill unmerged, and the fills stay relevant.
    """
    out = []
    for i in range(count):
        sign = -1.0 if i % 7 == 3 else 1.0
        out.append(sign * question + 0.05 * r.standard_normal(shape))
    return out


@pytest.mark.parametrize("reinit_mode", ["merged_tokens", "none"])
def test_no_banked_entry_keeps_a_fill_block_alive(rng, reinit_mode):
    shape = (4, 16)
    question = rng.standard_normal(shape[1])
    cfg = ConsolidationConfig(capacity=8, base_target=3)
    pipe = Pipeline(*shape, cfg, question=question, reinit_mode=reinit_mode)
    reports = []
    for frame in leaning_stream(rng, 120, shape, question):
        if (report := pipe.step(frame)) is not None:
            reports.append(report)
        for entry in pipe.long.entries:
            assert entry.tokens.base is None
        # seeds share the tokens of the entries they came from
        entry_tokens = {id(e.tokens) for e in pipe.long.entries}
        assert all(id(f.tokens) in entry_tokens for f in pipe.short.frames if f.context_flag)
    reports.append(pipe.flush())
    assert any(r.relevant for r in reports)
    assert any(e.weight == 1 for e in pipe.long.entries)
    assert all(e.tokens.base is None for e in pipe.long.entries)


@pytest.mark.parametrize("bad, error", [
    (np.full((2, 3), np.nan), ValueError),
    ([[1.0, np.inf, 0.0], [0.0, 0.0, 1.0]], ValueError),
    (np.ones((2, 4)), ShapeMismatch),
    (np.ones(6), DimensionMismatch),
    (np.ones((1, 2, 3)), DimensionMismatch),
], ids=["nan", "inf_list", "wrong_shape", "rank_1", "rank_3"])
@pytest.mark.parametrize("after_pop", [False, True], ids=["mid_fill", "after_pop"])
def test_refused_push_takes_no_row(rng, bad, error, after_pop):
    buf = ShortTermBuffer(4, 2, 3)
    for _ in range(5 if after_pop else 2):
        buf.push(rng.standard_normal((2, 3)))
    if after_pop:
        buf._take_block()
        buf.seed([WeightedFrame.from_tokens(rng.standard_normal((2, 3)), 0)])
    held = [f.tokens.tobytes() for f in buf.frames]
    index = buf.next_source_index
    with pytest.raises(error):
        buf.push(bad)
    rows = block_rows(buf)
    # after a pop, the refused push has started the block with the trigger
    assert rows == (1 if after_pop else 2)
    for _ in range(2):
        with pytest.raises(error):
            buf.push(bad)
        assert buf.next_source_index == index and block_rows(buf) == rows
        assert [f.tokens.tobytes() for f in buf.frames] == held
    good = rng.standard_normal((2, 3))
    assert buf.push(good) is None
    assert block_rows(buf) == rows + 1 and buf.next_source_index == index + 1
    assert buf.frames[-1].tokens.tobytes() == good.tobytes()
    assert buf.frames[-1].tokens.base is buf._block


def state(pipe: Pipeline):
    """Everything a run leaves, with tokens as bytes."""
    def frames(fs):
        return [(f.tokens.tobytes(), f.weight, f.provenance, f.context_flag) for f in fs]
    return (frames(pipe.long.entries), pipe.long.position_ids, frames(pipe.short.frames),
            pipe.counters())


@pytest.mark.parametrize("reinit_mode", ["merged_tokens", "none"])
@pytest.mark.parametrize("fail_at", [1, 4, "flush"])
def test_a_failed_bank_then_resumed_run_is_the_uninterrupted_run(monkeypatch, rng,
                                                                  reinit_mode, fail_at):
    shape = (4, 16)
    question = rng.standard_normal(shape[1])
    stream = leaning_stream(rng, 70, shape, question)
    cfg = ConsolidationConfig(capacity=8, base_target=3)

    def run(fail):
        pipe = Pipeline(*shape, cfg, question=question, reinit_mode=reinit_mode)
        calls, refuse = [0], [fail]
        append = LongTermMemory.append

        def failing(store, frames):
            calls[0] += 1
            if calls[0] == refuse[0]:
                raise RuntimeError("bank refused")
            return append(store, frames)

        monkeypatch.setattr(LongTermMemory, "append", failing)
        reports, failed = [], 0
        for i, frame in enumerate(stream):
            if fail == "flush" and i == 45:
                # a failed flush puts its residue back; later pushes repack it
                refuse[0] = calls[0] + 1
                with pytest.raises(RuntimeError):
                    pipe.flush()
                failed += 1
            try:
                report = pipe.step(frame)
            except RuntimeError:
                failed += 1
                report = pipe.step(frame)
            if report is not None:
                reports.append(report)
        reports.append(pipe.flush())
        monkeypatch.setattr(LongTermMemory, "append", append)
        return pipe, reports, failed

    pipe, reports, failed = run(fail_at)
    twin, twin_reports, twin_failed = run(None)
    assert (failed, twin_failed) == (1, 0)
    assert reports == twin_reports
    assert state(pipe) == state(twin)
