from __future__ import annotations

import numpy as np
import pytest

from mces import (
    DimensionMismatch,
    InvalidSpec,
    LongTermMemory,
    MemoryTooLongForTable,
    PositionalTable,
    PositionOutOfRange,
    SeedTooLarge,
    ShapeMismatch,
    ShortTermBuffer,
    WeightedFrame,
    ZeroNorm,
    assign_positions,
    enumerate_collisions,
    extended_position,
    weighted_merge,
)

import oracles
from conftest import make_frames


class TestShortTermBuffer:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            ShortTermBuffer(0, 1, 2)
        with pytest.raises(InvalidSpec):
            ShortTermBuffer(4, 0, 2)

    @pytest.mark.parametrize("store", [ShortTermBuffer, LongTermMemory])
    @pytest.mark.parametrize("shape", [(0, -3), (3, 0)])
    def test_both_stores_refuse_a_bad_frame_shape(self, store, shape):
        with pytest.raises(InvalidSpec, match="bad frame shape"):
            store(5, *shape)

    def test_push_pops_only_on_overflow(self, rng):
        buf = ShortTermBuffer(2, 1, 3)
        a, b, c = (rng.standard_normal((1, 3)) for _ in range(3))
        assert buf.push(a) is None
        assert buf.push(b) is None
        popped = buf.push(c)
        assert popped is not None
        assert len(popped) == 2
        assert np.array_equal(popped[0].tokens, a)
        assert np.array_equal(popped[1].tokens, b)
        # the trigger frame starts the next fill
        assert len(buf) == 1
        assert np.array_equal(buf.frames[0].tokens, c)

    def test_source_indices_sequential(self, rng):
        buf = ShortTermBuffer(3, 1, 2)
        for _ in range(5):
            buf.push(rng.standard_normal((1, 2)))
        assert buf.next_source_index == 5
        assert [f.provenance for f in buf.frames] == [((3, 4, 1),), ((4, 5, 1),)]

    def test_long_run_fill_count(self, rng):
        buf = ShortTermBuffer(16, 1, 2)
        fills = 0
        for _ in range(10_000):
            if buf.push(rng.standard_normal((1, 2))) is not None:
                fills += 1
        assert fills == 624
        assert len(buf) == 16
        assert buf.next_source_index == 10_000

    def test_shape_mismatch(self, rng):
        buf = ShortTermBuffer(2, 2, 3)
        with pytest.raises(ShapeMismatch):
            buf.push(rng.standard_normal((2, 4)))

    def test_non_finite_refused(self):
        buf = ShortTermBuffer(2, 1, 2)
        with pytest.raises(ValueError):
            buf.push(np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize("frame, error", [
        ([[np.nan, 0.0]], "non-finite"),
        ([1.0, 2.0], "must be 2-D"),
        ([[np.inf, 0.0, 1.0]], "non-finite"),
    ], ids=["non_finite", "one_dimensional", "non_finite_and_mis_shaped"])
    def test_refused_push_consumes_nothing(self, rng, frame, error):
        # the value and rank checks come before the shape check
        buf = ShortTermBuffer(2, 1, 2)
        buf.push(rng.standard_normal((1, 2)))
        with pytest.raises((ValueError, DimensionMismatch), match=error):
            buf.push(np.array(frame))
        assert buf.next_source_index == 1
        assert len(buf) == 1

    def test_accepted_frame_is_one_source_frame(self, rng):
        buf = ShortTermBuffer(8, 2, 3)
        raw = [rng.standard_normal((2, 3)).astype(np.float32) for _ in range(5)]
        for x in raw:
            buf.push(x)
        for i, (x, f) in enumerate(zip(raw, buf.frames)):
            assert f.weight == 1
            assert f.provenance == ((i, i + 1, 1),)
            assert f.context_flag is False
            assert f.tokens.tobytes() == np.array(x, np.float64).tobytes()

    def test_push_validates_each_frame_once(self, rng, monkeypatch):
        import mces.frames
        import mces.memory

        calls = []
        original = mces.frames.as_token_matrix

        def counting(x, *args, **kwargs):
            calls.append(1)
            return original(x, *args, **kwargs)

        monkeypatch.setattr(mces.frames, "as_token_matrix", counting)
        monkeypatch.setattr(mces.memory, "as_token_matrix", counting)
        buf = ShortTermBuffer(2, 2, 3)
        for pushes in range(1, 4):
            buf.push(rng.standard_normal((2, 3)))
            assert len(calls) == pushes
        with pytest.raises(ShapeMismatch):
            buf.push(rng.standard_normal((2, 4)))
        # a refused frame is validated once and consumes no source index
        assert len(calls) == 4
        assert buf.next_source_index == 3

    def fill_and_trigger(self, rng, capacity=4):
        # a buffer whose last push popped a full fill; it holds the trigger
        buf = ShortTermBuffer(capacity, 1, 2)
        for _ in range(capacity):
            buf.push(rng.standard_normal((1, 2)))
        fill = buf.push(rng.standard_normal((1, 2)))
        assert fill is not None and len(buf) == 1
        return buf, fill

    def test_seeds_go_in_front_of_the_trigger(self, rng):
        buf, _ = self.fill_and_trigger(rng)
        trigger = buf.frames[0]
        seeds = make_frames(rng, 2, 1, 2)
        buf.seed(seeds)
        assert len(buf) == 3
        assert buf.frames[2] is trigger
        assert [f.provenance for f in buf.frames[:2]] == [f.provenance for f in seeds]
        assert all(np.array_equal(f.tokens, s.tokens) for f, s in zip(buf.frames, seeds))

    def test_reinit_marks_context(self, rng):
        buf, _ = self.fill_and_trigger(rng)
        seeds = make_frames(rng, 2, 1, 2)
        buf.seed(seeds)
        assert [f.context_flag for f in buf.frames] == [True, True, False]
        # the originals stay untouched
        assert not any(f.context_flag for f in seeds)

    def test_seeds_count_against_capacity(self, rng):
        buf, _ = self.fill_and_trigger(rng)
        buf.seed(make_frames(rng, 2, 1, 2))
        assert buf.push(rng.standard_normal((1, 2))) is None
        popped = buf.push(rng.standard_normal((1, 2)))
        assert popped is not None and len(popped) == 4
        assert sum(1 for f in popped if f.context_flag) == 2

    def test_seed_overflow_refused(self, rng):
        buf, _ = self.fill_and_trigger(rng, capacity=3)
        before = buf.frames
        with pytest.raises(SeedTooLarge):
            buf.seed(make_frames(rng, 3, 1, 2))
        assert buf.frames == before
        buf.seed(make_frames(rng, 2, 1, 2))  # fills the buffer exactly
        assert len(buf) == 3

    def test_empty_reinit_is_noop(self, rng):
        buf, _ = self.fill_and_trigger(rng)
        before = buf.frames
        buf.seed([])
        assert buf.frames == before

    def test_reset_gives_back_the_fill_and_the_source_index(self, rng):
        # the rollback of a failed fire: the trigger goes, the fill and the
        # trigger's source index come back
        buf, fill = self.fill_and_trigger(rng)
        assert buf.next_source_index == 5
        buf._reset(fill, 4)
        assert len(buf) == len(fill)
        assert all(a is b for a, b in zip(buf.frames, fill))
        assert buf.next_source_index == 4
        # the next push pops the same fill again, under the same index
        again = buf.push(rng.standard_normal((1, 2)))
        assert len(again) == len(fill) and all(a is b for a, b in zip(again, fill))
        assert buf.frames[0].provenance == ((4, 5, 1),)

    def test_drain_and_restore(self, rng):
        buf = ShortTermBuffer(3, 1, 2)
        buf.push(rng.standard_normal((1, 2)))
        buf.push(rng.standard_normal((1, 2)))
        frames = buf.drain()
        assert len(frames) == 2 and len(buf) == 0
        buf._reset(frames, buf.next_source_index)
        assert buf.frames == tuple(frames)
        assert buf.next_source_index == 2

    def test_reset_refuses_a_frame_of_another_shape(self, rng):
        buf = ShortTermBuffer(3, 1, 2)
        with pytest.raises(ShapeMismatch):
            buf._reset(make_frames(rng, 1, 1, 3), 1)
        assert len(buf) == 0 and buf.next_source_index == 0


def replay_appends(batches, capacity):
    """Reference long-term store: append a batch, compact, repeat."""
    slots: list = []
    next_id = 0
    for batch in batches:
        for frame in batch:
            slots.append((oracles.entry_from_frame(frame), next_id))
            next_id += 1
        slots = oracles.naive_compact(slots, capacity)
    return slots


def assert_matches_reference(memory, slots):
    assert len(memory) == len(slots)
    for got, got_id, (want, want_id) in zip(memory.entries, memory.position_ids, slots):
        assert got_id == want_id
        assert got.weight == want.weight
        assert np.array_equal(got.tokens, want.tokens)
        assert oracles.prov_counter(got.provenance) == want.sources


class TestLongTermMemory:
    def test_append_assigns_increasing_ids(self, rng):
        mem = LongTermMemory(10, 2, 4)
        mem.append(make_frames(rng, 3, 2, 4))
        assert mem.position_ids == (0, 1, 2)
        assert mem.next_position_id == 3

    def test_capacity_enforced(self, rng):
        mem = LongTermMemory(4, 1, 6)
        mem.append(make_frames(rng, 9, 1, 6))
        assert len(mem) == 4

    def test_weight_conserved_through_compaction(self, rng):
        mem = LongTermMemory(3, 2, 5)
        mem.append(make_frames(rng, 11, 2, 5))
        assert mem.total_weight() == 11

    def test_matches_reference_single_batch(self, rng):
        frames = make_frames(rng, 12, 2, 6)
        mem = LongTermMemory(5, 2, 6)
        mem.append(frames)
        assert_matches_reference(mem, replay_appends([frames], 5))

    def test_matches_reference_staged_appends(self, rng):
        # Compaction between appends must behave exactly like the reference
        # replay; a fresh similarity cache and the incremental one must agree.
        batches = [make_frames(rng, k, 2, 4, start=s)
                   for k, s in ((4, 0), (7, 4), (1, 11), (6, 12))]
        mem = LongTermMemory(6, 2, 4)
        for batch in batches:
            mem.append(batch)
        assert_matches_reference(mem, replay_appends(batches, 6))

    def test_matches_reference_many_seeds(self):
        for seed in range(25):
            r = np.random.default_rng(seed)
            frames = [WeightedFrame.from_tokens(r.standard_normal((2, 3)), i)
                      for i in range(10)]
            cap = 1 + seed % 7
            mem = LongTermMemory(cap, 2, 3)
            mem.append(frames)
            assert_matches_reference(mem, replay_appends([frames], cap))

    def test_tie_merges_lowest_index(self):
        same = np.ones((1, 2))
        frames = [WeightedFrame.from_tokens(same, i) for i in range(4)]
        mem = LongTermMemory(3, 1, 2)
        mem.append(frames)
        # all three pair similarities tie at 1; the leftmost pair merges
        assert mem.position_ids == (0, 2, 3)
        assert [e.weight for e in mem.entries] == [2, 1, 1]

    def test_merged_entry_keeps_left_id(self, rng):
        a = WeightedFrame.from_tokens([[1.0, 0.0]], 0)
        b = WeightedFrame.from_tokens([[1.0, 0.001]], 1)
        c = WeightedFrame.from_tokens([[-1.0, 0.5]], 2)
        mem = LongTermMemory(2, 1, 2)
        mem.append([a, b, c])
        assert mem.position_ids == (0, 2)
        assert mem.entries[0].weight == 2

    @pytest.mark.parametrize("held", [0, 1])
    def test_failed_append_leaves_the_store_as_it_was(self, held):
        # merging a and b cancels token 0, so the similarity of the merged
        # entry to c is undefined
        a, b, c = (WeightedFrame.from_tokens(t, i) for i, t in enumerate((
            [[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.0], [0.0, 1.0]],
            [[-1.0, 0.0], [0.0, -1.0]])))
        mem = LongTermMemory(2, 2, 2)
        mem.append([a, b, c][:held])
        state = (mem.entries, mem.position_ids, mem.next_position_id,
                 list(mem._pair_sims), mem.n_tokens)
        with pytest.raises(ZeroNorm):
            mem.append([a, b, c][held:])
        assert (mem.entries, mem.position_ids, mem.next_position_id,
                list(mem._pair_sims), mem.n_tokens) == state
        mem.append([c])
        assert len(mem) == len(mem.position_ids) == held + 1
        assert mem.position_ids[-1] == held

    def test_entry_shape_pinned_by_the_constructor(self, rng):
        mem = LongTermMemory(5, 2, 4)
        with pytest.raises(ShapeMismatch):
            mem.append(make_frames(rng, 1, 2, 5))
        assert len(mem) == 0
        mem.append(make_frames(rng, 1, 2, 4))
        with pytest.raises(ShapeMismatch):
            mem.append(make_frames(rng, 1, 2, 5))

    def test_restore_round_trip_behaves_identically(self, rng):
        frames = make_frames(rng, 9, 1, 4)
        more = make_frames(rng, 5, 1, 4, start=9)
        original = LongTermMemory(4, 1, 4)
        original.append(frames)
        copied = LongTermMemory(4, 1, 4)
        copied._restore(original.entries, original.position_ids,
                        original.next_position_id)
        original.append(more)
        copied.append(more)
        assert copied.position_ids == original.position_ids
        for a, b in zip(copied.entries, original.entries):
            assert np.array_equal(a.tokens, b.tokens)
            assert a.weight == b.weight

    def test_restore_validation(self, rng):
        frames = make_frames(rng, 2, 1, 2)
        mem = LongTermMemory(4, 1, 2)
        with pytest.raises(InvalidSpec):
            mem._restore(frames, [0], 2)
        with pytest.raises(InvalidSpec):
            mem._restore(frames, [1, 0], 2)
        with pytest.raises(InvalidSpec, match="non-negative"):
            mem._restore(frames, [-7, 1], 2)
        with pytest.raises(InvalidSpec, match="next_position_id 1 is not past the last id"):
            mem._restore(frames, [0, 1], 1)


class TestPositionalTable:
    def test_gaussian_deterministic(self):
        a = PositionalTable.gaussian(4, 8, seed=3)
        b = PositionalTable.gaussian(4, 8, seed=3)
        assert np.array_equal(a.base, b.base)
        assert a.n == 4 and a.dim == 8 and a.max_positions == 16

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            PositionalTable(np.zeros((1, 4)))
        with pytest.raises(InvalidSpec):
            PositionalTable(np.ones((3, 4)))  # identical rows
        with pytest.raises(InvalidSpec):
            PositionalTable(np.array([[1.0, 0.0], [0.0, np.nan]]))
        for blend in (0.0, 1.0, -0.2):
            with pytest.raises(InvalidSpec):
                PositionalTable.gaussian(3, 4, blend=blend)

    def test_low_indices_are_base_rows_bitwise(self):
        table = PositionalTable.gaussian(5, 6, seed=1)
        for k in range(5):
            row = extended_position(table, k)
            assert np.array_equal(row, table.base[k])
            assert np.shares_memory(row, table.base)

    def test_high_indices_blend(self):
        table = PositionalTable.gaussian(4, 6, seed=2)
        for k in range(4, 16):
            got = extended_position(table, k)
            want = oracles.naive_extended_position(table.base, k, table.blend)
            assert np.array_equal(got, want)

    def test_out_of_range(self):
        table = PositionalTable.gaussian(3, 4)
        with pytest.raises(PositionOutOfRange):
            extended_position(table, -1)
        with pytest.raises(PositionOutOfRange):
            extended_position(table, 9)

    def test_encodings_read_only(self):
        table = PositionalTable.gaussian(3, 4)
        for k in (1, 7):
            with pytest.raises(ValueError):
                extended_position(table, k)[0] = 99.0

    def test_collisions_are_exactly_the_diagonal(self):
        table = PositionalTable.gaussian(4, 16, seed=7)
        assert enumerate_collisions(table) == [(1, 5), (2, 10), (3, 15)]

    def test_even_blend_also_collides_swapped_pairs(self):
        table = PositionalTable.gaussian(3, 16, seed=7, blend=0.5)
        diag = [(1, 4), (2, 8)]
        swapped = [(5, 7)]  # encodings of (1,2) and (2,1) coincide at blend 0.5
        assert enumerate_collisions(table) == sorted(diag + swapped)


class TestAssignPositions:
    def test_rank_order_pairing(self, rng):
        mem = LongTermMemory(10, 1, 4)
        mem.append(make_frames(rng, 6, 1, 4))
        table = PositionalTable.gaussian(3, 4, seed=0)
        pairs = assign_positions(mem, table)
        assert len(pairs) == 6
        for rank, (entry, pos) in enumerate(pairs):
            assert entry is mem.entries[rank]
            assert np.array_equal(pos, extended_position(table, rank))

    def test_memory_longer_than_table(self, rng):
        mem = LongTermMemory(30, 1, 4)
        mem.append(make_frames(rng, 5, 1, 4))
        with pytest.raises(MemoryTooLongForTable):
            assign_positions(mem, PositionalTable.gaussian(2, 4))
