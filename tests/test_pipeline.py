from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from mces import (
    ConsolidationConfig,
    InvalidSpec,
    NotFlushed,
    Pipeline,
    PositionalTable,
    ShapeMismatch,
    SyntheticSpec,
    StaleTimestamp,
    ZeroNorm,
    assign_positions,
    export_pipeline,
    extended_position,
    generate_synthetic,
)

Q4 = np.array([1.0, 0.0, 0.0, 0.0])
ORTHO4 = np.array([0.0, 1.0, 0.0, 0.0])


def aligned_frame(rng):
    return np.tile(Q4, (2, 1))


def orthogonal_frame(rng):
    return np.tile(ORTHO4, (2, 1))


def run_steps(pipe, frame_fn, rng, count):
    """Push count frames; return 1-based push indices where a fill fired."""
    fired = []
    for i in range(1, count + 1):
        if pipe.step(frame_fn(rng)) is not None:
            fired.append(i)
    return fired


class TestConstruction:
    def test_reinit_mode_checked(self):
        with pytest.raises(InvalidSpec):
            Pipeline(2, 4, reinit_mode="sideways")

    def test_seeding_needs_headroom(self):
        full = ConsolidationConfig(base_target=16)
        with pytest.raises(InvalidSpec):
            Pipeline(2, 4, full, reinit_mode="merged_tokens")
        Pipeline(2, 4, full, reinit_mode="none")  # identity consolidation is fine

    @pytest.mark.parametrize("size", [True, 2.5, "2"])
    @pytest.mark.parametrize("where", ["n_tokens", "dims", "ltm_capacity"])
    def test_sizes_are_checked_ints(self, where, size):
        sizes = {"n_tokens": 2, "dims": 4, "ltm_capacity": 8, where: size}
        with pytest.raises(InvalidSpec, match="must be of type int"):
            Pipeline(sizes["n_tokens"], sizes["dims"], ltm_capacity=sizes["ltm_capacity"])

    @pytest.mark.parametrize("dims", [2.5, True])
    def test_sizes_are_checked_before_the_question(self, dims):
        # the question's two values would otherwise be compared with dims
        with pytest.raises(InvalidSpec, match="dims must be of type int"):
            Pipeline(2, dims, question=[0.6, 0.8])

    def test_numpy_int_sizes_are_read_as_ints(self):
        pipe = Pipeline(np.int64(2), np.int32(4), ltm_capacity=np.uint16(8))
        sizes = (pipe.short.n_tokens, pipe.short.dims, pipe.long.capacity)
        assert sizes == (2, 4, 8) and {type(v) for v in sizes} == {int}

    def test_question_validated(self):
        with pytest.raises(InvalidSpec):
            Pipeline(2, 4, question=np.ones(3))
        with pytest.raises(ZeroNorm):
            Pipeline(2, 4, question=np.zeros(4))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_question_refused(self, bad):
        with pytest.raises(InvalidSpec):
            Pipeline(2, 4, question=np.array([bad, 1.0, 0.0, 0.0]))

    def test_question_scale_keeps_every_gate_decision(self, rng):
        q = rng.standard_normal(8)
        stream = rng.standard_normal((400, 2, 8))
        for start in range(0, 400, 80):
            stream[start:start + 24] += 2.0 * q  # a relevant stretch
        decisions = []
        for scale in (1.0, 1e100):
            pipe = Pipeline(2, 8, question=scale * q, reinit_mode="none")
            decisions.append([r.relevant for r in pipe.run_stream(stream)])
        assert decisions[0] == decisions[1]
        assert True in decisions[0] and False in decisions[0]


class TestInputsAreCopied:
    def test_caller_arrays_stay_writable_and_apart(self):
        # a view of a batch and a whole array; writing either after the push
        # must neither fail nor reach the buffered frames
        batch = np.ones((2, 2, 4))
        frame = np.ones((2, 4))
        pipe = Pipeline(2, 4, reinit_mode="none")
        pipe.step(batch[0])
        pipe.step(frame)
        batch[0] = 7.0
        frame[0, 0] = 7.0
        assert all(np.array_equal(f.tokens, np.ones((2, 4))) for f in pipe.short.frames)

    def test_question_is_a_read_only_copy(self):
        # a write to the caller's array after construction must not move the gate
        q = Q4.copy()
        pipe = Pipeline(2, 4, question=q)
        assert pipe.question is not q
        q[0] = -1.0
        assert np.array_equal(pipe.question, Q4)
        with pytest.raises(ValueError):
            pipe.question[0] = 2.0


class TestCadence:
    def test_first_fill_fires_on_push_17(self, rng):
        pipe = Pipeline(2, 4, question=Q4)
        assert run_steps(pipe, aligned_frame, rng, 17) == [17]
        # the fill that fired covered exactly frames 0..15
        assert pipe.long.entries[0].provenance[0][0] == 0
        spans = [iv for e in pipe.long.entries for iv in e.provenance]
        assert max(stop for _, stop, _ in spans) == 16

    def test_strong_question_reseeds_four(self, rng):
        pipe = Pipeline(2, 4, question=Q4)
        assert run_steps(pipe, aligned_frame, rng, 41) == [17, 29, 41]

    def test_weak_question_reseeds_one(self, rng):
        pipe = Pipeline(2, 4, question=Q4)
        assert run_steps(pipe, orthogonal_frame, rng, 47) == [17, 32, 47]

    def test_no_reinit_keeps_full_period(self, rng):
        pipe = Pipeline(2, 4, question=Q4, reinit_mode="none")
        assert run_steps(pipe, aligned_frame, rng, 49) == [17, 33, 49]

    def test_agnostic_matches_strong_period(self, rng):
        pipe = Pipeline(2, 4)  # no question: always base_target
        assert run_steps(pipe, aligned_frame, rng, 41) == [17, 29, 41]


class TestSeeding:
    def test_merged_tokens_seeds_are_the_outputs(self, rng):
        pipe = Pipeline(2, 4, question=Q4)
        run_steps(pipe, aligned_frame, rng, 17)
        # buffer holds 4 context seeds plus the trigger frame
        assert len(pipe.short) == 5
        seeds, trigger = pipe.short.frames[:4], pipe.short.frames[4]
        assert all(s.context_flag for s in seeds)
        assert sum(s.weight for s in seeds) == 16
        assert not trigger.context_flag
        assert trigger.provenance == ((16, 17, 1),)
        assert pipe.seeded_weight_total == 16

    def test_last_k_seeds_tail_frames(self, rng):
        # last_k, which seeded the next fill with its tail frames, is retired
        with pytest.raises(InvalidSpec, match="last_k"):
            Pipeline(2, 4, question=Q4, reinit_mode="last_k")
        pipe = Pipeline(2, 4, question=Q4)
        run_steps(pipe, aligned_frame, rng, 17)
        # the default seeds carry the whole fill forward, not only frames 12-15
        seeds = pipe.short.frames[:4]
        assert seeds[0].provenance[0][0] == 0
        assert sum(s.weight for s in seeds) == 16

    def test_uniform_sample_seeds_spread(self, rng):
        # uniform_sample, which seeded one frame from each quarter, is retired
        with pytest.raises(InvalidSpec, match="uniform_sample"):
            Pipeline(2, 4, question=Q4, reinit_mode="uniform_sample")
        pipe = Pipeline(2, 4, question=Q4)
        run_steps(pipe, aligned_frame, rng, 17)
        # the default seeds' spans tile the fill, frames 0-15, in order
        spans = [span for s in pipe.short.frames[:4] for span in s.provenance]
        assert spans[0][0] == 0 and spans[-1][1] == 16
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    def test_none_mode_never_seeds(self, rng):
        pipe = Pipeline(2, 4, question=Q4, reinit_mode="none")
        run_steps(pipe, aligned_frame, rng, 17)
        assert len(pipe.short) == 1
        assert pipe.seeded_weight_total == 0


class TestFlush:
    def test_residual_budget_scales(self, rng):
        pipe = Pipeline(2, 4, question=Q4)
        run_steps(pipe, aligned_frame, rng, 24)
        report = pipe.flush()
        # residue: 4 seeds + trigger + 7 more = 12 frames; ceil(4 * 12/16) = 3
        assert report.input_count == 12
        assert report.target == 3
        assert len(pipe.short) == 0
        assert pipe.long.total_weight() == 24 + pipe.seeded_weight_total

    def test_weak_residue_keeps_one_slot(self, rng):
        pipe = Pipeline(2, 4, question=Q4)
        run_steps(pipe, orthogonal_frame, rng, 20)
        report = pipe.flush()
        # residue: 1 seed + trigger + 3 more = 5 frames; ceil(1 * 5/16) = 1
        assert report.input_count == 5
        assert report.target == 1

    def test_empty_flush(self, rng):
        pipe = Pipeline(2, 4)
        assert pipe.flush() is None
        run_steps(pipe, aligned_frame, rng, 17)
        pipe.flush()
        assert pipe.flush() is None

    def test_run_stream_equals_manual_steps(self, rng):
        frames = [rng.standard_normal((2, 4)) for _ in range(40)]
        a = Pipeline(2, 4, question=Q4)
        reports_a = a.run_stream(frames)
        b = Pipeline(2, 4, question=Q4)
        reports_b = [r for f in frames if (r := b.step(f)) is not None]
        last = b.flush()
        if last is not None:
            reports_b.append(last)
        assert len(reports_a) == len(reports_b)
        for x, y in zip(reports_a, reports_b):
            assert x.target == y.target and x.trace == y.trace
        for ea, eb in zip(a.long.entries, b.long.entries):
            assert np.array_equal(ea.tokens, eb.tokens)

    def test_run_stream_always_flushes(self, rng):
        pipe = Pipeline(2, 4)
        reports = pipe.run_stream([rng.standard_normal((2, 4)) for _ in range(20)])
        assert len(pipe.short) == 0
        # one fill at push 17, then the residue of 4 seeds and 4 fresh frames
        assert [r.input_count for r in reports] == [16, 8]

    @pytest.mark.parametrize("reinit_mode", ["merged_tokens", "none"])
    def test_float32_stream_equals_its_float64_upcast(self, rng, reinit_mode):
        # a C-contiguous float32 frame is validated in float32 and its float64
        # upcast in float64; the precision of that check reaches no output
        q = rng.standard_normal(16)
        stream = rng.standard_normal((300, 4, 16)).astype(np.float32)
        stream[100:160] += q.astype(np.float32)  # a relevant stretch
        runs = []
        for frames in (list(stream), list(stream.astype(np.float64))):
            pipe = Pipeline(4, 16, question=q, ltm_capacity=12, reinit_mode=reinit_mode)
            reports = pipe.run_stream(frames)
            runs.append((
                [(e.tokens.tobytes(), e.weight, e.provenance) for e in pipe.long.entries],
                json.dumps([r.to_dict() for r in reports]),
            ))
        assert runs[0] == runs[1]


def exported(pipe, path):
    json_path, sidecar = export_pipeline(pipe, str(path))
    return tuple(Path(p).read_bytes() for p in (json_path, sidecar))


class TestFailedConsolidationKeepsState:
    @pytest.mark.parametrize("reinit_mode", ["merged_tokens", "none"])
    @pytest.mark.parametrize("question", [None, Q4], ids=["agnostic", "question"])
    @pytest.mark.parametrize("call", ["step", "flush"])
    def test_raising_call_changes_nothing(self, tmp_path, rng, call, question, reinit_mode):
        pipe = Pipeline(2, 4, question=question, reinit_mode=reinit_mode)
        for _ in range(23):  # the first fill fires at push 17
            pipe.step(rng.standard_normal((2, 4)))
        # an all-zero token row passes push; merging it raises ZeroNorm
        pipe.step(np.array([[1.0, 2.0, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0]]))
        while len(pipe.short) < pipe.cfg.capacity:
            pipe.step(rng.standard_normal((2, 4)))
        before = exported(pipe, tmp_path / "before.json")
        weight = pipe.total_memory_weight()
        for _ in range(2):  # refused again on the next call, still losing nothing
            with pytest.raises(ZeroNorm):
                if call == "step":
                    pipe.step(rng.standard_normal((2, 4)))
                else:
                    pipe.flush()
            assert exported(pipe, tmp_path / "before.json") == before
            assert pipe.total_memory_weight() == weight

    @pytest.mark.parametrize("question", [None, Q4[:2]], ids=["agnostic", "question"])
    @pytest.mark.parametrize("call", ["step", "flush"])
    def test_raising_long_term_append_changes_nothing(self, tmp_path, call, question):
        # Each fill of two equal frames merges to that frame. Banking the
        # third entry compacts the long-term store: the first two entries
        # tie with the last pair at similarity 0 and merge, their token 0
        # cancels, and the similarity to the third entry raises ZeroNorm.
        a, b, c = (np.array(t) for t in ([[1.0, 0.0], [0.0, 1.0]],
                                         [[-1.0, 0.0], [0.0, 1.0]],
                                         [[-1.0, 0.0], [0.0, -1.0]]))
        cfg = ConsolidationConfig(capacity=2, base_target=1)
        pipe = Pipeline(2, 2, cfg, question=question, ltm_capacity=2, reinit_mode="none")
        for frame in (a, a, b, b, c) + ((c,) if call == "step" else ()):
            pipe.step(frame)
        assert len(pipe.long) == 2
        before = exported(pipe, tmp_path / "before.json")
        for _ in range(2):
            with pytest.raises(ZeroNorm):
                if call == "step":
                    pipe.step(a)
                else:
                    pipe.flush()
            assert exported(pipe, tmp_path / "before.json") == before
            assert pipe.total_memory_weight() == pipe.frames_pushed
            assert len(pipe.long.position_ids) == len(pipe.long) == 2

    def test_refused_frame_at_a_full_buffer_fires_nothing(self, tmp_path, rng):
        pipe = Pipeline(2, 4)
        for _ in range(16):
            assert pipe.step(rng.standard_normal((2, 4))) is None
        assert len(pipe.short) == pipe.cfg.capacity
        before = exported(pipe, tmp_path / "before.json")
        for bad, error in ((np.full((2, 4), np.nan), ValueError),
                           (np.ones((2, 5)), ShapeMismatch)):
            with pytest.raises(error):
                pipe.step(bad)
            assert exported(pipe, tmp_path / "before.json") == before
            assert (pipe.frames_pushed, pipe.consolidations_run) == (16, 0)
            view = pipe.assemble_breakpoint(15)
            assert view.frames[-1].provenance == ((15, 16, 1),)
        report = pipe.step(rng.standard_normal((2, 4)))
        assert report is not None and report.input_count == 16
        assert (pipe.frames_pushed, pipe.consolidations_run) == (17, 1)


class TestCounters:
    def test_derived_counters_are_read_only(self):
        pipe = Pipeline(1, 3)
        for name in ("frames_pushed", "consolidation_output_total", "peak_resident_frames"):
            with pytest.raises(AttributeError):
                setattr(pipe, name, 5)
            assert getattr(pipe, name) == 0


class TestConservation:
    def test_exact_without_seeding(self, rng):
        pipe = Pipeline(1, 3, reinit_mode="none")
        for i in range(57):
            pipe.step(rng.standard_normal((1, 3)))
            assert pipe.total_memory_weight() == pipe.frames_pushed
        pipe.flush()
        assert pipe.long.total_weight() == 57

    def test_seeding_double_counts_exactly(self, rng):
        pipe = Pipeline(1, 3, question=np.array([1.0, 0.0, 0.0]))
        for _ in range(57):
            pipe.step(rng.standard_normal((1, 3)))
            assert pipe.total_memory_weight() == (
                pipe.frames_pushed + pipe.seeded_weight_total)
        pipe.flush()
        assert pipe.long.total_weight() == 57 + pipe.seeded_weight_total


class TestLongRun:
    def test_ten_thousand_frames_land_in_625_entries(self):
        # background stream, weak question, no reseeding: 624 in-stream fills
        # plus one flushed residue, one entry each, every entry weight 16
        frames, q = generate_synthetic(
            SyntheticSpec(frame_count=10_000, n_tokens=1, dims=4, seed=0))
        pipe = Pipeline(1, 4, question=q, ltm_capacity=1000, reinit_mode="none")
        reports = pipe.run_stream(frames)
        assert pipe.consolidations_run == 625
        assert len(reports) == 625
        assert len(pipe.long) == 625
        assert all(e.weight == 16 for e in pipe.long.entries)
        assert pipe.long.position_ids == tuple(range(625))
        assert pipe.long.total_weight() == 10_000

    def test_ltm_compaction_keeps_bound(self, rng):
        cfg = ConsolidationConfig(capacity=4, base_target=2)
        pipe = Pipeline(1, 3, cfg, ltm_capacity=3, reinit_mode="none")
        for i in range(50):
            pipe.step(rng.standard_normal((1, 3)))
            assert len(pipe.long) <= 3
        pipe.flush()
        assert pipe.long.total_weight() == 50


class TestGatingThroughPipeline:
    def test_planted_block_earns_more_slots(self):
        spec = SyntheticSpec(frame_count=48, n_tokens=2, dims=8, seed=1,
                             segments=((16, 32, 1.0),), noise_scale=0.0)
        frames, q = generate_synthetic(spec)
        pipe = Pipeline(2, 8, question=q, reinit_mode="none")
        reports = pipe.run_stream(frames)
        assert [r.target for r in reports] == [1, 4, 1]
        assert len(pipe.long) == 6
        weights = [e.weight for e in pipe.long.entries]
        assert weights[0] == 16 and weights[-1] == 16
        assert sum(weights[1:5]) == 16


class TestAssembly:
    def test_global_requires_flush(self, rng):
        pipe = Pipeline(2, 4)
        pipe.step(rng.standard_normal((2, 4)))
        with pytest.raises(NotFlushed):
            pipe.assemble_global()
        pipe.flush()
        rep = pipe.assemble_global()
        assert rep.mode == "global"
        assert len(rep) == len(pipe.long)
        assert rep.frames == pipe.long.entries

    def test_empty_pipeline_assembles_empty(self):
        rep = Pipeline(2, 4).assemble_global()
        assert len(rep) == 0
        assert rep.token_count() == 0

    def test_positions_attached_in_rank_order(self, rng):
        # the global frames, each paired with its rank's extended position
        table = PositionalTable.gaussian(8, 6, seed=2)
        pipe = Pipeline(2, 4, reinit_mode="none")
        pipe.run_stream([rng.standard_normal((2, 4)) for _ in range(40)])
        rep = pipe.assemble_global()
        pairs = assign_positions(pipe.long, table)
        assert len(pairs) == len(rep) > 0
        for rank, ((entry, pos), frame) in enumerate(zip(pairs, rep.frames)):
            assert entry is frame
            assert pos.tobytes() == extended_position(table, rank).tobytes()

    def test_breakpoint_names_live_frame(self, rng):
        pipe = Pipeline(2, 4)
        for i in range(20):
            pipe.step(rng.standard_normal((2, 4)))
        rep = pipe.assemble_breakpoint(19)
        assert rep.mode == "breakpoint"
        assert rep.breakpoint_index == 19
        live = [f for f in pipe.short.frames if not f.context_flag]
        assert len(live) < len(pipe.short)
        assert rep.frames == pipe.long.entries + tuple(live) + (live[-1],)
        # current frame is the last buffered frame, present twice
        assert rep.frames[-1] is pipe.short.frames[-1]
        assert rep.frames[-2] is pipe.short.frames[-1]

    def test_breakpoint_lists_each_entry_once(self):
        # the irrelevant fill at frame 16 banks one entry and seeds a copy of it
        pipe = Pipeline(2, 4, question=Q4)
        for i in range(17):
            pipe.step(orthogonal_frame(None) * (i + 1))
        assert len(pipe.long) == 1 and pipe.short.frames[0].context_flag
        rep = pipe.assemble_breakpoint(16)
        assert rep.frames == (pipe.long.entries[0], pipe.short.frames[1],
                              pipe.short.frames[1])
        tokens = [id(f.tokens) for f in rep.frames[:-1]]
        assert len(set(tokens)) == len(tokens)

    def test_breakpoint_rejects_stale_or_future(self, rng):
        pipe = Pipeline(2, 4)
        with pytest.raises(StaleTimestamp):
            pipe.assemble_breakpoint(0)
        pipe.step(rng.standard_normal((2, 4)))
        with pytest.raises(StaleTimestamp):
            pipe.assemble_breakpoint(1)
        rep = pipe.assemble_breakpoint(0)
        assert len(rep) == 2

    def test_breakpoint_unavailable_after_flush(self, rng):
        pipe = Pipeline(2, 4)
        pipe.step(rng.standard_normal((2, 4)))
        pipe.flush()
        with pytest.raises(StaleTimestamp):
            pipe.assemble_breakpoint(0)

    def test_token_count_sums_frames(self, rng):
        pipe = Pipeline(3, 4, reinit_mode="none")
        pipe.run_stream([rng.standard_normal((3, 4)) for _ in range(20)])
        rep = pipe.assemble_global()
        assert rep.token_count() == 3 * len(rep)


class TestAccounting:
    def test_raw_and_peak_formulas(self):
        pipe = Pipeline(1, 4, question=Q4, ltm_capacity=256)
        model = pipe.bytes_model()
        assert model.raw_bytes_per_frame == 1 * 4 * 4
        assert model.peak_resident_bytes == (16 + 256) * 16 + 16

    def test_peak_drops_question_term_when_absent(self):
        model = Pipeline(1, 4, ltm_capacity=256).bytes_model()
        assert model.peak_resident_bytes == (16 + 256) * 16

    def test_amortized_defaults_to_raw(self):
        model = Pipeline(1, 4).bytes_model()
        assert model.amortized_bytes_per_frame == model.raw_bytes_per_frame

    def test_amortized_tracks_output_ratio(self, rng):
        pipe = Pipeline(1, 4, reinit_mode="none")
        pipe.run_stream([rng.standard_normal((1, 4)) for _ in range(32)])
        # two fills of 16 went to 4 each: ratio 8/32
        model = pipe.bytes_model()
        assert model.amortized_bytes_per_frame == 16 * (8 / 32)

    def test_identity_consolidation_has_raw_cost(self, rng):
        cfg = ConsolidationConfig(base_target=16)
        pipe = Pipeline(1, 4, cfg, reinit_mode="none")
        pipe.run_stream([rng.standard_normal((1, 4)) for _ in range(32)])
        model = pipe.bytes_model()
        assert model.amortized_bytes_per_frame == model.raw_bytes_per_frame

    def test_resident_counter_bounded(self, rng):
        pipe = Pipeline(1, 4, question=Q4, ltm_capacity=8)
        for _ in range(100):
            pipe.step(rng.standard_normal((1, 4)))
        pipe.flush()
        assert 17 <= pipe.peak_resident_frames <= 16 + 8 + 16 + 4

    @pytest.mark.parametrize("reinit_mode", ["merged_tokens", "none"])
    def test_peak_view_equals_the_per_step_tracker(self, reinit_mode):
        class Tracked(Pipeline):
            # the reference: the peak as it was tracked before it became a
            # view, raised by every bank and after every step and flush
            tracked = 0

            def _fire(self, window, next_source_index, residue=False):
                held = len(self.short) + len(self.long) + len(window)
                out, report = super()._fire(window, next_source_index, residue)
                self.tracked = max(self.tracked, held + len(out))
                return out, report

            def note_resident(self):
                self.tracked = max(self.tracked, len(self.short) + len(self.long))
                return self.peak_resident_frames == self.tracked

        rng = np.random.default_rng(19)
        for _ in range(40):
            capacity = int(rng.integers(2, 20))
            cfg = ConsolidationConfig(capacity=capacity,
                                      base_target=int(rng.integers(1, capacity)))
            question = rng.standard_normal(3) if rng.random() < 0.5 else None
            pipe = Tracked(2, 3, cfg, question=question,
                           ltm_capacity=int(rng.integers(1, 12)), reinit_mode=reinit_mode)
            for _ in range(int(rng.integers(1, 4 * capacity))):
                pipe.step(rng.standard_normal((2, 3)))
                assert pipe.note_resident()
            pipe.flush()
            assert pipe.note_resident()

    def test_record_dict(self):
        d = Pipeline(1, 4).bytes_model().to_dict()
        assert set(d) == {"raw_bytes_per_frame", "amortized_bytes_per_frame",
                          "peak_resident_bytes"}


class TestWholePipelineOracle:
    """Pipeline under reinit_mode="none" against oracles.naive_pipeline."""

    # every (capacity, base_target) with capacity 2..8
    BUDGETS = [(k, m) for k in range(2, 9) for m in range(1, k + 1)]

    @staticmethod
    def tie_frame(r, n_tokens):
        # c3's construction: one row of squared norm 16 whose first entry is
        # 1, times a power of two, scores exactly 0.25 against the first axis
        row = np.concatenate(([1.0], r.permutation([3.0, 2.0, 1.0, 1.0])))
        return np.tile(row * 2.0 ** int(r.integers(-2, 3)), (n_tokens, 1))

    def case(self, i):
        r = np.random.default_rng(21_000 + i)
        capacity, base_target = self.BUDGETS[i % len(self.BUDGETS)]
        alpha = float(r.choice([0.25, 0.5, 1.0]))
        n_tokens, frame_count = int(r.integers(1, 4)), int(r.integers(1, 80))
        if i % 4 == 0:
            # fills that score exactly sigma, among random ones
            dims, sigma = 5, 0.25
            question = np.eye(5)[0] * 2.0 ** int(r.integers(-2, 3))
            tie_fill = r.random(frame_count // capacity + 1) < 0.6
            frames = [self.tie_frame(r, n_tokens) if tie_fill[t // capacity]
                      else r.standard_normal((n_tokens, dims)) for t in range(frame_count)]
        else:
            dims, sigma = int(r.integers(2, 7)), float(r.uniform(-0.3, 0.5))
            question = r.standard_normal(dims) if r.random() < 0.5 else None
            frames = [r.standard_normal((n_tokens, dims)) for _ in range(frame_count)]
        if i % 2:
            frames = [f.astype(np.float32) for f in frames]
            question = None if question is None else question.astype(np.float32)
        cfg = ConsolidationConfig(capacity=capacity, base_target=base_target,
                                  alpha=alpha, sigma=sigma)
        return n_tokens, dims, cfg, question, int(r.integers(1, 12)), frames

    def test_matches_the_oracle_on_300_seeded_configs(self):
        mismatched, ties = [], 0
        for i in range(300):
            n_tokens, dims, cfg, question, ltm_capacity, frames = self.case(i)
            pipe = Pipeline(n_tokens, dims, cfg, question=question,
                            ltm_capacity=ltm_capacity, reinit_mode="none")
            reports = pipe.run_stream(frames)
            # fills at exactly sigma, where the weak budget differs from the full one
            if cfg.weak_target() < cfg.base_target:
                ties += sum(rep.relevance == cfg.sigma for rep in reports)
            want = oracles.naive_pipeline(frames, question, cfg.capacity, cfg.base_target,
                                          cfg.alpha, cfg.sigma, ltm_capacity)
            got = list(zip(pipe.long.entries, pipe.long.position_ids))
            if len(got) != len(want) or not all(
                    np.array_equal(frame.tokens, entry.tokens)
                    and frame.weight == entry.weight
                    and oracles.prov_counter(frame.provenance) == entry.sources
                    and pid == want_id
                    for (frame, pid), (entry, want_id) in zip(got, want)):
                mismatched.append(i)
        assert mismatched == []
        assert ties > 0


def test_split_rows_are_bitwise_the_unsplit_pipeline(split_rows):
    # the oracle's configs (1 to 3 token rows) with every frame of two or
    # more rows split between the caller and the row worker: every merge is
    # one row job with its neighbour similarities, and the merges it picks
    # are in each report's trace. Under merged_tokens (a config whose
    # base_target is its capacity cannot re-seed) the fills carry context
    # flags and provenance counts through it too.
    oracle = TestWholePipelineOracle()
    for reinit_mode in ("none", "merged_tokens"):
        for i in range(300):
            n_tokens, dims, cfg, question, ltm_capacity, frames = oracle.case(i)
            if reinit_mode != "none" and cfg.base_target >= cfg.capacity:
                continue
            runs = []
            for on in (False, True):
                split_rows(on)
                pipe = Pipeline(n_tokens, dims, cfg, question=question,
                                ltm_capacity=ltm_capacity, reinit_mode=reinit_mode)
                reports = pipe.run_stream(frames)
                runs.append((pipe.long.entries, pipe.long.position_ids, pipe.long._pair_sims,
                             [(rep.relevance, rep.trace) for rep in reports]))
            (want, *want_rest), (got, *got_rest) = runs
            assert got_rest == want_rest, (reinit_mode, i)
            for g, w in zip(got, want, strict=True):
                assert g.tokens.tobytes() == w.tokens.tobytes(), (reinit_mode, i)
                assert (g.weight, g.provenance, g.context_flag) == \
                    (w.weight, w.provenance, w.context_flag), (reinit_mode, i)
