from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mces import (
    ConsolidationConfig,
    DimensionMismatch,
    EmptyInput,
    InvalidSpec,
    InvalidTarget,
    WeightedFrame,
    consolidate,
    greedy_merge,
    relevance_score,
    weighted_merge,
)

import oracles
from conftest import directional_frames, make_frames


def D(*direction):
    """Frames whose descriptor is the (normalized) given direction."""
    return directional_frames(np.array(direction, dtype=np.float64), 1, 3)[0]


class TestConfig:
    def test_defaults(self):
        cfg = ConsolidationConfig()
        assert (cfg.capacity, cfg.base_target, cfg.alpha, cfg.sigma) == (16, 4, 0.25, 0.25)
        assert [f.name for f in fields(cfg)] == ["capacity", "base_target", "alpha", "sigma"]

    @pytest.mark.parametrize("key, value", [
        ("question_similarity", "pooled"), ("relevance_exclude_context", False),
        ("basis", "mean"), ("question_required", False), ("windows_per_fill", 1),
        ("window_size", 16),
    ])
    def test_from_dict_refuses_the_retired_keys(self, key, value):
        # even at their one value; only the snapshot format-1 reader takes them
        with pytest.raises(InvalidSpec, match=rf"unknown config keys \['{key}'\]"):
            ConsolidationConfig.from_dict({"capacity": 16, key: value})
        assert ConsolidationConfig(capacity=16).to_dict() == {
            "capacity": 16, "base_target": 4, "alpha": 0.25, "sigma": 0.25}

    def test_from_dict_rejects_unknown_keys_and_bad_types(self):
        with pytest.raises(InvalidSpec, match="bogus"):
            ConsolidationConfig.from_dict({"bogus": 1})
        with pytest.raises(InvalidSpec, match="capacity"):
            ConsolidationConfig.from_dict({"capacity": "sixteen"})

    @pytest.mark.parametrize("key, value", [
        ("question_similarity", "per_token"),
        ("relevance_exclude_context", True),
        ("relevance_exclude_context", 0),
        ("basis", "max"),
        ("question_required", True),
        ("question_required", 0),
    ])
    def test_from_dict_refuses_retired_relevance_keys_at_other_values(self, key, value):
        with pytest.raises(InvalidSpec, match=rf"unknown config keys \['{key}'\]"):
            ConsolidationConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", [
        ("capacity", 16.5), ("capacity", "16"), ("base_target", True),
        ("base_target", 4.5), ("sigma", True), ("sigma", "0.25"), ("alpha", "0.5"),
        ("alpha", None),
        # retired keys: unknown at any value, like the two tests above
        ("basis", 1), ("question_required", "no"), ("question_required", 1),
    ])
    def test_fields_are_type_checked(self, key, value):
        retired = key in ("basis", "question_required")
        with pytest.raises(InvalidSpec, match=rf"unknown config keys \['{key}'\]" if retired
                           else f"{key} must be of type"):
            ConsolidationConfig.from_dict({key: value})

    def test_integral_numbers_take_the_field_type(self):
        cfg = ConsolidationConfig.from_dict({"capacity": 8.0, "alpha": 1})
        assert (cfg.capacity, cfg.alpha) == (8, 1.0)
        assert type(cfg.capacity) is int and type(cfg.alpha) is float

    def test_base_target_bounds(self):
        with pytest.raises(InvalidSpec):
            ConsolidationConfig(base_target=0)
        with pytest.raises(InvalidSpec):
            ConsolidationConfig(base_target=17)

    def test_alpha_bounds(self):
        with pytest.raises(InvalidSpec):
            ConsolidationConfig(alpha=0.0)
        with pytest.raises(InvalidSpec):
            ConsolidationConfig(alpha=1.5)
        ConsolidationConfig(alpha=1.0)

    def test_sigma_bounds(self):
        with pytest.raises(InvalidSpec):
            ConsolidationConfig(sigma=1.5)
        ConsolidationConfig(sigma=-1.0)

    @pytest.mark.parametrize("alpha,base,want", [
        (0.25, 4, 1),
        (0.375, 4, 2),   # 1.5 rounds half up
        (0.01, 4, 1),    # clamped to the floor of one slot
        (1.0, 4, 4),
        (0.5, 3, 2),
        (0.1, 2, 1),
        (0.9, 10, 9),
    ])
    def test_weak_target(self, alpha, base, want):
        cfg = ConsolidationConfig(base_target=base, alpha=alpha)
        assert cfg.weak_target() == want


class TestRelevanceScore:
    def test_mean_of_frame_scores(self):
        frames = [D(1, 0, 0), D(0, 1, 0), D(1, 1, 0)]
        q = [1.0, 0.0, 0.0]
        half = np.sqrt(2.0) / 2.0
        assert abs(relevance_score(frames, q) - (1 + 0 + half) / 3) < 1e-12

    def test_question_scale_invariant(self, rng):
        frames = make_frames(rng, 4, 3, 6)
        q = rng.standard_normal(6)
        assert abs(relevance_score(frames, q) - relevance_score(frames, 7.5 * q)) < 1e-12

    def test_empty_window(self):
        with pytest.raises(EmptyInput):
            relevance_score([], [1.0, 0.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("frames, question, error", [
        (None, [np.inf, 0.0, 0.0], ValueError),
        (None, [1.0, np.nan, 0.0], ValueError),
        (None, [], DimensionMismatch),
        (None, [1e200, 0.0, 0.0], ValueError),
        ([np.array([[np.inf, 1.0, 0.0]])], [1.0, 0.0, 0.0], ValueError),
        ([np.zeros((1, 0))], [1.0, 0.0, 0.0], DimensionMismatch),
        ([np.full((2, 3), 1e308)], [1.0, 0.0, 0.0], ValueError),
    ], ids=["inf-question", "nan-question", "empty-question", "overflowing-question", "inf-frame",
            "empty-frame", "overflowing-frame"])
    def test_refuses_what_would_give_nan(self, frames, question, error):
        with pytest.raises(error):
            relevance_score(frames or [D(1, 0, 0), D(0, 1, 0)], question)


class TestTargetCount:
    # the strict relevance test is made once, in consolidate

    def test_strictly_above_keeps_base(self, rng):
        frames, q = make_frames(rng, 8, 2, 4), rng.standard_normal(4)
        score = relevance_score(frames, q)
        cfg = ConsolidationConfig(sigma=float(np.nextafter(score, -np.inf)))
        out, report = consolidate(frames, q, cfg)
        assert report.target == len(out) == 4

    def test_exactly_sigma_takes_weak_branch(self, rng):
        frames, q = make_frames(rng, 8, 2, 4), rng.standard_normal(4)
        cfg = ConsolidationConfig(sigma=relevance_score(frames, q))
        out, report = consolidate(frames, q, cfg)
        assert report.target == len(out) == 1

    def test_below_sigma(self):
        cfg = ConsolidationConfig()
        for direction, score in (((-0.9, np.sqrt(0.19)), -0.9), ((0.0, 1.0), 0.0)):
            frames = directional_frames(direction, 8, 3)
            assert abs(relevance_score(frames, [1.0, 0.0]) - score) < 1e-12
            out, report = consolidate(frames, [1.0, 0.0], cfg)
            assert report.target == len(out) == 1


class TestGreedyMerge:
    def test_short_input_untouched(self, rng):
        frames = make_frames(rng, 3, 2, 4)
        out, report = greedy_merge(frames, 4)
        assert out == frames
        assert report.trace == ()
        assert report.input_count == 3

    def test_merge_to_one(self, rng):
        frames = make_frames(rng, 6, 2, 4)
        out, report = greedy_merge(frames, 1)
        assert len(out) == 1
        assert out[0].weight == 6
        assert out[0].provenance == ((0, 6, 1),)
        assert len(report.trace) == 5

    def test_trace_length_is_merge_count(self, rng):
        frames = make_frames(rng, 10, 1, 5)
        out, report = greedy_merge(frames, 4)
        assert len(out) == 4
        assert len(report.trace) == 6
        assert [step for step, _, _ in report.trace] == list(range(6))

    def test_target_floor(self, rng):
        with pytest.raises(InvalidTarget):
            greedy_merge(make_frames(rng, 2, 1, 2), 0)

    def test_ties_break_to_lowest_index(self):
        frames = [WeightedFrame.from_tokens([[1.0, 2.0]], i) for i in range(4)]
        out, report = greedy_merge(frames, 1)
        assert [best for _, best, _ in report.trace] == [0, 0, 0]
        assert out[0].weight == 4

    def test_weight_conserved(self, rng):
        frames = make_frames(rng, 12, 2, 3)
        for target in (1, 3, 7, 12):
            out, _ = greedy_merge(frames, target)
            assert sum(f.weight for f in out) == 12

    def test_order_preserved(self, rng):
        out, _ = greedy_merge(make_frames(rng, 14, 1, 4), 5)
        spans = [(f.provenance[0][0], f.provenance[-1][1]) for f in out]
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start  # contiguous, in order, nothing lost

    def test_matches_reference_loop(self):
        # exact agreement: frames, weights, provenance, and the full trace
        for seed in range(30):
            r = np.random.default_rng(1000 + seed)
            k = int(r.integers(2, 9))
            frames = [WeightedFrame.from_tokens(r.standard_normal((2, 3)), i)
                      for i in range(k)]
            target = int(r.integers(1, k + 1))
            out, report = greedy_merge(frames, target)
            want, trace = oracles.naive_greedy_merge(frames, target)
            assert len(out) == len(want)
            for got, ref in zip(out, want):
                assert np.array_equal(got.tokens, ref.tokens)
                assert got.weight == ref.weight
                assert oracles.prov_counter(got.provenance) == ref.sources
            assert report.trace == tuple(trace)

    def test_weighted_inputs_preserve_group_means(self, rng):
        # pre-merge a few frames so inputs carry weight > 1, then check every
        # output equals the weighted mean of its sources to 1e-9
        originals = [rng.standard_normal((2, 4)) for _ in range(10)]
        frames = [WeightedFrame.from_tokens(t, i) for i, t in enumerate(originals)]
        frames[2:4] = [weighted_merge(frames[2], frames[3])]
        frames[6:9] = [weighted_merge(weighted_merge(frames[6], frames[7]), frames[8])]
        out, _ = greedy_merge(frames, 3)
        assert sum(f.weight for f in out) == 10
        for f in out:
            entry = oracles.Entry(f.tokens, f.weight, oracles.prov_counter(f.provenance))
            want = oracles.weighted_source_mean(entry, originals)
            assert np.allclose(f.tokens, want, atol=1e-9)


class TestConsolidate:
    def test_no_question_keeps_base_target(self, rng):
        cfg = ConsolidationConfig()
        out, report = consolidate(make_frames(rng, 16, 1, 4), None, cfg)
        assert len(out) == 4
        assert report.relevance is None
        assert report.relevant is None
        assert report.target == 4

    def test_aligned_window_keeps_base_target(self):
        q = np.array([1.0, 0.0, 0.0])
        frames = directional_frames(q, 16, 2)
        out, report = consolidate(frames, q, ConsolidationConfig())
        assert len(out) == 4
        assert report.relevant is True
        assert report.relevance > 0.999

    def test_orthogonal_window_shrinks(self):
        q = np.array([1.0, 0.0, 0.0])
        frames = directional_frames(np.array([0.0, 1.0, 0.0]), 16, 2)
        out, report = consolidate(frames, q, ConsolidationConfig())
        assert len(out) == 1
        assert report.relevant is False
        assert abs(report.relevance) < 1e-9

    def test_score_exactly_at_sigma_is_weak(self):
        # tokens (1,3,2,1,1) have norm exactly 4, so the descriptor cosine
        # against e0 is exactly 0.25 in float arithmetic, tying the threshold
        frames = directional_frames(np.array([1.0, 3.0, 2.0, 1.0, 1.0]), 16, 2)
        q = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        out, report = consolidate(frames, q, ConsolidationConfig(sigma=0.25))
        assert report.relevance == 0.25
        assert report.relevant is False
        assert len(out) == 1

    def test_empty_window(self):
        with pytest.raises(EmptyInput):
            consolidate([], None, ConsolidationConfig())

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("big, question, error", [
        (False, [np.inf, 0.0, 0.0], ValueError),
        (False, [np.nan, 1.0, 0.0], ValueError),
        (False, [], DimensionMismatch),
        (True, [1.0, 0.0, 0.0], ValueError),
    ], ids=["inf-question", "nan-question", "empty-question", "overflowing-frames"])
    def test_no_nan_relevance_picks_the_budget(self, rng, big, question, error):
        # a nan score would read as not relevant and take the weak budget.
        # Frames whose norms would overflow are refused when they are built
        with pytest.raises(error):
            frames = make_frames(rng, 6, 2, 3)
            if big:
                frames = [WeightedFrame.from_tokens([[(-1) ** i * 1e308, 1.0, 0.0]] * 2, i)
                          for i in range(6)]
            consolidate(frames, question, ConsolidationConfig(capacity=6, base_target=2))

    def test_report_dict_round_trips_trace(self, rng):
        out, report = consolidate(make_frames(rng, 6, 1, 3), None,
                                  ConsolidationConfig(capacity=6, base_target=2))
        d = report.to_dict()
        assert d["input_count"] == 6
        assert d["target"] == 2
        assert len(d["trace"]) == 4
        assert d["trace"][0][0] == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_question_scale_leaves_output_alone(self, seed):
        r = np.random.default_rng(seed)
        frames = [WeightedFrame.from_tokens(r.standard_normal((2, 4)), i)
                  for i in range(8)]
        q = r.standard_normal(4)
        cfg = ConsolidationConfig(capacity=8, base_target=3)
        out_a, rep_a = consolidate(frames, q, cfg)
        out_b, rep_b = consolidate(frames, 0.125 * q, cfg)
        assert abs(rep_a.relevance - rep_b.relevance) < 1e-12
        assert rep_a.target == rep_b.target
        for a, b in zip(out_a, out_b):
            assert np.array_equal(a.tokens, b.tokens)
