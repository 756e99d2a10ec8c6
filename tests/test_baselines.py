from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from mces import (
    DegenerateFrameWarning,
    EmptyInput,
    InvalidLambda,
    InvalidSpec,
    ema,
    no_memory,
    spatial_pool,
    temporal_pool,
    token_budget,
    uniform_sample_indices,
)


class OnePass:
    """A frame source with a length that may be iterated only once."""

    def __init__(self, frames):
        self.frames, self.passes, self.held, self.peak = frames, 0, [], 0

    def __len__(self):
        return len(self.frames)

    def __iter__(self):
        self.passes += 1
        assert self.passes == 1, "iterated twice"
        for f in self.frames:
            # a fresh copy per frame, so a test can see which ones are kept
            f = f.copy()
            self.held.append(weakref.ref(f))
            self.peak = max(self.peak, self.alive())
            yield f

    def alive(self):
        # input frames still referenced by anyone
        return sum(ref() is not None for ref in self.held)


class TestOnePass:
    """Every baseline reads its input in one pass, holding what it keeps."""

    @pytest.mark.parametrize("policy", [no_memory, spatial_pool, temporal_pool, ema])
    def test_one_pass_matches_the_array(self, rng, policy):
        frames = rng.standard_normal((40, 2, 3))
        source = OnePass(frames)
        got, want = policy(source), policy(frames)
        got, want = (got, want) if isinstance(got, list) else ([got], [want])
        assert [f.provenance for f in got] == [f.provenance for f in want]
        for g, w in zip(got, want):
            assert np.array_equal(g.tokens, w.tokens)
        assert source.passes == 1
        # the frame being read and the one before it, never the stream
        assert source.peak <= 2
        gc.collect()
        assert source.alive() == 0

    def test_no_memory_keeps_the_sample_indices_of_t(self, rng):
        kept = no_memory(OnePass(rng.standard_normal((40, 2, 3))), sample_count=4)
        assert [f.provenance[0][0] for f in kept] == [0, 10, 20, 30]

    @pytest.mark.parametrize("policy", [no_memory, spatial_pool, temporal_pool, ema])
    def test_a_generator_is_accepted(self, rng, policy):
        frames = rng.standard_normal((9, 2, 3))
        got, want = policy(iter(frames)), policy(frames)
        got, want = (got, want) if isinstance(got, list) else ([got], [want])
        for g, w in zip(got, want):
            assert np.array_equal(g.tokens, w.tokens)

    @pytest.mark.parametrize("policy", [spatial_pool, temporal_pool, ema])
    def test_empty_iterable(self, policy):
        with pytest.raises(EmptyInput):
            policy(iter([]))


class TestUniformSample:
    @pytest.mark.parametrize("total,count,want", [
        (16, 16, list(range(16))),
        (32, 16, list(range(0, 32, 2))),
        (5, 16, [0, 1, 2, 3, 4]),
        (8, 4, [0, 2, 4, 6]),
        (1, 3, [0]),
    ])
    def test_values(self, total, count, want):
        assert uniform_sample_indices(total, count) == want

    def test_validation(self):
        with pytest.raises(InvalidSpec):
            uniform_sample_indices(0, 4)
        with pytest.raises(InvalidSpec):
            uniform_sample_indices(4, 0)


class TestNoMemory:
    def test_short_stream_is_identity(self, rng):
        frames = rng.standard_normal((16, 2, 4))
        kept = no_memory(frames, sample_count=16)
        assert len(kept) == 16
        for i, f in enumerate(kept):
            assert np.array_equal(f.tokens, frames[i])
            assert f.provenance == ((i, i + 1, 1),)
            assert f.weight == 1

    def test_long_stream_subsamples(self, rng):
        kept = no_memory(rng.standard_normal((100, 1, 2)), sample_count=10)
        assert [f.provenance[0][0] for f in kept] == list(range(0, 100, 10))

    def test_list_input_matches_array_input(self, rng):
        frames = rng.standard_normal((6, 2, 3))
        a = no_memory(frames, sample_count=4)
        b = no_memory(list(frames), sample_count=4)
        for x, y in zip(a, b):
            assert np.array_equal(x.tokens, y.tokens)

    def test_empty(self):
        with pytest.raises(EmptyInput):
            no_memory(np.zeros((0, 1, 2)))

    def test_two_dimensional_array_refused(self):
        with pytest.raises(InvalidSpec, match=r"expected \(T, N, D\) frames"):
            no_memory(np.zeros((4, 3)))


class TestSpatialPool:
    def test_one_token_per_frame(self, rng):
        frames = rng.standard_normal((5, 3, 4))
        pooled = spatial_pool(frames)
        assert len(pooled) == 5
        for i, f in enumerate(pooled):
            assert f.tokens.shape == (1, 4)
            assert np.allclose(f.tokens[0], frames[i].mean(axis=0), atol=1e-12)
            assert f.weight == 1

    def test_degenerate_frame_warns(self):
        frames = np.array([[[1.0, 0.0], [-1.0, 0.0]]])
        with pytest.warns(DegenerateFrameWarning):
            spatial_pool(frames)


class TestTemporalPool:
    def test_equals_time_mean(self, rng):
        frames = rng.standard_normal((7, 2, 3))
        pooled = temporal_pool(frames)
        slow = sum(np.asarray(f, dtype=np.float64) for f in frames) / 7
        assert np.allclose(pooled.tokens, slow, atol=1e-12)
        assert pooled.weight == 7
        assert pooled.provenance == ((0, 7, 1),)

    @pytest.mark.parametrize("shape", [(8, 32), (16, 128), (32, 256)])
    def test_bitwise_equal_to_the_stacked_mean(self, rng, shape):
        # the running float64 sum in frame order is the stacked mean's own order
        frames = rng.standard_normal((50, *shape)).astype(np.float32)
        stacked = np.stack([np.asarray(f, dtype=np.float64) for f in frames])
        assert np.array_equal(temporal_pool(frames).tokens, stacked.mean(axis=0))

    def test_cancelling_stream_warns(self, rng):
        f = rng.standard_normal((1, 2, 3))
        with pytest.warns(DegenerateFrameWarning):
            temporal_pool(np.concatenate([f, -f]))


class TestEma:
    def test_zero_decay_keeps_last_frame(self, rng):
        frames = rng.standard_normal((9, 2, 4))
        out = ema(frames, decay=0.0)
        assert np.array_equal(out.tokens, frames[-1])
        assert out.weight == 9
        assert out.provenance == ((0, 9, 1),)

    def test_matches_closed_form(self, rng):
        frames = rng.standard_normal((3, 1, 2))
        out = ema(frames, decay=0.5)
        x0, x1, x2 = (np.asarray(f, dtype=np.float64) for f in frames)
        want = 0.25 * x0 + 0.25 * x1 + 0.5 * x2
        assert np.allclose(out.tokens, want, atol=1e-12)

    def test_single_frame(self, rng):
        frames = rng.standard_normal((1, 2, 3))
        assert np.array_equal(ema(frames, decay=0.9).tokens, frames[0])

    def test_decay_range(self, rng):
        frames = rng.standard_normal((2, 1, 2))
        with pytest.raises(InvalidLambda):
            ema(frames, decay=1.0)
        with pytest.raises(InvalidLambda):
            ema(frames, decay=-0.1)


class TestTokenBudget:
    def test_per_policy(self):
        kw = dict(frame_count=100, n_tokens=32)
        assert token_budget("no_memory", sample_count=16, **kw) == 16 * 32
        assert token_budget("no_memory", sample_count=200, **kw) == 100 * 32
        assert token_budget("spatial_pool", **kw) == 100
        assert token_budget("temporal_pool", **kw) == 32
        assert token_budget("ema", **kw) == 32
        assert token_budget("stream_merge", ltm_capacity=256, **kw) == 256 * 32
        assert token_budget("question_merge", ltm_capacity=256, **kw) == 256 * 32

    def test_merge_policies_need_capacity(self):
        with pytest.raises(InvalidSpec):
            token_budget("stream_merge", frame_count=10, n_tokens=4)

    def test_unknown_policy(self):
        with pytest.raises(InvalidSpec):
            token_budget("keep_everything", frame_count=10, n_tokens=4)
