from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mces import (
    DimensionMismatch,
    WeightedFrame,
    ZeroNorm,
    as_token_matrix,
    cosine,
    frame_descriptor,
    frame_pair_similarity,
    merge_provenance,
    provenance_mass,
    unit_interval,
    weighted_merge,
)

import oracles
from conftest import make_frames


class TestTokenMatrix:
    def test_returns_readonly_float64(self):
        a = as_token_matrix([[1, 2], [3, 4]])
        assert a.dtype == np.float64
        assert a.flags.c_contiguous
        with pytest.raises(ValueError):
            a[0, 0] = 5.0

    def test_copies_float64_input(self):
        # the caller's array stays writable and later writes do not leak in
        x = np.ones((2, 3))
        a = as_token_matrix(x)
        assert x.flags.writeable
        x[0, 0] = 5.0
        assert a[0, 0] == 1.0

    def test_float32_input_upcast(self):
        a = as_token_matrix(np.ones((2, 3), dtype=np.float32))
        assert a.dtype == np.float64

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionMismatch):
            as_token_matrix([1.0, 2.0])
        with pytest.raises(DimensionMismatch):
            as_token_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty_axes(self):
        with pytest.raises(DimensionMismatch):
            as_token_matrix(np.zeros((0, 4)))
        with pytest.raises(DimensionMismatch):
            as_token_matrix(np.zeros((4, 0)))

    def test_rejects_non_finite(self):
        bad = np.ones((2, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            as_token_matrix(bad)
        bad[1, 1] = np.inf
        with pytest.raises(ValueError):
            as_token_matrix(bad)


class TestProvenance:
    def test_unit_interval(self):
        assert unit_interval(3) == ((3, 4, 1),)
        with pytest.raises(ValueError):
            unit_interval(-1)

    def test_mass_counts_multiplicity(self):
        assert provenance_mass(((0, 4, 2), (4, 6, 1))) == 10

    def test_merge_disjoint(self):
        assert merge_provenance(((0, 2, 1),), ((5, 7, 1),)) == ((0, 2, 1), (5, 7, 1))

    def test_merge_adjacent_coalesces(self):
        assert merge_provenance(((0, 2, 1),), ((2, 4, 1),)) == ((0, 4, 1),)

    def test_merge_overlap_sums_counts(self):
        out = merge_provenance(((0, 4, 1),), ((2, 6, 1),))
        assert out == ((0, 2, 1), (2, 4, 2), (4, 6, 1))

    def test_merge_identical_doubles(self):
        assert merge_provenance(((1, 3, 2),), ((1, 3, 2),)) == ((1, 3, 4),)

    def test_merge_empty(self):
        assert merge_provenance((), ()) == ()
        assert merge_provenance(((0, 1, 1),), ()) == ((0, 1, 1),)

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 5), st.integers(1, 3)),
            max_size=5,
        ),
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 5), st.integers(1, 3)),
            max_size=5,
        ),
    )
    def test_merge_matches_multiset_union(self, raw_a, raw_b):
        # Build non-overlapping sorted records from arbitrary (start, span, count)
        # triples, then check the merged record against a plain Counter union.
        def to_record(raw):
            out, cursor = [], 0
            for start, span, count in raw:
                lo = max(cursor, start)
                out.append((lo, lo + span, count))
                cursor = lo + span
            return tuple(out)

        a, b = to_record(raw_a), to_record(raw_b)
        merged = merge_provenance(a, b)
        assert oracles.prov_counter(merged) == (
            oracles.prov_counter(a) + oracles.prov_counter(b)
        )
        # canonical form: sorted, non-overlapping, maximally coalesced
        for (s0, e0, c0), (s1, e1, c1) in zip(merged, merged[1:]):
            assert e0 <= s1
            assert not (e0 == s1 and c0 == c1)


def quadratic_merge_provenance(a, b):
    """merge_provenance as it was before the linear sweep: every piece
    between consecutive boundaries sums the count of every interval."""
    ivals = list(a) + list(b)
    if not ivals:
        return ()
    points = sorted({p for start, stop, _ in ivals for p in (start, stop)})
    out = []
    for lo, hi in zip(points, points[1:]):
        count = sum(c for s, e, c in ivals if s <= lo and hi <= e)
        if count == 0:
            continue
        if out and out[-1][1] == lo and out[-1][2] == count:
            out[-1][1] = hi
        else:
            out.append([lo, hi, count])
    return tuple((s, e, c) for s, e, c in out)


# a valid provenance record: sorted, non-overlapping, possibly touching and
# not coalesced, as (gap before, span, count) steps
records = st.lists(
    st.tuples(st.integers(0, 3), st.integers(1, 4), st.integers(1, 3)), max_size=40,
).map(lambda steps: tuple(
    (lo, lo + span, count) for lo, span, count in _laid_out(steps)))


def _laid_out(steps):
    cursor = 0
    for gap, span, count in steps:
        yield cursor + gap, span, count
        cursor += gap + span


class TestMergeProvenanceSweep:
    @given(records, records)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_quadratic_version(self, a, b):
        got = merge_provenance(a, b)
        assert got == quadratic_merge_provenance(a, b)
        assert all(type(v) is int for iv in got for v in iv)
        assert provenance_mass(got) == provenance_mass(a) + provenance_mass(b)

    def test_long_interleaved_records(self):
        # the sizes long-term entries reach on long streams (hundreds of
        # intervals each), where the quadratic version took tens of ms
        a = tuple((3 * i, 3 * i + 2, 1) for i in range(379))
        b = tuple((3 * i + 1, 3 * i + 3, 2) for i in range(379))
        assert merge_provenance(a, b) == quadratic_merge_provenance(a, b)
        assert merge_provenance(b, a) == merge_provenance(a, b)


class TestWeightedFrame:
    def test_from_tokens(self):
        f = WeightedFrame.from_tokens(np.ones((2, 3)), 7)
        assert f.weight == 1
        assert f.provenance == ((7, 8, 1),)
        assert not f.context_flag
        assert f.n_tokens == 2 and f.dims == 3

    def test_mass_must_match_weight(self):
        with pytest.raises(ValueError):
            WeightedFrame(np.ones((1, 2)), weight=2, provenance=((0, 1, 1),))

    def test_weight_floor(self):
        with pytest.raises(ValueError):
            WeightedFrame(np.ones((1, 2)), weight=0, provenance=())

    def test_as_context(self):
        f = WeightedFrame.from_tokens(np.ones((1, 2)), 0)
        g = f.as_context()
        assert g.context_flag and not f.context_flag
        assert g.as_context() is g
        assert np.array_equal(g.tokens, f.tokens)

    def test_as_context_shares_tokens_and_norms(self, rng):
        f = WeightedFrame.from_tokens(rng.standard_normal((3, 4)), 0)
        g = f.as_context()
        assert g.tokens is f.tokens
        assert g.norms is f.norms
        assert g.provenance == f.provenance and g.weight == f.weight

    def test_norms_cached_and_read_only(self, rng):
        f = WeightedFrame.from_tokens(rng.standard_normal((3, 5)), 0)
        assert f.norms is f.norms
        assert np.array_equal(f.norms, np.sqrt(np.sum(f.tokens * f.tokens, axis=1)))
        with pytest.raises(ValueError):
            f.norms[0] = 1.0
        with pytest.raises(AttributeError):
            f.norms = np.ones(3)

    def test_tokens_frozen(self):
        f = WeightedFrame.from_tokens(np.ones((1, 2)), 0)
        with pytest.raises(ValueError):
            f.tokens[0, 0] = 9.0


class TestCosine:
    def test_parallel(self):
        v = np.array([1.0, 2.0, 2.0])
        c = cosine(v, v)
        assert c <= 1.0
        assert abs(c - 1.0) < 1e-12

    def test_orthogonal_and_opposite(self):
        assert cosine([1, 0], [0, 1]) == 0.0
        c = cosine([1.0, 0.0], [-1.0, 0.0])
        assert c >= -1.0
        assert abs(c + 1.0) < 1e-12

    def test_scale_invariant(self):
        u = np.array([0.3, -1.2, 0.7])
        v = np.array([-0.5, 0.1, 2.0])
        assert abs(cosine(u, v) - cosine(3.0 * u, 0.25 * v)) < 1e-12

    def test_zero_norm_refused(self):
        with pytest.raises(ZeroNorm):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ZeroNorm):
            cosine([1.0, 0.0], [1e-13, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            cosine(np.ones((2, 2)), np.ones(4))


class TestFrameDescriptor:
    def test_unit_norm(self, rng):
        d = frame_descriptor(rng.standard_normal((5, 8)))
        assert abs(float(np.linalg.norm(d)) - 1.0) < 1e-12

    def test_direction_is_token_mean(self):
        tokens = np.array([[2.0, 0.0], [0.0, 2.0]])
        d = frame_descriptor(tokens)
        expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert np.allclose(d, expected, atol=1e-12)

    def test_accepts_weighted_frame(self, rng):
        f = WeightedFrame.from_tokens(rng.standard_normal((3, 4)), 0)
        assert np.array_equal(frame_descriptor(f), frame_descriptor(f.tokens))

    def test_cancelling_tokens_degenerate(self):
        with pytest.raises(ZeroNorm):
            frame_descriptor(np.array([[1.0, 0.0], [-1.0, 0.0]]))


class TestPairSimilarity:
    def test_single_token_equals_cosine(self, rng):
        a = rng.standard_normal((1, 6))
        b = rng.standard_normal((1, 6))
        assert frame_pair_similarity(a, b) == cosine(a[0], b[0])

    def test_matches_row_loop(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 8))
            b = rng.standard_normal((4, 8))
            slow = np.mean([cosine(a[j], b[j]) for j in range(4)])
            assert abs(frame_pair_similarity(a, b) - slow) < 1e-12

    def test_identical_frames_near_one(self, rng):
        a = rng.standard_normal((3, 5))
        s = frame_pair_similarity(a, a)
        assert s <= 1.0
        assert abs(s - 1.0) < 1e-12

    def test_zero_token_reports_row(self):
        a = np.ones((3, 2))
        b = np.ones((3, 2))
        b[1] = 0.0
        with pytest.raises(ZeroNorm) as err:
            frame_pair_similarity(a, b)
        assert err.value.token_index == 1

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            frame_pair_similarity(rng.standard_normal((2, 3)), rng.standard_normal((3, 3)))

    @pytest.mark.parametrize("bad, error", [
        ([[1.0, np.inf, 0.0]], ValueError),
        ([[1.0, np.nan, 0.0]], ValueError),
        (np.zeros((0, 3)), DimensionMismatch),
    ], ids=["inf", "nan", "empty"])
    def test_bare_matrix_is_validated_as_a_frame(self, bad, error):
        bad = np.asarray(bad)
        good = np.ones(bad.shape)
        for pair in ((bad, good), (good, bad)):
            with pytest.raises(error):
                frame_pair_similarity(*pair)

    def test_cached_norms_give_the_bare_array_value(self, rng):
        a, b = make_frames(rng, 2, 16, 300)
        want = frame_pair_similarity(a.tokens, b.tokens)
        assert frame_pair_similarity(a, b) == want
        assert frame_pair_similarity(a, b.tokens) == want
        assert frame_pair_similarity(a.tokens, b) == want

    @pytest.mark.parametrize("side", [0, 1])
    def test_zero_token_in_a_frame_reports_row(self, side):
        frames = [WeightedFrame.from_tokens(np.ones((3, 2)), 0),
                  WeightedFrame.from_tokens([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]], 1)]
        if side:
            frames.reverse()
        with pytest.raises(ZeroNorm) as err:
            frame_pair_similarity(*frames)
        assert err.value.token_index == 2
        assert f"token 2 of {('second', 'first')[side]} frame" in str(err.value)


class TestWeightedMerge:
    def test_two_unit_frames_average(self):
        a = WeightedFrame.from_tokens([[2.0, 0.0]], 0)
        b = WeightedFrame.from_tokens([[0.0, 4.0]], 1)
        m = weighted_merge(a, b)
        assert m.weight == 2
        assert m.provenance == ((0, 2, 1),)
        assert np.array_equal(m.tokens, np.array([[1.0, 2.0]]))

    def test_weights_bias_the_mean(self):
        a = WeightedFrame([[3.0]], weight=3, provenance=((0, 3, 1),))
        b = WeightedFrame([[7.0]], weight=1, provenance=((3, 4, 1),))
        m = weighted_merge(a, b)
        assert m.tokens[0, 0] == (3 * 3.0 + 1 * 7.0) / 4
        assert m.weight == 4
        assert m.provenance == ((0, 4, 1),)

    def test_context_flag_survives_only_when_both(self):
        base = WeightedFrame.from_tokens([[1.0, 1.0]], 0)
        ctx = WeightedFrame.from_tokens([[1.0, 1.0]], 1).as_context()
        assert not weighted_merge(base, base).context_flag
        assert not weighted_merge(base, ctx).context_flag
        assert not weighted_merge(ctx, base).context_flag
        assert weighted_merge(ctx, ctx.as_context()).context_flag

    def test_shape_mismatch(self, rng):
        a = WeightedFrame.from_tokens(rng.standard_normal((2, 3)), 0)
        b = WeightedFrame.from_tokens(rng.standard_normal((2, 4)), 1)
        with pytest.raises(DimensionMismatch):
            weighted_merge(a, b)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_merge_commutes_in_value(self, seed):
        r = np.random.default_rng(seed)
        a = WeightedFrame.from_tokens(r.standard_normal((3, 4)), 0)
        b = WeightedFrame.from_tokens(r.standard_normal((3, 4)), 1)
        ab, ba = weighted_merge(a, b), weighted_merge(b, a)
        assert np.allclose(ab.tokens, ba.tokens, atol=1e-12)
        assert ab.weight == ba.weight
        assert ab.provenance == ba.provenance

    @given(st.integers(0, 2**32 - 1), st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_any_merge_tree_preserves_the_mean(self, seed, count):
        # Fold a random sequence of adjacent merges down to one frame; the
        # result must equal the plain mean of the originals.
        r = np.random.default_rng(seed)
        originals = [r.standard_normal((2, 3)) for _ in range(count)]
        frames = [WeightedFrame.from_tokens(t, i) for i, t in enumerate(originals)]
        while len(frames) > 1:
            i = int(r.integers(0, len(frames) - 1))
            frames[i : i + 2] = [weighted_merge(frames[i], frames[i + 1])]
        final = frames[0]
        assert final.weight == count
        assert final.provenance == ((0, count, 1),)
        assert np.allclose(final.tokens, np.mean(originals, axis=0), atol=1e-9)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6),
           st.booleans(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_merged_frame_passes_the_public_constructor(self, seed, wa, wb, ca, cb):
        r = np.random.default_rng(seed)
        shape = (int(r.integers(1, 5)), int(r.integers(1, 9)))
        a = WeightedFrame(r.standard_normal(shape), weight=wa,
                          provenance=((0, wa, 1),), context_flag=ca)
        b = WeightedFrame(r.standard_normal(shape), weight=wb,
                          provenance=((wa, wa + wb, 1),), context_flag=cb)
        m = weighted_merge(a, b)
        rebuilt = WeightedFrame(m.tokens, weight=m.weight, provenance=m.provenance,
                                context_flag=m.context_flag)
        assert np.array_equal(rebuilt.tokens, m.tokens)
        assert rebuilt.provenance == m.provenance
        assert np.array_equal(rebuilt.norms, m.norms)
        assert not m.tokens.flags.writeable and not m.norms.flags.writeable
        assert m.tokens.dtype == np.float64 and m.tokens.flags.c_contiguous

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("weights", [(1, 1), (2, 1), (1, 3), (2, 3)])
    def test_overflowing_merge_raises(self, weights):
        wa, wb = weights
        a = WeightedFrame(np.full((2, 3), 1e308), weight=wa, provenance=((0, wa, 1),))
        b = WeightedFrame(np.full((2, 3), 1e308), weight=wb,
                          provenance=((wa, wa + wb, 1),))
        with pytest.raises(ValueError):
            weighted_merge(a, b)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_merge_with_overflowing_norms_is_kept(self):
        a = WeightedFrame.from_tokens(np.full((2, 3), 1e200), 0)
        m = weighted_merge(a, WeightedFrame.from_tokens(np.full((2, 3), 3e200), 1))
        assert np.array_equal(m.tokens, np.full((2, 3), 2e200))
        assert np.isinf(m.norms).all()

    def test_merge_matches_oracle_arithmetic(self, rng):
        frames = make_frames(rng, 2, 3, 5)
        lib = weighted_merge(frames[0], frames[1])
        ora = oracles.merge_entries(
            oracles.entry_from_frame(frames[0]), oracles.entry_from_frame(frames[1])
        )
        assert np.array_equal(lib.tokens, ora.tokens)
        assert lib.weight == ora.weight
        assert oracles.prov_counter(lib.provenance) == ora.sources
