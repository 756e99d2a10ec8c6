from __future__ import annotations

import gc
import io
import os
import struct
import tracemalloc

import numpy as np
import pytest

from mces import (
    HEADER_SIZE,
    BadMagic,
    ConsolidationConfig,
    ExperimentSpec,
    InvalidSpec,
    IoFailure,
    NonFiniteValue,
    ShapeMismatch,
    StreamFormatError,
    StreamHeader,
    SyntheticSpec,
    Truncated,
    UnsupportedVersion,
    cosine,
    frame_descriptor,
    generate_synthetic,
    iter_stream,
    iter_synthetic,
    read_stream,
    run,
    write_stream,
)
from mces import streamio

_HEADER = struct.Struct("<4sHIHHH4s")


def rt(frames, question=None):
    buf = io.BytesIO()
    write_stream(buf, frames, question)
    return read_stream(buf.getvalue())


class TestHeader:
    def test_packed_size(self):
        h = StreamHeader(frame_count=1, n_tokens=1, dims=2, has_question=False)
        assert len(h.pack()) == HEADER_SIZE == 20

    def test_total_bytes_without_question(self):
        h = StreamHeader(frame_count=1, n_tokens=1, dims=2, has_question=False)
        assert h.frame_bytes() == 8
        assert h.total_bytes() == 28

    def test_total_bytes_with_question(self):
        h = StreamHeader(frame_count=1, n_tokens=4, dims=2, has_question=True)
        assert h.total_bytes() == 20 + 8 + 32 == 60

    def test_range_validation(self):
        with pytest.raises(InvalidSpec):
            StreamHeader(frame_count=0, n_tokens=1, dims=1, has_question=False)
        with pytest.raises(InvalidSpec):
            StreamHeader(frame_count=1, n_tokens=0x10000, dims=1, has_question=False)
        with pytest.raises(InvalidSpec):
            StreamHeader(frame_count=1, n_tokens=1, dims=0, has_question=False)

    @pytest.mark.parametrize("frame_count", [1.5, True, "1"])
    def test_frame_count_read_by_checked(self, tmp_path, frame_count):
        # 1.5 used to raise struct.error from the header's pack, True to be read as 1
        with pytest.raises(InvalidSpec, match="frame_count must be of type int"):
            write_stream(tmp_path / "s.mces", [np.zeros((1, 2))], frame_count=frame_count)
        assert os.listdir(tmp_path) == []


class TestRoundTrip:
    def test_file_sizes_on_disk(self, tmp_path):
        p = tmp_path / "a.mces"
        n = write_stream(p, np.zeros((1, 1, 2), dtype=np.float32))
        assert n == p.stat().st_size == 28
        p2 = tmp_path / "b.mces"
        n = write_stream(p2, np.zeros((1, 4, 2), dtype=np.float32),
                         question=np.ones(2, dtype=np.float32))
        assert n == p2.stat().st_size == 60

    def test_bitwise_round_trip(self, rng):
        frames = rng.standard_normal((7, 3, 5)).astype(np.float32)
        q = rng.standard_normal(5).astype(np.float32)
        header, back, qback = rt(frames, q)
        assert (header.frame_count, header.n_tokens, header.dims) == (7, 3, 5)
        assert header.has_question
        assert back.dtype == np.float32
        assert np.array_equal(back, frames)
        assert np.array_equal(qback, q)

    def test_no_question_round_trip(self, rng):
        frames = rng.standard_normal((2, 2, 3)).astype(np.float32)
        header, back, q = rt(frames)
        assert not header.has_question
        assert q is None
        assert np.array_equal(back, frames)

    def test_float64_input_stored_at_32_bits(self, rng):
        frames = rng.standard_normal((3, 2, 4))
        _, back, _ = rt(frames)
        assert np.array_equal(back, frames.astype(np.float32))

    def test_path_and_handle_and_bytes_sources_agree(self, tmp_path, rng):
        frames = rng.standard_normal((4, 2, 3)).astype(np.float32)
        p = tmp_path / "s.mces"
        write_stream(p, frames)
        _, from_path, _ = read_stream(p)
        with open(p, "rb") as fh:
            _, from_handle, _ = read_stream(fh)
        _, from_bytes, _ = read_stream(p.read_bytes())
        assert np.array_equal(from_path, from_handle)
        assert np.array_equal(from_path, from_bytes)

    def test_iterable_write_matches_array_write(self, rng):
        frames = rng.standard_normal((5, 2, 3)).astype(np.float32)
        a, b = io.BytesIO(), io.BytesIO()
        write_stream(a, frames)
        write_stream(b, (f for f in frames), frame_count=5)
        assert a.getvalue() == b.getvalue()


class TestWriteValidation:
    def test_wrong_rank(self):
        with pytest.raises(ShapeMismatch):
            write_stream(io.BytesIO(), np.zeros((2, 3)))

    def test_frame_count_disagrees_with_array(self):
        with pytest.raises(ShapeMismatch):
            write_stream(io.BytesIO(), np.zeros((2, 1, 2)), frame_count=3)

    def test_iterable_needs_frame_count(self):
        with pytest.raises(InvalidSpec):
            write_stream(io.BytesIO(), iter([np.zeros((1, 2))]))

    def test_iterable_too_short_and_too_long(self):
        frames = [np.zeros((1, 2), dtype=np.float32)] * 2
        with pytest.raises(ShapeMismatch):
            write_stream(io.BytesIO(), iter(frames), frame_count=3)
        with pytest.raises(ShapeMismatch):
            write_stream(io.BytesIO(), iter(frames), frame_count=1)

    def test_empty_iterable(self):
        with pytest.raises(InvalidSpec):
            write_stream(io.BytesIO(), iter([]), frame_count=1)

    def test_ragged_iterable(self):
        frames = [np.zeros((1, 2)), np.zeros((1, 3))]
        with pytest.raises(ShapeMismatch):
            write_stream(io.BytesIO(), iter(frames), frame_count=2)

    def test_question_shape(self):
        with pytest.raises(ShapeMismatch):
            write_stream(io.BytesIO(), np.zeros((1, 1, 2)), question=np.zeros(3))

    def test_non_finite_frame_refused(self):
        bad = np.zeros((1, 2, 2))
        bad[0, 1, 0] = np.nan
        with pytest.raises(NonFiniteValue) as err:
            write_stream(io.BytesIO(), bad)
        assert err.value.frame_index == 0
        assert err.value.token_index == 1

    def test_non_finite_question_refused(self):
        with pytest.raises(NonFiniteValue):
            write_stream(io.BytesIO(), np.zeros((1, 1, 2)),
                         question=np.array([1.0, np.inf]))


class TestRefusedWrite:
    """A refused write to a path leaves the path as it was, and no temp file."""

    @pytest.mark.parametrize("frames, frame_count, error", [
        ([np.zeros((1, 2))] * 2, 3, ShapeMismatch),
        (np.zeros((3, 1, 2)), 2, ShapeMismatch),
        (np.array([[[0.0, 0.0]], [[np.nan, 0.0]]]), None, NonFiniteValue),
    ], ids=["short_iterable", "over_long_array", "non_finite_frame"])
    def test_existing_file_untouched(self, tmp_path, rng, frames, frame_count, error):
        path = tmp_path / "s.mces"
        write_stream(path, rng.standard_normal((4, 1, 2)))
        before = path.read_bytes()
        with pytest.raises(error):
            write_stream(path, frames, frame_count=frame_count)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["s.mces"]

    def test_new_path_not_created(self, tmp_path):
        with pytest.raises(ShapeMismatch):
            write_stream(tmp_path / "s.mces", np.zeros((3, 1, 2)), frame_count=2)
        assert os.listdir(tmp_path) == []

    def test_unwritable_path_is_an_io_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            write_stream(tmp_path / "missing" / "s.mces", np.zeros((1, 1, 2)))
        assert os.listdir(tmp_path) == []

    def test_success_replaces_the_file(self, tmp_path, rng):
        path = tmp_path / "s.mces"
        write_stream(path, rng.standard_normal((4, 1, 2)))
        frames = rng.standard_normal((2, 1, 2)).astype(np.float32)
        write_stream(str(path).encode(), frames)
        assert np.array_equal(read_stream(path)[1], frames)
        assert os.listdir(tmp_path) == ["s.mces"]


class TestReadValidation:
    def payload(self, t=1, n=1, d=2):
        return b"\x00" * (t * n * d * 4)

    def test_bad_magic(self):
        raw = _HEADER.pack(b"XXXX", 1, 1, 1, 2, 0, b"\x00" * 4) + self.payload()
        with pytest.raises(BadMagic):
            read_stream(raw)

    def test_unsupported_version(self):
        raw = _HEADER.pack(b"MCES", 2, 1, 1, 2, 0, b"\x00" * 4) + self.payload()
        with pytest.raises(UnsupportedVersion):
            read_stream(raw)

    def test_reserved_must_be_zero(self):
        raw = _HEADER.pack(b"MCES", 1, 1, 1, 2, 0, b"\x00\x01\x00\x00") + self.payload()
        with pytest.raises(StreamFormatError):
            read_stream(raw)

    def test_zero_counts_rejected(self):
        raw = _HEADER.pack(b"MCES", 1, 0, 1, 2, 0, b"\x00" * 4)
        with pytest.raises(StreamFormatError):
            read_stream(raw)

    def test_truncated_header(self):
        with pytest.raises(Truncated):
            read_stream(b"MCES\x01\x00")

    def test_truncated_payload(self):
        good = io.BytesIO()
        write_stream(good, np.zeros((2, 1, 2), dtype=np.float32))
        with pytest.raises(Truncated):
            read_stream(good.getvalue()[:-4])

    def test_truncated_question(self):
        h = StreamHeader(frame_count=1, n_tokens=1, dims=4, has_question=True)
        with pytest.raises(Truncated):
            read_stream(h.pack() + b"\x00" * 8)

    def test_non_finite_payload_located(self):
        h = StreamHeader(frame_count=2, n_tokens=2, dims=2, has_question=False)
        frames = np.zeros((2, 2, 2), dtype="<f4")
        frames[1, 0, 1] = np.nan
        with pytest.raises(NonFiniteValue) as err:
            read_stream(h.pack() + frames.tobytes())
        assert err.value.frame_index == 1
        assert err.value.token_index == 0

    def test_non_finite_question(self):
        h = StreamHeader(frame_count=1, n_tokens=1, dims=2, has_question=True)
        q = np.array([np.nan, 0.0], dtype="<f4")
        raw = h.pack() + q.tobytes() + self.payload()
        with pytest.raises(NonFiniteValue):
            read_stream(raw)

    def test_payload_is_held_once(self, tmp_path, rng):
        path = str(tmp_path / "s.mces")
        write_stream(path, rng.standard_normal((500, 16, 128)).astype(np.float32))
        tracemalloc.start()
        try:
            _, frames, _ = read_stream(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one payload buffer plus the isfinite mask (a quarter of it)
        assert peak < 1.3 * frames.nbytes
        assert frames.flags.writeable

    def test_trailing_bytes_ignored(self, rng):
        frames = rng.standard_normal((1, 1, 2)).astype(np.float32)
        buf = io.BytesIO()
        write_stream(buf, frames)
        _, back, _ = read_stream(buf.getvalue() + b"junk")
        assert np.array_equal(back, frames)


class TestIterStream:
    """The chunked reader yields read_stream's frames, checks them and closes its file."""

    # (N, D) frames of 64 KiB, so a chunk holds a known handful of them
    N, D = 16, 1024

    def per_chunk(self):
        return streamio._CHUNK_BYTES // (self.N * self.D * 4)

    def write(self, tmp_path, rng, t, question=True):
        path = str(tmp_path / f"s{t}.mces")
        frames = rng.standard_normal((t, self.N, self.D)).astype(np.float32)
        q = rng.standard_normal(self.D) if question else None
        write_stream(path, frames, q)
        return path

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("question", [True, False])
    def test_frames_bitwise_equal_read_stream(self, tmp_path, rng, offset, question):
        # below, at and across a chunk boundary
        path = self.write(tmp_path, rng, self.per_chunk() + offset, question)
        want_header, want, want_q = read_stream(path)
        header, q, frames = iter_stream(path)
        got = list(frames)
        assert header == want_header
        assert (q is None) == (want_q is None)
        if question:
            assert np.array_equal(q, want_q)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.float32 and g.shape == (self.N, self.D)
            assert np.array_equal(g, w)

    def test_several_chunks(self, tmp_path, rng):
        path = self.write(tmp_path, rng, 2 * self.per_chunk() + 3)
        _, want, _ = read_stream(path)
        assert np.array_equal(np.stack(list(iter_stream(path)[2])), want)

    def test_truncated_raised_before_any_frame(self, tmp_path, rng):
        path = self.write(tmp_path, rng, self.per_chunk() + 2)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 40)
        with pytest.raises(Truncated) as want:
            read_stream(path)
        with pytest.raises(Truncated) as got:
            iter_stream(path)
        assert str(got.value) == str(want.value)
        assert "wanted" in str(got.value)

    def test_truncated_question_and_header(self, tmp_path):
        h = StreamHeader(frame_count=1, n_tokens=1, dims=4, has_question=True)
        for raw in (b"MCES\x01\x00", h.pack() + b"\x00" * 8):
            path = tmp_path / "t.mces"
            path.write_bytes(raw)
            with pytest.raises(Truncated):
                iter_stream(path)

    def test_non_finite_in_second_chunk_located(self, tmp_path, rng):
        first = self.per_chunk()
        frames = rng.standard_normal((first + 3, self.N, self.D)).astype(np.float32)
        frames[first + 1, 5, 7] = np.nan
        path = str(tmp_path / "nan.mces")
        write_stream(path, np.zeros_like(frames))
        with open(path, "r+b") as fh:
            fh.seek(HEADER_SIZE)
            fh.write(frames.tobytes())
        _, _, lazy = iter_stream(path)
        seen = 0
        with pytest.raises(NonFiniteValue) as err:
            for _ in lazy:
                seen += 1
        assert seen == first
        assert err.value.frame_index == first + 1
        assert err.value.token_index == 5
        with pytest.raises(NonFiniteValue) as want:
            read_stream(path)
        assert str(err.value) == str(want.value)

    def test_closed_after_exhaustion(self, tmp_path, rng, opened):
        path = self.write(tmp_path, rng, self.per_chunk() + 1)
        _, _, frames = iter_stream(path)
        assert len(opened) == 1 and not opened[0].closed
        for _ in frames:
            pass
        assert opened[0].closed

    def test_closed_after_close_part_way(self, tmp_path, rng, opened):
        path = self.write(tmp_path, rng, self.per_chunk() + 1)
        _, _, frames = iter_stream(path)
        next(frames)
        frames.close()
        assert opened[0].closed

    def test_closed_when_never_iterated(self, tmp_path, rng, opened):
        path = self.write(tmp_path, rng, 2)
        _, _, frames = iter_stream(path)
        frames.close()
        assert opened[0].closed
        _, _, frames = iter_stream(path)
        del frames
        gc.collect()
        assert opened[1].closed

    def test_closed_when_the_head_is_refused(self, tmp_path, rng, opened):
        path = self.write(tmp_path, rng, 2)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 4)
        with pytest.raises(Truncated):
            iter_stream(path)
        assert opened[0].closed

    def test_one_chunk_held_at_a_time(self, tmp_path, rng, monkeypatch):
        # the loop variable still holds the previous chunk's last frame while
        # the next chunk is read; that frame must not keep its chunk alive
        monkeypatch.setattr(streamio, "_CHUNK_BYTES", 4 * self.N * self.D * 4)
        chunk = streamio._CHUNK_BYTES
        peaks = []
        for chunks in (1, 4):
            path = self.write(tmp_path, rng, chunks * self.per_chunk())
            gc.collect()
            tracemalloc.start()
            try:
                _, _, frames = iter_stream(path)
                seen = 0
                for frame in frames:
                    seen += 1
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert seen == chunks * self.per_chunk()
            del frame
        assert peaks[1] <= peaks[0] + chunk / 2, peaks

    def test_run_heap_is_flat_in_stream_length(self, tmp_path, monkeypatch):
        # a 4 KiB chunk (16 frames of (4, 16)) keeps each stream many chunks
        # long at lengths tracemalloc can trace in about a second
        monkeypatch.setattr(streamio, "_CHUNK_BYTES", 4096)
        cfg = ConsolidationConfig(capacity=8, base_target=4, alpha=0.25)
        peaks = []
        for t in (256, 1024):
            path = str(tmp_path / f"s{t}.mces")
            q, frames = iter_synthetic(SyntheticSpec(frame_count=t, n_tokens=4, dims=16))
            write_stream(path, frames, q, frame_count=t)
            spec = ExperimentSpec(stream_file=path, cfg=cfg, ltm_capacity=16,
                                  reinit_mode="none", policies=("question_merge",))
            # an untraced run first fills the interpreter's free lists, and gc
            # stays off so that no full collection empties them mid-run; the
            # traced run then counts only what the run itself holds
            last = []
            run(spec, _last_pipeline=last)
            assert len(last[0].long) == 16  # the long-term store is full
            gc.disable()
            tracemalloc.start()
            try:
                run(spec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                gc.enable()
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestSyntheticSpec:
    def test_defaults_validate(self):
        spec = SyntheticSpec(frame_count=10, n_tokens=2, dims=4)
        assert spec.segments == ()

    def test_dims_floor(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(frame_count=1, n_tokens=1, dims=1)

    def test_segment_bounds(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(frame_count=10, n_tokens=1, dims=2, segments=((5, 12, 0.5),))
        with pytest.raises(InvalidSpec):
            SyntheticSpec(frame_count=10, n_tokens=1, dims=2, segments=((4, 4, 0.5),))

    def test_segments_must_not_overlap(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(frame_count=10, n_tokens=1, dims=2,
                          segments=((0, 5, 0.5), (3, 8, 0.5)))

    def test_rho_range(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(frame_count=10, n_tokens=1, dims=2, segments=((0, 5, 1.5),))

    def test_noise_sign(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(frame_count=10, n_tokens=1, dims=2, noise_scale=-0.1)

    @pytest.mark.parametrize("fields, match", [
        ({"segments": ((0, 16.7, 0.9),)}, "segment stop must be of type int"),
        ({"segments": ((True, 16, 0.9),)}, "segment start must be of type int"),
        ({"segments": ((0, 16, "0.9"),)}, "segment rho must be of type float"),
        ({"frame_count": True}, "frame_count must be of type int"),
        ({"n_tokens": 2.5}, "n_tokens must be of type int"),
        ({"dims": "8"}, "dims must be of type int"),
        ({"noise_scale": float("nan")}, "noise_scale must be of type float"),
        ({"seed": 1.5}, "seed must be of type int"),
        ({"n_tokens": 0}, "n_tokens must be >= 1, got 0"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"segments": ((1, 2),)}, r"segment \(1, 2\) is not a \(start, stop, rho\) triple"),
        ({"segments": ((1, 2, 0.5, 7),)}, r"segment \(1, 2, 0.5, 7\) is not a"),
        ({"segments": (5,)}, "segment 5 is not a"),
        ({"segments": 5}, "segments must be a sequence of triples, got 5"),
    ], ids=["fractional_segment_stop", "bool_segment_start", "string_rho", "bool_frame_count",
            "fractional_n_tokens", "string_dims", "nan_noise", "fractional_seed",
            "no_tokens", "negative_seed", "segment_pair", "segment_quadruple", "segment_scalar",
            "segments_scalar"])
    def test_fields_read_by_checked(self, fields, match):
        # the first two used to construct, as (0, 16, 0.9) and frame_count 1;
        # the last four raised a bare ValueError or TypeError from unpacking
        with pytest.raises(InvalidSpec, match=match):
            SyntheticSpec(**{"frame_count": 40, "n_tokens": 2, "dims": 8, **fields})

    def test_checked_values_are_stored_as_their_type(self):
        spec = SyntheticSpec(frame_count=np.int64(40), n_tokens=2, dims=8, noise_scale=0,
                             segments=([0, 16, 1],))
        assert (type(spec.frame_count), type(spec.noise_scale)) == (int, float)
        assert spec.segments == ((0, 16, 1.0),) and type(spec.segments[0][2]) is float

    def test_rho_at(self):
        spec = SyntheticSpec(frame_count=10, n_tokens=1, dims=2,
                             segments=((2, 4, 0.7), (6, 8, -0.3)))
        assert spec.rho_at(0) is None
        assert spec.rho_at(2) == 0.7
        assert spec.rho_at(3) == 0.7
        assert spec.rho_at(4) is None
        assert spec.rho_at(7) == -0.3


class TestSyntheticValues:
    def test_deterministic(self):
        spec = SyntheticSpec(frame_count=6, n_tokens=3, dims=8, seed=5,
                             segments=((1, 4, 0.6),))
        f1, q1 = generate_synthetic(spec)
        f2, q2 = generate_synthetic(spec)
        assert np.array_equal(f1, f2)
        assert np.array_equal(q1, q2)

    def test_iterator_matches_batch(self):
        spec = SyntheticSpec(frame_count=8, n_tokens=2, dims=6, seed=11,
                             segments=((2, 5, 0.9),))
        batch, qb = generate_synthetic(spec)
        qi, lazy = iter_synthetic(spec)
        assert np.array_equal(qb, qi)
        assert np.array_equal(batch, np.stack(list(lazy)))

    def test_question_unit_norm(self):
        _, q = generate_synthetic(SyntheticSpec(frame_count=1, n_tokens=1, dims=32, seed=2))
        assert abs(float(np.linalg.norm(q.astype(np.float64))) - 1.0) < 1e-6

    def test_planted_descriptor_cosine_is_rho(self):
        spec = SyntheticSpec(frame_count=12, n_tokens=4, dims=16, seed=9,
                             segments=((3, 9, 0.8),), noise_scale=0.3)
        frames, q = generate_synthetic(spec)
        for t in range(3, 9):
            assert abs(cosine(frame_descriptor(frames[t]), q) - 0.8) < 1e-5

    def test_background_descriptor_orthogonal(self):
        spec = SyntheticSpec(frame_count=12, n_tokens=4, dims=16, seed=9,
                             segments=((3, 9, 0.8),), noise_scale=0.3)
        frames, q = generate_synthetic(spec)
        for t in list(range(3)) + list(range(9, 12)):
            assert abs(cosine(frame_descriptor(frames[t]), q)) < 1e-5

    def test_rho_zero_looks_like_background(self):
        spec = SyntheticSpec(frame_count=10, n_tokens=3, dims=12, seed=4,
                             segments=((0, 10, 0.0),), noise_scale=0.2)
        frames, q = generate_synthetic(spec)
        for t in range(10):
            assert abs(cosine(frame_descriptor(frames[t]), q)) < 1e-5

    def test_negative_rho(self):
        spec = SyntheticSpec(frame_count=4, n_tokens=2, dims=8, seed=7,
                             segments=((0, 4, -0.5),), noise_scale=0.1)
        frames, q = generate_synthetic(spec)
        for t in range(4):
            assert abs(cosine(frame_descriptor(frames[t]), q) + 0.5) < 1e-5

    def test_noiseless_full_alignment(self):
        spec = SyntheticSpec(frame_count=3, n_tokens=2, dims=8, seed=1,
                             segments=((0, 3, 1.0),), noise_scale=0.0)
        frames, q = generate_synthetic(spec)
        for t in range(3):
            assert cosine(frame_descriptor(frames[t]), q) > 1.0 - 1e-6

    def test_heavy_jitter_leaves_descriptor_alone(self):
        spec = SyntheticSpec(frame_count=5, n_tokens=8, dims=16, seed=3,
                             segments=((0, 5, 0.7),), noise_scale=5.0)
        frames, q = generate_synthetic(spec)
        for t in range(5):
            assert abs(cosine(frame_descriptor(frames[t]), q) - 0.7) < 1e-4

    def test_single_token_frames_work(self):
        frames, q = generate_synthetic(
            SyntheticSpec(frame_count=4, n_tokens=1, dims=2, seed=0))
        assert frames.shape == (4, 1, 2)

    def test_output_dtype(self):
        frames, q = generate_synthetic(
            SyntheticSpec(frame_count=2, n_tokens=2, dims=4, seed=0))
        assert frames.dtype == np.float32
        assert q.dtype == np.float32
