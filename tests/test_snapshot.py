from __future__ import annotations

import functools
import gc
import json
import operator
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mces import (
    ConsolidationConfig,
    InvalidSpec,
    IoFailure,
    NonFiniteValue,
    Pipeline,
    ShapeMismatch,
    Truncated,
    export_pipeline,
    import_pipeline,
    read_stream,
    write_stream,
)
from mces import snapshot, streamio

Q = np.array([0.6, 0.8, 0.0, 0.0])
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def small_pipeline(rng, pushes=20):
    pipe = Pipeline(2, 4, question=Q, ltm_capacity=32)
    for _ in range(pushes):
        pipe.step(rng.standard_normal((2, 4)))
    return pipe


def assert_same_state(a: Pipeline, b: Pipeline, tokens_exact=True):
    assert a.frames_pushed == b.frames_pushed
    assert a.consolidations_run == b.consolidations_run
    assert a.consolidation_input_total == b.consolidation_input_total
    assert a.consolidation_output_total == b.consolidation_output_total
    assert a.seeded_weight_total == b.seeded_weight_total
    assert a.cfg == b.cfg
    assert a.long.position_ids == b.long.position_ids
    assert a.short.next_source_index == b.short.next_source_index
    for fa, fb in zip(list(a.long.entries) + list(a.short.frames),
                      list(b.long.entries) + list(b.short.frames)):
        assert fa.weight == fb.weight
        assert fa.provenance == fb.provenance
        assert fa.context_flag == fb.context_flag
        if tokens_exact:
            assert np.array_equal(fa.tokens, fb.tokens)
        else:
            assert np.allclose(fa.tokens, fb.tokens, atol=1e-6)


class TestExport:
    def test_deterministic_bytes(self, tmp_path, rng):
        pipe = small_pipeline(rng)
        j1, s1 = export_pipeline(pipe, str(tmp_path / "a.json"))
        j2, s2 = export_pipeline(pipe, str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes().replace(b"a.mces", b"x") == \
               (tmp_path / "b.json").read_bytes().replace(b"b.mces", b"x")
        assert (tmp_path / "a.mces").read_bytes() == (tmp_path / "b.mces").read_bytes()

    def test_json_is_compact_sorted_and_newline_terminated(self, tmp_path, rng):
        export_pipeline(small_pipeline(rng), str(tmp_path / "s.json"))
        raw = (tmp_path / "s.json").read_text()
        assert raw.endswith("\n")
        doc = json.loads(raw)
        assert raw == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_sidecar_defaults_next_to_json(self, tmp_path, rng):
        jp, sp = export_pipeline(small_pipeline(rng), str(tmp_path / "snap.json"))
        assert sp == str(tmp_path / "snap.mces")
        assert (tmp_path / "snap.mces").exists()

    def test_sidecar_equals_the_stacked_float32_write(self, tmp_path, rng):
        pipe = small_pipeline(rng, pushes=45)
        export_pipeline(pipe, str(tmp_path / "s.json"))
        frames = pipe.long.entries + pipe.short.frames
        write_stream(tmp_path / "want.mces",
                     np.stack([f.tokens for f in frames]).astype("<f4"))
        assert (tmp_path / "s.mces").read_bytes() == (tmp_path / "want.mces").read_bytes()

    def test_sidecar_written_one_frame_at_a_time(self, tmp_path, rng, monkeypatch):
        seen = []

        def spy(path, frames, question=None, *, frame_count=None):
            seen.append((isinstance(frames, np.ndarray), frame_count))
            return write_stream(path, frames, question, frame_count=frame_count)

        monkeypatch.setattr(snapshot, "write_stream", spy)
        pipe = small_pipeline(rng)
        export_pipeline(pipe, str(tmp_path / "s.json"))
        assert seen == [(False, len(pipe.long) + len(pipe.short))]

    def test_empty_pipeline_has_no_sidecar(self, tmp_path):
        pipe = Pipeline(2, 4)
        jp, sp = export_pipeline(pipe, str(tmp_path / "empty.json"))
        assert sp is None
        assert not (tmp_path / "empty.mces").exists()
        assert json.loads((tmp_path / "empty.json").read_text())["sidecar"] is None


class TestImport:
    def test_round_trip_state(self, tmp_path, rng):
        pipe = small_pipeline(rng)
        jp, _ = export_pipeline(pipe, str(tmp_path / "s.json"))
        back = import_pipeline(jp)
        # token matrices come back at 32-bit storage precision
        assert_same_state(pipe, back, tokens_exact=False)
        for fa, fb in zip(pipe.long.entries, back.long.entries):
            assert np.array_equal(fa.tokens.astype(np.float32),
                                  fb.tokens.astype(np.float32))

    def test_question_survives_at_full_precision(self, tmp_path, rng):
        pipe = small_pipeline(rng)
        jp, _ = export_pipeline(pipe, str(tmp_path / "s.json"))
        assert np.array_equal(import_pipeline(jp).question, pipe.question)

    def test_import_export_is_a_fixpoint(self, tmp_path, rng):
        pipe = small_pipeline(rng)
        j1, _ = export_pipeline(pipe, str(tmp_path / "one.json"))
        j2, _ = export_pipeline(import_pipeline(j1), str(tmp_path / "two.json"))
        a = (tmp_path / "one.json").read_bytes().replace(b"one.mces", b"x")
        b = (tmp_path / "two.json").read_bytes().replace(b"two.mces", b"x")
        assert a == b
        assert (tmp_path / "one.mces").read_bytes() == (tmp_path / "two.mces").read_bytes()

    def test_empty_round_trip_still_streams(self, tmp_path, rng):
        jp, _ = export_pipeline(Pipeline(2, 4), str(tmp_path / "e.json"))
        back = import_pipeline(jp)
        assert back.frames_pushed == 0
        reports = back.run_stream([rng.standard_normal((2, 4)) for _ in range(17)],
                                  flush=False)
        assert len(reports) == 1

    def test_resume_matches_uninterrupted_run(self, tmp_path, rng):
        frames = [rng.standard_normal((2, 4)) for _ in range(40)]
        whole = Pipeline(2, 4, question=Q, ltm_capacity=32)
        for f in frames:
            whole.step(f)

        first = Pipeline(2, 4, question=Q, ltm_capacity=32)
        for f in frames[:20]:
            first.step(f)
        jp, _ = export_pipeline(first, str(tmp_path / "mid.json"))
        resumed = import_pipeline(jp)
        for f in frames[20:]:
            resumed.step(f)

        assert resumed.frames_pushed == whole.frames_pushed
        assert resumed.consolidations_run == whole.consolidations_run
        assert resumed.long.position_ids == whole.long.position_ids
        for fa, fb in zip(whole.long.entries, resumed.long.entries):
            assert fa.weight == fb.weight
            assert fa.provenance == fb.provenance
            assert np.allclose(fa.tokens, fb.tokens, atol=1e-5)

    def test_wrong_kind_rejected(self, tmp_path):
        (tmp_path / "ltm.json").write_text(json.dumps(
            {"kind": "long_term_snapshot", "snapshot_version": 1, "capacity": 8,
             "entries": [], "sidecar": None}))
        with pytest.raises(InvalidSpec, match="not a pipeline snapshot"):
            import_pipeline(str(tmp_path / "ltm.json"))

    def test_unknown_version_rejected(self, tmp_path, rng):
        jp, _ = export_pipeline(small_pipeline(rng), str(tmp_path / "s.json"))
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["snapshot_version"] = 99
        (tmp_path / "s.json").write_text(json.dumps(doc))
        with pytest.raises(InvalidSpec):
            import_pipeline(str(tmp_path / "s.json"))

    def test_sidecar_count_mismatch_rejected(self, tmp_path, rng):
        jp, sp = export_pipeline(small_pipeline(rng), str(tmp_path / "s.json"))
        write_stream(sp, np.zeros((1, 2, 4), dtype=np.float32))
        with pytest.raises(ShapeMismatch):
            import_pipeline(jp)

    def test_missing_sidecar_rejected(self, tmp_path, rng):
        jp, sp = export_pipeline(small_pipeline(rng), str(tmp_path / "s.json"))
        (tmp_path / "s.mces").unlink()
        with pytest.raises(IoFailure):
            import_pipeline(jp)

    def test_snapshot_format_keeps_legacy_window_keys(self, tmp_path, rng):
        pipe = Pipeline(2, 4, ConsolidationConfig(capacity=8, base_target=2),
                        question=Q, ltm_capacity=32)
        for _ in range(20):
            pipe.step(rng.standard_normal((2, 4)))
        jp, _ = export_pipeline(pipe, str(tmp_path / "s.json"))
        config = json.loads((tmp_path / "s.json").read_text())["config"]
        # the layout every version-1 snapshot has: one window per fill
        assert (config["window_size"], config["windows_per_fill"]) == (8, 1)
        assert_same_state(import_pipeline(jp), pipe, tokens_exact=False)

    @pytest.mark.parametrize("key, value", [
        ("bogus", 1), ("window_size", 4),
        ("question_similarity", "per_token"), ("relevance_exclude_context", True),
        ("relevance_exclude_context", 0), ("capacity", 16.5), ("sigma", True),
        ("question_required", "no"),
    ])
    def test_bad_config_key_rejected(self, tmp_path, rng, key, value):
        jp, _ = export_pipeline(small_pipeline(rng), str(tmp_path / "s.json"))
        doc = json.loads((tmp_path / "s.json").read_text())
        doc["config"][key] = value
        (tmp_path / "s.json").write_text(json.dumps(doc))
        with pytest.raises(InvalidSpec):
            import_pipeline(jp)

    def test_retired_relevance_keys_load_at_their_value(self, tmp_path, rng):
        pipe = small_pipeline(rng)
        jp, _ = export_pipeline(pipe, str(tmp_path / "s.json"))
        config = json.loads((tmp_path / "s.json").read_text())["config"]
        assert config["question_similarity"] == "pooled"
        assert config["relevance_exclude_context"] is False
        assert import_pipeline(jp).cfg == pipe.cfg

    @pytest.mark.parametrize("path, value, match", [
        ((), [], "not a pipeline snapshot"),
        (("config",), None, "'config'"),
        (("counters",), None, "'counters'"),
        (("long",), None, "'long'"),
        (("short",), None, "'short'"),
        (("n_tokens",), None, "'n_tokens'"),
        (("long",), "x", "'long'"),
        (("question",), ["a", "b", "c", "d"], "'question'"),
        (("sidecar",), 5, "'sidecar'"),
        (("short", "frames"), None, "'frames'"),
        (("long", "entries", 0, "weight"), None, "weight"),
        (("long", "entries", 0, "position_id"), None, "'position_id'"),
        (("counters", "bogus"), 1, "bogus"),
        (("counters", "frames_pushed"), None, "'frames_pushed'"),
        (("counters", "frames_pushed"), "5", "'frames_pushed'"),
    ])
    def test_malformed_document_rejected(self, tmp_path, rng, path, value, match):
        # value None deletes the key at path; an empty path replaces the document
        jp, _ = export_pipeline(small_pipeline(rng), str(tmp_path / "s.json"))
        doc = json.loads((tmp_path / "s.json").read_text())
        if not path:
            doc = value
        else:
            *parents, key = path
            owner = functools.reduce(operator.getitem, parents, doc)
            if value is None:
                del owner[key]
            else:
                owner[key] = value
        (tmp_path / "s.json").write_text(json.dumps(doc))
        with pytest.raises(InvalidSpec, match=match):
            import_pipeline(jp)

    def test_garbled_json_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text("{not json")
        with pytest.raises(InvalidSpec):
            import_pipeline(str(tmp_path / "bad.json"))


@pytest.mark.filterwarnings("error::ResourceWarning")
class TestStreamedSidecar:
    """Import reads the sidecar one chunk at a time and always closes it."""

    # (N, D) frames of 32 KiB, eight to a chunk: the 3 MiB sidecar spans
    # many chunks, so a reader that loads it whole breaks the heap bound
    N, D = 16, 512

    @pytest.fixture
    def snap(self, tmp_path, rng):
        pipe = Pipeline(self.N, self.D, ConsolidationConfig(capacity=8, base_target=4),
                        ltm_capacity=96, reinit_mode="none")
        for _ in range(192):
            pipe.step(rng.standard_normal((self.N, self.D)))
        jp, sp = export_pipeline(pipe, str(tmp_path / "s.json"))
        assert len(pipe.short) > 0
        assert os.path.getsize(sp) > 3 << 20
        return jp, sp

    def test_heap_holds_one_chunk_beyond_the_store(self, snap):
        jp, _ = snap
        # an untraced import first fills the interpreter's free lists, and gc
        # stays off so that no full collection empties them mid-import
        import_pipeline(jp)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            back = import_pipeline(jp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()
        store = sum(f.tokens.nbytes for f in list(back.long.entries) + list(back.short.frames))
        assert peak - store < 2 * streamio._CHUNK_BYTES, (peak, store)

    def test_closed_after_success(self, snap, opened):
        back = import_pipeline(snap[0])
        assert len(opened) == 1 and opened[0].closed
        assert len(back.long) + len(back.short) == read_stream(snap[1])[0].frame_count

    def poison(self, sidecar, frame, token):
        # a NaN at (frame, token) of the sidecar, which holds no question
        with open(sidecar, "r+b") as fh:
            fh.seek(streamio.HEADER_SIZE + ((frame * self.N + token) * self.D + 3) * 4)
            fh.write(np.float32(np.nan).tobytes())

    def test_frame_count_mismatch_closes(self, snap, opened):
        jp, sp = snap
        write_stream(sp, np.zeros((1, self.N, self.D), dtype=np.float32))
        with pytest.raises(ShapeMismatch):
            import_pipeline(jp)
        assert len(opened) == 1 and opened[0].closed

    def test_truncated_sidecar_closes(self, snap, opened):
        jp, sp = snap
        with open(sp, "r+b") as fh:
            fh.truncate(os.path.getsize(sp) - 40)
        with pytest.raises(Truncated) as got:
            import_pipeline(jp)
        assert len(opened) == 1 and opened[0].closed
        with pytest.raises(Truncated) as want:
            read_stream(sp)
        assert str(got.value) == str(want.value)

    def test_non_finite_sidecar_located_and_closes(self, snap, opened):
        jp, sp = snap
        self.poison(sp, 50, 5)
        with pytest.raises(NonFiniteValue) as got:
            import_pipeline(jp)
        assert (got.value.frame_index, got.value.token_index) == (50, 5)
        assert len(opened) == 1 and opened[0].closed
        with pytest.raises(NonFiniteValue) as want:
            read_stream(sp)
        assert str(got.value) == str(want.value)

    def test_bad_entry_raised_before_a_later_chunk_is_read(self, snap, opened):
        jp, sp = snap
        self.poison(sp, 50, 5)
        doc = json.loads(Path(jp).read_text())
        doc["long"]["entries"][0]["weight"] = "x"
        Path(jp).write_text(json.dumps(doc))
        with pytest.raises(InvalidSpec, match="weight"):
            import_pipeline(jp)
        assert len(opened) == 1 and opened[0].closed


class TestFormatOneFixture:
    """A snapshot written before the retired relevance options were removed.

    It holds Pipeline(2, 4, question=Q, ltm_capacity=8) after the first 37
    of the frames below; its config carries question_similarity "pooled"
    and relevance_exclude_context false.
    """

    FRAMES = np.random.default_rng(7).standard_normal((60, 2, 4))

    def whole(self, count):
        pipe = Pipeline(2, 4, question=Q, ltm_capacity=8)
        for f in self.FRAMES[:count]:
            pipe.step(f)
        return pipe

    def test_loads_and_resumes(self):
        resumed = import_pipeline(str(FIXTURES / "snapshot_v1.json"))
        assert_same_state(resumed, self.whole(37), tokens_exact=False)
        for f in self.FRAMES[37:]:
            resumed.step(f)
        resumed.flush()
        whole = self.whole(60)
        whole.flush()
        assert_same_state(resumed, whole, tokens_exact=False)

    def test_re_export_is_byte_identical(self, tmp_path):
        export_pipeline(import_pipeline(str(FIXTURES / "snapshot_v1.json")),
                        str(tmp_path / "snapshot_v1.json"))
        for suffix in (".json", ".mces"):
            assert (tmp_path / f"snapshot_v1{suffix}").read_bytes() == \
                   (FIXTURES / f"snapshot_v1{suffix}").read_bytes()
