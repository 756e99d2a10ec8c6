from __future__ import annotations

import contextlib
import functools
import gc
import json
import operator
import os
import tracemalloc
import types
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
from mces.cli import main

Q = np.array([0.6, 0.8, 0.0, 0.0])
FIXTURES = Path(__file__).resolve().parent / "fixtures"
# the fixture's sidecar by a relative path that climbs to the root and back
# down, so it names a real file from any directory
CLIMBING_SIDECAR = os.path.join(*[".."] * 64, *FIXTURES.parts[1:], "snapshot_v1.mces")


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

    def test_store_beyond_float32_refused_before_any_file(self, tmp_path, rng):
        # an earlier snapshot at the path stays as it was, and loadable
        jp, _ = export_pipeline(small_pipeline(rng), str(tmp_path / "snap.json"))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        pipe = Pipeline(2, 3, reinit_mode="none")
        for _ in range(20):
            pipe.step(rng.standard_normal((2, 3)) * 1e40)
        with pytest.raises(NonFiniteValue, match="frame 0 .*float32 range") as caught:
            export_pipeline(pipe, jp)
        assert caught.value.frame_index == 0
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        import_pipeline(jp)

    def test_float32_range_edge_is_the_cast_to_infinity(self, tmp_path):
        # the largest float64 that rounds to a finite float32 is written; the
        # next one up rounds to infinity and is refused, naming its frame
        edge = 2.0 ** 128 - 2.0 ** 103
        pipe = Pipeline(2, 3, reinit_mode="none")
        pipe.step(np.ones((2, 3)))
        pipe.step(np.array([[1.0, 1.0, 1.0], [1.0, -np.nextafter(edge, 0), 1.0]]))
        export_pipeline(pipe, str(tmp_path / "ok.json"))
        assert read_stream(tmp_path / "ok.mces")[1][1, 1, 1] == -np.finfo(np.float32).max
        pipe.step(np.array([[1.0, 1.0, 1.0], [1.0, -edge, 1.0]]))
        with pytest.raises(NonFiniteValue) as caught:
            export_pipeline(pipe, str(tmp_path / "bad.json"))
        assert caught.value.frame_index == 2
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("fail", ["sidecar_frame", "json_dump"])
    def test_failed_export_leaves_the_previous_snapshot(self, tmp_path, rng, monkeypatch, fail):
        # a disk that fills after 3 sidecar frames, or after the first bytes of
        # the JSON document: neither path is replaced, and nothing else is left
        # behind
        old = small_pipeline(rng, pushes=20)
        jp, _ = export_pipeline(old, str(tmp_path / "snap.json"))
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def full_disk():
            raise OSError(28, "No space left on device")

        if fail == "sidecar_frame":
            def after_three(frames):
                for i, frame in enumerate(frames):
                    if i == 3:
                        full_disk()
                    yield frame
            monkeypatch.setattr(snapshot, "write_stream", lambda path, frames, **kw:
                                write_stream(path, after_three(frames), **kw))
        else:
            replacing = snapshot._replacing

            @contextlib.contextmanager
            def partial_write(path, mode):
                with replacing(path, mode) as fh:
                    def write(text):
                        fh.write(text[:40])
                        full_disk()
                    yield types.SimpleNamespace(write=write, flush=fh.flush)
            monkeypatch.setattr(snapshot, "_replacing", partial_write)
        with pytest.raises(IoFailure, match="No space left"):
            export_pipeline(small_pipeline(rng, pushes=45), jp)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        assert_same_state(import_pipeline(jp), old, tokens_exact=False)

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

    def test_numpy_int_sizes_export_and_resume(self, tmp_path, rng):
        pipe = Pipeline(np.int64(2), np.int64(4), question=Q, ltm_capacity=np.int64(32))
        plain = Pipeline(2, 4, question=Q, ltm_capacity=32)
        for _ in range(20):
            frame = rng.standard_normal((2, 4))
            pipe.step(frame)
            plain.step(frame)
        jp, _ = export_pipeline(pipe, str(tmp_path / "s.json"))
        export_pipeline(plain, str(tmp_path / "p.json"))
        assert (tmp_path / "s.json").read_bytes().replace(b"s.mces", b"p.mces") == \
            (tmp_path / "p.json").read_bytes()
        assert_same_state(pipe, import_pipeline(jp), tokens_exact=False)

    def test_empty_round_trip_still_streams(self, tmp_path, rng):
        jp, _ = export_pipeline(Pipeline(2, 4), str(tmp_path / "e.json"))
        back = import_pipeline(jp)
        assert back.frames_pushed == 0
        fired = [back.step(rng.standard_normal((2, 4))) for _ in range(17)]
        assert sum(report is not None for report in fired) == 1

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

    @pytest.mark.parametrize("reinit_mode", ["merged_tokens", "none"])
    def test_every_step_of_a_run_re_imports(self, tmp_path, rng, reinit_mode):
        # the bookkeeping import checks holds after any step, a refused frame
        # and a compacting long-term store included
        pipe = Pipeline(2, 4, question=Q, ltm_capacity=3, reinit_mode=reinit_mode)
        for i in range(50):
            if i == 20:
                with pytest.raises(ShapeMismatch):
                    pipe.step(np.ones((2, 5)))
            pipe.step(rng.standard_normal((2, 4)))
            assert_same_state(import_pipeline(
                export_pipeline(pipe, str(tmp_path / "s.json"))[0]), pipe, tokens_exact=False)
        pipe.flush()
        import_pipeline(export_pipeline(pipe, str(tmp_path / "s.json"))[0])

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
        ("question_required", "no"), ("question_required", True), ("basis", "max"),
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
        assert config["basis"] == "mean"
        assert config["question_required"] is False
        assert import_pipeline(jp).cfg == pipe.cfg

    def test_cfg_block_refused_at_run_loads_in_a_snapshot(self, tmp_path, rng):
        # format 1 is the one reader that still takes the retired keys
        cfg = {"capacity": 16, "base_target": 4, "alpha": 0.25, "sigma": 0.25,
               "question_similarity": "pooled", "relevance_exclude_context": False,
               "basis": "mean", "question_required": False, "windows_per_fill": 1,
               "window_size": 16}
        config = tmp_path / "exp.json"
        config.write_text(json.dumps(
            {"synthetic": {"frame_count": 40, "n_tokens": 2, "dims": 4}, "cfg": cfg}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        pipe = small_pipeline(rng)
        jp, _ = export_pipeline(pipe, str(tmp_path / "s.json"))
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["config"] == cfg
        assert_same_state(import_pipeline(jp), pipe, tokens_exact=False)

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
        (("long", "entries", 0), 5, "'position_id'"),
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

    def edited_copy(self, tmp_path, edit):
        # the fixture copied into tmp_path, with ``edit`` applied to its JSON
        doc = json.loads((FIXTURES / "snapshot_v1.json").read_text())
        edit(doc)
        (tmp_path / "snapshot_v1.json").write_text(json.dumps(doc))
        (tmp_path / "snapshot_v1.mces").write_bytes((FIXTURES / "snapshot_v1.mces").read_bytes())
        return str(tmp_path / "snapshot_v1.json")

    @pytest.mark.parametrize("mode", ["last_k", "uniform_sample"])
    def test_retired_reinit_mode_refused(self, tmp_path, opened, mode):
        path = self.edited_copy(tmp_path, lambda doc: doc.update(reinit_mode=mode))
        with pytest.raises(InvalidSpec, match="reinit_mode"):
            import_pipeline(path)
        assert opened == []

    @pytest.mark.parametrize("edit, match", [
        ({"counters": {"seeded_weight_total": -1}}, r"\['seeded_weight_total'\] are negative"),
        ({"counters": {"frames_pushed": -5}, "short": {"next_source_index": 3}},
         r"\['frames_pushed'\] are negative"),
        ({"short": {"next_source_index": 36}}, "next_source_index 36 != counters.frames_pushed 37"),
        ({"counters": {"frames_pushed": 38}}, "next_source_index 37 != counters.frames_pushed 38"),
        ({"long": {"next_position_id": 3}}, "next_position_id 3 != counters.consolidation_output"),
        ({"long": {"next_position_id": 1}, "counters": {"consolidation_output_total": 1}},
         "next_position_id 1 is not past the last id"),
        ({"counters": {"consolidations_run": 99}},
         "consolidations_run 99 <= consolidation_output_total 2 <= consolidation_input_total 32"),
        ({"counters": {"consolidation_input_total": 1}},
         "consolidations_run 2 <= consolidation_output_total 2 <= consolidation_input_total 1"),
    ], ids=["negative_counter", "negative_frames_pushed", "source_index_behind",
            "source_index_ahead", "position_id_ahead", "position_id_not_past_last",
            "more_runs_than_outputs", "more_outputs_than_inputs"])
    def test_broken_bookkeeping_refused(self, tmp_path, edit, match):
        # the fixture keeps frames_pushed = next_source_index = 37,
        # consolidation_output_total = next_position_id = 2, 2 runs and 32 inputs
        path = self.edited_copy(
            tmp_path, lambda doc: [doc[part].update(values) for part, values in edit.items()])
        with pytest.raises(InvalidSpec, match=match):
            import_pipeline(path)

    @pytest.mark.parametrize("edits", [
        {("long", "entries", 0, "provenance"): [[0, 16.7, 1]]},
        {("long", "entries", 0, "weight"): 16.9, ("long", "entries", 0, "provenance"): [[0, 16.9, 1]]},
        {("counters", "consolidations_run"): True},
        {("long", "entries", 0, "position_id"): False},
        {("long", "entries", 0, "context_flag"): "no"},
        {("question", 0): True},
        {("snapshot_version",): True},
    ], ids=["fractional_stop", "fractional_weight_and_stop", "bool_counter", "bool_position_id",
            "string_context_flag", "bool_question_element", "bool_version"])
    def test_mistyped_scalar_refused(self, tmp_path, capsys, edits):
        # each used to load: 16.7 truncated to 16, true read as 1, "no" as True
        def edit(doc):
            for (*parents, key), value in edits.items():
                functools.reduce(operator.getitem, parents, doc)[key] = value
        path = self.edited_copy(tmp_path, edit)
        with pytest.raises(InvalidSpec):
            import_pipeline(path)
        assert main(["inspect", "--snapshot", path]) == 2
        assert capsys.readouterr().err.startswith("config error")

    def test_buffered_provenance_past_the_source_index_refused(self, tmp_path):
        def edit(doc):
            doc["short"]["frames"][-1]["provenance"] = [[37, 38, 1]]
        with pytest.raises(InvalidSpec, match="reach past short.next_source_index 37"):
            import_pipeline(self.edited_copy(tmp_path, edit))

    @pytest.mark.parametrize("edit, match, reads_sidecar", [
        (lambda doc: doc.update(ltm_capacity=1),
         r"long\.entries holds 2 frames, over the capacity 1", False),
        (lambda doc: doc["long"]["entries"][1].update(provenance=[[0, 30, 1], [100, 101, 1]]),
         "long.entries reach past short.next_source_index 37", True),
        (lambda doc: doc["counters"].update(peak_resident_frames=8),
         "peak_resident_frames 8 is below the 9 frames held", True),
        (lambda doc: doc["counters"].update(seeded_weight_total=3),
         "beyond frames_pushed 47 != counters.seeded_weight_total 3", True),
        (lambda doc: doc.update(reinit_mode="none"),
         "reinit_mode 'none' seeds nothing, but the stores hold 47 seeded weight", True),
        (lambda doc: doc["long"]["entries"][0].update(provenance=[[16, 16, 1]]),
         "bad provenance interval", True),
        (lambda doc: doc["long"]["entries"][0].update(provenance=[[0, 16, 0]]),
         "provenance count must be >= 1", True),
        (lambda doc: doc["long"]["entries"][0].update(provenance=[[0, 10, 1], [5, 11, 1]]),
         "provenance intervals overlap", True),
        (lambda doc: doc.update(sidecar=None), "snapshot lists frames but names no sidecar",
         False),
        (lambda doc: doc.update(sidecar=str(FIXTURES / "snapshot_v1.mces")),
         "'sidecar' is not a bare file name", False),
        (lambda doc: doc.update(sidecar=CLIMBING_SIDECAR), "'sidecar' is not a bare file name",
         False),
    ], ids=["long_term_over_capacity", "long_term_provenance_past_the_source_index",
            "peak_below_the_frames_held", "seeded_weight_not_held", "seeded_weight_under_none",
            "empty_provenance_interval", "zero_provenance_count", "overlapping_provenance",
            "frames_without_sidecar", "absolute_sidecar", "relative_sidecar_path"])
    def test_state_no_run_reaches_refused(self, tmp_path, capsys, opened, edit, match,
                                          reads_sidecar):
        # the fixture holds 2 long-term entries and 7 buffered frames of 37
        # pushed, and records a peak of 19 and a seeded weight of 47: its
        # stores hold 84, and entry 0 is 16 frames, [[0, 16, 1]]
        path = self.edited_copy(tmp_path, edit)
        with pytest.raises(InvalidSpec, match=match):
            import_pipeline(path)
        assert len(opened) == int(reads_sidecar)
        assert main(["inspect", "--snapshot", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_over_capacity_short_term_refused_before_the_sidecar(self, tmp_path, opened):
        # the fixture buffers 7 frames; a 6-frame buffer cannot hold them
        path = self.edited_copy(
            tmp_path, lambda doc: doc["config"].update(capacity=6, window_size=6))
        with pytest.raises(InvalidSpec, match=r"short\.frames"):
            import_pipeline(path)
        assert opened == []
