from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import re
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mces import (
    ConsolidationConfig,
    ExperimentSpec,
    GateFailure,
    GridTooLarge,
    InvalidSpec,
    IoFailure,
    MissingQuestion,
    SyntheticSpec,
    WeightedFrame,
    bench_mem,
    canonical_report_bytes,
    check_gate,
    compute_relevance_metrics,
    generate_synthetic,
    plant_eval,
    run,
    write_report,
    write_stream,
)
from mces import harness
from mces.cli import _CONFIG_KEYS, build_parser
from mces.consolidation import _check_keys
from mces.harness import (
    BASELINES,
    PARAM_ALIASES,
    PARAMS,
    _grid,
    _run_single,
    _stream_for,
    apply_params,
)

ROOT = Path(__file__).resolve().parent.parent


def tiny_synth(**kw):
    defaults = dict(frame_count=40, n_tokens=2, dims=8, seed=0)
    defaults.update(kw)
    return SyntheticSpec(**defaults)


def planted_synth(**kw):
    return tiny_synth(segments=((16, 32, 0.9),), noise_scale=0.05, **kw)


class TestExperimentSpec:
    def test_exactly_one_source(self):
        with pytest.raises(InvalidSpec):
            ExperimentSpec()
        with pytest.raises(InvalidSpec):
            ExperimentSpec(synthetic=tiny_synth(), stream_file="x.mces")

    def test_policy_and_seed_validation(self):
        with pytest.raises(InvalidSpec):
            ExperimentSpec(synthetic=tiny_synth(), policies=())
        with pytest.raises(InvalidSpec):
            ExperimentSpec(synthetic=tiny_synth(), policies=("keep_all",))
        with pytest.raises(InvalidSpec):
            ExperimentSpec(synthetic=tiny_synth(), seeds=())
        with pytest.raises(InvalidSpec):
            ExperimentSpec(synthetic=tiny_synth(), seeds=(-1,))

    @pytest.mark.parametrize("field, value", [
        ("policies", "ema"), ("policies", 3), ("seeds", 3), ("seeds", "01")])
    def test_a_string_or_scalar_list_field_is_refused_by_name(self, field, value):
        # a string would read as its characters, a scalar fail bare
        with pytest.raises(InvalidSpec, match=f"^{field} must be a list, got {value!r}$"):
            ExperimentSpec(synthetic=tiny_synth(), **{field: value})

    @pytest.mark.parametrize("value", [4, "48"])
    def test_a_scalar_sweep_axis_is_refused_by_name(self, value):
        with pytest.raises(InvalidSpec, match="^sweep axis 'm0' must be a list"):
            ExperimentSpec(synthetic=tiny_synth(), sweep=(("m0", value),))

    def test_list_fields_are_held_as_tuples(self):
        spec = ExperimentSpec(synthetic=tiny_synth(), policies=["ema"], seeds=[2, 1],
                              sweep=(("k", [8, 16]),))
        assert (spec.policies, spec.seeds, spec.sweep) == (("ema",), (2, 1),
                                                           (("k", (8, 16)),))

    def test_sweep_axis_aliases_normalize(self):
        spec = ExperimentSpec(synthetic=tiny_synth(),
                              sweep=(("l_short", (8, 16)), ("l_long", (64,))))
        assert spec.sweep == (("k", (8, 16)), ("ltm_cap", (64,)))

    def test_sweep_axis_validation(self):
        with pytest.raises(InvalidSpec):
            ExperimentSpec(synthetic=tiny_synth(), sweep=(("window", (1, 2)),))
        with pytest.raises(InvalidSpec):
            ExperimentSpec(synthetic=tiny_synth(), sweep=(("k", ()),))

    @pytest.mark.parametrize("field, value", [
        ("seeds", ("a",)), ("ltm_capacity", 0), ("ltm_capacity", 2.5),
        ("question", (float("nan"), 1.0)), ("question", (float("inf"), 1.0)),
        ("reinit_mode", "merged"),
        ("reinit_mode", "last_k"), ("reinit_mode", "uniform_sample"),
    ])
    def test_field_validation(self, field, value):
        with pytest.raises(InvalidSpec):
            ExperimentSpec(synthetic=tiny_synth(), **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("ltm_capacity", 0), ("ltm_capacity", -1), ("seeds", (-3,)), ("seeds", (0, -1)),
        # retired from the spec: a config that builds one may not name them
        ("sample_count", 0), ("sample_count", -3),
        ("ema_decay", 1.0), ("ema_decay", -0.1), ("ema_decay", float("nan")),
    ])
    def test_range_checked_when_built(self, field, value):
        if field in ("sample_count", "ema_decay"):
            with pytest.raises(InvalidSpec, match=rf"unknown config keys \['{field}'\]"):
                _check_keys({field: value}, _CONFIG_KEYS)
            assert not hasattr(ExperimentSpec(synthetic=tiny_synth()), field)
            return
        with pytest.raises(InvalidSpec, match="long-term capacity must be >= 1|seeds must be >= 0"):
            ExperimentSpec(synthetic=tiny_synth(), **{field: value})

    def test_to_dict_echoes_everything(self):
        spec = ExperimentSpec(synthetic=planted_synth(), seeds=(0, 1),
                              question=(1.0, 0.0))
        d = spec.to_dict()
        assert d["synthetic"]["segments"] == [[16, 32, 0.9]]
        assert d["question"] == [1.0, 0.0]
        assert d["seeds"] == [0, 1]
        assert d["cfg"]["base_target"] == 4


class TestApplyParams:
    def test_names_values_and_aliases(self):
        spec = apply_params(ExperimentSpec(synthetic=tiny_synth(), reinit_mode="none"),
                            {"l_short": 8, "m0": 2, "alpha": 1, "sigma": 0.5,
                             "reinit": "merged", "l_long": 32})
        assert spec.cfg == ConsolidationConfig(capacity=8, base_target=2, alpha=1.0,
                                               sigma=0.5)
        assert (spec.ltm_capacity, spec.reinit_mode) == (32, "merged_tokens")

    @pytest.mark.parametrize("params, name", [
        ({"window": 4}, "window"), ({"m0": 2.5}, "m0"), ({"k": "8"}, "k"),
        ({"alpha": True}, "alpha"), ({"basis": 1}, "basis"), ({"reinit": 1}, "reinit"),
        ({"reinit": "last"}, "reinit"), ({"reinit": "uniform"}, "reinit"),
    ])
    def test_rejects_naming_the_parameter(self, params, name):
        with pytest.raises(InvalidSpec, match=name):
            apply_params(ExperimentSpec(synthetic=tiny_synth()), params)

    def test_readme_table_lists_the_params_and_their_aliases(self):
        # the run-parameter table in README.md against harness.PARAMS, and
        # each row's flag against the options of ``mces run``
        lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| name | sets | flag | config key | sweep axis |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        names, aliases, flags = [], {}, {}
        for cell, _, flag, _, _ in rows:
            name, alias = re.fullmatch(r"`(\w+)`(?: \(alias `(\w+)`\))?", cell).groups()
            names.append(name)
            if alias is not None:
                aliases[alias] = name
            flags[name] = flag.strip("`")
        assert names == list(PARAMS)
        assert aliases == PARAM_ALIASES
        # argparse names a flag's attribute after it, and `mces run` reads
        # each parameter from the attribute of its name
        assert flags == {name: "--" + name.replace("_", "-") for name in PARAMS}
        assert set(PARAMS) <= set(vars(build_parser().parse_args(["run"])))


class TestRelevanceMetrics:
    def frame(self, weight, prov):
        return WeightedFrame(np.ones((1, 2)), weight=weight, provenance=prov)

    def test_hand_computed_fractions(self):
        entries = [self.frame(4, ((0, 4, 1),)), self.frame(2, ((6, 8, 1),))]
        m = compute_relevance_metrics(entries, [(2, 6, 0.9)])
        assert m.applicable
        # first entry: overlap [2,4) is 2 of weight 4; second: none
        assert m.relevant_mass_fraction == pytest.approx((0.5 + 0.0) / 2)
        # planted frames 2..5, covered 2 and 3 only
        assert m.slot_recall == pytest.approx(0.5)
        assert m.q_affinity is None

    def test_multiplicity_counts(self):
        entries = [self.frame(4, ((0, 2, 2),))]
        m = compute_relevance_metrics(entries, [(0, 2, 1.0)])
        assert m.relevant_mass_fraction == pytest.approx(1.0)

    def test_no_segments_not_applicable(self):
        m = compute_relevance_metrics([self.frame(1, ((0, 1, 1),))], [])
        assert not m.applicable
        assert m.relevant_mass_fraction == 0.0

    def test_affinity_against_question(self):
        f = WeightedFrame(np.array([[1.0, 0.0]]), weight=1, provenance=((0, 1, 1),))
        m = compute_relevance_metrics([f], [(0, 1, 1.0)], question=[1.0, 0.0])
        assert m.q_affinity == pytest.approx(1.0)


class TestRun:
    def test_row_grid_and_schema(self):
        spec = ExperimentSpec(
            synthetic=tiny_synth(),
            policies=("no_memory", "temporal_pool", "question_merge"),
            seeds=(0, 1))
        report = run(spec)
        rows = report["rows"]
        assert len(rows) == 6
        for row in rows:
            assert set(row) == {"policy", "seed", "params", "relevance",
                                "accounting", "token_budget", "counters",
                                "wall_time_s"}
        by_policy = {r["policy"]: r for r in rows if r["seed"] == 0}
        assert by_policy["no_memory"]["accounting"] is None
        assert by_policy["question_merge"]["accounting"] is not None
        assert by_policy["no_memory"]["token_budget"] == 16 * 2
        assert by_policy["temporal_pool"]["token_budget"] == 2
        assert by_policy["question_merge"]["token_budget"] == 256 * 2
        assert by_policy["question_merge"]["params"]["k"] == 16

    def test_canonical_bytes_reproduce(self):
        spec = ExperimentSpec(synthetic=planted_synth(), seeds=(0, 3),
                              policies=("question_merge", "ema"))
        a = canonical_report_bytes(run(spec))
        b = canonical_report_bytes(run(spec))
        assert a == b

    def test_report_hash_matches_canonical_bytes(self):
        report = run(ExperimentSpec(synthetic=tiny_synth(), policies=("ema",)))
        want = hashlib.sha256(canonical_report_bytes(report)).hexdigest()
        assert report["canonical_sha256"] == want

    def test_stream_file_source(self, tmp_path, rng):
        frames = rng.standard_normal((20, 2, 4)).astype(np.float32)
        q = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)
        path = str(tmp_path / "s.mces")
        write_stream(path, frames, q)
        report = run(ExperimentSpec(stream_file=path,
                                    policies=("question_merge", "stream_merge")))
        assert len(report["rows"]) == 2
        assert report["spec_echo"]["stream_file"] == path

    def test_question_merge_needs_a_question(self, tmp_path, rng):
        path = str(tmp_path / "bare.mces")
        write_stream(path, rng.standard_normal((20, 2, 4)).astype(np.float32))
        with pytest.raises(MissingQuestion):
            run(ExperimentSpec(stream_file=path, policies=("question_merge",)))
        # an explicit question override fills the gap
        report = run(ExperimentSpec(stream_file=path, policies=("question_merge",),
                                    question=(1.0, 0.0, 0.0, 0.0)))
        assert len(report["rows"]) == 1


class TestFileSource:
    """A file stream is read again, one chunk at a time, by every row."""

    @pytest.fixture
    def stream(self, tmp_path, rng):
        frames = rng.standard_normal((50, 2, 4)).astype(np.float32)
        path = str(tmp_path / "s.mces")
        write_stream(path, frames, np.array([1.0, 0.0, 0.0, 0.0]))
        return path, frames

    def test_shape_from_header_and_iterable_again(self, stream):
        path, frames = stream
        source, question, segments = _stream_for(ExperimentSpec(stream_file=path), 0)
        assert source.shape == frames.shape and len(source) == 50
        assert np.array_equal(question, [1.0, 0.0, 0.0, 0.0]) and segments == ()
        for _ in range(2):
            assert np.array_equal(np.stack(list(source)), frames)

    @pytest.mark.parametrize("policy", sorted(BASELINES))
    def test_baselines_see_the_payload(self, stream, policy):
        path, frames = stream
        source, _, _ = _stream_for(ExperimentSpec(stream_file=path), 0)
        got, want = BASELINES[policy](source), BASELINES[policy](frames)
        assert [f.provenance for f in got] == [f.provenance for f in want]
        assert all(np.array_equal(g.tokens, w.tokens) for g, w in zip(got, want))

    def test_pipeline_sees_the_payload(self, stream):
        path, frames = stream
        spec = ExperimentSpec(stream_file=path, ltm_capacity=4)
        source, question, _ = _stream_for(spec, 0)
        got = _run_single(spec, "question_merge", 0, source, question, ())[1].long.entries
        want = _run_single(spec, "question_merge", 0, frames, question, ())[1].long.entries
        assert [f.provenance for f in got] == [f.provenance for f in want]
        assert all(np.array_equal(g.tokens, w.tokens) for g, w in zip(got, want))


class TestSweep:
    def test_grid_cartesian_product(self):
        spec = ExperimentSpec(
            synthetic=tiny_synth(),
            policies=("stream_merge",),
            sweep=(("l_short", (8, 16)), ("m0", (1, 2)),
                   ("reinit", ("none", "merged_tokens"))))
        report = run(spec)
        seen = {(r["params"]["k"], r["params"]["m0"], r["params"]["reinit"])
                for r in report["rows"]}
        assert len(report["rows"]) == 8
        assert seen == {(k, m, re) for k in (8, 16) for m in (1, 2)
                        for re in ("none", "merged_tokens")}

    def test_point_overrides_reach_the_config(self):
        spec = ExperimentSpec(synthetic=tiny_synth(), policies=("stream_merge",),
                              sweep=(("k", (8,)), ("alpha", (0.5,))))
        row = run(spec)["rows"][0]
        assert row["params"]["k"] == 8
        assert row["params"]["alpha"] == 0.5

    def test_grid_cap(self):
        spec = ExperimentSpec(synthetic=tiny_synth(), seeds=tuple(range(1025)),
                              sweep=(("k", (4, 8)),))
        with pytest.raises(GridTooLarge, match="2050 rows exceed the cap of 1024"):
            run(spec)
        assert len(_grid(dataclasses.replace(spec, seeds=tuple(range(512))))) == 2

    def test_grid_cap_counts_rows_before_listing_points(self):
        # 10^9 points: listing them first would take minutes and gigabytes
        axis = tuple(range(1, 1001))
        spec = ExperimentSpec(synthetic=tiny_synth(),
                              sweep=(("k", axis), ("m0", axis), ("ltm_cap", axis)))
        t0 = time.perf_counter()
        with pytest.raises(GridTooLarge, match="1000000000 rows"):
            run(spec)
        assert time.perf_counter() - t0 < 1.0


class TestPlantEval:
    def spec(self, **kw):
        defaults = dict(synthetic=planted_synth(), seeds=(0, 1, 2),
                        reinit_mode="none")
        defaults.update(kw)
        return ExperimentSpec(**defaults)

    def test_aware_beats_agnostic_on_aligned_plants(self):
        report = plant_eval(self.spec())
        summary = report["summary"]
        assert summary["applicable"]
        assert summary["wins"] == 3
        assert summary["mean_diff"] > 0
        assert summary["gate"]["passed"]
        for row in report["rows"]:
            assert row["aware"]["relevant_mass_fraction"] > \
                   row["agnostic"]["relevant_mass_fraction"]

    def test_min_wins_gate(self):
        report = plant_eval(self.spec(), min_wins=4)  # only 3 seeds exist
        assert not report["summary"]["gate"]["passed"]
        with pytest.raises(GateFailure):
            check_gate(report)

    @pytest.mark.parametrize("min_wins", [0, -5])
    def test_min_wins_below_one_refused(self, monkeypatch, min_wins):
        monkeypatch.setattr("mces.harness._stream_for", None)  # no seed may run
        with pytest.raises(InvalidSpec, match="min_wins"):
            plant_eval(self.spec(), min_wins=min_wins)

    def test_needs_synthetic(self, tmp_path, rng):
        path = str(tmp_path / "s.mces")
        write_stream(path, rng.standard_normal((4, 1, 2)).astype(np.float32))
        with pytest.raises(InvalidSpec):
            plant_eval(ExperimentSpec(stream_file=path))

    def test_needs_sharp_plants_and_real_alpha(self):
        weak = tiny_synth(segments=((16, 32, 0.3),))
        with pytest.raises(InvalidSpec):
            plant_eval(self.spec(synthetic=weak))
        flat_cfg = ConsolidationConfig(alpha=1.0)
        with pytest.raises(InvalidSpec):
            plant_eval(self.spec(cfg=flat_cfg))

    def test_no_segments_is_inapplicable(self):
        report = plant_eval(self.spec(synthetic=tiny_synth()))
        assert not report["summary"]["applicable"]
        assert report["summary"]["wins"] is None
        assert not report["summary"]["gate"]["passed"]


class TestBenchMem:
    def test_small_growth_table(self):
        spec = ExperimentSpec(synthetic=tiny_synth(n_tokens=2, dims=4))
        report = bench_mem(spec, t_list=(32, 64, 128))
        rows = report["rows"]
        assert [r["frame_count"] for r in rows] == [32, 64, 128]
        raw = 2 * 4 * 4
        for row in rows:
            assert row["raw_bytes_per_frame"] == raw
            # base_target 4 of capacity 16, so a quarter of every frame survives
            assert row["amortized_bytes_per_frame"] == raw / 4
            assert row["empirical_bytes_per_frame"] == raw / 4
            assert row["peak_resident_bytes"] == (16 + 256) * raw
        assert report["summary"]["peak_constant"]
        assert report["summary"]["amortized_within_1pct"]
        assert report["summary"]["gate"]["passed"]

    def test_lazy_generation_matches_batch_run(self):
        # the bench streams frames lazily; a pipeline fed the materialized
        # array must land in the identical long-term state
        spec = ExperimentSpec(synthetic=tiny_synth(n_tokens=2, dims=4))
        report = bench_mem(spec, t_list=(48,))
        from mces import Pipeline
        frames, _ = generate_synthetic(tiny_synth(n_tokens=2, dims=4, frame_count=48))
        pipe = Pipeline(2, 4, spec.cfg, ltm_capacity=256, reinit_mode="none")
        pipe.run_stream(frames)
        assert report["rows"][0]["ltm_entries"] == len(pipe.long)
        assert report["rows"][0]["measured_peak_frames"] == pipe.peak_resident_frames

    def test_validation(self):
        spec = ExperimentSpec(synthetic=tiny_synth())
        with pytest.raises(InvalidSpec):
            bench_mem(spec, t_list=(0,))
        with pytest.raises(InvalidSpec, match="at least one stream length"):
            bench_mem(spec, t_list=())

    def test_file_stream_refused(self, tmp_path):
        path = tmp_path / "s.mces"
        write_stream(path, np.ones((2, 1, 2)))
        with pytest.raises(InvalidSpec, match="synthetic stream template"):
            bench_mem(ExperimentSpec(stream_file=str(path)))


class TestHeldMemory:
    """Driving a pipeline for its final state holds nothing per fill."""

    @staticmethod
    def peak_bytes(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("driver", ["run_single", "bench_mem"])
    def test_peak_does_not_grow_with_stream_length(self, driver):
        spec = ExperimentSpec(synthetic=tiny_synth(), ltm_capacity=8, reinit_mode="none")

        def drive(t):
            if driver == "bench_mem":
                return lambda: bench_mem(spec, t_list=(t,))
            frames, _ = generate_synthetic(tiny_synth(frame_count=t))
            return lambda: _run_single(spec, "stream_merge", 0, frames, None, ())[1]

        self.peak_bytes(drive(1000))  # first-call allocations are not per fill
        short, long = (self.peak_bytes(drive(t)) for t in (1000, 4000))
        # a report per fill would hold about 1 KB for each of 187 more fills
        assert long - short < 32 * 1024


class TestOneRunner:
    """plant_eval and bench_mem report what run() reports for the same pipelines."""

    def test_plant_eval_pairs_are_run_rows(self):
        spec = ExperimentSpec(synthetic=planted_synth(), seeds=(0, 1, 2))
        report = plant_eval(spec)
        swept = run(dataclasses.replace(spec, sweep=(("alpha", (spec.cfg.alpha, 1.0)),)))
        rows = swept["rows"]  # per seed: the aware point, then alpha 1
        assert [row["seed"] for row in rows[::2]] == [row["seed"] for row in report["rows"]]
        assert [(row["aware"], row["agnostic"]) for row in report["rows"]] == \
               [(a["relevance"], b["relevance"]) for a, b in zip(rows[::2], rows[1::2])]

    def test_bench_mem_rows_are_run_rows(self):
        synth = tiny_synth(n_tokens=2, dims=4)
        spec = ExperimentSpec(synthetic=synth, ltm_capacity=8)
        report = bench_mem(spec, t_list=(32, 100))
        for bench_row in report["rows"]:
            row, = run(dataclasses.replace(
                spec, synthetic=dataclasses.replace(synth, frame_count=bench_row["frame_count"]),
                policies=("stream_merge",), reinit_mode="none"))["rows"]
            counters = row["counters"]
            empirical = (row["accounting"]["raw_bytes_per_frame"]
                         * counters["consolidation_output_total"] / counters["frames_pushed"])
            assert bench_row["ltm_entries"] == counters["ltm_entries"]
            assert bench_row["measured_peak_frames"] == counters["peak_resident_frames"]
            assert bench_row["empirical_bytes_per_frame"] == empirical


class TestReportPlumbing:
    def test_volatile_keys_stripped_at_depth(self):
        report = {
            "rows": [{"x": 1, "wall_time_s": 0.5,
                      "nested": {"wall_time_s": 0.9, "y": 2}}],
            "canonical_sha256": "abc",
        }
        raw = canonical_report_bytes(report).decode()
        assert "wall_time_s" not in raw
        assert "canonical_sha256" not in raw
        assert json.loads(raw) == {"rows": [{"x": 1, "nested": {"y": 2}}]}

    def test_check_gate_passes_quietly(self):
        check_gate({"summary": {"gate": {"passed": True}}})
        check_gate({"rows": []})  # no gate at all is fine

    def test_write_json_and_csv(self, tmp_path):
        spec = ExperimentSpec(synthetic=tiny_synth(),
                              policies=("ema", "question_merge"))
        report = run(spec)
        paths = write_report(report, str(tmp_path), formats=("json", "csv"))
        assert sorted(p.rsplit(".", 1)[1] for p in paths) == ["csv", "json"]

        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["canonical_sha256"] == report["canonical_sha256"]

        with open(tmp_path / "report.csv", newline="") as fh:
            table = list(csv.reader(fh))
        header, *cells = table
        assert len(cells) == len(report["rows"])
        # every number in the CSV is the JSON spelling of the same value
        col = header.index("token_budget")
        for row, csv_row in zip(report["rows"], cells):
            assert json.loads(csv_row[col]) == row["token_budget"]
        col = header.index("relevance.applicable")
        assert {c[col] for c in cells} <= {"true", "false"}

    @pytest.mark.parametrize("formats, fail", [
        (("json",), "json"), (("csv",), "csv"), (("json", "csv"), "csv"),
        (("json", "csv"), "json"),
    ], ids=["json", "csv", "both_csv_fails", "both_json_fails"])
    def test_failed_write_leaves_the_previous_report(self, tmp_path, monkeypatch, formats, fail):
        # the write fails after some bytes: no path is replaced, even one
        # whose own file was written, and nothing else is left behind
        write_report(run(ExperimentSpec(synthetic=tiny_synth(), policies=("ema",))),
                     str(tmp_path), formats)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def full_disk(*args, **kw):
            raise OSError(28, "No space left on device")

        if fail == "json":
            def partial_dump(obj, fh, **kw):
                fh.write(json.dumps(obj, **kw)[:40])
                full_disk()
            monkeypatch.setattr(harness.json, "dump", partial_dump)
        else:
            monkeypatch.setattr(harness, "_csv_cell", full_disk)  # after the header row
        report = run(ExperimentSpec(synthetic=tiny_synth(seed=1), policies=("ema", "no_memory")))
        with pytest.raises(IoFailure, match="No space left"):
            write_report(report, str(tmp_path), formats)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_csv_none_is_empty_cell(self, tmp_path):
        report = run(ExperimentSpec(synthetic=tiny_synth(), policies=("ema",)))
        write_report(report, str(tmp_path), formats=("csv",))
        with open(tmp_path / "report.csv", newline="") as fh:
            header, row = list(csv.reader(fh))
        assert row[header.index("accounting")] == ""

    def test_environment_block(self):
        report = run(ExperimentSpec(synthetic=tiny_synth(), policies=("ema",)))
        env = report["environment"]
        assert set(env) == {"version", "build_hash"}
        assert len(env["build_hash"]) == 16
