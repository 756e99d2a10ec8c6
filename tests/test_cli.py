from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mces import (
    ConsolidationConfig,
    Pipeline,
    SyntheticSpec,
    generate_synthetic,
    import_pipeline,
    read_stream,
    write_stream,
)
from mces import cli, harness
from mces.cli import main


def gen(tmp_path, name="s.mces", extra=()):
    path = str(tmp_path / name)
    rc = main(["gen", "--t", "40", "--n", "2", "--d", "8", "--seed", "0",
               "--out", path, *extra])
    assert rc == 0
    return path


# the retired keys, each at the one value it once had to hold: format 1
# snapshots still carry the cfg keys (window_size at the capacity, 16 here)
RETIRED_CFG_KEYS = {"question_similarity": "pooled", "relevance_exclude_context": False,
                    "basis": "mean", "question_required": False, "windows_per_fill": 1,
                    "window_size": 16}
RETIRED_TOP_KEYS = {"sample_count": 16, "ema_decay": 0.5, "max_grid_points": 1024}


def refusal(name, retired):
    # what a config error must say: a retired key is unknown, at any value;
    # any other name is the field or message the check reports
    return f"unknown config keys ['{name}']" if name in retired else name


def write_config(tmp_path, **overrides):
    config = {
        "synthetic": {"frame_count": 40, "n_tokens": 2, "dims": 8},
        "cfg": {"base_target": 4, "alpha": 0.25},
        "policies": ["stream_merge"],
    }
    config.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(config))
    return str(path)


def run_args(tmp_path, stream, *extra):
    return ["run", "--stream", stream, "--m0", "4", "--alpha", "0.25",
            "--out", str(tmp_path / "out"), *extra]


class TestGen:
    def test_writes_readable_stream(self, tmp_path, capsys):
        path = gen(tmp_path)
        assert capsys.readouterr().out.strip() == path
        header, frames, q = read_stream(path)
        assert (header.frame_count, header.n_tokens, header.dims) == (40, 2, 8)
        assert q is not None

    def test_no_question_flag(self, tmp_path):
        path = gen(tmp_path, extra=["--no-question"])
        _, _, q = read_stream(path)
        assert q is None

    def test_retired_with_question_flag_exits_2(self, tmp_path, capsys):
        # the question is written unless --no-question is given
        with pytest.raises(SystemExit) as caught:
            gen(tmp_path, extra=["--with-question"])
        assert caught.value.code == 2
        assert "--with-question" in capsys.readouterr().err
        assert not (tmp_path / "s.mces").exists()

    def test_deterministic(self, tmp_path):
        a = gen(tmp_path, "a.mces")
        b = gen(tmp_path, "b.mces")
        assert (tmp_path / "a.mces").read_bytes() == (tmp_path / "b.mces").read_bytes()

    def test_segments_parsed(self, tmp_path):
        gen(tmp_path, extra=["--segments", "8:16:0.9,24:32:0.5"])

    def test_streamed_write_equals_the_batch_write(self, tmp_path):
        path = gen(tmp_path, extra=["--segments", "8:16:0.9"])
        frames, q = generate_synthetic(SyntheticSpec(
            frame_count=40, n_tokens=2, dims=8, seed=0, segments=((8, 16, 0.9),)))
        batch = tmp_path / "batch.mces"
        write_stream(batch, frames, q)
        assert (tmp_path / "s.mces").read_bytes() == batch.read_bytes()

    def test_bad_segments_exit_2(self, tmp_path, capsys):
        rc = main(["gen", "--t", "8", "--n", "1", "--d", "4",
                   "--segments", "8-16-0.9", "--out", str(tmp_path / "x.mces")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err


class TestRun:
    def test_writes_report(self, tmp_path, capsys):
        stream = gen(tmp_path)
        rc = main(run_args(tmp_path, stream))
        assert rc == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed[-1].endswith("report.json")
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["policy"] == "question_merge"

    def test_both_formats(self, tmp_path):
        stream = gen(tmp_path)
        rc = main(run_args(tmp_path, stream, "--format", "both"))
        assert rc == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "report.csv").exists()

    def test_missing_budget_flags_exit_2(self, tmp_path, capsys):
        stream = gen(tmp_path)
        rc = main(["run", "--stream", stream, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "--m0" in capsys.readouterr().err

    def test_missing_stream_exit_3(self, tmp_path):
        rc = main(run_args(tmp_path, str(tmp_path / "absent.mces")))
        assert rc == 3

    def test_snapshot_export(self, tmp_path):
        stream = gen(tmp_path)
        rc = main(run_args(tmp_path, stream, "--snapshot"))
        assert rc == 0
        snap = tmp_path / "out" / "snapshot.json"
        assert snap.exists()
        pipe = import_pipeline(str(snap))
        assert pipe.frames_pushed == 40

    def test_snapshot_exports_the_reported_run(self, tmp_path, monkeypatch):
        stream = gen(tmp_path)
        steps = []
        step = Pipeline.step

        def counted(pipe, frame):
            steps.append(1)
            return step(pipe, frame)

        monkeypatch.setattr(Pipeline, "step", counted)
        assert main(run_args(tmp_path, stream, "--snapshot")) == 0
        assert len(steps) == 40
        monkeypatch.undo()

        _, frames, question = read_stream(stream)
        direct = Pipeline(2, 8, ConsolidationConfig(base_target=4, alpha=0.25),
                          question=question)
        direct.run_stream(frames)
        resumed = import_pipeline(str(tmp_path / "out" / "snapshot.json"))
        assert resumed.long.position_ids == direct.long.position_ids
        assert [e.weight for e in resumed.long.entries] == \
               [e.weight for e in direct.long.entries]
        assert [e.provenance for e in resumed.long.entries] == \
               [e.provenance for e in direct.long.entries]

    def test_file_stream_runs_once_for_all_seeds(self, tmp_path, monkeypatch):
        # seeds only label the rows of a file stream, so its frames go
        # through the pipeline once, and each seed gets the same row
        stream = gen(tmp_path)
        steps = []
        step = Pipeline.step

        def counted(pipe, frame):
            steps.append(1)
            return step(pipe, frame)

        monkeypatch.setattr(Pipeline, "step", counted)
        assert main(run_args(tmp_path, stream, "--seeds", "0,1,2")) == 0
        assert len(steps) == 40
        rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
        assert [r["seed"] for r in rows] == [0, 1, 2]
        for row in rows:
            assert row["counters"]["frames_pushed"] == 40
            assert {k: v for k, v in row.items() if k not in ("seed", "wall_time_s")} == \
                   {k: v for k, v in rows[0].items() if k not in ("seed", "wall_time_s")}

    def test_policies_flag(self, tmp_path):
        stream = gen(tmp_path)
        rc = main(run_args(tmp_path, stream, "--policies", "ema,no_memory"))
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["policy"] for r in doc["rows"]] == ["ema", "no_memory"]

    def test_question_inline_override(self, tmp_path):
        stream = gen(tmp_path, extra=["--no-question"])
        q = ",".join(["1"] + ["0"] * 7)
        rc = main(run_args(tmp_path, stream, "--question", q))
        assert rc == 0

    def test_question_from_npy(self, tmp_path):
        stream = gen(tmp_path, extra=["--no-question"])
        qpath = str(tmp_path / "q.npy")
        np.save(qpath, np.eye(8)[0])
        rc = main(run_args(tmp_path, stream, "--question", qpath))
        assert rc == 0

    @pytest.mark.parametrize("shape", [(2, 4), (1, 8)])
    def test_question_from_npy_must_be_1d(self, tmp_path, capsys, shape):
        stream = gen(tmp_path, extra=["--no-question"])
        qpath = str(tmp_path / "q.npy")
        np.save(qpath, np.ones(shape))
        rc = main(run_args(tmp_path, stream, "--question", qpath))
        assert rc == 2
        assert "1-D" in capsys.readouterr().err

    def test_non_finite_question_exit_2(self, tmp_path, capsys):
        stream = gen(tmp_path)
        rc = main(run_args(tmp_path, stream, "--question", "nan" + ",1" + ",0" * 6))
        assert rc == 2
        assert "not finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_question_with_overflowing_norm_exit_2(self, tmp_path, capsys):
        # it used to run, scoring every window 0.0
        stream = gen(tmp_path)
        rc = main(run_args(tmp_path, stream, "--question", "1e200" + ",0" * 7))
        assert rc == 2
        assert "norm overflows" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_question_exit_2(self, tmp_path, capsys):
        stream = gen(tmp_path)
        rc = main(run_args(tmp_path, stream, "--question", ",".join(["0"] * 8)))
        assert rc == 2
        assert capsys.readouterr().err == "error: question vector has near-zero norm\n"
        assert not (tmp_path / "out").exists()

    def test_question_from_json_list(self, tmp_path):
        stream = gen(tmp_path, extra=["--no-question"])
        qpath = tmp_path / "q.json"
        qpath.write_text(json.dumps([0, 1] + [0] * 6))
        assert main(run_args(tmp_path, stream, "--question", str(qpath))) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["spec_echo"]["question"] == [0.0, 1.0] + [0.0] * 6

    def test_question_from_bare_stream_exit_2(self, tmp_path):
        stream = gen(tmp_path, extra=["--no-question"])
        rc = main(run_args(tmp_path, stream, "--question", stream))
        assert rc == 2

    def test_question_from_stream_reads_no_payload(self, tmp_path):
        # only the header and the question are read, so a bad frame is no bar
        stream = gen(tmp_path, extra=["--no-question"])
        donor = tmp_path / "donor.mces"
        write_stream(donor, np.full((2, 1, 8), np.float32(1.0)), np.eye(8)[0])
        raw = bytearray(donor.read_bytes())
        raw[-4:] = np.array([np.nan], "<f4").tobytes()
        donor.write_bytes(raw)
        assert main(run_args(tmp_path, stream, "--question", str(donor))) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["spec_echo"]["question"] == list(np.eye(8)[0])


class TestConfigFile:
    def test_config_supplies_everything(self, tmp_path):
        config = {
            "synthetic": {"frame_count": 40, "n_tokens": 2, "dims": 8, "seed": 1},
            "cfg": {"base_target": 4, "alpha": 0.25},
            "policies": ["stream_merge"],
            "seeds": [0, 1],
        }
        cpath = tmp_path / "exp.json"
        cpath.write_text(json.dumps(config))
        rc = main(["run", "--config", str(cpath), "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(doc["rows"]) == 2

    def test_flags_override_config(self, tmp_path):
        config = {
            "synthetic": {"frame_count": 40, "n_tokens": 2, "dims": 8},
            "cfg": {"base_target": 4, "alpha": 0.25},
            "policies": ["stream_merge"],
        }
        cpath = tmp_path / "exp.json"
        cpath.write_text(json.dumps(config))
        rc = main(["run", "--config", str(cpath), "--m0", "2", "--seed", "7",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        row = json.loads((tmp_path / "out" / "report.json").read_text())["rows"][0]
        assert row["params"]["m0"] == 2
        assert row["seed"] == 7

    def test_unreadable_config_exit_3(self, tmp_path):
        rc = main(["run", "--config", str(tmp_path / "none.json"),
                   "--out", str(tmp_path / "out")])
        assert rc == 3

    @pytest.mark.parametrize("key, value, message", [
        ("policies", "ema", "policies must be a list, got 'ema'"),
        ("seeds", 3, "seeds must be a list, got 3"),
        ("sweep", {"m0": 2}, "sweep axis 'm0' must be a list, got 2"),
    ])
    def test_a_string_or_scalar_list_key_exits_2_naming_it(self, tmp_path, capsys, key,
                                                           value, message):
        cpath = write_config(tmp_path, **{key: value})
        assert main(["run", "--config", cpath, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_garbled_config_exit_2(self, tmp_path):
        cpath = tmp_path / "bad.json"
        cpath.write_text("{")
        rc = main(["run", "--config", str(cpath), "--out", str(tmp_path / "out")])
        assert rc == 2


def plant_config(tmp_path, rho=0.9):
    config = {
        "synthetic": {"frame_count": 40, "n_tokens": 2, "dims": 8,
                      "segments": [[16, 32, rho]], "noise_scale": 0.05},
        "cfg": {"base_target": 4, "alpha": 0.25},
        "reinit": "none",
    }
    path = tmp_path / "plant.json"
    path.write_text(json.dumps(config))
    return str(path)


class TestPlantEval:
    def test_gate_passes(self, tmp_path):
        rc = main(["plant-eval", "--config", plant_config(tmp_path),
                   "--seeds", "0,1,2", "--assert", "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["summary"]["wins"] == 3

    def test_unreachable_min_wins_exits_4(self, tmp_path, capsys):
        rc = main(["plant-eval", "--config", plant_config(tmp_path),
                   "--seeds", "0,1", "--min-wins", "99", "--assert",
                   "--out", str(tmp_path / "out")])
        assert rc == 4
        assert "gate failed" in capsys.readouterr().err

    def test_gate_not_asserted_without_flag(self, tmp_path):
        rc = main(["plant-eval", "--config", plant_config(tmp_path),
                   "--seeds", "0", "--min-wins", "99",
                   "--out", str(tmp_path / "out")])
        assert rc == 0


class TestBenchMem:
    def test_growth_table(self, tmp_path):
        config = {
            "synthetic": {"frame_count": 32, "n_tokens": 2, "dims": 4},
            "cfg": {"base_target": 4, "alpha": 0.25},
        }
        cpath = tmp_path / "bench.json"
        cpath.write_text(json.dumps(config))
        rc = main(["bench-mem", "--config", str(cpath), "--t-list", "32,64",
                   "--assert", "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [r["frame_count"] for r in doc["rows"]] == [32, 64]
        assert doc["summary"]["gate"]["passed"]

    @pytest.mark.parametrize("extra", [(), ("--reinit", "merged"),
                                       ("--question", ",".join(["1"] * 4))])
    def test_echoes_the_settings_it_ran(self, tmp_path, extra):
        # every row runs question-agnostic with re-initialization off
        rc = main(["bench-mem", "--config", write_config(tmp_path, synthetic={
            "frame_count": 32, "n_tokens": 2, "dims": 4}), "--t-list", "32",
            "--out", str(tmp_path / "out"), *extra])
        assert rc == 0
        echo = json.loads((tmp_path / "out" / "report.json").read_text())["spec_echo"]
        assert (echo["reinit_mode"], echo["question"]) == ("none", None)

    def plant_config(self, tmp_path):
        # README's plant.json
        return write_config(tmp_path, synthetic={
            "frame_count": 160, "n_tokens": 4, "dims": 32,
            "segments": [[64, 80, 0.9]], "noise_scale": 0.05},
            reinit="none", policies=["question_merge"])

    def test_refuses_more_than_one_seed(self, tmp_path, capsys):
        # no row value but wall_time_s depends on the seed, so a second
        # seed would only repeat rows
        rc = main(["bench-mem", "--config", self.plant_config(tmp_path), "--t-list", "100",
                   "--seeds", "3,4", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "bench_mem runs one seed, got [3, 4]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runs_and_echoes_its_one_seed(self, tmp_path):
        rows = {}
        for seed in ("3", "0"):
            out = tmp_path / f"out{seed}"
            assert main(["bench-mem", "--config", self.plant_config(tmp_path),
                         "--t-list", "100", "--seed", seed, "--out", str(out)]) == 0
            doc = json.loads((out / "report.json").read_text())
            assert doc["spec_echo"]["seeds"] == [int(seed)]
            assert doc["spec_echo"]["synthetic"]["seed"] == int(seed)
            rows[seed] = [{k: v for k, v in row.items() if k != "wall_time_s"}
                          for row in doc["rows"]]
        assert rows["3"] == rows["0"]


class TestRunParameters:
    """Flags, --config keys and sweep axes share one set of short names."""

    def test_sweep_takes_reinit_aliases(self, tmp_path):
        cpath = write_config(tmp_path, sweep={"reinit": ["merged", "none"]})
        assert main(["run", "--config", cpath, "--out", str(tmp_path / "out")]) == 0
        rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
        assert [r["params"]["reinit"] for r in rows] == ["merged_tokens", "none"]

    def test_flag_zero_ltm_cap_exit_2(self, tmp_path, capsys):
        cpath = write_config(tmp_path)
        rc = main(["run", "--config", cpath, "--ltm-cap", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "long-term capacity" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["ltm_cap", "reinit"])
    def test_baseline_only_run_checks_engine_settings(self, tmp_path, capsys, case):
        # no pipeline row would ever build the long-term store or re-seed
        extra = (["--ltm-cap", "0"] if case == "ltm_cap"
                 else ["--config", write_config(tmp_path, reinit="bogus")])
        args = run_args(tmp_path, gen(tmp_path), "--policies", "ema", *extra)
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("overrides, name", [
        ({"ltm_cap": "x"}, "ltm_cap"),
        ({"sweep": {"k": ["x"]}}, "k"),
        ({"sweep": {"l_long": [1.5]}}, "ltm_cap"),
        ({"question": ["1", "0", "0", "0", "0", "0", "0", "0"]}, "question"),
        ({"question": [True, False, False, False, False, False, False, False]}, "question"),
    ])
    def test_mistyped_value_names_the_parameter(self, tmp_path, capsys, overrides, name):
        cpath = write_config(tmp_path, **overrides)
        assert main(["run", "--config", cpath, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and name in err


class TestChecksBeforeAnyRow:
    """Settings that no row could use exit 2 before any row runs."""

    @pytest.mark.parametrize("key, value", [
        ("capacity", 16.5), ("sigma", True), ("capacity", True), ("base_target", 4.5),
        ("alpha", "0.25"),
        # retired keys: unknown at any value, like test_retired_key_exits_2's
        ("question_required", "no"), ("question_similarity", "per_token"),
        ("relevance_exclude_context", True), ("basis", "max"), ("question_required", True),
    ])
    def test_cfg_block_is_type_checked(self, tmp_path, capsys, key, value):
        cpath = write_config(tmp_path, cfg={"base_target": 4, "alpha": 0.25, key: value})
        assert main(["run", "--config", cpath, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and refusal(key, RETIRED_CFG_KEYS) in err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_retired_basis_flag_and_sweep_axis_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["run", "--config", write_config(tmp_path), "--basis", "mean",
                  "--out", str(tmp_path / "out")])
        assert caught.value.code == 2
        assert "--basis" in capsys.readouterr().err
        cpath = write_config(tmp_path, sweep={"basis": ["mean"]})
        assert main(["run", "--config", cpath, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "'basis'" in err
        assert not (tmp_path / "out").exists()

    def test_retired_reinit_modes_exit_2(self, tmp_path, capsys):
        for value in ("last", "uniform", "last_k"):
            with pytest.raises(SystemExit) as caught:
                main(["run", "--config", write_config(tmp_path), "--reinit", value,
                      "--out", str(tmp_path / "out")])
            assert caught.value.code == 2
            assert "--reinit" in capsys.readouterr().err
        for overrides in ({"reinit": "last_k"}, {"reinit": "uniform_sample"},
                          {"sweep": {"reinit": ["uniform"]}},
                          {"sweep": {"reinit": ["none", "last"]}}):
            cpath = write_config(tmp_path, **overrides)
            assert main(["run", "--config", cpath, "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error") and "reinit_mode" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, name", [
        # retired keys: unknown at any value, like test_retired_key_exits_2's
        ({"max_grid_points": "x"}, "max_grid_points"),
        ({"max_grid_points": 0}, "max_grid_points"),
        ({"sample_count": 16.5, "policies": ["no_memory"]}, "sample_count"),
        ({"ema_decay": True, "policies": ["ema"]}, "ema_decay"),
        # live fields
        ({"seeds": ["a"]}, "seeds must be of type int"),
        ({"seeds": [1.5]}, "seeds must be of type int"),
        ({"reinit": 1}, "reinit must be of type str"),
        ({"sweep": {"m0": [2.5]}}, "m0 must be of type int"),
    ])
    def test_experiment_fields_checked(self, tmp_path, capsys, overrides, name):
        cpath = write_config(tmp_path, **overrides)
        assert main(["run", "--config", cpath, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and refusal(name, RETIRED_TOP_KEYS) in err

    @pytest.mark.parametrize("overrides, name", [
        # retired keys: unknown at any value, like test_retired_key_exits_2's
        ({"sample_count": 0}, "sample_count"),
        ({"sample_count": -1}, "sample_count"),
        ({"ema_decay": 1.0}, "ema_decay"),
        ({"ema_decay": -0.5}, "ema_decay"),
        # live fields
        ({"seeds": [-1]}, "seeds must be >= 0"),
        ({"ltm_cap": 0}, "long-term capacity must be >= 1"),
        ({"cfg": {"base_target": 4, "alpha": 1.5}}, "alpha must be in"),
        ({"sweep": {"m0": [0]}}, "base_target must be in"),
    ])
    def test_experiment_fields_range_checked(self, tmp_path, capsys, monkeypatch,
                                             overrides, name):
        rows = []
        monkeypatch.setattr(harness, "_run_single", lambda *args: rows.append(args))
        cpath = write_config(tmp_path, policies=["stream_merge", "no_memory", "ema"],
                             **overrides)
        assert main(["run", "--config", cpath, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and refusal(name, RETIRED_TOP_KEYS) in err
        assert rows == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", [*RETIRED_CFG_KEYS, *RETIRED_TOP_KEYS])
    @pytest.mark.parametrize("command", ["run", "plant-eval", "bench-mem"])
    def test_retired_key_exits_2(self, tmp_path, capsys, monkeypatch, command, key):
        # even at the one value every run used, a retired key is unknown
        rows = []
        monkeypatch.setattr(harness, "_run_single", lambda *args: rows.append(args))
        if key in RETIRED_CFG_KEYS:
            cpath = write_config(tmp_path, cfg={"base_target": 4, "alpha": 0.25,
                                                key: RETIRED_CFG_KEYS[key]})
        else:
            cpath = write_config(tmp_path, **{key: RETIRED_TOP_KEYS[key]})
        assert main([command, "--config", cpath, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"unknown config keys ['{key}']" in err
        assert rows == []
        assert not (tmp_path / "out").exists()

    def test_misspelled_keys_exit_2(self, tmp_path, capsys, monkeypatch):
        rows = []
        monkeypatch.setattr(harness, "_run_single", lambda *args: rows.append(args))
        stream = gen(tmp_path)
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps({"polices": ["ema"], "sedes": [1, 2], "reinit": "none",
                                     "cfg": {"base_target": 4, "alpha": 0.25}}))
        assert main(["run", "--stream", stream, "--config", str(cpath),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "['polices', 'sedes']" in err
        assert rows == []
        assert not (tmp_path / "out").exists()
        # gen reads only "synthetic" from a config it may share with run
        assert main(["gen", "--config", write_config(tmp_path, polices=["ema"]),
                     "--out", str(tmp_path / "g.mces")]) == 0

    def test_readme_lists_the_config_keys(self):
        # the top-level key table in README.md against what _build_spec takes
        lines = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8").splitlines()
        start = lines.index("| key | holds |") + 2
        accepted = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            key = line.strip("|").split("|")[0].strip()
            accepted.append(re.fullmatch(r"`(\w+)`", key).group(1))
        assert sorted(accepted) == sorted(cli._CONFIG_KEYS)

    @pytest.mark.parametrize("extra", [
        ("--policies", "ema"),
        ("--policies", "stream_merge,question_merge"),
        ("--seeds", "0,1"),
    ])
    def test_snapshot_needs_one_pipeline_row(self, tmp_path, capsys, extra):
        assert main(run_args(tmp_path, gen(tmp_path), "--snapshot", *extra)) == 2
        assert "--snapshot" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_snapshot_refuses_a_sweep(self, tmp_path, capsys):
        cpath = write_config(tmp_path, sweep={"m0": [2, 4]})
        assert main(["run", "--config", cpath, "--snapshot",
                     "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen", "run"])
@pytest.mark.parametrize("synthetic", [
    {"frame_count": 40, "n_tokens": 2, "dims": 8, "segments": [[0, 16.7, 0.9]]},
    {"frame_count": True, "n_tokens": 2.5, "dims": 8},
], ids=["fractional_segment_stop", "bool_and_fractional_counts"])
def test_mistyped_synthetic_block_exits_2(tmp_path, capsys, command, synthetic):
    # both used to run, the first on the segment (0, 16, 0.9)
    out = str(tmp_path / "out")
    argv = ["--out", out] if command == "gen" else ["--out", out, "--m0", "4", "--alpha", "1"]
    assert main([command, "--config", write_config(tmp_path, synthetic=synthetic), *argv]) == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not os.path.exists(out)


def _malformed(tmp_path, case):
    if case == "cfg_list":
        return ["run", "--config", write_config(tmp_path, cfg=[1])]
    if case == "synthetic_unknown_key":
        return ["run", "--config", write_config(
            tmp_path, synthetic={"frame_count": 40, "n_tokens": 2, "dims": 8, "colour": 1})]
    if case == "sweep_scalar":
        return ["run", "--config", write_config(tmp_path, sweep={"k": 5})]
    if case == "seeds_string":
        return ["run", "--config", write_config(tmp_path, seeds="ab")]
    if case == "ema_decay_string":
        return ["run", "--config", write_config(tmp_path, ema_decay="x")]
    if case == "seeds_flag":
        return ["run", "--config", write_config(tmp_path), "--seeds", "a"]
    if case == "t_list":
        return ["bench-mem", "--config", write_config(tmp_path), "--t-list", "8,x"]
    if case == "t_list_empty":
        return ["bench-mem", "--config", write_config(tmp_path), "--t-list", ",", "--assert"]
    if case == "min_wins_below_one":
        return ["plant-eval", "--config", plant_config(tmp_path), "--seeds", "0,1",
                "--min-wins", "-5", "--assert"]
    if case == "gen_segments":
        return ["gen", "--t", "8", "--n", "1", "--d", "4", "--segments", "a:2:0.5",
                "--out", str(tmp_path / "x.mces")]
    if case == "question_object":
        qpath = tmp_path / "q.json"
        qpath.write_text(json.dumps({"q": [1, 0]}))
        return ["run", "--config", write_config(tmp_path), "--question", str(qpath)]
    doc = tmp_path / "doc.json"
    if case == "snapshot_entry_without_weight":
        doc.write_text(json.dumps({"kind": "pipeline_snapshot", "long": {"entries": [
            {"position_id": 0, "context_flag": False, "provenance": [[0, 1, 1]]}]}}))
        return ["inspect", "--snapshot", str(doc)]
    if case == "report_without_rows":
        return ["inspect", "--report", plant_config(tmp_path)]
    if case == "snapshot_given_a_config":
        return ["inspect", "--snapshot", plant_config(tmp_path)]
    doc.write_text(json.dumps({"rows": [
        {"policy": "ema", "relevance": {"applicable": True}}]}))
    if case == "snapshot_given_a_report":
        return ["inspect", "--snapshot", str(doc)]
    return ["inspect", "--report", str(doc)]


@pytest.mark.parametrize("case", [
    "cfg_list", "synthetic_unknown_key", "sweep_scalar", "seeds_string",
    "ema_decay_string", "seeds_flag", "t_list", "t_list_empty", "min_wins_below_one",
    "gen_segments", "question_object", "snapshot_entry_without_weight",
    "snapshot_given_a_config", "snapshot_given_a_report", "report_row_without_rmf",
    "report_without_rows",
])
def test_malformed_input_is_a_config_error(tmp_path, capsys, case):
    argv = _malformed(tmp_path, case)
    if argv[0] != "inspect" and argv[0] != "gen":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error")
    assert "Traceback" not in err


class TestSweepAndCompare:
    """A sweep is run --config with a "sweep" object, a comparison is run
    --policies a,b; neither has a command of its own."""

    def test_sweep_grid(self, tmp_path):
        config = {
            "synthetic": {"frame_count": 40, "n_tokens": 2, "dims": 8},
            "cfg": {"base_target": 4, "alpha": 0.25},
            "policies": ["stream_merge"],
            "sweep": {"l_short": [8, 16], "m0": [1, 2]},
        }
        cpath = tmp_path / "sweep.json"
        cpath.write_text(json.dumps(config))
        rc = main(["run", "--config", str(cpath), "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(doc["rows"]) == 4
        del config["sweep"]
        cpath.write_text(json.dumps(config))
        assert main(["run", "--config", str(cpath), "--out", str(tmp_path / "one")]) == 0
        assert len(json.loads((tmp_path / "one" / "report.json").read_text())["rows"]) == 1

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_sweep_and_compare_commands_exit_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as caught:
            main([command, "--stream", gen(tmp_path), "--m0", "4", "--alpha", "0.25",
                  "--policies", "ema,question_merge", "--out", str(tmp_path / "out")])
        assert caught.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_compare_is_run_with_policies(self, tmp_path):
        rc = main(run_args(tmp_path, gen(tmp_path), "--policies", "ema,question_merge"))
        assert rc == 0
        rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
        assert [r["policy"] for r in rows] == ["ema", "question_merge"]


class TestInspect:
    def test_stream_summary(self, tmp_path, capsys):
        stream = gen(tmp_path)
        rc = main(["inspect", "--stream", stream])
        assert rc == 0
        out = capsys.readouterr().out
        assert "frames 40" in out
        assert "question yes" in out

    def test_stream_norms_match_the_whole_payload(self, tmp_path, capsys):
        stream = gen(tmp_path)
        assert main(["inspect", "--stream", stream]) == 0
        _, frames, _ = read_stream(stream)
        norms = np.linalg.norm(frames.reshape(len(frames), -1), axis=1)
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"  frame norm min {norms.min():.4f} mean {norms.mean():.4f} "
            f"max {norms.max():.4f}")

    @pytest.mark.parametrize("damage", ["truncate", "nan"])
    def test_bad_stream_prints_nothing_and_exits_3(self, tmp_path, capsys, damage):
        stream = Path(gen(tmp_path))
        capsys.readouterr()
        raw = bytearray(stream.read_bytes())
        if damage == "truncate":
            raw = raw[:-4]
        else:
            raw[-8:-4] = np.array([np.inf], "<f4").tobytes()
        stream.write_bytes(raw)
        assert main(["inspect", "--stream", str(stream)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("i/o error")

    def test_snapshot_summary(self, tmp_path, capsys):
        stream = gen(tmp_path)
        main(run_args(tmp_path, stream, "--snapshot"))
        capsys.readouterr()
        rc = main(["inspect", "--snapshot", str(tmp_path / "out" / "snapshot.json")])
        assert rc == 0
        assert "pipeline_snapshot" in capsys.readouterr().out

    def test_snapshot_lines_of_the_v1_fixture(self, capsys):
        path = str(Path(__file__).parent / "fixtures" / "snapshot_v1.json")
        assert main(["inspect", "--snapshot", path, "--limit", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"snapshot {path} kind pipeline_snapshot",
            "  long-term entries 2",
            "    id 0 weight 16 context False provenance [[0, 16, 1]]",
            "  short-term frames 7",
            '  counters {"consolidation_input_total": 32, "consolidation_output_total": 2, '
            '"consolidations_run": 2, "frames_pushed": 37, "peak_resident_frames": 19, '
            '"seeded_weight_total": 47}',
        ]

    def test_negative_limit_exit_2(self, capsys):
        # a negative limit used to slice from the end and print no entry
        path = str(Path(__file__).parent / "fixtures" / "snapshot_v1.json")
        assert main(["inspect", "--snapshot", path, "--limit", "-2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--limit" in err

    def test_negative_limit_exit_2_for_a_stream(self, tmp_path, capsys):
        # --stream prints no entries, but a negative limit is refused all the same
        stream = gen(tmp_path)
        capsys.readouterr()
        assert main(["inspect", "--stream", stream, "--limit", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--limit" in err

    def test_report_summary(self, tmp_path, capsys):
        stream = gen(tmp_path)
        main(run_args(tmp_path, stream))
        capsys.readouterr()
        rc = main(["inspect", "--report", str(tmp_path / "out" / "report.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rows 1" in out
        assert "policy=question_merge" in out
        # file streams carry no segment metadata, so the metric is inapplicable
        assert "rmf=n/a" in out

    @pytest.mark.parametrize("text", ["{not json", "[]", b"\xff{}"])
    @pytest.mark.parametrize("flag", ["--snapshot", "--report"])
    def test_garbled_json_exit_2(self, tmp_path, capsys, flag, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text) if isinstance(text, bytes) else bad.write_text(text)
        assert main(["inspect", flag, str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--snapshot", "--report"])
    def test_missing_json_exit_3(self, tmp_path, flag):
        assert main(["inspect", flag, str(tmp_path / "absent.json")]) == 3

    def test_needs_a_target(self, capsys):
        assert main(["inspect"]) == 2


class TestEntryPoint:
    def test_module_runs_as_subprocess(self, tmp_path):
        out = str(tmp_path / "sub.mces")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "mces.cli", "gen", "--t", "8", "--n", "1",
             "--d", "4", "--out", out],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.strip() == out
        header, _, _ = read_stream(out)
        assert header.frame_count == 8
