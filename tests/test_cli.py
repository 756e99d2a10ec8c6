from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from mces import ConsolidationConfig, Pipeline, import_pipeline, read_stream, write_stream
from mces.cli import main


def gen(tmp_path, name="s.mces", extra=()):
    path = str(tmp_path / name)
    rc = main(["gen", "--t", "40", "--n", "2", "--d", "8", "--seed", "0",
               "--out", path, *extra])
    assert rc == 0
    return path


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

    def test_deterministic(self, tmp_path):
        a = gen(tmp_path, "a.mces")
        b = gen(tmp_path, "b.mces")
        assert (tmp_path / "a.mces").read_bytes() == (tmp_path / "b.mces").read_bytes()

    def test_segments_parsed(self, tmp_path):
        gen(tmp_path, extra=["--segments", "8:16:0.9,24:32:0.5"])

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

    def test_question_from_bare_stream_exit_2(self, tmp_path):
        stream = gen(tmp_path, extra=["--no-question"])
        rc = main(run_args(tmp_path, stream, "--question", stream))
        assert rc == 2


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


class TestSweepAndCompare:
    def test_sweep_grid(self, tmp_path):
        config = {
            "synthetic": {"frame_count": 40, "n_tokens": 2, "dims": 8},
            "cfg": {"base_target": 4, "alpha": 0.25},
            "policies": ["stream_merge"],
            "sweep": {"l_short": [8, 16], "m0": [1, 2]},
        }
        cpath = tmp_path / "sweep.json"
        cpath.write_text(json.dumps(config))
        rc = main(["sweep", "--config", str(cpath), "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(doc["rows"]) == 4

    def test_sweep_without_axes_exit_2(self, tmp_path):
        stream = gen(tmp_path)
        rc = main(["sweep", "--stream", stream, "--m0", "4", "--alpha", "0.25",
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_compare_needs_two_policies(self, tmp_path):
        stream = gen(tmp_path)
        rc = main(["compare", "--stream", stream, "--m0", "4", "--alpha", "0.25",
                   "--policies", "ema", "--out", str(tmp_path / "out")])
        assert rc == 2
        rc = main(["compare", "--stream", stream, "--m0", "4", "--alpha", "0.25",
                   "--policies", "ema,question_merge", "--out", str(tmp_path / "out")])
        assert rc == 0


class TestInspect:
    def test_stream_summary(self, tmp_path, capsys):
        stream = gen(tmp_path)
        rc = main(["inspect", "--stream", stream])
        assert rc == 0
        out = capsys.readouterr().out
        assert "frames 40" in out
        assert "question yes" in out

    def test_snapshot_summary(self, tmp_path, capsys):
        stream = gen(tmp_path)
        main(run_args(tmp_path, stream, "--snapshot"))
        capsys.readouterr()
        rc = main(["inspect", "--snapshot", str(tmp_path / "out" / "snapshot.json")])
        assert rc == 0
        assert "pipeline_snapshot" in capsys.readouterr().out

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

    @pytest.mark.parametrize("text", ["{not json", "[]"])
    @pytest.mark.parametrize("flag", ["--snapshot", "--report"])
    def test_garbled_json_exit_2(self, tmp_path, capsys, flag, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
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
        proc = subprocess.run(
            [sys.executable, "-m", "mces.cli", "gen", "--t", "8", "--n", "1",
             "--d", "4", "--out", out],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == out
        header, _, _ = read_stream(out)
        assert header.frame_count == 8
