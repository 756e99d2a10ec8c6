"""The benchmark's own output check, run on a short stream of its generator.

bench/check.py and bench/loadgen.py are loaded by path, as the benchmark
loads them, so that a store it would reject fails here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from mces import Pipeline, export_pipeline, import_pipeline

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode, appended", [("merged_tokens", 86), ("none", 65)])
def test_flushed_and_resumed_stores_pass_the_bench_check(tmp_path, mode, appended):
    check, loadgen = load("check"), load("loadgen")
    stream = loadgen.Stream(0, 1, 800, 32, 256)
    pipe = Pipeline(32, 256, question=stream.question, ltm_capacity=32, reinit_mode=mode)
    for frame in stream.frames():
        pipe.step(frame)
    pipe.flush()
    # more entries were appended than the store holds, so compaction ran
    assert pipe.consolidation_output_total == appended
    assert len(pipe.long) == 32
    assert check.check_store(pipe, stream, tol=1e-9) == []
    # snapshots store tokens as float32
    json_path, _ = export_pipeline(pipe, str(tmp_path / "snapshot.json"))
    assert check.check_store(import_pipeline(json_path), stream, tol=1e-6) == []
