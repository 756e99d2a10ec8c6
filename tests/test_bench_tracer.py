"""The traced benchmark wraps mces attributes by name; they must all exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target_and_restores_it():
    spans = load_spans()
    tracer = spans.Tracer(0.25)
    targets = [(owner, attr) for owner, attr, *_ in spans._targets(tracer)]
    before = [getattr(owner, attr) for owner, attr in targets]
    with tracer.installed():
        during = [getattr(owner, attr) for owner, attr in targets]
    after = [getattr(owner, attr) for owner, attr in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_tracer_sees_the_question_gate_and_compaction():
    import numpy as np

    from mces import ConsolidationConfig, Pipeline

    spans = load_spans()
    tracer = spans.Tracer(0.25)
    rng = np.random.default_rng(0)
    with tracer.installed():
        pipe = Pipeline(2, 4, ConsolidationConfig(capacity=4, base_target=2),
                        question=np.array([1.0, 0.0, 0.0, 0.0]), ltm_capacity=3)
        pipe.run_stream(rng.standard_normal((20, 2, 4)))
    calls = {name: sums[0] for name, sums in tracer.stats["job"].items()}
    for name in ("consolidation.relevance_score", "consolidation.greedy_merge",
                 "frames.frame_pair_similarity", "frames.weighted_merge",
                 "memory.overflow_compact", "frames.as_token_matrix",
                 "memory.ShortTermBuffer.push"):
        assert calls.get(name, 0) > 0, name
    assert tracer.counts["job"]["overflow_compact.merges"] > 0
