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
