"""Step timing and span tracing, by wrapping mces functions where callers look them up.

Both install wrappers on module attributes or class methods and remove them
on exit. A wrapper returns what the wrapped function returns and lets any
exception through unchanged.

StepClock times every Pipeline.step and Pipeline.flush call of one job. It
is installed in every measured job, traced or not, so its cost is the same on
both sides of the tracing-overhead comparison.

Tracer records one span per wrapped call: name, start, end and parent. Spans
stay in memory until the run writes them out. A span's self time is its
duration minus the time its child spans cover. Sums are kept per phase, so
engine calls made while resuming from a snapshot do not count as stream work.
"""

from __future__ import annotations

import functools
import os
from array import array
from contextlib import contextmanager
from time import perf_counter

from mces import cli, consolidation, frames, harness, memory, pipeline, snapshot
from mces.memory import LongTermMemory, ShortTermBuffer
from mces.pipeline import Pipeline


class StepClock:
    """Times of every Pipeline.step and Pipeline.flush call in one job."""

    def __init__(self):
        self.step_s = array("d")
        self.fired = array("b")
        self.flush_s = 0.0

    def engine_s(self) -> float:
        """Summed time of the job's step and flush calls."""
        return sum(self.step_s) + self.flush_s

    def fire_s(self) -> list[float]:
        """Times of the steps that triggered a consolidation."""
        return [t for t, fired in zip(self.step_s, self.fired) if fired]

    @contextmanager
    def installed(self):
        step, flush = Pipeline.step, Pipeline.flush
        step_s, fired = self.step_s, self.fired

        @functools.wraps(step)
        def timed_step(pipe, frame):
            t0 = perf_counter()
            report = step(pipe, frame)
            step_s.append(perf_counter() - t0)
            fired.append(report is not None)
            return report

        @functools.wraps(flush)
        def timed_flush(pipe):
            t0 = perf_counter()
            report = flush(pipe)
            self.flush_s += perf_counter() - t0
            return report

        Pipeline.step, Pipeline.flush = timed_step, timed_flush
        try:
            yield self
        finally:
            Pipeline.step, Pipeline.flush = step, flush


class Tracer:
    """In-memory spans plus per-phase call, time and counter sums."""

    def __init__(self, sigma: float):
        self.sigma = sigma
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self.stats: dict[str, dict[str, list[float]]] = {}
        self.counts: dict[str, dict[str, float]] = {}
        self.set_phase("job")

    def set_phase(self, phase: str) -> None:
        self._stats = self.stats.setdefault(phase, {})
        self._counts = self.counts.setdefault(phase, {})

    def count(self, key: str, value: float = 1) -> None:
        self._counts[key] = self._counts.get(key, 0) + value

    def enter(self, name: str) -> None:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        start = perf_counter()
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(start)
        self.span_end.append(0.0)
        self._stack.append([len(self.span_start) - 1, name, start, 0.0])

    def exit(self) -> None:
        end = perf_counter()
        index, name, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        sums = self._stats.get(name)
        if sums is None:
            sums = self._stats[name] = [0, 0.0, 0.0]
        sums[0] += 1
        sums[1] += duration
        sums[2] += duration - child

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def write_spans(self, path: str, origin: float) -> None:
        """Write every span as CSV: id, parent, name, start and end in seconds."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(f"{i},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                         f"{self.span_start[i] - origin:.9f},{self.span_end[i] - origin:.9f}\n")

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, pre, post in _targets(self):
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, pre, post))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, fn, name, pre, post):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = pre(args) if pre else None
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if post:
                post(args, result, before)
            return result
        return traced


def _targets(t: Tracer):
    """(owner, attribute, span name, pre hook, post hook) for every wrapped call."""

    def merges(_, result, __):
        out, report = result
        t.count("greedy_merge.merges", report.input_count - len(out))

    def relevant(_, score, __):
        t.count("relevance.fills")
        t.count("relevance.relevant", score > t.sigma)

    def intervals(_, result, __):
        t.count("merge_provenance.intervals_out", len(result))

    def compacted(args, _, before):
        t.count("overflow_compact.merges", before - len(args[0]))

    def bytes_read(_, result, __):
        t.count("read_stream.bytes", result[0].total_bytes())

    def bytes_exported(_, paths, __):
        t.count("export_pipeline.bytes", sum(os.path.getsize(p) for p in paths if p))

    return [
        (frames, "as_token_matrix", "frames.as_token_matrix", None, None),
        (memory, "as_token_matrix", "frames.as_token_matrix", None, None),
        (frames, "merge_provenance", "frames.merge_provenance", None, intervals),
        (consolidation, "frame_pair_similarity", "frames.frame_pair_similarity", None, None),
        (memory, "frame_pair_similarity", "frames.frame_pair_similarity", None, None),
        (consolidation, "weighted_merge", "frames.weighted_merge", None, None),
        (memory, "weighted_merge", "frames.weighted_merge", None, None),
        (pipeline, "relevance_score", "consolidation.relevance_score", None, relevant),
        (pipeline, "greedy_merge", "consolidation.greedy_merge", None, merges),
        (ShortTermBuffer, "push", "memory.ShortTermBuffer.push", None, None),
        (LongTermMemory, "append", "memory.LongTermMemory.append", None, None),
        (LongTermMemory, "overflow_compact", "memory.overflow_compact",
         lambda args: len(args[0]), compacted),
        (Pipeline, "step", "pipeline.Pipeline.step", None, None),
        (Pipeline, "flush", "pipeline.flush", None, None),
        (Pipeline, "assemble_global", "pipeline.assemble_global", None, None),
        (harness, "read_stream", "streamio.read_stream", None, bytes_read),
        (snapshot, "read_stream", "streamio.read_stream", None, bytes_read),
        (cli, "read_stream", "streamio.read_stream", None, bytes_read),
        (snapshot, "write_stream", "streamio.write_stream", None, None),
        (cli, "export_pipeline", "snapshot.export_pipeline", None, bytes_exported),
        (cli, "run", "harness.run", None, None),
        (cli, "write_report", "harness.write_report", None, None),
    ]
