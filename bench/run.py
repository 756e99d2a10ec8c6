#!/usr/bin/env python3
"""Benchmark of the mces streaming engine, driven through its public functions.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload live_qa --seed 0 --seconds 20 --trace 0

or every workload, each in its own process, with a summary table:

    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

A run sets up, then makes a fixed number of jobs: --seconds divided by the
workload's nominal job length, which is about --seconds of work on the host
the benchmark was tuned on, and the same number on every commit. A job feeds
the whole seeded stream to a fresh pipeline, flushes it and assembles the
result; on file_job it is one `mces run ... --snapshot` call, after which the
pipeline is resumed from that snapshot a few times. Each end-to-end time is
the best value one of these jobs showed for it. Halfway through, one untimed
job runs under tracemalloc for the heap peak, and the first job's output is
checked against sources rebuilt from the seed.

With --trace 0 the run prints the end-to-end metrics. With --trace 1 it
alternates untraced and traced jobs and prints the per-layer metrics, taken
from spans around wrapped mces calls, and writes the spans to
bench/.work/spans-<workload>.csv. The last line of output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0 only
when every output check passed.
"""

from __future__ import annotations

import os

# One thread: the BLAS pool size is read when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from dataclasses import dataclass
from time import perf_counter

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")

SETUP_PROBES = 7
MIN_JOBS = 3
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
CLI_BUDGET = ("--m0", "4", "--alpha", "0.25")


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int
    n_tokens: int
    dims: int
    frame_count: int
    question: bool
    reinit_mode: str
    ltm_capacity: int
    # seconds of --seconds one job stands for; sets the number of jobs
    nominal_job_s: float
    via_cli: bool = False
    # largest token error, relative to the largest value, the check accepts
    tol: float = 1e-9


WORKLOADS = {w.name: w for w in (
    Workload("live_qa", 1, 32, 256, 8000, True, "merged_tokens", 256, 2.5),
    Workload("wide_agnostic", 2, 128, 768, 1664, False, "none", 64, 4.0),
    # snapshots store tokens as float32
    Workload("file_job", 3, 16, 128, 4000, True, "merged_tokens", 256, 2.2,
             via_cli=True, tol=1e-6),
)}

END_TO_END = (
    ("frames_per_s", "frames/s"), ("step_p50_us", "us"), ("fire_p50_ms", "ms"),
    ("fire_tail_ms", "ms"), ("peak_heap_mb", "MB"), ("setup_s", "s"),
    ("job_s", "s"),
)

PROBE = """\
import sys
sys.path.insert(0, {src!r})
import numpy as np
import mces
{load}
pipe = mces.Pipeline({n}, {d}, question=question, reinit_mode={reinit!r},
                     ltm_capacity={ltm})
print("ready", flush=True)
"""


def probe_setup(code: str) -> float:
    """Seconds from starting a Python process to its pipeline being ready."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = perf_counter() - t0
        try:
            child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {child.returncode}")
    return elapsed


class SyntheticRunner:
    """Pushes generated frames through Pipeline.step, then flushes and assembles."""

    resumes = 0

    def __init__(self, wl: Workload, stream, work: str):
        self.wl, self.stream = wl, stream

    def prepare(self) -> None:
        pass

    def probe_code(self) -> str:
        load = (f"question = np.eye(1, {self.wl.dims})[0]" if self.wl.question
                else "question = None")
        return PROBE.format(src=SRC, load=load, n=self.wl.n_tokens, d=self.wl.dims,
                            reinit=self.wl.reinit_mode, ltm=self.wl.ltm_capacity)

    def _pipeline(self):
        from mces import Pipeline
        question = self.stream.question if self.wl.question else None
        return Pipeline(self.wl.n_tokens, self.wl.dims, question=question,
                        reinit_mode=self.wl.reinit_mode, ltm_capacity=self.wl.ltm_capacity)

    def job(self, tracer):
        """Run one job; returns (final pipeline, seconds spent in mces calls)."""
        pipe = self._pipeline()
        busy = 0.0
        for c in range(self.stream.n_chunks):
            chunk = self.stream.chunk(c)
            t0 = perf_counter()
            for frame in chunk:
                pipe.step(frame)
            busy += perf_counter() - t0
        t0 = perf_counter()
        pipe.flush()
        pipe.assemble_global()
        return pipe, busy + perf_counter() - t0

    def memory_job(self):
        """Engine heap peak over one job, without the generator's chunk."""
        pipe = self._pipeline()
        base = tracemalloc.get_traced_memory()[0]
        peak = 0
        for c in range(self.stream.n_chunks):
            chunk = self.stream.chunk(c)
            tracemalloc.reset_peak()
            for frame in chunk:
                pipe.step(frame)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - chunk.nbytes - base)
            del chunk, frame
        tracemalloc.reset_peak()
        pipe.flush()
        pipe.assemble_global()
        peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
        return peak, pipe.bytes_model().peak_resident_bytes


class FileRunner:
    """Writes the stream to a .mces container and runs `mces run --snapshot` on it.

    After each job the pipeline is resumed from the job's snapshot
    ``resumes`` times with import_pipeline.
    """

    resumes = 5

    def __init__(self, wl: Workload, stream, work: str):
        self.wl, self.stream = wl, stream
        self.stream_path = os.path.join(work, "stream.mces")
        out = os.path.join(work, "out")
        self.snapshot_path = os.path.join(out, "snapshot.json")
        self.argv = ["run", "--stream", self.stream_path, *CLI_BUDGET, "--snapshot",
                     "--out", out]

    def prepare(self) -> None:
        from mces import write_stream
        write_stream(self.stream_path, self.stream.frames(), self.stream.question,
                     frame_count=self.stream.frame_count)

    def probe_code(self) -> str:
        load = f"import mces.cli\n_, frames, question = mces.read_stream({self.stream_path!r})"
        return PROBE.format(src=SRC, load=load, n=self.wl.n_tokens, d=self.wl.dims,
                            reinit=self.wl.reinit_mode, ltm=self.wl.ltm_capacity)

    def _main(self) -> None:
        from mces import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"mces {' '.join(self.argv)} exited with {code}")

    def job(self, tracer):
        """Run one job; returns (None, seconds in the cli.main call)."""
        t0 = perf_counter()
        if tracer is None:
            self._main()
        else:
            with tracer.span("cli.main"):
                self._main()
        return None, perf_counter() - t0

    def memory_job(self):
        from mces import import_pipeline
        base = tracemalloc.get_traced_memory()[0]
        self._main()
        peak = tracemalloc.get_traced_memory()[1] - base
        return peak, import_pipeline(self.snapshot_path).bytes_model().peak_resident_bytes


@dataclass
class Job:
    """Timings of one measured job."""

    clock: StepClock
    seconds: float  # the job's mces calls, from start to end


class Run:
    """Measurements and outcomes of one benchmark run."""

    def __init__(self, wl: Workload, runner):
        self.wl, self.runner = wl, runner
        self.attempted = self.failed = 0
        # untraced (False) and traced (True) jobs, in the order they ran
        self.jobs: dict[bool, list[Job]] = {False: [], True: []}
        self.resume_s: list[float] = []
        self.first_state = None

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    def one_job(self, tracer) -> None:
        """One job and its resumes; tracer is None for an untraced job."""
        with contextlib.nullcontext() if tracer is None else tracer.installed():
            self._job_and_resumes(tracer)

    def _job_and_resumes(self, tracer) -> None:
        from mces import import_pipeline
        from check import same_store
        from spans import StepClock
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.set_phase("job")
            clock = StepClock()
            with clock.installed():
                pipe, seconds = self.runner.job(tracer)
            self.jobs[tracer is not None].append(Job(clock, seconds))
        except Exception:
            self.fail(f"job raised:\n{traceback.format_exc()}")
            return
        if tracer is not None:
            tracer.set_phase("resume")
        reference = pipe
        for _ in range(self.runner.resumes):
            self.attempted += 1
            try:
                if tracer is None:
                    t0 = perf_counter()
                    resumed = import_pipeline(self.runner.snapshot_path)
                    self.resume_s.append(perf_counter() - t0)
                else:
                    with tracer.span("snapshot.import_pipeline"):
                        resumed = import_pipeline(self.runner.snapshot_path)
            except Exception:
                self.fail(f"resume raised:\n{traceback.format_exc()}")
                continue
            if reference is None:
                reference = resumed
                continue
            problems = same_store(reference, resumed)
            if problems:
                self.fail("resumed state differs from the first resume: " + "; ".join(problems))
        state = pipe if pipe is not None else reference
        if state is None:
            return
        if self.first_state is None:
            self.first_state = state
        else:
            problems = same_store(self.first_state, state)
            if problems:
                self.fail("job output differs from the first job's: " + "; ".join(problems))


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it."""
    for p in TAIL_LADDER:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.median(values))


def environment() -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def job_figures(wl: Workload, job: Job) -> dict[str, float]:
    """The end-to-end times one job showed, in the units of END_TO_END."""
    fires = job.clock.fire_s()
    return {
        "frames_per_s": wl.frame_count / job.clock.engine_s(),
        "step_p50_us": statistics.median(job.clock.step_s) * 1e6,
        "fire_p50_ms": statistics.median(fires) * 1e3,
        "fire_tail_ms": tail(fires)[1] * 1e3,
        "job_s": job.seconds,
    }


def best_figures(wl: Workload, jobs: list[Job]) -> dict[str, float]:
    """Each figure at the best value any of the jobs showed for it."""
    figures = [job_figures(wl, job) for job in jobs]
    return {name: (max if name == "frames_per_s" else min)(f[name] for f in figures)
            for name in figures[0]}


def end_to_end(run: Run, setup: list[float], peak: int) -> tuple[dict, str]:
    jobs = run.jobs[False]
    values = best_figures(run.wl, jobs)
    values["peak_heap_mb"] = peak / 1e6
    values["setup_s"] = statistics.median(setup)
    fires = jobs[0].clock.fire_s()
    note = (f"best of {len(jobs)} jobs; job seconds "
            + " ".join(f"{j.seconds:.3f}" for j in jobs)
            + f"\nfire_tail_ms is p{tail(fires)[0]:g} of {len(fires)} consolidating steps per job")
    if run.resume_s:
        note += (f"\nresume_ms {statistics.median(run.resume_s) * 1e3:.6g}: median of "
                 f"{len(run.resume_s)} resumes")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, note


def per_layer(run: Run, tracer, peak: int, model: int) -> dict:
    jobs = len(run.jobs[True])
    frames = run.wl.frame_count * jobs
    job = tracer.stats.get("job", {})
    counts = tracer.counts.get("job", {})
    phases = tracer.stats.values()

    def calls(name):
        return job.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return job.get(name, (0, 0.0, 0.0))[2] / jobs

    def total_s(name):
        return sum(stats.get(name, (0, 0.0, 0.0))[1] for stats in phases) / jobs

    def ratio(a, b):
        return a / b if b else 0.0

    state = run.first_state
    read_s = total_s("streamio.read_stream") * jobs
    read_bytes = sum(c.get("read_stream.bytes", 0) for c in tracer.counts.values())
    fps = [best_figures(run.wl, run.jobs[t])["frames_per_s"] for t in (False, True)]
    out = {}
    for name in ("frame_pair_similarity", "weighted_merge", "as_token_matrix"):
        out[f"frames.{name}.self_s"] = (self_s(f"frames.{name}"), "s")
        out[f"frames.{name}.calls_per_frame"] = (calls(f"frames.{name}") / frames, "count")
    out.update({
        "frames.merge_provenance.self_s": (self_s("frames.merge_provenance"), "s"),
        "frames.merge_provenance.intervals_out_mean": (
            ratio(counts.get("merge_provenance.intervals_out", 0),
                  calls("frames.merge_provenance")), "count"),
        "consolidation.relevance_score.self_s": (self_s("consolidation.relevance_score"), "s"),
        "consolidation.relevant_fill_share": (
            ratio(counts.get("relevance.relevant", 0), counts.get("relevance.fills", 0)), "share"),
        "consolidation.greedy_merge.self_s": (self_s("consolidation.greedy_merge"), "s"),
        "consolidation.greedy_merge.merges_per_frame": (
            counts.get("greedy_merge.merges", 0) / frames, "count"),
        "memory.ShortTermBuffer.push.self_s": (self_s("memory.ShortTermBuffer.push"), "s"),
        "memory.LongTermMemory.append.self_s": (self_s("memory.LongTermMemory.append"), "s"),
        "memory.overflow_compact.self_s": (self_s("memory.overflow_compact"), "s"),
        "memory.overflow_compact.merges": (counts.get("overflow_compact.merges", 0) / jobs, "count"),
        "memory.seeded_weight_per_frame": (state.seeded_weight_total / state.frames_pushed, "count"),
        "memory.ltm_weight_per_frame": (state.long.total_weight() / state.frames_pushed, "count"),
        "memory.ltm_intervals_max": (max(len(e.provenance) for e in state.long.entries), "count"),
        "pipeline.Pipeline.step.self_s": (self_s("pipeline.Pipeline.step"), "s"),
        "pipeline.flush.s": (total_s("pipeline.flush"), "s"),
        "pipeline.assemble_global.s": (total_s("pipeline.assemble_global"), "s"),
        "pipeline.step_calls_per_input_frame": (calls("pipeline.Pipeline.step") / frames, "count"),
        "pipeline.heap_over_model": (peak / model, "ratio"),
        "streamio.read_stream.s": (read_s / jobs, "s"),
        "streamio.read_stream.mb_per_s": (ratio(read_bytes / 1e6, read_s), "MB/s"),
        "streamio.write_stream.s": (total_s("streamio.write_stream"), "s"),
        "snapshot.export_pipeline.s": (total_s("snapshot.export_pipeline"), "s"),
        "snapshot.export_pipeline.bytes": (
            sum(c.get("export_pipeline.bytes", 0) for c in tracer.counts.values()) / jobs,
            "bytes"),
        "snapshot.import_pipeline.s": (total_s("snapshot.import_pipeline"), "s"),
        "harness.run.s": (total_s("harness.run"), "s"),
        "harness.write_report.s": (total_s("harness.write_report"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_share": (1.0 - fps[True] / fps[False], "share"),
        "trace.self_coverage": (sum(s[2] for s in job.values()) / sum(j.seconds for j in run.jobs[True]),
                                "share"),
    })
    return {name: {"value": float(v), "unit": u} for name, (v, u) in out.items()}


def run_workload(wl: Workload, seed: int, seconds: float, tracing: bool) -> int:
    from check import check_store
    from mces import ConsolidationConfig
    from loadgen import Stream
    from spans import Tracer

    print(f"mces benchmark: workload {wl.name}, seed {seed}, {seconds:g} s, "
          f"trace {int(tracing)}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    stream = Stream(seed, wl.tag, wl.frame_count, wl.n_tokens, wl.dims)
    work = os.path.join(WORK, f"{wl.name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    runner = (FileRunner if wl.via_cli else SyntheticRunner)(wl, stream, work)
    run = Run(wl, runner)
    job_count = max(MIN_JOBS, int(seconds / wl.nominal_job_s))
    tracer = Tracer(sigma=ConsolidationConfig().sigma) if tracing else None
    heap = []

    def heap_and_check() -> None:
        """The untimed heap pass and the first job's output check."""
        tracemalloc.start()
        try:
            heap.extend(runner.memory_job())
        finally:
            tracemalloc.stop()
        problems = check_store(run.first_state, stream, wl.tol)
        if problems:
            run.fail("output check: " + "; ".join(problems))

    try:
        runner.prepare()
        setup = []
        start = perf_counter()
        for i in range(job_count):
            # the untimed work sits between the timed jobs, so that they
            # sample a longer stretch of the host's varying speed
            if len(setup) < SETUP_PROBES:
                setup.append(probe_setup(runner.probe_code()))
            if i == job_count // 2:
                heap_and_check()
                if run.failed:
                    break
            # a traced run alternates untraced and traced jobs
            traced = tracing and i % 2 == 1
            before = run.failed
            run.one_job(tracer if traced else None)
            if run.failed > before:
                break
            # on a host or a commit much slower than the tuned speed, stop
            # early rather than run past the time a run is allowed
            busy = sum(job.seconds for kind in run.jobs.values() for job in kind)
            if i + 1 >= MIN_JOBS and busy > 1.5 * seconds:
                break
        measured = perf_counter() - start
        if not run.failed:
            while len(setup) < SETUP_PROBES:
                setup.append(probe_setup(runner.probe_code()))
            if not heap:
                heap_and_check()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = run.failed == 0
    metrics = {}
    if ok:
        peak, model = heap
        print(f"measured {measured:.1f} s: {len(run.jobs[False])} untraced and "
              f"{len(run.jobs[True])} traced jobs of {wl.frame_count} frames"
              + (f", {runner.resumes} resumes after each" if runner.resumes else ""))
        if wl.question:
            print(f"relevant frame share of the stream {stream.relevant_frame_share:.3f}")
        print(f"heap peak {peak / 1e6:.3f} MB measured, {model / 1e6:.3f} MB modelled "
              f"(bytes_model().peak_resident_bytes), ratio {peak / model:.3f}")
        if tracing:
            metrics = per_layer(run, tracer, peak, model)
            tracer.write_spans(os.path.join(WORK, f"spans-{wl.name}.csv"), start)
        else:
            metrics, note = end_to_end(run, setup, peak)
            print(note)
    print(f"failed_share {run.failed / max(run.attempted, 1):g} "
          f"({run.failed} of {run.attempted} jobs and resumes failed)")
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in its own process; prints a table of every metric."""
    status = 0
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = {"correct": False, "metrics": {}}
        if child.returncode != 0 or not result["correct"]:
            status = 1
        rows.extend((name, metric, m["value"], m["unit"])
                    for metric, m in result["metrics"].items())
    print()
    for name, metric, value, unit in rows:
        print(f"{name:<14} {metric:<46} {value:>16.6g} {unit}")
    print("all outputs correct" if status == 0 else "SOME OUTPUT CHECK FAILED")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "mces", "__init__.py")):
        print(f"mces sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
