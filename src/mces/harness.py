"""Experiment drivers: run policies, score retention, benchmark memory.

Reports are plain dicts written as JSON and CSV. Everything except wall
times is deterministic for a given spec, and the canonical byte form
(volatile fields stripped, keys sorted) is hashed into the report so two
runs of the same spec can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from . import __version__
from .baselines import POLICY_IDS, ema, no_memory, spatial_pool, temporal_pool, token_budget
from .consolidation import ConsolidationConfig, relevance_score
from .errors import (
    GateFailure,
    GridTooLarge,
    InvalidSpec,
    IoFailure,
    MissingQuestion,
    checked,
)
from .frames import WeightedFrame
from .pipeline import REINIT_MODES, Pipeline, _question
from .streamio import SyntheticSpec, _replacing, generate_synthetic, iter_stream, iter_synthetic
# unused here; kept only so bench/spans.py can wrap harness.read_stream
from .streamio import read_stream  # noqa: F401

__all__ = [
    "PARAMS",
    "ExperimentSpec",
    "apply_params",
    "RelevanceMetrics",
    "compute_relevance_metrics",
    "run",
    "plant_eval",
    "bench_mem",
    "check_gate",
    "build_report",
    "canonical_report_bytes",
    "write_report",
]

# wall-clock and derived-from-wall-clock fields never enter the canonical form
VOLATILE_KEYS = frozenset({"wall_time_s", "canonical_sha256"})

# The run parameters that CLI flags, --config keys and sweep axes name, in
# the order a row's ``params`` echoes them: short name -> (setting, type).
# A setting is a ConsolidationConfig field, or else an ExperimentSpec field.
PARAMS = {
    "k": ("capacity", int),
    "m0": ("base_target", int),
    "alpha": ("alpha", float),
    "sigma": ("sigma", float),
    "reinit": ("reinit_mode", str),
    "ltm_cap": ("ltm_capacity", int),
}
# the paper's buffer-length names for the two capacities
PARAM_ALIASES = {"l_short": "k", "l_long": "ltm_cap"}
VALUE_ALIASES = {"reinit": {"merged": "merged_tokens"}}
_CFG_FIELDS = frozenset(f.name for f in fields(ConsolidationConfig))
# frames no_memory keeps, ema's decay and the most rows in one run
_SAMPLE_COUNT = 16
_EMA_DECAY = 0.5
_MAX_GRID_POINTS = 1024


def _listed(name: str, value) -> tuple:
    # a list or tuple as a tuple; a string would read as its characters and a
    # scalar would fail bare, so either is refused by name
    if not isinstance(value, (list, tuple)):
        raise InvalidSpec(f"{name} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a harness driver needs to reproduce a run.

    Exactly one of ``synthetic`` and ``stream_file`` supplies the frames.
    ``question`` overrides the stream's embedded question vector when given
    (a sequence of floats, or a path handled by the CLI layer). Seeds feed
    the synthetic generator; for file streams they only label rows.
    """

    synthetic: SyntheticSpec | None = None
    stream_file: str | None = None
    question: tuple[float, ...] | None = None
    cfg: ConsolidationConfig = field(default_factory=ConsolidationConfig)
    ltm_capacity: int = 256
    reinit_mode: str = "merged_tokens"
    policies: tuple[str, ...] = ("question_merge",)
    seeds: tuple[int, ...] = (0,)
    sweep: tuple[tuple[str, tuple], ...] = ()

    def __post_init__(self):
        if (self.synthetic is None) == (self.stream_file is None):
            raise InvalidSpec("exactly one of synthetic and stream_file must be set")
        object.__setattr__(self, "policies", _listed("policies", self.policies))
        object.__setattr__(self, "seeds", _listed("seeds", self.seeds))
        if not self.policies:
            raise InvalidSpec("at least one policy is required")
        for p in self.policies:
            if p not in POLICY_IDS:
                raise InvalidSpec(f"unknown policy {p!r}; known: {POLICY_IDS}")
        if not self.seeds:
            raise InvalidSpec("at least one seed is required")
        seeds = tuple(checked("seeds", int, s) for s in self.seeds)
        if any(s < 0 for s in seeds):
            raise InvalidSpec("seeds must be >= 0")
        object.__setattr__(self, "ltm_capacity", checked("ltm_capacity", int, self.ltm_capacity))
        # checked here too, not only by the engine, so that a run of
        # baselines alone cannot echo a setting no pipeline would accept
        if self.ltm_capacity < 1:
            raise InvalidSpec(f"long-term capacity must be >= 1, got {self.ltm_capacity}")
        if self.reinit_mode not in REINIT_MODES:
            raise InvalidSpec(
                f"reinit_mode must be one of {REINIT_MODES}, got {self.reinit_mode!r}")
        sweep = []
        for key, values in self.sweep:
            key = PARAM_ALIASES.get(key, key)
            if key not in PARAMS:
                raise InvalidSpec(f"unknown sweep axis {key!r}; known: {tuple(PARAMS)}")
            values = _listed(f"sweep axis {key!r}", values)
            if not values:
                raise InvalidSpec(f"sweep axis {key!r} has no values")
            sweep.append((key, values))
        object.__setattr__(self, "sweep", tuple(sweep))
        object.__setattr__(self, "seeds", seeds)
        if self.question is not None:
            _question(self.question)  # finite, in range and 1-D, as the pipeline reads it
            question = tuple(checked("question", float, v) for v in self.question)
            object.__setattr__(self, "question", question)

    def to_dict(self) -> dict:
        """JSON form of every field."""
        return _plain({**asdict(self), "sweep": dict(self.sweep)}, ())


def apply_params(spec: ExperimentSpec, params: dict) -> ExperimentSpec:
    """``spec`` with run parameters set by short name (see PARAMS).

    Name and value aliases resolve first; each value must already have its
    parameter's type. Raises InvalidSpec naming the parameter.
    """
    cfg, top = {}, {}
    for name, value in params.items():
        short = PARAM_ALIASES.get(name, name)
        if short not in PARAMS:
            raise InvalidSpec(f"unknown parameter {name!r}; known: {tuple(PARAMS)}")
        setting, kind = PARAMS[short]
        aliases = VALUE_ALIASES.get(short, {})
        if isinstance(value, str):
            value = aliases.get(value, value)
        (cfg if setting in _CFG_FIELDS else top)[setting] = checked(name, kind, value)
    return replace(spec, cfg=replace(spec.cfg, **cfg), **top)


@dataclass(frozen=True)
class RelevanceMetrics:
    """How much of the retained representation is planted content.

    relevant_mass_fraction: planted share of the retained slot budget, the
    mean over entries of (planted provenance mass / entry weight). Every
    entry spends the same downstream token budget regardless of weight, so
    this is the fraction of that budget backing planted frames.
    slot_recall: fraction of planted source frames covered by at least one
    entry's provenance.
    q_affinity: mean cosine between entry descriptors and the question, None
    without a question.
    applicable: False when there are no planted segments to score against.
    """

    relevant_mass_fraction: float
    slot_recall: float
    q_affinity: float | None
    applicable: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _overlap(a_start: int, a_stop: int, b_start: int, b_stop: int) -> int:
    return max(0, min(a_stop, b_stop) - max(a_start, b_start))


def compute_relevance_metrics(frames: Sequence[WeightedFrame],
                              segments: Sequence[tuple],
                              question=None) -> RelevanceMetrics:
    frames = list(frames)
    spans = [(int(s), int(e)) for s, e, *_ in segments]
    planted_total = sum(e - s for s, e in spans)
    affinity = None
    if question is not None and frames:
        affinity = relevance_score(frames, question)
    if not spans or planted_total == 0 or not frames:
        return RelevanceMetrics(0.0, 0.0, affinity, applicable=False)
    fractions = []
    for f in frames:
        mass = sum(_overlap(s, e, ps, pe) * c
                   for s, e, c in f.provenance for ps, pe in spans)
        fractions.append(mass / f.weight)
    covered = 0
    for ps, pe in spans:
        for t in range(ps, pe):
            if any(s <= t < e for f in frames for s, e, _ in f.provenance):
                covered += 1
    return RelevanceMetrics(
        relevant_mass_fraction=float(np.mean(fractions)),
        slot_recall=covered / planted_total,
        q_affinity=affinity,
        applicable=True,
    )


# -- grid handling -------------------------------------------------------


def _row_count(spec: ExperimentSpec) -> int:
    # the rows a run makes, from the axis lengths alone: no point is built
    return math.prod(len(v) for _, v in spec.sweep) * len(spec.policies) * len(spec.seeds)


def _grid(spec: ExperimentSpec) -> list[ExperimentSpec]:
    """One spec per sweep point, every point checked before any row runs."""
    total = _row_count(spec)
    if total > _MAX_GRID_POINTS:
        raise GridTooLarge(f"{total} rows exceed the cap of {_MAX_GRID_POINTS}")
    keys = [k for k, _ in spec.sweep]
    return [apply_params(spec, dict(zip(keys, combo)))
            for combo in itertools.product(*(v for _, v in spec.sweep))]


def _params_echo(spec: ExperimentSpec) -> dict:
    return {name: getattr(spec.cfg if setting in _CFG_FIELDS else spec, setting)
            for name, (setting, _) in PARAMS.items()}


# -- drivers -------------------------------------------------------------


class _Frames:
    """A stream's (N, D) frames, made afresh on every pass.

    It stands in for the (T, N, D) array of a generated stream: ``shape``
    and ``len`` are known up front, and each iteration calls ``make`` for a
    new iterator, so a row holds one frame or chunk of it, never the whole
    stream.
    """

    def __init__(self, shape: tuple[int, int, int], make):
        self.shape = shape
        self.make = make

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        return self.make()


def _stream_for(spec: ExperimentSpec, seed: int):
    """(frames, question, segments) for one row seed.

    A synthetic stream is generated once into an array, which every row of
    the seed reuses; a file stream is read again by each policy run.
    """
    if spec.synthetic is not None:
        sspec = replace(spec.synthetic, seed=seed)
        frames, question = generate_synthetic(sspec)
        segments = sspec.segments
    else:
        header, question, lazy = iter_stream(spec.stream_file)
        lazy.close()
        frames = _Frames((header.frame_count, header.n_tokens, header.dims),
                         lambda: iter_stream(spec.stream_file)[2])
        segments = ()
    if spec.question is not None:
        question = np.asarray(spec.question, dtype=np.float64)
    return frames, question, segments


# policy -> frames -> retained frames, for every policy but the pipeline's
BASELINES = {
    "no_memory": lambda frames: no_memory(frames, _SAMPLE_COUNT),
    "spatial_pool": spatial_pool,
    "temporal_pool": lambda frames: [temporal_pool(frames)],
    "ema": lambda frames: [ema(frames, _EMA_DECAY)],
}


def _run_single(spec: ExperimentSpec, policy: str, seed: int,
                frames, question, segments) -> tuple[dict, Pipeline | None]:
    # one report row and the Pipeline behind it (None for a baseline); every
    # driver builds, drives and times its pipelines here
    t0 = time.perf_counter()
    accounting = pipe = None
    if policy in BASELINES:
        retained = BASELINES[policy](frames)
        counters = {"retained_frames": len(retained)}
    else:
        if policy == "question_merge" and question is None:
            raise MissingQuestion("question_merge needs a question vector")
        _, n_tokens, dims = frames.shape
        # stream_merge ignores the question by definition
        pipe = Pipeline(n_tokens, dims, spec.cfg,
                        question=question if policy == "question_merge" else None,
                        ltm_capacity=spec.ltm_capacity, reinit_mode=spec.reinit_mode)
        for frame in frames:
            pipe.step(frame)
        pipe.flush()
        retained = list(pipe.long.entries)
        accounting = pipe.bytes_model().to_dict()
        counters = {**pipe.counters(), "ltm_entries": len(pipe.long),
                    "ltm_total_weight": pipe.long.total_weight()}
    wall = time.perf_counter() - t0
    metrics = compute_relevance_metrics(retained, segments, question)
    budget = token_budget(policy, frame_count=frames.shape[0],
                          n_tokens=frames.shape[1],
                          sample_count=_SAMPLE_COUNT,
                          ltm_capacity=spec.ltm_capacity)
    return {
        "policy": policy,
        "seed": seed,
        "params": _params_echo(spec),
        "relevance": metrics.to_dict(),
        "accounting": accounting,
        "token_budget": budget,
        "counters": counters,
        "wall_time_s": wall,
    }, pipe


def run(spec: ExperimentSpec, *, _last_pipeline: list | None = None) -> dict:
    """One row per (seed, grid point, policy); returns the report dict.

    A file stream is the same for every seed, which only labels its rows,
    so each (grid point, policy) runs once on it and its row is repeated
    for every seed. ``_last_pipeline``, when given, is left holding the one
    Pipeline behind the last row (None for a baseline row), for
    ``mces run --snapshot``.
    """
    points = _grid(spec)
    rows = []
    for seed in spec.seeds if spec.synthetic is not None else spec.seeds[:1]:
        frames, question, segments = _stream_for(spec, seed)
        for point in points:
            for policy in spec.policies:
                row, pipe = _run_single(point, policy, seed,
                                        frames, question, segments)
                rows.append(row)
                if _last_pipeline is not None:
                    _last_pipeline[:] = [pipe]
    if spec.synthetic is None:
        rows = [{**copy.deepcopy(row), "seed": seed} for seed in spec.seeds for row in rows]
    return build_report(spec, rows)


def plant_eval(spec: ExperimentSpec, min_wins: int | None = None) -> dict:
    """Paired question-aware vs question-agnostic runs over planted streams.

    The aware config is taken from ``spec.cfg`` (alpha < 1 required); the agnostic
    partner is the same config with alpha = 1, which keeps every window at
    the full budget no matter the question. Both see identical streams.
    """
    if spec.synthetic is None:
        raise InvalidSpec("plant_eval needs a synthetic stream with known segments")
    if min_wins is None:
        min_wins = math.ceil(0.9 * len(spec.seeds))
    if min_wins < 1:
        raise InvalidSpec(f"min_wins must be >= 1, got {min_wins}")
    segments = spec.synthetic.segments
    applicable = bool(segments)
    if applicable:
        if max(rho for _, _, rho in segments) < 0.6:
            raise InvalidSpec("plant_eval needs at least one segment with rho >= 0.6")
        if spec.cfg.alpha >= 1.0:
            raise InvalidSpec("question-aware config needs alpha < 1")
    agnostic_spec = apply_params(spec, {"alpha": 1.0})
    rows = []
    for seed in spec.seeds:
        stream = _stream_for(spec, seed)
        aware, agnostic = (_run_single(s, "question_merge", seed, *stream)[0]
                           for s in (spec, agnostic_spec))
        diff = (aware["relevance"]["relevant_mass_fraction"]
                - agnostic["relevance"]["relevant_mass_fraction"])
        rows.append({
            "seed": seed,
            "aware": aware["relevance"],
            "agnostic": agnostic["relevance"],
            "diff": diff,
            "win": diff > 0,
            "wall_time_s": aware["wall_time_s"] + agnostic["wall_time_s"],
        })
    wins = sum(row["win"] for row in rows)
    summary = {
        "applicable": applicable,
        "seeds": len(spec.seeds),
        "wins": wins if applicable else None,
        "mean_diff": float(np.mean([row["diff"] for row in rows])) if applicable else None,
        "gate": {"min_wins": min_wins, "passed": bool(applicable and wins >= min_wins)},
    }
    return build_report(spec, rows, extra={"summary": summary})


def bench_mem(spec: ExperimentSpec, t_list: Sequence[int] = (100, 1000, 10000)) -> dict:
    """Growth table over stream lengths, streaming frames lazily.

    Runs question-agnostically with re-initialization off so the amortized
    accounting has a single interpretation: appended frames per pushed
    frame. Both halves of the gate hold by construction: ``peak_constant``
    because the model's peak bytes depend only on the capacities, and
    ``amortized_within_1pct`` because under ``none`` every pushed frame goes
    through exactly one consolidation, so the two ratios are equal. The
    instrumented resident counter is reported alongside as a cross-check.
    """
    if spec.synthetic is None:
        raise InvalidSpec("bench_mem needs a synthetic stream template")
    if not t_list:
        raise InvalidSpec("bench_mem needs at least one stream length")
    if len(spec.seeds) != 1:
        raise InvalidSpec(f"bench_mem runs one seed, got {list(spec.seeds)}: no row value "
                          f"but wall_time_s depends on it")
    seed = spec.seeds[0]
    agnostic = replace(spec, reinit_mode="none", question=None,
                       synthetic=replace(spec.synthetic, seed=seed))
    rows = []
    for t in t_list:
        sspec = replace(agnostic.synthetic, frame_count=int(t))
        frames = _Frames((sspec.frame_count, sspec.n_tokens, sspec.dims),
                         lambda: iter_synthetic(sspec)[1])
        row, pipe = _run_single(agnostic, "stream_merge", seed, frames, None, ())
        record = pipe.bytes_model()
        raw = record.raw_bytes_per_frame
        empirical = raw * pipe.consolidation_output_total / pipe.frames_pushed
        rows.append({
            "frame_count": int(t),
            "raw_bytes_per_frame": raw,
            "amortized_bytes_per_frame": record.amortized_bytes_per_frame,
            "empirical_bytes_per_frame": empirical,
            "peak_resident_bytes": record.peak_resident_bytes,
            "measured_peak_frames": pipe.peak_resident_frames,
            "measured_peak_bytes": pipe.peak_resident_frames * raw,
            "ltm_entries": len(pipe.long),
            "wall_time_s": row["wall_time_s"],
        })
    peaks = {row["peak_resident_bytes"] for row in rows}
    amortized_ok = all(
        abs(row["empirical_bytes_per_frame"] - row["amortized_bytes_per_frame"])
        <= 0.01 * row["amortized_bytes_per_frame"]
        for row in rows)
    summary = {
        "peak_constant": len(peaks) == 1,
        "amortized_within_1pct": amortized_ok,
        "gate": {"passed": bool(len(peaks) == 1 and amortized_ok)},
    }
    # the report echoes the settings that ran, not the ones asked for
    return build_report(agnostic, rows, extra={"summary": summary})


def check_gate(report: dict) -> None:
    """Raise GateFailure when a report's summary gate did not pass."""
    gate = report.get("summary", {}).get("gate")
    if gate is not None and not gate.get("passed", False):
        raise GateFailure(f"assertion gate failed: {gate}")


# -- report plumbing -----------------------------------------------------


def _build_hash() -> str:
    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def _plain(node, drop):
    # node with tuples as lists and the keys in drop left out, at every depth
    if isinstance(node, dict):
        return {k: _plain(v, drop) for k, v in node.items() if k not in drop}
    if isinstance(node, (list, tuple)):
        return [_plain(v, drop) for v in node]
    return node


def canonical_report_bytes(report: dict) -> bytes:
    """Deterministic byte form: volatile fields out, keys sorted, compact."""
    return json.dumps(_plain(report, VOLATILE_KEYS), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def build_report(spec: ExperimentSpec, rows: list[dict], extra: dict | None = None) -> dict:
    report = {
        "spec_echo": spec.to_dict(),
        "rows": rows,
        "environment": {"version": __version__, "build_hash": _build_hash()},
    }
    if extra:
        report.update(extra)
    report["canonical_sha256"] = hashlib.sha256(
        canonical_report_bytes(report)).hexdigest()
    return report


def _flatten(prefix: str, node, out: dict) -> None:
    if isinstance(node, dict):
        for k, v in node.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(node, (list, tuple)):
        out[prefix] = json.dumps(node)
    else:
        out[prefix] = node


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    # numbers and booleans use their JSON spelling so both formats agree
    return json.dumps(value)


def write_report(report: dict, out_dir: str, formats: Sequence[str] = ("json",)) -> list[str]:
    """Write report.json and/or report.csv under out_dir, replacing no path
    until all are written (a failed write leaves the old files); returns the paths."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out_dir!r}: {exc}") from exc
    written = [os.path.join(out_dir, f"report.{fmt}") for fmt in ("json", "csv")
               if fmt in formats]
    with contextlib.ExitStack() as files:
        if "json" in formats:
            fh = files.enter_context(_replacing(written[0], "w"))
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()  # its bytes reach the file before the CSV replaces its path
        if "csv" in formats:
            flat_rows = []
            columns: list[str] = []
            for row in report.get("rows", []):
                flat: dict = {}
                _flatten("", row, flat)
                flat_rows.append(flat)
                for key in flat:
                    if key not in columns:
                        columns.append(key)
            writer = csv.writer(files.enter_context(_replacing(written[-1], "w")))
            writer.writerow(columns)
            for flat in flat_rows:
                writer.writerow([_csv_cell(flat.get(c)) for c in columns])
    return written
