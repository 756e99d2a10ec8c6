"""Snapshot export and import: pause a pipeline, resume it later.

A snapshot is a JSON document plus an optional sidecar stream file holding
the token matrices (long-term entries first, then buffered short-term
frames, in order). The JSON carries everything else: config, counters,
per-entry metadata, and the question vector at full precision. Token values
round-trip at the container's 32-bit storage precision.

Export is deterministic: identical state produces byte-identical files.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .consolidation import ConsolidationConfig
from .errors import InvalidSpec, IoFailure, ShapeMismatch
from .frames import WeightedFrame
from .memory import LongTermMemory
from .pipeline import Pipeline
from .streamio import read_stream, write_stream

__all__ = [
    "SNAPSHOT_VERSION",
    "export_long_term",
    "export_pipeline",
    "import_pipeline",
]

SNAPSHOT_VERSION = 1


def _frame_meta(frame: WeightedFrame, position_id: int | None = None) -> dict:
    meta = {
        "weight": frame.weight,
        "provenance": [[s, e, c] for s, e, c in frame.provenance],
        "context_flag": frame.context_flag,
    }
    if position_id is not None:
        meta["position_id"] = position_id
    return meta


def _dump(doc: dict, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path!r}: {exc}") from exc


def _write_sidecar(path: str, frames) -> None:
    stack = np.stack([f.tokens for f in frames]).astype("<f4")
    write_stream(path, stack)


def export_long_term(memory: LongTermMemory, json_path: str,
                     sidecar_path: str | None = None) -> tuple[str, str | None]:
    """Write a long-term memory snapshot.

    The sidecar (token matrices) defaults to the JSON path with a .mces
    suffix and is omitted entirely for an empty memory, since the container
    cannot hold zero frames. Returns the paths written.
    """
    if sidecar_path is None:
        sidecar_path = os.path.splitext(json_path)[0] + ".mces"
    entries = memory.entries
    doc = {
        "kind": "long_term_snapshot",
        "snapshot_version": SNAPSHOT_VERSION,
        "capacity": memory.capacity,
        "n_tokens": memory.n_tokens,
        "dims": memory.dims,
        "next_position_id": memory.next_position_id,
        "entries": [_frame_meta(e, pid)
                    for e, pid in zip(entries, memory.position_ids)],
        "sidecar": os.path.basename(sidecar_path) if entries else None,
    }
    _dump(doc, json_path)
    if entries:
        _write_sidecar(sidecar_path, entries)
        return json_path, sidecar_path
    return json_path, None


def export_pipeline(pipe: Pipeline, json_path: str,
                    sidecar_path: str | None = None) -> tuple[str, str | None]:
    """Write a full pipeline snapshot for later resume."""
    if sidecar_path is None:
        sidecar_path = os.path.splitext(json_path)[0] + ".mces"
    long_entries = pipe.long.entries
    short_frames = pipe.short.frames
    doc = {
        "kind": "pipeline_snapshot",
        "snapshot_version": SNAPSHOT_VERSION,
        "config": pipe.cfg.to_dict(),
        "n_tokens": pipe.n_tokens,
        "dims": pipe.dims,
        "ltm_capacity": pipe.long.capacity,
        "reinit_mode": pipe.reinit_mode,
        "question": None if pipe.question is None else [float(v) for v in pipe.question],
        "counters": {
            "frames_pushed": pipe.frames_pushed,
            "consolidations_run": pipe.consolidations_run,
            "consolidation_input_total": pipe.consolidation_input_total,
            "consolidation_output_total": pipe.consolidation_output_total,
            "seeded_weight_total": pipe.seeded_weight_total,
            "peak_resident_frames": pipe.peak_resident_frames,
        },
        "long": {
            "next_position_id": pipe.long.next_position_id,
            "entries": [_frame_meta(e, pid)
                        for e, pid in zip(long_entries, pipe.long.position_ids)],
        },
        "short": {
            "next_source_index": pipe.short.next_source_index,
            "frames": [_frame_meta(f) for f in short_frames],
        },
        "sidecar": (os.path.basename(sidecar_path)
                    if (long_entries or short_frames) else None),
    }
    _dump(doc, json_path)
    if long_entries or short_frames:
        _write_sidecar(sidecar_path, list(long_entries) + list(short_frames))
        return json_path, sidecar_path
    return json_path, None


def _load(json_path: str) -> dict:
    try:
        with open(json_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read {json_path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"snapshot {json_path!r} is not valid JSON: {exc}") from exc


def _sidecar_frames(doc: dict, json_path: str, expected: int):
    name = doc.get("sidecar")
    if name is None:
        if expected:
            raise InvalidSpec("snapshot lists frames but names no sidecar")
        return []
    path = os.path.join(os.path.dirname(os.path.abspath(json_path)), name)
    header, frames, _ = read_stream(path)
    if header.frame_count != expected:
        raise ShapeMismatch(
            f"sidecar holds {header.frame_count} frames, snapshot lists {expected}")
    return [frames[i] for i in range(expected)]


def _rebuild_frame(tokens, meta: dict) -> WeightedFrame:
    return WeightedFrame(
        tokens=tokens,
        weight=int(meta["weight"]),
        provenance=tuple(tuple(iv) for iv in meta["provenance"]),
        context_flag=bool(meta["context_flag"]),
    )


def import_pipeline(json_path: str) -> Pipeline:
    """Rebuild a pipeline from :func:`export_pipeline` output.

    The sidecar is looked up next to the JSON file by its recorded name.
    """
    doc = _load(json_path)
    if doc.get("kind") != "pipeline_snapshot":
        raise InvalidSpec(f"{json_path!r} is not a pipeline snapshot")
    if doc.get("snapshot_version") != SNAPSHOT_VERSION:
        raise InvalidSpec(f"unsupported snapshot version {doc.get('snapshot_version')}")
    cfg = ConsolidationConfig.from_dict(doc["config"])
    question = doc["question"]
    pipe = Pipeline(
        doc["n_tokens"], doc["dims"], cfg,
        question=None if question is None else np.asarray(question, dtype=np.float64),
        ltm_capacity=doc["ltm_capacity"],
        reinit_mode=doc["reinit_mode"],
    )
    n_long = len(doc["long"]["entries"])
    n_short = len(doc["short"]["frames"])
    matrices = _sidecar_frames(doc, json_path, n_long + n_short)
    entries = [_rebuild_frame(matrices[i], meta)
               for i, meta in enumerate(doc["long"]["entries"])]
    pipe.long._restore(
        entries,
        [meta["position_id"] for meta in doc["long"]["entries"]],
        doc["long"]["next_position_id"])
    short_frames = [_rebuild_frame(matrices[n_long + i], meta)
                    for i, meta in enumerate(doc["short"]["frames"])]
    pipe.short._restore(short_frames)
    pipe.short._next_source_index = int(doc["short"]["next_source_index"])
    counters = doc["counters"]
    pipe.frames_pushed = int(counters["frames_pushed"])
    pipe.consolidations_run = int(counters["consolidations_run"])
    pipe.consolidation_input_total = int(counters["consolidation_input_total"])
    pipe.consolidation_output_total = int(counters["consolidation_output_total"])
    pipe.seeded_weight_total = int(counters["seeded_weight_total"])
    pipe.peak_resident_frames = int(counters["peak_resident_frames"])
    return pipe
