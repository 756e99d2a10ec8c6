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
from .pipeline import COUNTERS, Pipeline
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


def _write(doc: dict, json_path: str, sidecar_path: str | None,
           frames: tuple[WeightedFrame, ...]) -> tuple[str, str | None]:
    # write the JSON, then the token matrices to a sidecar (none if no frames)
    if not frames:
        sidecar_path = None
    elif sidecar_path is None:
        sidecar_path = os.path.splitext(json_path)[0] + ".mces"
    doc["sidecar"] = None if sidecar_path is None else os.path.basename(sidecar_path)
    _dump(doc, json_path)
    if sidecar_path is not None:
        write_stream(sidecar_path, np.stack([f.tokens for f in frames]).astype("<f4"))
    return json_path, sidecar_path


def export_long_term(memory: LongTermMemory, json_path: str,
                     sidecar_path: str | None = None) -> tuple[str, str | None]:
    """Write a long-term memory snapshot.

    The sidecar (token matrices) defaults to the JSON path with a .mces
    suffix and is omitted entirely for an empty memory, since the container
    cannot hold zero frames. Returns the paths written.
    """
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
    }
    return _write(doc, json_path, sidecar_path, entries)


def export_pipeline(pipe: Pipeline, json_path: str,
                    sidecar_path: str | None = None) -> tuple[str, str | None]:
    """Write a full pipeline snapshot for later resume."""
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
        "counters": pipe.counters(),
        "long": {
            "next_position_id": pipe.long.next_position_id,
            "entries": [_frame_meta(e, pid)
                        for e, pid in zip(long_entries, pipe.long.position_ids)],
        },
        "short": {
            "next_source_index": pipe.short.next_source_index,
            "frames": [_frame_meta(f) for f in short_frames],
        },
    }
    return _write(doc, json_path, sidecar_path, long_entries + short_frames)


def _load(json_path: str) -> dict:
    try:
        with open(json_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read {json_path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"snapshot {json_path!r} is not valid JSON: {exc}") from exc


def _sidecar_frames(doc: dict, json_path: str, expected: int):
    name = _field(doc, "sidecar", (str, type(None)))
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


def _field(doc: dict, key: str, kind, where: str = "snapshot"):
    # doc[key], or InvalidSpec naming the key when it is missing or mistyped
    if key not in doc:
        raise InvalidSpec(f"{where} lacks key {key!r}")
    if not isinstance(doc[key], kind):
        raise InvalidSpec(f"{where} key {key!r} holds a {type(doc[key]).__name__}")
    return doc[key]


def _rebuild_frame(tokens, meta) -> WeightedFrame:
    try:
        return WeightedFrame(
            tokens=tokens,
            weight=int(meta["weight"]),
            provenance=tuple(tuple(iv) for iv in meta["provenance"]),
            context_flag=bool(meta["context_flag"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"bad frame metadata {meta!r}: {exc!r}") from exc


def import_pipeline(json_path: str) -> Pipeline:
    """Rebuild a pipeline from :func:`export_pipeline` output.

    The sidecar is looked up next to the JSON file by its recorded name. A
    document that is not a pipeline snapshot, or that lacks or mistypes a
    key, raises InvalidSpec naming the key.
    """
    doc = _load(json_path)
    if not isinstance(doc, dict) or doc.get("kind") != "pipeline_snapshot":
        raise InvalidSpec(f"{json_path!r} is not a pipeline snapshot")
    if doc.get("snapshot_version") != SNAPSHOT_VERSION:
        raise InvalidSpec(f"unsupported snapshot version {doc.get('snapshot_version')}")
    cfg = ConsolidationConfig.from_dict(_field(doc, "config", dict))
    question = _field(doc, "question", (list, type(None)))
    if question is not None and not all(isinstance(v, (int, float)) for v in question):
        raise InvalidSpec("snapshot key 'question' holds a non-number")
    pipe = Pipeline(
        _field(doc, "n_tokens", int), _field(doc, "dims", int), cfg,
        question=None if question is None else np.asarray(question, dtype=np.float64),
        ltm_capacity=_field(doc, "ltm_capacity", int),
        reinit_mode=_field(doc, "reinit_mode", str),
    )
    long, short = _field(doc, "long", dict), _field(doc, "short", dict)
    long_meta = _field(long, "entries", list, "snapshot long")
    short_meta = _field(short, "frames", list, "snapshot short")
    matrices = _sidecar_frames(doc, json_path, len(long_meta) + len(short_meta))
    entries = [_rebuild_frame(matrices[i], meta) for i, meta in enumerate(long_meta)]
    pipe.long._restore(
        entries, [_field(meta, "position_id", int, "long-term entry") for meta in long_meta],
        _field(long, "next_position_id", int, "snapshot long"))
    pipe.short._restore([_rebuild_frame(matrices[len(long_meta) + i], meta)
                         for i, meta in enumerate(short_meta)])
    pipe.short._next_source_index = _field(short, "next_source_index", int, "snapshot short")
    counters = _field(doc, "counters", dict)
    unknown = sorted(set(counters) - set(COUNTERS))
    if unknown:
        raise InvalidSpec(f"snapshot counters has unknown keys {unknown}")
    for name in COUNTERS:
        setattr(pipe, name, _field(counters, name, int, "snapshot counters"))
    return pipe
