"""Snapshot export and import: pause a pipeline, resume it later.

A snapshot is a JSON document plus an optional sidecar stream file holding
the token matrices (long-term entries first, then buffered short-term
frames, in order). The JSON carries everything else: config, counters,
per-entry metadata, and the question vector at full precision. Token values
round-trip at the container's 32-bit storage precision.

Export is deterministic: identical state produces byte-identical files.
Both directions stream the sidecar: export writes it one frame at a time,
and import reads it one chunk at a time, rebuilding each entry as its frame
arrives, so neither holds more of it than one chunk. Export refuses a token
outside the container's float32 range.

Format 1 is the only input that still knows the retired config keys: export
writes each at its one value, and import accepts each at that value only.

Import refuses, with InvalidSpec, what could not resume. Here: a missing key
or a mistyped value (a scalar by :func:`mces.errors.checked`), and, before
the sidecar is opened, a store listed over its capacity.
:meth:`LongTermMemory._restore` checks its ids, :meth:`Pipeline._restore`
the counters against the stores and every provenance against frames_pushed.
"""

from __future__ import annotations

import json
import os
from contextlib import closing

from .consolidation import ConsolidationConfig, _check_keys
from .errors import InvalidSpec, IoFailure, ShapeMismatch, checked
from .frames import WeightedFrame
from .pipeline import COUNTERS, Pipeline
from .streamio import _replacing, iter_stream, write_stream
# unused here; kept only so bench/spans.py can wrap snapshot.read_stream
from .streamio import read_stream  # noqa: F401

__all__ = [
    "SNAPSHOT_VERSION",
    "export_pipeline",
    "import_pipeline",
    "read_json",
]

SNAPSHOT_VERSION = 1
# format 1's retired config keys, each with the one value its files carry;
# window_size, the one window per fill, is written and read as the capacity
_RETIRED = {"question_similarity": "pooled", "relevance_exclude_context": False,
            "basis": "mean", "question_required": False, "windows_per_fill": 1}


def _frame_meta(frame: WeightedFrame, position_id: int | None = None) -> dict:
    meta = {
        "weight": frame.weight,
        "provenance": [[s, e, c] for s, e, c in frame.provenance],
        "context_flag": frame.context_flag,
    }
    if position_id is not None:
        meta["position_id"] = position_id
    return meta


def export_pipeline(pipe: Pipeline, json_path: str) -> tuple[str, str | None]:
    """Write a full pipeline snapshot for later resume.

    The sidecar (token matrices) is the JSON path with a .mces suffix, where
    :func:`import_pipeline` looks for it. It is omitted for a pipeline that
    holds no frames, since the container cannot hold zero frames. Returns
    the paths written. Neither is replaced until both are written, sidecar
    first, so a failed export (say NonFiniteValue, for a token outside the
    float32 range) leaves the previous snapshot.
    """
    frames = pipe.long.entries + pipe.short.frames
    sidecar_path = os.path.splitext(json_path)[0] + ".mces" if frames else None
    doc = {
        "kind": "pipeline_snapshot",
        "snapshot_version": SNAPSHOT_VERSION,
        "config": {**pipe.cfg.to_dict(), **_RETIRED, "window_size": pipe.cfg.capacity},
        "n_tokens": pipe.short.n_tokens,
        "dims": pipe.short.dims,
        "ltm_capacity": pipe.long.capacity,
        "reinit_mode": pipe.reinit_mode,
        "question": None if pipe.question is None else [float(v) for v in pipe.question],
        "counters": pipe.counters(),
        "long": {
            "next_position_id": pipe.long.next_position_id,
            "entries": [_frame_meta(e, pid)
                        for e, pid in zip(pipe.long.entries, pipe.long.position_ids)],
        },
        "short": {
            "next_source_index": pipe.short.next_source_index,
            "frames": [_frame_meta(f) for f in pipe.short.frames],
        },
        "sidecar": None if sidecar_path is None else os.path.basename(sidecar_path),
    }
    with _replacing(json_path, "w") as fh:
        # dumps, not dump: only dumps runs the C encoder; the text is the same
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        fh.flush()  # its bytes reach the file before the sidecar replaces its path
        if sidecar_path is not None:
            # one frame at a time, cast to float32 as it is written
            write_stream(sidecar_path, (f.tokens for f in frames), frame_count=len(frames))
    return json_path, sidecar_path


def read_json(path: str, what: str = "a JSON object") -> dict:
    """The JSON object held in ``path``.

    Raises IoFailure when the file cannot be read, and InvalidSpec when it
    is not JSON or holds something other than an object (``what``).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:
        raise InvalidSpec(f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{path!r} is not {what}")
    return doc


def _sidecar_frames(doc: dict, json_path: str, expected: int):
    # the sidecar's frames as a lazy iterator, which the caller closes; its
    # header, length and frame count are checked before this returns
    name = _field(doc, "sidecar", (str, type(None)))
    if name is None:
        if expected:
            raise InvalidSpec("snapshot lists frames but names no sidecar")
        return (f for f in ())  # closable, like iter_stream's iterator
    if name in ("", ".", "..") or name != os.path.basename(name):
        raise InvalidSpec(f"snapshot key 'sidecar' is not a bare file name: {name!r}")
    path = os.path.join(os.path.dirname(os.path.abspath(json_path)), name)
    header, _, frames = iter_stream(path)
    if header.frame_count != expected:
        frames.close()
        raise ShapeMismatch(
            f"sidecar holds {header.frame_count} frames, snapshot lists {expected}")
    return frames


def _field(doc: dict, key: str, kind, where: str = "snapshot"):
    # doc[key] or InvalidSpec naming the key; an int or a bool is read by checked
    if not isinstance(doc, dict) or key not in doc:
        raise InvalidSpec(f"{where} lacks key {key!r}")
    if kind in (int, bool):
        return checked(f"{where} key {key!r}", kind, doc[key])
    if not isinstance(doc[key], kind):
        raise InvalidSpec(f"{where} key {key!r} holds a {type(doc[key]).__name__}")
    return doc[key]


def _read_config(doc: dict) -> ConsolidationConfig:
    # pop each retired key at its one value and type (window_size at the
    # capacity); from_dict refuses any other key
    config = dict(_field(doc, "config", dict))
    capacity = config.get("capacity", ConsolidationConfig.capacity)
    for key, only in {**_RETIRED, "window_size": capacity}.items():
        value = config.pop(key, only)
        if type(value) is not type(only) or value != only:
            raise InvalidSpec(f"retired config key {key!r} must be {only!r}, got {value!r}")
    return ConsolidationConfig.from_dict(config)


def _rebuild_frame(tokens, meta) -> WeightedFrame:
    try:
        return WeightedFrame(tokens, meta["weight"], meta["provenance"],
                             _field(meta, "context_flag", bool, "frame"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"bad frame metadata {meta!r}: {exc!r}") from exc


def import_pipeline(json_path: str) -> Pipeline:
    """Rebuild a pipeline from :func:`export_pipeline` output.

    The sidecar is read one chunk at a time from the JSON file's directory,
    by its recorded bare file name; it is closed on return and on every
    error. A document that is not a pipeline snapshot, or that lacks or
    mistypes a key, raises InvalidSpec naming the key.
    """
    doc = read_json(json_path, "a pipeline snapshot")
    if doc.get("kind") != "pipeline_snapshot":
        raise InvalidSpec(f"{json_path!r} is not a pipeline snapshot")
    if (version := _field(doc, "snapshot_version", int)) != SNAPSHOT_VERSION:
        raise InvalidSpec(f"unsupported snapshot version {version}")
    cfg = _read_config(doc)
    question = _field(doc, "question", (list, type(None)))
    pipe = Pipeline(
        _field(doc, "n_tokens", int), _field(doc, "dims", int), cfg,
        question=None if question is None else
        [checked("snapshot key 'question'", float, v) for v in question],
        ltm_capacity=_field(doc, "ltm_capacity", int),
        reinit_mode=_field(doc, "reinit_mode", str),
    )
    long, short = _field(doc, "long", dict), _field(doc, "short", dict)
    long_meta = _field(long, "entries", list, "snapshot long")
    short_meta = _field(short, "frames", list, "snapshot short")
    for where, meta, capacity in (("long.entries", long_meta, pipe.long.capacity),
                                  ("short.frames", short_meta, cfg.capacity)):
        if len(meta) > capacity:
            raise InvalidSpec(f"snapshot {where} holds {len(meta)} frames, "
                              f"over the capacity {capacity}")
    counters = _field(doc, "counters", dict)
    _check_keys(counters, COUNTERS, "snapshot counters")
    counters = {name: _field(counters, name, int, "snapshot counters") for name in COUNTERS}
    position_ids = [_field(meta, "position_id", int, "long-term entry") for meta in long_meta]
    matrices = _sidecar_frames(doc, json_path, len(long_meta) + len(short_meta))
    with closing(matrices):
        # meta first in each zip, so that no frame is read past the last entry
        entries = [_rebuild_frame(tokens, meta) for meta, tokens in zip(long_meta, matrices)]
        buffered = [_rebuild_frame(tokens, meta) for meta, tokens in zip(short_meta, matrices)]
    pipe._restore(counters, entries, position_ids,
                  _field(long, "next_position_id", int, "snapshot long"),
                  buffered, _field(short, "next_source_index", int, "snapshot short"))
    return pipe
