"""Command line front end.

Exit codes: 0 success, 2 configuration error, 3 I/O or container error,
4 failed assertion gate (--assert runs only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .consolidation import ConsolidationConfig
from .errors import (
    ConfigError,
    GateFailure,
    IoFailure,
    McesError,
    StreamFormatError,
)
from .harness import (
    ExperimentSpec,
    bench_mem,
    check_gate,
    plant_eval,
    run,
    sweep,
    write_report,
)
from .snapshot import export_pipeline
from .streamio import SyntheticSpec, generate_synthetic, read_stream, write_stream

REINIT_SHORT = {"merged": "merged_tokens", "last": "last_k",
                "uniform": "uniform_sample", "none": "none"}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment spec; flags override it")
    p.add_argument("--seed", type=int, help="single run seed")
    p.add_argument("--out", default="mces_out", help="output directory")
    p.add_argument("--format", choices=("json", "csv", "both"), default="json")
    p.add_argument("--stream", help="input stream file")
    p.add_argument("--question", help="question vector: file or inline floats")
    p.add_argument("--k", type=int, help="short-term capacity")
    p.add_argument("--m0", type=int, help="slot budget for a relevant fill")
    p.add_argument("--alpha", type=float, help="budget scale for irrelevant fills")
    p.add_argument("--sigma", type=float, help="relevance threshold")
    p.add_argument("--basis", choices=("mean", "min", "max"))
    p.add_argument("--reinit", choices=tuple(REINIT_SHORT))
    p.add_argument("--ltm-cap", type=int, help="long-term capacity")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--policies", help="comma-separated policy list")


def _load_config(path: str | None) -> dict:
    # any JSON input: --config files, snapshots and reports for inspect
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoFailure(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path!r} does not hold a JSON object")
    return doc


def _parse_question(value):
    if value is None:
        return None
    if os.path.exists(value):
        if value.endswith(".npy"):
            return [float(v) for v in np.load(value).reshape(-1)]
        if value.endswith(".mces"):
            _, _, q = read_stream(value)
            if q is None:
                raise ConfigError(f"{value!r} carries no question vector")
            return [float(v) for v in q]
        with open(value, "r", encoding="utf-8") as fh:
            return [float(v) for v in json.load(fh)]
    try:
        return [float(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse question {value!r}") from exc


def _parse_segments(value):
    # "start:stop:rho,start:stop:rho"
    segs = []
    for part in value.split(","):
        if not part.strip():
            continue
        bits = part.split(":")
        if len(bits) != 3:
            raise ConfigError(f"segment {part!r} is not start:stop:rho")
        segs.append((int(bits[0]), int(bits[1]), float(bits[2])))
    return segs


def _build_spec(args, *, default_seeds=(0,)) -> ExperimentSpec:
    doc = _load_config(args.config)
    cfg_doc = dict(doc.get("cfg", {}))
    for flag, key in (("k", "capacity"), ("m0", "base_target"), ("alpha", "alpha"),
                      ("sigma", "sigma"), ("basis", "basis")):
        value = getattr(args, flag, None)
        if value is not None:
            cfg_doc[key] = value
    if "base_target" not in cfg_doc or "alpha" not in cfg_doc:
        raise ConfigError("experiments must state --m0 and --alpha explicitly "
                          "(or cfg.base_target / cfg.alpha in --config)")
    cfg = ConsolidationConfig.from_dict(cfg_doc)

    synthetic = None
    if doc.get("synthetic"):
        raw = dict(doc["synthetic"])
        raw["segments"] = tuple(tuple(s) for s in raw.get("segments", ()))
        synthetic = SyntheticSpec(**raw)
    stream_file = getattr(args, "stream", None) or doc.get("stream")
    if stream_file is not None:
        synthetic = None

    question = doc.get("question")
    q_flag = getattr(args, "question", None)
    if q_flag is not None:
        question = _parse_question(q_flag)
    elif isinstance(question, str):
        question = _parse_question(question)

    seeds = doc.get("seeds", list(default_seeds))
    if getattr(args, "seeds", None):
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    if args.seed is not None:
        seeds = [args.seed]

    policies = doc.get("policies", ["question_merge"])
    if getattr(args, "policies", None):
        policies = [p.strip() for p in args.policies.split(",") if p.strip()]

    reinit = doc.get("reinit", "merged_tokens")
    if getattr(args, "reinit", None):
        reinit = REINIT_SHORT[args.reinit]
    elif reinit in REINIT_SHORT:
        reinit = REINIT_SHORT[reinit]

    sweep_doc = doc.get("sweep", {})
    return ExperimentSpec(
        synthetic=synthetic,
        stream_file=stream_file,
        question=question,
        cfg=cfg,
        ltm_capacity=getattr(args, "ltm_cap", None) or doc.get("ltm_cap", 256),
        reinit_mode=reinit,
        policies=tuple(policies),
        seeds=tuple(seeds),
        sweep=tuple((k, tuple(v)) for k, v in sweep_doc.items()),
        sample_count=doc.get("sample_count", 16),
        ema_decay=doc.get("ema_decay", 0.5),
        max_grid_points=doc.get("max_grid_points", 1024),
    )


def _formats(args):
    return ("json", "csv") if args.format == "both" else (args.format,)


def _emit(report: dict, args) -> None:
    paths = write_report(report, args.out, _formats(args))
    for p in paths:
        print(p)


def _cmd_gen(args) -> int:
    doc = _load_config(args.config)
    raw = dict(doc.get("synthetic", {}))
    if args.t is not None:
        raw["frame_count"] = args.t
    if args.n is not None:
        raw["n_tokens"] = args.n
    if args.d is not None:
        raw["dims"] = args.d
    if args.noise is not None:
        raw["noise_scale"] = args.noise
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.segments is not None:
        raw["segments"] = _parse_segments(args.segments)
    raw["segments"] = tuple(tuple(s) for s in raw.get("segments", ()))
    spec = SyntheticSpec(**raw)
    frames, question = generate_synthetic(spec)
    out = args.out_file
    write_stream(out, frames, question if args.with_question else None)
    print(out)
    return 0


def _cmd_run(args) -> int:
    spec = _build_spec(args)
    last = []
    report = run(spec, _last_pipeline=last)
    _emit(report, args)
    if args.snapshot and len(report["rows"]) == 1 and last[0] is not None:
        path, _ = export_pipeline(last[0], os.path.join(args.out, "snapshot.json"))
        print(path)
    return 0


def _cmd_plant_eval(args) -> int:
    spec = _build_spec(args, default_seeds=tuple(range(20)))
    report = plant_eval(spec, min_wins=args.min_wins)
    _emit(report, args)
    if args.assert_gate:
        check_gate(report)
    return 0


def _cmd_bench_mem(args) -> int:
    spec = _build_spec(args)
    t_list = [int(v) for v in args.t_list.split(",") if v.strip()]
    report = bench_mem(spec, t_list)
    _emit(report, args)
    if args.assert_gate:
        check_gate(report)
    return 0


def _cmd_sweep(args) -> int:
    spec = _build_spec(args)
    report = sweep(spec)
    _emit(report, args)
    return 0


def _cmd_compare(args) -> int:
    spec = _build_spec(args)
    if len(spec.policies) < 2:
        raise ConfigError("compare needs at least two --policies")
    report = run(spec)
    _emit(report, args)
    return 0


def _cmd_inspect(args) -> int:
    if args.stream:
        header, frames, question = read_stream(args.stream)
        print(f"stream {args.stream}")
        print(f"  frames {header.frame_count}  tokens {header.n_tokens}  "
              f"dims {header.dims}  question {'yes' if question is not None else 'no'}")
        print(f"  bytes {header.total_bytes()}")
        norms = np.linalg.norm(frames.reshape(header.frame_count, -1), axis=1)
        print(f"  frame norm min {norms.min():.4f} mean {norms.mean():.4f} "
              f"max {norms.max():.4f}")
        return 0
    if args.snapshot:
        doc = _load_config(args.snapshot)
        print(f"snapshot {args.snapshot} kind {doc.get('kind')}")
        entries = doc.get("long", doc).get("entries", [])
        print(f"  long-term entries {len(entries)}")
        for meta in entries[: args.limit]:
            print(f"    id {meta.get('position_id')} weight {meta['weight']} "
                  f"context {meta['context_flag']} provenance {meta['provenance']}")
        short = doc.get("short", {}).get("frames", [])
        if short:
            print(f"  short-term frames {len(short)}")
        counters = doc.get("counters")
        if counters:
            print(f"  counters {json.dumps(counters, sort_keys=True)}")
        return 0
    if args.report:
        doc = _load_config(args.report)
        rows = doc.get("rows", [])
        print(f"report {args.report} rows {len(rows)} "
              f"canonical {doc.get('canonical_sha256', '')[:16]}")
        for row in rows[: args.limit]:
            keys = ("policy", "seed", "diff", "frame_count")
            bits = [f"{k}={row[k]}" for k in keys if k in row]
            rel = row.get("relevance") or row.get("aware")
            if rel:
                if rel.get("applicable"):
                    bits.append(f"rmf={rel['relevant_mass_fraction']:.4f}")
                else:
                    bits.append("rmf=n/a")
            print("  " + "  ".join(bits))
        return 0
    raise ConfigError("inspect needs one of --stream, --snapshot, --report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mces",
        description="memory-bounded consolidation of embedding streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic stream file")
    p.add_argument("--config")
    p.add_argument("--t", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--segments", help="start:stop:rho[,start:stop:rho...]")
    p.add_argument("--with-question", action="store_true", default=True)
    p.add_argument("--no-question", dest="with_question", action="store_false")
    p.add_argument("--out", dest="out_file", default="stream.mces")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("run", help="run policies over a stream")
    _add_common(p)
    p.add_argument("--snapshot", action="store_true",
                   help="also export a pipeline snapshot (single-row runs)")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("plant-eval", help="aware vs agnostic retention on planted streams")
    _add_common(p)
    p.add_argument("--min-wins", type=int, default=None)
    p.add_argument("--assert", dest="assert_gate", action="store_true")
    p.set_defaults(handler=_cmd_plant_eval)

    p = sub.add_parser("bench-mem", help="memory growth table over stream lengths")
    _add_common(p)
    p.add_argument("--t-list", default="100,1000,10000")
    p.add_argument("--assert", dest="assert_gate", action="store_true")
    p.set_defaults(handler=_cmd_bench_mem)

    p = sub.add_parser("sweep", help="config grid sweep")
    _add_common(p)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("compare", help="side-by-side policy comparison")
    _add_common(p)
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("inspect", help="summarize a stream, snapshot, or report")
    p.add_argument("--stream")
    p.add_argument("--snapshot")
    p.add_argument("--report")
    p.add_argument("--limit", type=int, default=10)
    p.set_defaults(handler=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except GateFailure as exc:
        print(f"gate failed: {exc}", file=sys.stderr)
        return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IoFailure, StreamFormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except McesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
