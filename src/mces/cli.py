"""Command line front end.

Exit codes: 0 success, 2 configuration error, 3 I/O or container error,
4 failed assertion gate (--assert runs only).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from .consolidation import ConsolidationConfig, _check_keys
from .errors import (
    ConfigError,
    GateFailure,
    IoFailure,
    McesError,
    StreamFormatError,
)
from .harness import (
    BASELINES,
    PARAMS,
    VALUE_ALIASES,
    ExperimentSpec,
    _row_count,
    apply_params,
    bench_mem,
    check_gate,
    plant_eval,
    run,
    write_report,
)
from .snapshot import _field, export_pipeline, import_pipeline, read_json
from .streamio import SyntheticSpec, iter_stream, iter_synthetic, write_stream
# unused here; kept only so bench/spans.py can wrap cli.read_stream
from .streamio import read_stream  # noqa: F401

# the top-level keys an experiment --config may hold
_CONFIG_KEYS = ("cfg", "reinit", "ltm_cap", "stream", "synthetic", "question",
                "seeds", "policies", "sweep")


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
    p.add_argument("--reinit", choices=(*VALUE_ALIASES["reinit"], "none"))
    p.add_argument("--ltm-cap", type=int, help="long-term capacity")
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--policies", help="comma-separated policy list")


def _inputs(args) -> str:
    return "the flags" if args.config is None else f"{args.config!r} and the flags"


@contextmanager
def _reading(what: str):
    # malformed JSON shapes or flag text surface as these while an input is
    # read; report them as a config error naming the input
    try:
        yield
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        raise ConfigError(f"cannot read {what}: {exc!r}") from exc


def _parse_question(value):
    with _reading(f"question {value!r}"):
        if not os.path.exists(value):
            return [float(v) for v in value.split(",") if v.strip()]
        if value.endswith(".npy"):
            return np.load(value)
        if value.endswith(".mces"):
            _, q, frames = iter_stream(value)
            frames.close()
            if q is None:
                raise ConfigError(f"{value!r} carries no question vector")
            return q
        with open(value, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, list):
            raise ConfigError(f"question {value!r} does not hold a JSON list")
        return doc  # its elements are read as the spec reads a config's


def _parse_segments(value):
    # "start:stop:rho,start:stop:rho"
    segs = []
    for part in value.split(","):
        if not part.strip():
            continue
        try:
            start, stop, rho = part.split(":")
            segs.append((int(start), int(stop), float(rho)))
        except ValueError:
            raise ConfigError(f"segment {part!r} is not start:stop:rho") from None
    return segs


def _build_spec(args, *, default_seeds=(0,)) -> ExperimentSpec:
    doc = {} if args.config is None else read_json(args.config)
    _check_keys(doc, _CONFIG_KEYS)
    with _reading(_inputs(args)):
        cfg_doc = dict(doc.get("cfg", {}))
        # flags win over the config's top-level run parameters
        params = {name: doc[name] for name in ("reinit", "ltm_cap") if name in doc}
        params.update((name, getattr(args, name)) for name in PARAMS
                      if getattr(args, name) is not None)
        if not {"base_target", "alpha"} <= set(cfg_doc) | {PARAMS[n][0] for n in params}:
            raise ConfigError("experiments must state --m0 and --alpha explicitly "
                              "(or cfg.base_target / cfg.alpha in --config)")

        stream_file = args.stream or doc.get("stream")
        synthetic = None
        if stream_file is None and doc.get("synthetic"):
            synthetic = SyntheticSpec(**doc["synthetic"])

        question = args.question if args.question is not None else doc.get("question")
        if isinstance(question, str):
            question = _parse_question(question)

        seeds = doc.get("seeds", list(default_seeds))
        if args.seeds:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        if args.seed is not None:
            seeds = [args.seed]

        policies = doc.get("policies", ["question_merge"])
        if args.policies:
            policies = [p.strip() for p in args.policies.split(",") if p.strip()]

        spec = ExperimentSpec(
            synthetic=synthetic, stream_file=stream_file, question=question,
            cfg=ConsolidationConfig.from_dict(cfg_doc), policies=policies,
            seeds=seeds, sweep=tuple(doc.get("sweep", {}).items()))
        return apply_params(spec, params)


def _emit(report: dict, args) -> None:
    formats = ("json", "csv") if args.format == "both" else (args.format,)
    for path in write_report(report, args.out, formats):
        print(path)
    if getattr(args, "assert_gate", False):
        check_gate(report)


def _cmd_gen(args) -> int:
    doc = {} if args.config is None else read_json(args.config)
    flags = {"frame_count": args.t, "n_tokens": args.n, "dims": args.d,
             "noise_scale": args.noise, "seed": args.seed,
             "segments": None if args.segments is None else _parse_segments(args.segments)}
    with _reading(_inputs(args)):
        spec = SyntheticSpec(**{**doc.get("synthetic", {}),
                                **{k: v for k, v in flags.items() if v is not None}})
    question, frames = iter_synthetic(spec)
    out = args.out_file
    write_stream(out, frames, question if args.with_question else None,
                 frame_count=spec.frame_count)
    print(out)
    return 0


def _cmd_run(args) -> int:
    spec = _build_spec(args)
    if args.snapshot and (_row_count(spec) != 1 or spec.policies[0] in BASELINES):
        raise ConfigError("--snapshot needs a run of one row with a pipeline policy")
    last = []
    _emit(run(spec, _last_pipeline=last), args)
    if args.snapshot:
        print(export_pipeline(last[0], os.path.join(args.out, "snapshot.json"))[0])
    return 0


def _cmd_plant_eval(args) -> int:
    spec = _build_spec(args, default_seeds=tuple(range(20)))
    _emit(plant_eval(spec, min_wins=args.min_wins), args)
    return 0


def _cmd_bench_mem(args) -> int:
    spec = _build_spec(args)
    with _reading(f"--t-list {args.t_list!r}"):
        t_list = [int(v) for v in args.t_list.split(",") if v.strip()]
    _emit(bench_mem(spec, t_list), args)
    return 0


def _cmd_inspect(args) -> int:
    if args.limit < 0:
        raise ConfigError(f"--limit must be >= 0, got {args.limit}")
    if args.stream:
        header, question, frames = iter_stream(args.stream)
        # one pass checks every value and keeps one float32 norm per frame,
        # computed as for a row of the (T, N*D) payload
        norms = np.fromiter((np.linalg.norm(f.reshape(1, -1), axis=1)[0] for f in frames),
                            dtype=np.float32, count=header.frame_count)
        print(f"stream {args.stream}")
        print(f"  frames {header.frame_count}  tokens {header.n_tokens}  "
              f"dims {header.dims}  question {'yes' if question is not None else 'no'}")
        print(f"  bytes {header.total_bytes()}")
        print(f"  frame norm min {norms.min():.4f} mean {norms.mean():.4f} "
              f"max {norms.max():.4f}")
        return 0
    if args.snapshot:
        # the one snapshot reader: anything it cannot resume is refused
        pipe = import_pipeline(args.snapshot)
        print(f"snapshot {args.snapshot} kind pipeline_snapshot")
        print(f"  long-term entries {len(pipe.long)}")
        for pid, entry in zip(pipe.long.position_ids[: args.limit], pipe.long.entries):
            print(f"    id {pid} weight {entry.weight} context {entry.context_flag} "
                  f"provenance {[list(iv) for iv in entry.provenance]}")
        if len(pipe.short):
            print(f"  short-term frames {len(pipe.short)}")
        print(f"  counters {json.dumps(pipe.counters(), sort_keys=True)}")
        return 0
    if args.report:
        doc = read_json(args.report)
        rows = _field(doc, "rows", list, f"report {args.report!r}")
        with _reading(f"report {args.report!r}"):
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
    p.add_argument("--no-question", dest="with_question", action="store_false")
    p.add_argument("--out", dest="out_file", default="stream.mces")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("run", help="run policies over a stream, or a sweep grid")
    _add_common(p)
    p.add_argument("--snapshot", action="store_true",
                   help="also export a pipeline snapshot (one row of a pipeline policy)")
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
    except (IoFailure, StreamFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except McesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
