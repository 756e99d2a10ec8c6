"""Memory stays flat while the stream grows.

Runs the same pipeline over streams of increasing length and prints the
accounting model next to instrumented peaks. Peak resident bytes depend on
the buffer and store capacities, never on stream length; what grows is the
long-term entry count, at a bounded amortized rate per pushed frame.
"""

from mces import ConsolidationConfig, ExperimentSpec, SyntheticSpec, bench_mem


def main() -> int:
    spec = ExperimentSpec(
        synthetic=SyntheticSpec(frame_count=64, n_tokens=8, dims=64),
        cfg=ConsolidationConfig(),
        ltm_capacity=256,
    )
    doc = bench_mem(spec, t_list=(64, 256, 1024, 4096))

    print(f"{'frames':>8} {'peak bytes':>12} {'amortized B/frame':>18} "
          f"{'ltm entries':>12} {'wall s':>8}")
    for row in doc["rows"]:
        print(f"{row['frame_count']:>8} {row['peak_resident_bytes']:>12} "
              f"{row['amortized_bytes_per_frame']:>18.1f} "
              f"{row['ltm_entries']:>12} {row['wall_time_s']:>8.3f}")

    summary = doc["summary"]
    print(f"\npeak constant across lengths: {summary['peak_constant']}")
    print(f"amortized model within 1% of measured: "
          f"{summary['amortized_within_1pct']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
