"""Acceptance gate: every release claim, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; each
test also stands alone as a plain assertion. Budgeted checks measure their
own wall time and fail when over budget.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import directional_frames, oracle_case
from mces import (
    ConsolidationConfig,
    ExperimentSpec,
    Pipeline,
    PositionalTable,
    SyntheticSpec,
    WeightedFrame,
    bench_mem,
    canonical_report_bytes,
    compute_relevance_metrics,
    consolidate,
    ema,
    enumerate_collisions,
    extended_position,
    generate_synthetic,
    greedy_merge,
    no_memory,
    plant_eval,
    read_stream,
    run,
    temporal_pool,
    write_stream,
)

ORACLE_CASES = 1000


def report(ok: bool, label: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


@functools.lru_cache(maxsize=1)
def oracle_sweep():
    """Shared 1000-case sweep backing criteria 1 and 2.

    Each case draws buffer size, token count, width, and target from the
    stated ranges, runs the library merge, and replays a from-scratch
    reference. Returns mismatch indices for equivalence and conservation
    separately, plus elapsed seconds.
    """
    not_equal = []
    not_conserved = []
    t0 = time.perf_counter()
    for case in range(ORACLE_CASES):
        tokens, m = oracle_case(case)
        k = len(tokens)
        frames = [WeightedFrame.from_tokens(t, i) for i, t in enumerate(tokens)]
        out, rep = greedy_merge(frames, m)
        want, trace = oracles.naive_greedy_merge(frames, m)
        same = (
            len(out) == len(want)
            and rep.trace == tuple(trace)
            and all(
                np.array_equal(g.tokens, w.tokens)
                and g.weight == w.weight
                and oracles.prov_counter(g.provenance) == w.sources
                for g, w in zip(out, want)
            )
        )
        if not same:
            not_equal.append(case)
        conserved = sum(f.weight for f in out) == k
        for f in out:
            entry = oracles.Entry(f.tokens, f.weight, oracles.prov_counter(f.provenance))
            mean = oracles.weighted_source_mean(entry, tokens)
            if float(np.max(np.abs(f.tokens - mean))) > 1e-9:
                conserved = False
        if not conserved:
            not_conserved.append(case)
    return not_equal, not_conserved, time.perf_counter() - t0


def test_c1_merge_matches_reference_loop_on_1000_cases():
    not_equal, _, elapsed = oracle_sweep()
    report(
        not_equal == [] and elapsed < 60.0,
        f"1. merge output, weights, provenance, and trace equal the "
        f"reference loop on {ORACLE_CASES}/{ORACLE_CASES} seeded cases "
        f"({elapsed:.1f}s, {len(not_equal)} mismatches)",
    )


def test_c2_weight_conservation_and_mean_preservation():
    _, not_conserved, _ = oracle_sweep()
    report(
        not_conserved == [],
        f"2. weights conserved exactly and every output is its source "
        f"group's weighted mean within 1e-9 on {ORACLE_CASES} cases "
        f"({len(not_conserved)} violations)",
    )


def test_c3_question_gating_budgets():
    cfg = ConsolidationConfig()  # capacity 16, base 4, alpha 0.25, sigma 0.25
    q = np.array([1.0, 0.0, 0.0, 0.0])

    aligned, rep_a = consolidate(
        directional_frames((1.0, 0.0, 0.0, 0.0), 16, 2), q, cfg)
    ortho, rep_o = consolidate(
        directional_frames((0.0, 1.0, 0.0, 0.0), 16, 2), q, cfg)

    # integer token rows with squared norm 16 put the descriptor cosine at
    # exactly 0.25 in float64, probing the strict side of the threshold
    tie_tokens = np.array([[1.0, 3.0, 2.0, 1.0, 1.0]])
    tie_frames = [WeightedFrame.from_tokens(tie_tokens, i) for i in range(16)]
    tie, rep_t = consolidate(tie_frames, np.eye(5)[0], cfg)

    report(
        len(aligned) == 4 and rep_a.relevant is True
        and len(ortho) == 1 and rep_o.relevant is False
        and rep_t.relevance == 0.25 and len(tie) == 1 and rep_t.relevant is False,
        f"3. gating at sigma=0.25: aligned window -> {len(aligned)} frames, "
        f"orthogonal -> {len(ortho)}, score exactly at the threshold -> "
        f"{len(tie)} (weak branch)",
    )


def test_c4_bounded_memory_growth_table():
    spec = ExperimentSpec(
        synthetic=SyntheticSpec(frame_count=100, n_tokens=32, dims=768),
        cfg=ConsolidationConfig(),
        ltm_capacity=256,
    )
    t0 = time.perf_counter()
    doc = bench_mem(spec, t_list=(100, 1_000, 10_000))
    elapsed = time.perf_counter() - t0

    peaks = {row["peak_resident_bytes"] for row in doc["rows"]}
    amortized = [row["amortized_bytes_per_frame"] for row in doc["rows"]]
    empirical = [row["empirical_bytes_per_frame"] for row in doc["rows"]]
    report(
        peaks == {26_738_688}
        and all(a == 24_576.0 for a in amortized)
        and all(e == 24_576.0 for e in empirical)
        and all(7 * 1024 <= a <= 70 * 1024 for a in amortized)
        and doc["summary"]["peak_constant"]
        and doc["summary"]["amortized_within_1pct"]
        and doc["summary"]["gate"]["passed"]
        and elapsed < 300.0,
        f"4. peak model bytes constant at {peaks} across T in "
        f"{{100, 1000, 10000}}; amortized {amortized[0]:.1f} B/frame inside "
        f"[7168, 71680] ({elapsed:.1f}s)",
    )


def test_c5_extended_positions_and_collision_scan():
    table = PositionalTable.gaussian(8, 16, seed=5)
    base_bitwise = all(
        np.array_equal(extended_position(table, k), table.base[k])
        and np.shares_memory(extended_position(table, k), table.base)
        for k in range(8)
    )
    encodings = np.stack([extended_position(table, k) for k in range(64)])
    hits = enumerate_collisions(table)
    expected = [(i, 9 * i) for i in range(1, 8)]
    report(
        base_bitwise and encodings.shape == (64, 16) and hits == expected,
        f"5. positions 0..7 return base rows bitwise, all 64 encodings "
        f"computed, collision scan == {expected} and nothing else",
    )


def test_c6_planted_relevance_superiority():
    # ten windows of 16 frames, the fifth planted wholesale at rho=0.8
    spec = ExperimentSpec(
        synthetic=SyntheticSpec(
            frame_count=160, n_tokens=4, dims=16,
            segments=((64, 80, 0.8),), noise_scale=0.05),
        cfg=ConsolidationConfig(),
        reinit_mode="none",
        seeds=tuple(range(20)),
    )
    t0 = time.perf_counter()
    doc = plant_eval(spec)
    elapsed = time.perf_counter() - t0
    wins = doc["summary"]["wins"]
    strict = all(row["diff"] > 0 for row in doc["rows"] if row["win"])

    noiseless = ExperimentSpec(
        synthetic=SyntheticSpec(
            frame_count=160, n_tokens=4, dims=16,
            segments=((64, 80, 1.0),), noise_scale=0.0),
        cfg=ConsolidationConfig(),
        reinit_mode="none",
        seeds=(0,),
    )
    row = plant_eval(noiseless)["rows"][0]
    exact_ge = (row["aware"]["relevant_mass_fraction"]
                >= row["agnostic"]["relevant_mass_fraction"])

    report(
        wins >= 18 and strict and doc["summary"]["gate"]["passed"]
        and exact_ge and elapsed < 120.0,
        f"6. question-aware beats question-agnostic on planted mass in "
        f"{wins}/20 paired seeds (need 18) and stays >= in the noiseless "
        f"rho=1 construction ({elapsed:.1f}s)",
    )


def test_c7_baseline_contracts():
    rng = np.random.default_rng(7)
    frames = [rng.standard_normal((3, 5)) for _ in range(16)]

    last = ema(frames, decay=0.0)
    ema_exact = np.array_equal(last.tokens, frames[-1])

    pooled = temporal_pool(frames)
    naive = np.mean(np.stack(frames), axis=0)
    pool_close = float(np.max(np.abs(pooled.tokens - naive))) <= 1e-12

    kept = no_memory(frames, sample_count=16)
    identity = len(kept) == 16 and all(
        np.array_equal(k.tokens, f) for k, f in zip(kept, frames))

    report(
        ema_exact and pool_close and identity,
        "7. ema(decay=0) returns the last frame bitwise, temporal pooling "
        "matches the naive time mean within 1e-12, no_memory keeps all 16 "
        "frames unchanged",
    )


def test_c8_determinism_and_container_round_trip(tmp_path):
    spec = ExperimentSpec(
        synthetic=SyntheticSpec(
            frame_count=48, n_tokens=2, dims=8,
            segments=((16, 32, 0.9),), noise_scale=0.05),
        cfg=ConsolidationConfig(),
        policies=("question_merge", "ema", "no_memory"),
        seeds=(0, 1),
    )
    first, second = run(spec), run(spec)
    bytes_equal = canonical_report_bytes(first) == canonical_report_bytes(second)
    sha_ok = (first["canonical_sha256"]
              == hashlib.sha256(canonical_report_bytes(first)).hexdigest())

    lossless = 0
    for seed in range(100):
        r = np.random.default_rng(30_000 + seed)
        t = int(r.integers(1, 9))
        n = int(r.integers(1, 5))
        d = int(r.integers(1, 7))
        tokens = r.standard_normal((t, n, d)).astype(np.float32)
        q = r.standard_normal(d).astype(np.float32) if seed % 2 == 0 else None
        path = str(tmp_path / f"rt_{seed}.mces")
        write_stream(path, tokens, question=q)
        header, back, q_back = read_stream(path)
        ok = (header.frame_count == t and header.n_tokens == n
              and header.dims == d and np.array_equal(back, tokens))
        ok = ok and ((q is None and q_back is None)
                     or (q is not None and np.array_equal(q_back, q)))
        lossless += int(ok)

    report(
        bytes_equal and sha_ok and lossless == 100,
        f"8. identical runs give byte-identical canonical reports (hash "
        f"verified) and the container round-trips {lossless}/100 seeded "
        f"streams bitwise",
    )


@pytest.mark.parametrize("reinit_mode", [
    "none",
    pytest.param("merged_tokens", marks=pytest.mark.xfail(
        strict=True, reason="the default re-seeding config wins 13/20 here, where 'none' "
                            "wins 20/20; ROADMAP item 1 retires re-seeding")),
])
def test_c9_planted_relevance_survives_compaction(reinit_mode):
    # c6's recipe tiled over 3,200 frames, a 16-frame rho=0.8 segment every
    # 400 from frame 64, into a 16-entry store that compacts many times over
    spec = ExperimentSpec(
        synthetic=SyntheticSpec(
            frame_count=3200, n_tokens=4, dims=16,
            segments=tuple((s, s + 16, 0.8) for s in range(64, 3200, 400)),
            noise_scale=0.05),
        cfg=ConsolidationConfig(),
        ltm_capacity=16,
        reinit_mode=reinit_mode,
        seeds=tuple(range(20)),
    )
    t0 = time.perf_counter()
    summary = plant_eval(spec)["summary"]
    elapsed = time.perf_counter() - t0
    report(
        summary["wins"] >= 18 and summary["mean_diff"] > 0 and summary["gate"]["passed"],
        f"9. under reinit_mode={reinit_mode}, question-aware beats question-agnostic "
        f"on planted mass over 3,200 frames into a 16-entry store in "
        f"{summary['wins']}/20 paired seeds (need 18), mean diff "
        f"{summary['mean_diff']:+.4f} ({elapsed:.1f}s)",
    )


def test_c10_planted_relevance_at_breakpoints():
    # c9's stream, answered in breakpoint mode: the store, the buffer and the
    # live frame at 0, 8, 15, 100 and 300 frames after each segment ends
    segments = tuple((s, s + 16, 0.8) for s in range(64, 3200, 400))
    queries = {stop + offset for _, stop, _ in segments for offset in (0, 8, 15, 100, 300)}
    aware_cfg = ConsolidationConfig()
    agnostic_cfg = replace(aware_cfg, alpha=1.0)
    t0 = time.perf_counter()
    diffs = []
    for seed in range(20):
        frames, question = generate_synthetic(SyntheticSpec(
            frame_count=3200, n_tokens=4, dims=16, segments=segments,
            noise_scale=0.05, seed=seed))
        aware, agnostic = (Pipeline(4, 16, cfg, question=question, ltm_capacity=16,
                                    reinit_mode="none")
                           for cfg in (aware_cfg, agnostic_cfg))
        seed_diffs = []
        for t, frame in enumerate(frames):
            aware.step(frame)
            agnostic.step(frame)
            if t in queries:
                aware_mass, agnostic_mass = (
                    compute_relevance_metrics(
                        pipe.assemble_breakpoint(t).frames, segments).relevant_mass_fraction
                    for pipe in (aware, agnostic))
                seed_diffs.append(aware_mass - agnostic_mass)
        diffs.append(float(np.mean(seed_diffs)))
    elapsed = time.perf_counter() - t0
    wins = sum(diff > 0 for diff in diffs)
    report(
        wins == 20,
        f"10. at breakpoints after each planted segment, question-aware beats "
        f"question-agnostic on planted mass in {wins}/20 paired seeds (need 20), "
        f"mean diff {np.mean(diffs):+.4f} ({elapsed:.1f}s)",
    )
