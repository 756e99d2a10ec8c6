"""The package API: ``mces`` republishes each module's ``__all__``."""

from __future__ import annotations

import importlib

import mces

# in the order mces/__init__.py imports them
MODULES = ("errors", "frames", "streamio", "memory", "consolidation", "baselines",
           "pipeline", "snapshot", "harness")

# every name the package exported when it listed them by hand
LISTED = {
    "BadMagic", "ConfigError", "DimensionMismatch", "EmptyInput", "GateFailure",
    "GridTooLarge", "InvalidLambda", "InvalidSpec", "InvalidTarget", "IoFailure",
    "McesError", "MemoryTooLongForTable", "MissingQuestion", "NonFiniteValue",
    "NotFlushed", "PositionOutOfRange", "SeedTooLarge", "ShapeMismatch",
    "StaleTimestamp", "StreamFormatError", "Truncated", "UnsupportedVersion", "ZeroNorm",
    "NORM_FLOOR", "WeightedFrame", "as_token_matrix", "cosine", "frame_descriptor",
    "frame_pair_similarity", "merge_provenance", "provenance_mass", "unit_interval",
    "weighted_merge",
    "FORMAT_VERSION", "HEADER_SIZE", "MAGIC", "StreamHeader", "SyntheticSpec",
    "generate_synthetic", "iter_stream", "iter_synthetic", "read_stream", "write_stream",
    "LongTermMemory", "PositionalTable", "ShortTermBuffer", "assign_positions",
    "enumerate_collisions", "extended_position",
    "ConsolidationConfig", "ConsolidationReport", "greedy_merge", "relevance_score",
    "POLICY_IDS", "DegenerateFrameWarning", "ema", "no_memory", "spatial_pool",
    "temporal_pool", "token_budget", "uniform_sample_indices",
    "REINIT_MODES", "AccountingRecord", "Pipeline", "VideoRepresentation", "consolidate",
    "export_pipeline", "import_pipeline",
    "ExperimentSpec", "RelevanceMetrics", "bench_mem", "build_report",
    "canonical_report_bytes", "check_gate", "compute_relevance_metrics", "plant_eval",
    "run", "write_report",
}


def test_package_all_is_the_modules_all_in_import_order():
    joined = [name for module in MODULES
              for name in importlib.import_module(f"mces.{module}").__all__]
    assert mces.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_every_exported_name_resolves_to_its_module_object():
    for module in MODULES:
        owner = importlib.import_module(f"mces.{module}")
        for name in owner.__all__:
            assert getattr(mces, name) is getattr(owner, name), (module, name)


def test_no_hand_listed_name_is_lost():
    assert len(LISTED) == 78
    assert LISTED <= set(mces.__all__)
    assert set(mces.__all__) - LISTED == {
        "checked", "COUNTERS", "SNAPSHOT_VERSION", "read_json", "PARAMS", "apply_params"}
