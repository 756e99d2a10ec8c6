"""mces: memory-bounded consolidation of streaming token-embedding sequences.

Frames stream through a fixed-size short-term buffer; each fill is merged
down under a question-relevance gate and banked in a capped long-term store.
Total resident memory never depends on stream length.
"""

__version__ = "0.1.0"

from .errors import (
    BadMagic,
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    GateFailure,
    GridTooLarge,
    InvalidLambda,
    InvalidSpec,
    InvalidTarget,
    IoFailure,
    McesError,
    MemoryTooLongForTable,
    MissingQuestion,
    NonFiniteValue,
    NotFlushed,
    PositionOutOfRange,
    SeedTooLarge,
    ShapeMismatch,
    StaleTimestamp,
    StreamFormatError,
    Truncated,
    UnsupportedVersion,
    ZeroNorm,
)
from .frames import (
    NORM_FLOOR,
    WeightedFrame,
    as_token_matrix,
    cosine,
    frame_descriptor,
    frame_pair_similarity,
    merge_provenance,
    provenance_mass,
    unit_interval,
    weighted_merge,
)
from .streamio import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    StreamHeader,
    SyntheticSpec,
    generate_synthetic,
    iter_stream,
    iter_synthetic,
    read_stream,
    write_stream,
)
from .memory import (
    LongTermMemory,
    PositionalTable,
    ShortTermBuffer,
    assign_positions,
    enumerate_collisions,
    extended_position,
)
from .consolidation import (
    ConsolidationConfig,
    ConsolidationReport,
    greedy_merge,
    relevance_score,
)
from .baselines import (
    POLICY_IDS,
    DegenerateFrameWarning,
    ema,
    no_memory,
    spatial_pool,
    temporal_pool,
    token_budget,
    uniform_sample_indices,
)
from .pipeline import (
    REINIT_MODES,
    AccountingRecord,
    Pipeline,
    VideoRepresentation,
    consolidate,
)
from .snapshot import export_pipeline, import_pipeline
from .harness import (
    ExperimentSpec,
    RelevanceMetrics,
    bench_mem,
    build_report,
    canonical_report_bytes,
    check_gate,
    compute_relevance_metrics,
    plant_eval,
    run,
    write_report,
)
