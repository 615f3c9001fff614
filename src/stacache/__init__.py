"""Spatio-temporal KV-cache compression for streaming causal attention.

The package splits a bounded attention budget between a temporal working
cache (reference frame, sliding window, score-selected anchors) and a
long-term spatial cache (a voxel grid of merged token representatives),
and replays recorded q/k/v traces to measure what the compression does to
memory growth and attention outputs.
"""

from .attention import AttentionResult, Workspace, attend
from .errors import (
    ConfigError,
    DegenerateVectorError,
    DimensionError,
    EmptySupportError,
    InvariantViolation,
    StacacheError,
    TraceFormatError,
    VoxelRangeError,
)
from .kernel import HALF_MAX, half_roundtrip
from .pipeline import (
    BudgetSplit,
    Policy,
    ReplayStats,
    StreamReplayer,
    allocate_budget,
    compare,
    run_stream,
)
from .spatial import VoxelCoord, VoxelStore, morton_decode, morton_encode
from .temporal import TemporalCache
from .tokens import CacheConfig, TokenBlock, TokenId, validate_config
from .traceio import TraceHeader, TraceRecord, read_trace, synth_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "AttentionResult",
    "BudgetSplit",
    "CacheConfig",
    "ConfigError",
    "DegenerateVectorError",
    "DimensionError",
    "EmptySupportError",
    "HALF_MAX",
    "InvariantViolation",
    "Policy",
    "ReplayStats",
    "StacacheError",
    "StreamReplayer",
    "TemporalCache",
    "TokenBlock",
    "TokenId",
    "TraceFormatError",
    "TraceHeader",
    "TraceRecord",
    "VoxelCoord",
    "VoxelRangeError",
    "VoxelStore",
    "Workspace",
    "allocate_budget",
    "attend",
    "compare",
    "half_roundtrip",
    "morton_decode",
    "morton_encode",
    "read_trace",
    "run_stream",
    "synth_trace",
    "validate_config",
    "write_trace",
]
