"""Streaming vital-sign anomaly monitor.

Scores each arriving measurement vector by its projection error onto a
sparsified kernel dictionary (the KOAD scheme) and routes the verdicts
through validity screening, threshold tuning, and a multi-bed status board.
"""

from .board import BoardState, EventArchive, TileState, render
from .config import ConfigError, Settings, load_settings, parse_settings
from .engine import (
    EngineError,
    KoadEngine,
    MeasurementVector,
    ThresholdConfig,
    Verdict,
    VerdictKind,
)
from .pipeline import BedPipeline, monitor_run, replay_run, standardized_stream
from .sources import (
    ReplaySource,
    SocketSource,
    SourceError,
    SyntheticSource,
    TailSource,
    emit_lines,
)
from .standardize import RunningStandardizer
from .synth import SyntheticSpec, default_spec, generate, read_labels, write_stream
from .tuning import DetectionReport, MatchPolicy, grid_search, pick_best, score_run
from .validity import (
    DataWarning,
    FlagReason,
    ParameterSchema,
    ValidationResult,
    parse_frame,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BedPipeline",
    "BoardState",
    "ConfigError",
    "DataWarning",
    "DetectionReport",
    "EngineError",
    "EventArchive",
    "FlagReason",
    "KoadEngine",
    "MatchPolicy",
    "MeasurementVector",
    "ParameterSchema",
    "ReplaySource",
    "RunningStandardizer",
    "Settings",
    "SocketSource",
    "SourceError",
    "SyntheticSource",
    "SyntheticSpec",
    "TailSource",
    "ThresholdConfig",
    "TileState",
    "ValidationResult",
    "Verdict",
    "VerdictKind",
    "default_spec",
    "emit_lines",
    "generate",
    "grid_search",
    "load_settings",
    "monitor_run",
    "parse_frame",
    "parse_settings",
    "pick_best",
    "read_labels",
    "render",
    "replay_run",
    "score_run",
    "standardized_stream",
    "validate",
    "write_stream",
]
