"""Hybrid binary-symmetric/packet-erasure channel toolkit.

Simulates 802.11-style frame traces under a three-state channel model
(erased / corrupted / error-free) and runs the statistical pipeline that
validates the model on simulated or imported traces: runs tests,
interleaving emulation, segmentation, flip-rate symmetry, parameter
estimation, and capacity.
"""

from .capacity import (
    CapacityReport,
    ParamEstimate,
    binary_entropy,
    capacity_report,
    erasure_capacity,
    estimate_params,
    hybrid_capacity,
)
from .interleaver import deinterleave, interleave, whiten_error_vector
from .recovery import recover_trace
from .runstest import RunsTests, runs_test, runs_tests
from .segments import Segments, mean_segment_duration, segment_corrupted_frames
from .sim import SimConfig, apply_channel, apply_periodic_noise, generate_tx
from .stats import (
    ErrorTable,
    OutcomeIidReport,
    SymmetryReport,
    bit_position_profile,
    error_table,
    outcome_iid_tests,
    per_frame_runs_tests,
    symmetry_report,
)
from .trace import (
    ChannelParams,
    ReceiveStatus,
    Side,
    Trace,
    TraceError,
    TraceFormatError,
    TraceMeta,
    UsageError,
)
from .traceio import load_pair, read_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "CapacityReport",
    "ChannelParams",
    "ErrorTable",
    "OutcomeIidReport",
    "ParamEstimate",
    "ReceiveStatus",
    "RunsTests",
    "Segments",
    "Side",
    "SimConfig",
    "SymmetryReport",
    "Trace",
    "TraceError",
    "TraceFormatError",
    "TraceMeta",
    "UsageError",
    "apply_channel",
    "apply_periodic_noise",
    "binary_entropy",
    "bit_position_profile",
    "capacity_report",
    "deinterleave",
    "erasure_capacity",
    "error_table",
    "estimate_params",
    "generate_tx",
    "hybrid_capacity",
    "interleave",
    "load_pair",
    "mean_segment_duration",
    "outcome_iid_tests",
    "per_frame_runs_tests",
    "read_trace",
    "recover_trace",
    "runs_test",
    "runs_tests",
    "segment_corrupted_frames",
    "symmetry_report",
    "whiten_error_vector",
    "write_trace",
]
