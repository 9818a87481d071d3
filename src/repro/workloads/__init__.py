"""Workload models: the RAxML profile, trace generation, synthetic streams."""

from .profiles import FunctionProfile, RAXML_42SC, RaxmlProfile
from .synthetic import (
    bursty_trace,
    fine_grained_trace,
    interleaved_locality_trace,
    mixed_granularity_trace,
    uniform_trace,
)
from .coupled import BSPWorkload
from .taskspec import BootstrapTrace, LoopSpec, OffloadItem, TaskSpec
from .traces import FixedTraceWorkload, TraceBuilder, Workload

__all__ = [
    "RaxmlProfile",
    "FunctionProfile",
    "RAXML_42SC",
    "TaskSpec",
    "LoopSpec",
    "OffloadItem",
    "BootstrapTrace",
    "TraceBuilder",
    "Workload",
    "FixedTraceWorkload",
    "BSPWorkload",
    "uniform_trace",
    "fine_grained_trace",
    "mixed_granularity_trace",
    "bursty_trace",
    "interleaved_locality_trace",
]
