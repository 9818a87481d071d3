"""A small deterministic discrete-event simulation kernel.

This package is the substrate under every experiment in the reproduction:
generator-based processes, an event calendar with deterministic
tie-breaking, FIFO stores, barriers, named RNG streams and the trace
recorder.
"""

from .engine import EmptySchedule, Environment
from .events import AllOf, AnyOf, Event, Interrupt, Timeout
from .process import Process
from .resources import Barrier, Store
from .rng import RngStreams
from .trace import TraceRecord, Tracer

__all__ = [
    "Environment",
    "EmptySchedule",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "Store",
    "Barrier",
    "RngStreams",
    "Tracer",
    "TraceRecord",
]
