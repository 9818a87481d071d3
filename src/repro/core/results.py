"""Result records for scheduler experiments.

Besides the timing record (:class:`ScheduleResult`), this module holds
the :class:`ResultLedger` — a per-run chained digest over the
*application results* each bootstrap produces.  Fault tolerance promises
that a run perturbed by injected faults computes exactly what the
fault-free run computes (tasks may execute on an SPE, after retries, or
on the PPE — the numbers are the same either way); the ledger turns that
promise into a comparable SHA-256 digest.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["ResultLedger", "ScheduleResult"]


class ResultLedger:
    """Chained per-bootstrap digest of executed application work.

    Each bootstrap (keyed by its identity — the trace index — plus the
    owning process rank while open) accumulates a running SHA-256 over
    the content of every task it completes, in the order the owning
    process completes them — which is deterministic per bootstrap
    because one process drives one bootstrap sequentially.  The run
    digest hashes the *sorted* per-bootstrap digests keyed by bootstrap
    identity only: which rank, blade, or arrival order executed a
    bootstrap cannot affect it, while any lost, duplicated, or
    corrupted task does.  This rank-independence is what lets a serving
    fleet compare digests across dispatch policies (a job executed on
    any blade, in any order, under any process count yields the same
    digest).
    """

    def __init__(self) -> None:
        self._open: Dict[Tuple[int, int], "hashlib._Hash"] = {}
        self._done: Dict[Tuple[int, int], str] = {}

    def start(self, rank: int, bootstrap: int) -> None:
        key = (rank, bootstrap)
        if key in self._open or key in self._done:
            raise RuntimeError(f"bootstrap {key} started twice")
        h = hashlib.sha256()
        h.update(f"bootstrap:{bootstrap}".encode())
        self._open[key] = h

    def record(self, rank: int, bootstrap: int, payload: bytes) -> None:
        """Fold one completed task's content into its bootstrap chain."""
        key = (rank, bootstrap)
        h = self._open.get(key)
        if h is None:
            raise RuntimeError(
                f"task recorded for bootstrap {key} which is not open"
            )
        h.update(payload)

    def finish(self, rank: int, bootstrap: int) -> str:
        key = (rank, bootstrap)
        h = self._open.pop(key, None)
        if h is None:
            raise RuntimeError(f"bootstrap {key} finished but never started")
        digest = h.hexdigest()
        self._done[key] = digest
        return digest

    @property
    def completed(self) -> int:
        return len(self._done)

    def bootstrap_digests(self) -> Tuple[Tuple[int, str], ...]:
        """``(bootstrap, digest)`` pairs sorted by bootstrap identity.

        The executing rank is deliberately absent: the per-bootstrap
        digest is a pure function of the bootstrap's trace, so the same
        bootstrap bag produces the same pairs under any scheduler,
        process count, blade, or arrival order.
        """
        return tuple(sorted(
            (key[1], digest) for key, digest in self._done.items()
        ))

    def run_digest(self) -> str:
        """Order- and rank-insensitive digest over completed bootstraps."""
        h = hashlib.sha256()
        for bootstrap, digest in self.bootstrap_digests():
            h.update(f"{bootstrap}:{digest}".encode())
        return h.hexdigest()


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one scheduler/workload run.

    ``makespan`` is in *paper-scale* seconds (raw simulated makespan times
    the trace compression ratio); ``raw_makespan`` is the simulated time
    actually elapsed.
    """

    scheduler: str
    bootstraps: int
    n_processes: int
    makespan: float
    raw_makespan: float
    scale: float
    spe_utilization: float
    ppe_occupancy: float
    offloads: int
    ppe_fallbacks: int
    offload_waits: int
    llp_invocations: int
    llp_mode_switches: int
    code_loads: int
    ppe_context_switches: int
    per_spe_busy: Tuple[float, ...]
    extras: Dict[str, float] = field(default_factory=dict)
    # Fault-tolerance fields (defaults keep older call sites working):
    # ``result_digest`` is the ResultLedger run digest — equal across
    # fault-free and faulty runs of the same workload by the headline
    # invariant; ``bootstraps_completed`` counts ledger-verified
    # bootstraps.
    result_digest: str = ""
    bootstraps_completed: int = 0
    # Per-bootstrap ``(identity, digest)`` pairs from the ledger, sorted
    # by identity.  The serving layer uses these to attribute digests to
    # individual jobs independently of which blade/rank executed them.
    bootstrap_digests: Tuple[Tuple[int, str], ...] = ()
    # Kernel events processed by the run's Environment — deterministic
    # for a given (scheduler, workload, seed), so throughput benchmarks
    # can compute events/wall-second without a metrics registry.
    events_processed: int = 0

    def speedup_over(self, other: "ScheduleResult") -> float:
        """How much faster this run is than ``other``."""
        if self.makespan <= 0:
            return float("inf")
        return other.makespan / self.makespan
