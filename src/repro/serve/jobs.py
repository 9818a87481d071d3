"""Jobs, job templates and tenants — the units the serving layer moves.

A *job* is one phylogenetic analysis request: a bootstrap bag compiled
through :mod:`repro.workloads.traces` and executed on one blade of the
fleet by the existing :func:`~repro.core.runner.run_experiment` runtime.
Jobs belonging to the same tenant draw from a small set of *templates*
(bag shapes) and *variants* (distinct trace seeds per shape), so the
fleet executes a realistic mix while the per-(template, variant) blade
runs stay cacheable — the simulation compiles each distinct bag exactly
once no matter how many requests reference it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..validation import require_finite

__all__ = ["JobTemplate", "TenantSpec", "Job", "job_seed"]


def job_seed(root_seed: int, template: str, variant: int) -> int:
    """Stable trace seed for one (template, variant) bag.

    SHA-256 based, mirroring :class:`~repro.sim.rng.RngStreams`: the
    mapping survives process boundaries and Python versions.
    """
    digest = hashlib.sha256(
        f"{root_seed}:job:{template}:{variant}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:6], "little")


@dataclass(frozen=True)
class JobTemplate:
    """One bag shape: how much work a job of this class carries."""

    name: str
    bootstraps: int = 2
    tasks_per_bootstrap: int = 60
    variants: int = 2  # distinct trace bags compiled for this shape

    def __post_init__(self) -> None:
        if self.bootstraps < 1:
            raise ValueError("a job template needs at least one bootstrap")
        if self.tasks_per_bootstrap < 4:
            raise ValueError("tasks_per_bootstrap must be >= 4")
        if self.variants < 1:
            raise ValueError("a job template needs at least one variant")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: who submits jobs, how fast, and with what SLO.

    ``arrival`` selects the workload generator:

    * ``"poisson"`` — open-loop Poisson arrivals at ``arrival_rate``
      jobs per simulated second;
    * ``"closed"`` — ``clients`` closed-loop clients, each submitting
      one job, waiting for its completion, thinking for an exponential
      ``think_time_s``, and repeating;
    * ``"bursty"`` — bursts of ``burst_size`` back-to-back submissions
      separated by exponential gaps of mean ``burst_interval_s``.

    ``rate_limit``/``burst`` parameterize the front-end token bucket;
    ``deadline_s`` is a relative completion deadline (None = no SLO
    deadline, jobs only count toward goodput when one exists).
    """

    name: str
    template: JobTemplate
    arrival: str = "poisson"
    arrival_rate: float = 0.05       # poisson: jobs / simulated second
    clients: int = 2                 # closed loop
    think_time_s: float = 30.0       # closed loop
    burst_size: int = 4              # bursty
    burst_interval_s: float = 120.0  # bursty
    priority: int = 0                # larger = served first
    deadline_s: Optional[float] = None
    rate_limit: float = float("inf")  # token bucket refill, jobs / second
    burst: int = 8                    # token bucket depth

    def __post_init__(self) -> None:
        if self.arrival not in ("poisson", "closed", "bursty"):
            raise ValueError(
                f"unknown arrival model {self.arrival!r}; "
                f"known models: bursty, closed, poisson"
            )
        # A zero think time or arrival gap would let a shed client
        # resubmit without simulated time ever advancing.
        for field_name in ("arrival_rate", "think_time_s", "burst_interval_s"):
            require_finite(field_name, getattr(self, field_name),
                           positive=True)
        if self.clients < 1:
            raise ValueError("closed-loop tenants need at least one client")
        if self.burst_size < 1:
            raise ValueError("bursts need burst_size >= 1")
        if not self.rate_limit > 0:
            raise ValueError("rate_limit must be positive")
        if self.burst < 1:
            raise ValueError("token bucket depth must be >= 1")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline_s must be positive when set")


@dataclass
class Job:
    """One submitted request, tracked through its whole lifecycle."""

    job_id: int
    tenant: str
    template: JobTemplate
    variant: int
    priority: int
    submit_time: float
    # Stable identity: "{tenant}:{client}:{k}" for the k-th submission
    # of one generator loop.  Unlike job_id (global admission order,
    # which shifts when timing does), the source key and its variant are
    # fixed by the RNG streams alone — so digests compared across runs,
    # dispatch policies or fault scenarios are keyed by source.
    source: str = ""
    deadline: Optional[float] = None   # absolute simulated time
    # filled in as the job moves through the system:
    service_time: float = 0.0
    dispatch_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    blade: Optional[int] = None
    failovers: int = 0
    aborted: bool = False    # shed by deadline enforcement, never completed
    cancelled: bool = False  # workflow bootstop: admitted, never needed
    digest: str = ""
    # The bag's CompiledJob, looked up once at admission; completion
    # copies its digest from here instead of compiling again.
    compiled: object = field(default=None, repr=False, compare=False)
    # sim Event, only when the submitter waits on the job (closed-loop
    # clients, workflow stages); None for open-loop and bursty arrivals.
    done: object = field(default=None, repr=False)

    @property
    def latency(self) -> float:
        """Submit-to-finish sojourn time (simulated seconds)."""
        if self.finish_time is None:
            raise RuntimeError(f"job {self.job_id} has not finished")
        return self.finish_time - self.submit_time

    @property
    def missed_deadline(self) -> bool:
        return (
            self.deadline is not None
            and self.finish_time is not None
            and self.finish_time > self.deadline
        )

    def order_key(self, seq: int) -> Tuple[float, float, int]:
        """Heap key: highest priority first, earliest deadline, FIFO."""
        deadline = self.deadline if self.deadline is not None else float("inf")
        return (-float(self.priority), deadline, seq)
