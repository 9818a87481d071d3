"""Front-end admission control: token buckets, bounded queue, batching.

Every submitted job passes through two gates before it may wait for a
blade:

1. a **per-tenant token bucket** (``rate_limit`` tokens/second refill,
   ``burst`` depth, lazily refilled from simulated time) that sheds
   tenants exceeding their contracted rate, and
2. a **bounded system queue**: when the number of admitted-but-unfinished
   jobs reaches ``queue_capacity`` the front-end sheds load instead of
   letting latency grow without bound.

Both sheds are *explicit*: each is recorded with a reason
(``rate-limit`` / ``queue-full``) in the :class:`~repro.serve.slo
.ServeStats` ledger, never silently dropped.

Admitted jobs wait in a priority heap ordered by
:meth:`~repro.serve.jobs.Job.order_key` (priority desc, deadline asc,
FIFO).  When the dispatcher pulls, the front-end may *batch* up to
``batch_max`` queued jobs sharing one ``(template, variant)`` bag into a
single :class:`DispatchUnit`, amortizing per-dispatch overhead for small
jobs.  Batch composition happens here — upstream of dispatch policy and
faults — so a job's digest never depends on which blade ran it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..sim.engine import Environment
from ..sim.trace import tracer_of
from .jobs import Job, TenantSpec
from .slo import ServeStats

__all__ = ["TokenBucket", "DispatchUnit", "FrontEnd"]

_INF = float("inf")


class TokenBucket:
    """Lazily refilled token bucket; one token per job."""

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = 0.0

    def try_take(self, now: float) -> bool:
        if self.rate == _INF:
            return True
        self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class DispatchUnit:
    """What actually travels to a blade: one job or a same-bag batch.

    ``seq`` is the dispatch sequence number (round-robin key); members
    share a single ``(template, variant)`` bag so the blade executes
    them back-to-back under one dispatch overhead charge.

    The hedging fields are only populated by the resilience layer: a
    hedged unit and its ``twin`` share the *same* Job objects, so first
    completion wins per job; when one copy drains its jobs the loser's
    ``cancelled`` flag is raised and the blade loop drops it at the next
    segment boundary (a queued loser is removed outright).  ``probe``
    marks the single unit a half-open circuit breaker admits.

    ``job_ids`` is the member id tuple the trace rows carry, built once
    per composition: rewrite ``jobs`` only through :meth:`set_jobs`,
    which drops the cached tuple.
    """

    seq: int
    jobs: List[Job]
    blade: Optional[int] = None
    attempts: int = 0
    hedge_of: Optional[int] = None        # seq of the primary, for clones
    twin: Optional["DispatchUnit"] = None  # the other copy, while both live
    cancelled: bool = False                # hedge loser, drop don't run
    probe: bool = False                    # breaker half-open probe unit
    _job_ids: Optional[Tuple[int, ...]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def job_ids(self) -> Tuple[int, ...]:
        ids = self._job_ids
        if ids is None:
            ids = self._job_ids = tuple(j.job_id for j in self.jobs)
        return ids

    def set_jobs(self, jobs: List[Job]) -> None:
        """Replace the members in place (failover keeps the live ones)."""
        self.jobs[:] = jobs
        self._job_ids = None

    @property
    def template(self):
        return self.jobs[0].template

    @property
    def variant(self) -> int:
        return self.jobs[0].variant

    @property
    def service_time(self) -> float:
        return sum(j.service_time for j in self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)


class FrontEnd:
    """Admission control + the central priority queue the dispatcher drains."""

    def __init__(
        self,
        env: Environment,
        stats: ServeStats,
        make_job: Callable[..., Job],
        queue_capacity: int = 64,
        batch_max: int = 1,
    ) -> None:
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        self.env = env
        self.stats = stats
        self.make_job = make_job
        self.queue_capacity = queue_capacity
        self.batch_max = batch_max
        self.tracer = tracer_of(env.sinks)
        self.in_system = 0       # admitted, not yet finished
        self._heap: List[Tuple[Tuple[float, float, int], Job]] = []
        self._seq = 0            # FIFO tie-breaker
        self._unit_seq = 0       # dispatch units formed so far
        self._buckets = {}
        self.wake = env.event()  # re-armed by the dispatcher loop
        # Free list of finished DispatchUnits: at serving scale (10^4+
        # jobs) unit records dominate dispatch-path allocation, so the
        # blade loop returns clean units here and pop_unit reuses them
        # (object *and* jobs list) instead of allocating.
        self._unit_pool: List[DispatchUnit] = []

    # -- intake ------------------------------------------------------------
    def submit(
        self, tenant: TenantSpec, variant: int, source: str = "",
        template=None, awaited: bool = False,
    ) -> Optional[Job]:
        """Admit or shed one request; returns the Job when admitted.

        ``template`` overrides the tenant's default job template — the
        workflow engine uses this to submit different pipeline stages
        under one workflow tenant.  ``awaited`` says the caller will
        wait on the job's ``done`` event; only then does the job get one.
        """
        now = self.env.now
        self.stats.note_arrival(tenant.name)
        bucket = self._buckets.get(tenant.name)
        if bucket is None:
            bucket = self._buckets[tenant.name] = TokenBucket(
                tenant.rate_limit, tenant.burst
            )
        if not bucket.try_take(now):
            self._reject(now, tenant, "rate-limit")
            return None
        if self.in_system >= self.queue_capacity:
            self._reject(now, tenant, "queue-full")
            return None
        job = self.make_job(tenant, variant, source, template, awaited)
        self.in_system += 1
        self._seq += 1
        heapq.heappush(self._heap, (job.order_key(self._seq), job))
        self.stats.note_admitted(job)
        if self.tracer is not None:
            self.tracer.emit(now, "serve", "frontend", "admit",
                             job=job.job_id, tenant=tenant.name,
                             variant=variant,
                             template=job.template.name)
        if not self.wake.triggered:
            self.wake.succeed()
        return job

    def _reject(self, now: float, tenant: TenantSpec, reason: str) -> None:
        self.stats.note_rejected(now, tenant.name, reason)
        if self.tracer is not None:
            self.tracer.emit(now, "serve", "frontend", "reject",
                             tenant=tenant.name, reason=reason)

    def job_finished(self) -> None:
        """Release one unit of system capacity."""
        self.in_system -= 1

    def new_unit_seq(self) -> int:
        """Claim the next dispatch-unit sequence number (hedge clones)."""
        self._unit_seq += 1
        return self._unit_seq - 1

    # -- outflow -----------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self._heap)

    def recycle_unit(self, unit: DispatchUnit) -> None:
        """Return a finished unit to the free list for :meth:`pop_unit`.

        Callers must guarantee nothing else references the unit (no live
        twin, no hedge watch, not queued anywhere).
        """
        if len(self._unit_pool) >= 64:
            return
        unit.set_jobs([])
        unit.blade = None
        unit.attempts = 0
        unit.hedge_of = None
        unit.twin = None
        unit.cancelled = False
        unit.probe = False
        self._unit_pool.append(unit)

    def pop_unit(self) -> Optional[DispatchUnit]:
        """Form the next dispatch unit, batching same-bag jobs if allowed.

        Workflow-cancelled jobs are deleted lazily here: they stay in
        the heap (a heap cannot remove an arbitrary member cheaply) but
        are skipped at pop time, so a drained fan-out never dispatches.
        Returns None when every queued job turned out to be cancelled.
        """
        head = None
        while self._heap:
            _, candidate = heapq.heappop(self._heap)
            if not candidate.cancelled:
                head = candidate
                break
        if head is None:
            return None
        if self._unit_pool:
            unit = self._unit_pool.pop()
        else:
            unit = DispatchUnit(seq=0, jobs=[])
        jobs = unit.jobs
        jobs.append(head)
        if self.batch_max > 1:
            keep = []
            for entry in sorted(self._heap):
                job = entry[1]
                if job.cancelled:
                    continue
                if (len(jobs) < self.batch_max
                        and job.template is head.template
                        and job.variant == head.variant):
                    jobs.append(job)
                else:
                    keep.append(entry)
            if len(jobs) > 1:
                self._heap = keep
                heapq.heapify(self._heap)
        self._unit_seq += 1
        self.stats.note_batch(len(jobs))
        unit.seq = self._unit_seq - 1
        if self.tracer is not None:
            # Unit formation: the causal layer uses this to time the
            # admission-queue phase and the windowed sampler uses the
            # residual depth for its frontend queue series.
            self.tracer.emit(self.env.now, "serve", "frontend", "unit",
                             unit=unit.seq, jobs=unit.job_ids,
                             queued=len(self._heap))
        return unit
