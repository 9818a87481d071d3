"""SLO accounting: latency percentiles, goodput, rejections, deadlines.

:class:`ServeStats` is the single bookkeeper the serving layer feeds:
the front-end reports arrivals/admissions/rejections, blades report
dispatches, starts, completions and failovers.  It maintains live
counters and histograms on the run's :class:`~repro.obs.metrics
.MetricsRegistry` (so monitors and ``repro stats --fail-on`` see them)
and, at end of run, publishes summary gauges —
``serve.latency_p99_s``, ``serve.rejection_rate``,
``serve.deadline_miss_rate``, ``serve.goodput_jps`` and per-tenant
labeled variants.

Percentiles here are *exact* (nearest-rank over the recorded
latencies), not the bucketed interpolation the histogram offers — SLO
reports and the bench gate want numbers that do not move when a bucket
boundary does.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import MetricsRegistry, NULL_REGISTRY, labeled
from .jobs import Job

__all__ = ["exact_percentile", "sorted_percentiles", "ServeStats"]

# Latency buckets (simulated seconds): service times are tens of
# seconds, sojourns under load reach into the thousands.
LATENCY_BUCKETS: Tuple[float, ...] = tuple(
    m * 10.0 ** e for e in range(0, 5) for m in (1, 2, 5)
)
DEPTH_BUCKETS: Tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)


def exact_percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` in [0, 100]; 0.0 for no samples."""
    if not (0.0 <= p <= 100.0):
        raise ValueError("percentile must be within [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered))))
    return ordered[rank - 1]


def sorted_percentiles(ordered: Sequence[float]) -> Tuple[float, ...]:
    """(p50, p95, p99) read from one already sorted list.

    Each value equals ``exact_percentile(ordered, p)``; the summary
    sorts a latency group once and reads all three percentiles here.
    """
    n = len(ordered)
    if not n:
        return (0.0, 0.0, 0.0)
    return tuple(
        ordered[min(n, max(1, math.ceil(p / 100.0 * n))) - 1]
        for p in (50, 95, 99)
    )


class ServeStats:
    """Accumulates the serving run's SLO ledger.

    All times are simulated seconds.  The instance is also the bridge
    into the metrics registry: counters are incremented as events
    happen, summary gauges are written once by :meth:`publish`.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        # The per-job hooks skip their instrument calls on the null
        # registry, whose instruments record nothing.
        self._metrics_on = self.metrics is not NULL_REGISTRY
        self.arrivals = 0
        self.admitted = 0
        self.rejected = 0
        self.completed_jobs: List[Job] = []
        self.rejections: List[Tuple[float, str, str]] = []  # (t, tenant, why)
        self.failovers = 0
        self.batches = 0
        self.batched_jobs = 0
        self._latency_hist = self.metrics.histogram(
            "serve.latency_s", buckets=LATENCY_BUCKETS,
            help="submit-to-finish job sojourn time",
        )
        self._depth_hist = self.metrics.histogram(
            "serve.queue_depth", buckets=DEPTH_BUCKETS,
            help="jobs waiting (front-end + blade queues) at each dispatch",
        )
        # Bind every counter once: the event feed below then costs one
        # ``inc`` per event, with no registry lookup.  Registering them up
        # front also lets ``repro stats --fail-on`` and the monitor
        # resolve the headline counters on runs where they stay 0.
        c = self.metrics.counter
        self._m_arrivals = c("serve.arrivals", "jobs offered by all tenants")
        self._m_admitted = c("serve.admitted",
                             "jobs accepted past admission control")
        self._m_rejected = c("serve.rejected",
                             "jobs shed by admission control")
        self._m_completed = c("serve.completed",
                              "jobs finished with a verified digest")
        self._m_deadline_misses = c(
            "serve.deadline_misses",
            "completed jobs that finished past their deadline")
        self._m_failovers = c("serve.failovers",
                              "job executions re-queued off dead blades")
        # Fleet-resilience counters (all zero unless the resilience
        # layer or the richer fault kinds are in play).
        self._m_dispatched = c("serve.dispatched_units",
                               "dispatch units placed on blades")
        self._m_deadline_aborts = c(
            "serve.deadline_aborts",
            "jobs shed because their deadline became unreachable")
        self._m_cancelled = c(
            "serve.cancelled",
            "admitted jobs cancelled before running (workflow bootstop)")
        self._m_hedges = c("serve.hedges",
                           "speculative duplicate dispatches issued")
        self._m_hedge_wins = c("serve.hedge_wins",
                               "hedge clones that finished first")
        self._m_breaker_opens = c(
            "serve.breaker_opens", "circuit breaker closed/half-open -> open")
        self._m_breaker_closes = c(
            "serve.breaker_closes", "circuit breaker half-open -> closed")
        self._m_breaker_probes = c(
            "serve.breaker_probes", "probe units sent to half-open blades")
        self._m_blade_crashes = c("serve.blade_crashes",
                                  "flap crashes delivered to blades")
        self._m_blade_rejoins = c("serve.blade_rejoins",
                                  "flapped blades re-admitted")
        # ``serve.rejected{reason,tenant}`` handles, made on first use.
        self._m_rejected_by: Dict[Tuple[str, str], Any] = {}
        self.deadline_aborts = 0
        self.cancelled = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.breaker_opens = 0
        self.breaker_closes = 0
        self.blade_crashes = 0
        self.blade_rejoins = 0

    # -- event feed --------------------------------------------------------
    def note_arrival(self, tenant: str) -> None:
        self.arrivals += 1
        if self._metrics_on:
            self._m_arrivals.inc()

    def note_admitted(self, job: Job) -> None:
        self.admitted += 1
        if self._metrics_on:
            self._m_admitted.inc()

    def note_rejected(self, now: float, tenant: str, reason: str) -> None:
        self.rejected += 1
        self.rejections.append((now, tenant, reason))
        self._m_rejected.inc()
        key = (reason, tenant)
        counter = self._m_rejected_by.get(key)
        if counter is None:
            counter = self._m_rejected_by[key] = self.metrics.counter(
                labeled("serve.rejected", reason=reason, tenant=tenant))
        counter.inc()

    def note_dispatch(self, queued: int) -> None:
        if self._metrics_on:
            self._depth_hist.observe(queued)
            self._m_dispatched.inc()

    def note_batch(self, size: int) -> None:
        if size > 1:
            self.batches += 1
            self.batched_jobs += size

    def note_failover(self, job: Job) -> None:
        self.failovers += 1
        self._m_failovers.inc()

    def note_deadline_abort(self, job: Job) -> None:
        self.deadline_aborts += 1
        self._m_deadline_aborts.inc()

    def note_cancelled(self, job: Job) -> None:
        self.cancelled += 1
        self._m_cancelled.inc()

    def note_hedge(self) -> None:
        self.hedges += 1
        self._m_hedges.inc()

    def note_hedge_win(self) -> None:
        self.hedge_wins += 1
        self._m_hedge_wins.inc()

    def note_probe(self) -> None:
        self._m_breaker_probes.inc()

    def note_breaker(self, from_state: str, to_state: str) -> None:
        if to_state == "open":
            self.breaker_opens += 1
            self._m_breaker_opens.inc()
        elif to_state == "closed":
            self.breaker_closes += 1
            self._m_breaker_closes.inc()

    def note_crash(self, blade: int) -> None:
        self.blade_crashes += 1
        self._m_blade_crashes.inc()

    def note_rejoin(self, blade: int) -> None:
        self.blade_rejoins += 1
        self._m_blade_rejoins.inc()

    def note_completed(self, job: Job) -> None:
        self.completed_jobs.append(job)
        if self._metrics_on:
            self._m_completed.inc()
            self._latency_hist.observe(job.latency)
            if job.missed_deadline:
                self._m_deadline_misses.inc()

    # -- aggregation -------------------------------------------------------
    def _groups(self) -> Dict[str, List[Any]]:
        """Per tenant ``[latencies, deadline misses, rejections]``.

        One pass over the completed jobs and one over the rejections;
        the latencies are inlined ``Job.latency`` values and the misses
        ``Job.missed_deadline`` (completed jobs always have a finish
        time).  Each latency list comes back sorted.
        """
        groups: Dict[str, List[Any]] = {}
        for j in self.completed_jobs:
            g = groups.get(j.tenant)
            if g is None:
                g = groups[j.tenant] = [[], 0, 0]
            finish = j.finish_time
            g[0].append(finish - j.submit_time)
            deadline = j.deadline
            if deadline is not None and finish > deadline:
                g[1] += 1
        for _, tenant, _ in self.rejections:
            g = groups.get(tenant)
            if g is None:
                g = groups[tenant] = [[], 0, 0]
            g[2] += 1
        for g in groups.values():
            g[0].sort()
        return groups

    @staticmethod
    def _tenant_block(group: List[Any], duration: float) -> Dict[str, Any]:
        lat, missed, rejected = group
        completed = len(lat)
        offered = completed + rejected
        p50, p95, p99 = sorted_percentiles(lat)
        return {
            "completed": completed,
            "rejected": rejected,
            "deadline_misses": missed,
            "latency_p50_s": p50,
            "latency_p95_s": p95,
            "latency_p99_s": p99,
            "rejection_rate": rejected / offered if offered else 0.0,
            "deadline_miss_rate": missed / completed if completed else 0.0,
            "goodput_jps": (
                (completed - missed) / duration if duration > 0 else 0.0
            ),
        }

    def summary(self, duration: float) -> Dict[str, Any]:
        """The run's SLO ledger as one deterministic dict."""
        groups = self._groups()
        lat = sorted(x for g in groups.values() for x in g[0])
        missed = sum(g[1] for g in groups.values())
        good = len(lat) - missed
        p50, p95, p99 = sorted_percentiles(lat)
        out: Dict[str, Any] = {
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": len(lat),
            "deadline_misses": missed,
            "deadline_aborts": self.deadline_aborts,
            "cancelled": self.cancelled,
            "failovers": self.failovers,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "breaker_opens": self.breaker_opens,
            "breaker_closes": self.breaker_closes,
            "blade_crashes": self.blade_crashes,
            "blade_rejoins": self.blade_rejoins,
            "batches": self.batches,
            "batched_jobs": self.batched_jobs,
            "latency_p50_s": p50,
            "latency_p95_s": p95,
            "latency_p99_s": p99,
            "rejection_rate": (
                self.rejected / self.arrivals if self.arrivals else 0.0
            ),
            "deadline_miss_rate": missed / len(lat) if lat else 0.0,
            "goodput_jps": good / duration if duration > 0 else 0.0,
            "tenants": {
                t: self._tenant_block(groups[t], duration)
                for t in sorted(groups)
            },
        }
        return out

    def publish(self, duration: float) -> Dict[str, Any]:
        """Write end-of-run summary gauges; returns the summary dict."""
        s = self.summary(duration)
        gauges = (
            "latency_p50_s", "latency_p95_s", "latency_p99_s",
            "rejection_rate", "deadline_miss_rate", "goodput_jps",
        )
        for key in gauges:
            self.metrics.gauge(f"serve.{key}").set(s[key])
        for tenant, ts in s["tenants"].items():
            for key in gauges:
                self.metrics.gauge(
                    labeled(f"serve.{key}", tenant=tenant)
                ).set(ts[key])
        return s
