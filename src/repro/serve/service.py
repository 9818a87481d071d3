"""The serving loop: tenants -> admission -> dispatch -> blade fleet.

:func:`run_service` is the subsystem's entry point — the serving-layer
analogue of :func:`~repro.core.runner.run_experiment`::

    from repro.serve import ServeConfig, default_tenants, run_service

    cfg = ServeConfig(tenants=default_tenants(), duration_s=3600, seed=7)
    result = run_service(cfg)
    print(result.summary["latency_p99_s"])

One discrete-event environment hosts every moving part: tenant arrival
generators feed the :class:`~repro.serve.admission.FrontEnd`, a
dispatcher drains its priority queue through the configured
:class:`~repro.serve.dispatch.DispatchPolicy` onto
:class:`~repro.serve.fleet.BladeState` queues, blade loops execute
dispatch units (service demand and result digest both come from real
:func:`run_experiment` runs, memoized per bag by the
:class:`~repro.serve.fleet.JobCompiler`), the optional
:class:`~repro.serve.autoscaler.Autoscaler` resizes the active blade
set, and node-level :class:`~repro.serve.fleet.FleetFaultPlan` kills
exercise queued-job failover.  Everything stochastic draws from named
:class:`~repro.sim.rng.RngStreams` substreams of one root seed, so a
run is bit-reproducible end to end: two runs of the same config produce
identical event logs, identical percentiles, identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..cell.params import BladeParams
from ..obs.metrics import registry_of, stable_round
from ..sim.engine import Environment
from ..sim.rng import RngStreams
from ..sim.trace import Sinks, tracer_of
from .admission import DispatchUnit, FrontEnd
from .autoscaler import Autoscaler, AutoscalerConfig
from .dispatch import resolve_dispatch
from .fleet import (
    BladeState,
    FleetFaultPlan,
    JobCompiler,
    scheduler_by_name,
)
from .jobs import Job, JobTemplate, TenantSpec
from .generators import tenant_generators
from .resilience import FleetResilience, ResilienceConfig
from .slo import ServeStats

__all__ = ["ServeConfig", "ServeResult", "Service", "run_service",
           "default_tenants"]


def default_tenants(arrival_rate: float = 0.02,
                    n_tenants: int = 3) -> Tuple[TenantSpec, ...]:
    """A standard mixed-tenant population for demos, benches and tests.

    ``arrival_rate`` scales the open-loop tenant; ``n_tenants`` trims
    the mix (1 = open-loop only, 2 = + closed-loop, 3 = + bursty).
    """
    small = JobTemplate("small-bag", bootstraps=2, tasks_per_bootstrap=60,
                        variants=2)
    medium = JobTemplate("medium-bag", bootstraps=3, tasks_per_bootstrap=100,
                         variants=2)
    mix = (
        TenantSpec("genomics", small, arrival="poisson",
                   arrival_rate=arrival_rate, priority=1,
                   deadline_s=900.0),
        TenantSpec("proteomics", medium, arrival="closed", clients=2,
                   think_time_s=180.0),
        TenantSpec("metagenomics", small, arrival="bursty", burst_size=3,
                   burst_interval_s=600.0, rate_limit=0.05, burst=4),
    )
    if not (1 <= n_tenants <= len(mix)):
        raise ValueError(f"n_tenants must be in 1..{len(mix)}")
    return mix[:n_tenants]


@dataclass(frozen=True)
class ServeConfig:
    """Everything one serving run depends on, in one frozen record."""

    tenants: Tuple[TenantSpec, ...]
    duration_s: float = 3600.0        # arrival horizon; the run drains after
    seed: int = 0
    dispatch: str = "static-block"
    scheduler: str = "mgps"           # blade-level scheduler for job bags
    blade: BladeParams = BladeParams(n_cells=2)
    min_blades: int = 2
    max_blades: int = 4
    autoscale: bool = False
    autoscaler: AutoscalerConfig = AutoscalerConfig()
    queue_capacity: int = 64
    batch_max: int = 1
    dispatch_overhead_s: float = 0.5
    faults: Optional[FleetFaultPlan] = None
    resilience: ResilienceConfig = ResilienceConfig()

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a serving run needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError("tenant names must be unique")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not (1 <= self.min_blades <= self.max_blades):
            raise ValueError("need 1 <= min_blades <= max_blades")
        if self.dispatch_overhead_s < 0:
            raise ValueError("dispatch_overhead_s must be >= 0")
        if self.faults is not None:
            for blade in self.faults.blades:
                if blade >= self.max_blades:
                    raise ValueError(
                        f"fault plan touches blade {blade} but the fleet "
                        f"has only {self.max_blades} blades"
                    )


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one serving run — deterministic and JSON-stable."""

    dispatch: str
    scheduler: str
    seed: int
    duration_s: float
    makespan: float                  # simulated time at full drain
    autoscale: bool
    summary: Dict[str, Any]          # the ServeStats ledger
    per_blade: Tuple[Dict[str, Any], ...]
    job_records: Tuple[Dict[str, Any], ...]
    autoscaler_events: Tuple[Tuple[float, str, int], ...]
    compilations: int
    lost_jobs: int
    # Kernel events processed by the run's Environment — deterministic
    # per config, so throughput benchmarks can report events per
    # wall-second for the serving loop too.
    events_processed: int = 0
    # Circuit-breaker transition log: (time, blade, from, to, reason).
    # Empty unless the resilience breaker is enabled.
    breaker_transitions: Tuple[Tuple[float, int, str, str, str], ...] = ()

    def digest_map(self) -> Dict[str, str]:
        """``source -> result digest`` for every completed job.

        Keyed by the job's stable source identity, not its admission
        ordinal: the map is invariant to dispatch policy, blade
        assignment, arrival interleaving and fault timing — two runs of
        the same tenants and seed agree on every key they share.
        """
        return {r["source"]: r["digest"] for r in self.job_records}

    def to_json(self) -> str:
        payload = {
            "dispatch": self.dispatch,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "duration_s": stable_round(self.duration_s),
            "makespan": stable_round(self.makespan),
            "autoscale": self.autoscale,
            "summary": self.summary,
            "per_blade": list(self.per_blade),
            "jobs": list(self.job_records),
            "autoscaler_events": [list(e) for e in self.autoscaler_events],
            "compilations": self.compilations,
            "lost_jobs": self.lost_jobs,
            "events_processed": self.events_processed,
            "breaker_transitions": [
                list(t) for t in self.breaker_transitions
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def summary_text(self) -> str:
        s = self.summary
        lines = [
            f"serving run: dispatch={self.dispatch} scheduler={self.scheduler}"
            f" seed={self.seed}"
            f" autoscale={'on' if self.autoscale else 'off'}",
            f"  horizon {self.duration_s:g} s, drained at "
            f"{self.makespan:.2f} s",
            f"  jobs: {s['arrivals']} offered, {s['admitted']} admitted, "
            f"{s['rejected']} rejected, {s['completed']} completed, "
            f"{s.get('cancelled', 0)} cancelled, {self.lost_jobs} lost",
            f"  latency p50/p95/p99: {s['latency_p50_s']:.2f} / "
            f"{s['latency_p95_s']:.2f} / {s['latency_p99_s']:.2f} s",
            f"  goodput {s['goodput_jps'] * 3600:.1f} jobs/h, "
            f"rejection rate {s['rejection_rate']:.1%}, "
            f"deadline misses {s['deadline_misses']}, "
            f"failovers {s['failovers']}",
        ]
        for b in self.per_blade:
            state = ("dead" if not b["alive"]
                     else "active" if b["active"] else "idle")
            lines.append(
                f"  blade{b['blade']}: {b['jobs']} jobs, "
                f"util {b['utilization']:.1%} ({state})"
            )
        if self.autoscaler_events:
            moves = ", ".join(
                f"{d} at {t:.0f}s -> {n}" for t, d, n in self.autoscaler_events
            )
            lines.append(f"  autoscaler: {moves}")
        return "\n".join(lines)


class Service:
    """Wires one serving run together inside an existing environment."""

    def __init__(
        self,
        env: Environment,
        config: ServeConfig,
        tracer=None,
        metrics=None,
    ) -> None:
        self.env = env
        self.config = config
        # The environment's sink bundle, overlaid with any sink given
        # here.  Every serving layer gets the resolved tracer, None when
        # tracing is off, so observability-off runs skip the payload
        # formatting at each ``if self.tracer is not None`` hot site.
        sinks = Sinks.resolve(tracer, metrics, base=env.sinks)
        self.tracer = tracer_of(sinks)
        self.metrics = registry_of(sinks)
        self.stats = ServeStats(self.metrics)
        self.streams = RngStreams(config.seed).spawn("serve")
        self.compiler = JobCompiler(
            scheduler_by_name(config.scheduler), config.blade, config.seed
        )
        self.policy = resolve_dispatch(config.dispatch).factory()
        self.frontend = FrontEnd(
            env, self.stats, self._make_job,
            queue_capacity=config.queue_capacity,
            batch_max=config.batch_max,
            tracer=self.tracer,
        )
        n_start = config.min_blades if config.autoscale else config.max_blades
        self.blades = [
            BladeState(env, i, active=(i < n_start), tracer=self.tracer)
            for i in range(config.max_blades)
        ]
        self.stop = env.event()
        # Blade death events only ever fire from the fault plan's kill
        # and flap processes; without a plan _segment can wait on the
        # bare timeout instead of racing it against blade.death.
        self._can_die = config.faults is not None
        self.arrivals_done = False
        self.lost_jobs = 0
        self._job_seq = 0
        self.resilience = FleetResilience(
            env, config.resilience, config.max_blades,
            stats=self.stats, tracer=self.tracer,
        )
        self.autoscaler = (
            Autoscaler(self, config.autoscaler,
                       config.min_blades, config.max_blades)
            if config.autoscale else None
        )
        self.metrics.gauge(
            "serve.queue_capacity", help="admission bound on jobs in system"
        ).set(config.queue_capacity)
        self.metrics.gauge("serve.active_blades").set(n_start)
        self._main = None

    # -- construction helpers ---------------------------------------------
    def _make_job(
        self, tenant: TenantSpec, variant: int, source: str = "",
        template: Optional[JobTemplate] = None,
    ) -> Job:
        tpl = template if template is not None else tenant.template
        compiled = self.compiler.compile(tpl, variant)
        job = Job(
            job_id=self._job_seq,
            tenant=tenant.name,
            template=tpl,
            variant=variant,
            priority=tenant.priority,
            submit_time=self.env.now,
            source=source or f"{tenant.name}:adhoc:{self._job_seq}",
            deadline=(self.env.now + tenant.deadline_s
                      if tenant.deadline_s is not None else None),
            service_time=compiled.service_time,
            done=self.env.event(),
        )
        self._job_seq += 1
        return job

    def eligible(self) -> List[BladeState]:
        """Alive+active blades; reactivates alive blades in an emergency.

        With the circuit breaker enabled, blades whose breaker does not
        currently admit work are filtered out of the candidate set —
        unless that would empty it, in which case the unfiltered set is
        used (work is never stranded just because every breaker is
        open).
        """
        out = [b for b in self.blades if b.alive and b.active]
        if not out:
            alive = [b for b in self.blades if b.alive]
            for b in alive:
                b.active = True
            out = alive
        if self.config.resilience.breaker and out:
            admitted = [b for b in out if self.resilience.admits(b.index)]
            if admitted:
                return admitted
        return out

    # -- lifecycle ---------------------------------------------------------
    def start(self, arrivals: bool = True) -> None:
        """Spawn every process of the run.

        ``arrivals=False`` skips the tenant arrival generators and their
        watcher: an external driver (the workflow engine) submits jobs
        itself and must set ``arrivals_done`` + call ``_check_stop``
        when its last submission has been made.
        """
        env = self.env
        if arrivals:
            arrival_procs = []
            for tenant in self.config.tenants:
                arrival_procs.extend(tenant_generators(
                    env, tenant, self.streams, self.frontend.submit,
                    self.config.duration_s,
                ))
            env.process(self._arrivals_watcher(arrival_procs),
                        name="serve-arrivals")
        for b in self.blades:
            env.process(self._blade_loop(b), name=b.name)
        env.process(self._dispatch_loop(), name="serve-dispatcher")
        if self.autoscaler is not None:
            env.process(self.autoscaler.loop(), name="serve-autoscaler")
        if self.config.faults is not None:
            plan = self.config.faults
            # Fault randomness (slow-factor jitter) lives in its own
            # substream family keyed by the *plan* seed, so two plans
            # differing only in seed perturb nothing but the faults.
            fault_streams = RngStreams(plan.seed).spawn("fleet-faults")
            for kill in plan.kills:
                env.process(self._kill_proc(kill),
                            name=f"kill-blade{kill.blade}")
            for slow in plan.slows:
                env.process(self._slow_proc(slow, fault_streams),
                            name=f"slow-blade{slow.blade}")
            for flap in plan.flaps:
                env.process(self._flap_proc(flap),
                            name=f"flap-blade{flap.blade}")
            for degrade in plan.degrades:
                env.process(self._degrade_proc(degrade),
                            name=f"degrade-blade{degrade.blade}")
        self._main = env.process(self._wait_stop(), name="serve-main")

    def _wait_stop(self):
        yield self.stop

    def _arrivals_watcher(self, procs):
        yield self.env.all_of(procs)
        self.arrivals_done = True
        self._check_stop()

    def _check_stop(self) -> None:
        if (self.arrivals_done and self.frontend.in_system <= 0
                and not self.stop.triggered):
            self.stop.succeed()

    # -- cancellation ------------------------------------------------------
    def cancel_job(self, job: Job, actor: str = "workflow") -> bool:
        """Cancel one admitted-but-not-yet-running job (bootstop path).

        Jobs already running, finished, aborted or cancelled are left
        alone — an in-flight bootstrap replicate completes normally, as
        in autoMRE.  A successful cancel releases the job's slot in the
        bounded system queue and resolves its ``done`` event, keeping
        conservation exact: admitted = completed + cancelled + aborted
        + lost.  Returns True when the job was actually cancelled.
        """
        if (job.finish_time is not None or job.aborted or job.cancelled
                or job.start_time is not None):
            return False
        job.cancelled = True
        self.stats.note_cancelled(job)
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "serve", actor, "workflow-cancel",
                job=job.job_id, tenant=job.tenant, source=job.source,
            )
        self.frontend.job_finished()
        if job.done is not None and not job.done.triggered:
            job.done.succeed()
        self._check_stop()
        return True

    def purge_cancelled_units(self) -> int:
        """Sweep fully-cancelled queued units off every blade queue.

        Called once after a batch of :meth:`cancel_job` calls so drained
        fan-outs stop occupying blade queues (and never charge dispatch
        overhead).  Jobs still in the front-end heap are deleted lazily
        by :meth:`FrontEnd.pop_unit`.
        """
        return sum(b.purge_cancelled() for b in self.blades)

    # -- dispatch ----------------------------------------------------------
    def _dispatch_loop(self):
        env = self.env
        while True:
            while self.frontend.pending:
                blades = self.eligible()
                if not blades:
                    # Total fleet loss: shed explicitly, never hang.
                    unit = self.frontend.pop_unit()
                    if unit is None:
                        break
                    self._lose_unit(unit)
                    continue
                unit = self.frontend.pop_unit()
                if unit is None:
                    break
                blade = self.policy.select(unit, blades)
                self._place(unit, blade)
            if self.stop.triggered:
                return
            wake = self.frontend.wake
            if wake.triggered:
                self.frontend.wake = env.event()
                continue
            yield env.any_of([wake, self.stop])
            if self.stop.triggered:
                return
            self.frontend.wake = env.event()

    def _place(self, unit: DispatchUnit, blade: BladeState) -> None:
        now = self.env.now
        for job in unit.jobs:
            if job.dispatch_time is None:
                job.dispatch_time = now
        if self.resilience.is_probe_dispatch(blade.index):
            unit.probe = True
            self.resilience.note_probe_dispatched(blade.index)
        blade.push(unit)
        queued = self.frontend.pending + sum(
            b.queue_depth for b in self.blades
        )
        self.stats.note_dispatch(queued)
        if self.tracer is not None:
            self.tracer.emit(
                now, "serve", "dispatcher", "dispatch",
                unit=unit.seq, blade=blade.index,
                jobs=tuple(j.job_id for j in unit.jobs),
            )

    def redispatch(self, units: List[DispatchUnit]) -> None:
        """Re-place orphaned units; kick the dispatcher afterwards."""
        for unit in units:
            if unit.cancelled:
                continue
            blades = self.eligible()
            if not blades:
                if unit.twin is not None:
                    # The other hedge copy still holds these jobs.
                    self._drop_copy(unit)
                    continue
                self._lose_unit(unit)
                continue
            blade = self.policy.select(unit, blades)
            self._place(unit, blade)
        if self.frontend.pending and not self.frontend.wake.triggered:
            self.frontend.wake.succeed()

    def _lose_unit(self, unit: DispatchUnit) -> None:
        for job in unit.jobs:
            if job.finish_time is not None or job.aborted or job.cancelled:
                continue  # already accounted; nothing left to lose
            self.lost_jobs += 1
            self.metrics.counter(
                "serve.lost", help="jobs lost to total fleet failure"
            ).inc()
            if self.tracer is not None:
                self.tracer.emit(self.env.now, "serve", "fleet", "lost",
                                 job=job.job_id, tenant=job.tenant)
            self.frontend.job_finished()
            if job.done is not None and not job.done.triggered:
                job.done.succeed()
        self._check_stop()

    # -- blades ------------------------------------------------------------
    def _segment(self, blade: BladeState, duration: float):
        """Busy-wait ``duration`` unless the blade dies; True = died."""
        if not self._can_die:
            yield self.env.timeout(duration)
            return False
        if blade.death.triggered:
            return True
        timeout = self.env.timeout(duration)
        fired = yield self.env.any_of([timeout, blade.death])
        return fired is blade.death

    def _blade_loop(self, b: BladeState):
        env = self.env
        cfg = self.config
        res = self.resilience
        while True:
            if not b.alive:
                return
            unit = b.pop_next() if b.active else None
            if unit is None and b.active:
                unit = self.policy.steal(b, self.eligible())
                if unit is not None and self.tracer is not None:
                    self.tracer.emit(env.now, "serve", b.name, "steal",
                                     unit=unit.seq, victim=unit.blade)
                if (unit is not None and unit.probe
                        and unit.blade != b.index):
                    # A probe stolen off a half-open blade is no longer
                    # a probe; release that blade's probe slot.
                    unit.probe = False
                    res.probe_inflight[unit.blade] = False
            if unit is not None and unit.cancelled:
                continue
            if unit is None:
                if self.stop.triggered:
                    return
                if b.wake.triggered:
                    b.wake = env.event()
                yield env.any_of([b.wake, b.death, self.stop])
                continue
            unit.attempts += 1
            unit.blade = b.index
            b.running = unit
            b.units_run += 1
            b.mark_busy()
            if cfg.resilience.enforce_deadlines:
                self._shed_unreachable(unit, b)
            pending = [j for j in unit.jobs
                       if j.finish_time is None and not j.aborted
                       and not j.cancelled]
            # Expected (nominal) duration excludes slow factors and link
            # delay on purpose: the observed/expected ratio fed to the
            # health EWMA must surface exactly those pathologies.
            expected = cfg.dispatch_overhead_s + sum(
                j.service_time for j in pending
            )
            picked_at = env.now
            overhead = cfg.dispatch_overhead_s * b.slow_factor \
                + b.dispatch_delay_s
            b.busy_until = env.now + overhead + sum(
                j.service_time * b.slow_factor for j in pending
            )
            if self.tracer is not None:
                # Unit pickup: closes the blade-queue phase of every job
                # in the unit and opens the dispatch-overhead phase.
                self.tracer.emit(env.now, "serve", b.name, "unit-start",
                                 unit=unit.seq,
                                 jobs=tuple(j.job_id for j in unit.jobs))
            if (cfg.resilience.hedging and pending
                    and unit.twin is None and not unit.probe):
                env.process(self._hedge_watch(unit, b),
                            name=f"hedge-watch-{unit.seq}")
            died = yield from self._segment(b, overhead)
            completed_any = False
            idx = 0
            while not died and idx < len(unit.jobs):
                if unit.cancelled:
                    break
                job = unit.jobs[idx]
                if job.finish_time is not None or job.aborted or job.cancelled:
                    idx += 1
                    continue
                job.start_time = env.now
                job.blade = b.index
                if self.tracer is not None:
                    self.tracer.emit(env.now, "serve", b.name, "start",
                                     job=job.job_id, tenant=job.tenant)
                died = yield from self._segment(
                    b, job.service_time * b.slow_factor
                )
                if died:
                    break
                # First completion wins: the twin may have finished this
                # job while our segment was in flight.
                if job.finish_time is None and not job.aborted:
                    self._complete(job, b)
                    completed_any = True
                idx += 1
            b.mark_idle()
            b.running = None
            b.busy_until = env.now
            if died:
                self._on_blade_death(b, unit, idx)
                return
            if unit.cancelled:
                # Hedge loser: the twin finished everything.  Feed the
                # elapsed-time ratio only when it is genuinely overdue
                # (a loser cancelled early says nothing about health).
                if expected > 0:
                    ratio = (env.now - picked_at) / expected
                    if ratio > 1.0:
                        res.note_unit_cancelled(b.index, ratio,
                                                probe=unit.probe)
                continue
            if unit.twin is not None:
                self._cancel_twin(unit, b)
            if unit.hedge_of is not None and completed_any:
                res.note_hedge_win()
                if self.tracer is not None:
                    self.tracer.emit(env.now, "serve", b.name, "hedge-win",
                                     unit=unit.seq, primary=unit.hedge_of)
            if expected > 0:
                res.note_unit_done(b.index, (env.now - picked_at) / expected,
                                   probe=unit.probe)
            # Clean completion with no other holder (no live twin, no
            # hedge watcher possible, not a breaker probe): hand the
            # unit back for reuse.  Hedging keeps detached watcher
            # processes around that compare unit identity, so pooling
            # is off while it is enabled.
            if (unit.twin is None and unit.hedge_of is None
                    and not unit.probe and not cfg.resilience.hedging):
                self.frontend.recycle_unit(unit)

    def _shed_unreachable(self, unit: DispatchUnit, b: BladeState) -> None:
        """Deadline enforcement: abort jobs that cannot finish in time.

        Estimated with *nominal* durations (optimistic — a straggler
        blade's slowdown is not held against the job), so only jobs
        unreachable even at full speed are shed.
        """
        t = self.env.now + self.config.dispatch_overhead_s
        for job in unit.jobs:
            if job.finish_time is not None or job.aborted or job.cancelled:
                continue
            t += job.service_time
            if job.deadline is not None and t > job.deadline:
                self._abort_job(job, b)

    def _abort_job(self, job: Job, b: BladeState) -> None:
        job.aborted = True
        self.stats.note_deadline_abort(job)
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "serve", b.name, "deadline-abort",
                job=job.job_id, tenant=job.tenant,
                deadline=round(job.deadline, 9),
            )
        self.frontend.job_finished()
        if job.done is not None and not job.done.triggered:
            job.done.succeed()
        self._check_stop()

    def _hedge_watch(self, unit: DispatchUnit, b: BladeState):
        """Clone ``unit`` to a healthy blade if it overstays its welcome."""
        env = self.env
        expected = self.config.dispatch_overhead_s + sum(
            j.service_time for j in unit.jobs
            if j.finish_time is None and not j.aborted
        )
        if expected <= 0:
            return
        threshold = self.resilience.hedge_threshold_s(expected)
        yield env.any_of([env.timeout(threshold), b.death, self.stop])
        if self.stop.triggered:
            return
        if b.running is not unit or not b.alive:
            return  # finished, died (death path requeues) or was cancelled
        if unit.twin is not None or unit.cancelled:
            return
        pending = [j for j in unit.jobs
                   if j.finish_time is None and not j.aborted]
        if not pending:
            return
        targets = [x for x in self.eligible() if x.index != b.index]
        if not targets:
            return
        target = min(targets, key=lambda x: (x.backlog_s, x.index))
        clone = DispatchUnit(
            seq=self.frontend.new_unit_seq(),
            jobs=list(unit.jobs),
            hedge_of=unit.seq,
        )
        unit.twin = clone
        clone.twin = unit
        self.resilience.note_hedge()
        if self.tracer is not None:
            self.tracer.emit(
                env.now, "serve", "dispatcher", "hedge",
                unit=unit.seq, clone=clone.seq,
                straggler=b.index, target=target.index,
                threshold=round(threshold, 9),
            )
        self._place(clone, target)

    def _cancel_twin(self, winner: DispatchUnit, b: BladeState) -> None:
        """First completion wins: tear the losing copy down.

        A queued loser is removed outright; a running loser notices its
        ``cancelled`` flag at the next segment boundary (its per-job
        completion guards already make any overlap harmless).
        """
        loser = winner.twin
        winner.twin = None
        if loser is None:
            return
        loser.twin = None
        loser.cancelled = True
        for blade in self.blades:
            if blade.remove(loser):
                break
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "serve", b.name, "hedge-cancel",
                unit=winner.seq, loser=loser.seq,
            )

    def _complete(self, job: Job, b: BladeState) -> None:
        if job.finish_time is not None or job.aborted:
            return
        compiled = self.compiler.compile(job.template, job.variant)
        job.finish_time = self.env.now
        job.digest = compiled.digest
        b.jobs_run += 1
        self.stats.note_completed(job)
        self.frontend.job_finished()
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "serve", b.name, "finish",
                job=job.job_id, tenant=job.tenant,
                latency=round(job.latency, 9),
                missed=job.missed_deadline,
            )
        if job.done is not None and not job.done.triggered:
            job.done.succeed()
        self._check_stop()

    def _drop_copy(self, unit: DispatchUnit) -> None:
        """Unlink one copy of a hedged pair; the other copy carries on.

        The survivor keeps ``twin is None``, so if *it* later dies too,
        the normal failover path requeues its jobs — nothing is lost.
        """
        other = unit.twin
        unit.twin = None
        if other is not None:
            other.twin = None

    def _on_blade_death(self, b: BladeState, unit: DispatchUnit,
                        idx: int) -> None:
        remaining = [j for j in unit.jobs[idx:]
                     if j.finish_time is None and not j.aborted
                     and not j.cancelled]
        orphans: List[DispatchUnit] = []
        if unit.twin is not None:
            # The other hedge copy is still live somewhere: drop this
            # one instead of requeueing duplicate work.
            self._drop_copy(unit)
        elif remaining and not unit.cancelled:
            for job in remaining:
                job.failovers += 1
                job.start_time = None
                job.blade = None
                self.stats.note_failover(job)
            unit.jobs[:] = remaining
            unit.blade = None
            orphans.append(unit)
        for queued in b.drain():
            if queued.twin is not None:
                self._drop_copy(queued)
                continue
            if queued.cancelled:
                continue
            live = [j for j in queued.jobs
                    if j.finish_time is None and not j.aborted
                    and not j.cancelled]
            if not live:
                continue  # fully workflow-cancelled; nothing to rescue
            for job in live:
                job.failovers += 1
                self.stats.note_failover(job)
            queued.jobs[:] = live
            queued.blade = None
            orphans.append(queued)
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "serve", b.name, "failover",
                jobs=tuple(j.job_id for u in orphans for j in u.jobs),
            )
        self.redispatch(orphans)

    def _drain_idle_orphans(self, b: BladeState) -> None:
        """Requeue a dead blade's queue when no blade loop will.

        The blade loop's death path only runs when a unit was in flight;
        a blade killed while idle needs its queued units rescued here.
        """
        if b.running is not None:
            return
        orphans: List[DispatchUnit] = []
        for queued in b.drain():
            if queued.twin is not None:
                self._drop_copy(queued)
                continue
            if queued.cancelled:
                continue
            live = [j for j in queued.jobs
                    if j.finish_time is None and not j.aborted
                    and not j.cancelled]
            if not live:
                continue  # fully workflow-cancelled; nothing to rescue
            for job in live:
                job.failovers += 1
                self.stats.note_failover(job)
            queued.jobs[:] = live
            queued.blade = None
            orphans.append(queued)
        if orphans:
            if self.tracer is not None:
                self.tracer.emit(
                    self.env.now, "serve", b.name, "failover",
                    jobs=tuple(j.job_id for u in orphans for j in u.jobs),
                )
            self.redispatch(orphans)

    def _kill_proc(self, kill):
        env = self.env
        fired = yield env.any_of([env.timeout(kill.at), self.stop])
        if self.stop.triggered:
            return
        b = self.blades[kill.blade]
        if not b.alive:
            return
        self.metrics.counter(
            "serve.blade_deaths", help="node-level kills delivered"
        ).inc()
        if self.tracer is not None:
            self.tracer.emit(env.now, "serve", "fleet", "blade-kill",
                             blade=b.index)
        b.kill()
        self.resilience.note_failure(b.index)
        self._drain_idle_orphans(b)
        self.metrics.gauge("serve.active_blades").set(
            len([x for x in self.blades if x.alive and x.active])
        )

    def _slow_proc(self, slow, streams: RngStreams):
        env = self.env
        yield env.any_of([env.timeout(slow.at), self.stop])
        if self.stop.triggered:
            return
        b = self.blades[slow.blade]
        if not b.alive:
            return
        factor = slow.factor
        if slow.jitter > 0:
            rng = streams.stream(f"slow:blade{slow.blade}")
            factor = max(1.0, factor * float(rng.lognormal(0.0, slow.jitter)))
        b.slow_factor = factor
        if self.tracer is not None:
            self.tracer.emit(env.now, "serve", "fleet", "blade-slow",
                             blade=b.index, factor=round(factor, 9))
        if slow.duration is None:
            return
        yield env.any_of([env.timeout(slow.duration), b.death, self.stop])
        b.slow_factor = 1.0
        if self.stop.triggered or not b.alive:
            return
        if self.tracer is not None:
            self.tracer.emit(env.now, "serve", "fleet", "blade-recover",
                             blade=b.index)

    def _degrade_proc(self, degrade):
        env = self.env
        yield env.any_of([env.timeout(degrade.at), self.stop])
        if self.stop.triggered:
            return
        b = self.blades[degrade.blade]
        b.dispatch_delay_s = degrade.added_latency_s
        if self.tracer is not None:
            self.tracer.emit(
                env.now, "serve", "fleet", "link-degrade",
                blade=b.index,
                added_latency_s=round(degrade.added_latency_s, 9),
            )
        if degrade.duration is None:
            return
        yield env.any_of([env.timeout(degrade.duration), self.stop])
        b.dispatch_delay_s = 0.0
        if self.stop.triggered:
            return
        if self.tracer is not None:
            self.tracer.emit(env.now, "serve", "fleet", "link-restore",
                             blade=b.index)

    def _flap_proc(self, flap):
        env = self.env
        yield env.any_of([env.timeout(flap.at), self.stop])
        if self.stop.triggered:
            return
        b = self.blades[flap.blade]
        if not b.alive:
            return
        self.stats.note_crash(b.index)
        if self.tracer is not None:
            self.tracer.emit(env.now, "serve", "fleet", "blade-flap",
                             blade=b.index, down_s=round(flap.down_s, 9))
        b.kill()
        self.resilience.note_failure(b.index)
        self._drain_idle_orphans(b)
        self.metrics.gauge("serve.active_blades").set(
            len([x for x in self.blades if x.alive and x.active])
        )
        yield env.any_of([env.timeout(flap.down_s), self.stop])
        if self.stop.triggered:
            return
        b.rejoin()
        b.slow_factor = 1.0
        self.stats.note_rejoin(b.index)
        self.resilience.note_rejoin(b.index)
        if self.tracer is not None:
            self.tracer.emit(env.now, "serve", "fleet", "blade-rejoin",
                             blade=b.index)
        env.process(self._blade_loop(b), name=f"{b.name}-rejoin")
        self.metrics.gauge("serve.active_blades").set(
            len([x for x in self.blades if x.alive and x.active])
        )
        if self.frontend.pending and not self.frontend.wake.triggered:
            self.frontend.wake.succeed()

    # -- reporting ---------------------------------------------------------
    def result(self) -> ServeResult:
        makespan = self.env.now
        duration = makespan if makespan > 0 else 1.0
        summary = self.stats.publish(duration)
        summary["lost"] = self.lost_jobs
        per_blade = tuple(
            {
                "blade": b.index,
                "jobs": b.jobs_run,
                "units": b.units_run,
                "busy_s": stable_round(b.busy_s()),
                "utilization": stable_round(
                    b.busy_s() / duration if duration > 0 else 0.0
                ),
                "alive": b.alive,
                "active": b.active,
            }
            for b in self.blades
        )
        job_records = tuple(
            {
                "job_id": j.job_id,
                "source": j.source,
                "tenant": j.tenant,
                "template": j.template.name,
                "variant": j.variant,
                "submit": stable_round(j.submit_time),
                "start": stable_round(j.start_time),
                "finish": stable_round(j.finish_time),
                "latency": stable_round(j.latency),
                "blade": j.blade,
                "failovers": j.failovers,
                "missed_deadline": j.missed_deadline,
                "digest": j.digest,
            }
            for j in sorted(self.stats.completed_jobs,
                            key=lambda j: j.job_id)
        )
        return ServeResult(
            dispatch=self.config.dispatch,
            scheduler=self.config.scheduler,
            seed=self.config.seed,
            duration_s=self.config.duration_s,
            makespan=makespan,
            autoscale=self.config.autoscale,
            summary=summary,
            per_blade=per_blade,
            job_records=job_records,
            autoscaler_events=tuple(
                self.autoscaler.events
            ) if self.autoscaler is not None else (),
            compilations=self.compiler.compilations,
            lost_jobs=self.lost_jobs,
            events_processed=self.env.events_processed,
            breaker_transitions=tuple(
                (stable_round(t), blade, a, b, reason)
                for t, blade, a, b, reason in self.resilience.transitions
            ),
        )


def run_service(
    config: ServeConfig,
    tracer=None,
    metrics=None,
) -> ServeResult:
    """Execute one serving run to full drain; deterministic per config."""
    env = Environment(tracer=tracer, metrics=metrics)
    service = Service(env, config)
    service.start()
    env.run_until_complete(service._main)
    return service.result()
