"""The serving loop's event plumbing against the loop as it was.

Four shortcuts serve a job in fewer kernel events; each must be exactly
the computation it replaces:

* the dispatcher sleeps on ``frontend.wake`` alone, and ``_check_stop``
  fires the wake together with ``stop``.  The reference waits on
  ``AnyOf([wake, stop])``, one kernel event later per wait.  When other
  work is pending at the wake's timestamp, the real dispatcher takes
  that hop itself (see ``Service._dispatch_loop``);
* only a job whose submitter waits on it (a closed-loop client, a
  workflow stage) gets a ``done`` event.  The reference gives every job
  one, and each unawaited one fires into an empty callback list;
* without a fault plan the blade loop yields its timeouts directly, and
  completion copies the digest from the bag compiled at admission.  The
  reference runs every segment through ``_segment``, compiles again at
  completion and sums the blades' queue depths on every dispatch;
* fired composites are detached from the events that did not fire.  The
  reference never detaches (``_Condition.detach`` is a no-op in its
  runs), so stale ``_check`` callbacks pile up on ``stop``, blade deaths
  and workflow jobs' ``done`` events.

Hypothesis draws serving and workflow configs and requires identical
results: job records, summaries, per-blade rows, breaker and autoscaler
logs, digest maps, the metrics snapshot and the trace JSONL bytes.  The
kernel event counts must differ by exactly the dispatcher hops and the
unawaited ``done`` events the real loop removes.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.serve.dag as dag_module
import repro.serve.service as service_module
from repro import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    BladeFlap,
    BladeKill,
    BladeSlow,
    BootstopConfig,
    DagConfig,
    FleetFaultPlan,
    JobTemplate,
    LinkDegrade,
    ResilienceConfig,
    ResultCache,
    ServeConfig,
    TenantSpec,
    available_dispatch_policies,
    default_tenants,
    raxml_workflow,
    run_dag,
    run_service,
)
from repro.serve.fleet import BladeState
from repro.serve.service import Service
from repro.sim.events import _Condition


class EagerEventService(Service):
    """The serving loop's event plumbing as it was.

    ``_check_stop``, ``_dispatch_loop``, ``_place``, ``_segment``,
    ``_blade_loop`` and ``_complete`` are the old bodies verbatim;
    ``_make_job`` gives every job a ``done`` event.  It counts its
    dispatcher waits and keeps the ``done`` events no submitter awaits.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dispatch_waits = 0
        self.unawaited_done = []

    def _make_job(self, tenant, variant, source="", template=None,
                  awaited=False):
        job = super()._make_job(tenant, variant, source, template, awaited)
        if job.done is None:
            job.done = self.env.event()
            self.unawaited_done.append(job.done)
        return job

    def _check_stop(self):
        if (self.arrivals_done and self.frontend.in_system <= 0
                and not self.stop.triggered):
            self.stop.succeed()

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
            self.dispatch_waits += 1
            yield env.any_of([wake, self.stop])
            if self.stop.triggered:
                return
            self.frontend.wake = env.event()

    def _place(self, unit, blade):
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

    def _segment(self, blade, duration):
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


    def _complete(self, job, b):
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

    def removed_events(self, fast):
        """Events this loop spends that the real one, ``fast``, does not.

        Every dispatcher wait here costs one composite.  The real loop
        pays one event for the same wait only when it takes the hop
        itself, or when the wake it sleeps on is the one ``_check_stop``
        fires in place of the composite that ``stop`` would have fired.
        """
        hops = self.dispatch_waits - fast.hops - fast.stop_wakes
        done = sum(1 for ev in self.unawaited_done if ev.processed)
        assert done == len(self.unawaited_done)
        return hops + done


class CountedService(Service):
    """The real loop, counting the hops and stop wakes its dispatcher
    pays for.  It forwards every yielded event unchanged."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.hops = 0
        self.stop_wakes = 0

    def _dispatch_loop(self):
        inner = super()._dispatch_loop()
        value = None
        while True:
            try:
                ev = inner.send(value)
            except StopIteration:
                return
            if ev is not self.frontend.wake:
                self.hops += 1
            value = yield ev

    def _check_stop(self):
        armed = self.stop.triggered or self.frontend.wake.triggered
        super()._check_stop()
        if not armed and self.stop.triggered:
            self.stop_wakes += 1


def _twin(cls, made):
    class Recorded(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
    return Recorded


def _run(module, runner, service_cls, eager):
    """Run ``runner(tracer, metrics)`` with ``service_cls`` swapped in.

    Returns the result, the service, and the trace and metrics sinks.
    """
    made = []
    tracer, metrics = Tracer(), MetricsRegistry()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "Service", _twin(service_cls, made))
        if eager:
            mp.setattr(_Condition, "detach", lambda self: None)
        result = runner(tracer, metrics)
    return result, made[-1], tracer, metrics


def _serve_view(r, tracer, metrics):
    return (
        r.job_records, r.summary, r.per_blade, r.breaker_transitions,
        r.autoscaler_events, r.digest_map(), repr(r.makespan),
        r.lost_jobs, r.compilations, metrics.snapshot(), tracer.to_jsonl(),
    )


def _check_serve(config):
    def runner(tracer, metrics):
        return run_service(config, tracer=tracer, metrics=metrics)

    fast, fast_svc, *fast_sinks = _run(service_module, runner,
                                       CountedService, eager=False)
    ref, ref_svc, *ref_sinks = _run(service_module, runner,
                                    EagerEventService, eager=True)
    assert _serve_view(fast, *fast_sinks) == _serve_view(ref, *ref_sinks)
    removed = ref_svc.removed_events(fast_svc)
    assert ref.events_processed - fast.events_processed == removed
    return fast_svc, ref_svc


def _check_dag(config, runs=1):
    """``runs`` back-to-back runs through one shared cache per side;
    returns the hops the real dispatcher took."""
    def run_all(service_cls, eager):
        cache = ResultCache() if config.cache else None
        out = []
        for _ in range(runs):
            out.append(_run(
                dag_module,
                lambda tracer, metrics: run_dag(config, tracer=tracer,
                                                metrics=metrics,
                                                cache=cache),
                service_cls, eager,
            ))
        return out

    hops = 0
    for (fast, fast_svc, *fast_sinks), (ref, ref_svc, *ref_sinks) in zip(
            run_all(CountedService, False),
            run_all(EagerEventService, True)):
        assert _serve_view(fast.serve, *fast_sinks) \
            == _serve_view(ref.serve, *ref_sinks)
        assert fast.to_json() == ref.to_json()
        assert fast.workflows == ref.workflows
        removed = ref_svc.removed_events(fast_svc)
        assert ref.serve.events_processed \
            - fast.serve.events_processed == removed
        hops += fast_svc.hops
    return hops


# -- drawn configs ---------------------------------------------------------

TINY = JobTemplate("tiny", bootstraps=1, tasks_per_bootstrap=8, variants=2)
SMALL = JobTemplate("small", bootstraps=1, tasks_per_bootstrap=12,
                    variants=3)
POLICIES = [info.name for info in available_dispatch_policies()]


@st.composite
def _tenants(draw):
    kinds = draw(st.lists(st.sampled_from(["poisson", "closed", "bursty"]),
                          min_size=1, max_size=3, unique=True))
    deadline = st.one_of(st.none(), st.floats(30.0, 400.0))
    out = []
    for kind in kinds:
        if kind == "poisson":
            out.append(TenantSpec(
                "open", TINY, arrival="poisson",
                arrival_rate=draw(st.floats(0.01, 0.3)),
                priority=draw(st.integers(0, 2)),
                deadline_s=draw(deadline),
            ))
        elif kind == "closed":
            out.append(TenantSpec(
                "closed", SMALL, arrival="closed",
                clients=draw(st.integers(1, 3)),
                # A shed client re-submits after its think time, so a
                # near-zero one would spin against a full queue.
                think_time_s=draw(st.sampled_from([1.0, 5.0, 60.0])),
                priority=draw(st.integers(0, 2)),
                deadline_s=draw(deadline),
            ))
        else:
            out.append(TenantSpec(
                "bursty", draw(st.sampled_from([TINY, SMALL])),
                arrival="bursty",
                burst_size=draw(st.integers(1, 5)),
                burst_interval_s=draw(st.floats(20.0, 200.0)),
                rate_limit=draw(st.sampled_from([float("inf"), 0.05])),
                burst=draw(st.integers(1, 6)),
                deadline_s=draw(deadline),
            ))
    return tuple(out)


@st.composite
def _fault_plans(draw, n_blades, horizon):
    """None, or at most one crash (kill or flap), slow and degrade per
    blade, as the plan allows."""
    if not draw(st.booleans()):
        return None
    at = st.floats(1.0, horizon)
    span = st.one_of(st.none(), st.floats(10.0, 300.0))
    kills, slows, flaps, degrades = [], [], [], []
    for blade in range(n_blades):
        crash = draw(st.sampled_from([None, "kill", "flap"]))
        if crash == "kill":
            kills.append(BladeKill(blade, draw(at)))
        elif crash == "flap":
            flaps.append(BladeFlap(blade, draw(at),
                                   draw(st.floats(5.0, 200.0))))
        if draw(st.booleans()):
            slows.append(BladeSlow(blade, draw(at), draw(st.floats(1.5, 4.0)),
                                   draw(st.sampled_from([0.0, 0.3])),
                                   draw(span)))
        if draw(st.booleans()):
            degrades.append(LinkDegrade(blade, draw(at),
                                        draw(st.floats(0.1, 5.0)),
                                        draw(span)))
    return FleetFaultPlan(kills=tuple(kills), slows=tuple(slows),
                          flaps=tuple(flaps), degrades=tuple(degrades),
                          seed=draw(st.integers(0, 3)))


@st.composite
def _serve_configs(draw):
    max_blades = draw(st.integers(1, 4))
    horizon = draw(st.floats(200.0, 900.0))
    return ServeConfig(
        tenants=draw(_tenants()),
        duration_s=horizon,
        seed=draw(st.integers(0, 5)),
        dispatch=draw(st.sampled_from(POLICIES)),
        min_blades=draw(st.integers(1, max_blades)),
        max_blades=max_blades,
        autoscale=draw(st.booleans()),
        queue_capacity=draw(st.sampled_from([4, 16, 64])),
        batch_max=draw(st.sampled_from([1, 2, 4])),
        dispatch_overhead_s=draw(st.sampled_from([0.0, 0.5])),
        faults=draw(_fault_plans(max_blades, horizon)),
        resilience=ResilienceConfig(
            hedging=draw(st.booleans()),
            breaker=draw(st.booleans()),
            enforce_deadlines=draw(st.booleans()),
        ),
    )


@st.composite
def _dag_configs(draw):
    blades = draw(st.integers(1, 3))
    return DagConfig(
        workflow=raxml_workflow(replicates=draw(st.integers(1, 8))),
        submissions=draw(st.integers(1, 3)),
        interarrival_s=draw(st.sampled_from([None, 0.0, 40.0])),
        seed=draw(st.integers(0, 3)),
        dispatch=draw(st.sampled_from(POLICIES)),
        blades=blades,
        dispatch_overhead_s=draw(st.sampled_from([0.0, 0.5])),
        bootstop=draw(st.sampled_from([
            None, BootstopConfig(min_replicates=2, check_every=1,
                                 threshold=0.5, stable_checks=1),
        ])),
        cache=draw(st.booleans()),
        faults=draw(_fault_plans(blades, 150.0)),
    )


class TestServeEventReference:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_serve_configs())
    def test_serving_matches_eager_reference(self, config):
        _check_serve(config)

    @pytest.mark.parametrize("dispatch", POLICIES)
    def test_default_tenants_match(self, dispatch):
        config = ServeConfig(tenants=default_tenants(arrival_rate=0.05),
                             duration_s=1800.0, seed=3, dispatch=dispatch)
        fast_svc, ref_svc = _check_serve(config)
        # The open-loop and bursty tenants' jobs carry no done event.
        assert ref_svc.unawaited_done

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_dag_configs(), st.integers(1, 2))
    def test_workflows_match_eager_reference(self, config, runs):
        _check_dag(config, runs)

    def test_dispatcher_takes_the_hop_when_work_is_pending(self):
        # The open-loop tenant's last arrival ends its process at the
        # same timestamp, so the arrival watcher's AllOf is pending when
        # the dispatcher wakes: the old composite ran after it, and the
        # real loop must hop to run there too.
        tenant = TenantSpec("open", TINY, arrival="poisson",
                            arrival_rate=0.05)
        config = ServeConfig(tenants=(tenant,), duration_s=600.0, seed=2,
                             max_blades=2)
        fast_svc, _ref_svc = _check_serve(config)
        assert fast_svc.hops == 1

    def test_workflow_stages_need_the_hop(self):
        # Two workflows start together on one blade with no dispatch
        # overhead; under a (here empty) fault plan each segment is a
        # composite, and one can be pending when a stage's submission
        # wakes the dispatcher.  Resuming without the hop changes the
        # join-shortest-queue schedule.
        config = DagConfig(
            workflow=raxml_workflow(replicates=4), submissions=2,
            interarrival_s=0.0, dispatch="join-shortest-queue", blades=1,
            dispatch_overhead_s=0.0,
            bootstop=BootstopConfig(min_replicates=2, check_every=1,
                                    threshold=0.5, stable_checks=1),
            cache=False, faults=FleetFaultPlan(),
        )
        assert _check_dag(config) > 0


def _callbacks(ev):
    return (ev._cb0 is not None) + len(ev.callbacks or ())


class TestNoStaleCallbacks:
    def test_stop_holds_only_live_waiters(self):
        seen = []

        class Probe(Service):
            def _check_stop(self):
                if not self.stop.triggered:
                    seen.append(_callbacks(self.stop))
                super()._check_stop()

        config = ServeConfig(tenants=default_tenants(arrival_rate=0.05),
                             duration_s=3600.0, seed=1, autoscale=True,
                             resilience=ResilienceConfig(breaker=True))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(service_module, "Service", Probe)
            run_service(config)
        # The main process, the autoscaler and one idle wait per blade;
        # each dispatcher wait used to leave one more for good.
        assert len(seen) > 100
        assert max(seen) <= 2 + config.max_blades

    def test_workflow_jobs_hold_one_waiter(self):
        seen = []

        class Probe(Service):
            def _complete(self, job, b):
                if not job.done.triggered:
                    seen.append(_callbacks(job.done))
                super()._complete(job, b)

        config = DagConfig(workflow=raxml_workflow(replicates=40),
                           submissions=2, interarrival_s=0.0, cache=False)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dag_module, "Service", Probe)
            run_dag(config)
        # Only the stage's current composite waits on a pending job; the
        # stage used to leave one stale composite per wake on each.
        assert len(seen) == 2 * config.workflow.total_jobs
        assert set(seen) == {1}
