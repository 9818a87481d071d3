"""Blade backlog bookkeeping against a slow reference.

``BladeState`` keeps each queued unit's service seconds next to its
queue, so ``backlog_s`` no longer re-derives every unit's service time
on each least-loaded select.  The contract is bit-identity with the
slow formula ``residual + sum(u.service_time for u in queue)``: same
operands, same order, same ``sum``.  These tests hold the fast path to
that formula after every queue operation, and hold whole serving and
workflow runs to the runs the slow formula produces.

The same queue operations keep a fleet-wide :class:`QueueTally` of
queued units, which a dispatch reads instead of summing every blade's
``queue_depth``; it must equal that sum after every operation.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.serve import (
    BladeKill,
    BladeSlow,
    BootstopConfig,
    DagConfig,
    DispatchUnit,
    FleetFaultPlan,
    JobTemplate,
    ResilienceConfig,
    ServeConfig,
    TenantSpec,
    raxml_workflow,
    run_dag,
    run_service,
)
from repro.serve.fleet import BladeState, QueueTally
from repro.serve.jobs import Job
from repro.sim.engine import Environment
from repro.sim.trace import Tracer

SMALL = JobTemplate("small", bootstraps=2, tasks_per_bootstrap=60, variants=2)


def slow_backlog(blade):
    """The reference: re-derive every queued unit's service time."""
    residual = max(0.0, blade.busy_until - blade.env.now)
    return residual + sum(u.service_time for u in blade.queue)


def make_unit(seq, service_times):
    jobs = [
        Job(job_id=seq * 16 + i, tenant="t", template=SMALL, variant=0,
            priority=0, submit_time=0.0, service_time=s)
        for i, s in enumerate(service_times)
    ]
    return DispatchUnit(seq=seq, jobs=jobs)


# -- every queue operation ----------------------------------------------------

_seconds = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False,
                     allow_infinity=False)
_ops = st.lists(st.one_of(
    st.tuples(st.just("push"), st.lists(_seconds, min_size=1, max_size=3)),
    st.tuples(st.just("pop")),
    st.tuples(st.just("steal")),
    st.tuples(st.just("remove"), st.integers(0, 40)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("purge")),
    st.tuples(st.just("drain")),
    st.tuples(st.just("busy"), _seconds),
), max_size=60)


class TestQueueOperations:
    @settings(max_examples=200, deadline=None)
    @given(_ops)
    def test_backlog_matches_slow_formula_after_every_op(self, ops):
        blade = BladeState(Environment(), 0)
        seq = 0
        for op, *args in ops:
            if op == "push":
                blade.push(make_unit(seq, args[0]))
                seq += 1
            elif op == "pop":
                blade.pop_next()
            elif op == "steal":
                blade.steal_newest()
            elif op == "remove":
                if blade.queue:
                    unit = blade.queue[args[0] % len(blade.queue)]
                    assert blade.remove(unit)
                    assert not blade.remove(unit)
            elif op == "cancel":
                # Workflow cancellation marks jobs; purge sweeps units.
                if blade.queue:
                    for job in blade.queue[args[0] % len(blade.queue)].jobs:
                        job.cancelled = True
            elif op == "purge":
                before = len(blade.queue)
                removed = blade.purge_cancelled()
                assert len(blade.queue) == before - removed
            elif op == "drain":
                blade.drain()
            elif op == "busy":
                blade.busy_until = args[0]
            assert blade.backlog_s == slow_backlog(blade), (op, args)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), _ops), max_size=6))
    def test_tally_matches_summed_depths_after_every_op(self, rounds):
        env = Environment()
        tally = QueueTally()
        blades = [BladeState(env, i, tally=tally) for i in range(3)]
        seq = 0
        for index, ops in rounds:
            blade = blades[index]
            for op, *args in ops:
                if op == "push":
                    blade.push(make_unit(seq, args[0]))
                    seq += 1
                elif op == "pop":
                    blade.pop_next()
                elif op == "steal":
                    blade.steal_newest()
                elif op == "remove":
                    if blade.queue:
                        blade.remove(blade.queue[args[0] % len(blade.queue)])
                elif op == "cancel":
                    if blade.queue:
                        unit = blade.queue[args[0] % len(blade.queue)]
                        for job in unit.jobs:
                            job.cancelled = True
                elif op == "purge":
                    blade.purge_cancelled()
                elif op == "drain":
                    blade.drain()
                assert tally.units == sum(b.queue_depth for b in blades)

    def test_head_pop_is_not_a_running_subtraction(self):
        # Subtracting the popped head from a running total leaves
        # (0.1 + 0.2 + 0.3) - 0.1 == 0.5000000000000001; the queue
        # alone sums to 0.2 + 0.3 == 0.5.
        blade = BladeState(Environment(), 0)
        for seq, s in enumerate((0.1, 0.2, 0.3)):
            blade.push(make_unit(seq, [s]))
        blade.pop_next()
        assert blade.backlog_s == 0.2 + 0.3 == 0.5
        assert blade.backlog_s != (0.1 + 0.2 + 0.3) - 0.1

    def test_remove_matches_only_a_queued_unit(self):
        blade = BladeState(Environment(), 0)
        units = [make_unit(seq, [float(seq + 1)]) for seq in range(3)]
        for unit in units:
            blade.push(unit)
        assert blade.remove(units[1])
        assert list(blade.queue) == [units[0], units[2]]
        assert blade.backlog_s == 1.0 + 3.0
        assert not blade.remove(make_unit(7, [1.0]))


# -- whole runs ---------------------------------------------------------------

def _open_loop_tenants(rate):
    return (
        TenantSpec("alpha", SMALL, arrival="poisson", arrival_rate=rate,
                   priority=1, deadline_s=900.0),
        TenantSpec("beta", SMALL, arrival="bursty", burst_size=3,
                   burst_interval_s=300.0),
    )


def _both_ways(monkeypatch, run):
    """(fast, slow) outputs of ``run``; slow patches in the reference."""
    fast = run()
    with monkeypatch.context() as m:
        m.setattr(BladeState, "backlog_s", property(slow_backlog))
        slow = run()
    return fast, slow


def _traced_service(cfg):
    tracer = Tracer(enabled=True)
    result = run_service(cfg, tracer=tracer)
    return result.to_json(), tracer.to_jsonl()


class TestRunsMatchSlowReference:
    def test_hedged_least_loaded_with_straggler_and_kill(self, monkeypatch):
        removed = Counter()
        remove = BladeState.remove

        def counting_remove(blade, unit):
            hit = remove(blade, unit)
            removed[hit] += 1
            return hit

        monkeypatch.setattr(BladeState, "remove", counting_remove)
        cfg = ServeConfig(
            tenants=_open_loop_tenants(rate=0.2), duration_s=900.0, seed=9,
            min_blades=3, max_blades=3, dispatch="least-loaded",
            faults=FleetFaultPlan(
                slows=(BladeSlow(blade=0, at=100.0, factor=3.0),),
                kills=(BladeKill(blade=2, at=500.0),)),
            resilience=ResilienceConfig(hedging=True, breaker=True),
        )
        fast, slow = _both_ways(monkeypatch, lambda: _traced_service(cfg))
        assert fast == slow
        # The hedge path took a queued loser out through BladeState.
        assert removed[True] > 0
        assert '"hedge-cancel"' in fast[1] and '"failover"' in fast[1]

    def test_autoscaled_drain_racing_a_kill(self, monkeypatch):
        tenants = (
            TenantSpec("surge", SMALL, arrival="bursty", burst_size=12,
                       burst_interval_s=1200.0),
            TenantSpec("trickle", SMALL, arrival="poisson",
                       arrival_rate=0.02, priority=1, deadline_s=900.0),
        )
        cfg = ServeConfig(
            tenants=tenants, duration_s=1800.0, seed=0, autoscale=True,
            min_blades=2, max_blades=4, dispatch="least-loaded",
            faults=FleetFaultPlan(kills=(BladeKill(blade=2, at=840.5),)),
        )
        fast, slow = _both_ways(monkeypatch, lambda: _traced_service(cfg))
        assert fast == slow

    def test_bootstopped_workflows_purge_queued_units(self, monkeypatch):
        purged = []
        purge = BladeState.purge_cancelled

        def counting_purge(blade):
            purged.append(purge(blade))
            return purged[-1]

        monkeypatch.setattr(BladeState, "purge_cancelled", counting_purge)
        cfg = DagConfig(
            workflow=raxml_workflow(replicates=40), submissions=3,
            interarrival_s=30.0, seed=2, blades=3, cache=False,
            bootstop=BootstopConfig(min_replicates=10, check_every=2),
        )
        fast, slow = _both_ways(monkeypatch, lambda: run_dag(cfg).to_json())
        assert fast == slow
        # Bootstop swept cancelled units out of the blade queues.
        assert sum(purged) > 0
