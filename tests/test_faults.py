"""Fault injection and fault-tolerant off-loading.

The acceptance surface of the robustness PR: fault plans are declarative,
seeded and deterministic; the injector realizes them without perturbing
fault-free runs; the runtimes retry, blacklist, recover loop chunks and
fall back to the PPE; MGPS re-baselines its window and degree formula on
the surviving SPEs; and — the headline invariant — under any plan that
leaves at least the PPE alive, every scenario completes with
*bit-identical* application results to the fault-free run.  Only the
timeline may change.
"""

import math

import pytest

from repro.cell.machine import CellMachine
from repro.cell.params import BladeParams, CellParams
from repro.core.history import UtilizationHistory
from repro.core.runner import run_experiment
from repro.core.runtime import EDTLPPolicy, MGPSPolicy, OffloadEngine, ProcContext
from repro.core.schedulers import edtlp, linux, mgps
from repro.faults import FaultInjector, FaultPlan, SlowSPE, SPEKill, TolerancePolicy
from repro.obs import MetricsRegistry
from repro.sim.engine import Environment
from repro.sim.trace import Tracer
from repro.workloads.traces import Workload

# Raw makespans of these small workloads are a few milliseconds of
# simulated time, so kills must land in the first ~1 ms to matter.
KILL_T = 2e-5

_FACTORIES = {"linux": linux, "edtlp": edtlp, "mgps": mgps}


def _run(name, faults=None, bootstraps=4, tasks=60, seed=0, observed=False,
         tolerance=None):
    wl = Workload(bootstraps=bootstraps, tasks_per_bootstrap=tasks, seed=seed)
    tracer = Tracer(enabled=True) if observed else None
    metrics = MetricsRegistry() if observed else None
    result = run_experiment(
        _FACTORIES[name](), wl, seed=seed, faults=faults,
        tracer=tracer, metrics=metrics, tolerance=tolerance,
    )
    return result, tracer, metrics


@pytest.fixture(scope="module")
def clean_digests():
    """Fault-free result digest per scheduler on the shared workload."""
    return {
        name: _run(name)[0].result_digest for name in _FACTORIES
    }


# -- the plan -----------------------------------------------------------------

class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(offload_fail_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(offload_fail_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(dma_error_rate=2.0)
        with pytest.raises(ValueError):
            SPEKill(spe=-1, time=1e-3)
        with pytest.raises(ValueError):
            SPEKill(spe=0, time=-1.0)
        with pytest.raises(ValueError):
            SlowSPE(spe=0, factor=0.0)

    def test_with_returns_modified_copy(self):
        base = FaultPlan(seed=7)
        noisy = base.with_(offload_fail_rate=0.2)
        assert base == FaultPlan(seed=7)
        assert noisy.offload_fail_rate == 0.2
        assert noisy.seed == 7

    def test_json_roundtrip(self):
        plan = FaultPlan(
            seed=3, offload_fail_rate=0.05, dma_error_rate=0.01,
            spe_kills=(SPEKill(2, 2e-4), SPEKill(5, 4e-4)),
            slow_spes=(SlowSPE(1, 2.0, jitter=0.1),),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="banana"):
            FaultPlan.from_json('{"seed": 1, "banana": true}')

    @pytest.mark.parametrize("text,message", [
        ('{"spe_kills": [{"spe": 1, "when": 1e-4}]}',
         "unknown spe kill key 'when'; known keys: spe, time"),
        ('{"spe_kills": [[1]]}',
         "expected a JSON object for a spe kill, got [1]"),
        ('{"spe_kills": [{"spe": 1}]}', "is missing key 'time'"),
        ('{"slow_spes": [{"spe": 1, "speed": 2.0}]}',
         "unknown slow spe key 'speed'"),
        ('{"spe_kills": {"spe": 1, "time": 1e-4}}',
         "spe kill entries must be a JSON list"),
        ('{"seed": null}', "fault-plan key 'seed'"),
        ("[1, 2]", "expected a JSON object for a fault-plan, got [1, 2]"),
    ])
    def test_from_json_rejects_malformed_entries(self, text, message):
        with pytest.raises(ValueError) as exc:
            FaultPlan.from_json(text)
        assert message in str(exc.value)


class TestTolerancePolicy:
    def test_backoff_grows_and_caps(self):
        pol = TolerancePolicy(backoff_base=10e-6, backoff_factor=2.0,
                              backoff_cap=50e-6)
        delays = [pol.backoff(a) for a in range(5)]
        assert delays[0] == pytest.approx(10e-6)
        assert delays[1] == pytest.approx(20e-6)
        assert delays == sorted(delays)
        assert max(delays) == pytest.approx(50e-6)

    def test_deadline_has_floor(self):
        pol = TolerancePolicy(timeout_factor=8.0, timeout_floor=500e-6)
        # floor + factor x expected: generous for tiny tasks, scaled for
        # long ones.
        assert pol.attempt_deadline(1e-6) == pytest.approx(508e-6)
        assert pol.attempt_deadline(1e-3) == pytest.approx(8.5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            TolerancePolicy(max_attempts=0)
        with pytest.raises(ValueError):
            TolerancePolicy(backoff_factor=0.5)


# -- the injector -------------------------------------------------------------

class TestInjector:
    def _machine(self):
        env = Environment()
        return env, CellMachine(env, BladeParams())

    def test_null_plan_draws_nothing(self):
        env, machine = self._machine()
        inj = FaultInjector(env, machine, FaultPlan())
        spe = machine.spes[0]
        assert not inj.offload_fails(spe)
        assert inj.dma_errors(spe, max_retries=3) == 0
        assert inj.service_factor(spe) == 1.0
        assert inj.death_time(spe) == math.inf

    def test_draws_are_deterministic_per_seed(self):
        def draws(seed):
            env, machine = self._machine()
            inj = FaultInjector(
                env, machine, FaultPlan(seed=seed, offload_fail_rate=0.3)
            )
            return [inj.offload_fails(machine.spes[2]) for _ in range(64)]

        assert draws(5) == draws(5)
        assert draws(5) != draws(6)

    def test_per_spe_streams_are_independent(self):
        env, machine = self._machine()
        plan = FaultPlan(seed=1, offload_fail_rate=0.3)
        a = FaultInjector(env, machine, plan)
        b = FaultInjector(env, machine, plan)
        # Draining SPE 0's stream in one injector must not change what
        # SPE 1 sees (CRN: per-fault-kind-per-SPE substreams).
        for _ in range(100):
            a.offload_fails(machine.spes[0])
        seq_a = [a.offload_fails(machine.spes[1]) for _ in range(32)]
        seq_b = [b.offload_fails(machine.spes[1]) for _ in range(32)]
        assert seq_a == seq_b

    def test_kill_is_delivered_on_schedule(self):
        env, machine = self._machine()
        inj = FaultInjector(
            env, machine, FaultPlan(spe_kills=(SPEKill(3, 1e-4),))
        )
        fired = []
        inj.add_listener(lambda: fired.append(env.now))
        inj.install()
        env.run(until=2e-4)
        spe = machine.spes[3]
        assert not spe.alive
        assert spe.fail_time == pytest.approx(1e-4)
        assert machine.pool.n_live == machine.n_spes - 1
        assert fired == [pytest.approx(1e-4)]
        assert inj.kills_delivered == 1

    def test_kill_out_of_range_rejected(self):
        env, machine = self._machine()
        with pytest.raises(ValueError, match="only"):
            FaultInjector(
                env, machine, FaultPlan(spe_kills=(SPEKill(99, 1e-4),))
            )


class TestPoolDeath:
    def test_mark_out_of_service_is_idempotent(self):
        env = Environment()
        machine = CellMachine(env, BladeParams())
        spe = machine.spes[0]
        spe.alive = False
        machine.pool.mark_out_of_service(spe)
        machine.pool.mark_out_of_service(spe)
        assert machine.pool.n_live == machine.n_spes - 1

    def test_acquire_yields_none_when_all_dead(self):
        env = Environment()
        machine = CellMachine(env, BladeParams())
        for spe in machine.spes:
            spe.alive = False
            machine.pool.mark_out_of_service(spe)
        got = []

        def proc():
            spe = yield machine.pool.acquire()
            got.append(spe)

        env.process(proc())
        env.run()
        assert got == [None]

    def test_waiters_fail_when_last_spe_dies(self):
        env = Environment()
        machine = CellMachine(env, BladeParams(cell=CellParams(n_spes=1)))
        (spe,) = machine.spes
        got = []

        def holder():
            s = yield machine.pool.acquire()
            yield env.timeout(1e-4)
            s.alive = False
            machine.pool.mark_out_of_service(s)
            machine.pool.release(s)

        def waiter():
            s = yield machine.pool.acquire()
            got.append(s)

        env.process(holder())
        env.process(waiter())
        env.run()
        assert got == [None]


# -- tolerance end to end -----------------------------------------------------

class TestToleranceEndToEnd:
    def test_transient_failures_retry_and_preserve_results(
        self, clean_digests
    ):
        plan = FaultPlan(seed=2, offload_fail_rate=0.2)
        r, _t, _m = _run("edtlp", faults=plan)
        assert r.bootstraps_completed == 4
        assert r.extras["offload_retries"] > 0
        assert r.result_digest == clean_digests["edtlp"]

    def test_dma_errors_are_absorbed(self, clean_digests):
        plan = FaultPlan(seed=2, dma_error_rate=0.2)
        r, _t, _m = _run("mgps", faults=plan)
        assert r.extras["dma_errors"] > 0
        assert r.result_digest == clean_digests["mgps"]

    def test_slow_spe_stretches_timeline_only(self, clean_digests):
        plan = FaultPlan(slow_spes=(SlowSPE(0, 3.0), SlowSPE(1, 3.0)))
        r, _t, _m = _run("mgps", faults=plan)
        clean, _t2, _m2 = _run("mgps")
        assert r.makespan >= clean.makespan
        assert r.result_digest == clean_digests["mgps"]

    def test_killing_spes_degrades_gracefully(self, clean_digests):
        plan = FaultPlan(
            spe_kills=tuple(SPEKill(i, KILL_T * (i + 1)) for i in range(3))
        )
        r, _t, _m = _run("mgps", faults=plan)
        assert r.extras["spe_kills"] == 3
        assert r.extras["live_spes"] == 5
        assert r.bootstraps_completed == 4
        assert r.result_digest == clean_digests["mgps"]

    def test_all_spes_dead_falls_back_to_ppe(self, clean_digests):
        plan = FaultPlan(
            spe_kills=tuple(SPEKill(i, KILL_T) for i in range(8))
        )
        for name in ("edtlp", "mgps"):
            r, _t, _m = _run(name, faults=plan)
            assert r.extras["live_spes"] == 0
            assert r.extras["retry_fallbacks"] > 0
            assert r.bootstraps_completed == 4
            assert r.result_digest == clean_digests[name]

    def test_linux_survives_pinned_spe_death(self, clean_digests):
        plan = FaultPlan(spe_kills=(SPEKill(0, KILL_T),))
        r, _t, _m = _run("linux", faults=plan)
        assert r.bootstraps_completed == 4
        assert r.result_digest == clean_digests["linux"]

    def test_blacklist_shrinks_live_set(self):
        # Every dispatch to every SPE fails: each SPE is blacklisted
        # after ``blacklist_after`` consecutive failures and the work
        # ends on the PPE.
        plan = FaultPlan(seed=0, offload_fail_rate=0.99)
        r, _t, _m = _run("edtlp", faults=plan, bootstraps=2, tasks=20)
        assert r.extras["spe_blacklists"] > 0
        assert r.extras["retry_fallbacks"] > 0
        assert r.bootstraps_completed == 2

    def test_fault_free_run_is_untouched_by_machinery(self):
        # The null-plan tolerant path must not lose or reorder work.
        r_plain, _t, _m = _run("mgps")
        r_null, _t2, _m2 = _run("mgps", faults=FaultPlan())
        assert r_null.result_digest == r_plain.result_digest
        assert r_null.offloads == r_plain.offloads
        assert r_null.extras["offload_retries"] == 0
        assert r_null.extras["retry_fallbacks"] == 0


# -- chaos sweep (the headline invariant) -------------------------------------

def _chaos_plan(seed: int) -> FaultPlan:
    """A varied, seeded storm: rates and kill sets derived from the seed."""
    kills = tuple(
        SPEKill(spe, KILL_T * (i + 1))
        for i, spe in enumerate(range(seed % 4))
    )
    slow = (
        (SlowSPE(4 + seed % 4, 1.5 + (seed % 3)),) if seed % 3 == 0 else ()
    )
    return FaultPlan(
        seed=seed,
        offload_fail_rate=0.05 * (seed % 5),
        dma_error_rate=0.03 * (seed % 4),
        spe_kills=kills,
        slow_spes=slow,
    )


class TestChaosSweep:
    @pytest.mark.parametrize("scheduler", sorted(_FACTORIES))
    def test_twenty_seeded_storms_never_change_results(
        self, scheduler, clean_digests
    ):
        for seed in range(20):
            plan = _chaos_plan(seed)
            r, _t, _m = _run(scheduler, faults=plan, bootstraps=4, tasks=60)
            assert r.bootstraps_completed == 4, (
                f"{scheduler} lost bootstraps under chaos plan {seed}"
            )
            assert r.result_digest == clean_digests[scheduler], (
                f"{scheduler} diverged from the fault-free results under "
                f"chaos plan {seed}: {plan}"
            )


# -- MGPS degradation ---------------------------------------------------------

class TestMGPSDegradation:
    def test_resize_follows_live_capacity(self):
        h = UtilizationHistory(n_spes=8)
        for i in range(8):
            h.note_dispatch(i * 1e-5)
            h.note_departure(i * 1e-5, i * 1e-5 + 5e-6)
        h.resize(6)
        assert h.n_spes == 6
        assert h.window == 6
        assert h.llp_threshold == 3
        assert all(u <= 6 for u in h._u_samples)

    def test_resize_respects_pinned_window_and_threshold(self):
        h = UtilizationHistory(n_spes=8, window=4, llp_threshold=2)
        h.resize(5)
        assert h.window == 4
        assert h.llp_threshold == 2

    def test_degree_formula_uses_survivors(self):
        # ⌊N_live / T⌋: after losing 2 of 8 SPEs, two task sources get
        # degree 3 (was 4).
        h = UtilizationHistory(n_spes=8)
        h._u_samples.append(1)  # U=1 <= threshold: LLP activates
        assert h.llp_decision(waiting_tasks=2) == (True, 4)
        h.resize(6)
        assert h.llp_decision(waiting_tasks=2) == (True, 3)

    @pytest.mark.parametrize("k", [2, 4])
    def test_killing_k_spes_rebaselines_the_scheduler(self, k, clean_digests):
        plan = FaultPlan(
            spe_kills=tuple(SPEKill(i, KILL_T * (i + 1)) for i in range(k))
        )
        r, tracer, _m = _run("mgps", faults=plan, observed=True)
        changes = tracer.filter(category="sched", event="capacity_change")
        assert len(changes) == k
        last = changes[-1]
        n_live = 8 - k
        assert last.get("live_spes") == n_live
        assert last.get("window") == n_live
        assert last.get("max_degree") == min(n_live, max(2, n_live // 2))
        # Post-kill LLP decisions obey ⌊N_live / T⌋.
        kill_done = max(c.time for c in changes)
        for d in tracer.filter(category="sched", event="decision"):
            if d.time > kill_done and d.get("active"):
                assert d.get("degree") <= max(2, n_live // max(1, d.get("t")))
        assert r.result_digest == clean_digests["mgps"]


# -- determinism --------------------------------------------------------------

class TestDeterminism:
    def test_same_plan_same_trace(self):
        plan = FaultPlan(
            seed=9, offload_fail_rate=0.1, dma_error_rate=0.05,
            spe_kills=(SPEKill(2, KILL_T), SPEKill(6, 4 * KILL_T)),
            slow_spes=(SlowSPE(1, 2.0, jitter=0.2),),
        )
        runs = [_run("mgps", faults=plan, observed=True) for _ in range(2)]
        (r1, t1, _m1), (r2, t2, _m2) = runs
        assert r1.raw_makespan == r2.raw_makespan
        assert r1.result_digest == r2.result_digest
        assert len(t1.records) == len(t2.records)
        for a, b in zip(t1.records, t2.records):
            assert (a.time, a.category, a.actor, a.event, a.data) == \
                   (b.time, b.category, b.actor, b.event, b.data)

    def test_different_fault_seed_changes_the_storm(self):
        base = dict(offload_fail_rate=0.3, dma_error_rate=0.1)
        r1, _t1, _m1 = _run("edtlp", faults=FaultPlan(seed=1, **base))
        r2, _t2, _m2 = _run("edtlp", faults=FaultPlan(seed=2, **base))
        assert r1.result_digest == r2.result_digest  # results still equal
        assert (
            r1.extras["offload_retries"],
            r1.raw_makespan,
        ) != (
            r2.extras["offload_retries"],
            r2.raw_makespan,
        )


# -- PPE fallback accounting (direct) -----------------------------------------

class TestPPEFallbackAccounting:
    @pytest.mark.parametrize("policy_cls", [EDTLPPolicy, MGPSPolicy],
                             ids=["edtlp", "mgps"])
    def test_fallback_updates_stats_metrics_and_trace(self, policy_cls):
        tracer, metrics = Tracer(enabled=True), MetricsRegistry()
        env = Environment(tracer=tracer, metrics=metrics)
        machine = CellMachine(env, BladeParams())
        rt = OffloadEngine(env, machine, policy=policy_cls())
        ctx = ProcContext(
            rank=0, cell_id=0, thread=machine.cores[0].thread("mpi0")
        )
        wl = Workload(bootstraps=1, tasks_per_bootstrap=4, seed=0)
        task = wl.trace(0).items[0].task

        def proc():
            yield from rt._ppe_fallback(ctx, task)
            yield from rt._ppe_fallback(ctx, task)

        env.process(proc())
        env.run()
        assert rt.stats.ppe_fallbacks == 2
        assert metrics.get("runtime.ppe_fallbacks").value == 2
        events = tracer.filter(category="ppe", event="ppe_fallback")
        assert len(events) == 2
        assert events[0].get("function") == task.function
        assert events[0].get("duration") == pytest.approx(task.ppe_time)
        assert env.now == pytest.approx(2 * task.ppe_time)
        # The fallback runs on the PPE: no SPE was ever occupied.
        assert all(s.tasks_executed == 0 for s in machine.spes)
