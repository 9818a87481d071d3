"""Tests for the fleet resilience layer (src/repro/serve).

Acceptance surface of the resilience PR: the extended fault taxonomy
(slow, flap, degrade) round-trips through JSON and validates its
entries, every fault kind leaves the digest map bit-identical to the
fault-free run with zero lost jobs, hedged dispatch fires on
stragglers and the first completion wins, the circuit breaker walks
its legal state machine and completes open -> half-open -> closed
cycles, deadline enforcement sheds with exact conservation, and the
seeded chaos harness passes its invariants deterministically.
"""

import pytest

from repro.serve import (
    BladeFlap,
    BladeKill,
    BladeSlow,
    ChaosConfig,
    FleetFaultPlan,
    JobTemplate,
    LinkDegrade,
    ResilienceConfig,
    ServeConfig,
    TenantSpec,
    chaos_tenants,
    count_breaker_cycles,
    random_fleet_fault_plan,
    run_chaos,
    run_service,
)
from repro.serve.resilience import (
    LEGAL_BREAKER_TRANSITIONS,
    FleetResilience,
    transitions_legal,
)
from repro.sim.engine import Environment
from repro.sim.trace import Tracer

SMALL = JobTemplate("small", bootstraps=2, tasks_per_bootstrap=60, variants=2)


def open_loop_tenants(rate=0.1):
    """Open-loop only, so full digest-map equality is a valid assert."""
    return (
        TenantSpec("alpha", SMALL, arrival="poisson", arrival_rate=rate,
                   priority=1, deadline_s=900.0),
        TenantSpec("beta", SMALL, arrival="bursty", burst_size=3,
                   burst_interval_s=300.0),
    )


def base_config(**overrides):
    base = dict(
        tenants=open_loop_tenants(rate=0.1),
        duration_s=900.0, seed=9,
        min_blades=3, max_blades=3, dispatch="least-loaded",
    )
    base.update(overrides)
    return ServeConfig(**base)


# -- fault-plan taxonomy ------------------------------------------------------

class TestFaultTaxonomy:
    def test_full_plan_json_roundtrip(self):
        plan = FleetFaultPlan(
            kills=(BladeKill(blade=0, at=50.0),),
            slows=(BladeSlow(blade=1, at=10.0, factor=2.0, jitter=0.1,
                             duration=100.0),),
            flaps=(BladeFlap(blade=2, at=20.0, down_s=30.0),),
            degrades=(LinkDegrade(blade=3, at=5.0, added_latency_s=1.0),),
            seed=7,
        )
        assert FleetFaultPlan.from_json(plan.to_json()) == plan
        assert plan.blades == (0, 1, 2, 3)
        assert not plan.is_null

    def test_unknown_kind_names_known_kinds(self):
        with pytest.raises(ValueError) as exc:
            FleetFaultPlan.from_json('{"bogus": []}')
        msg = str(exc.value)
        for kind in ("kills", "slows", "flaps", "degrades"):
            assert kind in msg

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            BladeSlow(blade=0, at=0.0, factor=0.5)   # speed-ups not faults
        with pytest.raises(ValueError):
            BladeFlap(blade=0, at=0.0, down_s=-1.0)
        with pytest.raises(ValueError):
            LinkDegrade(blade=0, at=0.0, added_latency_s=-1.0)

    def test_plan_outside_fleet_rejected(self):
        with pytest.raises(ValueError):
            base_config(faults=FleetFaultPlan(
                slows=(BladeSlow(blade=7, at=10.0, factor=2.0),)))


# -- straggler (BladeSlow) ----------------------------------------------------

class TestStraggler:
    def test_slow_stretches_timeline_not_results(self):
        clean = run_service(base_config())
        faulty = run_service(base_config(
            faults=FleetFaultPlan(
                slows=(BladeSlow(blade=0, at=100.0, factor=4.0),)),
        ))
        assert faulty.summary["lost"] == 0
        assert faulty.summary["completed"] == clean.summary["completed"]
        # A 4x straggler visibly inflates the tail...
        assert (faulty.summary["latency_p99_s"]
                > clean.summary["latency_p99_s"])
        # ...but changes no result bits.
        assert faulty.digest_map() == clean.digest_map()


# -- hedged dispatch ----------------------------------------------------------

class TestHedging:
    def test_hedge_fires_and_first_completion_wins(self):
        tracer = Tracer(enabled=True)
        clean = run_service(base_config())
        faulty = run_service(base_config(
            faults=FleetFaultPlan(
                slows=(BladeSlow(blade=0, at=100.0, factor=6.0),)),
            resilience=ResilienceConfig(hedging=True, breaker=True),
        ), tracer=tracer)
        s = faulty.summary
        assert s["hedges"] > 0
        assert s["hedge_wins"] > 0          # copies actually beat stragglers
        assert s["lost"] == 0
        # Dedup: a job run twice completes exactly once, digests intact.
        assert s["completed"] == clean.summary["completed"]
        assert faulty.digest_map() == clean.digest_map()
        # The losing twin was cancelled, not silently dropped.
        assert tracer.filter(category="serve", event="hedge")
        assert tracer.filter(category="serve", event="hedge-cancel")


# -- circuit breaker ----------------------------------------------------------

class TestBreaker:
    def test_full_cycle_on_recovering_straggler(self):
        faulty = run_service(base_config(
            faults=FleetFaultPlan(
                slows=(BladeSlow(blade=0, at=100.0, factor=4.0,
                                 duration=250.0),)),
            resilience=ResilienceConfig(breaker=True),
        ))
        s = faulty.summary
        assert s["breaker_opens"] > 0
        assert s["breaker_closes"] > 0      # the probe measured healthy
        assert count_breaker_cycles(faulty.breaker_transitions) >= 1
        assert transitions_legal(faulty.breaker_transitions)
        assert s["lost"] == 0

    def test_second_probe_cannot_close_a_reopened_breaker(self):
        # While its probe is in flight a half-open blade admits nothing;
        # with every breaker blocking, ``eligible`` places the next unit
        # there anyway and it is marked a probe too.  The first probe
        # comes back slow and re-opens the breaker; the second, healthy,
        # must leave it open: there is no open -> closed edge.
        env = Environment()
        res = FleetResilience(env, ResilienceConfig(breaker=True), 1)
        res.note_failure(0)
        env.timeout(ResilienceConfig().cooldown_s)
        env.run()
        assert res.admits(0) and res.state[0] == "half-open"
        for _ in range(2):
            assert res.is_probe_dispatch(0)
            res.note_probe_dispatched(0)
        res.note_unit_done(0, 3.0, probe=True)
        res.note_unit_done(0, 1.0, probe=True)
        assert res.state[0] == "open"
        assert [t[2:4] for t in res.transitions] == [
            ("closed", "open"), ("open", "half-open"), ("half-open", "open"),
        ]

    def test_run_with_every_breaker_open_completes(self):
        # Two blades die at once and the survivor's link degrades, so
        # its breaker opens too and probes are placed on it through the
        # all-blocked fallback.
        tiny = JobTemplate("tiny", bootstraps=1, tasks_per_bootstrap=8,
                           variants=2)
        r = run_service(ServeConfig(
            tenants=(
                TenantSpec("open", tiny, arrival="poisson",
                           arrival_rate=0.125),
                TenantSpec("closed", JobTemplate("small", bootstraps=1,
                                                 tasks_per_bootstrap=12,
                                                 variants=3),
                           arrival="closed", clients=1, think_time_s=1.0),
                TenantSpec("bursty", tiny, arrival="bursty", burst_size=1,
                           burst_interval_s=20.0, deadline_s=30.0, burst=1),
            ),
            duration_s=200.0, seed=0, dispatch="join-shortest-queue",
            min_blades=1, max_blades=3, queue_capacity=4,
            faults=FleetFaultPlan(
                kills=(BladeKill(1, 1.0), BladeKill(2, 1.0)),
                degrades=(LinkDegrade(0, 1.0, 1.0),)),
            resilience=ResilienceConfig(breaker=True,
                                        enforce_deadlines=True),
        ))
        assert transitions_legal(r.breaker_transitions)
        assert r.summary["completed"] > 0

    def test_transition_helpers(self):
        cycle = (
            (10.0, 0, "closed", "open", "ewma-ratio 2.5"),
            (20.0, 0, "open", "half-open", "cooldown"),
            (30.0, 0, "half-open", "closed", "probe-healthy"),
        )
        assert transitions_legal(cycle)
        assert count_breaker_cycles(cycle) == 1
        bad = ((10.0, 0, "open", "closed", "nope"),)
        assert not transitions_legal(bad)
        assert ("open", "closed") not in LEGAL_BREAKER_TRANSITIONS
        # A cycle that re-opens from half-open never completes.
        flappy = (
            (10.0, 0, "closed", "open", "ewma-ratio 2.5"),
            (20.0, 0, "open", "half-open", "cooldown"),
            (30.0, 0, "half-open", "open", "probe-slow"),
        )
        assert count_breaker_cycles(flappy) == 0


# -- flap (crash + rejoin) ----------------------------------------------------

class TestFlap:
    def test_flap_requeues_then_rejoins(self):
        clean = run_service(base_config())
        faulty = run_service(base_config(
            faults=FleetFaultPlan(
                flaps=(BladeFlap(blade=1, at=300.0, down_s=200.0),)),
            resilience=ResilienceConfig(breaker=True),
        ))
        s = faulty.summary
        assert s["blade_crashes"] == 1
        assert s["blade_rejoins"] == 1
        assert s["failovers"] > 0           # in-flight work was requeued
        assert s["lost"] == 0
        assert faulty.per_blade[1]["alive"]  # it came back
        assert faulty.digest_map() == clean.digest_map()


# -- link degrade -------------------------------------------------------------

class TestLinkDegrade:
    def test_degrade_adds_latency_not_loss(self):
        clean = run_service(base_config())
        faulty = run_service(base_config(
            faults=FleetFaultPlan(
                degrades=(LinkDegrade(blade=0, at=100.0,
                                      added_latency_s=5.0),)),
        ))
        assert (faulty.summary["latency_p99_s"]
                > clean.summary["latency_p99_s"])
        assert faulty.summary["lost"] == 0
        assert faulty.digest_map() == clean.digest_map()


# -- deadline enforcement -----------------------------------------------------

class TestDeadlineEnforcement:
    def test_sheds_unreachable_with_exact_conservation(self):
        cfg = ServeConfig(
            tenants=(TenantSpec("dl", SMALL, arrival="poisson",
                                arrival_rate=0.08, deadline_s=120.0),),
            duration_s=900.0, seed=5,
            min_blades=2, max_blades=2, dispatch="least-loaded",
            queue_capacity=4096,
            faults=FleetFaultPlan(
                slows=(BladeSlow(blade=0, at=100.0, factor=4.0),)),
            resilience=ResilienceConfig(enforce_deadlines=True),
        )
        tracer = Tracer(enabled=True)
        r = run_service(cfg, tracer=tracer)
        s = r.summary
        assert s["deadline_aborts"] > 0
        # Every admitted job is accounted for exactly once.
        assert s["admitted"] == (s["completed"] + s["deadline_aborts"]
                                 + s["lost"])
        assert tracer.filter(category="serve", event="deadline-abort")


# -- chaos harness ------------------------------------------------------------

class TestChaos:
    def test_random_plan_is_seeded_and_in_bounds(self):
        p1 = random_fleet_fault_plan(3, 4, 2400.0, "storm")
        p2 = random_fleet_fault_plan(3, 4, 2400.0, "storm")
        assert p1 == p2                      # same seed, same plan
        assert p1 != random_fleet_fault_plan(4, 4, 2400.0, "storm")
        assert not p1.is_null
        assert all(0 <= b < 4 for b in p1.blades)

    def test_small_soak_passes_and_is_deterministic(self):
        cfg = ChaosConfig(plans=2, seed=1, duration_s=1200.0)
        rep1 = run_chaos(cfg)
        rep2 = run_chaos(cfg)
        assert rep1.ok, [o.violations for o in rep1.failures]
        assert not rep1.failures
        for out in rep1.outcomes:
            assert out.lost == 0
        assert rep1.to_json() == rep2.to_json()
        assert "verdict: PASS" in rep1.summary_text()

    def test_chaos_tenants_are_open_loop_only(self):
        # Closed-loop tenants would invalidate digest-map equality.
        assert all(t.arrival != "closed" for t in chaos_tenants())
