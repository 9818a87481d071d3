"""Tests for the online serving layer (src/repro/serve).

Acceptance surface of the serving PR: the run is bit-deterministic
(event logs and JSON records byte-identical across same-seed runs),
admission control sheds with explicit accounting, deadlines are
tracked, the autoscaler moves in both directions, a blade death mid-
stream loses nothing and changes no digests, and the per-job digest map
is invariant across dispatch policies.
"""

import json
import math

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    BladeKill,
    FleetFaultPlan,
    JobTemplate,
    ServeConfig,
    TenantSpec,
    TokenBucket,
    available_dispatch_policies,
    block_partition,
    default_tenants,
    exact_percentile,
    register_dispatch,
    resolve_dispatch,
    run_service,
)
from repro.sim.trace import Tracer

SMALL = JobTemplate("small", bootstraps=2, tasks_per_bootstrap=60, variants=2)


def open_loop_tenants(rate=0.1):
    """Open-loop only: submission sets are identical across runs with
    different timing, so full digest-map equality is a valid assert."""
    return (
        TenantSpec("alpha", SMALL, arrival="poisson", arrival_rate=rate,
                   priority=1, deadline_s=900.0),
        TenantSpec("beta", SMALL, arrival="bursty", burst_size=3,
                   burst_interval_s=300.0),
    )


# -- dispatch registry --------------------------------------------------------

class TestDispatchRegistry:
    def test_block_partition_matches_historical_layout(self):
        assert [len(b) for b in block_partition(100, 4)] == [25, 25, 25, 25]
        assert [len(b) for b in block_partition(10, 3)] == [4, 3, 3]
        blocks = block_partition(10, 3)
        # Contiguous, disjoint, complete.
        assert [i for b in blocks for i in b] == list(range(10))

    def test_registry_contents(self):
        names = [i.name for i in available_dispatch_policies()]
        assert names == sorted(names)
        assert {"static-block", "least-loaded", "join-shortest-queue",
                "work-stealing"} <= set(names)

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError) as exc:
            resolve_dispatch("no-such-policy")
        assert "static-block" in str(exc.value)

    def test_duplicate_registration_rejected(self):
        info = resolve_dispatch("static-block")
        with pytest.raises(ValueError):
            register_dispatch("static-block", info.factory)


# -- admission primitives -----------------------------------------------------

class TestTokenBucket:
    def test_burst_then_refill(self):
        b = TokenBucket(rate=1.0, burst=2)
        assert b.try_take(0.0) and b.try_take(0.0)
        assert not b.try_take(0.0)          # burst exhausted
        assert b.try_take(1.0)              # one token refilled
        assert not b.try_take(1.0)

    def test_infinite_rate_never_sheds(self):
        b = TokenBucket(rate=float("inf"), burst=1)
        assert all(b.try_take(0.0) for _ in range(100))


class TestExactPercentile:
    def test_nearest_rank(self):
        vals = list(range(1, 11))
        assert exact_percentile(vals, 50) == 5
        assert exact_percentile(vals, 95) == 10
        assert exact_percentile(vals, 0) == 1
        assert exact_percentile(vals, 100) == 10
        assert exact_percentile([], 99) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            exact_percentile([1.0], 101)


# -- configuration validation -------------------------------------------------

class TestServeConfig:
    def test_rejects_duplicate_tenants(self):
        t = TenantSpec("a", SMALL)
        with pytest.raises(ValueError):
            ServeConfig(tenants=(t, t))

    @pytest.mark.parametrize("field", ["arrival_rate", "think_time_s",
                                       "burst_interval_s"])
    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf, -math.inf])
    def test_tenant_rates_must_be_finite_and_positive(self, field, value):
        # A zero gap lets a shed closed-loop client resubmit without
        # simulated time advancing; NaN would fail only in env.timeout.
        with pytest.raises(ValueError, match=field):
            TenantSpec("a", SMALL, arrival="closed", **{field: value})

    @pytest.mark.parametrize("field", ["rate_limit", "deadline_s"])
    @pytest.mark.parametrize("value", [0.0, math.nan, -math.inf])
    def test_tenant_limits_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=field):
            TenantSpec("a", SMALL, **{field: value})

    @pytest.mark.parametrize("value", [0.0, math.nan, math.inf, -math.inf])
    def test_duration_must_be_finite_and_positive(self, value):
        # A NaN or infinite horizon never ends the run: checked at
        # construction only, never run.
        with pytest.raises(ValueError, match="duration_s"):
            ServeConfig(tenants=(TenantSpec("a", SMALL),), duration_s=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_dispatch_overhead_must_be_finite(self, value):
        # NaN used to pass construction and fail mid-run in env.timeout.
        with pytest.raises(ValueError, match="dispatch_overhead_s"):
            ServeConfig(tenants=(TenantSpec("a", SMALL),),
                        dispatch_overhead_s=value)

    def test_zero_dispatch_overhead_is_accepted(self):
        cfg = ServeConfig(tenants=(TenantSpec("a", SMALL),),
                          dispatch_overhead_s=0.0)
        assert cfg.dispatch_overhead_s == 0.0

    def test_rejects_bad_blade_bounds(self):
        with pytest.raises(ValueError):
            ServeConfig(tenants=(TenantSpec("a", SMALL),), min_blades=3,
                        max_blades=2)

    def test_rejects_kill_outside_fleet(self):
        with pytest.raises(ValueError):
            ServeConfig(
                tenants=(TenantSpec("a", SMALL),),
                max_blades=2,
                faults=FleetFaultPlan(kills=(BladeKill(blade=5, at=1.0),)),
            )

    def test_fault_plan_json_roundtrip(self):
        plan = FleetFaultPlan(kills=(BladeKill(blade=1, at=600.0),))
        assert FleetFaultPlan.from_json(plan.to_json()) == plan
        with pytest.raises(ValueError):
            FleetFaultPlan.from_json('{"bogus": 1}')


# -- determinism --------------------------------------------------------------

class TestDeterminism:
    def _run(self):
        tracer, metrics = Tracer(enabled=True), MetricsRegistry()
        cfg = ServeConfig(
            tenants=default_tenants(arrival_rate=0.05),
            duration_s=1200.0, seed=11, autoscale=True,
        )
        return run_service(cfg, tracer=tracer, metrics=metrics), tracer

    def test_same_seed_is_byte_identical(self):
        r1, t1 = self._run()
        r2, t2 = self._run()
        assert r1.to_json() == r2.to_json()
        # Not just the summary: the full event log replays identically.
        assert t1.to_jsonl() == t2.to_jsonl()
        assert r1.summary == r2.summary

    def test_json_is_loadable_and_complete(self):
        r, _ = self._run()
        payload = json.loads(r.to_json())
        assert payload["summary"]["completed"] == len(payload["jobs"])
        for job in payload["jobs"]:
            assert job["digest"]
            assert job["source"]
        assert len({j["source"] for j in payload["jobs"]}) == len(
            payload["jobs"]
        )


# -- admission control --------------------------------------------------------

class TestAdmission:
    def test_bounded_queue_sheds_with_accounting(self):
        # One slow blade, a tight queue, and an open-loop firehose.
        cfg = ServeConfig(
            tenants=(TenantSpec("hose", SMALL, arrival="poisson",
                                arrival_rate=0.5),),
            duration_s=600.0, seed=3,
            min_blades=1, max_blades=1, queue_capacity=4,
        )
        r = run_service(cfg)
        s = r.summary
        assert s["rejected"] > 0
        assert s["arrivals"] == s["admitted"] + s["rejected"]
        assert s["admitted"] == s["completed"]  # admitted jobs all finish
        assert 0 < s["rejection_rate"] < 1
        assert s["tenants"]["hose"]["rejected"] == s["rejected"]

    def test_token_bucket_sheds_rate_limit(self):
        # Bursts of 6 against a depth-2 bucket refilled at 0.001/s.
        cfg = ServeConfig(
            tenants=(TenantSpec("bursty", SMALL, arrival="bursty",
                                burst_size=6, burst_interval_s=200.0,
                                rate_limit=0.001, burst=2),),
            duration_s=1200.0, seed=5,
        )
        tracer = Tracer(enabled=True)
        r = run_service(cfg, tracer=tracer)
        assert r.summary["rejected"] > 0
        reasons = {rec.get("reason") for rec in tracer.filter(
            category="serve", event="reject")}
        assert reasons == {"rate-limit"}

    def test_batching_fuses_same_bag_jobs(self):
        one_variant = JobTemplate("mono", bootstraps=2,
                                  tasks_per_bootstrap=60, variants=1)
        cfg = ServeConfig(
            tenants=(TenantSpec("b", one_variant, arrival="bursty",
                                burst_size=6, burst_interval_s=400.0),),
            duration_s=1200.0, seed=2, min_blades=1, max_blades=1,
            batch_max=4,
        )
        r = run_service(cfg)
        assert r.summary["batches"] > 0
        assert r.summary["batched_jobs"] > r.summary["batches"]
        assert r.summary["completed"] == r.summary["admitted"]


# -- SLOs ---------------------------------------------------------------------

class TestDeadlines:
    def test_impossible_deadline_counts_misses_not_goodput(self):
        cfg = ServeConfig(
            tenants=(TenantSpec("tight", SMALL, arrival="poisson",
                                arrival_rate=0.05, deadline_s=1.0),),
            duration_s=600.0, seed=4,
        )
        r = run_service(cfg)
        s = r.summary
        assert s["completed"] > 0
        # Service times are tens of seconds; a 1s deadline always misses.
        assert s["deadline_misses"] == s["completed"]
        assert s["deadline_miss_rate"] == 1.0
        assert s["goodput_jps"] == 0.0  # misses don't count as goodput
        assert all(j["missed_deadline"] for j in r.job_records)


# -- elasticity ---------------------------------------------------------------

class TestAutoscaler:
    def test_scales_up_and_down_within_bounds(self):
        cfg = ServeConfig(
            tenants=default_tenants(arrival_rate=0.05),
            duration_s=1800.0, seed=0, autoscale=True,
            min_blades=2, max_blades=4,
        )
        r = run_service(cfg)
        directions = [d for _, d, _ in r.autoscaler_events]
        assert "up" in directions
        assert "down" in directions
        for _, _, n_active in r.autoscaler_events:
            assert cfg.min_blades <= n_active <= cfg.max_blades

    def test_fixed_fleet_never_scales(self):
        cfg = ServeConfig(
            tenants=default_tenants(arrival_rate=0.05),
            duration_s=1800.0, seed=0, autoscale=False,
        )
        r = run_service(cfg)
        assert r.autoscaler_events == ()


# -- fault tolerance ----------------------------------------------------------

class TestBladeDeath:
    def _cfgs(self):
        base = dict(
            tenants=open_loop_tenants(rate=0.1),
            duration_s=900.0, seed=9,
            min_blades=3, max_blades=3, dispatch="least-loaded",
        )
        clean = ServeConfig(**base)
        faulty = ServeConfig(
            **base,
            faults=FleetFaultPlan(kills=(BladeKill(blade=1, at=300.0),)),
        )
        return clean, faulty

    def test_failover_loses_nothing_and_changes_no_digest(self):
        clean_cfg, faulty_cfg = self._cfgs()
        clean = run_service(clean_cfg)
        faulty = run_service(faulty_cfg)
        assert faulty.lost_jobs == 0
        assert faulty.summary["failovers"] > 0
        assert faulty.summary["completed"] == clean.summary["completed"]
        # The killed blade is reported dead and ran less work.
        dead = faulty.per_blade[1]
        assert not dead["alive"]
        # The headline invariant: identical digest maps, key for key.
        assert faulty.digest_map() == clean.digest_map()

    def test_total_fleet_loss_shed_explicitly(self):
        cfg = ServeConfig(
            tenants=open_loop_tenants(rate=0.1),
            duration_s=900.0, seed=9, min_blades=1, max_blades=1,
            faults=FleetFaultPlan(kills=(BladeKill(blade=0, at=200.0),)),
        )
        r = run_service(cfg)
        # The run terminates (no deadlock) and accounts for every job.
        s = r.summary
        assert r.lost_jobs > 0
        assert s["completed"] + r.lost_jobs == s["admitted"]

    def test_scale_down_drain_racing_kill_on_same_blade(self):
        # A surge scales the fleet up, then the lull scales it down at
        # t=840; killing the draining blade right at (and just after)
        # the sample must not lose or duplicate any queued job.
        tenants = (
            TenantSpec("surge", SMALL, arrival="bursty", burst_size=12,
                       burst_interval_s=1200.0),
            TenantSpec("trickle", SMALL, arrival="poisson",
                       arrival_rate=0.02, priority=1, deadline_s=900.0),
        )
        base = dict(
            tenants=tenants, duration_s=1800.0, seed=0, autoscale=True,
            min_blades=2, max_blades=4, dispatch="least-loaded",
        )
        clean = run_service(ServeConfig(**base))
        assert ("down" in [d for _, d, _ in clean.autoscaler_events])
        for kill_at in (840.0, 840.5):       # at the sample / mid-drain
            faulty = run_service(ServeConfig(
                **base,
                faults=FleetFaultPlan(
                    kills=(BladeKill(blade=2, at=kill_at),)),
            ))
            assert faulty.lost_jobs == 0, kill_at
            assert (faulty.summary["completed"]
                    == clean.summary["completed"]), kill_at
            assert faulty.digest_map() == clean.digest_map(), kill_at


# -- workflow cancellation ----------------------------------------------------

class TestCancellation:
    """The cancel/drain path the workflow bootstop exercises."""

    def _run_with_cancel(self, cancel_at=60.0):
        from repro.serve import Service
        from repro.sim.engine import Environment

        tenant = TenantSpec("wf", SMALL, arrival="poisson",
                            arrival_rate=0.01)
        cfg = ServeConfig(tenants=(tenant,), duration_s=1.0, seed=0,
                          min_blades=1, max_blades=1, queue_capacity=64)
        tracer = Tracer(enabled=True)
        metrics = MetricsRegistry()
        env = Environment(tracer=tracer, metrics=metrics)
        service = Service(env, cfg)
        service.start(arrivals=False)
        jobs = []

        verdicts = {}

        def driver():
            for v in range(8):
                job = service.frontend.submit(tenant, v, source=f"req{v}")
                assert job is not None
                jobs.append(job)
            yield env.timeout(cancel_at)
            # By now the single blade is mid-unit: cancel whatever has
            # not started (running jobs finish, as in autoMRE).
            for job in jobs:
                verdicts[job.job_id] = service.cancel_job(job)
            service.purge_cancelled_units()
            service.arrivals_done = True
            service._check_stop()

        env.process(driver(), name="driver")
        env.run_until_complete(service._main)
        return service, service.result(), jobs, tracer, metrics, verdicts

    def test_conservation_covers_cancelled_class(self):
        _svc, result, jobs, _tracer, _metrics, _v = self._run_with_cancel()
        s = result.summary
        assert s["admitted"] == 8
        assert s["completed"] > 0       # the running unit finished
        assert s["cancelled"] > 0       # the queued suffix did not
        # The extended identity: every admitted job lands in exactly
        # one terminal class.
        assert s["admitted"] == (s["completed"] + s["cancelled"]
                                 + s["deadline_aborts"] + result.lost_jobs)
        assert result.lost_jobs == 0
        for job in jobs:
            if job.cancelled:
                assert job.start_time is None   # never ran
                assert job.finish_time is None  # never completed
            else:
                assert job.finish_time is not None

    def test_cancel_refuses_running_and_finished_jobs(self):
        service, _result, jobs, _t, _m, verdicts = self._run_with_cancel()
        # At cancel time: queued jobs accepted, started jobs refused.
        for job in jobs:
            assert verdicts[job.job_id] == job.cancelled
        assert all(j.cancelled or j.finish_time is not None for j in jobs)
        # Post-run every job is terminal, so nothing is cancellable —
        # including a second cancel of an already-cancelled job.
        assert not any(service.cancel_job(j) for j in jobs)

    def test_workflow_cancel_traced_and_rendered_in_ops_log(self):
        from repro.obs.report import render_report

        _svc, result, _jobs, tracer, metrics, _v = self._run_with_cancel()
        s = result.summary
        cancels = [r for r in tracer.records
                   if r.category == "serve" and r.event == "workflow-cancel"]
        assert len(cancels) == s["cancelled"]
        # Each cancel names the job it released.
        assert all(dict(r.data).get("job") for r in cancels)
        html = render_report(tracer, metrics, title="cancel")
        assert "workflow-cancel" in html
        assert "bootstop" in html  # the ops-log explanation text

    def test_counter_matches_summary(self):
        _svc, result, _jobs, _tracer, metrics, _v = self._run_with_cancel()
        counter = metrics.get("serve.cancelled")
        assert counter is not None
        assert counter.value == result.summary["cancelled"]


# -- dispatch invariance ------------------------------------------------------

class TestDigestInvariance:
    def test_digest_map_identical_across_policies(self):
        maps = {}
        for info in available_dispatch_policies():
            cfg = ServeConfig(
                tenants=open_loop_tenants(rate=0.1),
                duration_s=900.0, seed=13, dispatch=info.name,
            )
            maps[info.name] = run_service(cfg).digest_map()
        reference = maps["static-block"]
        assert reference  # ran something
        for name, digest_map in maps.items():
            assert digest_map == reference, (
                f"{name} changed at least one job's result digest"
            )

    def test_work_stealing_actually_steals(self):
        tracer = Tracer(enabled=True)
        cfg = ServeConfig(
            tenants=(TenantSpec("hose", SMALL, arrival="bursty",
                                burst_size=8, burst_interval_s=300.0),),
            duration_s=1200.0, seed=1, dispatch="work-stealing",
            min_blades=3, max_blades=3,
        )
        run_service(cfg, tracer=tracer)
        assert tracer.filter(category="serve", event="steal")
