"""Seeded chaos soak: randomized fleet fault plans, hard invariants.

The chaos harness is the resilience layer's oracle.  It draws a batch
of randomized-but-seeded :class:`~repro.serve.fleet.FleetFaultPlan`\\ s
(each fully reproducible from ``(seed, plan index)``), runs the same
open-loop serving workload once fault-free and once under every plan
with hedging and the circuit breaker enabled, and asserts invariants
that must hold no matter what the faults did:

* **no lost jobs**, **digest invariance** (the faulty run's ``source
  -> digest`` map is *bit-identical* to the fault-free run's: hedging
  dedup, failover and stragglers may move work around, never change
  results) and exact **job conservation**, all from
  :mod:`repro.invariants`;
* **bounded tail inflation** — faulty p99 latency stays within
  ``p99_inflation`` × clean p99 + ``p99_slack_s``;
* **breaker sanity** — every recorded transition is a legal edge of the
  breaker state machine.

Across the whole batch the harness also checks *liveness* of the
mechanisms themselves: at least one hedge fired and at least one full
open → half-open → closed breaker recovery completed — a soak in which
the defenses never engage proves nothing.

Workload note: only open-loop tenants (poisson / bursty) are used, so
the submitted job population is identical across fault scenarios and
full digest-map equality is a valid invariant (closed-loop tenants
would submit different jobs when latency shifts).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..invariants import Violation, conservation, digest_diff, no_lost_jobs
from ..obs.metrics import stable_round
from ..sim.rng import RngStreams
from .fleet import BladeFlap, BladeKill, BladeSlow, FleetFaultPlan, LinkDegrade
from .jobs import JobTemplate, TenantSpec
from .resilience import ResilienceConfig, transitions_legal
from .service import ServeConfig, ServeResult, run_service

__all__ = [
    "CHAOS_MIXES",
    "ChaosConfig",
    "ChaosPlanOutcome",
    "ChaosReport",
    "chaos_tenants",
    "random_fleet_fault_plan",
    "run_chaos",
]

# Fault mixes the generator knows how to draw.
#   storm      — the works: a kill and/or flap plus stragglers and a
#                degraded link (needs >= 3 blades so the fleet survives).
#   stragglers — timing-only faults: slowdowns and link degradation,
#                no crashes (valid on any fleet size).
CHAOS_MIXES = ("storm", "stragglers")


def chaos_tenants(arrival_rate: float = 0.05) -> Tuple[TenantSpec, ...]:
    """Open-loop tenant mix whose submissions never depend on latency."""
    small = JobTemplate("small-bag", bootstraps=2, tasks_per_bootstrap=60,
                        variants=2)
    medium = JobTemplate("medium-bag", bootstraps=3, tasks_per_bootstrap=100,
                         variants=2)
    return (
        TenantSpec("genomics", small, arrival="poisson",
                   arrival_rate=arrival_rate, priority=1, deadline_s=900.0),
        TenantSpec("proteomics", medium, arrival="poisson",
                   arrival_rate=arrival_rate / 2),
        TenantSpec("metagenomics", small, arrival="bursty", burst_size=3,
                   burst_interval_s=600.0),
    )


@dataclass(frozen=True)
class ChaosConfig:
    """One chaos soak: how many plans, over what workload, what bounds."""

    plans: int = 20
    seed: int = 0
    mix: str = "storm"
    duration_s: float = 2400.0
    arrival_rate: float = 0.05
    blades: int = 4
    dispatch: str = "least-loaded"
    scheduler: str = "mgps"
    # Tail bound: faulty p99 <= clean p99 * inflation + slack.
    p99_inflation: float = 10.0
    p99_slack_s: float = 120.0
    resilience: ResilienceConfig = ResilienceConfig(hedging=True,
                                                    breaker=True)

    def __post_init__(self) -> None:
        if self.plans < 1:
            raise ValueError("a chaos soak needs at least one plan")
        if self.mix not in CHAOS_MIXES:
            raise ValueError(
                f"unknown chaos mix {self.mix!r}; "
                f"known mixes: {', '.join(sorted(CHAOS_MIXES))}"
            )
        if self.mix == "storm" and self.blades < 3:
            raise ValueError("the storm mix needs at least 3 blades")
        if self.blades < 2:
            raise ValueError("chaos needs at least 2 blades")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.p99_inflation < 1.0:
            raise ValueError("p99_inflation must be >= 1.0")
        if self.p99_slack_s < 0:
            raise ValueError("p99_slack_s must be >= 0")


def random_fleet_fault_plan(seed: int, n_blades: int, horizon_s: float,
                            mix: str = "storm") -> FleetFaultPlan:
    """Draw one randomized, fully seeded fault plan.

    The same ``(seed, n_blades, horizon_s, mix)`` always yields the
    same plan.  Every plan contains at least one *recovering* slowdown
    (bounded duration ending well before the arrival horizon closes),
    so the breaker gets the chance to complete a full
    open → half-open → closed cycle while work still flows.
    """
    if mix not in CHAOS_MIXES:
        raise ValueError(
            f"unknown chaos mix {mix!r}; "
            f"known mixes: {', '.join(sorted(CHAOS_MIXES))}"
        )
    rng = RngStreams(seed).spawn("chaos-plan").stream(mix)
    blades = list(range(n_blades))

    def pick_blade() -> int:
        i = int(rng.integers(0, len(blades)))
        return blades.pop(i)

    slows: List[BladeSlow] = []
    degrades: List[LinkDegrade] = []
    kills: List[BladeKill] = []
    flaps: List[BladeFlap] = []

    # The guaranteed straggler: slow enough to trip the breaker and the
    # hedge threshold, recovering by ~0.75 of the horizon.
    slows.append(BladeSlow(
        blade=pick_blade(),
        at=float(rng.uniform(0.15, 0.40)) * horizon_s,
        factor=float(rng.uniform(1.8, 3.5)),
        duration=float(rng.uniform(0.20, 0.35)) * horizon_s,
    ))
    if rng.uniform() < 0.5:
        degrades.append(LinkDegrade(
            blade=pick_blade(),
            at=float(rng.uniform(0.10, 0.50)) * horizon_s,
            added_latency_s=float(rng.uniform(2.0, 8.0)),
            duration=float(rng.uniform(0.15, 0.30)) * horizon_s,
        ))
    if mix == "storm":
        # Crashes ride along; blades are drawn without replacement so a
        # kill and a flap never hit the same node (the plan forbids it).
        if rng.uniform() < 0.5 and len(blades) > 2:
            kills.append(BladeKill(
                blade=pick_blade(),
                at=float(rng.uniform(0.30, 0.70)) * horizon_s,
            ))
        if len(blades) > 1:
            flaps.append(BladeFlap(
                blade=pick_blade(),
                at=float(rng.uniform(0.20, 0.50)) * horizon_s,
                down_s=float(rng.uniform(0.10, 0.20)) * horizon_s,
            ))
    elif len(blades) > 0 and rng.uniform() < 0.5:
        # stragglers mix: maybe a second, milder slowdown.
        slows.append(BladeSlow(
            blade=pick_blade(),
            at=float(rng.uniform(0.30, 0.60)) * horizon_s,
            factor=float(rng.uniform(1.5, 2.2)),
            duration=float(rng.uniform(0.10, 0.25)) * horizon_s,
        ))
    return FleetFaultPlan(kills=tuple(kills), slows=tuple(slows),
                          flaps=tuple(flaps), degrades=tuple(degrades),
                          seed=seed)


@dataclass
class ChaosPlanOutcome:
    """Verdict for one plan of the soak."""

    index: int
    plan: FleetFaultPlan
    ok: bool
    violations: Tuple[Violation, ...]
    completed: int
    lost: int
    deadline_aborts: int
    hedges: int
    hedge_wins: int
    breaker_cycles: int
    p99_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "plan": json.loads(self.plan.to_json()),
            "describe": self.plan.describe(),
            "ok": self.ok,
            "violations": [str(v) for v in self.violations],
            "completed": self.completed,
            "lost": self.lost,
            "deadline_aborts": self.deadline_aborts,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "breaker_cycles": self.breaker_cycles,
            "p99_s": stable_round(self.p99_s),
        }


@dataclass
class ChaosReport:
    """The whole soak: per-plan verdicts plus batch-level liveness."""

    config: ChaosConfig
    clean_p99_s: float
    clean_completed: int
    outcomes: List[ChaosPlanOutcome] = field(default_factory=list)

    @property
    def total_hedges(self) -> int:
        return sum(o.hedges for o in self.outcomes)

    @property
    def total_breaker_cycles(self) -> int:
        return sum(o.breaker_cycles for o in self.outcomes)

    @property
    def failures(self) -> List[ChaosPlanOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def liveness_violations(self) -> List[str]:
        out = []
        if self.total_hedges < 1:
            out.append("no hedge fired across the whole soak")
        if self.total_breaker_cycles < 1:
            out.append("no breaker completed an open -> half-open -> "
                       "closed cycle across the whole soak")
        return out

    @property
    def ok(self) -> bool:
        return not self.failures and not self.liveness_violations

    def to_json(self) -> str:
        payload = {
            "plans": self.config.plans,
            "seed": self.config.seed,
            "mix": self.config.mix,
            "duration_s": stable_round(self.config.duration_s),
            "blades": self.config.blades,
            "dispatch": self.config.dispatch,
            "clean_p99_s": stable_round(self.clean_p99_s),
            "clean_completed": self.clean_completed,
            "total_hedges": self.total_hedges,
            "total_hedge_wins": sum(o.hedge_wins for o in self.outcomes),
            "total_breaker_cycles": self.total_breaker_cycles,
            "failed_plans": len(self.failures),
            "liveness_violations": self.liveness_violations,
            "ok": self.ok,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def summary_text(self) -> str:
        lines = [
            f"chaos soak: {self.config.plans} plans, mix={self.config.mix},"
            f" seed={self.config.seed}, {self.config.blades} blades,"
            f" dispatch={self.config.dispatch}",
            f"  fault-free baseline: {self.clean_completed} jobs,"
            f" p99 {self.clean_p99_s:.2f} s",
            f"  hedges {self.total_hedges}"
            f" (wins {sum(o.hedge_wins for o in self.outcomes)}),"
            f" breaker cycles {self.total_breaker_cycles}",
        ]
        for o in self.outcomes:
            status = "ok" if o.ok else "FAIL"
            lines.append(
                f"  plan {o.index:2d} [{status}] {o.plan.describe() or '-'}:"
                f" {o.completed} jobs, lost {o.lost},"
                f" hedges {o.hedges}, cycles {o.breaker_cycles},"
                f" p99 {o.p99_s:.2f} s"
            )
            for v in o.violations:
                lines.append(f"      violation: {v}")
        for v in self.liveness_violations:
            lines.append(f"  liveness violation: {v}")
        lines.append(f"  verdict: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def chaos_serve_config(config: ChaosConfig,
                       plan: Optional[FleetFaultPlan] = None) -> ServeConfig:
    """The ServeConfig one soak run uses (faulty when ``plan`` given)."""
    return ServeConfig(
        tenants=chaos_tenants(config.arrival_rate),
        duration_s=config.duration_s,
        seed=config.seed,
        dispatch=config.dispatch,
        scheduler=config.scheduler,
        min_blades=config.blades,
        max_blades=config.blades,
        # Large enough that queue-full shedding never fires: admission
        # must be timing-independent for digest equality to be exact.
        queue_capacity=4096,
        faults=plan,
        resilience=config.resilience,
    )


def check_plan_invariants(config: ChaosConfig, clean: ServeResult,
                          faulty: ServeResult) -> Tuple[Violation, ...]:
    """Every invariant violation one faulty run exhibits."""
    s = faulty.summary
    violations = (no_lost_jobs(s) + conservation(s)
                  + digest_diff(clean.digest_map(), faulty.digest_map()))
    bound = (clean.summary["latency_p99_s"] * config.p99_inflation
             + config.p99_slack_s)
    if s["latency_p99_s"] > bound:
        violations.append(Violation(
            "p99", f"p99 {s['latency_p99_s']:.2f} s exceeds bound "
                   f"{bound:.2f} s",
        ))
    if not transitions_legal(faulty.breaker_transitions):
        violations.append(
            Violation("breaker", "illegal breaker transition recorded")
        )
    return tuple(violations)


def run_chaos(config: ChaosConfig, progress=None) -> ChaosReport:
    """Run the soak: one fault-free reference + ``config.plans`` plans."""
    from .resilience import count_breaker_cycles

    clean = run_service(chaos_serve_config(config))
    report = ChaosReport(
        config=config,
        clean_p99_s=clean.summary["latency_p99_s"],
        clean_completed=clean.summary["completed"],
    )
    for p in range(config.plans):
        plan = random_fleet_fault_plan(
            seed=config.seed * 10_000 + p,
            n_blades=config.blades,
            horizon_s=config.duration_s,
            mix=config.mix,
        )
        faulty = run_service(chaos_serve_config(config, plan))
        violations = check_plan_invariants(config, clean, faulty)
        s = faulty.summary
        outcome = ChaosPlanOutcome(
            index=p,
            plan=plan,
            ok=not violations,
            violations=violations,
            completed=s["completed"],
            lost=faulty.lost_jobs,
            deadline_aborts=s["deadline_aborts"],
            hedges=s["hedges"],
            hedge_wins=s["hedge_wins"],
            breaker_cycles=count_breaker_cycles(faulty.breaker_transitions),
            p99_s=s["latency_p99_s"],
        )
        report.outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    return report
