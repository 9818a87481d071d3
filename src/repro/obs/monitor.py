"""Scheduler health monitor: rule-based verdicts over a finished run.

PR 1 gave runs spans, metrics and exporters; this module *interprets*
them.  The paper's argument is a set of health properties — EDTLP keeps
all eight SPEs fed, MGPS throttles LLP on the window utilization ``U``,
LLP's adaptive unbalancing shrinks join idle — and each detector here
checks one of them against a run's span stream (:class:`Tracer`, read
once through :func:`~repro.obs.runview.read_run`) and
:class:`~repro.obs.metrics.MetricsRegistry`:

===================  ========================================================
detector             fires when
===================  ========================================================
spe-starvation       an SPE idles beyond a threshold while the PPE run queue
                     was non-empty (off-loads blocked waiting for an SPE)
mgps-oscillation     the MGPS window repeatedly toggles LLP on/off across
                     consecutive decisions (hysteresis failure)
window-u-saturation  the window shows low exposed TLP (``U`` at or below half
                     the SPEs) for most decisions yet LLP never fires
llp-imbalance        master/worker join idle for one loop does not shrink
                     across invocations (adaptive unbalancing not converging)
granularity-churn    the granularity test flips accept<->reject repeatedly
                     for the same function (off-load decision flapping)
fault-storm          injected faults forced a high ratio of retried off-load
                     attempts (the tolerance machinery is saturating)
degraded-capacity    SPEs were lost to kills or blacklisting; critical when
                     no SPE survived and everything ran on the PPE
queue-saturation     the serving front-end shed a high fraction of offered
                     jobs, or its queues ran near the admission bound for
                     much of the run (inert unless a serving run recorded
                     arrivals)
blade-breaker        a blade's circuit breaker opened; critical when it
                     flapped open repeatedly without a completed recovery
                     (inert unless the resilience layer recorded opens)
hedge-storm          speculative hedges were issued for a high fraction of
                     dispatched units — the straggler threshold is too low
                     or the fleet is systemically slow
deadline-shedding    deadline enforcement aborted a high fraction of
                     admitted jobs (the fleet cannot meet the contracted
                     deadlines at this load)
===================  ========================================================

Findings are structured (:class:`HealthFinding`) so CI can assert on them
(``repro health`` exits non-zero when any fire) and the HTML report can
render them.  The threshold mini-language (``"spe_idle_ratio>0.25"``) is
shared with ``repro stats --fail-on`` via :func:`parse_threshold`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..sim.trace import Tracer
from .runview import RunView, read_run, registry_value

__all__ = [
    "HealthFinding",
    "HealthMonitor",
    "MonitorConfig",
    "Threshold",
    "analyze_run",
    "parse_threshold",
    "render_findings",
    "resolve_metric",
]


# -- threshold mini-language --------------------------------------------------

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_THRESHOLD_RE = re.compile(
    r"^\s*([A-Za-z_][\w.{}=\",-]*?)\s*(>=|<=|==|!=|>|<)\s*"
    r"([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*$"
)


@dataclass(frozen=True)
class Threshold:
    """One parsed rule: ``metric op value`` describes a *bad* condition."""

    metric: str
    op: str
    value: float

    def violated(self, observed: float) -> bool:
        """True when ``observed`` satisfies the (bad) condition."""
        return _OPS[self.op](observed, self.value)

    def __str__(self) -> str:
        return f"{self.metric}{self.op}{self.value:g}"


def parse_threshold(expr: str) -> Threshold:
    """Parse ``"spe_idle_ratio>0.25"`` into a :class:`Threshold`.

    The metric side is a bare name (summary key or registry metric name,
    label suffixes included); the operator is one of ``> >= < <= == !=``;
    the value is a number.  Raises :class:`ValueError` on anything else.
    """
    m = _THRESHOLD_RE.match(expr)
    if m is None:
        raise ValueError(
            f"cannot parse threshold {expr!r} "
            f"(expected e.g. 'spe_idle_ratio>0.25')"
        )
    return Threshold(m.group(1), m.group(2), float(m.group(3)))


def resolve_metric(metric: str, summary: Mapping[str, Any], registry) -> float:
    """Look up a threshold's metric in the summary, then the registry.

    An unknown name raises :class:`ValueError` that *lists every known
    metric name*, so a typo in ``--fail-on`` (or a monitor config) is
    diagnosed in one round trip instead of by guesswork.
    """
    if metric in summary:
        return float(summary[metric])
    names = registry.names() if registry is not None else []
    if metric in names:
        return registry_value(registry, metric)
    known = sorted(set(summary) | set(names))
    raise ValueError(
        f"unknown metric {metric!r}; known metrics: {', '.join(known)}"
    )


# -- findings -----------------------------------------------------------------

@dataclass(frozen=True)
class HealthFinding:
    """One detector verdict on one run."""

    detector: str
    severity: str  # "warning" | "critical"
    summary: str
    evidence: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "detector": self.detector,
            "severity": self.severity,
            "summary": self.summary,
            "evidence": dict(self.evidence),
        }


def render_findings(findings: List[HealthFinding]) -> str:
    """Terminal rendering of a finding list (the ``repro health`` view)."""
    if not findings:
        return "health: OK (0 findings)"
    lines = [f"health: {len(findings)} finding(s)"]
    for f in findings:
        lines.append(f"  [{f.severity}] {f.detector}: {f.summary}")
        for key in sorted(f.evidence):
            lines.append(f"      {key} = {f.evidence[key]}")
    return "\n".join(lines)


# -- configuration ------------------------------------------------------------

@dataclass(frozen=True)
class MonitorConfig:
    """Detector thresholds, grounded in the paper's operating points.

    Defaults are calibrated so a healthy Figure-8 MGPS run reports zero
    findings while the known pathologies (LLP trigger disabled, adaptive
    unbalancing frozen, flapping granularity test) fire.
    """

    # spe-starvation: idle fraction that counts as starved, provided the
    # run queue was non-empty (at least one off-load blocked for an SPE).
    spe_idle_ratio: float = 0.5
    starvation_min_waits: int = 1
    # mgps-oscillation: LLP on/off direction changes across consecutive
    # window decisions.  A healthy run settles after at most a couple.
    oscillation_toggles: int = 6
    oscillation_min_decisions: int = 8
    # window-u-saturation: "low U" is U <= saturation_u_fraction * n_spes
    # (the paper's trigger point is half the SPEs); the detector fires
    # when at least saturation_low_windows of decisions are low-U yet LLP
    # never activated.
    saturation_u_fraction: float = 0.5
    saturation_low_windows: float = 0.5
    saturation_min_decisions: int = 4
    # llp-imbalance: for loops with at least imbalance_min_invocations,
    # the mean join idle of the last third must fall below
    # imbalance_shrink_ratio x the first third's, unless it is already
    # under imbalance_floor_us (converged).
    imbalance_min_invocations: int = 9
    imbalance_shrink_ratio: float = 0.9
    imbalance_floor_us: float = 2.0
    # granularity-churn: accept<->reject reversals per function.
    churn_flips: int = 4
    # fault-storm: retried attempts / total off-load dispatches above this
    # ratio (with at least storm_min_events dispatches) means the
    # tolerance machinery is absorbing a storm rather than stray faults.
    storm_retry_ratio: float = 0.25
    storm_min_events: int = 8
    # queue-saturation: fires when rejected/arrivals exceeds
    # queue_rejection_ratio, or the p90 of the serving queue-depth
    # histogram reaches queue_depth_ratio x the admission bound.  Needs
    # at least queue_min_arrivals offered jobs; a run with no serving
    # metrics never fires it.
    queue_rejection_ratio: float = 0.1
    queue_depth_ratio: float = 0.8
    queue_min_arrivals: int = 20
    # blade-breaker: any open is worth a warning; breaker_flap_opens
    # opens with zero completed recoveries escalates to critical.
    breaker_min_opens: int = 1
    breaker_flap_opens: int = 3
    # hedge-storm: hedges / dispatched units above this ratio (with at
    # least hedge_min_units dispatched) means speculation is systemic.
    hedge_storm_ratio: float = 0.25
    hedge_min_units: int = 8
    # deadline-shedding: deadline aborts / admitted above this ratio.
    deadline_abort_ratio: float = 0.1


# -- monitor ------------------------------------------------------------------

_FLIP_PREFIX = "granularity.flips."


class HealthMonitor:
    """Runs every detector over one finished run's telemetry."""

    def __init__(self, config: Optional[MonitorConfig] = None) -> None:
        self.config = config or MonitorConfig()

    # -- detectors --------------------------------------------------------
    def _detect_spe_starvation(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        cfg = self.config
        waits = registry_value(registry, "runtime.offload_waits")
        if waits < cfg.starvation_min_waits:
            return  # run queue never backed up: idle SPEs are slack, not starvation
        utils = run.spe_utilization
        if not utils:
            return
        n_spes = run.n_spes
        starved = {
            spe: round(1.0 - u, 4)
            for spe, u in sorted(utils.items())
            if 1.0 - u > cfg.spe_idle_ratio
        }
        # SPEs that never ran a task have no gauge only in the
        # trace-fallback path; count them as fully idle.
        missing = n_spes - len(utils)
        for i in range(missing):
            starved[f"(untracked spe {i})"] = 1.0
        if not starved:
            return
        worst = max(starved.values())
        findings.append(HealthFinding(
            detector="spe-starvation",
            severity="critical" if worst > 0.75 else "warning",
            summary=(
                f"{len(starved)} of {n_spes} SPEs idled more than "
                f"{cfg.spe_idle_ratio:.0%} of the run while "
                f"{waits:.0f} off-loads blocked waiting for an SPE"
            ),
            evidence={
                "idle_ratio_by_spe": starved,
                "offload_waits": waits,
                "threshold": cfg.spe_idle_ratio,
            },
        ))

    def _detect_mgps_oscillation(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        cfg = self.config
        decisions = run.decisions
        if len(decisions) < cfg.oscillation_min_decisions:
            return
        actives = [d.active for d in decisions]
        toggles = sum(1 for a, b in zip(actives, actives[1:]) if a != b)
        if toggles < cfg.oscillation_toggles:
            return
        findings.append(HealthFinding(
            detector="mgps-oscillation",
            severity="warning",
            summary=(
                f"LLP toggled on/off {toggles} times across "
                f"{len(decisions)} window decisions — the U window is not "
                f"providing hysteresis"
            ),
            evidence={
                "toggles": toggles,
                "decisions": len(decisions),
                "toggle_rate": round(toggles / len(decisions), 4),
                "threshold": cfg.oscillation_toggles,
            },
        ))

    def _detect_window_u_saturation(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        cfg = self.config
        decisions = run.decisions
        if len(decisions) < cfg.saturation_min_decisions:
            return
        n_spes = run.n_spes
        u_low = n_spes * cfg.saturation_u_fraction
        low = [d for d in decisions if d.u <= u_low]
        llp_fired = (
            any(d.active for d in decisions)
            or registry_value(registry, "llp.invocations") > 0
        )
        if llp_fired:
            return
        low_fraction = len(low) / len(decisions)
        if low_fraction < cfg.saturation_low_windows:
            return
        findings.append(HealthFinding(
            detector="window-u-saturation",
            severity="critical",
            summary=(
                f"{low_fraction:.0%} of {len(decisions)} window decisions "
                f"saw U <= {u_low:g} (low exposed TLP on {n_spes} SPEs) "
                f"but loop-level parallelism never fired"
            ),
            evidence={
                "decisions": len(decisions),
                "low_u_decisions": len(low),
                "u_threshold": u_low,
                "llp_invocations": registry_value(registry, "llp.invocations"),
            },
        ))

    def _detect_llp_imbalance(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        cfg = self.config
        series: Dict[Tuple[str, int], List[float]] = {}
        for inv in run.loops:
            series.setdefault((inv.function, int(inv.k)), []).append(
                inv.join_idle_us)
        for (function, k), idles in sorted(series.items()):
            n = len(idles)
            if n < cfg.imbalance_min_invocations:
                continue
            third = n // 3
            first = sum(idles[:third]) / third
            last = sum(idles[-third:]) / third
            if last <= cfg.imbalance_floor_us:
                continue  # converged to negligible idle
            if last < first * cfg.imbalance_shrink_ratio:
                continue  # shrinking as the paper's feedback promises
            findings.append(HealthFinding(
                detector="llp-imbalance",
                severity="warning",
                summary=(
                    f"join idle for loop {function!r} (k={k}) is not "
                    f"shrinking: {first:.2f} us early vs {last:.2f} us "
                    f"late over {n} invocations — adaptive unbalancing "
                    f"is not converging"
                ),
                evidence={
                    "function": function,
                    "k": k,
                    "invocations": n,
                    "first_third_mean_us": round(first, 3),
                    "last_third_mean_us": round(last, 3),
                },
            ))

    def _detect_granularity_churn(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        cfg = self.config
        if registry is None:
            return
        churned: Dict[str, float] = {}
        for name in registry.names():
            if name.startswith(_FLIP_PREFIX):
                flips = registry_value(registry, name)
                if flips >= cfg.churn_flips:
                    churned[name[len(_FLIP_PREFIX):]] = flips
        if not churned:
            return
        worst_fn = max(churned, key=lambda f: churned[f])
        findings.append(HealthFinding(
            detector="granularity-churn",
            severity="warning",
            summary=(
                f"granularity test flapped accept<->reject for "
                f"{len(churned)} function(s); worst is {worst_fn!r} with "
                f"{churned[worst_fn]:.0f} reversals"
            ),
            evidence={"flips_by_function": churned,
                      "threshold": cfg.churn_flips},
        ))

    def _detect_fault_storm(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        cfg = self.config
        offloads = registry_value(registry, "runtime.offloads")
        retries = registry_value(registry, "runtime.offload_retries")
        fallbacks = registry_value(registry, "runtime.retry_fallbacks")
        attempts = offloads + fallbacks
        if attempts < cfg.storm_min_events:
            return
        failed = retries + fallbacks
        ratio = failed / attempts
        if ratio <= cfg.storm_retry_ratio:
            return
        findings.append(HealthFinding(
            detector="fault-storm",
            severity="warning",
            summary=(
                f"{failed:.0f} of {attempts:.0f} off-load attempts failed "
                f"({ratio:.0%} > {cfg.storm_retry_ratio:.0%}) — injected "
                f"faults are saturating the retry machinery"
            ),
            evidence={
                "offloads": offloads,
                "offload_retries": retries,
                "retry_fallbacks": fallbacks,
                "failed_ratio": round(ratio, 4),
                "threshold": cfg.storm_retry_ratio,
            },
        ))

    def _detect_degraded_capacity(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        kills = registry_value(registry, "faults.spe_kills")
        blacklists = registry_value(registry, "runtime.spe_blacklists")
        lost = kills + blacklists
        if lost <= 0:
            return
        n_spes = run.n_spes
        live = registry_value(registry, "run.live_spes", default=n_spes - lost)
        findings.append(HealthFinding(
            detector="degraded-capacity",
            severity="critical" if live <= 0 else "warning",
            summary=(
                f"{lost:.0f} of {n_spes} SPEs left service "
                f"({kills:.0f} killed, {blacklists:.0f} blacklisted); "
                + (
                    "no SPE survived — the whole run fell back to the PPE"
                    if live <= 0
                    else f"{live:.0f} SPEs carried the remaining load"
                )
            ),
            evidence={
                "spe_kills": kills,
                "spe_blacklists": blacklists,
                "live_spes": live,
                "n_spes": n_spes,
            },
        ))

    def _detect_queue_saturation(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        cfg = self.config
        arrivals = registry_value(registry, "serve.arrivals")
        if arrivals < cfg.queue_min_arrivals:
            return  # not a serving run (or too few jobs to judge)
        rejected = registry_value(registry, "serve.rejected")
        ratio = rejected / arrivals
        capacity = registry_value(registry, "serve.queue_capacity")
        depth = registry.get("serve.queue_depth") if registry is not None else None
        depth_p90 = (
            float(depth.percentile(90))
            if depth is not None and getattr(depth, "count", 0) else 0.0
        )
        depth_hot = (
            capacity > 0 and depth_p90 >= cfg.queue_depth_ratio * capacity
        )
        shedding = ratio > cfg.queue_rejection_ratio
        if not shedding and not depth_hot:
            return
        findings.append(HealthFinding(
            detector="queue-saturation",
            severity="critical" if shedding else "warning",
            summary=(
                f"the serving front-end shed {rejected:.0f} of "
                f"{arrivals:.0f} offered jobs ({ratio:.0%}) "
                + (
                    f"and queue depth p90 {depth_p90:.0f} ran at "
                    f">= {cfg.queue_depth_ratio:.0%} of the admission "
                    f"bound {capacity:.0f}"
                    if depth_hot
                    else f"(rejection threshold "
                    f"{cfg.queue_rejection_ratio:.0%})"
                )
            ),
            evidence={
                "arrivals": arrivals,
                "rejected": rejected,
                "rejection_ratio": round(ratio, 4),
                "queue_depth_p90": round(depth_p90, 2),
                "queue_capacity": capacity,
                "threshold": cfg.queue_rejection_ratio,
            },
        ))

    def _detect_blade_breaker(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        cfg = self.config
        opens = registry_value(registry, "serve.breaker_opens")
        if opens < cfg.breaker_min_opens:
            return
        closes = registry_value(registry, "serve.breaker_closes")
        probes = registry_value(registry, "serve.breaker_probes")
        flapping = opens >= cfg.breaker_flap_opens and closes <= 0
        findings.append(HealthFinding(
            detector="blade-breaker",
            severity="critical" if flapping else "warning",
            summary=(
                f"blade circuit breakers opened {opens:.0f} time(s) "
                + (
                    f"with no completed recovery in {probes:.0f} probes "
                    f"— a blade is stuck sick"
                    if flapping
                    else f"and closed {closes:.0f} time(s) after probing"
                )
            ),
            evidence={
                "breaker_opens": opens,
                "breaker_closes": closes,
                "breaker_probes": probes,
                "threshold": cfg.breaker_min_opens,
            },
        ))

    def _detect_hedge_storm(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        cfg = self.config
        units = registry_value(registry, "serve.dispatched_units")
        if units < cfg.hedge_min_units:
            return
        hedges = registry_value(registry, "serve.hedges")
        ratio = hedges / units
        if ratio <= cfg.hedge_storm_ratio:
            return
        wins = registry_value(registry, "serve.hedge_wins")
        findings.append(HealthFinding(
            detector="hedge-storm",
            severity="warning",
            summary=(
                f"{hedges:.0f} of {units:.0f} dispatched units were "
                f"hedged ({ratio:.0%} > {cfg.hedge_storm_ratio:.0%}) — "
                f"speculation is systemic, not tail rescue "
                f"({wins:.0f} hedge wins)"
            ),
            evidence={
                "hedges": hedges,
                "hedge_wins": wins,
                "dispatched_units": units,
                "hedge_ratio": round(ratio, 4),
                "threshold": cfg.hedge_storm_ratio,
            },
        ))

    def _detect_deadline_shedding(
        self, run: RunView, registry, findings: List[HealthFinding]
    ) -> None:
        cfg = self.config
        admitted = registry_value(registry, "serve.admitted")
        if admitted < cfg.queue_min_arrivals:
            return
        aborts = registry_value(registry, "serve.deadline_aborts")
        ratio = aborts / admitted
        if ratio <= cfg.deadline_abort_ratio:
            return
        findings.append(HealthFinding(
            detector="deadline-shedding",
            severity="warning",
            summary=(
                f"deadline enforcement shed {aborts:.0f} of "
                f"{admitted:.0f} admitted jobs ({ratio:.0%} > "
                f"{cfg.deadline_abort_ratio:.0%}) — the fleet cannot "
                f"meet the contracted deadlines at this load"
            ),
            evidence={
                "deadline_aborts": aborts,
                "admitted": admitted,
                "abort_ratio": round(ratio, 4),
                "threshold": cfg.deadline_abort_ratio,
            },
        ))

    # -- entry point ------------------------------------------------------
    def analyze(self, tracer: Optional[Tracer], registry) -> List[HealthFinding]:
        """All findings for one run, in detector-catalogue order."""
        run = read_run(tracer, registry)
        findings: List[HealthFinding] = []
        self._detect_spe_starvation(run, registry, findings)
        self._detect_mgps_oscillation(run, registry, findings)
        self._detect_window_u_saturation(run, registry, findings)
        self._detect_llp_imbalance(run, registry, findings)
        self._detect_granularity_churn(run, registry, findings)
        self._detect_fault_storm(run, registry, findings)
        self._detect_degraded_capacity(run, registry, findings)
        self._detect_queue_saturation(run, registry, findings)
        self._detect_blade_breaker(run, registry, findings)
        self._detect_hedge_storm(run, registry, findings)
        self._detect_deadline_shedding(run, registry, findings)
        return findings


def analyze_run(
    tracer: Optional[Tracer],
    registry,
    config: Optional[MonitorConfig] = None,
) -> List[HealthFinding]:
    """Convenience wrapper: one call, all detectors."""
    return HealthMonitor(config).analyze(tracer, registry)
