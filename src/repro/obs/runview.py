"""One read of a finished run, shared by the report, monitor and timeline.

The HTML report (:mod:`repro.obs.report`), the health monitor
(:mod:`repro.obs.monitor`) and the ASCII timeline
(:mod:`repro.analysis.timeline`) check the same paper properties on the
same trace: EDTLP keeps all eight SPEs fed, MGPS switches to LLP when
the window ``U`` drops to half the SPEs, and adaptive unbalancing
shrinks join idle.  :func:`read_run` folds a tracer's raw rows once, the
way :func:`repro.obs.causal.build_job_trees` does, into a
:class:`RunView` holding every fact those readers use, so none of them
scans the trace on its own.  :func:`registry_value` is the one scalar
reader of a metrics registry; it reads a ``None`` registry as empty.

SPE tasks are paired per actor.  A ``task_start`` on an actor that
still has a task open, or a ``task_end`` on one with none open, raises
:class:`ValueError`.  A task still open when the trace ends (an SPE
killed mid-task emits ``task_abort``, never ``task_end``) runs to the
makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from ..sim.trace import Row, Tracer

__all__ = [
    "Decision",
    "FAULT_EVENT_LABELS",
    "LoopInvocation",
    "RunView",
    "SERVE_FAULT_EVENTS",
    "SERVE_OPS_EVENTS",
    "SpeTask",
    "WORKFLOW_EVENTS",
    "read_run",
    "registry_value",
]


# -- event lanes ----------------------------------------------------------------

# Fault-lane events: (kind, description), kind "injected" or "recovery".
FAULT_EVENT_LABELS = {
    "spe_kill": ("injected", "SPE failed permanently"),
    "spe_blacklist": ("recovery", "SPE blacklisted by the runtime"),
    "offload_fail": ("injected", "transient off-load failure"),
    "dma_error": ("injected", "DMA transfer error"),
    "offload_retry": ("recovery", "off-load retried after backoff"),
    "retry_fallback": ("recovery", "task fell back to the PPE"),
    "llp_recovery": ("recovery", "loop chunks reclaimed from dead worker"),
    "task_abort": ("injected", "task aborted by SPE death"),
    # fleet-tier faults and the resilience layer's responses
    "blade-kill": ("injected", "node fault: blade died"),
    "blade-slow": ("injected", "blade became a straggler"),
    "blade-recover": ("recovery", "straggler blade returned to speed"),
    "blade-flap": ("injected", "blade crashed (will rejoin)"),
    "blade-rejoin": ("recovery", "flapped blade rejoined on probation"),
    "link-degrade": ("injected", "dispatch link latency degraded"),
    "link-restore": ("recovery", "dispatch link latency restored"),
    "breaker": ("recovery", "circuit breaker changed state"),
    "hedge": ("recovery", "straggling unit speculatively re-dispatched"),
    "hedge-win": ("recovery", "hedge clone finished first"),
    "hedge-cancel": ("recovery", "losing hedge copy cancelled"),
    "deadline-abort": ("injected", "job shed: deadline unreachable"),
}

# Fleet lifecycle events of the serving lane's ops log.
SERVE_OPS_EVENTS = {
    "scale-up": "autoscaler activated one more blade",
    "scale-down": "autoscaler drained and parked one blade",
    "blade-kill": "node fault: blade died",
    "failover": "orphaned jobs re-dispatched to surviving blades",
    "lost": "job lost to total fleet failure",
    "blade-slow": "node fault: blade service times stretched",
    "blade-recover": "blade slowdown ended; nominal speed restored",
    "blade-flap": "node fault: blade crashed (will rejoin)",
    "blade-rejoin": "flapped blade rejoined the fleet on probation",
    "link-degrade": "node fault: dispatch link latency added",
    "link-restore": "dispatch link latency removed",
    "breaker": "circuit breaker changed state",
    "hedge": "straggling unit speculatively re-dispatched",
    "hedge-win": "hedge copy finished first",
    "hedge-cancel": "losing hedge twin cancelled",
    "deadline-abort": "unit shed: deadline unreachable",
    "workflow-cancel": "queued job cancelled: bootstop converged",
}

# Workflow-DAG lifecycle events rendered in the ``#workflows`` lane.
WORKFLOW_EVENTS = {
    "workflow-start": "workflow submitted; first stages released",
    "stage-ready": "stage dependencies met; fan-out submitted",
    "cache-hit": "stage served from the digest-keyed result cache",
    "bootstop-converged": "support values stable: fan-out suffix cancelled",
    "stage-done": "stage resolved; downstream stages released",
    "workflow-done": "workflow complete; consensus digest folded",
}

# Serve-category events that belong in the fault lane alongside the
# category="fault" records of the offline runtime: every fault-lane
# event the serving ops log also shows.
SERVE_FAULT_EVENTS = frozenset(FAULT_EVENT_LABELS.keys()
                               & SERVE_OPS_EVENTS.keys())


# -- registry -------------------------------------------------------------------

_SPE_GAUGE = 'spe.utilization{spe="'  # then the SPE name and '"}'


def registry_value(registry, name: str, default: float = 0.0) -> float:
    """Scalar value of a counter or gauge; ``default`` when the registry
    is ``None`` or has no ``name``."""
    inst = registry.get(name) if registry is not None else None
    return default if inst is None else float(inst.value)


# -- the fold -------------------------------------------------------------------

class SpeTask(NamedTuple):
    """One task interval on one SPE; ``role`` is ``"worker"`` for an LLP
    worker chunk and ``"master"`` otherwise."""

    spe: str
    start: float
    end: float
    role: str
    function: Any
    proc: Any
    workers: Tuple[str, ...]


class Decision(NamedTuple):
    """One MGPS window decision: the ``U`` estimate and the LLP state."""

    time: float
    u: float
    active: bool


class LoopInvocation(NamedTuple):
    """One ``llp_invoke``: the loop, its schedule and its adaptation."""

    function: str
    k: Any
    schedule: str
    master_fraction: float
    join_idle_us: float
    chunks: int


@dataclass
class RunView:
    """What the report lanes and the health detectors read of one run.

    ``makespan`` is the registry's ``run.raw_makespan_s`` when positive,
    else the latest trace time.  ``n_spes`` is ``run.n_spes`` when set,
    else the number of SPE lanes, else 8.  ``lanes`` maps each SPE (in
    name order) to its tasks, open ones last; SPEs known only from the
    registry's ``spe.utilization{spe=...}`` gauges get an empty lane, so
    starvation is visible.  ``spe_utilization`` is those gauges, or busy
    time over the makespan from the lanes when the registry has none.
    """

    makespan: float = 0.0
    n_spes: int = 8
    tasks: List[SpeTask] = field(default_factory=list)  # closed, in order
    lanes: Dict[str, List[SpeTask]] = field(default_factory=dict)
    spe_utilization: Dict[str, float] = field(default_factory=dict)
    decisions: List[Decision] = field(default_factory=list)
    loops: List[LoopInvocation] = field(default_factory=list)
    fault_events: List[Row] = field(default_factory=list)
    ops_events: List[Row] = field(default_factory=list)
    workflow_events: List[Row] = field(default_factory=list)
    has_serve: bool = False


def _task(spe: str, start: float, payload: Dict[str, Any],
          end: float) -> SpeTask:
    return SpeTask(
        spe, start, end,
        "worker" if payload.get("role") == "worker" else "master",
        payload.get("function"), payload.get("proc"),
        tuple(payload.get("workers", ())),
    )


def read_run(tracer: Optional[Tracer], registry=None) -> RunView:
    """Fold one finished run's trace rows and registry into a
    :class:`RunView`, in a single pass over ``tracer.rows``."""
    run = RunView()
    opened: Dict[str, Tuple[float, Dict[str, Any]]] = {}
    last = 0.0
    for row in (tracer.rows if tracer is not None else ()):
        time, cat, actor, event, p = row
        if time > last:
            last = time
        if cat == "spe":
            if event == "task_start":
                if actor in opened:
                    raise ValueError(f"nested task_start on {actor}")
                opened[actor] = (time, p)
            elif event == "task_end":
                if actor not in opened:
                    raise ValueError(f"task_end without task_start on {actor}")
                run.tasks.append(_task(actor, *opened.pop(actor), time))
            elif event == "task_abort":
                run.fault_events.append(row)
        elif cat == "llp":
            if event == "llp_invoke":
                run.loops.append(LoopInvocation(
                    str(p.get("function")), p.get("k", 0),
                    str(p.get("schedule", "static")),
                    float(p.get("master_fraction", 0.0)),
                    float(p.get("join_idle_us", 0.0)),
                    sum(p.get("chunk_counts", ()) or ()),
                ))
        elif cat == "sched":
            if event == "decision":
                run.decisions.append(Decision(
                    time, float(p.get("u", 0)), bool(p.get("active"))))
        elif cat == "fault":
            run.fault_events.append(row)
        elif cat == "serve":
            run.has_serve = True
            if event in SERVE_FAULT_EVENTS:
                run.fault_events.append(row)
            if event in SERVE_OPS_EVENTS:
                run.ops_events.append(row)
            if event in WORKFLOW_EVENTS or event == "workflow-cancel":
                run.workflow_events.append(row)

    raw = registry_value(registry, "run.raw_makespan_s")
    run.makespan = makespan = raw if raw > 0 else last
    gauges = {name[len(_SPE_GAUGE):-2]: registry_value(registry, name)
              for name in (registry.names() if registry is not None else ())
              if name.startswith(_SPE_GAUGE)}
    lanes: Dict[str, List[SpeTask]] = {actor: [] for actor in gauges}
    for task in run.tasks:
        lanes.setdefault(task.spe, []).append(task)
    for actor, (start, p) in opened.items():
        lanes.setdefault(actor, []).append(_task(actor, start, p, makespan))
    run.lanes = {actor: lanes[actor] for actor in sorted(lanes)}
    run.spe_utilization = gauges
    if not gauges and makespan > 0:
        busy: Dict[str, float] = {}
        for actor, lane in run.lanes.items():
            for task in lane:
                busy[actor] = busy.get(actor, 0.0) + task.end - task.start
        run.spe_utilization = {a: b / makespan for a, b in busy.items()}
    n_spes = int(registry_value(registry, "run.n_spes"))
    run.n_spes = n_spes if n_spes > 0 else len(lanes) or 8
    return run
