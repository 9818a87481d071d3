"""The blade fleet: compiled jobs, per-blade state, node-level faults.

A serving fleet multiplexes many small jobs over blades that each behave
exactly like the single-blade simulator: a job's service demand and its
result digest come from an actual :func:`~repro.core.runner
.run_experiment` run of its bootstrap bag under the configured
scheduler.  Because jobs are drawn from a small template × variant
space, the :class:`JobCompiler` memoizes one blade-level run per
distinct bag and every request referencing that bag reuses the makespan
and digest — the serving simulation stays cheap no matter how many
thousands of requests stream through.

:class:`BladeState` is the passive per-node record (queue, liveness,
activation, busy accounting); the serving loops in
:mod:`repro.serve.service` drive it.  :class:`FleetFaultPlan` declares
node-level faults, the fleet analogue of the SPE-level
:class:`~repro.faults.FaultPlan`:

* :class:`BladeKill` — a blade dies permanently at time T;
* :class:`BladeSlow` — the straggler case: a blade's service times are
  multiplied by ``factor`` (with optional seeded lognormal jitter) from
  time T, optionally recovering after ``duration`` seconds;
* :class:`BladeFlap` — a blade crashes at T (drain + requeue, like a
  kill) but rejoins ``down_s`` seconds later and must be re-admitted;
* :class:`LinkDegrade` — the front-end→blade dispatch path gains
  ``added_latency_s`` seconds per unit from time T, optionally
  recovering after ``duration``.

Plans carry their own ``seed``; any random draw (slow-factor jitter) is
taken from a named :class:`~repro.sim.rng.RngStreams` substream keyed
by fault kind and blade, so the same plan replays the exact same fault
sequence — chaos runs are diffable, never flaky.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from itertools import compress
from typing import Deque, Dict, List, Optional, Tuple

from ..cell.params import BladeParams
from ..core.runner import run_experiment
from ..core.schedulers import SchedulerSpec, edtlp, linux, mgps
from ..faults.plan import parse_entries
from ..sim.engine import Environment
from ..sim.events import Event
from ..sim.trace import tracer_of
from ..workloads.traces import Workload
from .admission import DispatchUnit
from .jobs import JobTemplate, job_seed

__all__ = [
    "CompiledJob",
    "JobCompiler",
    "BladeState",
    "QueueTally",
    "BladeKill",
    "BladeSlow",
    "BladeFlap",
    "LinkDegrade",
    "FleetFaultPlan",
    "scheduler_by_name",
    "available_blade_schedulers",
]

_SCHEDULERS = {"linux": linux, "edtlp": edtlp, "mgps": mgps}


def scheduler_by_name(name: str) -> SchedulerSpec:
    """Resolve a blade-level scheduler spec by registry name."""
    try:
        return _SCHEDULERS[name]()
    except KeyError:
        known = ", ".join(sorted(_SCHEDULERS))
        raise ValueError(
            f"unknown blade scheduler {name!r}; known schedulers: {known}"
        ) from None


def available_blade_schedulers() -> List[str]:
    """Every blade-level scheduler name accepted by ServeConfig."""
    return sorted(_SCHEDULERS)


@dataclass(frozen=True)
class CompiledJob:
    """One (template, variant) bag, executed once and memoized."""

    template: str
    variant: int
    service_time: float   # paper-scale makespan of the bag on one blade
    digest: str           # ResultLedger run digest — the job's "answer"
    bootstraps: int


class JobCompiler:
    """Memoizing bridge from job templates to blade-level runs.

    The digest attached to a compiled job is rank/blade/order
    independent (see :class:`~repro.core.results.ResultLedger`), which
    is what makes "same digest under any dispatch policy or fault plan"
    a checkable invariant rather than a hope.
    """

    def __init__(
        self,
        spec: SchedulerSpec,
        blade: BladeParams,
        root_seed: int,
    ) -> None:
        self.spec = spec
        self.blade = blade
        self.root_seed = root_seed
        self._cache: Dict[Tuple[str, int], CompiledJob] = {}
        self.compilations = 0

    def compile(self, template: JobTemplate, variant: int) -> CompiledJob:
        key = (template.name, variant)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        wl = Workload(
            bootstraps=template.bootstraps,
            tasks_per_bootstrap=template.tasks_per_bootstrap,
            seed=job_seed(self.root_seed, template.name, variant),
        )
        result = run_experiment(self.spec, wl, blade=self.blade,
                                seed=self.root_seed)
        compiled = CompiledJob(
            template=template.name,
            variant=variant,
            service_time=result.makespan,
            digest=result.result_digest,
            bootstraps=result.bootstraps_completed,
        )
        self._cache[key] = compiled
        self.compilations += 1
        return compiled


class QueueTally:
    """Units queued across one fleet's blades.

    Every :class:`BladeState` queue op adjusts it, so it always equals
    the sum of the blades' ``queue_depth``.
    """

    __slots__ = ("units",)

    def __init__(self) -> None:
        self.units = 0


class BladeState:
    """Passive state of one fleet node.

    ``alive`` goes false when a :class:`BladeKill` or :class:`BladeFlap`
    fires (:meth:`rejoin` reverses a flap); ``active`` toggles with the
    autoscaler.  ``busy_s(now)`` includes the currently open service
    segment so utilization sampling never misses in-progress work.
    ``slow_factor`` and ``dispatch_delay_s`` are the live fault state a
    :class:`BladeSlow` / :class:`LinkDegrade` imposes on the node.
    """

    def __init__(self, env: Environment, index: int, active: bool = True,
                 tally: Optional[QueueTally] = None) -> None:
        self.env = env
        self.index = index
        self.name = f"blade{index}"
        self.tracer = tracer_of(env.sinks)
        self.alive = True
        self.active = active
        # FIFO of queued units; deque so the head pop the blade loop
        # performs per unit is O(1) at any backlog depth.  ``_queued_s``
        # runs alongside it with each unit's service seconds, taken once
        # at push; every queue mutation goes through the methods below,
        # which keep the two in step.
        self.queue: Deque[DispatchUnit] = deque()
        self._queued_s: Deque[float] = deque()
        self._tally = tally if tally is not None else QueueTally()
        self.running: Optional[DispatchUnit] = None
        self.busy_until = 0.0     # absolute time the running unit finishes
        self.units_run = 0
        self.jobs_run = 0
        self.slow_factor = 1.0        # BladeSlow: service-time multiplier
        self.dispatch_delay_s = 0.0   # LinkDegrade: extra per-unit latency
        self.wake: Event = env.event()
        self.death: Event = env.event()
        self._busy_acc = 0.0
        self._seg_start: Optional[float] = None

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    @property
    def backlog_s(self) -> float:
        """Residual running time plus queued service seconds.

        ``sum`` folds the same floats in the same order as summing
        ``u.service_time`` over the queue would, so the value is
        bit-identical to that on any interpreter, whether its ``sum`` is
        plain or compensated; only the per-unit re-derivation is gone.
        A unit's service time cannot change while it is queued: its job
        list is rewritten only after it leaves the queue.
        """
        residual = max(0.0, self.busy_until - self.env.now)
        return residual + sum(self._queued_s)

    # -- busy accounting ---------------------------------------------------
    def mark_busy(self) -> None:
        if self._seg_start is None:
            self._seg_start = self.env.now

    def mark_idle(self) -> None:
        if self._seg_start is not None:
            self._busy_acc += self.env.now - self._seg_start
            self._seg_start = None

    def busy_s(self, now: Optional[float] = None) -> float:
        total = self._busy_acc
        if self._seg_start is not None:
            total += (self.env.now if now is None else now) - self._seg_start
        return total

    # -- queue ops ---------------------------------------------------------
    def push(self, unit: DispatchUnit) -> None:
        unit.blade = self.index
        self.queue.append(unit)
        self._queued_s.append(unit.service_time)
        self._tally.units += 1
        if self.tracer is not None:
            # Arrival-at-blade record: gives the windowed sampler an
            # exact per-blade queue-depth step function.
            self.tracer.emit(self.env.now, "serve", self.name, "enqueue",
                             unit=unit.seq, depth=len(self.queue))
        if not self.wake.triggered:
            self.wake.succeed()

    def pop_next(self) -> Optional[DispatchUnit]:
        if not self.queue:
            return None
        self._queued_s.popleft()
        self._tally.units -= 1
        return self.queue.popleft()

    def steal_newest(self) -> Optional[DispatchUnit]:
        if not self.queue:
            return None
        self._queued_s.pop()
        self._tally.units -= 1
        return self.queue.pop()

    def remove(self, unit: DispatchUnit) -> bool:
        """Take ``unit`` out of the queue; False when it is not queued."""
        try:
            i = self.queue.index(unit)
        except ValueError:
            return False
        del self.queue[i]
        del self._queued_s[i]
        self._tally.units -= 1
        return True

    def drain(self) -> List[DispatchUnit]:
        """Take every queued unit (for failover / deactivation)."""
        units = list(self.queue)
        self.queue.clear()
        self._queued_s.clear()
        self._tally.units -= len(units)
        return units

    def purge_cancelled(self) -> int:
        """Drop queued units with no runnable work left; returns count.

        Workflow cancellation marks *jobs*, not units.  A queued unit
        whose members are all finished, aborted or cancelled would still
        charge dispatch overhead at pickup, so the cancel path sweeps it
        out of the queue here.  Mixed units survive — the blade loop's
        per-job guards skip their dead members.
        """
        live = [
            any(j.finish_time is None and not j.aborted and not j.cancelled
                for j in u.jobs)
            for u in self.queue
        ]
        removed = live.count(False)
        if removed:
            self.queue = deque(compress(self.queue, live))
            self._queued_s = deque(compress(self._queued_s, live))
            self._tally.units -= removed
        return removed

    def kill(self) -> None:
        self.alive = False
        self.active = False
        if not self.death.triggered:
            self.death.succeed()

    def rejoin(self) -> None:
        """Bring a flapped blade back: fresh liveness and fresh events.

        The old ``death`` event stays triggered for whoever was watching
        the crash; the rejoined node needs untriggered ``death``/``wake``
        events before its new blade loop starts.
        """
        self.alive = True
        self.active = True
        self.death = self.env.event()
        self.wake = self.env.event()


@dataclass(frozen=True)
class BladeKill:
    """One node-level fault: blade ``blade`` dies at time ``at``."""

    blade: int
    at: float

    def __post_init__(self) -> None:
        if self.blade < 0:
            raise ValueError("blade index must be >= 0")
        if self.at < 0:
            raise ValueError("kill time must be >= 0")


@dataclass(frozen=True)
class BladeSlow:
    """The straggler fault: blade service times stretch by ``factor``.

    From time ``at`` every service segment on the blade takes ``factor``
    times its nominal duration (optionally perturbed once by a seeded
    lognormal draw of sigma ``jitter``); when ``duration`` is set the
    blade recovers to nominal speed at ``at + duration``.
    """

    blade: int
    at: float
    factor: float
    jitter: float = 0.0
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.blade < 0:
            raise ValueError("blade index must be >= 0")
        if self.at < 0:
            raise ValueError("slow time must be >= 0")
        if self.factor < 1.0:
            raise ValueError(f"slow factor must be >= 1.0, got {self.factor}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("slow duration must be positive when set")


@dataclass(frozen=True)
class BladeFlap:
    """Crash at ``at``, rejoin ``down_s`` seconds later.

    The crash behaves exactly like a kill (running and queued work is
    requeued to survivors); the rejoin re-admits the node, which the
    resilience layer treats as probation (half-open breaker).
    """

    blade: int
    at: float
    down_s: float

    def __post_init__(self) -> None:
        if self.blade < 0:
            raise ValueError("blade index must be >= 0")
        if self.at < 0:
            raise ValueError("flap time must be >= 0")
        if self.down_s <= 0:
            raise ValueError("down_s must be positive")


@dataclass(frozen=True)
class LinkDegrade:
    """Front-end→blade dispatch path gains ``added_latency_s`` per unit.

    Models a degraded interconnect: every unit picked up by the blade
    pays the extra latency on top of the configured dispatch overhead.
    Recovers at ``at + duration`` when ``duration`` is set.
    """

    blade: int
    at: float
    added_latency_s: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.blade < 0:
            raise ValueError("blade index must be >= 0")
        if self.at < 0:
            raise ValueError("degrade time must be >= 0")
        if self.added_latency_s <= 0:
            raise ValueError("added_latency_s must be positive")
        if self.duration is not None and self.duration <= 0:
            raise ValueError("degrade duration must be positive when set")


def _opt_float(value) -> Optional[float]:
    return None if value is None else float(value)


@dataclass(frozen=True)
class FleetFaultPlan:
    """Declarative node-fault schedule for a serving run.

    The fleet analogue of :class:`~repro.faults.FaultPlan`: kills and
    flaps take a blade's running and queued work with them and the
    serving layer must fail all of it over with digests unchanged;
    slows and degrades stretch the timeline without touching results.
    ``seed`` feeds the per-fault RNG substreams (slow-factor jitter).
    """

    kills: Tuple[BladeKill, ...] = ()
    slows: Tuple[BladeSlow, ...] = ()
    flaps: Tuple[BladeFlap, ...] = ()
    degrades: Tuple[LinkDegrade, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kills", tuple(self.kills))
        object.__setattr__(self, "slows", tuple(self.slows))
        object.__setattr__(self, "flaps", tuple(self.flaps))
        object.__setattr__(self, "degrades", tuple(self.degrades))
        for kind, faults in (("killed", self.kills), ("slowed", self.slows),
                             ("flapped", self.flaps),
                             ("degraded", self.degrades)):
            seen = set()
            for f in faults:
                if f.blade in seen:
                    raise ValueError(f"blade {f.blade} is {kind} twice")
                seen.add(f.blade)
        overlap = ({k.blade for k in self.kills}
                   & {f.blade for f in self.flaps})
        if overlap:
            raise ValueError(
                f"blade {sorted(overlap)[0]} is both killed and flapped; "
                f"a kill is permanent"
            )

    @property
    def blades(self) -> Tuple[int, ...]:
        """Every blade index any fault in the plan touches, sorted."""
        return tuple(sorted(
            {f.blade for group in (self.kills, self.slows, self.flaps,
                                   self.degrades) for f in group}
        ))

    @property
    def is_null(self) -> bool:
        return not (self.kills or self.slows or self.flaps or self.degrades)

    def to_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "kills": [{"blade": k.blade, "at": k.at} for k in self.kills],
            "slows": [
                {"blade": s.blade, "at": s.at, "factor": s.factor,
                 "jitter": s.jitter, "duration": s.duration}
                for s in self.slows
            ],
            "flaps": [
                {"blade": f.blade, "at": f.at, "down_s": f.down_s}
                for f in self.flaps
            ],
            "degrades": [
                {"blade": d.blade, "at": d.at,
                 "added_latency_s": d.added_latency_s,
                 "duration": d.duration}
                for d in self.degrades
            ],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FleetFaultPlan":
        (plan,) = parse_entries("fleet fault plan", cls, {
            "seed": int,
            "kills": lambda v: parse_entries(
                "blade kill", BladeKill, {"blade": int, "at": float}, v),
            "slows": lambda v: parse_entries(
                "blade slow", BladeSlow,
                {"blade": int, "at": float, "factor": float,
                 "jitter": float, "duration": _opt_float}, v),
            "flaps": lambda v: parse_entries(
                "blade flap", BladeFlap,
                {"blade": int, "at": float, "down_s": float}, v),
            "degrades": lambda v: parse_entries(
                "link degrade", LinkDegrade,
                {"blade": int, "at": float, "added_latency_s": float,
                 "duration": _opt_float}, v),
        }, [json.loads(text)])
        return plan

    def describe(self) -> str:
        if self.is_null:
            return "no node faults"
        parts = []
        for k in self.kills:
            parts.append(f"kill blade{k.blade}@{k.at:g}s")
        for s in self.slows:
            span = f" for {s.duration:g}s" if s.duration is not None else ""
            parts.append(
                f"slow blade{s.blade}@{s.at:g}s x{s.factor:g}{span}"
            )
        for f in self.flaps:
            parts.append(
                f"flap blade{f.blade}@{f.at:g}s down {f.down_s:g}s"
            )
        for d in self.degrades:
            span = f" for {d.duration:g}s" if d.duration is not None else ""
            parts.append(
                f"degrade link blade{d.blade}@{d.at:g}s "
                f"+{d.added_latency_s:g}s{span}"
            )
        return "; ".join(parts)
