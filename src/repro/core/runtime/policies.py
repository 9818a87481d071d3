"""The paper's four schedulers as thin policy objects over one engine.

Each policy is pure decision state; all mechanics (SPE acquisition, DMA
timing, the tolerant off-load path) live in
:class:`~repro.core.runtime.engine.OffloadEngine`.  Measured differences
between schedulers are therefore attributable to policy alone:

* :class:`LinuxPolicy` — the baseline: each MPI process owns one pinned
  SPE and **spins** on off-load completion.  Because the spin (~96 us) is
  far shorter than the OS quantum (10 ms), the OS never switches at
  off-load points and at most two off-loads are in flight (Section 5.2,
  Figure 2b, Table 1 right column).
* :class:`EDTLPPolicy` — event-driven task-level parallelism: processes
  *block* at off-load points (a voluntary context switch), so the PPE
  dispatches for every runnable MPI process and all SPEs stay fed.
* :class:`StaticHybridPolicy` — EDTLP plus always-on loop-level
  parallelism with a fixed degree (the EDTLP-LLP scheme of Figure 7).
* :class:`MGPSPolicy` — the paper's contribution: EDTLP extended with
  the feedback-guided LLP trigger/throttle of Section 5.4.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from ..history import UtilizationHistory
from .policy import SchedulingPolicy, register_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import ProcContext
    from .engine import OffloadEngine

__all__ = [
    "LinuxPolicy",
    "EDTLPPolicy",
    "StaticHybridPolicy",
    "MGPSPolicy",
]


class LinuxPolicy(SchedulingPolicy):
    """Naive MPI mapping: pinned SPEs, spin-wait, OS time slicing."""

    name = "linux"
    description = ("OS-scheduler baseline: one pinned SPE per process, "
                   "busy-wait at off-load points (Table 1 right column)")
    pinned = True
    spin = True


class EDTLPPolicy(SchedulingPolicy):
    """Event-driven task-level parallelism (Section 5.2)."""

    name = "edtlp"
    description = ("event-driven TLP: block at off-load points, any idle "
                   "SPE from the shared pool, no loop parallelism")


class StaticHybridPolicy(SchedulingPolicy):
    """EDTLP with always-on loop parallelism of fixed degree (EDTLP-LLP)."""

    description = ("EDTLP plus always-on loop-level parallelism with a "
                   "fixed degree (Figure 7's EDTLP-LLP)")

    def __init__(self, degree: int = 2) -> None:
        super().__init__()
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.name = f"edtlp-llp{degree}"

    def llp_degree(self, ctx: "ProcContext") -> int:
        return self.degree


class MGPSPolicy(SchedulingPolicy):
    """Multigrain parallelism scheduling: adaptive EDTLP + LLP.

    Keeps the Section 5.4 utilization-history window; every ``window``-th
    off-load it re-evaluates the exposed TLP degree ``U`` and toggles
    loop-level parallelism with degree ``floor(n_spes / T)``.  A staleness
    guard resets the window after long off-load droughts (the role the
    paper assigns to timer interrupts).
    """

    name = "mgps"
    description = ("adaptive multigrain scheduling: utilization-history "
                   "window toggles LLP with degree floor(n_spes/T) "
                   "(Section 5.4)")

    def __init__(
        self,
        window: Optional[int] = None,
        staleness: float = 20e-3,
        max_degree: Optional[int] = None,
        llp_u_threshold: Optional[int] = None,
    ) -> None:
        super().__init__()
        self._window = window
        self._llp_u_threshold = llp_u_threshold
        self.staleness = staleness
        # Beyond ~half the SPEs per loop, per-worker overheads dominate
        # (Table 2: "using five or more SPE threads decreases
        # efficiency"), so MGPS caps the LLP degree there.  The cap
        # follows the *live* SPE count when not pinned explicitly.
        self._auto_max_degree = max_degree is None
        self.max_degree = max_degree if max_degree is not None else 0
        self.llp_active = False
        self.current_degree = 1
        self._last_dispatch = 0.0

    def bind(self, engine: "OffloadEngine") -> None:
        super().bind(engine)
        n = engine.machine.n_spes
        self.history = UtilizationHistory(
            n, self._window, metrics=engine.metrics,
            llp_threshold=self._llp_u_threshold,
        )
        if self._auto_max_degree:
            self.max_degree = max(2, n // 2)
        self._metrics_on = engine._metrics_on
        self._m_decisions = engine.metrics.counter(
            "mgps.decisions", "window-boundary LLP policy evaluations"
        )
        self._m_mode_switches = engine.metrics.counter(
            "mgps.mode_switches", "LLP activation/degree changes"
        )
        self._m_window_resets = engine.metrics.counter(
            "mgps.window_resets", "history resets after off-load droughts"
        )
        self._m_degree = engine.metrics.gauge(
            "mgps.degree", "current LLP degree (1 = serial tasks)"
        )
        self._m_llp_active = engine.metrics.gauge(
            "mgps.llp_active", "1 while loop-level parallelism is on"
        )
        self._source_samples = deque(maxlen=self.history.window)

    def llp_degree(self, ctx: "ProcContext") -> int:
        return self.current_degree if self.llp_active else 1

    def on_dispatch(self, time: float) -> None:
        if self._last_dispatch and time - self._last_dispatch > self.staleness:
            # Off-load drought: old U samples say nothing about the
            # present.  (Paper: timer-interrupt-driven adaptation.)
            self.history.reset()
            self._source_samples.clear()
            if self._metrics_on:
                self._m_window_resets.inc()
        self._last_dispatch = time
        self._source_samples.append(
            self.engine.current_sources(include_dispatcher=True)
        )
        if self.history.note_dispatch(time):
            self._decide()

    def on_departure(self, start: float, end: float) -> None:
        self.history.note_departure(start, end)

    def on_capacity_change(self) -> None:
        """Re-baseline MGPS on the surviving SPE set.

        Called after every kill or blacklist: the utilization-history
        window, the LLP activation threshold and the degree formula
        ``floor(n_live / T)`` all shrink to the live capacity, so the
        scheduler degrades gracefully instead of over-committing loop
        workers it can no longer acquire.
        """
        engine = self.engine
        n_live = max(1, engine.machine.pool.n_live)
        self.history.resize(n_live)
        if self._auto_max_degree:
            self.max_degree = min(n_live, max(2, n_live // 2))
        if self.current_degree > self.max_degree:
            self.current_degree = self.max_degree
            if self.current_degree <= 1:
                self.llp_active = False
                self.current_degree = 1
            engine.stats.llp_mode_switches += 1
            if self._metrics_on:
                self._m_mode_switches.inc()
                self._m_degree.set(self.current_degree)
                self._m_llp_active.set(1 if self.llp_active else 0)
        if engine.tracer is not None:
            engine.tracer.emit(
                engine.env.now, "sched", "mgps", "capacity_change",
                live_spes=engine.machine.pool.n_live,
                window=self.history.window,
                max_degree=self.max_degree,
                degree=self.current_degree,
            )

    def _decide(self) -> None:
        # T: the most task sources seen at any recent dispatch -- the
        # conservative estimate (momentary dips must not inflate the
        # loop degree and strand acquisitions).
        t = max(self._source_samples) if self._source_samples else 1
        active, degree = self.history.llp_decision(t)
        degree = min(degree, self.max_degree)
        active = active and degree > 1
        switched = active != self.llp_active or (
            active and degree != self.current_degree
        )
        if switched:
            self.engine.stats.llp_mode_switches += 1
        self.llp_active = active
        self.current_degree = degree if active else 1
        if self._metrics_on:
            if switched:
                self._m_mode_switches.inc()
            self._m_decisions.inc()
            self._m_degree.set(self.current_degree)
            self._m_llp_active.set(1 if active else 0)
        if self.engine.tracer is not None:
            self.engine.tracer.emit(
                self._last_dispatch, "sched", "mgps", "decision",
                u=self.history.u_estimate, t=t, active=active,
                degree=self.current_degree,
            )


# -- the built-in registry entries -------------------------------------------

register_policy(
    "linux",
    lambda spec: LinuxPolicy(),
    description=LinuxPolicy.description,
)
register_policy(
    "edtlp",
    lambda spec: EDTLPPolicy(),
    description=EDTLPPolicy.description,
)
register_policy(
    "static_hybrid",
    lambda spec: StaticHybridPolicy(degree=spec.llp_degree),
    description=StaticHybridPolicy.description,
    knobs=("llp_degree",),
)
register_policy(
    "mgps",
    lambda spec: MGPSPolicy(
        window=spec.history_window, llp_u_threshold=spec.llp_u_threshold
    ),
    description=MGPSPolicy.description,
    knobs=("history_window", "llp_u_threshold"),
)
