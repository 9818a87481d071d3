"""The off-load granularity test (Section 5.2).

The EDTLP scheduler off-loads a task only when

    t_spe + t_code + 2 * t_comm  <  t_ppe

Since task lengths are unknown a priori, the scheduler *optimistically*
off-loads the first invocation of each user-annotated function, measures
it, and throttles subsequent off-loads of functions that fail the test
(they execute on the PPE instead, using the PPE version that the original
MPI code already contains).  ``t_code`` is zero for every execution after
the first because the runtime preloads and keeps SPE images resident.

Two robustness details beyond the paper's one-line description:

* the test compares per-function EWMAs on both sides — individual
  invocations of the same function vary widely with traversal size, and
  comparing one noisy sample against another flaps the decision;
* throttled functions are *re-probed* every ``reprobe_interval`` requests
  — otherwise a single slow SPE measurement (e.g. taken under transient
  bus contention) would throttle a function forever, because a throttled
  function never gets re-measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..obs.metrics import NULL_REGISTRY
from ..workloads.taskspec import TaskSpec

__all__ = ["GranularityGovernor", "OffloadDecision"]


@dataclass(frozen=True)
class OffloadDecision:
    """Outcome of the granularity test for one off-load request."""

    offload: bool
    reason: str  # "disabled" | "optimistic" | "pass" | "fail" | "reprobe"


# One shared, immutable decision per reason.
_DISABLED = OffloadDecision(True, "disabled")
_OPTIMISTIC = OffloadDecision(True, "optimistic")
_PASS = OffloadDecision(True, "pass")
_FAIL = OffloadDecision(False, "fail")
_REPROBE = OffloadDecision(True, "reprobe")


class GranularityGovernor:
    """Per-function optimistic off-load with measured-time throttling."""

    def __init__(
        self,
        t_comm: float,
        enabled: bool = True,
        ewma_alpha: float = 0.02,
        reprobe_interval: int = 30,
        metrics: Optional[object] = None,
    ) -> None:
        if t_comm < 0:
            raise ValueError("t_comm must be non-negative")
        if not (0.0 < ewma_alpha <= 1.0):
            raise ValueError("ewma_alpha must be in (0, 1]")
        if reprobe_interval < 1:
            raise ValueError("reprobe_interval must be >= 1")
        self.t_comm = t_comm
        self.enabled = enabled
        self.ewma_alpha = ewma_alpha
        self.reprobe_interval = reprobe_interval
        self._measured_spe: Dict[str, float] = {}
        self._measured_ppe: Dict[str, float] = {}
        self._throttle_streak: Dict[str, int] = {}
        self._last_decision: Dict[str, bool] = {}
        self.flips: Dict[str, int] = {}
        self.throttled = 0
        self.offloaded = 0
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        m = self._metrics
        # With the null registry every inc is a no-op; one flag lets the
        # per-request path skip the calls entirely.
        self._metrics_on = m is not NULL_REGISTRY
        self._m_accept = m.counter(
            "granularity.accept", "off-load requests that passed the test"
        )
        self._m_reject = m.counter(
            "granularity.reject", "off-load requests throttled to the PPE"
        )
        self._m_flips = m.counter(
            "granularity.flips",
            "accept<->reject decision reversals across all functions",
        )
        self._m_reason = {
            reason: m.counter(f"granularity.decision.{reason}")
            for reason in ("disabled", "optimistic", "pass", "fail", "reprobe")
        }

    def _note(self, function: str, decision: OffloadDecision) -> OffloadDecision:
        offload = decision.offload
        if self._metrics_on:
            (self._m_accept if offload else self._m_reject).inc()
            self._m_reason[decision.reason].inc()
        # Flip tracking: a stable function decides the same way every
        # time; accept->reject churn (measurement noise, a borderline
        # kernel) is the health monitor's granularity-churn signal.
        prev = self._last_decision.get(function)
        if prev is not offload:
            if prev is not None:
                self.flips[function] = self.flips.get(function, 0) + 1
                if self._metrics_on:
                    self._m_flips.inc()
                    self._metrics.counter(
                        f"granularity.flips.{function}",
                        "accept<->reject decision reversals for one function",
                    ).inc()
            self._last_decision[function] = offload
        return decision

    def decide(self, task: TaskSpec, t_code: float = 0.0) -> OffloadDecision:
        """Should ``task`` be off-loaded?

        ``t_code`` is the code-shipping cost the off-load would pay now
        (non-zero only when the needed image is not resident).
        """
        # Track the PPE-side expectation from every request we see.
        self.record_ppe(task.function, task.ppe_time)
        if not self.enabled:
            self.offloaded += 1
            return self._note(task.function, _DISABLED)
        t_spe = self._measured_spe.get(task.function)
        if t_spe is None:
            self.offloaded += 1
            return self._note(task.function, _OPTIMISTIC)
        t_ppe = self._measured_ppe[task.function]
        if t_spe + t_code + 2.0 * self.t_comm < t_ppe:
            self.offloaded += 1
            self._throttle_streak[task.function] = 0
            return self._note(task.function, _PASS)
        streak = self._throttle_streak.get(task.function, 0) + 1
        if streak >= self.reprobe_interval:
            # Refresh the SPE measurement rather than throttling forever.
            self._throttle_streak[task.function] = 0
            self.offloaded += 1
            return self._note(task.function, _REPROBE)
        self._throttle_streak[task.function] = streak
        self.throttled += 1
        return self._note(task.function, _FAIL)

    def record_spe(self, function: str, duration: float) -> None:
        """Feed back a measured SPE execution time."""
        prev = self._measured_spe.get(function)
        a = self.ewma_alpha
        self._measured_spe[function] = (
            duration if prev is None else (1 - a) * prev + a * duration
        )

    def record_ppe(self, function: str, duration: float) -> None:
        """Feed back a measured (or requested) PPE execution time."""
        prev = self._measured_ppe.get(function)
        a = self.ewma_alpha
        self._measured_ppe[function] = (
            duration if prev is None else (1 - a) * prev + a * duration
        )
