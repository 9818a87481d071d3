"""MGPS's utilization history window (Section 5.4).

The scheduler keeps a sliding window whose length equals the number of
SPEs (8 off-loads of hysteresis).  For every off-load it records the
dispatch time; on each departure it derives ``U`` — how many discrete
tasks were off-loaded to SPEs while the departing task executed (i.e. the
degree of task-level parallelism the application exposed).  Every
``window``-th off-load the scheduler evaluates the smoothed ``U`` and
decides whether to activate loop-level parallelism (``U <= n_spes/2``)
and with what degree (``floor(n_spes / T)`` for ``T`` waiting tasks).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Deque, Optional, Tuple

from ..obs.metrics import NULL_REGISTRY

__all__ = ["UtilizationHistory"]


class UtilizationHistory:
    """Sliding-window estimator of exposed task-level parallelism."""

    def __init__(
        self,
        n_spes: int,
        window: Optional[int] = None,
        metrics: Optional[object] = None,
        llp_threshold: Optional[int] = None,
    ) -> None:
        if n_spes < 1:
            raise ValueError("n_spes must be >= 1")
        self.n_spes = n_spes
        self._auto_window = window is None
        self.window = window if window is not None else n_spes
        if self.window < 1:
            raise ValueError("window must be >= 1")
        # LLP activates when U <= llp_threshold (the paper uses half the
        # SPEs).  0 disables the trigger entirely — a deliberately broken
        # configuration the health monitor is expected to flag.
        self._auto_threshold = llp_threshold is None
        self.llp_threshold = (
            n_spes // 2 if llp_threshold is None else llp_threshold
        )
        if self.llp_threshold < 0:
            raise ValueError("llp_threshold must be >= 0")
        self._dispatch_times: Deque[float] = deque(maxlen=4 * self.window)
        self._u_samples: Deque[int] = deque(maxlen=self.window)
        self.dispatches = 0
        self.departures = 0
        m = metrics if metrics is not None else NULL_REGISTRY
        # With the null registry nothing is published, so a departure
        # skips the observe and the window mean entirely.
        self._metrics_on = m is not NULL_REGISTRY
        self._m_u = m.histogram(
            "mgps.u_sample", buckets=tuple(range(1, 17)),
            help="per-departure exposed-TLP samples (U)",
        )
        self._m_u_estimate = m.gauge(
            "mgps.u_estimate", "rolling-window mean of U (rounded)"
        )
        self._m_window_util = m.gauge(
            "mgps.window_utilization", "window utilization U / n_spes"
        )

    # -- recording ---------------------------------------------------------
    def note_dispatch(self, time: float) -> bool:
        """Record an off-load; returns True when a decision point is due
        (every ``window``-th off-load)."""
        self._dispatch_times.append(time)
        self.dispatches += 1
        return self.dispatches % self.window == 0

    def note_departure(self, start: float, end: float) -> int:
        """Record a task completion; returns its ``U`` sample.

        ``U`` counts the departing task plus tasks dispatched *strictly
        after* it started (its own dispatch at ``start`` is not counted
        twice), capped at the SPE count.  Dispatch times arrive in
        simulated-time order, so the window is sorted and the count in
        ``(start, end]`` is two bisections.
        """
        if end < start:
            raise ValueError("departure interval is inverted")
        self.departures += 1
        times = self._dispatch_times
        u = 1 + bisect_right(times, end) - bisect_right(times, start)
        u = max(1, min(u, self.n_spes))
        self._u_samples.append(u)
        if self._metrics_on:
            self._m_u.observe(u)
            estimate = self.u_estimate
            self._m_u_estimate.set(estimate)
            self._m_window_util.set(estimate / self.n_spes)
        return u

    # -- decision inputs ---------------------------------------------------
    @property
    def u_estimate(self) -> int:
        """Current estimate of exposed TLP: the rounded mean U over the
        window.

        The mean (not the max) gives the hysteresis the paper asks of the
        8-off-load window: single long-running outlier tasks that overlap
        many dispatches must not flip the policy back and forth.
        """
        if not self._u_samples:
            return 0
        return int(round(sum(self._u_samples) / len(self._u_samples)))

    def llp_decision(self, waiting_tasks: int) -> Tuple[bool, int]:
        """(activate_llp, degree) per the Section 5.4 rule.

        LLP activates when the window shows ``U <= llp_threshold``
        (``n_spes // 2`` by default); the degree is ``floor(n_spes / T)``
        for ``T`` current task sources, clamped to [1, n_spes].
        """
        u = self.u_estimate
        if u == 0 or u > self.llp_threshold:
            return False, 1
        t = max(1, waiting_tasks)
        degree = max(1, min(self.n_spes, self.n_spes // t))
        return degree > 1, degree

    def resize(self, n_spes: int) -> None:
        """Re-baseline the window on a new live-SPE count.

        Called when SPEs die or are blacklisted: the hysteresis window
        and the LLP activation threshold follow the surviving capacity
        (unless they were pinned explicitly at construction), and the U
        cap drops so dead SPEs can no longer inflate the estimate.
        Existing samples are kept — re-clamped to the new capacity — so
        the estimator degrades smoothly instead of restarting cold.
        """
        if n_spes < 1:
            raise ValueError("n_spes must be >= 1")
        self.n_spes = n_spes
        if self._auto_window:
            self.window = n_spes
            self._dispatch_times = deque(
                self._dispatch_times, maxlen=4 * self.window
            )
            self._u_samples = deque(
                (min(u, n_spes) for u in self._u_samples),
                maxlen=self.window,
            )
        else:
            self._u_samples = deque(
                (min(u, n_spes) for u in self._u_samples),
                maxlen=self._u_samples.maxlen,
            )
        if self._auto_threshold:
            self.llp_threshold = n_spes // 2

    def reset(self) -> None:
        self._dispatch_times.clear()
        self._u_samples.clear()
