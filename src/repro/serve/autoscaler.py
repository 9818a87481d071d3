"""MGPS-style fleet autoscaler.

The paper's MGPS scheduler watches a sliding window of off-load events
to estimate the task parallelism ``U`` actually exposed to one blade and
re-partitions SPEs accordingly.  This module lifts the same feedback
loop one level up: sample the fleet's per-blade utilization over a
sliding window and grow or shrink the *active blade set* between
``min_blades`` and ``max_blades``.

* mean windowed utilization above ``high_watermark`` → activate one more
  blade (capacity is saturating);
* below ``low_watermark`` → deactivate the highest-indexed active blade
  and re-dispatch anything queued on it (capacity is idling).

After every decision the window clears, so one burst cannot trigger a
staircase of reactions before its effect is even measurable — the same
hysteresis discipline MGPS applies to SPE re-partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["AutoscalerConfig", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Feedback-loop knobs (times in simulated seconds)."""

    interval_s: float = 60.0     # sampling period
    window: int = 3              # samples per decision window
    high_watermark: float = 0.75  # mean util above this -> scale up
    low_watermark: float = 0.25   # mean util below this -> scale down

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not (0.0 <= self.low_watermark < self.high_watermark <= 1.0):
            raise ValueError(
                "need 0 <= low_watermark < high_watermark <= 1"
            )


class Autoscaler:
    """Samples blade utilization and toggles blade activation.

    The service owns the blades; the autoscaler only flips ``active``
    flags and reports transitions.  ``events`` records every decision as
    ``(time, direction, n_active)`` for tests and the run report.
    """

    def __init__(self, service, config: AutoscalerConfig,
                 min_blades: int, max_blades: int) -> None:
        if not (1 <= min_blades <= max_blades):
            raise ValueError("need 1 <= min_blades <= max_blades")
        self.service = service
        self.config = config
        self.min_blades = min_blades
        self.max_blades = max_blades
        self.events: List[Tuple[float, str, int]] = []
        self._window: List[float] = []
        self._last_busy = {}
        self._last_t = 0.0

    # -- helpers -----------------------------------------------------------
    def _active(self):
        return [b for b in self.service.blades if b.alive and b.active]

    def _sample(self, now: float) -> float:
        """Mean busy fraction of active blades since the last sample."""
        span = now - self._last_t
        active = self._active()
        if span <= 0 or not active:
            return 0.0
        fractions = []
        for b in active:
            busy = b.busy_s(now)
            prev = self._last_busy.get(b.index, busy - min(busy, span))
            fractions.append(min(1.0, max(0.0, (busy - prev) / span)))
        return sum(fractions) / len(fractions)

    def _remember(self, now: float) -> None:
        self._last_t = now
        self._last_busy = {
            b.index: b.busy_s(now) for b in self.service.blades
        }

    # -- the loop ----------------------------------------------------------
    def loop(self):
        """Simulation process: sample, decide, repeat until stop."""
        env = self.service.env
        self._remember(env.now)
        while not self.service.stop.triggered:
            wait = env.any_of([env.timeout(self.config.interval_s),
                               self.service.stop])
            fired = yield wait
            # Drop the fired composite's ``_check`` from ``stop``.
            wait.detach()
            if fired is self.service.stop or self.service.stop.triggered:
                return
            now = env.now
            self._window.append(self._sample(now))
            self._remember(now)
            if len(self._window) < self.config.window:
                continue
            mean = sum(self._window) / len(self._window)
            acted = False
            if mean > self.config.high_watermark:
                acted = self._scale_up(now, mean)
            elif mean < self.config.low_watermark:
                acted = self._scale_down(now, mean)
            # An acting decision clears the window (hysteresis); an
            # inert one just slides it by one sample.
            if not acted:
                del self._window[0]

    def _note(self, now: float, direction: str, mean: float) -> None:
        n = len(self._active())
        self.events.append((now, direction, n))
        svc = self.service
        svc.metrics.gauge(
            "serve.active_blades", help="blades currently accepting dispatch"
        ).set(n)
        svc.metrics.counter(f"serve.scale_{direction}s").inc()
        if svc.tracer is not None:
            svc.tracer.emit(now, "serve", "autoscaler", f"scale-{direction}",
                            active=n, mean_util=round(mean, 6))

    def _scale_up(self, now: float, mean: float) -> bool:
        inactive = [b for b in self.service.blades
                    if b.alive and not b.active]
        if not inactive or len(self._active()) >= self.max_blades:
            return False
        blade = min(inactive, key=lambda b: b.index)
        blade.active = True
        self._window.clear()
        self._note(now, "up", mean)
        # A freshly activated blade starts pulling work immediately.
        if not blade.wake.triggered:
            blade.wake.succeed()
        return True

    def _scale_down(self, now: float, mean: float) -> bool:
        active = self._active()
        if len(active) <= self.min_blades:
            return False
        blade = max(active, key=lambda b: b.index)
        blade.active = False
        self._window.clear()
        orphans = blade.drain()
        self._note(now, "down", mean)
        self.service.redispatch(orphans)
        return True
