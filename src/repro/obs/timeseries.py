"""Deterministic windowed time-series, sampled post-hoc from a trace.

The HTML report draws a serving run's *signals over time*, not only
end-of-run scalars: how queue depth, in-flight load and blade
utilization evolved across the run.  A live sampler process would inject
kernel events and perturb the determinism baselines, so this module
instead folds the finished :class:`~repro.sim.trace.Tracer` rows into
fixed sim-time buckets — a pure function of the trace, bit-identical
across runs of the same config.

Semantics per series (bucket ``b`` covers ``[b*w, (b+1)*w)``):

* step gauges (``queue_depth``, ``in_flight``) are sampled at the
  bucket's *end* — the value the step function holds at ``(b+1)*w``;
* utilization series (``bladeN.u``) are the fraction of the bucket
  covered by that blade's busy intervals (dispatch overhead plus
  service segments), in ``[0, 1]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..sim.trace import Tracer
from .metrics import stable_round

__all__ = ["TimeSeries", "sample_timeseries"]

DEFAULT_BUCKETS = 60


@dataclass
class TimeSeries:
    """Bucketed gauges: ``series[name][b]`` is the value in bucket b."""

    window_s: float
    times: Tuple[float, ...]                 # bucket start times
    series: Dict[str, Tuple[float, ...]] = field(default_factory=dict)

    @property
    def n_buckets(self) -> int:
        return len(self.times)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "window_s": stable_round(self.window_s),
            "times": [stable_round(t) for t in self.times],
            "series": {
                name: [stable_round(v) for v in vals]
                for name, vals in sorted(self.series.items())
            },
        }


def _sample_steps(changes: List[Tuple[float, float]],
                  edges: List[float]) -> Tuple[float, ...]:
    """Value of a step function (``(time, delta)`` list, starting at 0)
    at each edge."""
    out: List[float] = []
    value = 0.0
    i = 0
    changes = sorted(changes)
    for edge in edges:
        while i < len(changes) and changes[i][0] <= edge:
            value += changes[i][1]
            i += 1
        out.append(max(0.0, value))
    return tuple(out)


def _busy_fraction(intervals: List[Tuple[float, float]], lo: float,
                   hi: float) -> float:
    width = hi - lo
    if width <= 0:
        return 0.0
    covered = 0.0
    for a, b in intervals:
        covered += max(0.0, min(b, hi) - max(a, lo))
    return min(1.0, covered / width)


def sample_timeseries(tracer: Tracer, window_s: Optional[float] = None,
                      horizon: Optional[float] = None) -> TimeSeries:
    """Fold a tracer's serve rows into windowed gauges, in one pass.

    ``horizon`` defaults to the last row's timestamp; ``window_s``
    defaults to ``horizon / 60`` so any run yields a plottable series.
    A trace without serve rows yields no series.
    """
    rows = tracer.rows
    if horizon is None:
        horizon = rows[-1][0] if rows else 0.0
    if horizon <= 0.0:
        return TimeSeries(window_s=window_s or 1.0, times=())
    if window_s is None:
        window_s = horizon / DEFAULT_BUCKETS
    n = max(1, int(math.ceil(horizon / window_s - 1e-12)))
    times = tuple(b * window_s for b in range(n))
    edges = [(b + 1) * window_s for b in range(n)]

    frontend: List[Tuple[float, float]] = []     # admission-heap deltas
    in_flight: List[Tuple[float, float]] = []    # jobs in system deltas
    blade_busy: Dict[str, List[Tuple[float, float]]] = {}
    blade_open: Dict[str, float] = {}            # open busy-segment start
    unit_remaining: Dict[str, int] = {}          # jobs left in running unit
    blades_seen: set = set()
    had_serve = False

    for t, cat, actor, ev, payload in rows:
        if cat != "serve":
            continue
        had_serve = True
        if ev == "admit":
            frontend.append((t, 1.0))
            in_flight.append((t, 1.0))
        elif ev == "unit":
            frontend.append((t, -float(len(payload.get("jobs", ())))))
        elif ev == "enqueue":
            blades_seen.add(actor)
        elif ev == "unit-start":
            blades_seen.add(actor)
            blade_open.setdefault(actor, t)
            unit_remaining[actor] = len(payload.get("jobs", ()))
        elif ev == "lost":
            in_flight.append((t, -1.0))
        elif ev == "finish":
            in_flight.append((t, -1.0))
            left = unit_remaining.get(actor, 0) - 1
            unit_remaining[actor] = left
            if left <= 0:
                # Last job of the running unit: the blade goes idle (a
                # back-to-back unit reopens the segment at its own
                # unit-start).
                start = blade_open.pop(actor, None)
                if start is not None and t > start:
                    blade_busy.setdefault(actor, []).append((start, t))
        elif ev == "failover":
            unit_remaining.pop(actor, None)
            start = blade_open.pop(actor, None)
            if start is not None and t > start:
                blade_busy.setdefault(actor, []).append((start, t))

    series: Dict[str, Tuple[float, ...]] = {}
    if not had_serve:
        return TimeSeries(window_s=window_s, times=times, series=series)
    # Close any still-open blade segments at the horizon.
    for blade, start in blade_open.items():
        if horizon > start:
            blade_busy.setdefault(blade, []).append((start, horizon))
    series["queue_depth"] = _sample_steps(frontend, edges)
    series["in_flight"] = _sample_steps(in_flight, edges)
    for blade in sorted(blades_seen):
        intervals = blade_busy.get(blade, [])
        series[f"{blade}.u"] = tuple(
            _busy_fraction(intervals, b * window_s, (b + 1) * window_s)
            for b in range(n)
        )
    return TimeSeries(window_s=window_s, times=times, series=series)
