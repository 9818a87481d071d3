"""Counters, gauges and fixed-bucket histograms for scheduler decisions.

The paper's schedulers are feedback loops — MGPS watches a sliding window
of off-loads to estimate exposed task parallelism ``U``, the LLP runtime
tunes chunk sizes from observed SPE idle time, and the granularity test
accepts or throttles off-loads from measured kernel times.  This module
gives those decision points named, queryable instruments so a run can be
audited instead of summarized:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — last-written value (e.g. the current MGPS degree);
* :class:`Histogram` — fixed-bucket distribution with interpolated
  percentiles (chunk sizes, off-load latencies, ``U`` samples);
* :class:`MetricsRegistry` — get-or-create instrument store with a
  deterministic, diff-stable snapshot/render.

Zero dependencies, no wall clock, no global state: a registry belongs to
one run, exactly like an :class:`~repro.sim.engine.Environment`.  When no
registry is supplied the runtimes fall back to :data:`NULL_REGISTRY`,
whose instruments are shared no-op singletons — the disabled path is one
method call that does nothing, so instrumentation never perturbs or
slows a sweep that did not ask for it.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "registry_of",
    "DEFAULT_BUCKETS",
    "labeled",
    "stable_round",
]


def labeled(name: str, **labels: Any) -> str:
    """Append a Prometheus-style label suffix to a metric name.

    ``labeled("runtime.offloads", scheduler="mgps")`` gives
    ``'runtime.offloads{scheduler="mgps"}'``.  Labels are sorted so the
    same label set always yields the same key; use it to keep
    per-scheduler registries collision-free when merging them into one
    snapshot (see :meth:`MetricsRegistry.merge`).
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"

# 1-2-5 decades covering microseconds-to-hours style magnitudes; callers
# with a known range (chunk sizes, U samples) pass their own bounds.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    m * 10.0 ** e for e in range(-6, 7) for m in (1, 2, 5)
)


def stable_round(value: Any, digits: int = 9) -> Any:
    """Round floats for diff-stable snapshots (and normalize -0.0)."""
    if isinstance(value, float):
        r = round(value, digits)
        return 0.0 if r == 0 else r
    return value


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def copy_as(self, name: str) -> "Counter":
        c = Counter(name, self.help)
        c.value = self.value
        return c

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "value": stable_round(self.value)}

    def render(self) -> str:
        return f"{self.value:g}"


class Gauge:
    """Last-written value of a quantity that goes up and down."""

    __slots__ = ("name", "help", "value", "updates")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value: float = 0.0
        self.updates: int = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def copy_as(self, name: str) -> "Gauge":
        g = Gauge(name, self.help)
        g.value = self.value
        g.updates = self.updates
        return g

    def merge_from(self, other: "Gauge") -> None:
        # Last write wins, as for a single gauge; an untouched gauge
        # (updates == 0) never overrides a written one.
        if other.updates:
            self.value = other.value
        self.updates += other.updates

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "gauge",
            "value": stable_round(float(self.value)),
            "updates": self.updates,
        }

    def render(self) -> str:
        return f"{self.value:g}"


class Histogram:
    """Fixed-bucket distribution with interpolated percentiles.

    ``buckets`` are the upper (inclusive) bounds of the finite buckets;
    one overflow bucket catches everything above the last bound.  The
    bucket layout is frozen at creation so snapshots of the same
    instrument always diff cleanly.
    """

    __slots__ = ("name", "help", "bounds", "counts", "count", "total",
                 "min", "max")
    kind = "histogram"

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram bucket bounds must be distinct")
        self.name = name
        self.help = help
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        v = float(value)
        self.counts[bisect_left(self.bounds, v)] += 1
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def copy_as(self, name: str) -> "Histogram":
        h = Histogram(name, self.bounds, help=self.help)
        h.counts = list(self.counts)
        h.count = self.count
        h.total = self.total
        h.min = self.min
        h.max = self.max
        return h

    def merge_from(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge differing bucket "
                f"layouts"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Interpolated percentile ``p`` in [0, 100] (0.0 when empty)."""
        if not (0.0 <= p <= 100.0):
            raise ValueError("percentile must be within [0, 100]")
        if self.count == 0:
            return 0.0
        target = p / 100.0 * self.count
        cum = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cum + n >= target:
                lo = self.min if i == 0 else self.bounds[i - 1]
                hi = self.max if i == len(self.bounds) else self.bounds[i]
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                frac = (target - cum) / n
                return lo + (hi - lo) * max(0.0, min(1.0, frac))
            cum += n
        return self.max

    def snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {
            "type": "histogram",
            "count": self.count,
            "mean": stable_round(self.mean),
            "min": stable_round(self.min if self.count else 0.0),
            "max": stable_round(self.max if self.count else 0.0),
            "p50": stable_round(self.percentile(50)),
            "p90": stable_round(self.percentile(90)),
            "p99": stable_round(self.percentile(99)),
        }
        buckets = [
            [stable_round(b), n]
            for b, n in zip(self.bounds, self.counts)
            if n
        ]
        if self.counts[-1]:
            buckets.append(["+inf", self.counts[-1]])
        snap["buckets"] = buckets
        return snap

    def render(self) -> str:
        if self.count == 0:
            return "count=0"
        return (
            f"count={self.count} mean={self.mean:g} "
            f"p50={self.percentile(50):g} p90={self.percentile(90):g} "
            f"max={self.max:g}"
        )


class MetricsRegistry:
    """Get-or-create store of named instruments for one run."""

    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, cls, *args, **kwargs):
        inst = self._metrics.get(name)
        if inst is None:
            inst = self._metrics[name] = cls(name, *args, **kwargs)
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(name, Histogram, buckets, help=help)

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def merge(self, other: "MetricsRegistry", **labels: Any) -> "MetricsRegistry":
        """Fold ``other``'s instruments into this registry, in place.

        With ``labels``, every incoming name gains a :func:`labeled`
        suffix (``merge(reg, scheduler="mgps")`` files ``runtime.offloads``
        as ``runtime.offloads{scheduler="mgps"}``), so per-scheduler
        registries from a comparison combine into one snapshot without
        key collisions.  When a (suffixed) name already exists, same-kind
        instruments combine (counters add, gauges last-write-wins,
        same-layout histograms add bucket counts); a kind mismatch raises
        :class:`TypeError`.  Returns ``self`` for chaining.
        """
        for name in other.names():
            inst = other.get(name)
            target = labeled(name, **labels)
            mine = self._metrics.get(target)
            if mine is None:
                self._metrics[target] = inst.copy_as(target)
            elif mine.kind != inst.kind:
                raise TypeError(
                    f"metric {target!r} already registered as {mine.kind}, "
                    f"cannot merge a {inst.kind}"
                )
            else:
                mine.merge_from(inst)
        return self

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Deterministic dict snapshot: sorted names, rounded floats."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)

    def render(self) -> str:
        """Aligned text snapshot (the ``repro stats`` view)."""
        if not self._metrics:
            return "(no metrics recorded)"
        lines = [f"metrics snapshot ({len(self._metrics)} instruments)"]
        width = max(len(n) for n in self._metrics)
        for name in self.names():
            inst = self._metrics[name]
            lines.append(f"  {inst.kind:<9s} {name:<{width}s}  {inst.render()}")
        return "\n".join(lines)


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    kind = "null"
    name = ""
    help = ""
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def render(self) -> str:
        return "(disabled)"


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled path: every instrument is the same no-op singleton."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
    ) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def get(self, name: str) -> None:
        return None

    def names(self) -> List[str]:
        return []

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        return {}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return "{}"

    def render(self) -> str:
        return "(metrics disabled)"


NULL_REGISTRY = NullRegistry()


def registry_of(sinks: Any) -> Any:
    """The registry of a :class:`~repro.sim.trace.Sinks` bundle, or
    :data:`NULL_REGISTRY` when metrics are off (``sinks`` may be None)."""
    m = None if sinks is None else sinks.metrics
    return NULL_REGISTRY if m is None else m
