"""Derived metrics over figure curves and observability registries.

Two families live here: the crossover point of two figure curves and
readers over a run's :class:`~repro.obs.metrics.MetricsRegistry`.  The
registry readers *consume* what the runtime already measured — window
utilization ``U``, context switches, granularity outcomes, chunk sizes,
off-load latencies — instead of recomputing them from raw trace records.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..obs.runview import registry_value

__all__ = [
    "crossover",
    "registry_value",
    "offload_latency_percentiles",
    "llp_chunk_profile",
    "scheduler_summary",
    "render_scheduler_summary",
]


def crossover(
    xs: Sequence[int],
    series_a: Sequence[float],
    series_b: Sequence[float],
) -> int:
    """First x where series_a stops beating series_b (-1 if never).

    Used to locate the EDTLP-LLP -> EDTLP crossover points of Figures
    7-9.
    """
    if not (len(xs) == len(series_a) == len(series_b)):
        raise ValueError("series must have equal lengths")
    for x, a, b in zip(xs, series_a, series_b):
        if a > b:
            return x
    return -1


# -- registry readers ---------------------------------------------------------

def offload_latency_percentiles(
    registry, percentiles: Sequence[float] = (50, 90, 99)
) -> Dict[str, float]:
    """Off-load latency percentiles (microseconds) from the registry."""
    hist = registry.get("runtime.offload_latency_us")
    if hist is None or hist.count == 0:
        return {f"p{p:g}": 0.0 for p in percentiles}
    return {f"p{p:g}": hist.percentile(p) for p in percentiles}


def llp_chunk_profile(registry) -> Dict[str, float]:
    """Distribution of LLP chunk sizes (iterations per SPE) measured
    by the loop runtime."""
    hist = registry.get("llp.chunk_size")
    if hist is None or hist.count == 0:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "max": 0.0}
    return {
        "count": hist.count,
        "mean": hist.mean,
        "p50": hist.percentile(50),
        "p90": hist.percentile(90),
        "max": hist.max,
    }


def scheduler_summary(registry) -> Dict[str, float]:
    """The paper's decision-relevant numbers, read from a run registry.

    Everything here was recorded at the decision point that produced it
    (MGPS window, granularity test, LLP split, off-load completion);
    nothing is re-derived from trace records.
    """
    v = lambda name: registry_value(registry, name)
    summary = {
        "makespan_s": v("run.makespan_s"),
        "spe_utilization": v("run.spe_utilization"),
        "spe_idle_ratio": 1.0 - v("run.spe_utilization"),
        "ppe_occupancy": v("run.ppe_occupancy"),
        "ppe_context_switches": v("ppe.context_switches"),
        "offloads": v("runtime.offloads"),
        "ppe_fallbacks": v("runtime.ppe_fallbacks"),
        "offload_waits": v("runtime.offload_waits"),
        "granularity_accept": v("granularity.accept"),
        "granularity_reject": v("granularity.reject"),
        "mgps_u_estimate": v("mgps.u_estimate"),
        "mgps_window_utilization": v("mgps.window_utilization"),
        "mgps_decisions": v("mgps.decisions"),
        "mgps_mode_switches": v("mgps.mode_switches"),
        "llp_invocations": v("llp.invocations"),
    }
    for key, value in offload_latency_percentiles(registry).items():
        summary[f"offload_latency_{key}_us"] = value
    for key, value in llp_chunk_profile(registry).items():
        summary[f"llp_chunk_{key}"] = value
    return summary


def render_scheduler_summary(registry, title: Optional[str] = None) -> str:
    """Human-readable scheduler summary (the ``repro stats`` header)."""
    s = scheduler_summary(registry)
    lines = [title or "scheduler summary"]
    lines.append(
        f"  makespan {s['makespan_s']:.2f} s, SPE utilization "
        f"{s['spe_utilization']:.1%}, PPE occupancy {s['ppe_occupancy']:.1%}"
    )
    lines.append(
        f"  off-loads {s['offloads']:.0f} (waits {s['offload_waits']:.0f}, "
        f"PPE fallbacks {s['ppe_fallbacks']:.0f}), "
        f"PPE context switches {s['ppe_context_switches']:.0f}"
    )
    lines.append(
        f"  granularity accept/reject "
        f"{s['granularity_accept']:.0f}/{s['granularity_reject']:.0f}"
    )
    lines.append(
        f"  MGPS window utilization U={s['mgps_u_estimate']:.0f} "
        f"({s['mgps_window_utilization']:.1%} of SPEs), "
        f"{s['mgps_decisions']:.0f} decisions, "
        f"{s['mgps_mode_switches']:.0f} mode switches"
    )
    lines.append(
        f"  LLP invocations {s['llp_invocations']:.0f}, chunk size "
        f"p50={s['llp_chunk_p50']:.0f} p90={s['llp_chunk_p90']:.0f} "
        f"(of {s['llp_chunk_count']:.0f} chunks)"
    )
    lines.append(
        f"  off-load latency p50={s['offload_latency_p50_us']:.1f} us, "
        f"p90={s['offload_latency_p90_us']:.1f} us, "
        f"p99={s['offload_latency_p99_us']:.1f} us"
    )
    return "\n".join(lines)
