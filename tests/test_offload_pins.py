"""The LLP / MGPS off-load path pinned event for event.

Table 1's pins (``tests/test_smt_core.py``) never run an LLP worker, the
MGPS history window or an MFC transfer.  The runs below do: a fixed
loop-parallel degree of 2, 4 and 8, adaptive MGPS, and one serving
compile bag on a dual-Cell blade.  Each pin is ``(makespan,
events_processed, ppe_context_switches, llp_invocations,
result_digest)``, recorded before the off-load fast paths (resident
code-image hits, memoized DMA timing, the bisected MGPS window and the
metrics-off shortcuts), with the event counts re-recorded when each
off-load's SPE execution moved inline into its dispatching process and
again when the SMT core stopped arming provably stale timers and took
back no-op lingers; any change that moves one event, one context switch
or one float of the makespan fails here.

The metrics pins hold the other side of those shortcuts: a run with a
registry must publish exactly what it published before, and a run with
only a tracer must write the same records as one with both sinks.
"""

import hashlib
import json

import pytest

from repro import MetricsRegistry, Tracer, Workload, run_experiment
from repro.cell.params import BladeParams
from repro.core.schedulers import mgps, static_hybrid
from repro.serve.jobs import job_seed

_DIGEST = "00b8f78c4ceb529327aeb55f4efeb7c2fcce5683e6379b6031a4aaf529200fe4"

LLP_EVENT_STREAM = {
    "edtlp-llp2": (27.13518938839407, 16817, 1473, 1600, _DIGEST),
    "edtlp-llp4": (41.43867714225659, 16254, 411, 1600, _DIGEST),
    "edtlp-llp8": (78.59514359137029, 16022, 0, 1600, _DIGEST),
    "mgps": (27.095775174049695, 16834, 1470, 1592, _DIGEST),
    "medium-bag": (
        21.762782612990755, 3078, 49, 284,
        "5568efea116fe756917f765784d53348f4e0dbab3f59f90d34708a89ca95c3a8",
    ),
}

# ``granularity.*``, ``mgps.*``, ``llp.*`` and ``runtime.*`` of one
# metrics-on MGPS run, and the JSONL of the same run traced.
MGPS_METRICS_SHA256 = (
    "14667017fa8c240f063f86268bbaad83083d7e2b548539167ccc09292f2d0d34"
)
MGPS_JSONL_SHA256 = (
    "5d3400ec6fd955352ab76cfa043ba6b8060e37f0ac6816f6e7a65abad6c51ead"
)
_PINNED_PREFIXES = ("granularity", "mgps", "llp", "runtime")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(name, **sinks):
    if name == "medium-bag":
        wl = Workload(3, 100, seed=job_seed(0, "medium-bag", 0))
        return run_experiment(mgps(), wl, blade=BladeParams(n_cells=2),
                              seed=0, **sinks)
    spec = mgps() if name == "mgps" else static_hybrid(int(name[-1]))
    return run_experiment(spec, Workload(4, 400, seed=0), seed=0, **sinks)


@pytest.mark.parametrize("name", sorted(LLP_EVENT_STREAM))
def test_llp_event_stream_is_pinned(name):
    r = _run(name)
    assert (
        r.makespan, r.events_processed, r.ppe_context_switches,
        r.llp_invocations, r.result_digest,
    ) == LLP_EVENT_STREAM[name]


def test_mgps_metrics_snapshot_is_pinned():
    metrics = MetricsRegistry()
    r = _run("mgps", metrics=metrics)
    snap = {
        name: value for name, value in metrics.snapshot().items()
        if name.split(".")[0] in _PINNED_PREFIXES
    }
    assert snap["runtime.offloads"]["value"] == 1600
    assert snap["llp.invocations"]["value"] == r.llp_invocations
    assert snap["mgps.u_estimate"]["updates"] == 1600
    assert _sha(json.dumps(snap, sort_keys=True)) == MGPS_METRICS_SHA256


def test_trace_only_run_writes_the_same_records():
    trace_only = Tracer()
    _run("mgps", tracer=trace_only)
    both = Tracer()
    _run("mgps", tracer=both, metrics=MetricsRegistry())
    jsonl = trace_only.to_jsonl()
    assert jsonl == both.to_jsonl()
    assert _sha(jsonl) == MGPS_JSONL_SHA256
