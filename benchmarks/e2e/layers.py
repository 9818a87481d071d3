"""Per-layer spans, recorded from outside the program.

:func:`install` wraps public functions at each layer boundary (the
:data:`TARGETS` table) with a timer that records one span per call:
``(id, parent, name, start, end, events)``.  Spans are kept in memory and
written out when the run ends.  The benchmark opens one root span per
op, so every call belongs to exactly one op, and a span's self time is its
duration minus its children's.  Self times plus the roots' own self time
(``trace.unattributed_s``) tile the traced wall time exactly.

Counts that a span cannot see (off-loads, context switches, code loads)
come from the ``ScheduleResult`` of every ``run_experiment`` in the op,
including the ones the serving layer's ``JobCompiler`` runs for itself.
"""

import contextlib
import itertools
import json
import time
from collections import Counter, defaultdict

import repro.core.results
import repro.obs.attribution
import repro.obs.causal
import repro.serve.dag
import repro.serve.fleet
from repro.core.granularity import GranularityGovernor
from repro.core.history import UtilizationHistory
from repro.core.llp import LoopParallelModel
from repro.serve import (
    BootstopMonitor,
    FrontEnd,
    JobCompiler,
    ResultCache,
    Service,
    ServeStats,
    available_dispatch_policies,
)
from repro.sim import Tracer
from repro.sim.engine import Environment
from repro.workloads.traces import TraceBuilder

ROOT = "op"


def _select_owners():
    """Every class that defines ``select`` for a registered dispatch policy."""
    owners = []
    for info in available_dispatch_policies():
        for klass in type(info.factory()).__mro__:
            if "select" in vars(klass):
                if klass not in owners:
                    owners.append(klass)
                break
    return owners


# (owner, attribute, span name).  The sim span is special-cased to read
# the environment's event counter on entry and exit.
TARGETS = [
    (Environment, "run_until_complete", "sim"),
    (TraceBuilder, "build", "workloads.trace_build"),
    (GranularityGovernor, "decide", "runtime.decide"),
    (repro.core.results.ResultLedger, "record", "runtime.ledger"),
    (LoopParallelModel, "invoke", "llp.invoke"),
    (UtilizationHistory, "llp_decision", "mgps.decide"),
    (JobCompiler, "compile", "compile"),
    (FrontEnd, "submit", "admission.submit"),
    (FrontEnd, "pop_unit", "admission.pop"),
    *[(klass, "select", "dispatch.select") for klass in _select_owners()],
    (Service, "result", "serve.result"),
    (ServeStats, "publish", "slo.publish"),
    (ResultCache, "get", "cache.get"),
    (BootstopMonitor, "add", "bootstop.add"),
    (repro.serve.dag, "replicate_tree", "phylo.replicate_tree"),
    (repro.serve.dag, "majority_rule_consensus", "phylo.consensus"),
    (Tracer, "emit", "obs.emit"),
    (repro.obs.causal, "build_job_trees", "obs.causal_build"),
    (repro.obs.attribution, "aggregate_breakdown", "obs.aggregate"),
]

# Call-count metrics that need the wrapped call's return value.
_RESULT_COUNTS = {
    "admission.submit": ("admission.rejected", lambda r: r is None),
    "admission.pop": ("dispatch.units", lambda r: r is not None),
    "cache.get": ("cache.hits", lambda r: r is not None),
}


class Recorder:
    """Span store plus the counters the spans cannot carry."""

    def __init__(self):
        self.spans = []
        self.stack = [0]
        self.ids = itertools.count(1)
        self.counts = Counter()
        self.kernel = Counter()  # event-weighted kernel_stats() sums
        self._restore = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, owner, attr, name):
        fn = getattr(owner, attr)
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter
        counted = _RESULT_COUNTS.get(name)
        counts = self.counts

        if name == "sim":
            kernel = self.kernel

            def wrapper(env, *args, **kwargs):
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                before = env.events_processed
                t0 = clock()
                try:
                    return fn(env, *args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    events = env.events_processed - before
                    spans.append((sid, parent, name, t0, t1, events))
                    ks = env.kernel_stats()
                    kernel["events"] += events
                    kernel["pool_hit_rate"] += ks["pool_hit_rate"] * events
                    kernel["batch_advance_fraction"] += (
                        ks["batch_advance_fraction"] * events)
        else:
            def wrapper(*args, **kwargs):
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append((sid, parent, name, t0, t1, 0))
                if counted is not None and counted[1](out):
                    counts[counted[0]] += 1
                return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def _hook_compiler_runs(self):
        """Count the ScheduleResults of the serving layer's own compiles."""
        fn = repro.serve.fleet.run_experiment

        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.note_schedule(result)
            return result

        repro.serve.fleet.run_experiment = hooked
        self._restore.append((repro.serve.fleet, "run_experiment", fn))

    def install(self):
        for owner, attr, name in TARGETS:
            self._wrap(owner, attr, name)
        self._hook_compiler_runs()
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- recording --------------------------------------------------------
    @contextlib.contextmanager
    def op(self, name):
        """Root span of one op; yields nothing, records on exit."""
        sid = next(self.ids)
        self.stack[:] = [sid]
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack[:] = [0]
            self.spans.append((sid, 0, f"{ROOT}:{name}", t0, t1, 0))

    def note_schedule(self, r):
        c = self.counts
        c["cell.code_loads"] += r.code_loads
        c["cell.ppe_context_switches"] += r.ppe_context_switches
        c["cell.runs"] += 1
        c["cell.spe_utilization_sum"] += r.spe_utilization
        c["cell.ppe_occupancy_sum"] += r.ppe_occupancy
        c["runtime.offloads"] += r.offloads
        c["runtime.ppe_fallbacks"] += r.ppe_fallbacks
        c["runtime.offload_waits"] += r.offload_waits
        c["mgps.mode_switches"] += r.llp_mode_switches
        c["llp.join_idle_sim_s"] += r.extras.get("llp_join_idle", 0.0)

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- analysis ---------------------------------------------------------
    def _by_name(self, scales):
        """Per-name calls, self and inclusive time, subtree events.

        ``scales`` maps an op name to the factor converting its raw host
        seconds to reference-speed seconds (see ``probe.py``); every span
        is scaled by its op's factor, which keeps the tiling exact.
        Returns ``(by_name, wall_s, unattributed_s, min_self_s)``.  A
        negative ``min_self_s`` means some span's children overlap it
        instead of nesting inside it.
        """
        child = defaultdict(float)
        below = defaultdict(int)  # events in a span's subtree
        has_child = set()
        for sid, parent, _name, t0, t1, events in self.spans:
            child[parent] += t1 - t0
            below[parent] += below[sid] + events
            has_child.add(parent)
        by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                       "incl_s": 0.0, "with_children": 0,
                                       "events_below": 0})
        wall = unattributed = min_self = 0.0
        scale = 1.0
        # An op's root closes after all of its spans: walk backwards so the
        # root is seen first.
        for sid, _parent, name, t0, t1, _events in reversed(self.spans):
            dur = t1 - t0
            own = dur - child[sid]
            min_self = min(min_self, own)
            if name.startswith(ROOT + ":"):
                scale = scales[name[len(ROOT) + 1:]]
                wall += dur * scale
                unattributed += own * scale
                continue
            row = by_name[name]
            row["calls"] += 1
            row["self_s"] += own * scale
            row["incl_s"] += dur * scale
            row["events_below"] += below[sid]
            row["with_children"] += sid in has_child
        return by_name, wall, unattributed, min_self

    def metrics(self, serve_completed, bootstop_cancelled, scales):
        """(per-layer metrics, smallest raw self time) of this repetition."""
        by_name, wall, unattributed, min_self = self._by_name(scales)
        c, k = self.counts, self.kernel

        def row(name):
            return by_name.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                      "with_children": 0, "events_below": 0})

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        sim, comp = row("sim"), row("compile")
        events = k["events"]
        emits = row("obs.emit")
        decide, invoke = row("runtime.decide"), row("llp.invoke")
        gets = row("cache.get")
        runs = c["cell.runs"]
        m = {
            "sim.events": events,
            "sim.self_s": sim["self_s"],
            "sim.us_per_event": per(sim["self_s"], events, 1e6),
            "sim.pool_hit_rate": per(k["pool_hit_rate"], events),
            "sim.batch_advance_fraction": per(k["batch_advance_fraction"], events),
            "cell.code_loads": c["cell.code_loads"],
            "cell.ppe_context_switches": c["cell.ppe_context_switches"],
            "cell.spe_utilization": per(c["cell.spe_utilization_sum"], runs),
            "cell.ppe_occupancy": per(c["cell.ppe_occupancy_sum"], runs),
            "runtime.offloads": c["runtime.offloads"],
            "runtime.ppe_fallbacks": c["runtime.ppe_fallbacks"],
            "runtime.offload_waits": c["runtime.offload_waits"],
            "runtime.offload_ratio": per(c["runtime.offloads"], decide["calls"]),
            "runtime.decide_calls": decide["calls"],
            "runtime.decide_s": decide["self_s"],
            "runtime.ledger_records": row("runtime.ledger")["calls"],
            "runtime.ledger_s": row("runtime.ledger")["self_s"],
            "llp.invocations": invoke["calls"],
            "llp.invoke_s": invoke["self_s"],
            "llp.us_per_invoke": per(invoke["self_s"], invoke["calls"], 1e6),
            "llp.join_idle_s": c["llp.join_idle_sim_s"],
            "mgps.llp_decisions": row("mgps.decide")["calls"],
            "mgps.mode_switches": c["mgps.mode_switches"],
            "mgps.decide_s": row("mgps.decide")["self_s"],
            "workloads.trace_builds": row("workloads.trace_build")["calls"],
            "workloads.trace_build_s": row("workloads.trace_build")["self_s"],
            "compile.calls": comp["calls"],
            "compile.misses": comp["with_children"],
            "compile.hit_rate": per(comp["calls"] - comp["with_children"],
                                    comp["calls"]),
            "compile.incl_s": comp["incl_s"],
            "compile.self_s": comp["self_s"],
            "compile.ms_per_miss": per(comp["incl_s"], comp["with_children"], 1e3),
            "compile.nested_events": comp["events_below"],
            "admission.submits": row("admission.submit")["calls"],
            "admission.rejected": c["admission.rejected"],
            "admission.submit_self_s": row("admission.submit")["self_s"],
            "admission.pop_s": row("admission.pop")["self_s"],
            "dispatch.units": c["dispatch.units"],
            "dispatch.select_s": row("dispatch.select")["self_s"],
            "serve.result_s": row("serve.result")["self_s"],
            "serve.completed": serve_completed,
            "slo.publish_s": row("slo.publish")["self_s"],
            "cache.gets": gets["calls"],
            "cache.hits": c["cache.hits"],
            "cache.hit_rate": per(c["cache.hits"], gets["calls"]),
            "cache.get_s": gets["self_s"],
            "bootstop.adds": row("bootstop.add")["calls"],
            "bootstop.cancelled": bootstop_cancelled,
            "bootstop.add_s": row("bootstop.add")["self_s"],
            "phylo.replicate_trees": row("phylo.replicate_tree")["calls"],
            "phylo.replicate_tree_s": row("phylo.replicate_tree")["self_s"],
            "phylo.consensus_s": row("phylo.consensus")["self_s"],
            "obs.emits": emits["calls"],
            "obs.emit_s": emits["self_s"],
            "obs.ns_per_emit": per(emits["self_s"], emits["calls"], 1e9),
            "obs.causal_build_s": row("obs.causal_build")["self_s"],
            "obs.aggregate_s": row("obs.aggregate")["self_s"],
            "trace.unattributed_s": unattributed,
            "trace.wall_s": wall,
        }
        return m, min_self


def install():
    return Recorder().install()
