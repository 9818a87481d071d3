"""Causal span trees: where each job's (or off-load's) time actually went.

The tracer records *events*; this module reassembles them into
*causality*.  Two builders cover the two lifecycles in the tree:

:func:`build_job_trees`
    One :class:`JobTree` per serving-layer job, with consecutive phase
    spans covering the whole sojourn — frontend admission wait, blade
    queue, per-unit dispatch overhead, service, and (under blade
    deaths) aborted attempts plus requeue hops.  Phases are built from
    consecutive boundary events, so by construction they tile
    ``[submit, finish]`` exactly; :meth:`JobTree.validate` proves it
    and names the leaking span when the event stream is malformed.

:func:`build_offload_trees`
    One :class:`SpanNode` tree per runtime off-load span, with the
    fault-tolerant attempt loop reconstructed as *sibling* attempt
    spans separated by backoff waits, the PPE fallback as a trailing
    child, and LLP chunk fan-out/join as a parallel group inside the
    winning attempt.

Everything here is post-hoc: builders only read the trace, never the
live simulation, so collection cannot perturb digests or event counts.
:func:`build_job_trees` folds a tracer's raw ``(time, category, actor,
event, payload)`` rows in one pass without materializing
:class:`~repro.sim.trace.TraceRecord` views.
The record *append order* is the causal order at equal timestamps
(the tracer appends as the simulation executes), so no re-sorting —
and no tie-break heuristics — are needed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, DefaultDict, Dict, Iterable, List, Optional, Tuple

from ..sim.trace import Row

__all__ = [
    "PHASE_ORDER",
    "ReconciliationError",
    "SpanNode",
    "JobTree",
    "build_job_trees",
    "build_offload_trees",
    "critical_path",
]

# Canonical serve-phase names in pipeline order.  Aborted variants are
# derived with an ``-aborted`` suffix when a blade death cuts the phase
# short; ``requeue`` is the (usually zero-width) failover -> redispatch
# hop.
PHASE_ORDER = (
    "admission",
    "blade-queue",
    "dispatch-overhead",
    "service",
    "blade-queue-aborted",
    "dispatch-overhead-aborted",
    "service-aborted",
    "requeue",
)


class ReconciliationError(ValueError):
    """Per-job phase durations failed to tile the job's sojourn time."""


@dataclass(slots=True)
class SpanNode:
    """One node of a causal tree: a named ``[start, end]`` interval.

    ``parallel`` marks a node whose children overlap in time (LLP chunk
    fan-out); sequential nodes' children tile the parent interval.
    """

    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)
    parallel: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    def walk(self) -> Iterable["SpanNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.parallel:
            out["parallel"] = True
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


def critical_path(node: SpanNode) -> List[SpanNode]:
    """The chain of spans that determined ``node``'s end time.

    Sequential children all lie on the path (a failed off-load attempt
    *and* its backoff wait both delayed completion); within a parallel
    group only the child that finished last — the join determinant —
    continues the path.
    """
    path = [node]
    if not node.children:
        return path
    if node.parallel:
        latest = max(node.children, key=lambda c: (c.end, c.name))
        return path + critical_path(latest)
    for child in sorted(node.children, key=lambda c: (c.start, c.end)):
        path.extend(critical_path(child))
    return path


# ---------------------------------------------------------------------------
# Serving-layer job trees
# ---------------------------------------------------------------------------

# Phase name keyed by the *previous* boundary kind: the interval from a
# ``dispatch`` boundary to the next boundary is blade-queue time, etc.
_PHASE_FROM = {
    "submit": "admission",
    "dispatch": "blade-queue",
    "unit-start": "dispatch-overhead",
    "start": "service",
    "failover": "requeue",
}
# Boundary kinds that end the walk.
_TERMINAL = ("finish", "lost")


@dataclass(slots=True)
class JobTree:
    """Causal phase tree of one serving-layer job."""

    job_id: int
    tenant: str
    template: str
    variant: int
    status: str                  # "completed" | "lost" | "in-flight"
    root: SpanNode
    _durations: Optional[Dict[str, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def sojourn(self) -> float:
        return self.root.duration

    @property
    def phases(self) -> List[SpanNode]:
        return self.root.children

    def phase_durations(self) -> Dict[str, float]:
        """Total seconds per phase name, in canonical-then-seen order.

        Repeated phases of one name sum, canonical or not.  Computed on
        the first call and cached (the phases of a built tree do not
        change); each call returns a fresh copy.
        """
        if self._durations is None:
            seen: Dict[str, float] = {}
            for p in self.phases:
                seen[p.name] = seen.get(p.name, 0.0) + p.duration
            out = {name: seen[name] for name in PHASE_ORDER if name in seen}
            for name, total in seen.items():        # non-canonical names
                if name not in out:
                    out[name] = total
            self._durations = out
        return dict(self._durations)

    def validate(self, tol: float = 1e-6) -> None:
        """Assert the phases tile ``[submit, end]`` within ``tol``.

        Raises :class:`ReconciliationError` naming the leaking span —
        the first gap or overlap between consecutive phases (or at the
        tree's edges) — so a malformed event stream is debuggable
        instead of silently mis-attributed.
        """
        total = sum(p.duration for p in self.phases)
        if abs(total - self.sojourn) <= tol:
            return
        cursor = self.root.start
        prev_name = "submit"
        for p in self.phases:
            if abs(p.start - cursor) > tol:
                raise ReconciliationError(
                    f"job {self.job_id}: span leak of "
                    f"{p.start - cursor:.9f} s between "
                    f"'{prev_name}' and '{p.name}' "
                    f"(phases sum to {total:.9f} s, sojourn is "
                    f"{self.sojourn:.9f} s)"
                )
            cursor = p.end
            prev_name = p.name
        raise ReconciliationError(
            f"job {self.job_id}: span leak of {self.root.end - cursor:.9f} s "
            f"after final phase '{prev_name}' (phases sum to "
            f"{total:.9f} s, sojourn is {self.sojourn:.9f} s)"
        )


def _rows(source) -> Iterable[Row]:
    """Raw ``(time, category, actor, event, payload)`` rows of a source.

    A :class:`~repro.sim.trace.Tracer` hands over its rows as stored;
    any other iterable of :class:`~repro.sim.trace.TraceRecord` is
    unpacked record by record.
    """
    rows = getattr(source, "rows", None)
    if rows is not None:
        return rows
    return ((r.time, r.category, r.actor, r.event, dict(r.data))
            for r in source)


def build_job_trees(source) -> Dict[int, JobTree]:
    """Assemble one :class:`JobTree` per job seen in a serve trace.

    ``source`` is a :class:`~repro.sim.trace.Tracer` (or its record
    list).  Jobs whose lifecycle is cut short by the end of the trace
    come back with ``status='in-flight'``; jobs shed by total fleet
    loss come back as ``status='lost'``.  Trees are keyed by job id.
    """
    # Per-job boundary timeline (time, kind, attrs), in trace (==
    # causal) order, and per-job (tenant, template, variant).
    timelines: DefaultDict[int, List[Tuple[float, str, Dict[str, Any]]]] = \
        defaultdict(list)
    meta: Dict[int, Tuple[str, str, int]] = {}

    for time, cat, actor, ev, p in _rows(source):
        if cat != "serve":
            continue
        if ev == "admit":
            jid = p.get("job")
            meta[jid] = (p.get("tenant", ""), p.get("template", ""),
                         p.get("variant", 0))
            timelines[jid].append((time, "submit", {}))
        elif ev == "dispatch":
            blade, unit = p.get("blade"), p.get("unit")
            for jid in p.get("jobs", ()):
                timelines[jid].append(
                    (time, ev, {"blade": blade, "unit": unit}))
        elif ev == "unit-start":
            unit = p.get("unit")
            for jid in p.get("jobs", ()):
                timelines[jid].append(
                    (time, ev, {"blade": actor, "unit": unit}))
        elif ev == "start" or ev == "finish":
            timelines[p.get("job")].append((time, ev, {"blade": actor}))
        elif ev == "failover":
            for jid in p.get("jobs", ()):
                timelines[jid].append((time, ev, {"blade": actor}))
        elif ev == "lost":
            timelines[p.get("job")].append((time, ev, {}))

    trees: Dict[int, JobTree] = {}
    for jid, events in timelines.items():
        if events[0][1] != "submit":
            continue                     # trace attached mid-lifecycle
        submit = events[0][0]
        tenant, template, variant = meta[jid]
        phases: List[SpanNode] = []
        prev_kind, prev_t = "submit", submit
        prev_attrs: Dict[str, Any] = {}
        status = "in-flight"
        end = submit
        for time, kind, attrs in events[1:]:
            name = _PHASE_FROM.get(prev_kind)
            if name is None:
                break                    # malformed: boundary after terminal
            if kind == "failover" and name != "requeue":
                name += "-aborted"
            phases.append(SpanNode(name, prev_t, time, prev_attrs))
            prev_kind, prev_t, prev_attrs = kind, time, attrs
            end = time
            if kind in _TERMINAL:
                status = "completed" if kind == "finish" else "lost"
                break
        if status == "in-flight" and prev_kind not in _TERMINAL:
            end = prev_t                 # open tail is not attributed
        root = SpanNode("job", submit, end, {"job": jid}, phases)
        trees[jid] = JobTree(jid, tenant, template, variant, status, root)
    return trees


# ---------------------------------------------------------------------------
# Runtime off-load trees
# ---------------------------------------------------------------------------

def build_offload_trees(source) -> List[SpanNode]:
    """Reassemble runtime off-load spans into causal trees.

    Each returned root covers one off-load of one process: the
    ``offload`` span (from the span recorder), with — when the
    fault-tolerant path ran — sibling ``attempt[i]`` children, the
    ``backoff`` waits between them, and a trailing ``ppe-fallback``
    child when the retry budget was exhausted.  LLP chunk fan-out
    (``llp_fanout`` events emitted by the loop model) attaches inside
    the covering attempt as a parallel group, so the critical path
    descends into the chunk that determined the join.
    """
    roots: List[SpanNode] = []
    # Per-actor currently-open offload span (depth-0 only: the runtime
    # never nests offload spans for one process).
    open_spans: Dict[str, Dict[str, Any]] = {}
    # Trees whose span closed but which may still gain a ppe-fallback
    # child (the fallback runs after the span closes).
    awaiting_fallback: Dict[str, SpanNode] = {}
    fanouts: List[Tuple[float, Dict[str, Any], str]] = []

    for time, cat, actor, ev, p in _rows(source):
        if cat == "proc" and ev == "span_begin" and p.get("name") == "offload":
            open_spans[actor] = {
                "start": time, "attempts": [], "retries": [],
                "fallback_at": None,
            }
            awaiting_fallback.pop(actor, None)
        elif cat == "proc" and ev == "span_end" and p.get("name") == "offload":
            state = open_spans.pop(actor, None)
            if state is None:
                continue
            root = _close_offload(actor, state, time, p)
            roots.append(root)
            if state["fallback_at"] is not None:
                awaiting_fallback[actor] = root
        elif cat == "fault" and actor in open_spans:
            state = open_spans[actor]
            if ev == "offload_attempt":
                state["attempts"].append(
                    (time, p.get("attempt"), p.get("function"))
                )
            elif ev == "offload_retry":
                state["retries"].append(
                    (time, p.get("attempt"), p.get("status"),
                     p.get("spe"))
                )
            elif ev == "retry_fallback":
                state["fallback_at"] = time
        elif cat == "ppe" and ev == "ppe_fallback":
            root = awaiting_fallback.pop(actor, None)
            if root is not None:
                dur = p.get("duration", 0.0)
                root.children.append(SpanNode(
                    "ppe-fallback", time, time + dur,
                    {"function": p.get("function")},
                ))
                root.end = max(root.end, time + dur)
        elif cat == "llp" and ev == "llp_fanout":
            fanouts.append((time, {k: p.get(k) for k in (
                "function", "k", "schedule", "base", "master_end",
                "worker_starts", "worker_ends", "join_idle", "reduction",
                "duration",
            )}, p.get("master", "")))

    _attach_fanouts(roots, fanouts)
    return roots


def _close_offload(actor: str, state: Dict[str, Any], end: float,
                   payload: Dict[str, Any]) -> SpanNode:
    start = state["start"]
    attrs = {
        "proc": actor,
        "function": payload.get("function"),
        "reason": payload.get("reason"),
    }
    spe = payload.get("spe")
    if spe is not None:
        attrs["spe"] = spe
    span = SpanNode("offload", start, end, attrs)
    attempts = state["attempts"]
    if not attempts:                      # fault-free fast path: leaf span
        root = SpanNode("task", start, end, dict(attrs), [span])
        return root
    retries = {idx: (t, status, spe_) for t, idx, status, spe_
               in state["retries"]}
    fallback_at = state["fallback_at"]
    for i, (a_time, a_idx, _fn) in enumerate(attempts):
        next_start = (attempts[i + 1][0] if i + 1 < len(attempts)
                      else fallback_at if fallback_at is not None
                      else end)
        retry = retries.get(a_idx)
        if retry is not None:
            r_time, status, r_spe = retry
            span.children.append(SpanNode(
                f"attempt[{a_idx}]", a_time, r_time,
                {"status": status, "spe": r_spe},
            ))
            if next_start > r_time:
                span.children.append(
                    SpanNode("backoff", r_time, next_start,
                             {"after_attempt": a_idx})
                )
        else:
            span.children.append(SpanNode(
                f"attempt[{a_idx}]", a_time, next_start, {"status": "ok"},
            ))
    root = SpanNode("task", start, end, dict(attrs), [span])
    return root


def _attach_fanouts(roots: List[SpanNode],
                    fanouts: List[Tuple[float, Dict[str, Any], str]]) -> None:
    """Graft LLP fan-out groups into the attempt that invoked them."""
    for time, info, actor in fanouts:
        target = _covering_attempt(roots, time, actor)
        if target is None:
            continue
        base = time + (info.get("base") or 0.0)
        starts = info.get("worker_starts") or ()
        ends = info.get("worker_ends") or ()
        master_end = info.get("master_end") or 0.0
        chunks = SpanNode(
            "chunks", base, base + max([master_end, *ends], default=0.0),
            {"k": info.get("k"), "schedule": info.get("schedule")},
            parallel=True,
        )
        chunks.children.append(
            SpanNode("chunk[master]", base, base + master_end)
        )
        for j, w_end in enumerate(ends):
            w_start = starts[j] if j < len(starts) else 0.0
            chunks.children.append(
                SpanNode(f"chunk[w{j + 1}]", base + w_start, base + w_end)
            )
        llp = SpanNode(
            "llp", time, time + (info.get("duration") or 0.0),
            {"function": info.get("function"), "k": info.get("k"),
             "join_idle": info.get("join_idle")},
            [chunks],
        )
        join = chunks.end
        reduction = info.get("reduction") or 0.0
        if reduction > 0.0:
            llp.children.append(SpanNode("reduction", join, join + reduction))
        target.children.append(llp)


def _covering_attempt(roots: List[SpanNode], time: float,
                      actor: str) -> Optional[SpanNode]:
    """The attempt (or fast-path offload) span covering ``time``.

    When the emitting SPE is known, it must match the span's recorded
    SPE so concurrent same-function off-loads on different processes
    cannot steal each other's fan-outs.
    """
    for root in roots:
        if not (root.start <= time <= root.end):
            continue
        spe = root.attrs.get("spe")
        if actor and spe is not None and actor != spe:
            continue
        for node in root.walk():
            if node.name.startswith("attempt[") and \
                    node.start <= time <= node.end:
                return node
        for node in root.children:
            if node.name == "offload" and not node.children and \
                    node.start <= time <= node.end:
                return node
    return None
