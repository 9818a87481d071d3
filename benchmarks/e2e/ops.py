"""The benchmark's workloads: ordered lists of ops over public entry points.

One op is one call into the program (``run_experiment``,
``table1_experiment``/``table2_experiment``, ``run_service``,
``run_dag``; the traced-serve legs add the causal fold).  Everything an op
needs is built by :func:`build` before the clock starts, from the seed
alone.  Each op reports the output fields the reference file pins and
either the off-loads it performed (sweeps) or the simulated jobs it
completed (serving); :func:`invariants` states what must hold on every
seed.
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro import (
    MetricsRegistry,
    ServeConfig,
    Tracer,
    Workload,
    default_tenants,
    edtlp,
    mgps,
    run_experiment,
    run_service,
    static_hybrid,
)
from repro.analysis.experiments import (
    PAPER_TABLE1_EDTLP,
    PAPER_TABLE1_LINUX,
    PAPER_TABLE2,
    table1_experiment,
    table2_experiment,
)
from repro.obs import attribution, causal
from repro.serve import (
    BootstopConfig,
    DagConfig,
    ResultCache,
    raxml_workflow,
    run_dag,
)

SERVE_TENANT_RATE = 0.25
SERVE_STEADY_HORIZON_S = 72000.0
TRACED_SERVE_HORIZON_S = 14400.0
# At SERVE_TENANT_RATE the 4-blade fleet is saturated (utilization ~1.0,
# queue-full rejections), so no blade ever runs dry: work-stealing never
# steals and its op takes static-block's round-robin path.
SERVE_POLICIES = ("static-block", "least-loaded", "work-stealing")
TRACED_POLICIES = ("static-block", "least-loaded")
DAG_REPLICATES = 200
DAG_SUBMISSIONS = 16
DAG_INTERARRIVAL_S = 300.0
DAG_BLADES = 4


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    kind: str  # "schedule" | "experiment" | "serve" | "dag" | "traced-serve"


def _schedule_fields(r) -> Dict[str, Any]:
    return {"makespan": r.makespan, "digest": r.result_digest,
            "offloads": r.offloads, "llp_invocations": r.llp_invocations}


def _serve_fields(r) -> Dict[str, Any]:
    s = r.summary
    dmap = json.dumps(r.digest_map(), sort_keys=True).encode()
    return {"digest_map_sha256": hashlib.sha256(dmap).hexdigest(),
            "completed": s["completed"], "rejected": s["rejected"],
            "latency_p50_s": s["latency_p50_s"],
            "latency_p99_s": s["latency_p99_s"]}


def serve_of(kind: str, out):
    """The ServeResult inside an op's output."""
    if kind == "serve":
        return out
    if kind == "dag":
        return out.serve
    return out[0]  # traced-serve: (ServeResult, breakdown-or-None)


def fields(kind: str, out) -> Dict[str, Any]:
    """The output fields the reference pins for one op."""
    if kind in ("schedule", "experiment"):
        runs = [_schedule_fields(r) for r in schedule_results(kind, out)]
        return runs[0] if kind == "schedule" else {"runs": runs}
    if kind == "dag":
        return {"final_digests": list(out.final_digests),
                "conservation_ok": out.conservation_ok,
                "cache_hits": out.cache_hits,
                "bootstop_cancelled": out.bootstop_cancelled}
    return _serve_fields(serve_of(kind, out))


def schedule_results(kind: str, out) -> List[Any]:
    """The ScheduleResults an op returns directly (sweeps only)."""
    if kind == "schedule":
        return [out]
    if kind == "experiment":
        return [r for rs in out.results.values() for r in rs]
    return []


def jobs(kind: str, out) -> int:
    """Simulated jobs the serving layer completed (0 for the sweeps)."""
    if kind in ("schedule", "experiment"):
        return 0
    return serve_of(kind, out).summary["completed"]


def offloads(kind: str, out) -> int:
    return sum(r.offloads for r in schedule_results(kind, out))


def _serve_config(seed: int, horizon: float, dispatch: str) -> ServeConfig:
    return ServeConfig(tenants=default_tenants(arrival_rate=SERVE_TENANT_RATE),
                       duration_s=horizon, seed=seed, dispatch=dispatch)


def _traced_leg(cfg: ServeConfig):
    tracer = Tracer(enabled=True)
    result = run_service(cfg, tracer=tracer, metrics=MetricsRegistry())
    trees = causal.build_job_trees(tracer)
    return result, attribution.aggregate_breakdown(trees)


def build(workload: str, seed: int) -> List[Op]:
    """The workload's ops with every input built; nothing runs yet."""
    if workload == "llp-sweep":
        ops = [Op("table2", lambda: table2_experiment(
            tasks_per_bootstrap=400, seed=seed), "experiment")]
        specs = {"MGPS": mgps(), "EDTLP-LLP2": static_hybrid(2),
                 "EDTLP-LLP4": static_hybrid(4), "EDTLP": edtlp()}
        for b in (1, 2, 4):
            wl = Workload(bootstraps=b, tasks_per_bootstrap=400, seed=seed)
            for label, spec in specs.items():
                ops.append(Op(f"{label}@{b}", lambda s=spec, w=wl:
                              run_experiment(s, w, seed=seed), "schedule"))
        return ops
    if workload == "task-sweep":
        wl = Workload(bootstraps=8, tasks_per_bootstrap=300, seed=seed)
        spec = mgps()
        return [
            Op("table1", lambda: table1_experiment(
                tasks_per_bootstrap=300, seed=seed), "experiment"),
            Op("MGPS@8", lambda: run_experiment(spec, wl, seed=seed),
               "schedule"),
        ]
    if workload == "serve-steady":
        return [Op(p, lambda c=_serve_config(seed, SERVE_STEADY_HORIZON_S, p):
                   run_service(c), "serve") for p in SERVE_POLICIES]
    if workload == "dag-fanout":
        def dag(bootstop):
            return DagConfig(
                workflow=raxml_workflow(DAG_REPLICATES),
                submissions=DAG_SUBMISSIONS, interarrival_s=DAG_INTERARRIVAL_S,
                seed=seed, blades=DAG_BLADES, bootstop=bootstop)
        shared = ResultCache()
        cold = dag(None)
        stop = dag(BootstopConfig())
        return [
            Op("cache-cold", lambda: run_dag(cold, cache=shared), "dag"),
            Op("cache-warm", lambda: run_dag(cold, cache=shared), "dag"),
            Op("bootstop", lambda: run_dag(stop), "dag"),
        ]
    if workload == "traced-serve":
        ops = []
        for p in TRACED_POLICIES:
            cfg = _serve_config(seed, TRACED_SERVE_HORIZON_S, p)
            ops.append(Op(f"{p}/plain", lambda c=cfg: (run_service(c), None),
                          "traced-serve"))
            ops.append(Op(f"{p}/traced", lambda c=cfg: _traced_leg(c),
                          "traced-serve"))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def paper_error_pct(outs: Dict[str, Any]) -> Optional[float]:
    """Mean |sim - paper| / paper over the Table 1 or Table 2 rows, in %."""
    pairs = []
    if "table2" in outs:
        pairs = list(zip(outs["table2"].series["llp"], PAPER_TABLE2))
    elif "table1" in outs:
        s = outs["table1"].series
        pairs = (list(zip(s["edtlp"], PAPER_TABLE1_EDTLP))
                 + list(zip(s["linux"], PAPER_TABLE1_LINUX)))
    if not pairs:
        return None
    return 100.0 * sum(abs(m - p) / p for m, p in pairs) / len(pairs)


def _conserved(summary: Dict[str, Any], lost: int) -> bool:
    return summary["admitted"] == (summary["completed"] + summary["cancelled"]
                                   + summary["deadline_aborts"] + lost)


def invariants(workload: str, ops: List[Op], outs: Dict[str, Any]) -> List[str]:
    """Seed-independent checks; returns one message per violation."""
    bad = []
    kinds = {op.name: op.kind for op in ops}
    digests_by_size: Dict[int, set] = {}
    for name, out in outs.items():
        for r in schedule_results(kinds[name], out):
            if r.bootstraps_completed != r.bootstraps:
                bad.append(f"{name}: {r.bootstraps_completed}/{r.bootstraps} "
                           f"bootstraps completed")
            digests_by_size.setdefault(r.bootstraps, set()).add(r.result_digest)
    for b, digests in digests_by_size.items():
        if len(digests) != 1:
            bad.append(f"{b}-bootstrap runs disagree on the result digest "
                       f"across schedulers")
    serves = {name: serve_of(kinds[name], out) for name, out in outs.items()
              if kinds[name] in ("serve", "dag", "traced-serve")}
    for name, r in serves.items():
        if not _conserved(r.summary, r.lost_jobs):
            bad.append(f"{name}: admitted != completed + cancelled + "
                       f"aborted + lost")
    if workload == "serve-steady":
        # Queue-full shedding depends on the policy, so the key sets may
        # differ; every job the policies share must carry one digest.
        first = serves[SERVE_POLICIES[0]].digest_map()
        for p in SERVE_POLICIES[1:]:
            other = serves[p].digest_map()
            shared = first.keys() & other.keys()
            if (len(shared) < min(len(first), len(other)) // 2
                    or any(first[k] != other[k] for k in shared)):
                bad.append(f"{p}: digests differ from "
                           f"{SERVE_POLICIES[0]} on shared jobs")
    if workload == "dag-fanout":
        if outs["cache-warm"].final_digests != outs["cache-cold"].final_digests:
            bad.append("warm resubmission changed the final digests")
        if outs["cache-warm"].cache_hits == 0:
            bad.append("warm resubmission never hit the stage cache")
    if workload == "traced-serve":
        for p in TRACED_POLICIES:
            plain, traced = serves[f"{p}/plain"], serves[f"{p}/traced"]
            breakdown = outs[f"{p}/traced"][1]
            if (plain.digest_map() != traced.digest_map()
                    or plain.summary != traced.summary
                    or plain.events_processed != traced.events_processed):
                bad.append(f"{p}: traced run differs from its untraced twin")
            if breakdown["completed"] != traced.summary["completed"]:
                bad.append(f"{p}: causal breakdown lost completed jobs")
    return bad
