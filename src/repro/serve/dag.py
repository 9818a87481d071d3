"""Workflow DAG layer: staged pipelines over the serving fleet.

Real phylogenetics traffic is not independent jobs but *pipelines* —
check the MSA, infer ML trees, fan a bootstrap out into replicates,
fold them back into a consensus.  This module adds that third grain
above jobs and dispatch units: a :class:`WorkflowSpec` names the
stages and their dependencies, and a :class:`WorkflowEngine` sits in
front of the existing :class:`~repro.serve.admission.FrontEnd`,
submitting each stage the moment its dependencies resolve and folding
per-stage results into one workflow record.

Three mechanisms make the tier more than a topological sort:

* **Fan-out/fan-in** — a bootstrap stage replicates into ``fan_out``
  sibling jobs, one per replicate, keyed by seeded substreams so each
  replicate has a distinct, reproducible identity (variant, trace
  seed, result digest, and replicate tree).
* **Bootstopping** — an autoMRE-style :class:`~repro.serve.bootstop
  .BootstopMonitor` watches completed replicates in completion order;
  once majority-rule support values stabilize the engine cancels every
  replicate that has not started, via the service's job-cancel/drain
  path, keeping job conservation exact (:mod:`repro.invariants`).
* **Result caching** — completed stages are content-addressed into a
  fleet-wide :class:`~repro.serve.cache.ResultCache`; a repeated
  identical workflow short-circuits every stage to a cache hit and
  reproduces the cold run's final digest exactly (bootstrap entries
  replay the cold run's completed-replicate set).

Everything is deterministic per :class:`DagConfig`; `serve.dag.*`
metrics expose cache hit rate, wasted work avoided, stages in flight
and bootstop savings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cell.params import BladeParams
from ..invariants import conservation
from ..obs.metrics import stable_round
from ..phylo.consensus import majority_rule_consensus
from ..phylo.tree import Tree
from ..sim.engine import Environment
from ..sim.rng import RngStreams
from ..validation import require_finite
from .bootstop import BootstopConfig, BootstopMonitor
from .cache import CacheEntry, ResultCache, content_key
from .fleet import FleetFaultPlan
from .jobs import JobTemplate, TenantSpec
from .service import ServeConfig, ServeResult, Service

__all__ = [
    "StageSpec",
    "WorkflowSpec",
    "DagConfig",
    "DagResult",
    "WorkflowEngine",
    "raxml_workflow",
    "replicate_tree",
    "run_dag",
]


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a job template, dependencies, and a fan-out.

    ``fan_out=1`` submits a single job; ``fan_out=N`` replicates the
    stage into N sibling jobs (variants 0..N-1 — distinct trace seeds
    and digests through the existing job-seed machinery).
    """

    name: str
    template: JobTemplate
    after: Tuple[str, ...] = ()
    fan_out: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage names must be non-empty")
        if self.fan_out < 1:
            raise ValueError("fan_out must be >= 1")
        if len(set(self.after)) != len(self.after):
            raise ValueError(f"stage {self.name!r} lists a dependency twice")


@dataclass(frozen=True)
class WorkflowSpec:
    """A named DAG of stages plus the phylogenetic workload it models.

    ``n_taxa``/``conflict`` parameterize the replicate trees the
    bootstop monitor judges: each replicate perturbs a shared base
    topology with probability ``conflict`` (NNI moves), so small values
    give a *converging* workload (supports stabilize quickly) and
    ``conflict=1.0`` gives a *diverging* one (independent topologies).
    """

    name: str
    stages: Tuple[StageSpec, ...]
    n_taxa: int = 12
    conflict: float = 0.15

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a workflow needs at least one stage")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError("stage names must be unique")
        known = set(names)
        for s in self.stages:
            for dep in s.after:
                if dep not in known:
                    raise ValueError(
                        f"stage {s.name!r} depends on unknown stage {dep!r}"
                    )
        self.topo_order()  # raises on cycles
        if self.n_taxa < 4:
            raise ValueError("n_taxa must be >= 4")
        if not (0.0 <= self.conflict <= 1.0):
            raise ValueError("conflict must be in [0, 1]")

    def topo_order(self) -> Tuple[StageSpec, ...]:
        """Stages in dependency order (stable: spec order within ties)."""
        by_name = {s.name: s for s in self.stages}
        done: List[StageSpec] = []
        placed = set()
        remaining = list(self.stages)
        while remaining:
            progress = False
            still = []
            for s in remaining:
                if all(dep in placed for dep in s.after):
                    done.append(s)
                    placed.add(s.name)
                    progress = True
                else:
                    still.append(s)
            if not progress:
                cyc = ", ".join(s.name for s in still)
                raise ValueError(f"workflow has a dependency cycle: {cyc}")
            remaining = still
        return tuple(done)

    @property
    def total_jobs(self) -> int:
        return sum(s.fan_out for s in self.stages)


def raxml_workflow(replicates: int = 100, conflict: float = 0.15,
                   n_taxa: int = 12) -> WorkflowSpec:
    """The canonical pipeline: check MSA -> infer ML -> bootstrap -> consensus."""
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    check = JobTemplate("wf-check", bootstraps=1, tasks_per_bootstrap=8,
                        variants=1)
    infer = JobTemplate("wf-infer", bootstraps=2, tasks_per_bootstrap=40,
                        variants=1)
    boot = JobTemplate("wf-boot", bootstraps=1, tasks_per_bootstrap=12,
                       variants=replicates)
    cons = JobTemplate("wf-consensus", bootstraps=1, tasks_per_bootstrap=8,
                       variants=1)
    return WorkflowSpec(
        name=f"raxml-{replicates}",
        stages=(
            StageSpec("check-msa", check),
            StageSpec("infer-ml", infer, after=("check-msa",)),
            StageSpec("bootstrap", boot, after=("infer-ml",),
                      fan_out=replicates),
            StageSpec("consensus", cons, after=("bootstrap",)),
        ),
        n_taxa=n_taxa,
        conflict=conflict,
    )


def replicate_tree(spec: WorkflowSpec, root_seed: int, replicate: int) -> Tree:
    """The deterministic tree replicate ``replicate`` infers.

    All replicates share one base topology drawn from a workflow-keyed
    substream; each replicate perturbs it (1-2 NNI moves) with
    probability ``spec.conflict`` from its own substream.  At
    ``conflict >= 1`` replicates draw independent topologies instead —
    a workload whose supports never stabilize.  Stateless: the same
    (spec, seed, replicate) always yields the same tree.
    """
    streams = RngStreams(root_seed).spawn(f"dag:{spec.name}:trees")
    base = Tree.random_topology(spec.n_taxa, streams.stream("base"))
    rng = streams.stream(f"rep{replicate}")
    if spec.conflict >= 1.0:
        return Tree.random_topology(spec.n_taxa, rng)
    if float(rng.uniform()) >= spec.conflict:
        return base
    tree = base
    for _ in range(1 + int(rng.integers(2))):
        moves = tree.nni_neighbourhood()
        branch_id, variant = moves[int(rng.integers(len(moves)))]
        tree.nni(tree.find(branch_id), variant)
    return tree


@dataclass(frozen=True)
class DagConfig:
    """Everything one workflow-serving run depends on.

    ``interarrival_s=None`` (the default) chains submissions strictly
    back to back — submission k+1 starts when k completes, the regime
    the cache-warm gate measures; a float staggers open-loop starts
    instead, letting workflows overlap.
    """

    workflow: WorkflowSpec
    submissions: int = 1
    interarrival_s: Optional[float] = None
    seed: int = 0
    dispatch: str = "least-loaded"
    scheduler: str = "mgps"
    blade: BladeParams = BladeParams(n_cells=2)
    blades: int = 2
    dispatch_overhead_s: float = 0.5
    bootstop: Optional[BootstopConfig] = None
    cache: bool = True
    faults: Optional[FleetFaultPlan] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.submissions < 1:
            raise ValueError("submissions must be >= 1")
        if self.interarrival_s is not None:
            require_finite("interarrival_s", self.interarrival_s)
        if self.blades < 1:
            raise ValueError("blades must be >= 1")
        require_finite("dispatch_overhead_s", self.dispatch_overhead_s)


@dataclass
class _WorkflowCtx:
    """Mutable per-submission state threaded through the stage procs."""

    k: int
    tenant: TenantSpec
    t_submit: float
    digests: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    replicates: Dict[str, Tuple[Tuple[int, str], ...]] = field(
        default_factory=dict
    )
    stage_records: Dict[str, Dict[str, Any]] = field(default_factory=dict)


class WorkflowEngine:
    """Drives workflows through a :class:`Service` started with
    ``arrivals=False``: the engine is the arrival source, and it flips
    ``arrivals_done`` itself once its last workflow resolves."""

    def __init__(
        self,
        env: Environment,
        service: Service,
        config: DagConfig,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.env = env
        self.service = service
        self.config = config
        self.tracer = service.tracer
        self.metrics = service.metrics
        if not config.cache:
            self.cache: Optional[ResultCache] = None
        else:
            self.cache = cache if cache is not None else ResultCache(
                self.metrics
            )
        self.records: List[Dict[str, Any]] = []
        self.final_digests: List[str] = []
        self.bootstop_cancelled = 0
        self.bootstop_saved_s = 0.0
        self.fan_out_total = 0
        self._inflight = 0
        # Fan-in memos, alive for this run only.  ``replicate_tree`` is
        # pure in (workflow, seed, replicate) and the first two are fixed
        # per run, so each tree is derived once and shared read-only by
        # the bootstop monitors and every submission's consensus; a
        # consensus depends only on its sorted replicate set.
        self._trees: Dict[int, Tree] = {}
        self._consensus: Dict[Tuple[int, ...], Dict[str, Any]] = {}
        self.metrics.counter(
            "serve.dag.workflows", help="workflows resolved end to end"
        )
        self.metrics.counter(
            "serve.dag.stages", help="workflow stages resolved"
        )
        self.metrics.counter(
            "serve.dag.bootstop_cancelled",
            help="fan-out replicates cancelled by the convergence monitor",
        )
        self.metrics.gauge(
            "serve.dag.stages_in_flight",
            help="stages past their dependencies but not yet resolved",
        ).set(0)

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        env = self.env
        if self.config.interarrival_s is None:
            procs = [env.process(self._sequential_driver(), name="dag-driver")]
        else:
            procs = [
                env.process(self._workflow_proc(k), name=f"workflow-{k}")
                for k in range(self.config.submissions)
            ]
        env.process(self._watcher(procs), name="dag-watcher")

    def _watcher(self, procs):
        yield self.env.all_of(procs)
        self.service.arrivals_done = True
        self.service._check_stop()

    def _sequential_driver(self):
        for k in range(self.config.submissions):
            yield from self._workflow(k)

    def _workflow_proc(self, k: int):
        if k and self.config.interarrival_s:
            yield self.env.timeout(k * self.config.interarrival_s)
        yield from self._workflow(k)

    # -- one workflow ------------------------------------------------------
    def _workflow(self, k: int):
        env = self.env
        spec = self.config.workflow
        tenants = self.service.config.tenants
        ctx = _WorkflowCtx(
            k=k, tenant=tenants[k % len(tenants)], t_submit=env.now
        )
        if self.tracer is not None:
            self.tracer.emit(env.now, "serve", "workflow", "workflow-start",
                             submission=k, workflow=spec.name)
        stage_done = {s.name: env.event() for s in spec.stages}
        procs = [
            env.process(self._stage_proc(spec, s, ctx, stage_done),
                        name=f"wf{k}-{s.name}")
            for s in spec.topo_order()
        ]
        yield env.all_of(procs)
        self._finalize(spec, ctx)

    def _finalize(self, spec: WorkflowSpec, ctx: _WorkflowCtx) -> None:
        # Fan-in: the majority-rule consensus over whichever replicates
        # actually completed (bootstop cancels a suffix; a warm cache
        # hit replays the cold run's set, so this stays digest-stable).
        consensus: Dict[str, Dict[str, Any]] = {}
        for stage_name, reps in sorted(ctx.replicates.items()):
            if reps:
                used = tuple(sorted(r for r, _digest in reps))
                # A copy: records are handed to callers, the memo is not.
                consensus[stage_name] = dict(self._fan_in(used))
        order = spec.topo_order()
        final_digest = content_key(
            "workflow", spec.name,
            *[(s.name, ctx.digests.get(s.name, ())) for s in order],
            *[(name, c["newick"]) for name, c in sorted(consensus.items())],
        )
        stages = [ctx.stage_records[s.name] for s in order
                  if s.name in ctx.stage_records]
        record = {
            "workflow": spec.name,
            "submission": ctx.k,
            "tenant": ctx.tenant.name,
            "t_submit": stable_round(ctx.t_submit),
            "t_done": stable_round(self.env.now),
            "makespan_s": stable_round(self.env.now - ctx.t_submit),
            "stages": stages,
            "cache_hits": sum(1 for s in stages if s["cache"] == "hit"),
            "stages_total": len(stages),
            "consensus": consensus,
            "final_digest": final_digest,
        }
        self.records.append(record)
        self.final_digests.append(final_digest)
        self.metrics.counter(
            "serve.dag.workflows", help="workflows resolved end to end"
        ).inc()
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "serve", "workflow", "workflow-done",
                submission=ctx.k, workflow=spec.name,
                digest=final_digest[:16],
                cache_hits=record["cache_hits"],
            )

    # -- fan-in ------------------------------------------------------------
    def _replicate_tree(self, r: int) -> Tree:
        """Replicate ``r``'s tree, derived at most once per run."""
        tree = self._trees.get(r)
        if tree is None:
            tree = self._trees[r] = replicate_tree(
                self.config.workflow, self.config.seed, r
            )
        return tree

    def _fan_in(self, used: Tuple[int, ...]) -> Dict[str, Any]:
        """Majority-rule consensus over the sorted replicate set ``used``,
        built once per distinct set per run."""
        summary = self._consensus.get(used)
        if summary is None:
            tree, supports = majority_rule_consensus(
                [self._replicate_tree(r) for r in used]
            )
            summary = self._consensus[used] = {
                "newick": tree.newick(),
                "splits": len(supports),
                "replicates_used": len(used),
            }
        return summary

    # -- one stage ---------------------------------------------------------
    def _stage_key(self, spec: WorkflowSpec, stage: StageSpec,
                   ctx: _WorkflowCtx) -> str:
        cfg = self.config
        bootstop = (cfg.bootstop.describe()
                    if cfg.bootstop is not None and stage.fan_out > 1
                    else "off")
        parts: List[Any] = [
            "dag-stage", cfg.seed, cfg.scheduler, repr(cfg.blade),
            spec.name, spec.n_taxa, stable_round(spec.conflict),
            stage.name, stage.template.name, stage.template.bootstraps,
            stage.template.tasks_per_bootstrap, stage.fan_out, bootstop,
        ]
        for dep in sorted(stage.after):
            parts.append(dep)
            parts.extend(ctx.digests.get(dep, ()))
        return content_key(*parts)

    def _set_inflight(self, delta: int) -> None:
        self._inflight += delta
        self.metrics.gauge(
            "serve.dag.stages_in_flight",
            help="stages past their dependencies but not yet resolved",
        ).set(self._inflight)

    def _stage_proc(self, spec: WorkflowSpec, stage: StageSpec,
                    ctx: _WorkflowCtx, stage_done: Dict[str, Any]):
        env = self.env
        for dep in stage.after:
            ev = stage_done[dep]
            if not ev.triggered:
                yield ev
        t_ready = env.now
        self._set_inflight(+1)
        if self.tracer is not None:
            self.tracer.emit(env.now, "serve", "workflow", "stage-ready",
                             submission=ctx.k, stage=stage.name,
                             fan_out=stage.fan_out)
        rec: Dict[str, Any] = {
            "stage": stage.name,
            "template": stage.template.name,
            "fan_out": stage.fan_out,
            "t_ready": stable_round(t_ready),
            "submitted": 0, "completed": 0, "cancelled": 0,
            "aborted": 0, "lost": 0, "shed": 0,
            "cache": "off" if self.cache is None else "miss",
            "service_spent_s": 0.0,
            "bootstop_saved_s": 0.0,
            "converged_at": None,
        }
        ctx.stage_records[stage.name] = rec
        key = self._stage_key(spec, stage, ctx)
        entry = self.cache.get(key) if self.cache is not None else None
        if entry is not None:
            ctx.digests[stage.name] = entry.digests
            if entry.replicates:
                ctx.replicates[stage.name] = entry.replicates
            rec["cache"] = "hit"
            rec["status"] = "cached"
            rec["completed"] = len(entry.digests)
            rec["cancelled"] = entry.cancelled
            rec["service_spent_s"] = 0.0
            rec["cache_saved_s"] = stable_round(entry.service_time_s)
            if self.tracer is not None:
                self.tracer.emit(env.now, "serve", "workflow", "cache-hit",
                                 submission=ctx.k, stage=stage.name,
                                 saved_s=stable_round(entry.service_time_s))
            self._resolve_stage(stage, rec, stage_done)
            return

        # Cache miss (or cache off): fan the stage out as real jobs.
        jobs = {}
        for r in range(stage.fan_out):
            job = self.service.frontend.submit(
                ctx.tenant, r, source=f"wf{ctx.k}:{stage.name}:{r}",
                template=stage.template, awaited=True,
            )
            if job is None:
                rec["shed"] += 1
                continue
            jobs[r] = job
        rec["submitted"] = len(jobs)
        monitor = None
        if self.config.bootstop is not None and stage.fan_out > 1:
            monitor = BootstopMonitor(self.config.bootstop)
            self.fan_out_total += stage.fan_out
        completed: List[Tuple[int, str, float]] = []
        pending = dict(jobs)
        while pending:
            waiting = [j.done for j in pending.values()
                       if not j.done.triggered]
            if waiting:
                # Detach once fired: the jobs still pending would
                # otherwise keep one stale ``_check`` per wake each.
                cond = env.any_of(waiting)
                yield cond
                cond.detach()
            ready = [r for r, j in sorted(pending.items())
                     if j.done.triggered]
            for r in ready:
                job = pending.pop(r)
                if job.cancelled:
                    rec["cancelled"] += 1
                    continue
                if job.aborted:
                    rec["aborted"] += 1
                    continue
                if job.finish_time is None:
                    rec["lost"] += 1
                    continue
                completed.append((r, job.digest, job.service_time))
                if monitor is not None and not monitor.converged:
                    if monitor.add(self._replicate_tree(r)):
                        self._bootstop(stage, ctx, rec, monitor, pending)

        completed.sort()
        digests = tuple(d for _r, d, _s in completed)
        spent = sum(s for _r, _d, s in completed)
        rec["completed"] = len(completed)
        rec["service_spent_s"] = stable_round(spent)
        rec["status"] = ("completed" if not (rec["lost"] or rec["shed"])
                         else "degraded")
        ctx.digests[stage.name] = digests
        if stage.fan_out > 1:
            ctx.replicates[stage.name] = tuple(
                (r, d) for r, d, _s in completed
            )
        if self.cache is not None:
            self.cache.put(CacheEntry(
                key=key,
                stage=stage.name,
                digests=digests,
                service_time_s=spent,
                replicates=ctx.replicates.get(stage.name, ()),
                cancelled=rec["cancelled"],
            ))
        self._resolve_stage(stage, rec, stage_done)

    def _bootstop(self, stage: StageSpec, ctx: _WorkflowCtx,
                  rec: Dict[str, Any], monitor: BootstopMonitor,
                  pending: Dict[int, Any]) -> None:
        """Supports stabilized: cancel every not-yet-running replicate."""
        cancelled = 0
        saved = 0.0
        for r in sorted(pending):
            job = pending[r]
            if self.service.cancel_job(job):
                cancelled += 1
                saved += job.service_time
        self.service.purge_cancelled_units()
        self.bootstop_cancelled += cancelled
        self.bootstop_saved_s += saved
        rec["converged_at"] = monitor.converged_at
        rec["bootstop_saved_s"] = stable_round(saved)
        if cancelled:
            self.metrics.counter(
                "serve.dag.bootstop_cancelled",
                help="fan-out replicates cancelled by the convergence "
                     "monitor",
            ).inc(cancelled)
        self.metrics.gauge(
            "serve.dag.bootstop_saved_s",
            help="service seconds cancelled after support convergence",
        ).set(self.bootstop_saved_s)
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "serve", "workflow", "bootstop-converged",
                submission=ctx.k, stage=stage.name,
                replicates_seen=monitor.converged_at,
                cancelled=cancelled, saved_s=stable_round(saved),
            )

    def _resolve_stage(self, stage: StageSpec, rec: Dict[str, Any],
                       stage_done: Dict[str, Any]) -> None:
        rec["t_done"] = stable_round(self.env.now)
        self.metrics.counter(
            "serve.dag.stages", help="workflow stages resolved"
        ).inc()
        self._set_inflight(-1)
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "serve", "workflow", "stage-done",
                stage=stage.name, cache=rec["cache"],
                completed=rec["completed"], cancelled=rec["cancelled"],
            )
        ev = stage_done[stage.name]
        if not ev.triggered:
            ev.succeed()

    # -- reporting ---------------------------------------------------------
    def result(self) -> "DagResult":
        serve = self.service.result()
        cache_stats = (self.cache.stats() if self.cache is not None
                       else {"entries": 0, "hits": 0, "misses": 0,
                             "hit_rate": 0.0, "wasted_work_avoided_s": 0.0})
        self.metrics.gauge(
            "serve.dag.cache_hit_rate",
            help="fraction of stage lookups served from the result cache",
        ).set(cache_stats["hit_rate"])
        savings = (self.bootstop_cancelled / self.fan_out_total
                   if self.fan_out_total else 0.0)
        self.metrics.gauge(
            "serve.dag.bootstop_savings",
            help="fraction of the bootstrap fan-out cancelled as redundant",
        ).set(savings)
        return DagResult(
            workflow=self.config.workflow.name,
            submissions=self.config.submissions,
            seed=self.config.seed,
            dispatch=self.config.dispatch,
            scheduler=self.config.scheduler,
            blades=self.config.blades,
            bootstop=(self.config.bootstop.describe()
                      if self.config.bootstop is not None else None),
            cache_enabled=self.cache is not None,
            makespan=self.env.now,
            serve=serve,
            workflows=tuple(self.records),
            final_digests=tuple(self.final_digests),
            cache_hits=cache_stats["hits"],
            cache_misses=cache_stats["misses"],
            cache_hit_rate=cache_stats["hit_rate"],
            wasted_work_avoided_s=cache_stats["wasted_work_avoided_s"],
            bootstop_cancelled=self.bootstop_cancelled,
            bootstop_saved_s=self.bootstop_saved_s,
            bootstop_savings=savings,
            fan_out_total=self.fan_out_total,
        )


@dataclass(frozen=True)
class DagResult:
    """Outcome of one workflow-serving run — deterministic, JSON-stable."""

    workflow: str
    submissions: int
    seed: int
    dispatch: str
    scheduler: str
    blades: int
    bootstop: Optional[str]
    cache_enabled: bool
    makespan: float
    serve: ServeResult
    workflows: Tuple[Dict[str, Any], ...]
    final_digests: Tuple[str, ...]
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    wasted_work_avoided_s: float
    bootstop_cancelled: int
    bootstop_saved_s: float
    bootstop_savings: float
    fan_out_total: int

    @property
    def conservation_ok(self) -> bool:
        """Job conservation holds (:func:`repro.invariants.conservation`)."""
        return not conservation(self.serve.summary)

    def to_json(self) -> str:
        s = self.serve.summary
        payload = {
            "workflow": self.workflow,
            "submissions": self.submissions,
            "seed": self.seed,
            "dispatch": self.dispatch,
            "scheduler": self.scheduler,
            "blades": self.blades,
            "bootstop": self.bootstop,
            "cache_enabled": self.cache_enabled,
            "makespan": stable_round(self.makespan),
            "jobs": {
                "admitted": s["admitted"],
                "completed": s["completed"],
                "cancelled": s["cancelled"],
                "aborted": s["deadline_aborts"],
                "lost": self.serve.lost_jobs,
                "conservation_ok": self.conservation_ok,
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": stable_round(self.cache_hit_rate),
                "wasted_work_avoided_s": stable_round(
                    self.wasted_work_avoided_s
                ),
            },
            "bootstop_cancelled": self.bootstop_cancelled,
            "bootstop_saved_s": stable_round(self.bootstop_saved_s),
            "bootstop_savings": stable_round(self.bootstop_savings),
            "fan_out_total": self.fan_out_total,
            "final_digests": list(self.final_digests),
            "workflows": list(self.workflows),
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def summary_text(self) -> str:
        s = self.serve.summary
        lines = [
            f"workflow run: {self.workflow} x{self.submissions}"
            f" dispatch={self.dispatch} scheduler={self.scheduler}"
            f" blades={self.blades}",
            f"  bootstop={'off' if self.bootstop is None else self.bootstop}"
            f" cache={'on' if self.cache_enabled else 'off'}"
            f" seed={self.seed}",
            f"  drained at {self.makespan:.2f} s; jobs: {s['admitted']} "
            f"admitted, {s['completed']} completed, {s['cancelled']} "
            f"cancelled, {s['deadline_aborts']} aborted, "
            f"{self.serve.lost_jobs} lost "
            f"(conservation {'ok' if self.conservation_ok else 'VIOLATED'})",
        ]
        if self.fan_out_total:
            lines.append(
                f"  bootstop: cancelled {self.bootstop_cancelled}/"
                f"{self.fan_out_total} replicates "
                f"({self.bootstop_savings:.1%}), saved "
                f"{self.bootstop_saved_s:.1f} service-s"
            )
        if self.cache_enabled:
            lines.append(
                f"  cache: {self.cache_hits} hits / {self.cache_misses} "
                f"misses ({self.cache_hit_rate:.1%}), wasted work avoided "
                f"{self.wasted_work_avoided_s:.1f} service-s"
            )
        for w in self.workflows:
            lines.append(
                f"  wf{w['submission']}: {w['stages_total']} stages, "
                f"{w['cache_hits']} cached, makespan {w['makespan_s']:.2f} s,"
                f" digest {w['final_digest'][:16]}"
            )
        return "\n".join(lines)


def run_dag(
    config: DagConfig,
    tracer=None,
    metrics=None,
    cache: Optional[ResultCache] = None,
) -> DagResult:
    """Execute one workflow-serving run to full drain.

    Deterministic per config.  Pass a :class:`~repro.serve.cache
    .ResultCache` to share stage results across several runs in one
    process (a long-lived fleet's warm cache); by default each run
    starts cold.
    """
    spec = config.workflow
    tenants = tuple(
        TenantSpec(f"wf{k}", spec.stages[0].template,
                   priority=config.priority)
        for k in range(config.submissions)
    )
    serve_cfg = ServeConfig(
        tenants=tenants,
        duration_s=1.0,  # unused: the engine is the arrival source
        seed=config.seed,
        dispatch=config.dispatch,
        scheduler=config.scheduler,
        blade=config.blade,
        min_blades=config.blades,
        max_blades=config.blades,
        queue_capacity=max(64, spec.total_jobs * config.submissions + 8),
        dispatch_overhead_s=config.dispatch_overhead_s,
        faults=config.faults,
    )
    env = Environment(tracer=tracer, metrics=metrics)
    service = Service(env, serve_cfg)
    service.start(arrivals=False)
    engine = WorkflowEngine(env, service, config, cache=cache)
    engine.start()
    env.run_until_complete(service._main)
    return engine.result()
