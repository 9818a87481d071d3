"""Tests for the workflow DAG layer (src/repro/serve/dag.py).

Acceptance surface of the workflow PR: staged pipelines run to full
drain deterministically; autoMRE bootstopping cancels >= 30% of a
converging 100-replicate fan-out with exact job conservation and zero
losses; a repeated identical submission hits the digest-keyed stage
cache on every stage and reproduces the cold run's final digest bit
for bit; blade kills during the fan-out lose nothing.
"""

import dataclasses
import json
import math
from collections import Counter

import pytest

import repro.serve.dag as dag_module
from repro.obs.metrics import MetricsRegistry
from repro.phylo.consensus import majority_rule_consensus
from repro.serve import (
    BladeKill,
    BootstopConfig,
    BootstopMonitor,
    DagConfig,
    FleetFaultPlan,
    JobTemplate,
    ResultCache,
    StageSpec,
    WorkflowEngine,
    WorkflowSpec,
    content_key,
    raxml_workflow,
    replicate_tree,
    run_dag,
)
from repro.sim.trace import Tracer

T = JobTemplate("t", bootstraps=1, tasks_per_bootstrap=8, variants=1)


# -- spec validation ----------------------------------------------------------

class TestWorkflowSpec:
    def test_topo_order_respects_dependencies(self):
        spec = raxml_workflow(replicates=10)
        order = [s.name for s in spec.topo_order()]
        assert order.index("check-msa") < order.index("infer-ml")
        assert order.index("infer-ml") < order.index("bootstrap")
        assert order.index("bootstrap") < order.index("consensus")
        assert spec.total_jobs == 1 + 1 + 10 + 1

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            WorkflowSpec("w", (StageSpec("a", T), StageSpec("a", T)))

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            WorkflowSpec("w", (StageSpec("a", T, after=("ghost",)),))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            WorkflowSpec("w", (
                StageSpec("a", T, after=("b",)),
                StageSpec("b", T, after=("a",)),
            ))

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            StageSpec("", T)
        with pytest.raises(ValueError):
            StageSpec("a", T, fan_out=0)
        with pytest.raises(ValueError):
            StageSpec("a", T, after=("x", "x"))

    def test_config_validation(self):
        wf = raxml_workflow(replicates=4)
        with pytest.raises(ValueError):
            DagConfig(workflow=wf, submissions=0)
        with pytest.raises(ValueError):
            DagConfig(workflow=wf, blades=0)
        with pytest.raises(ValueError):
            DagConfig(workflow=wf, interarrival_s=-1.0)

    @pytest.mark.parametrize("field", ["interarrival_s",
                                       "dispatch_overhead_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_gaps_must_be_finite(self, field, value):
        # Checked at construction only: such a config is never run.
        with pytest.raises(ValueError, match=field):
            DagConfig(workflow=raxml_workflow(replicates=4),
                      **{field: value})

    def test_zero_gaps_are_accepted(self):
        cfg = DagConfig(workflow=raxml_workflow(replicates=4),
                        interarrival_s=0.0, dispatch_overhead_s=0.0)
        assert (cfg.interarrival_s, cfg.dispatch_overhead_s) == (0.0, 0.0)


# -- replicate trees ----------------------------------------------------------

class TestReplicateTrees:
    def test_stateless_and_deterministic(self):
        spec = raxml_workflow(replicates=8)
        a = replicate_tree(spec, 0, 3)
        b = replicate_tree(spec, 0, 3)
        assert a.newick() == b.newick()

    def test_seed_and_replicate_change_the_draw(self):
        spec = raxml_workflow(replicates=8, conflict=1.0)
        trees = {replicate_tree(spec, 0, r).newick() for r in range(8)}
        assert len(trees) > 1  # independent topologies actually differ

    def test_converging_workload_mostly_shares_the_base(self):
        spec = raxml_workflow(replicates=40, conflict=0.15)
        news = [replicate_tree(spec, 0, r).newick() for r in range(40)]
        most_common = max(news, key=news.count)
        assert news.count(most_common) > 20  # base topology dominates


# -- bootstop monitor ---------------------------------------------------------

class TestBootstopConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BootstopConfig(min_replicates=1)
        with pytest.raises(ValueError):
            BootstopConfig(check_every=0)
        with pytest.raises(ValueError):
            BootstopConfig(threshold=0.0)
        with pytest.raises(ValueError):
            BootstopConfig(stable_checks=0)

    def test_describe_round_trips_the_fields(self):
        d = BootstopConfig(min_replicates=10, check_every=2,
                           threshold=0.1, stable_checks=3).describe()
        assert d == "min=10 every=2 thr=0.1 stable=3"

    def test_diverging_trees_do_not_converge_early(self):
        spec = raxml_workflow(replicates=30, conflict=1.0)
        mon = BootstopMonitor(BootstopConfig(min_replicates=10,
                                             check_every=5, threshold=0.01))
        for r in range(30):
            mon.add(replicate_tree(spec, 0, r))
        assert not mon.converged  # tight threshold, independent trees


# -- determinism --------------------------------------------------------------

class TestDeterminism:
    def test_same_config_same_result(self):
        cfg = DagConfig(workflow=raxml_workflow(replicates=20), seed=3,
                        bootstop=BootstopConfig(min_replicates=10,
                                                check_every=2))
        a = run_dag(cfg)
        b = run_dag(cfg)
        assert a.to_json() == b.to_json()
        assert a.final_digests == b.final_digests
        assert a.makespan == b.makespan

    def test_json_is_loadable_and_conserved(self):
        cfg = DagConfig(workflow=raxml_workflow(replicates=12), seed=1)
        payload = json.loads(run_dag(cfg).to_json())
        jobs = payload["jobs"]
        assert jobs["conservation_ok"]
        assert jobs["admitted"] == (jobs["completed"] + jobs["cancelled"]
                                    + jobs["aborted"] + jobs["lost"])


# -- bootstopping -------------------------------------------------------------

class TestBootstopping:
    def test_cancels_at_least_30_percent_with_exact_conservation(self):
        # The acceptance criterion: a converging 100-replicate fan-out.
        cfg = DagConfig(workflow=raxml_workflow(replicates=100),
                        seed=0, bootstop=BootstopConfig())
        r = run_dag(cfg)
        assert r.fan_out_total == 100
        assert r.bootstop_cancelled >= 30
        assert r.bootstop_savings >= 0.30
        assert r.serve.lost_jobs == 0
        assert r.conservation_ok
        s = r.serve.summary
        assert s["cancelled"] == r.bootstop_cancelled
        assert s["admitted"] == (s["completed"] + s["cancelled"]
                                 + s["deadline_aborts"] + r.serve.lost_jobs)

    def test_bootstop_shortens_the_makespan(self):
        wf = raxml_workflow(replicates=60)
        full = run_dag(DagConfig(workflow=wf, seed=0))
        stopped = run_dag(DagConfig(workflow=wf, seed=0,
                                    bootstop=BootstopConfig()))
        assert stopped.makespan < full.makespan
        assert stopped.bootstop_saved_s > 0

    def test_bootstop_off_runs_the_full_fan_out(self):
        r = run_dag(DagConfig(workflow=raxml_workflow(replicates=30),
                              seed=0))
        assert r.bootstop_cancelled == 0
        assert r.serve.summary["completed"] == r.serve.summary["admitted"]

    def test_converged_trace_event_emitted(self):
        tracer = Tracer(enabled=True)
        run_dag(DagConfig(workflow=raxml_workflow(replicates=60), seed=0,
                          bootstop=BootstopConfig()), tracer=tracer)
        events = [r.event for r in tracer.records if r.category == "serve"]
        assert "bootstop-converged" in events
        assert "workflow-cancel" in events


# -- result cache -------------------------------------------------------------

class TestResultCache:
    def test_repeat_submission_hits_every_stage_with_identical_digest(self):
        # The acceptance criterion: 100% stage-cache hit rate and a
        # digest-identical final result on the repeat submission.
        cfg = DagConfig(workflow=raxml_workflow(replicates=40),
                        submissions=2, seed=0)
        r = run_dag(cfg)
        cold, warm = r.workflows
        assert cold["cache_hits"] == 0
        assert warm["cache_hits"] == warm["stages_total"]
        assert r.final_digests[0] == r.final_digests[1]
        assert warm["makespan_s"] < cold["makespan_s"]

    def test_warm_hits_replay_bootstopped_replicate_set(self):
        # Under bootstop the cold run completes a timing-dependent
        # replicate subset; the warm hit must replay exactly that set,
        # so the consensus digest cannot drift.
        cfg = DagConfig(workflow=raxml_workflow(replicates=60),
                        submissions=2, seed=0, bootstop=BootstopConfig())
        r = run_dag(cfg)
        assert r.final_digests[0] == r.final_digests[1]
        assert r.workflows[1]["cache_hits"] == r.workflows[1]["stages_total"]

    def test_shared_cache_spans_runs(self):
        wf = raxml_workflow(replicates=20)
        cache = ResultCache(MetricsRegistry())
        run_dag(DagConfig(workflow=wf, seed=0), cache=cache)
        warm = run_dag(DagConfig(workflow=wf, seed=0), cache=cache)
        assert warm.cache_hit_rate > 0
        assert warm.workflows[0]["cache_hits"] == len(wf.stages)

    def test_cache_off_never_hits(self):
        cfg = DagConfig(workflow=raxml_workflow(replicates=12),
                        submissions=2, seed=0, cache=False)
        r = run_dag(cfg)
        assert r.cache_hits == 0
        assert not r.cache_enabled
        assert r.final_digests[0] == r.final_digests[1]  # still identical

    def test_content_key_sensitivity(self):
        assert content_key("a", 1) == content_key("a", 1)
        assert content_key("a", 1) != content_key("a", 2)
        assert content_key("ab") != content_key("a", "b")


# -- fan-in memos vs a slow reference -----------------------------------------

class _FanInSpy:
    """Counts the engine's replicate-tree and consensus calls through the
    module globals, and records each submission's replicate sets."""

    def __init__(self, monkeypatch):
        self.trees = []      # (replicate, tree) per replicate_tree call
        self.consensus = 0   # majority_rule_consensus calls
        self.used = {}       # submission -> {stage: sorted replicates}
        finalize = WorkflowEngine._finalize

        def tree_spy(spec, seed, r):
            tree = replicate_tree(spec, seed, r)
            self.trees.append((r, tree))
            return tree

        def consensus_spy(trees):
            self.consensus += 1
            return majority_rule_consensus(trees)

        def finalize_spy(engine, spec, ctx):
            self.used[ctx.k] = {
                name: tuple(sorted(r for r, _digest in reps))
                for name, reps in ctx.replicates.items() if reps
            }
            finalize(engine, spec, ctx)

        monkeypatch.setattr(dag_module, "replicate_tree", tree_spy)
        monkeypatch.setattr(dag_module, "majority_rule_consensus",
                            consensus_spy)
        monkeypatch.setattr(WorkflowEngine, "_finalize", finalize_spy)


def _fan_in_runs(name):
    """(config, cache) per run; the last run is the one under test."""
    wf = raxml_workflow(replicates=24)
    if name == "cold":
        return [(DagConfig(workflow=wf, submissions=3, interarrival_s=40.0,
                           seed=0), None)]
    if name == "warm":
        cache = ResultCache()
        cfg = DagConfig(workflow=wf, submissions=2, seed=0)
        return [(cfg, cache), (cfg, cache)]
    if name == "bootstopped":
        return [(DagConfig(workflow=raxml_workflow(replicates=40),
                           submissions=3, interarrival_s=30.0, seed=2,
                           cache=False,
                           bootstop=BootstopConfig(min_replicates=10,
                                                   check_every=2)), None)]
    assert name == "diverging"
    return [(DagConfig(workflow=raxml_workflow(replicates=24, conflict=1.0),
                       submissions=2, interarrival_s=40.0, seed=1,
                       bootstop=BootstopConfig(min_replicates=10,
                                               check_every=2)), None)]


class TestFanInMemo:
    @pytest.mark.parametrize(
        "name", ["cold", "warm", "bootstopped", "diverging"]
    )
    def test_matches_fresh_trees_and_derives_each_once(self, name,
                                                       monkeypatch):
        runs = _fan_in_runs(name)
        for cfg, cache in runs[:-1]:
            run_dag(cfg, cache=cache)
        cfg, cache = runs[-1]
        spy = _FanInSpy(monkeypatch)
        result = run_dag(cfg, cache=cache)
        spec, seed = cfg.workflow, cfg.seed

        # Each replicate's tree is derived at most once per run ...
        per_replicate = Counter(r for r, _tree in spy.trees)
        assert per_replicate and max(per_replicate.values()) == 1
        # ... and each distinct replicate set folded once.
        sets = {reps for used in spy.used.values() for reps in used.values()}
        assert spy.consensus == len(sets)
        if name == "bootstopped":
            # Without the stage cache each submission bootstops on its
            # own, so the memo must key on the set, not the stage.
            assert result.bootstop_cancelled > 0 and len(sets) > 1

        # Slow reference: every record rebuilt from freshly derived trees.
        assert len(result.workflows) == cfg.submissions
        for rec in result.workflows:
            used = spy.used[rec["submission"]]
            assert set(rec["consensus"]) == set(used)
            for stage, reps in used.items():
                tree, supports = majority_rule_consensus(
                    [replicate_tree(spec, seed, r) for r in reps]
                )
                assert rec["consensus"][stage] == {
                    "newick": tree.newick(),
                    "splits": len(supports),
                    "replicates_used": len(reps),
                }

        # The shared memoized trees were never mutated.
        for r, tree in spy.trees:
            assert tree.newick() == replicate_tree(spec, seed, r).newick()


# -- faults during fan-out ----------------------------------------------------

class TestFaultsDuringFanOut:
    def test_blade_kill_mid_fan_out_loses_nothing(self):
        wf = raxml_workflow(replicates=40)
        base = dict(workflow=wf, seed=0, blades=3)
        clean = run_dag(DagConfig(**base))
        faulty = run_dag(DagConfig(
            **base,
            faults=FleetFaultPlan(kills=(BladeKill(blade=1, at=120.0),),
                                  seed=0),
        ))
        assert faulty.serve.lost_jobs == 0
        assert faulty.conservation_ok
        assert faulty.serve.summary["failovers"] > 0
        # Bootstop off: the fault may move timing but never results.
        assert faulty.final_digests == clean.final_digests

    def test_blade_kill_with_bootstop_conserves_jobs(self):
        r = run_dag(DagConfig(
            workflow=raxml_workflow(replicates=40), seed=0, blades=3,
            bootstop=BootstopConfig(),
            faults=FleetFaultPlan(kills=(BladeKill(blade=1, at=120.0),),
                                  seed=0),
        ))
        assert r.serve.lost_jobs == 0
        assert r.conservation_ok
        assert r.bootstop_cancelled + r.serve.summary["completed"] == \
            r.serve.summary["admitted"]


# -- metrics ------------------------------------------------------------------

class TestDagMetrics:
    def test_dag_metric_family_published(self):
        metrics = MetricsRegistry()
        run_dag(DagConfig(workflow=raxml_workflow(replicates=30),
                          submissions=2, seed=0,
                          bootstop=BootstopConfig(min_replicates=10,
                                                  check_every=2)),
                metrics=metrics)
        names = set(metrics.names())
        for name in ("serve.dag.workflows", "serve.dag.stages",
                     "serve.dag.cache_hits", "serve.dag.cache_misses",
                     "serve.dag.cache_hit_rate", "serve.dag.bootstop_savings",
                     "serve.dag.bootstop_cancelled",
                     "serve.dag.wasted_work_avoided_s"):
            assert name in names, name
        assert metrics.get("serve.dag.workflows").value == 2
        assert metrics.get("serve.dag.stages_in_flight").value == 0

    def test_interarrival_overlap_still_conserves(self):
        r = run_dag(DagConfig(workflow=raxml_workflow(replicates=10),
                              submissions=3, interarrival_s=50.0, seed=0))
        assert r.conservation_ok
        assert r.serve.lost_jobs == 0
        assert len(r.final_digests) == 3
