"""Tests for the search, bootstrap analysis and the simulator bridge."""

import numpy as np
import pytest

from repro.phylo import (
    KernelCostModel,
    LikelihoodEngine,
    Tree,
    branch_support,
    hill_climb,
    hky,
    jc69,
    profile_report,
    run_bootstrap_analysis,
    synthesize_alignment,
    trace_from_kernel_log,
)
from repro.phylo.bootstrap import _bipartitions


class TestHillClimb:
    def test_never_worse_than_start(self):
        aln = synthesize_alignment(7, 150, seed=0)
        eng = LikelihoodEngine(aln, hky(), 2)
        start = Tree.random_topology(7, np.random.default_rng(0))
        start_lik = eng.evaluate(start)
        result = hill_climb(eng, start, max_rounds=3)
        assert result.loglik >= start_lik

    def test_deterministic(self):
        aln = synthesize_alignment(6, 100, seed=1)
        start = Tree.random_topology(6, np.random.default_rng(1))
        r1 = hill_climb(LikelihoodEngine(aln, jc69(), 1), start, max_rounds=2)
        r2 = hill_climb(LikelihoodEngine(aln, jc69(), 1), start, max_rounds=2)
        assert r1.loglik == r2.loglik
        assert r1.tree.newick() == r2.tree.newick()

    def test_does_not_mutate_start_tree(self):
        aln = synthesize_alignment(6, 80, seed=2)
        eng = LikelihoodEngine(aln, jc69(), 1)
        start = Tree.random_topology(6, np.random.default_rng(2))
        before = start.newick()
        hill_climb(eng, start, max_rounds=2)
        assert start.newick() == before

    def test_counters_populated(self):
        aln = synthesize_alignment(6, 80, seed=3)
        eng = LikelihoodEngine(aln, jc69(), 1)
        start = Tree.random_topology(6, np.random.default_rng(3))
        result = hill_climb(eng, start, max_rounds=2)
        assert result.moves_evaluated > 0
        assert result.rounds >= 1

    def test_recovers_signal_topology_with_multiple_starts(self):
        """On strongly structured data, the best of several independent
        inferences groups the two clades.

        Single-start NNI hill climbing has genuine local optima — which
        is precisely why RAxML (Section 3.1) performs multiple inferences
        from distinct random starting trees and keeps the best-scoring
        one.
        """
        # Two divergent clades: {0,1,2} vs {3,4,5}.
        seqs = [
            "AAAA" * 25, "AAAT" * 25, "AATA" * 25,
            "GGGG" * 25, "GGGC" * 25, "GGCG" * 25,
        ]
        from repro.phylo import Alignment
        aln = Alignment.from_sequences([f"t{i}" for i in range(6)], seqs)
        best = None
        for seed in range(4):
            eng = LikelihoodEngine(aln, jc69(), 1)
            start = Tree.random_topology(6, np.random.default_rng(seed))
            result = hill_climb(eng, start, max_rounds=6)
            if best is None or result.loglik > best.loglik:
                best = result
        splits = _bipartitions(best.tree)
        assert frozenset({0, 1, 2}) in splits


class TestBootstrapAnalysis:
    def test_counts_and_records(self):
        aln = synthesize_alignment(6, 80, seed=4)
        analysis = run_bootstrap_analysis(
            aln, jc69(), n_bootstraps=3, max_rounds=2, seed=5,
            n_rate_categories=1, record_kernels=True,
        )
        assert analysis.n_replicates == 3
        assert analysis.best.loglik < 0
        for rep in analysis.replicates:
            assert rep.kernel_log.newview_calls > 0
            assert rep.kernel_log.events

    def test_branch_support_in_unit_range(self):
        aln = synthesize_alignment(6, 80, seed=6)
        analysis = run_bootstrap_analysis(
            aln, jc69(), n_bootstraps=3, max_rounds=2, seed=7,
            n_rate_categories=1,
        )
        for split, support in branch_support(analysis):
            assert 0.0 <= support <= 1.0
            assert 1 < len(split) < 5

    def test_zero_bootstraps_allowed(self):
        aln = synthesize_alignment(5, 60, seed=8)
        analysis = run_bootstrap_analysis(
            aln, jc69(), n_bootstraps=0, max_rounds=1, n_rate_categories=1
        )
        assert analysis.n_replicates == 0
        assert branch_support(analysis)[0][1] == 0.0

    def test_validation(self):
        aln = synthesize_alignment(5, 60, seed=9)
        with pytest.raises(ValueError):
            run_bootstrap_analysis(aln, jc69(), n_inferences=0)


class TestSimulatorBridge:
    def _recorded_log(self):
        aln = synthesize_alignment(6, 120, seed=10)
        eng = LikelihoodEngine(aln, hky(), 2)
        eng.log.record = True
        tree = Tree.random_topology(6, np.random.default_rng(10))
        eng.optimize_branches(tree)
        return eng.log, aln

    def test_trace_preserves_event_order_and_mix(self):
        log, aln = self._recorded_log()
        trace = trace_from_kernel_log(log)
        assert trace.n_tasks == len(log.events)
        assert [i.task.function for i in trace.items] == [
            k for k, _ in log.events
        ]
        assert trace.scale == 1.0

    def test_task_durations_scale_with_patterns(self):
        cm = KernelCostModel()
        small = cm.task("newview", 100)
        large = cm.task("newview", 1000)
        assert large.spe_time == pytest.approx(10 * small.spe_time)

    def test_42sc_anchoring(self):
        cm = KernelCostModel()
        t = cm.task("newview", 1167)
        assert t.spe_time == pytest.approx(104e-6)
        assert t.loop.iterations == 228

    def test_trace_runs_through_simulator(self):
        log, aln = self._recorded_log()
        trace = trace_from_kernel_log(log)
        from repro.cell.machine import CellMachine
        from repro.core.runtime import EDTLPPolicy, OffloadEngine, ProcContext
        from repro.mpi.master_worker import WorkDispenser
        from repro.mpi.process import mpi_worker
        from repro.sim.engine import Environment

        class OneTrace:
            bootstraps = 1
            def trace(self, i):
                return trace

        env = Environment()
        machine = CellMachine(env)
        rt = OffloadEngine(env, machine, policy=EDTLPPolicy())
        disp = WorkDispenser(env, 1, 1)
        ctx = ProcContext(rank=0, cell_id=0,
                          thread=machine.cores[0].thread("m0"))
        p = env.process(mpi_worker(ctx, rt, disp, OneTrace()))
        env.run_until_complete(p)
        assert rt.stats.offloads + rt.stats.ppe_fallbacks == trace.n_tasks

    def test_unrecorded_log_rejected(self):
        from repro.phylo.likelihood import KernelLog
        with pytest.raises(ValueError):
            trace_from_kernel_log(KernelLog())

    def test_profile_report_shares(self):
        log, _ = self._recorded_log()
        rep = profile_report([log])
        assert rep["newview_share"] + rep["evaluate_share"] + rep[
            "makenewz_share"
        ] == pytest.approx(1.0)
        # Traversal-dominated workloads call newview most.
        assert rep["newview_calls"] > rep["evaluate_calls"]

