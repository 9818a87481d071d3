#!/usr/bin/env python
"""A real phylogenetic analysis, end to end, through the simulated Cell.

This example does actual science with the library's ML engine:

1. synthesize a DNA alignment (a small cousin of the paper's 42_SC);
2. infer the best-known ML tree and run non-parametric bootstraps with
   the real Felsenstein-pruning kernels (``newview`` / ``evaluate`` /
   ``makenewz``), recording every kernel invocation;
3. report bootstrap branch supports — the biological output the paper's
   machinery exists to accelerate;
4. replay the recorded kernel streams through the simulated Cell under
   EDTLP and MGPS and compare schedules.
"""

import numpy as np

from repro.cell.machine import CellMachine
from repro.core import edtlp, mgps
from repro.core.runtime import ProcContext
from repro.mpi.master_worker import WorkDispenser
from repro.mpi.process import mpi_worker
from repro.phylo import (
    branch_support,
    hky,
    majority_rule_consensus,
    profile_report,
    run_bootstrap_analysis,
    synthesize_alignment,
    trace_from_kernel_log,
)
from repro.sim.engine import Environment


class RecordedWorkload:
    """Adapts a list of recorded kernel traces to the runner interface."""

    def __init__(self, traces):
        self._traces = traces
        self.bootstraps = len(traces)

    def trace(self, index):
        return self._traces[index]


def schedule(traces, spec):
    env = Environment()
    machine = CellMachine(env)
    runtime = spec.build(env, machine)
    wl = RecordedWorkload(traces)
    n_procs = min(len(traces), machine.n_spes)
    dispenser = WorkDispenser(env, len(traces), n_procs)
    procs = []
    for rank in range(n_procs):
        ctx = ProcContext(
            rank=rank, cell_id=0,
            thread=machine.cores[0].thread(f"mpi{rank}"),
        )
        procs.append(env.process(mpi_worker(ctx, runtime, dispenser, wl)))
    env.run_until_complete(env.all_of(procs))
    return env.now, machine.spe_utilization(env.now), runtime.stats


def main() -> None:
    print("=== 1. Synthesizing an alignment (12 taxa x 300 sites) ===")
    alignment = synthesize_alignment(n_taxa=12, n_sites=300, seed=7)
    print(f"    {alignment.n_taxa} taxa, {alignment.n_sites} sites, "
          f"{alignment.n_patterns} unique patterns")

    print("\n=== 2. ML inference + bootstraps (real likelihood kernels) ===")
    model = hky(frequencies=(0.3, 0.2, 0.2, 0.3), kappa=2.5)
    analysis = run_bootstrap_analysis(
        alignment, model,
        n_bootstraps=6, n_inferences=2, max_rounds=3,
        n_rate_categories=4, seed=11, record_kernels=True,
    )
    print(f"    best tree log-likelihood: {analysis.best.loglik:.2f}")
    print(f"    best tree: {analysis.best.tree.newick(list(alignment.names))[:72]}...")

    rep = profile_report([r.kernel_log for r in analysis.replicates])
    print(f"    kernel mix over {analysis.n_replicates} bootstraps: "
          f"newview {rep['newview_share']:.0%}, "
          f"makenewz {rep['makenewz_share']:.0%}, "
          f"evaluate {rep['evaluate_share']:.0%} "
          f"(paper's gprof: 77%, 20%, 2% of time)")

    print("\n=== 3. Bootstrap branch supports ===")
    for split, support in branch_support(analysis):
        taxa = ",".join(alignment.names[i][-2:] for i in sorted(split))
        print(f"    {{{taxa}}}: {support:.2f}")

    cons, cons_support = majority_rule_consensus(
        [r.result.tree for r in analysis.replicates]
    )
    print(f"    majority-rule consensus: {len(cons_support)} supported "
          f"clades, e.g. {cons.newick(list(alignment.names))[:60]}...")

    print("\n=== 4. Replaying the kernel streams on the simulated Cell ===")
    traces = [
        trace_from_kernel_log(r.kernel_log, index=r.index)
        for r in analysis.replicates
    ]
    serial = sum(t.serial_estimate for t in traces)
    print(f"    {sum(t.n_tasks for t in traces)} recorded off-loads, "
          f"{serial * 1e3:.1f} ms serial work")
    for name, spec in (("EDTLP", edtlp()), ("MGPS", mgps())):
        makespan, util, stats = schedule(traces, spec)
        print(f"    {name:6s}: {makespan * 1e3:8.2f} ms  "
              f"(SPE util {util:.0%}, {stats.llp_invocations} LLP "
              f"invocations, speedup {serial / makespan:.2f}x over serial)")


if __name__ == "__main__":
    main()
