"""Extension studies beyond the paper's published tables.

* alignment-length sensitivity of loop-level parallelism (the paper's
  Section 5.3 remark, quantified up to the 51,089-nt mammal alignment it
  cites in Section 3);
* memory/locality-aware SPE selection (the paper's stated future work);
* power- and cost-efficiency ratios (claimed qualitatively in Sections
  5.6 and 6).
"""

from conftest import run_once

from repro import Workload, edtlp, mgps, run_experiment, static_hybrid
from repro.analysis import fig10_sweep, format_table
from repro.analysis.efficiency_study import efficiency_table
from repro.workloads import RAXML_42SC


def test_extension_alignment_length(benchmark, record_table):
    """LLP speedup grows with alignment length (more loop iterations to
    distribute, better compute-to-overhead ratio)."""

    def sweep():
        rows = []
        for sites in (600, 1167, 3000, 10000, 51089):
            prof = RAXML_42SC.scaled_to_sites(sites)
            wl = Workload(bootstraps=1, tasks_per_bootstrap=200,
                          profile=prof)
            serial = run_experiment(edtlp(n_processes=1), wl).makespan
            llp5 = run_experiment(
                static_hybrid(5, n_processes=1), wl
            ).makespan
            llp8 = run_experiment(
                static_hybrid(8, n_processes=1), wl
            ).makespan
            rows.append(
                [sites, prof.loop_iterations, serial,
                 serial / llp5, serial / llp8]
            )
        return rows

    rows = run_once(benchmark, sweep)
    record_table(
        "extension_alignment_length",
        format_table(
            ["sites", "loop iters", "serial [s]", "LLP5 speedup",
             "LLP8 speedup"],
            rows,
            title="LLP speedup vs alignment length (1 bootstrap)",
        ),
    )
    speedups5 = [r[3] for r in rows]
    # Monotone improvement with alignment length; the 42_SC point sits
    # at the paper's ~1.55x; the 51k-nt alignment more than doubles.
    assert speedups5 == sorted(speedups5)
    assert 1.4 < speedups5[1] < 1.7
    assert speedups5[-1] > 2.0
    # At 42_SC size, 8 SPEs lose to 5; at 51k nt they win.
    assert rows[1][4] < rows[1][3]
    assert rows[-1][4] > rows[-1][3]


def test_extension_locality_aware(benchmark, record_table):
    """Locality-aware SPE selection on many interleaved working sets."""
    from repro.cell.machine import CellMachine
    from repro.core.runtime import EDTLPPolicy, OffloadEngine, ProcContext
    from repro.mpi.master_worker import WorkDispenser
    from repro.mpi.process import mpi_worker
    from repro.sim.engine import Environment
    from repro.workloads import FixedTraceWorkload, interleaved_locality_trace

    def run_pair():
        out = {}
        for aware in (False, True):
            env = Environment()
            machine = CellMachine(env)
            rt = OffloadEngine(env, machine, locality_aware=aware,
                               policy=EDTLPPolicy())
            wl = FixedTraceWorkload(
                [interleaved_locality_trace(n_keys=8, tasks_per_key=60,
                                            working_set_kb=100)]
            )
            disp = WorkDispenser(env, 1, 1)
            ctx = ProcContext(rank=0, cell_id=0,
                              thread=machine.cores[0].thread("m0"))
            p = env.process(mpi_worker(ctx, rt, disp, wl))
            env.run_until_complete(p)
            out[aware] = (env.now, rt.stats)
        return out

    out = run_once(benchmark, run_pair)
    rows = []
    for aware, (makespan, st) in out.items():
        label = "locality-aware" if aware else "LIFO pool"
        rows.append([label, makespan * 1e3, st.data_hits, st.data_misses,
                     st.data_bytes_transferred // 1024])
    record_table(
        "extension_locality",
        format_table(
            ["policy", "makespan [ms]", "data hits", "data misses",
             "DMA [KiB]"],
            rows,
            title="Memory-aware SPE selection, 8 interleaved 100 KiB "
                  "working sets",
        ),
    )
    t_unaware, s_unaware = out[False]
    t_aware, s_aware = out[True]
    assert t_aware < t_unaware
    assert s_aware.data_misses < 0.2 * s_unaware.data_misses


def test_extension_efficiency_ratios(benchmark, record_table):
    """Cell's power/cost-performance edge over Xeon and Power5."""

    def build():
        sweep = fig10_sweep((32,), tasks_per_bootstrap=200)
        makespans = {
            name: series[0] for name, series in sweep.series.items()
        }
        return makespans

    makespans = run_once(benchmark, build)
    table = efficiency_table(makespans, bootstraps=32)
    record_table("extension_efficiency", table)

    from repro.analysis.efficiency_study import DEFAULT_ECONOMICS as E

    cell_e = E["Cell (MGPS)"].energy_joules(makespans["Cell (MGPS)"])
    p5_e = E["IBM Power5"].energy_joules(makespans["IBM Power5"])
    xeon_e = E["Intel Xeon"].energy_joules(makespans["Intel Xeon"])
    # Cell wins energy per analysis against both.
    assert cell_e < p5_e
    assert cell_e < xeon_e
    # And cost-performance by a wide margin.
    cell_cp = makespans["Cell (MGPS)"] * E["Cell (MGPS)"].price_usd
    p5_cp = makespans["IBM Power5"] * E["IBM Power5"].price_usd
    assert cell_cp < 0.25 * p5_cp


def test_extension_bsp_straggler(benchmark, record_table):
    """Generalization (Section 6): MGPS on imbalanced bulk-synchronous
    MPI workloads — the hybrid MPI/OpenMP shape the paper claims its
    schedulers extend to."""
    from repro.core import run_bsp_experiment
    from repro.core.schedulers import edtlp as _edtlp, mgps as _mgps
    from repro.workloads import BSPWorkload

    def sweep():
        rows = []
        for imbalance in (0.0, 1.0, 2.0, 4.0):
            wl = BSPWorkload(
                n_processes=8, iterations=8, tasks_per_iteration=60,
                imbalance=imbalance, seed=3,
            )
            e = run_bsp_experiment(_edtlp(), wl)
            m = run_bsp_experiment(_mgps(), wl)
            rows.append(
                [1 + imbalance, e.makespan * 1e3, m.makespan * 1e3,
                 e.makespan / m.makespan, m.llp_invocations]
            )
        return rows

    rows = run_once(benchmark, sweep)
    record_table(
        "extension_bsp",
        format_table(
            ["straggler load", "EDTLP [ms]", "MGPS [ms]", "gain",
             "LLP invocations"],
            rows,
            title="BSP straggler acceleration (8 ranks, 8 barriers)",
        ),
    )
    gains = [r[3] for r in rows]
    # Neutral when balanced, growing gains with imbalance.
    assert 0.97 < gains[0] < 1.05
    assert gains[1] > 1.08
    assert gains[-1] > 1.25
    assert gains == sorted(gains)


def test_extension_cluster_scaling(benchmark, record_table):
    """Section 5.5's scale-out argument: spreading 100 bootstraps across
    dual-Cell blades shrinks per-blade bags until multigrain scheduling
    pays; MGPS's advantage over EDTLP grows with the blade count."""
    from repro.core.cluster import run_cluster_experiment
    from repro.core.schedulers import edtlp as _edtlp, mgps as _mgps

    def sweep():
        rows = []
        for n_blades in (1, 2, 4, 12, 25):
            e = run_cluster_experiment(_edtlp(), 100, n_blades,
                                       tasks_per_bootstrap=100)
            m = run_cluster_experiment(_mgps(), 100, n_blades,
                                       tasks_per_bootstrap=100)
            rows.append(
                [n_blades, 100 // n_blades, e.makespan, m.makespan,
                 e.makespan / m.makespan, m.total_llp_invocations]
            )
        return rows

    rows = run_once(benchmark, sweep)
    record_table(
        "extension_cluster",
        format_table(
            ["blades", "bootstraps/blade", "EDTLP [s]", "MGPS [s]",
             "gain", "LLP invocations"],
            rows,
            title="100 bootstraps across dual-Cell blades (Section 5.5)",
        ),
    )
    gains = {r[0]: r[4] for r in rows}
    # MGPS never loses, and the gain spikes once per-blade bags drop
    # below the SPE count (4/blade at 25 blades).  Around 8-9
    # bootstraps/blade (12 blades) the paper's floor(n/T) degree formula
    # floors to 1 and the gain dips — an honest limitation we report.
    assert all(g >= 0.99 for g in gains.values())
    assert gains[25] > 1.25
    assert gains[25] > gains[4] > 1.0
