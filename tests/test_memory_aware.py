"""Tests for the memory-aware scheduling extension.

The paper's future work (Section 6): incorporate memory-related criteria
into SPE scheduling and drop the fixed-size code-footprint assumption.
The extension adds per-task working sets, LRU data residency in the SPE
local stores, and locality-aware SPE selection.
"""

import pytest

from repro import Workload, edtlp, run_experiment
from repro.cell import CellParams, CodeImage, LocalStoreOverflow, SPE
from repro.sim import Environment
from repro.workloads import FixedTraceWorkload, interleaved_locality_trace

KB = 1024


def spe():
    return SPE(Environment(), CellParams(), 0, 0)


class TestResidency:
    def test_first_load_is_a_miss(self):
        s = spe()
        assert s.load_data("b0", 40 * KB) == 40 * KB
        assert s.data_resident("b0")

    def test_second_load_is_a_hit(self):
        s = spe()
        s.load_data("b0", 40 * KB)
        assert s.load_data("b0", 40 * KB) == 0

    def test_lru_eviction_order(self):
        s = spe()
        # Data space is ~252 KB (no code image): three 80 KB sets fit,
        # the fourth evicts the least recently used.
        for key in ("a", "b", "c"):
            s.load_data(key, 80 * KB)
        s.load_data("a", 80 * KB)  # refresh a -> b is now LRU
        s.load_data("d", 80 * KB)
        assert not s.data_resident("b")
        assert s.data_resident("a")
        assert s.data_resident("d")
        assert s.data_evictions == 1

    def test_code_load_evicts_data_when_needed(self):
        s = spe()
        s.load_data("big", 200 * KB)
        # A 117 KB image does not fit next to 200 KB of data.
        t = s.load_code(CodeImage("m", "serial", 117 * KB))
        assert t > 0
        assert not s.data_resident("big")

    def test_oversized_working_set_raises(self):
        s = spe()
        with pytest.raises(LocalStoreOverflow):
            s.load_data("huge", 300 * KB)

    def test_zero_bytes_is_noop(self):
        s = spe()
        assert s.load_data("empty", 0) == 0
        assert not s.data_resident("empty")

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            spe().load_data("x", -1)


def locality_workload(n_keys=8, tasks_per_key=40, ws_kb=100):
    """Interleaved tasks from ``n_keys`` data sets with big working sets."""
    return FixedTraceWorkload(
        [interleaved_locality_trace(n_keys=n_keys, tasks_per_key=tasks_per_key,
                                    working_set_kb=ws_kb)]
    )


class TestLocalityAwareScheduling:
    def test_hits_recorded_in_result(self):
        wl = Workload(bootstraps=2, tasks_per_bootstrap=100)
        r = run_experiment(edtlp(), wl)
        # data accounting flows into the simulation (stats are internal,
        # but the run completes and pays some DMA)
        assert r.makespan > 0

    def test_locality_reduces_misses(self):
        from repro.cell.machine import CellMachine
        from repro.core.runtime import EDTLPPolicy, OffloadEngine, ProcContext
        from repro.mpi.master_worker import WorkDispenser
        from repro.mpi.process import mpi_worker
        from repro.sim.engine import Environment

        def run(aware):
            env = Environment()
            machine = CellMachine(env)
            rt = OffloadEngine(env, machine, locality_aware=aware,
                               policy=EDTLPPolicy())
            wl = locality_workload()
            disp = WorkDispenser(env, 1, 1)
            ctx = ProcContext(rank=0, cell_id=0,
                              thread=machine.cores[0].thread("m0"))
            p = env.process(mpi_worker(ctx, rt, disp, wl))
            env.run_until_complete(p)
            return env.now, rt.stats

        t_unaware, s_unaware = run(False)
        t_aware, s_aware = run(True)
        # 8 interleaved 100 KB sets: only ~2 fit per store.  A single
        # LIFO-reused SPE thrashes; locality-aware selection spreads the
        # sets across 8 SPEs and hits nearly always.
        assert s_aware.data_misses < s_unaware.data_misses
        assert s_aware.data_hits > s_unaware.data_hits
        assert t_aware < t_unaware

    def test_spec_flag_threads_through(self):
        wl = Workload(bootstraps=4, tasks_per_bootstrap=100)
        r = run_experiment(edtlp(locality_aware=True), wl)
        r0 = run_experiment(edtlp(), wl)
        # RAxML working sets are small and per-process; awareness must
        # never hurt much.
        assert r.makespan <= 1.05 * r0.makespan

    def test_profile_traces_carry_working_sets(self):
        wl = Workload(bootstraps=1, tasks_per_bootstrap=50)
        tr = wl.trace(0)
        assert all(i.task.working_set > 0 for i in tr.items)
        assert len({i.task.data_key for i in tr.items}) == 1


def test_mgps_composes_with_locality_awareness():
    from repro import Workload, mgps, run_experiment

    wl = Workload(bootstraps=4, tasks_per_bootstrap=120)
    plain = run_experiment(mgps(), wl)
    aware = run_experiment(mgps(locality_aware=True), wl)
    # Composition is legal and does not regress the adaptive scheduler.
    assert aware.makespan <= 1.05 * plain.makespan
