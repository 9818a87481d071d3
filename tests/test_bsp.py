"""Tests for the bulk-synchronous hybrid MPI workload and its runner."""

import pytest

from repro.core import run_bsp_experiment
from repro.core.schedulers import edtlp, linux, mgps, static_hybrid
from repro.faults import FaultPlan, SPEKill
from repro.obs.metrics import MetricsRegistry
from repro.sim import Barrier, Environment
from repro.workloads import BSPWorkload


class TestBarrier:
    def test_releases_when_full(self):
        env = Environment()
        b = Barrier(env, 3)
        times = []

        def party(delay):
            yield env.timeout(delay)
            gen = yield b.arrive()
            times.append((env.now, gen))

        for d in (1.0, 2.0, 3.0):
            env.process(party(d))
        env.run()
        assert [t for t, _ in times] == [3.0, 3.0, 3.0]
        assert all(g == 1 for _, g in times)

    def test_reusable_generations(self):
        env = Environment()
        b = Barrier(env, 2)
        log = []

        def party(name):
            for _ in range(3):
                yield env.timeout(1.0)
                gen = yield b.arrive()
                log.append((name, gen))

        env.process(party("a"))
        env.process(party("b"))
        env.run()
        assert b.generations == 3
        assert sorted(log) == [("a", 1), ("a", 2), ("a", 3),
                               ("b", 1), ("b", 2), ("b", 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            Barrier(Environment(), 0)


class TestBSPWorkload:
    def test_phase_items_deterministic(self):
        wl = BSPWorkload(n_processes=4, iterations=2, seed=1)
        assert wl.phase_items(0, 0) is wl.phase_items(0, 0)
        wl2 = BSPWorkload(n_processes=4, iterations=2, seed=1)
        assert [i.task.spe_time for i in wl.phase_items(1, 1)] == [
            i.task.spe_time for i in wl2.phase_items(1, 1)
        ]

    def test_straggler_weighting(self):
        wl = BSPWorkload(n_processes=4, iterations=1,
                         tasks_per_iteration=40, imbalance=2.0)
        n0 = len(wl.phase_items(0, 0))
        n1 = len(wl.phase_items(1, 0))
        assert n0 == pytest.approx(3 * n1, rel=0.1)

    def test_bounds_checked(self):
        wl = BSPWorkload(n_processes=2, iterations=2)
        with pytest.raises(IndexError):
            wl.phase_items(2, 0)
        with pytest.raises(IndexError):
            wl.phase_items(0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            BSPWorkload(n_processes=0)
        with pytest.raises(ValueError):
            BSPWorkload(imbalance=-1.0)
        with pytest.raises(ValueError):
            BSPWorkload(tasks_per_iteration=0)


class TestBSPExperiments:
    def _wl(self, imbalance=0.0):
        return BSPWorkload(
            n_processes=8, iterations=4, tasks_per_iteration=30,
            imbalance=imbalance, seed=3,
        )

    def test_all_tasks_execute(self):
        wl = self._wl()
        r = run_bsp_experiment(edtlp(), wl)
        total_tasks = sum(len(wl.phase_items(rank, i))
                          for rank in range(wl.n_processes)
                          for i in range(wl.iterations))
        assert r.offloads + r.ppe_fallbacks == total_tasks
        assert r.extras["barrier_generations"] == 4

    def test_edtlp_beats_linux(self):
        wl = self._wl()
        e = run_bsp_experiment(edtlp(), wl)
        l = run_bsp_experiment(linux(), wl)
        assert e.makespan < 0.6 * l.makespan

    def test_mgps_accelerates_stragglers(self):
        """The generalization claim: on an imbalanced BSP workload MGPS
        work-shares the straggler's loops during each phase tail."""
        wl = self._wl(imbalance=3.0)
        e = run_bsp_experiment(edtlp(), wl)
        m = run_bsp_experiment(mgps(), wl)
        assert m.llp_invocations > 0
        assert m.makespan < 0.90 * e.makespan

    def test_mgps_neutral_when_balanced(self):
        wl = self._wl(imbalance=0.0)
        e = run_bsp_experiment(edtlp(), wl)
        m = run_bsp_experiment(mgps(), wl)
        assert m.makespan <= 1.05 * e.makespan

    def test_static_hybrid_degenerates_when_no_spes_idle(self):
        # 8 busy ranks occupy all 8 SPEs as masters; the hybrid finds no
        # idle workers and degenerates to EDTLP behaviour (within a few
        # percent; it still pays the LLP code-image load).
        wl = self._wl(imbalance=0.0)
        e = run_bsp_experiment(edtlp(), wl)
        h = run_bsp_experiment(static_hybrid(2), wl)
        assert h.makespan == pytest.approx(e.makespan, rel=0.05)
        # Transient jitter frees the odd SPE, so some loop invocations
        # still happen -- but most off-loads run serial for lack of
        # workers.
        assert h.llp_invocations < 0.5 * h.offloads

    def test_deterministic(self):
        wl = self._wl(imbalance=1.0)
        a = run_bsp_experiment(mgps(), wl)
        b = run_bsp_experiment(mgps(), wl)
        assert a.makespan == b.makespan

    def test_linux_process_cap(self):
        wl = BSPWorkload(n_processes=9, iterations=1)
        with pytest.raises(ValueError):
            run_bsp_experiment(linux(), wl)

    def test_faulted_run_reports_fault_extras(self):
        wl = self._wl(imbalance=1.0)
        clean = run_bsp_experiment(mgps(), wl)
        metrics = MetricsRegistry()
        r = run_bsp_experiment(
            mgps(), wl, metrics=metrics,
            faults=FaultPlan(offload_fail_rate=0.05,
                             spe_kills=(SPEKill(2, 2e-4),)),
        )
        assert r.result_digest == clean.result_digest
        assert r.extras["barrier_generations"] == 4
        assert r.extras["spe_kills"] == 1
        assert r.extras["offload_retries"] > 0
        assert r.extras["live_spes"] == 7
        for key in ("spe_blacklists", "retry_fallbacks", "watchdog_timeouts",
                    "dma_errors", "llp_recoveries"):
            assert key in r.extras
        assert metrics.snapshot()["run.live_spes"]["value"] == 7
