"""Tests for the Cell machine substrate: params, local store, MFC, EIB,
SPE, pool and machine assembly."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cell import (
    BladeParams,
    CellMachine,
    CellParams,
    CodeImage,
    EIB,
    LocalStore,
    LocalStoreOverflow,
    MFC,
    SPE,
    legal_transfer_size,
)
from repro.sim import Environment

KB = 1024


class TestParams:
    def test_defaults_match_paper(self):
        p = CellParams()
        assert p.n_spes == 8
        assert p.ppe_smt_contexts == 2
        assert p.clock_hz == 3.2e9
        assert p.local_store_size == 256 * KB
        assert p.dma_max_request == 16 * KB
        assert p.dma_list_max == 2048
        assert p.context_switch == pytest.approx(1.5e-6)
        assert p.os_quantum == pytest.approx(10e-3)
        assert p.eib_bandwidth == pytest.approx(204.8 * 1024**3)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CellParams(n_spes=0)
        with pytest.raises(ValueError):
            CellParams(smt_efficiency=1.5)
        with pytest.raises(ValueError):
            CellParams(ppe_smt_contexts=0)
        with pytest.raises(ValueError):
            CellParams(dma_max_request=0)

    def test_blade_totals(self):
        b = BladeParams(n_cells=2)
        assert b.total_spes == 16
        assert b.total_ppe_contexts == 4

    def test_blade_needs_cells(self):
        with pytest.raises(ValueError):
            BladeParams(n_cells=0)


class TestLocalStore:
    def test_code_load_accounting(self):
        ls = LocalStore(256 * KB)
        img = CodeImage("raxml", "serial", 117 * KB)
        moved = ls.load_code(img)
        assert moved == 117 * KB
        assert ls.code_size == 117 * KB
        # Reloading the identical image moves nothing.
        assert ls.load_code(img) == 0

    def test_variant_replacement_moves_bytes(self):
        ls = LocalStore(256 * KB)
        serial = CodeImage("raxml", "serial", 117 * KB)
        llp = CodeImage("raxml", "llp", 123 * KB)
        ls.load_code(serial)
        assert ls.load_code(llp) == 123 * KB
        assert ls.code_image.variant == "llp"

    def test_paper_free_space(self):
        # 117 KB code leaves 139 KB for stack+heap (Section 5.1).
        ls = LocalStore(256 * KB, stack_reserve=0)
        ls.load_code(CodeImage("raxml", "serial", 117 * KB))
        assert ls.free == 139 * KB

    def test_code_overflow(self):
        ls = LocalStore(256 * KB)
        ls.allocate("heap", 200 * KB)
        with pytest.raises(LocalStoreOverflow):
            ls.load_code(CodeImage("big", "serial", 117 * KB))

    def test_allocation_lifecycle(self):
        ls = LocalStore(64 * KB, stack_reserve=4 * KB)
        ls.allocate("buf", 16 * KB)
        assert ls.data_in_use == 16 * KB
        with pytest.raises(ValueError):
            ls.allocate("buf", 1)  # duplicate label
        assert ls.release("buf") == 16 * KB
        with pytest.raises(KeyError):
            ls.release("buf")

    def test_allocation_overflow(self):
        ls = LocalStore(32 * KB, stack_reserve=0)
        with pytest.raises(LocalStoreOverflow):
            ls.allocate("big", 33 * KB)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            LocalStore(0)
        with pytest.raises(ValueError):
            LocalStore(10, stack_reserve=11)
        with pytest.raises(ValueError):
            CodeImage("x", "serial", 0)


class TestMFC:
    def setup_method(self):
        self.mfc = MFC(CellParams())

    def test_legal_transfer_sizes(self):
        assert legal_transfer_size(1) == 1
        assert legal_transfer_size(2) == 2
        assert legal_transfer_size(3) == 4
        assert legal_transfer_size(5) == 8
        assert legal_transfer_size(9) == 16
        assert legal_transfer_size(16) == 16
        assert legal_transfer_size(17) == 32
        with pytest.raises(ValueError):
            legal_transfer_size(0)

    def test_transfer_time_monotone_in_size(self):
        t_small = self.mfc.transfer_time(1 * KB)
        t_big = self.mfc.transfer_time(64 * KB)
        assert t_big > t_small > 0

    def test_one_transfer_is_one_dma_list(self):
        # 2048 requests of 16 KB fill a list; one byte more needs a
        # 2049th request, which no list holds.  The error is never
        # memoized: it raises on every call.
        full = CellParams().dma_list_max * CellParams().dma_max_request
        assert self.mfc.n_requests(full) == 2048
        for _ in range(2):
            with pytest.raises(ValueError, match="at most 2048"):
                self.mfc.n_requests(full + 1)
            with pytest.raises(ValueError, match="at most 2048"):
                self.mfc.transfer_time(full + 1)
        assert (full + 1, 1) not in self.mfc._transfer_times
        assert self.mfc.transfer_time(full) > 0

    def test_transfer_time_grows_with_contention(self):
        # Bandwidth shared among many streams; a single transfer is capped
        # at one ring, so 1..4 concurrent see no penalty on a 4-ring EIB.
        mfc = MFC(CellParams(), EIB(CellParams()))
        t1 = mfc.transfer_time(64 * KB, concurrent=1)
        t4 = mfc.transfer_time(64 * KB, concurrent=4)
        t16 = mfc.transfer_time(64 * KB, concurrent=16)
        assert t1 == pytest.approx(t4)
        assert t16 > t1

    @given(st.integers(min_value=1, max_value=10**7))
    @settings(max_examples=200, deadline=None)
    def test_legal_size_properties(self, n):
        legal = legal_transfer_size(n)
        assert legal >= n
        assert legal in (1, 2, 4, 8) or legal % 16 == 0
        # Minimality: the next smaller legal size is below n.
        if legal > 8 and legal - 16 >= 1:
            assert legal - 16 < n


class TestEIB:
    def test_share_caps_at_ring_bandwidth(self):
        eib = EIB(CellParams())
        assert eib.share(1) == pytest.approx(eib.ring_bandwidth)
        assert eib.share(100) == pytest.approx(eib.params.eib_bandwidth / 100)

    def test_contention_factor(self):
        # The slowdown one transfer sees among k streams: none while they
        # fit in the four rings, linear once they oversubscribe the bus.
        eib = EIB(CellParams())
        assert eib.share(1) / eib.share(1) == pytest.approx(1.0)
        assert eib.share(1) / eib.share(4) == pytest.approx(1.0)  # 4 rings
        assert eib.share(1) / eib.share(8) == pytest.approx(2.0)


class TestSPEAndPool:
    def test_spe_busy_tracking(self):
        env = Environment()
        spe = SPE(env, CellParams(), 0, 3)
        assert spe.name == "cell0.spe3"

        def proc():
            yield from spe.occupy(2.0, "p0")

        env.run_until_complete(env.process(proc()))
        assert spe.busy_seconds == pytest.approx(2.0)
        assert spe.tasks_executed == 1
        assert spe.utilization(4.0) == pytest.approx(0.5)

    def test_double_busy_is_error(self):
        env = Environment()
        spe = SPE(env, CellParams(), 0, 0)
        spe.mark_busy("a")
        with pytest.raises(RuntimeError):
            spe.mark_busy("b")
        spe.mark_idle()
        with pytest.raises(RuntimeError):
            spe.mark_idle()

    def test_code_load_time_depends_on_residency(self):
        env = Environment()
        spe = SPE(env, CellParams(), 0, 0)
        img = CodeImage("m", "serial", 117 * KB)
        t1 = spe.load_code(img)
        assert t1 > 0
        assert spe.load_code(img) == 0.0
        assert spe.code_loads == 1

    def test_pool_blocking_acquire(self):
        env = Environment()
        machine = CellMachine(env, BladeParams(cell=CellParams(n_spes=2)))
        got = []

        def user(name, hold):
            spe = yield machine.pool.acquire()
            got.append((env.now, name))
            yield env.timeout(hold)
            machine.pool.release(spe)

        env.process(user("a", 1.0))
        env.process(user("b", 1.0))
        env.process(user("c", 1.0))
        env.run()
        assert [g[1] for g in got] == ["a", "b", "c"]
        assert got[2][0] == pytest.approx(1.0)  # c waited for a release

    def test_pool_try_acquire_many_prefers_cell(self):
        env = Environment()
        machine = CellMachine(env, BladeParams(n_cells=2))
        spes = machine.pool.try_acquire_many(8, prefer_cell=1)
        assert len(spes) == 8
        assert all(s.cell_id == 1 for s in spes)

    def test_pool_double_release_is_error(self):
        env = Environment()
        machine = CellMachine(env)
        spe = machine.pool.try_acquire()
        machine.pool.release(spe)
        with pytest.raises(RuntimeError):
            machine.pool.release(spe)

    def test_pool_exhaustion_returns_none(self):
        env = Environment()
        machine = CellMachine(env, BladeParams(cell=CellParams(n_spes=1)))
        assert machine.pool.try_acquire() is not None
        assert machine.pool.try_acquire() is None


class TestMachine:
    def test_assembly_counts(self):
        env = Environment()
        m = CellMachine(env, BladeParams(n_cells=2))
        assert m.n_spes == 16
        assert len(m.cores) == 2
        assert len(m.eibs) == 2
        assert m.pool.n_live == 16

    def test_cross_cell_signal_penalty(self):
        env = Environment()
        m = CellMachine(env, BladeParams(n_cells=2))
        own = m.signal_latency(0, m.spes[0])
        cross = m.signal_latency(0, m.spes[8])
        assert cross > own

    def test_spe_spe_latency(self):
        env = Environment()
        m = CellMachine(env, BladeParams(n_cells=2))
        same = m.spe_signal_latency(m.spes[0], m.spes[1])
        cross = m.spe_signal_latency(m.spes[0], m.spes[9])
        assert cross > same

    def test_core_for_round_robin(self):
        env = Environment()
        m = CellMachine(env, BladeParams(n_cells=2))
        assert m.core_for(0) is m.cores[0]
        assert m.core_for(1) is m.cores[1]
        assert m.core_for(2) is m.cores[0]
