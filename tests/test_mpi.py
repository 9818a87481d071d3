"""Tests for the simulated-MPI substrate."""

import pytest

from repro.mpi import WorkDispenser
from repro.sim import Environment


class TestWorkDispenser:
    def test_items_then_sentinels(self):
        env = Environment()
        d = WorkDispenser(env, n_items=3, n_workers=2)
        got = []

        def worker(name):
            while True:
                item = yield d.get()
                if item is None:
                    return
                got.append((name, item))

        p1 = env.process(worker("a"))
        p2 = env.process(worker("b"))
        env.run_until_complete(env.all_of([p1, p2]))
        assert sorted(i for _, i in got) == [0, 1, 2]
        assert d.items_dispensed == 3

    def test_every_worker_stops(self):
        env = Environment()
        d = WorkDispenser(env, n_items=1, n_workers=4)
        done = []

        def worker(i):
            while True:
                item = yield d.get()
                if item is None:
                    done.append(i)
                    return

        procs = [env.process(worker(i)) for i in range(4)]
        env.run_until_complete(env.all_of(procs))
        assert sorted(done) == [0, 1, 2, 3]

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            WorkDispenser(env, n_items=0, n_workers=1)
        with pytest.raises(ValueError):
            WorkDispenser(env, n_items=1, n_workers=0)
