"""Unit tests for the discrete-event simulation kernel."""

import pytest

import repro.core.runner as runner_mod
from repro.core.runner import run_experiment
from repro.core.schedulers import linux, mgps, static_hybrid
from repro.sim import (
    AllOf,
    AnyOf,
    EmptySchedule,
    Environment,
    Event,
    Interrupt,
    RngStreams,
    Store,
)
from repro.workloads import Workload


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(1.5)
        return env.now

    p = env.process(proc())
    assert env.run_until_complete(p) == 1.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


@pytest.mark.parametrize("delay", [float("nan"), -1e-9])
def test_invalid_delay_rejected_on_pooled_and_fresh_paths(delay):
    # A NaN delay used to pass the ``< 0`` check and become the run
    # clock.  Both the recycled-timeout path and ``Timeout.__init__``
    # reject it at the call, and the run goes on unharmed.
    env = Environment()
    env.timeout(1.0)
    env.run()
    pool = list(env._timeout_pool)
    assert pool  # the next timeout would be a recycled one
    with pytest.raises(ValueError):
        env.timeout(delay)
    assert list(env._timeout_pool) == pool
    with pytest.raises(ValueError):
        Environment().timeout(delay)  # empty pool: a fresh Timeout
    env.timeout(1.0)
    assert env.run() == 2.0


def test_withdrawn_event_never_fires_and_can_be_rescheduled():
    env = Environment()
    log = []
    events = []
    for tag in "abc":
        ev = env.event()
        ev._value = tag
        ev.add_callback(lambda e: log.append(e.value))
        env._schedule(ev)
        events.append(ev)
    env._withdraw(events[2])  # the newest deferred entry
    env._withdraw(events[0])  # an older one
    with pytest.raises(ValueError):
        env._withdraw(events[0])
    env._schedule(events[0])
    env.run()
    assert log == ["b", "a"]
    assert env.events_processed == 2


def test_timeout_carries_value():
    env = Environment()

    def proc():
        v = yield env.timeout(1, value="payload")
        return v

    assert env.run_until_complete(env.process(proc())) == "payload"


def test_sequential_timeouts_accumulate():
    env = Environment()

    def proc():
        yield env.timeout(1)
        yield env.timeout(2)
        yield env.timeout(3)
        return env.now

    assert env.run_until_complete(env.process(proc())) == 6.0


def test_processes_interleave_deterministically():
    env = Environment()
    log = []

    def proc(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))

    env.process(proc("b", 2))
    env.process(proc("a", 1))
    env.process(proc("c", 1))
    env.run()
    # Equal timestamps resolve in schedule order: "a" before "c".
    assert log == [(1, "a"), (1, "c"), (2, "b")]


def test_event_succeed_delivers_value():
    env = Environment()
    ev = env.event()

    def waiter():
        v = yield ev
        return v

    def firer():
        yield env.timeout(5)
        ev.succeed(42)

    p = env.process(waiter())
    env.process(firer())
    assert env.run_until_complete(p) == 42
    assert env.now == 5


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    def firer():
        yield env.timeout(1)
        ev.fail(ValueError("boom"))

    p = env.process(waiter())
    env.process(firer())
    assert env.run_until_complete(p) == "caught boom"


def test_event_cannot_trigger_twice():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)
    with pytest.raises(RuntimeError):
        ev.fail(ValueError())


def test_event_value_unavailable_until_triggered():
    env = Environment()
    ev = env.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return "done"

    assert env.run_until_complete(env.process(proc())) == "done"


def test_process_waits_on_process():
    env = Environment()

    def child():
        yield env.timeout(3)
        return 7

    def parent():
        v = yield env.process(child())
        return v + 1

    assert env.run_until_complete(env.process(parent())) == 8


def test_process_yielding_non_event_is_error():
    env = Environment()

    def bad():
        yield 5

    env.process(bad())
    with pytest.raises(TypeError):
        env.run()


def test_process_exception_propagates_in_strict_mode():
    env = Environment(strict=True)

    def bad():
        yield env.timeout(1)
        raise RuntimeError("kaboom")

    env.process(bad())
    with pytest.raises(RuntimeError, match="kaboom"):
        env.run()


def test_process_exception_captured_when_not_strict():
    env = Environment(strict=False)

    def bad():
        yield env.timeout(1)
        raise RuntimeError("kaboom")

    p = env.process(bad())
    env.run()
    assert p.triggered and not p.ok
    assert isinstance(p.value, RuntimeError)


def test_interrupt_delivers_cause():
    env = Environment()

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as i:
            return ("interrupted", i.cause, env.now)

    def attacker(p):
        yield env.timeout(2)
        p.interrupt("reason")

    p = env.process(victim())
    env.process(attacker(p))
    assert env.run_until_complete(p) == ("interrupted", "reason", 2)


def test_interrupted_process_is_not_resumed_by_its_old_target():
    # The victim's resume sits in the target's single callback slot; the
    # interrupt must detach it, or the timeout resumes a finished process.
    env = Environment()

    def victim():
        try:
            yield env.timeout(5)
        except Interrupt:
            return env.now

    def attacker(p):
        yield env.timeout(2)
        p.interrupt()

    p = env.process(victim())
    env.process(attacker(p))
    env.run()
    assert p.value == 2
    assert env.now == 5


@pytest.mark.parametrize("then_sleep", [True, False],
                         ids=["yields-again", "finishes"])
def test_interrupt_from_a_sibling_woken_by_the_same_event(then_sleep):
    # The attacker and the victim wait on one event; the attacker runs
    # first and interrupts the victim while that event is still running
    # its callbacks, so the victim wakes with the value first.  The
    # interrupt must then land at the victim's next yield (or be
    # dropped if it finished), never resume it twice.
    env = Environment()
    signal = env.event()
    log = []

    def attacker():
        yield signal
        victim_proc.interrupt("late")

    def victim():
        log.append(("woke", (yield signal)))
        if then_sleep:
            try:
                yield env.timeout(0.0)
            except Interrupt as i:
                log.append(("interrupted", i.cause, env.now))

    env.process(attacker())
    victim_proc = env.process(victim())
    signal.succeed("value")
    env.run()
    expect = [("woke", "value")]
    if then_sleep:
        expect.append(("interrupted", "late", 0.0))
    assert log == expect
    assert victim_proc.ok


def test_interrupt_finished_process_is_error():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_all_of_collects_values_in_order():
    env = Environment()
    e1, e2 = env.event(), env.event()

    def firer():
        yield env.timeout(1)
        e2.succeed("second")
        yield env.timeout(1)
        e1.succeed("first")

    def waiter():
        vals = yield env.all_of([e1, e2])
        return vals

    env.process(firer())
    p = env.process(waiter())
    assert env.run_until_complete(p) == ("first", "second")
    assert env.now == 2


def test_any_of_returns_first_event():
    env = Environment()
    e1, e2 = env.event(), env.event()

    def firer():
        yield env.timeout(1)
        e2.succeed("fast")

    def waiter():
        winner = yield env.any_of([e1, e2])
        return winner.value

    env.process(firer())
    p = env.process(waiter())
    assert env.run_until_complete(p) == "fast"


def test_all_of_empty_is_immediate():
    env = Environment()

    def waiter():
        v = yield env.all_of([])
        return v

    assert env.run_until_complete(env.process(waiter())) == ()


def test_run_until_limits_clock():
    env = Environment()

    def proc():
        yield env.timeout(100)

    env.process(proc())
    assert env.run(until=10) == 10
    assert env.now == 10


def test_run_until_in_past_rejected():
    env = Environment(initial_time=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_step_on_empty_schedule():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_deadlock_detection():
    env = Environment()

    def stuck():
        yield env.event()  # never fires

    p = env.process(stuck())
    with pytest.raises(RuntimeError, match="deadlock"):
        env.run_until_complete(p)


class TestStore:
    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("x")

        def getter():
            v = yield store.get()
            return v

        assert env.run_until_complete(env.process(getter())) == "x"

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)

        def getter():
            v = yield store.get()
            return (env.now, v)

        def putter():
            yield env.timeout(4)
            store.put("late")

        p = env.process(getter())
        env.process(putter())
        assert env.run_until_complete(p) == (4, "late")

    def test_fifo_item_order(self):
        env = Environment()
        store = Store(env)
        for i in range(3):
            store.put(i)
        got = []

        def getter():
            for _ in range(3):
                v = yield store.get()
                got.append(v)

        env.run_until_complete(env.process(getter()))
        assert got == [0, 1, 2]

    def test_fair_getter_matching(self):
        env = Environment()
        store = Store(env)
        got = []

        def getter(name):
            v = yield store.get()
            got.append((name, v))

        env.process(getter("first"))
        env.process(getter("second"))

        def putter():
            yield env.timeout(1)
            store.put("a")
            store.put("b")

        env.process(putter())
        env.run()
        assert got == [("first", "a"), ("second", "b")]


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(7).stream("x").random(5)
        b = RngStreams(7).stream("x").random(5)
        assert (a == b).all()

    def test_different_names_differ(self):
        r = RngStreams(7)
        a = r.stream("x").random(5)
        b = r.stream("y").random(5)
        assert not (a == b).all()

    def test_stream_is_cached(self):
        r = RngStreams(7)
        assert r.stream("x") is r.stream("x")

    def test_spawn_derives_independent_seed(self):
        r = RngStreams(7)
        child = r.spawn("p0")
        assert child.seed != r.seed
        a = child.stream("x").random(3)
        b = RngStreams(7).spawn("p0").stream("x").random(3)
        assert (a == b).all()

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngStreams("seed")


class TestCalendarKernel:
    """Edge cases of the three-lane calendar, Timeout pool and batched loop."""

    def test_timer_ties_keep_schedule_order(self):
        # 200 timed entries in five 40-way timestamp ties, scheduled
        # interleaved: each tie group must fire in (time, seq) FIFO
        # order, all of it through the timed heap.
        env = Environment()
        fired = []
        n = 200
        for i in range(n):
            t = env.timeout(float((i % 5) + 1))
            t.add_callback(lambda ev, i=i: fired.append((env.now, i)))
        env.run()
        expected = sorted(range(n), key=lambda i: ((i % 5) + 1, i))
        assert [i for _, i in fired] == expected
        assert all(now == float((i % 5) + 1) for now, i in fired)
        assert env.kernel_stats()["heap_events"] == n

    def test_timeout_pool_reincarnation_is_clean(self):
        env = Environment()
        first_life = []
        t1 = env.timeout(1.0, value="ghost")
        t1.add_callback(lambda ev: first_life.append(ev.value))
        ident = id(t1)
        env.run()
        assert first_life == ["ghost"]
        # Drop the only outside reference; the free list may now reuse
        # the instance (it stays alive in the pool, so the id is stable).
        del t1
        t2 = env.timeout(2.0)
        assert id(t2) == ident
        assert env.kernel_stats()["pool_hit_rate"] > 0.0
        # The reincarnation carries nothing over from its first life.
        assert t2._value is None
        assert t2._cb0 is None and t2.callbacks is None
        assert not t2.processed and t2._scheduled
        second_life = []
        t2.add_callback(lambda ev: second_life.append(ev.value))
        env.run()
        assert second_life == [None]
        assert first_life == ["ghost"]  # first-life callback never re-fired

    def test_deadlock_raised_mid_batch(self):
        # The inlined batched loop must still detect the stall — and
        # restore the garbage collector on the exception path.
        import gc

        env = Environment()

        def noise():
            for _ in range(10):
                yield env.timeout(1.0)

        def stuck():
            yield env.timeout(1.0)
            yield env.event()  # never fires

        env.process(noise())
        p = env.process(stuck())
        with pytest.raises(RuntimeError, match="deadlock"):
            env.run_until_complete(p)
        assert env.events_processed > 10  # noise drained before the stall
        assert gc.isenabled()

    def test_step_after_batched_drain_raises_empty(self):
        env = Environment()

        def proc():
            yield env.timeout(1.0)

        env.run_until_complete(env.process(proc()))
        with pytest.raises(EmptySchedule):
            env.step()


class TestGcSettlement:
    """``run_until_complete`` settles the collection its GC-off loop
    postponed, and a nested run (GC already off) collects nothing."""

    @staticmethod
    def _allocating(env, keep):
        def proc():
            import gc
            for _ in range(4):
                # Container objects count toward generation 0.
                keep.extend([i] for i in range(gc.get_threshold()[0]))
                yield env.timeout(1.0)
        return proc()

    @pytest.fixture
    def collections(self):
        """Yield ``(log, inside)``: ``log`` gets one ``inside[0]`` flag
        per collection started while the test runs."""
        import gc

        log, inside = [], [True]

        def record(phase, info):
            if phase == "start":
                log.append(inside[0])

        was_enabled = gc.isenabled()
        gc.enable()
        gc.callbacks.append(record)
        try:
            yield log, inside
        finally:
            gc.callbacks.remove(record)
            if not was_enabled:
                gc.disable()

    def test_debt_settled_when_gc_was_on_at_entry(self, collections):
        import gc

        log, inside = collections
        env = Environment()
        keep = []
        p = env.process(self._allocating(env, keep))
        env.run_until_complete(p)
        inside[0] = False
        # The loop ran with GC off, so a collection inside the call is
        # the settlement, and it leaves generation 0 under its threshold
        # for the caller's next allocation.
        assert True in log
        assert gc.get_count()[0] <= gc.get_threshold()[0]
        assert gc.isenabled()

    def test_nested_run_collects_nothing(self, collections):
        import gc

        log, inside = collections
        outer = Environment()
        seen = []

        def nest():
            inner = Environment()
            keep = []
            inside[0] = True
            inner.run_until_complete(
                inner.process(self._allocating(inner, keep)))
            inside[0] = False
            seen.append(gc.isenabled())
            yield outer.timeout(1.0)

        inside[0] = False
        outer.run_until_complete(outer.process(nest()))
        assert True not in log
        assert seen == [False]
        assert gc.isenabled()


class TestLanePins:
    """Which calendar lane serves each event of small whole blade runs.

    ``run.kernel.batch_advance_fraction`` reads 1.0 on any run that
    never calls ``step``, wherever its events were queued, so it cannot
    see a change that moves events between lanes.  These pins can: a
    completion or linger expiry scheduled through the timed heap
    instead of the immediate or deferred lane changes the split.
    """

    @pytest.mark.parametrize("name, events, immediate, deferred, heap", [
        ("fig8", 1241, 370, 123, 748),
        ("llp4", 1238, 370, 123, 745),
        ("linux", 1476, 610, 123, 743),
    ])
    def test_lane_split_of_small_runs(self, monkeypatch, name, events,
                                      immediate, deferred, heap):
        envs = []

        class Recorded(Environment):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                envs.append(self)

        monkeypatch.setattr(runner_mod, "Environment", Recorded)
        spec = {"fig8": mgps, "llp4": lambda: static_hybrid(4),
                "linux": linux}[name]()
        r = run_experiment(spec, Workload(bootstraps=2, tasks_per_bootstrap=60,
                                          seed=0), seed=0)
        stats = envs[0].kernel_stats()
        assert r.events_processed == events
        assert (stats["immediate_events"], stats["deferred_events"],
                stats["heap_events"]) == (immediate, deferred, heap)
        assert stats["batch_advance_fraction"] == 1.0
