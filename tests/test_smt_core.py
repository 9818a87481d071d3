"""Tests for the SMT PPE core model (run queue, quantum, spin, SMT slowdown)."""

import pytest

from repro.sim import Environment
from repro.cell.smt import SMTCore
from repro.core.runner import run_experiment
from repro.core.schedulers import edtlp, linux
from repro.workloads import Workload


def make_core(**kw):
    env = Environment()
    defaults = dict(n_contexts=2, smt_efficiency=0.5, quantum=10e-3, switch_cost=0.0)
    defaults.update(kw)
    return env, SMTCore(env, **defaults)


def test_single_thread_runs_at_full_speed():
    env, core = make_core()
    t = core.thread("a")

    def proc():
        yield t.run(1.0)
        return env.now

    assert env.run_until_complete(env.process(proc())) == pytest.approx(1.0)


def test_two_threads_share_with_smt_efficiency():
    # Two equal jobs, efficiency 0.5 each: both finish at work/0.5.
    env, core = make_core(smt_efficiency=0.5)
    done = []

    for name in ("a", "b"):
        t = core.thread(name)

        def proc(t=t, name=name):
            yield t.run(1.0)
            done.append((name, env.now))

        env.process(proc())
    env.run()
    assert done[0][1] == pytest.approx(2.0)
    assert done[1][1] == pytest.approx(2.0)


def test_speed_recovers_when_sibling_leaves():
    # Job a: 1.0 work; job b: 0.25 work.  Both at 0.5 speed until b ends at
    # t=0.5 (0.25/0.5); a then has 0.75 work left at full speed -> t=1.25.
    env, core = make_core(smt_efficiency=0.5)
    times = {}

    def proc(name, work):
        t = core.thread(name)
        yield t.run(work)
        times[name] = env.now

    env.process(proc("a", 1.0))
    env.process(proc("b", 0.25))
    env.run()
    assert times["b"] == pytest.approx(0.5)
    assert times["a"] == pytest.approx(1.25)


def test_third_thread_waits_for_quantum():
    # 3 CPU-bound jobs on 2 contexts: the third starts only at a quantum
    # boundary.
    env, core = make_core(smt_efficiency=1.0, quantum=0.010)
    starts = {}
    ends = {}

    def proc(name):
        t = core.thread(name)
        starts[name] = env.now
        yield t.run(0.005)
        ends[name] = env.now

    for n in ("a", "b", "c"):
        env.process(proc(n))
    env.run()
    # a and b finish their 5 ms at t=5 ms; c then runs 5 ms more.
    assert ends["a"] == pytest.approx(0.005)
    assert ends["c"] == pytest.approx(0.010)


def test_round_robin_fairness_under_quantum():
    # Two long jobs + one context: each gets alternating quanta.
    env, core = make_core(n_contexts=1, quantum=0.010, smt_efficiency=1.0)
    ends = {}

    def proc(name):
        t = core.thread(name)
        yield t.run(0.015)
        ends[name] = env.now

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    # a: [0,10)+[20,25) -> ends 25 ms; b: [10,20)+[25,30) -> ends 30 ms.
    assert ends["a"] == pytest.approx(0.025)
    assert ends["b"] == pytest.approx(0.030)


def test_switch_cost_charged_on_occupant_change():
    env, core = make_core(n_contexts=1, switch_cost=0.001, quantum=1.0)
    ends = {}

    def proc(name, delay):
        t = core.thread(name)
        yield env.timeout(delay)
        yield t.run(0.010)
        ends[name] = env.now

    env.process(proc("a", 0))
    env.process(proc("b", 0))
    env.run()
    # First occupant of a fresh context pays nothing; b pays one switch.
    assert ends["a"] == pytest.approx(0.010)
    assert ends["b"] == pytest.approx(0.021)
    assert core.switches == 1


def test_no_switch_cost_for_back_to_back_requests():
    env, core = make_core(n_contexts=1, switch_cost=0.001, quantum=1.0)
    t = core.thread("a")

    def proc():
        yield t.run(0.010)
        yield t.run(0.010)  # same timestamp resubmit: lingers in place
        return env.now

    assert env.run_until_complete(env.process(proc())) == pytest.approx(0.020)
    assert core.switches == 0


def test_spin_completes_when_target_fires_on_cpu():
    env, core = make_core()
    t = core.thread("a")
    ev = env.event()

    def firer():
        yield env.timeout(0.5)
        ev.succeed()

    def proc():
        yield t.spin_until(ev)
        return env.now

    env.process(firer())
    assert env.run_until_complete(env.process(proc())) == pytest.approx(0.5)


def test_spin_holds_context_against_ready_thread():
    # One context; spinner occupies it, a compute job waits until the
    # spinner's quantum expires.
    env, core = make_core(n_contexts=1, quantum=0.010)
    ev = env.event()
    ends = {}

    def spinner():
        t = core.thread("spin")
        yield t.spin_until(ev)
        ends["spin"] = env.now

    def worker():
        t = core.thread("work")
        yield t.run(0.001)
        ends["work"] = env.now

    def firer():
        yield env.timeout(0.050)
        ev.succeed()

    env.process(spinner())
    env.process(worker())
    env.process(firer())
    env.run()
    # Worker runs in the quantum slot after the spinner's first 10 ms.
    assert ends["work"] == pytest.approx(0.011)
    # Spinner notices the event when on CPU (it reacquires after worker).
    assert ends["spin"] == pytest.approx(0.050)


def test_spin_notice_delayed_until_rescheduled():
    # The Linux pathology: spinner preempted; its event fires while it is
    # OFF cpu; it only notices when it gets a context again.
    env, core = make_core(n_contexts=1, quantum=0.010)
    ev = env.event()
    ends = {}

    def spinner():
        t = core.thread("spin")
        yield t.spin_until(ev)
        ends["spin"] = env.now

    def hog():
        t = core.thread("hog")
        yield t.run(0.025)
        ends["hog"] = env.now

    def firer():
        # Fires at t=12ms, while the hog owns the context (spinner was
        # preempted at 10ms).
        yield env.timeout(0.012)
        ev.succeed()

    env.process(spinner())
    env.process(hog())
    env.process(firer())
    env.run()
    # Spinner regains the CPU at 20 ms (hog quantum expiry) and completes.
    assert ends["spin"] == pytest.approx(0.020)


def test_zero_work_request_completes_immediately():
    env, core = make_core()
    t = core.thread("a")

    def proc():
        yield t.run(0.0)
        return env.now

    assert env.run_until_complete(env.process(proc())) == pytest.approx(0.0)


def test_concurrent_submit_while_busy_is_error():
    env, core = make_core()
    t = core.thread("a")

    def proc():
        t.run(1.0)
        with pytest.raises(RuntimeError):
            t.run(1.0)
        yield env.timeout(0)

    env.run_until_complete(env.process(proc()))


def test_work_done_accounting():
    env, core = make_core(smt_efficiency=1.0)
    t = core.thread("a")

    def proc():
        yield t.run(0.5)
        yield t.run(0.25)

    env.run_until_complete(env.process(proc()))
    assert t.work_done == pytest.approx(0.75)


def test_busy_accounting_occupancy():
    env, core = make_core(smt_efficiency=1.0)

    def proc(name):
        t = core.thread(name)
        yield t.run(1.0)

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    # Two contexts busy for 1s each over a 1s window -> occupancy 1.0.
    assert core.occupancy(1.0) == pytest.approx(2.0 / 2.0)


def test_many_threads_all_complete():
    env, core = make_core(n_contexts=2, smt_efficiency=0.5, quantum=0.010)
    n = 7
    done = []

    def proc(i):
        t = core.thread(f"t{i}")
        yield t.run(0.003)
        done.append(i)

    for i in range(n):
        env.process(proc(i))
    env.run()
    assert sorted(done) == list(range(n))
    # Total work = 7 * 3ms; combined throughput when saturated = 2*0.5 = 1.
    assert env.now == pytest.approx(0.021, rel=0.2)


def test_invalid_parameters_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        SMTCore(env, n_contexts=0)
    with pytest.raises(ValueError):
        SMTCore(env, smt_efficiency=0.0)
    with pytest.raises(ValueError):
        SMTCore(env, quantum=0.0)
    with pytest.raises(ValueError):
        SMTCore(env, switch_cost=-1.0)


def test_negative_work_rejected():
    env, core = make_core()
    t = core.thread("a")
    with pytest.raises(ValueError):
        t.run(-1.0)


@pytest.mark.parametrize("work", [float("nan"), float("inf")])
def test_non_finite_work_rejected(work):
    # Both used to be accepted and end the run in a misleading
    # "deadlock: calendar empty".
    env, core = make_core()
    t = core.thread("a")
    with pytest.raises(ValueError):
        t.run(work)
    assert (t.state, t.kind, t.done_event) == ("idle", None, None)

    def proc():
        yield t.run(1e-3)
        return env.now

    assert env.run_until_complete(env.process(proc())) == pytest.approx(1e-3)


def test_lingering_resubmit_takes_back_only_a_no_op_linger():
    # Positive work cannot complete at the instant it is submitted, so a
    # lingering thread that resubmits it takes its pending linger back.
    # Zero work keeps it: the thread completes again at once, and that
    # second linger is a pooled timeout because the first is pending.
    env, core = make_core()
    t = core.thread("a")
    seen = []

    def proc():
        yield t.run(1e-3)
        seen.append(t.linger._cb0 is not None)
        yield t.run(0.0)
        seen.append(t.linger._cb0 is not None)
        done = t.run(1e-3)
        seen.append(t.linger._cb0 is not None)
        yield done
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [True, True, False, pytest.approx(2e-3)]
    assert t.state == "idle" and sorted(core._slot_free) == [0, 1]


def test_spin_without_target_rejected():
    env, core = make_core()
    t = core.thread("a")
    with pytest.raises(ValueError):
        t.spin_until(None)


def _thread_fields(t):
    return {name: getattr(t, name) for name in type(t).__slots__}


def test_rejected_request_leaves_lingering_thread_untouched():
    # A request rejected while the thread lingers on its context must
    # not leave a request kind or a dangling done event behind, neither
    # while it lingers nor after it goes idle.
    env, core = make_core()
    t = core.thread("a")
    seen = {}

    def proc():
        yield t.run(1e-3)
        assert t.state == "linger"
        before = _thread_fields(t)
        with pytest.raises(ValueError):
            t.spin_until(None)
        with pytest.raises(ValueError):
            t.run(-1.0)
        seen["lingering"] = _thread_fields(t) == before
        yield env.timeout(1e-3)
        seen["idle"] = (t.state, t.kind, t.done_event, t.spin_target)
        yield t.run(2e-3)
        seen["finish"] = env.now

    env.run_until_complete(env.process(proc()))
    assert seen["lingering"]
    assert seen["idle"] == ("idle", None, None, None)
    assert seen["finish"] == pytest.approx(4e-3)
    assert t.kind is None and t.done_event is None


@pytest.mark.parametrize("linger", [True, False])
def test_spin_on_already_fired_target_releases_thread(linger):
    # Spinning on an event that has already been processed completes at
    # once and leaves the thread free for its next request, whether it
    # submits while lingering on its context or after going idle.
    env, core = make_core()
    t = core.thread("a")
    ev = env.event()
    ev.succeed()
    seen = {}

    def proc():
        yield env.timeout(1e-3)
        assert ev.processed
        yield t.run(1e-3)
        if not linger:
            yield env.timeout(1e-3)
        assert t.state == ("linger" if linger else "idle")
        start = env.now
        yield t.spin_until(ev)
        seen["spin"] = env.now - start
        yield t.run(2e-3)
        seen["finish"] = env.now - start

    env.run_until_complete(env.process(proc()))
    assert seen["spin"] == 0.0
    assert seen["finish"] == pytest.approx(2e-3)
    assert t.kind is None and t.done_event is None


def test_edtlp_vs_linux_shape_microbenchmark():
    """The core alone reproduces the qualitative Table 1 effect.

    Four threads each alternate 10 us compute with a 100 us off-load wait.
    Blocking threads (EDTLP-style) overlap all four waits; spinning
    threads (Linux-style) serialize pairs of them across quanta.
    """

    def run_mode(spin: bool) -> float:
        env = Environment()
        core = SMTCore(env, n_contexts=2, smt_efficiency=0.7,
                       quantum=10e-3, switch_cost=1.5e-6)
        n_cycles = 50

        def worker(i):
            t = core.thread(f"w{i}")
            for _ in range(n_cycles):
                yield t.run(10e-6)
                ev = env.timeout(100e-6)  # stands in for the SPE task
                if spin:
                    yield t.spin_until(ev)
                else:
                    yield ev

        procs = [env.process(worker(i)) for i in range(4)]
        env.run_until_complete(env.all_of(procs))
        return env.now

    t_block = run_mode(spin=False)
    t_spin = run_mode(spin=True)
    # Spinning wastes the contexts: at least ~1.7x slower for 4 threads.
    assert t_spin > 1.7 * t_block


# Table 1's event stream, recorded before the single-pass wake (event
# counts re-recorded when each off-load's SPE execution moved inline into
# its dispatching process, and again when the core stopped arming timers
# from completing wakes and took back no-op lingers): any change to the
# SMT core or the kernel that moves one event, one context switch or one
# float of the makespan fails here.
TABLE1_EVENT_STREAM = {
    ("edtlp", 1): (28.46592959116027, 3010, 0),
    ("linux", 1): (28.46592959116027, 3610, 0),
    ("edtlp", 3): (30.216186304709826, 9217, 671),
    ("linux", 3): (57.674206896128815, 11698, 7),
    ("edtlp", 8): (39.42198956977871, 26632, 2392),
    ("linux", 8): (118.33844965280936, 31166, 30),
}


@pytest.mark.parametrize("scheduler,workers", sorted(TABLE1_EVENT_STREAM))
def test_table1_event_stream_is_pinned(scheduler, workers):
    spec = {"edtlp": edtlp, "linux": linux}[scheduler](n_processes=workers)
    wl = Workload(bootstraps=workers, tasks_per_bootstrap=300, seed=0)
    r = run_experiment(spec, wl, seed=0)
    assert (r.makespan, r.events_processed, r.ppe_context_switches) == (
        TABLE1_EVENT_STREAM[scheduler, workers]
    )
