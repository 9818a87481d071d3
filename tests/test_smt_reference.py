"""The SMT PPE core against a slow reference.

``SMTCore._wake`` does everything in one pass and reads the speed of a
thread with one sibling from a table built at construction.  The
contract is bit-identity with the straightforward model it replaced:
every sibling weight summed in a loop on every speed query, the timer
armed by a separate scan, and every timeout allocated fresh through the
plain scheduling path.  ``ReferenceSMTCore`` below keeps that model;
hypothesis drives both cores through the same random programs, and
whole Table 1 / MGPS runs on the reference must match the real ones.

The real core also schedules less than the eager model: a wake that
completed a thread arms no timer, and a lingering thread that resubmits
positive work takes its pending linger back.  The reference still
schedules both, tags them, and asserts when each fires that it acts on
nothing (the timer is stale, the linger finds its thread busy).  So
every output matches except the event count, which differs by exactly
the tagged entries that fired, and the clock a drained run stops at,
which only a stale timer can push later.
"""

from hypothesis import given, settings, strategies as st

import repro.cell.machine as machine_mod
from repro.cell.smt import SMTCore, _EPS, _LINGER, _READY, _RUNNING, _SPIN, _WORK
from repro.core.runner import run_experiment
from repro.core.schedulers import edtlp, linux, mgps, static_hybrid
from repro.sim.engine import Environment
from repro.sim.events import URGENT, Timeout
from repro.workloads import Workload


class PlainEnvironment(Environment):
    """An environment that never recycles a timeout.

    Every ``timeout`` goes through ``Timeout.__init__`` and
    ``Environment._schedule``, the path the pooled fast path inlines.
    """

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)


class ReferenceSMTCore(SMTCore):
    """The slow, obviously-correct SMT core."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The linger the real core's reusable per-thread event carries:
        # a thread's first pending linger at any one instant.
        self._reusable = {}
        # Lingers the real core withdraws; each must fire into a no-op.
        self._withdrawn = set()
        self.stale_timers_fired = 0
        self.noop_lingers_fired = 0

    def _submit(self, thread, kind, work=0.0, target=None):
        # The inherited submit withdraws nothing here: this core gives
        # every linger a fresh timeout, so ``thread.linger`` never waits.
        lingering = thread.state == _LINGER
        done = super()._submit(thread, kind, work, target)
        if lingering and kind == _WORK and work > _EPS:
            linger = self._reusable.pop(thread, None)
            if linger is not None and not linger.processed:
                self._withdrawn.add(linger)
        return done

    def _on_linger_expire(self, ev):
        if ev in self._withdrawn:
            self._withdrawn.discard(ev)
            assert ev.value.state != _LINGER, "a withdrawn linger acts"
            self.noop_lingers_fired += 1
        super()._on_linger_expire(ev)

    def _on_skipped_timer(self, ev):
        assert ev.value != self._version, "a skipped timer is live"
        self.stale_timers_fired += 1
        self._on_timer(ev)

    def _thread_speed(self, thread):
        w = 0.0
        for other in self._running:
            if other is thread:
                continue
            w += 1.0 if other.kind == _WORK else self.spin_contention
        if w <= 0.0:
            return 1.0
        return 1.0 / (1.0 + (1.0 / self.smt_efficiency - 1.0) * w)

    def _advance(self):
        now = self.env.now
        dt = now - self._last_ts
        self._last_ts = now
        if dt <= 0 or not self._running:
            return
        self.busy_context_seconds += dt * len(self._running)
        for t in self._running:
            pen = min(t.penalty_left, dt)
            t.penalty_left -= pen
            eff = dt - pen
            if t.kind == _WORK and eff > 0:
                progress = eff * self._thread_speed(t)
                t.remaining -= progress
                t.work_done += progress
            t.quantum_left -= dt

    def _complete(self, thread):
        done = thread.done_event
        thread.done_event = None
        thread.kind = None
        thread.spin_target = None
        thread.state = _LINGER
        expire = self.env.timeout(0.0, thread)
        expire.add_callback(self._on_linger_expire)
        reusable = self._reusable.get(thread)
        if reusable is None or reusable.processed:
            self._reusable[thread] = expire
        done.succeed(None, priority=URGENT)

    def _has_eligible(self, slot):
        return bool(self._ready_aff[slot]) or bool(self._ready)

    def _eligible(self, slot):
        if self._ready_aff[slot]:
            return self._ready_aff[slot].popleft()
        if self._ready:
            return self._ready.popleft()
        return None

    def _wake(self):
        self._version += 1
        self._advance()
        completed = [
            t for t in self._running
            if t.penalty_left <= _EPS and (
                (t.kind == _WORK and t.remaining <= _EPS)
                or (t.kind == _SPIN and t.spin_fired)
            )
        ]
        for t in completed:
            self._complete(t)
        if self._ready or any(self._ready_aff):
            preempted = [
                t for t in self._running
                if t.state == _RUNNING and t.quantum_left <= _EPS
                and self._has_eligible(t.slot)
            ]
            for t in preempted:
                self._release_slot(t)
                t.state = _READY
                self._enqueue(t)
            progressed = True
            while self._slot_free and progressed:
                progressed = False
                for slot in list(self._slot_free):
                    t = self._eligible(slot)
                    if t is None:
                        continue
                    self._slot_free.remove(slot)
                    t.slot = slot
                    t.state = _RUNNING
                    last = self._slot_last[slot]
                    if last is not t and last is not None:
                        t.penalty_left = self.switch_cost
                        self.switches += 1
                    else:
                        t.penalty_left = 0.0
                    t.quantum_left = self.quantum
                    self._slot_last[slot] = t
                    self._running.append(t)
                    progressed = True
        self._arm_timer(skipped=bool(completed))

    def _arm_timer(self, skipped):
        if not self._running:
            return
        horizon = float("inf")
        waiters = bool(self._ready) or any(self._ready_aff)
        for t in self._running:
            if t.kind == _WORK:
                speed = self._thread_speed(t)
                horizon = min(horizon, t.penalty_left + t.remaining / speed)
            elif t.kind == _SPIN and t.spin_fired:
                horizon = min(horizon, t.penalty_left)
            if waiters and self._has_eligible(t.slot):
                horizon = min(horizon, max(t.quantum_left, 0.0))
        if horizon == float("inf"):
            return
        timer = self.env.timeout(max(horizon, 0.0), self._version)
        # The real core arms no timer from a wake that completed a thread.
        timer.add_callback(
            self._on_skipped_timer if skipped else self._on_timer)


class CheckedSMTCore(SMTCore):
    """The real core, checking its queued-thread count after every wake.

    ``_wake`` reads ``_n_queued`` in place of scanning the run queues;
    this holds the count to the queues it stands for.
    """

    def _wake(self):
        super()._wake()
        assert self._n_queued == len(self._ready) + sum(
            map(len, self._ready_aff))


# -- random programs ----------------------------------------------------------

_span = st.one_of(
    st.just(0.0),
    st.sampled_from([1e-6, 1.5e-6, 1e-3, 2e-3, 10e-3]),
    st.floats(min_value=1e-7, max_value=0.03, allow_nan=False),
)
_op = st.one_of(
    st.tuples(st.just("work"), _span),
    st.tuples(st.just("spin"), _span),     # spin until a timeout fires
    st.tuples(st.just("sleep"), _span),    # off the core for a while
)
_thread = st.fixed_dictionaries({
    "start": st.one_of(st.just(0.0), _span),
    "affinity": st.one_of(st.none(), st.integers(0, 3)),
    "ops": st.lists(_op, min_size=1, max_size=8),
})
_program = st.fixed_dictionaries({
    "n_contexts": st.integers(1, 4),
    "smt_efficiency": st.one_of(
        st.sampled_from([0.45, 0.5, 0.62, 1.0]),
        st.floats(min_value=0.05, max_value=1.0),
    ),
    "spin_contention": st.one_of(
        st.sampled_from([0.0, 0.2, 1.0]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    "quantum": st.sampled_from([1e-3, 2e-3, 10e-3]),
    "switch_cost": st.sampled_from([0.0, 1.5e-6, 1e-4]),
    "threads": st.lists(_thread, min_size=1, max_size=6),
})


def run_program(core_cls, env_cls, prog):
    env = env_cls()
    n = prog["n_contexts"]
    core = core_cls(
        env, n_contexts=n, smt_efficiency=prog["smt_efficiency"],
        spin_contention=prog["spin_contention"], quantum=prog["quantum"],
        switch_cost=prog["switch_cost"],
    )
    finishes = []
    threads = []

    def proc(i, spec, t):
        if spec["start"]:
            yield env.timeout(spec["start"])
        for op, x in spec["ops"]:
            if op == "work":
                yield t.run(x)
            elif op == "spin":
                yield t.spin_until(env.timeout(x))
            else:
                yield env.timeout(x)
            finishes.append((i, op, env.now))

    for i, spec in enumerate(prog["threads"]):
        aff = spec["affinity"]
        t = core.thread(f"t{i}", affinity=None if aff is None else aff % n)
        threads.append(t)
        env.process(proc(i, spec, t))
    env.run()
    return {
        "finishes": finishes,
        "switches": core.switches,
        "busy_context_seconds": core.busy_context_seconds,
        "work_done": [t.work_done for t in threads],
        "events_processed": env.events_processed,
        "now": env.now,
    }, core


def skipped_fired(cores):
    """Events the reference cores processed that the real core skips."""
    return sum(c.stale_timers_fired + c.noop_lingers_fired for c in cores)


def assert_matches_reference(prog):
    fast, _ = run_program(CheckedSMTCore, Environment, prog)
    slow, ref = run_program(ReferenceSMTCore, PlainEnvironment, prog)
    assert ref._withdrawn == set()  # every withdrawn linger fired
    assert fast.pop("events_processed") == (
        slow.pop("events_processed") - skipped_fired([ref]))
    assert fast.pop("now") <= slow.pop("now")
    # ``repr`` is exact for floats and tells -0.0 from 0.0.
    assert repr(fast) == repr(slow)
    return fast, ref


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_program)
    def test_random_programs_are_bit_identical(self, prog):
        assert_matches_reference(prog)

    def test_reference_exercises_every_path(self):
        # A hand-built program covering what the generator is meant to
        # reach: >2 running threads, affinity queues, spin/work mixes,
        # zero work, switch cost and quantum expiry.
        prog = {
            "n_contexts": 3, "smt_efficiency": 0.62, "spin_contention": 0.2,
            "quantum": 1e-3, "switch_cost": 1.5e-6,
            "threads": [
                {"start": 0.0, "affinity": None,
                 "ops": [("work", 0.004), ("spin", 0.002), ("work", 0.0)]},
                {"start": 0.0, "affinity": 1,
                 "ops": [("work", 0.003), ("sleep", 1e-3), ("work", 0.002)]},
                {"start": 1e-6, "affinity": 1,
                 "ops": [("spin", 0.003), ("work", 0.005)]},
                {"start": 0.0, "affinity": None,
                 "ops": [("work", 0.006)]},
                {"start": 2e-3, "affinity": 0,
                 "ops": [("work", 0.001), ("work", 0.001)]},
            ],
        }
        fast, ref = assert_matches_reference(prog)
        assert fast["switches"] > 0
        assert ref.stale_timers_fired > 0
        assert ref.noop_lingers_fired > 0


class TestWholeRunsAgainstReference:
    """Blade runs with the reference core patched into the machine."""

    def _run(self, spec, wl):
        r = run_experiment(spec, wl, seed=0)
        return (repr(r.makespan), repr(r.ppe_occupancy),
                r.ppe_context_switches, r.offloads, r.result_digest,
                r.events_processed)

    def test_table1_and_mgps_runs_match(self, monkeypatch):
        cases = []
        for w in (1, 3):
            wl = Workload(bootstraps=w, tasks_per_bootstrap=60, seed=0)
            cases += [(edtlp(n_processes=w), wl), (linux(n_processes=w), wl)]
        cases.append((mgps(), Workload(bootstraps=4, tasks_per_bootstrap=60,
                                       seed=0)))
        # Loop-level parallelism on: LLP workers hold SPEs while the
        # PPE threads submit, spin and linger.
        cases.append((static_hybrid(4),
                      Workload(bootstraps=1, tasks_per_bootstrap=60, seed=0)))
        fast = [self._run(s, wl) for s, wl in cases]
        cores = []

        class RecordedCore(ReferenceSMTCore):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                cores.append(self)

        monkeypatch.setattr(machine_mod, "SMTCore", RecordedCore)
        for (spec, wl), got in zip(cases, fast):
            cores.clear()
            *outputs, events = self._run(spec, wl)
            assert tuple(outputs) == got[:-1]
            assert all(not core._withdrawn for core in cores)
            assert got[-1] == events - skipped_fired(cores) < events
