"""Differential oracle for the calendar event kernel.

:class:`HeapEnvironment` is a plain-``heapq`` reference kernel: one heap
of ``(time, priority, seq, event)`` entries with a sequence number for
every scheduled event, no immediate/deferred lanes, no Timeout free
list and one event per ``step``.  The real kernel (immediate and
deferred lanes over one timed heap, a tail pop for the newest withdrawn
entry, recycled timeouts, inlined dispatch loops) must dispatch events
in exactly that order.

Hypothesis programs drive both kernels through zero-delay and
same-instant fan-out, URGENT/NORMAL triggers, ``any_of``/``all_of``,
callback removal (composite ``detach`` and process interrupts), events
withdrawn from the calendar (the newest deferred entry or an older
one) and rescheduled, and wide timer fans with many-way timestamp ties
while processed timeouts are recycled.  Whole runs then swap the reference in for fig8 and
``serve_small`` and must reproduce every digest and event count.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.runner
import repro.serve.service
from repro.core.runner import run_experiment
from repro.core.schedulers import mgps
from repro.serve import ServeConfig, default_tenants, run_service
from repro.sim.engine import EmptySchedule, Environment
from repro.sim.events import NORMAL, URGENT, Event, Interrupt, Timeout
from repro.sim.trace import Tracer
from repro.workloads.traces import Workload

_INF = float("inf")


class HeapEnvironment(Environment):
    """The slow, obviously-correct kernel: one heap, one step at a time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.heap = []

    # The reference keeps its own clock in ``_now``; the components it
    # drives read ``env.now``, a plain slot on the real kernel.
    @property
    def now(self):
        return self._now

    @now.setter
    def now(self, value):
        self._now = value

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def _schedule(self, event, priority=NORMAL, delay=0.0):
        if event._scheduled:
            raise RuntimeError("event is already scheduled")
        event._scheduled = True
        self._seq += 1
        heapq.heappush(
            self.heap, (self._now + delay, priority, self._seq, event))

    def _withdraw(self, event):
        for i, entry in enumerate(self.heap):
            if entry[3] is event:
                del self.heap[i]
                heapq.heapify(self.heap)
                event._scheduled = False
                return
        raise ValueError(f"{event!r} is not on the calendar")

    def peek(self):
        return self.heap[0][0] if self.heap else _INF

    def _has_events(self):
        return bool(self.heap)

    def step(self):
        if not self.heap:
            raise EmptySchedule()
        self._now, _, _, event = heapq.heappop(self.heap)
        self.events_processed += 1
        event._process()

    def run(self, until=None):
        if until is not None and until < self._now:
            raise ValueError(f"until={until} is in the past")
        limit = _INF if until is None else until
        while self.heap and self.heap[0][0] <= limit:
            self.step()
        if until is not None and until > self._now and self.heap:
            self._now = until
        return self._now

    def run_until_complete(self, process):
        while process._value is Event._PENDING:
            if not self.heap:
                self._deadlock(process)
            self.step()
        self.run(self._now)
        if not process._ok:
            raise process._value
        return process._value


# -- program interpreter ------------------------------------------------------

def run_program(env_cls, program, split):
    """Run ``program`` on a fresh ``env_cls``; return everything observable."""
    env = env_cls()
    log = []
    signals = [env.event() for _ in range(3)]
    procs = []

    def record(tag):
        return lambda ev: log.append((env.now, tag, ev.ok))

    def body(pid, ops):
        for i, op in enumerate(ops):
            tag = (pid, i)
            try:
                kind = op[0]
                if kind == "sleep":
                    yield env.timeout(op[1], value=tag)
                elif kind == "fire":
                    sig = signals[op[1]]
                    if not sig.triggered:
                        sig.succeed(tag, priority=op[2])
                        sig.add_callback(record(("fired", tag)))
                        signals[op[1]] = env.event()
                elif kind == "wait":
                    value = yield signals[op[1]]
                    log.append((env.now, tag, value))
                elif kind == "any":
                    cond = env.any_of([env.timeout(op[1]), signals[op[2]]])
                    fired = yield cond
                    cond.detach()
                    log.append((env.now, tag, type(fired).__name__))
                elif kind == "all":
                    yield env.all_of([env.timeout(op[1]), env.timeout(op[2])])
                elif kind == "fan":
                    # 40 distinct instants, each shared by several timers.
                    n, delay = op[1], op[2]
                    for k in range(n):
                        t = env.timeout(delay * (k % 40) / 8)
                        t.add_callback(record((tag, k)))
                elif kind == "withdraw":
                    # A zero-delay event taken back before it fires: the
                    # newest deferred entry, or one with a younger entry
                    # scheduled behind it; optionally scheduled again.
                    ev = env.event()
                    ev._value = tag
                    ev.add_callback(record(("withdrawable", tag)))
                    env._schedule(ev)
                    if not op[1]:
                        env.timeout(0.0).add_callback(record(("kept", tag)))
                    env._withdraw(ev)
                    if op[2]:
                        env._schedule(ev)
                        yield ev
                elif kind == "interrupt":
                    other = procs[op[1] % len(procs)]
                    if other.is_alive and other._target is not None:
                        other.interrupt(tag)
            except Interrupt as exc:
                log.append((env.now, tag, ("interrupted", exc.cause)))
            log.append((env.now, tag))

    for pid, ops in enumerate(program):
        procs.append(env.process(body(pid, ops), name=f"p{pid}"))
    env.run(until=split)
    log.append(("split", env.now))
    env.run()
    return env, {"log": log, "now": env.now,
                 "events": env.events_processed,
                 "alive": [p.is_alive for p in procs]}


_delays = st.sampled_from([0.0, 0.0, 1e-3, 2e-3, 0.5, 1.0])
_op = st.one_of(
    st.tuples(st.just("sleep"), _delays),
    st.tuples(st.just("fire"), st.integers(0, 2),
              st.sampled_from([URGENT, NORMAL])),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("any"), _delays, st.integers(0, 2)),
    st.tuples(st.just("all"), _delays, _delays),
    st.tuples(st.just("fan"), st.integers(1, 150), _delays),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
    st.tuples(st.just("withdraw"), st.booleans(), st.booleans()),
)
_program = st.lists(st.lists(_op, max_size=10), min_size=1, max_size=6)


class TestDispatchOrder:
    @settings(max_examples=300, deadline=None)
    @given(program=_program, split=st.sampled_from([0.0, 1e-3, 0.75]))
    def test_kernel_matches_heap_reference(self, program, split):
        assert (run_program(Environment, program, split)[1]
                == run_program(HeapEnvironment, program, split)[1])

    def test_program_with_tied_timer_fans_recycles(self):
        # Two waves of 150 timers over 40 tied instants each, and the
        # second wave reuses timeouts the first wave processed.
        program = [
            [("fan", 150, 1e-3), ("sleep", 0.5), ("fan", 150, 2e-3)],
            [("fire", 0, URGENT), ("sleep", 0.0), ("wait", 1)],
            [("any", 1e-3, 0), ("fire", 1, NORMAL), ("all", 0.0, 1e-3)],
            [("wait", 2), ("sleep", 1.0)],
            [("sleep", 1e-3), ("interrupt", 3), ("interrupt", 2)],
            [("withdraw", True, False), ("withdraw", False, True),
             ("withdraw", True, True), ("withdraw", False, False)],
        ]
        env, fast = run_program(Environment, program, 1e-3)
        stats = env.kernel_stats()
        assert stats["pool_hit_rate"] > 0.4
        assert any(entry[-1] == ("interrupted", (4, 1))
                   for entry in fast["log"] if len(entry) == 3)
        # Only the rescheduled withdrawals fire.
        assert [entry[1][1] for entry in fast["log"] if len(entry) == 3
                and entry[1][0] == "withdrawable"] == [(5, 1), (5, 2)]
        assert fast == run_program(HeapEnvironment, program, 1e-3)[1]

    def test_older_withdrawal_after_a_tail_withdrawal(self):
        # Withdraw the newest deferred entry (the tail pop), then an
        # older one (the backward scan) with a younger entry behind it,
        # and schedule the older one again.
        def dispatch(env_cls):
            env = env_cls()
            log = []
            events = []
            for i in range(4):
                ev = env.event()
                ev._value = i
                ev.add_callback(lambda e: log.append((env.now, e.value)))
                env._schedule(ev)
                events.append(ev)
            env.timeout(1.0, "t").add_callback(
                lambda e: log.append((env.now, e.value)))
            env._withdraw(events[3])
            env._withdraw(events[1])
            env._schedule(events[1])
            env.run()
            return log

        fast = dispatch(Environment)
        assert fast == [(0.0, 0), (0.0, 2), (0.0, 1), (1.0, "t")]
        assert fast == dispatch(HeapEnvironment)


# -- whole runs on the reference kernel ---------------------------------------

@pytest.fixture
def heap_kernel(monkeypatch):
    monkeypatch.setattr(repro.core.runner, "Environment", HeapEnvironment)
    monkeypatch.setattr(repro.serve.service, "Environment", HeapEnvironment)


# Digests and counts barely notice a reordering of same-instant events;
# the trace record stream is where one shows.

def _fig8():
    tracer = Tracer()
    wl = Workload(bootstraps=2, tasks_per_bootstrap=60, seed=0)
    r = run_experiment(mgps(), wl, seed=0, tracer=tracer)
    return (r.bootstrap_digests, r.result_digest, r.makespan,
            r.events_processed, tracer.records)


def _serve_small():
    tracer = Tracer()
    cfg = ServeConfig(tenants=default_tenants(arrival_rate=0.05),
                      duration_s=1800.0, seed=0)
    r = run_service(cfg, tracer=tracer)
    return (r.digest_map(), r.makespan, r.events_processed,
            r.compilations, tracer.records)


@pytest.mark.parametrize("scenario", [_fig8, _serve_small],
                         ids=["fig8", "serve_small"])
def test_whole_run_matches_on_reference_kernel(scenario, request):
    fast = scenario()
    request.getfixturevalue("heap_kernel")
    slow = scenario()
    assert slow == fast
    assert fast[0]
