"""The PPE: a dual-thread SMT core with an OS run queue.

This is the mechanism underneath both schedulers in the paper:

* the **Linux baseline** — software threads that *spin* on off-load
  completion hold their hardware context until the 10 ms quantum expires,
  so at most ``n_contexts`` off-loads are in flight (Table 1's stairs);
* **EDTLP** — threads voluntarily yield at off-load points, so the run
  queue drains in ~10 us bursts and all SPEs stay fed.

The model is a work-conserving multi-context processor:

* up to ``n_contexts`` software threads run simultaneously; a thread's
  speed degrades with the *contention weight* of its SMT siblings —
  computing siblings weigh 1.0, spinning siblings ``spin_contention``
  (a mailbox-polling loop barely touches the pipeline);
* a thread placed on a context whose previous occupant differs pays the
  context-switch cost before making progress;
* round-robin preemption at quantum expiry whenever other threads wait;
* threads may carry a hard *affinity* to one context, modeling the
  per-CPU run queues of Linux 2.6 (migration between SMT siblings was
  rare at sub-second timescales, which is what produces the paper's
  ceil(w/2) stair pattern in Table 1);
* a completing thread *lingers* on its context for zero simulated time so
  a back-to-back follow-up request (same timestamp) continues in place —
  this lets a Linux-mode thread alternate compute and spin segments
  without being bounced through the run queue.

The core schedules a timer or a linger expiry only when it can act.  A
wake that completed a thread arms no timer: the thread's resubmit or
its linger expiry wakes the core again at the same instant, before that
timer could fire, so it would always be stale.  A lingering thread that
resubmits positive work cannot complete (and linger) again at this
instant, so its pending linger would expire into a no-op: the core
takes it back off the calendar.

Threads interact through :class:`CoreThread`:

* ``run(work)`` — compute ``work`` seconds of full-speed work;
* ``spin_until(event)`` — busy-wait; completes once the event has fired
  *and* the thread is on a context (spinners notice completion only while
  scheduled, exactly the Linux pathology the paper exploits).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from ..sim.engine import Environment
from ..sim.events import Event, URGENT
from ..validation import require_finite

__all__ = ["SMTCore", "CoreThread"]

_EPS = 1e-12
_INF = float("inf")

# CoreThread.state values
_IDLE = "idle"
_READY = "ready"
_RUNNING = "running"
_LINGER = "linger"

# request kinds
_WORK = "work"
_SPIN = "spin"


class CoreThread:
    """A software thread's handle onto an :class:`SMTCore`."""

    __slots__ = (
        "core",
        "name",
        "state",
        "kind",
        "remaining",
        "done_event",
        "spin_fired",
        "spin_target",
        "quantum_left",
        "penalty_left",
        "slot",
        "affinity",
        "work_done",
        "linger",
    )

    def __init__(self, core: "SMTCore", name: str,
                 affinity: Optional[int] = None) -> None:
        if affinity is not None and not (0 <= affinity < core.n_contexts):
            raise ValueError(f"affinity {affinity} out of range")
        self.core = core
        self.name = name
        self.state = _IDLE
        self.kind: Optional[str] = None
        self.remaining = 0.0
        self.done_event: Optional[Event] = None
        self.spin_fired = False
        self.spin_target: Optional[Event] = None
        self.quantum_left = 0.0
        self.penalty_left = 0.0
        self.slot: Optional[int] = None
        self.affinity = affinity
        self.work_done = 0.0  # lifetime full-speed work completed
        # The reusable linger expiry (see ``SMTCore._complete``); its
        # ``_cb0`` is set exactly while it waits on the calendar.
        self.linger = Event(core.env)
        self.linger._value = self

    def run(self, work: float) -> Event:
        """Request ``work`` seconds of computation; returns a done event."""
        return self.core._submit(self, _WORK, work, None)

    def spin_until(self, event: Event) -> Event:
        """Busy-wait on ``event``; returns a done event.

        The spin occupies a hardware context (lightly contending with the
        sibling SMT thread) and completes only when the thread is
        scheduled *and* the target has fired.
        """
        return self.core._submit(self, _SPIN, 0.0, event)

    def _spin_notice(self, ev: Event) -> None:
        # Guard: the thread may have moved on to a different request.
        if self.spin_target is ev:
            self.spin_fired = True
            self.core._wake()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CoreThread {self.name} {self.state}>"


class SMTCore:
    """A multi-context SMT processor core with an OS-style run queue."""

    def __init__(
        self,
        env: Environment,
        n_contexts: int = 2,
        smt_efficiency: float = 0.62,
        spin_contention: float = 0.2,
        quantum: float = 10e-3,
        switch_cost: float = 1.5e-6,
        name: str = "ppe",
    ) -> None:
        if n_contexts < 1:
            raise ValueError("n_contexts must be >= 1")
        if not (0.0 < smt_efficiency <= 1.0):
            raise ValueError("smt_efficiency must be in (0, 1]")
        if not (0.0 <= spin_contention <= 1.0):
            raise ValueError("spin_contention must be in [0, 1]")
        require_finite("quantum", quantum, positive=True)
        require_finite("switch_cost", switch_cost)
        self.env = env
        self.name = name
        self.n_contexts = n_contexts
        self.smt_efficiency = smt_efficiency
        self.spin_contention = spin_contention
        self.quantum = quantum
        self.switch_cost = switch_cost
        # Speed of a computing thread next to its one sibling, keyed by
        # the sibling's request kind (a lingering sibling weighs like a
        # spinning one).  Built with ``_speed`` itself, so these are the
        # very floats the accumulated-weight loop yields for one sibling.
        spin_speed = self._speed(spin_contention)
        self._sibling_speed = {
            _WORK: self._speed(1.0),
            _SPIN: spin_speed,
            None: spin_speed,
        }

        self._ready: Deque[CoreThread] = deque()
        self._ready_aff: List[Deque[CoreThread]] = [
            deque() for _ in range(n_contexts)
        ]
        self._running: List[CoreThread] = []
        self._slot_last: List[Optional[CoreThread]] = [None] * n_contexts
        self._slot_free: List[int] = list(range(n_contexts - 1, -1, -1))
        # Threads waiting in ``_ready`` and ``_ready_aff`` together; only
        # ``_enqueue`` and the fill loop in ``_wake`` change the queues.
        self._n_queued = 0
        self._last_ts = env.now
        self._version = 0
        # Timer and linger callbacks, bound once for the per-wake timeouts.
        self._timer_cb = self._on_timer
        self._linger_cb = self._on_linger_expire
        # Accounting (for utilization metrics).
        self.busy_context_seconds = 0.0
        self.switches = 0

    # -- public introspection ---------------------------------------------
    def thread(self, name: str, affinity: Optional[int] = None) -> CoreThread:
        """Create a new software-thread handle.

        ``affinity`` pins the thread to one hardware context (Linux 2.6
        per-CPU run-queue behaviour); None lets it run anywhere.
        """
        return CoreThread(self, name, affinity)

    def occupancy(self, window: float) -> float:
        """Mean fraction of contexts busy over ``window`` seconds."""
        if window <= 0:
            return 0.0
        self._advance()
        return self.busy_context_seconds / (window * self.n_contexts)

    # -- request submission -------------------------------------------------
    def _submit(self, thread: CoreThread, kind: str, work: float,
                target: Optional[Event]) -> Event:
        """Queue ``thread``'s request and wake the core.

        Only ``CoreThread.run`` and ``spin_until`` call this, on the
        thread's own core, so ownership needs no check.  Time is
        accounted before the request changes the thread, and only when
        the clock has moved since the last account: at an unchanged
        clock ``_advance`` would find ``dt == 0`` and only re-store
        ``_last_ts``, so skipping it is exact.  The closing ``_wake``
        then finds the clock accounted and skips it as well.
        """
        # Validate everything before touching the thread or the clock: a
        # rejected request must leave the thread exactly as it was.
        if thread.state not in (_IDLE, _LINGER):
            raise RuntimeError(
                f"thread {thread.name!r} submitted a request while {thread.state}"
            )
        if kind == _WORK:
            # ``not <=`` also rejects NaN; infinite work never completes.
            if not 0.0 <= work < _INF:
                raise ValueError(f"work must be finite and >= 0, got {work!r}")
        elif target is None:
            raise ValueError("spin requires a target event")

        env = self.env
        if env.now != self._last_ts:
            self._advance()
        done = Event(env)
        thread.kind = kind
        thread.remaining = work
        thread.done_event = done
        thread.spin_fired = False
        thread.spin_target = target
        if thread.state == _LINGER:
            # Continue on the same context: no switch cost, quantum keeps
            # ticking.  This is the back-to-back fast path.
            thread.state = _RUNNING
            if work > _EPS:
                # Positive work cannot complete at this instant, so the
                # thread cannot linger again before its pending linger
                # fires: that expiry would be a no-op.  Take it back.  A
                # spin or zero-work request could complete right away and
                # make it live, so those keep it.
                linger = thread.linger
                if linger._cb0 is not None:
                    linger._cb0 = None
                    env._withdraw(linger)
        else:
            thread.state = _READY
            self._enqueue(thread)
        if kind == _SPIN:
            # Registered only once the thread is queued or running: a
            # target that has already fired runs the notice (and its
            # wake) right here.  The callback receives the fired event
            # itself, so the bound method can re-check it against
            # ``spin_target`` without a closure allocation per spin.
            target.add_callback(thread._spin_notice)
        self._wake()
        return done

    def _enqueue(self, thread: CoreThread) -> None:
        self._n_queued += 1
        if thread.affinity is None:
            self._ready.append(thread)
        else:
            self._ready_aff[thread.affinity].append(thread)

    # -- engine ---------------------------------------------------------------
    def _speed(self, w: float) -> float:
        """Speed of a working thread whose SMT siblings weigh ``w``.

        Contention weight of siblings: 1.0 per computing thread,
        ``spin_contention`` per spinning (or lingering) thread.  Speed
        interpolates from 1.0 (alone) down to ``smt_efficiency`` (one
        fully-computing sibling); with more than one sibling (>2
        contexts) the weights accumulate.
        """
        if w <= 0.0:
            return 1.0
        return 1.0 / (1.0 + (1.0 / self.smt_efficiency - 1.0) * w)

    def _thread_speed(self, thread: CoreThread) -> float:
        """Speed of ``thread`` when more than two threads run.

        With at most two running the hot paths read ``_sibling_speed``
        instead; this accumulated-weight loop serves wider cores.
        """
        w = 0.0
        for other in self._running:
            if other is thread:
                continue
            w += 1.0 if other.kind == _WORK else self.spin_contention
        return self._speed(w)

    def _advance(self) -> None:
        """Account elapsed time onto running threads."""
        now = self.env.now
        dt = now - self._last_ts
        self._last_ts = now
        running = self._running
        if dt <= 0 or not running:
            return
        n = len(running)
        self.busy_context_seconds += dt * n
        if n == 2:
            a, b = running
            sibling = self._sibling_speed
        for t in running:
            pen = t.penalty_left
            if dt < pen:
                pen = dt
            t.penalty_left -= pen
            eff = dt - pen
            if t.kind == _WORK and eff > 0:
                if n == 1:
                    speed = 1.0
                elif n == 2:
                    speed = sibling[(b if t is a else a).kind]
                else:
                    speed = self._thread_speed(t)
                progress = eff * speed
                t.remaining -= progress
                t.work_done += progress
            t.quantum_left -= dt

    def _complete(self, thread: CoreThread) -> None:
        """Finish the thread's current request; it lingers on its slot.

        The done event is triggered without ``Event.succeed``'s checks:
        it is the fresh event ``_submit`` made for this request, which
        nothing else triggers, and its ``_ok`` is already True.  It is
        still scheduled through ``env._schedule``, so a kernel that
        overrides the calendar sees it like any other event.
        """
        done = thread.done_event
        thread.done_event = None
        thread.kind = None
        thread.spin_target = None
        thread.state = _LINGER
        # Linger expires after every same-timestamp callback has run: a
        # NORMAL zero-delay expiry sorts after the URGENT completion.
        # The thread's own reusable event carries it; only when that one
        # is still pending (a second completion at this instant) does a
        # pooled timeout stand in.
        env = self.env
        linger = thread.linger
        if linger._cb0 is None:
            linger._cb0 = self._linger_cb
            linger._scheduled = False
            env._schedule(linger)
        else:
            env.timeout(0.0, thread)._cb0 = self._linger_cb
        done._value = None
        env._schedule(done, URGENT)

    def _on_linger_expire(self, ev: Event) -> None:
        thread = ev._value
        if thread.state == _LINGER:
            self._release_slot(thread)
            thread.state = _IDLE
            self._wake()

    def _release_slot(self, thread: CoreThread) -> None:
        self._running.remove(thread)
        slot = thread.slot
        thread.slot = None
        self._slot_last[slot] = thread
        self._slot_free.append(slot)

    def _wake(self) -> None:
        """Re-evaluate state after any change and re-arm the timer.

        One pass per wake: account elapsed time, reap completions, then
        (only while threads wait) preempt expired quanta and fill free
        contexts, and finally, unless a thread completed, arm a timer
        for the soonest state change.

        Time is accounted only when the clock has moved since the last
        account: at an unchanged clock ``_advance`` would only re-store
        ``_last_ts``, so skipping it is exact.  ``_n_queued`` stands in
        for ``bool(_ready) or any(_ready_aff)``: ``_enqueue`` counts every
        thread into a queue and the fill loop counts every thread out,
        and nothing else touches the queues, so the count is zero exactly
        when every queue is empty.
        """
        self._version += 1
        if self.env.now != self._last_ts:
            self._advance()
        running = self._running

        # Reap completions.  ``_complete`` leaves the thread lingering on
        # its slot (no ``_running`` mutation), so collect first and the
        # common nothing-completed scan allocates no copy.
        completed = None
        for t in running:
            if t.penalty_left > _EPS:
                continue
            if (t.kind == _WORK and t.remaining <= _EPS) or (
                t.kind == _SPIN and t.spin_fired
            ):
                if completed is None:
                    completed = [t]
                else:
                    completed.append(t)
        if completed is not None:
            for t in completed:
                self._complete(t)

        # Quantum preemption and context fill both matter only while a
        # ready thread is waiting for a slot.  A thread on ``slot`` has a
        # successor when ``ready_aff[slot] or ready`` is non-empty.
        ready = self._ready
        ready_aff = self._ready_aff
        waiting = self._n_queued
        if waiting:
            preempted = None
            for t in running:
                if (
                    t.state == _RUNNING
                    and t.quantum_left <= _EPS
                    and (ready_aff[t.slot] or ready)
                ):
                    if preempted is None:
                        preempted = [t]
                    else:
                        preempted.append(t)
            if preempted is not None:
                for t in preempted:
                    self._release_slot(t)
                    t.state = _READY
                    self._enqueue(t)

            # Fill free contexts in free-list order: each takes the head
            # of its affinity queue, else the head of the shared queue.
            # Filling only drains the queues, so one pass leaves nothing
            # a second pass could place, and the pass ends early once the
            # queues are empty.  Preemption may have queued more threads.
            slot_free = self._slot_free
            slot_last = self._slot_last
            waiting = self._n_queued
            i, n_free = 0, len(slot_free)
            while i < n_free and waiting:
                slot = slot_free[i]
                if ready_aff[slot]:
                    t = ready_aff[slot].popleft()
                elif ready:
                    t = ready.popleft()
                else:
                    i += 1
                    continue
                del slot_free[i]
                n_free -= 1
                waiting -= 1
                t.slot = slot
                t.state = _RUNNING
                last = slot_last[slot]
                if last is not t and last is not None:
                    t.penalty_left = self.switch_cost
                    self.switches += 1
                else:
                    t.penalty_left = 0.0
                t.quantum_left = self.quantum
                slot_last[slot] = t
                running.append(t)
            self._n_queued = waiting

        # A wake that completed a thread arms nothing: before any timer
        # it armed could fire, the completed thread's linger expiry or
        # its resubmit (both at this instant, and a zero-horizon timer
        # would sort behind the linger) wakes the core again and bumps
        # ``_version``, so that timer would always be stale.
        if completed is not None:
            return

        # Arm the timer at the soonest state change: a work completion, a
        # noticed spin target, or (while a successor waits) quantum expiry.
        n = len(running)
        if not n:
            return
        if n == 2:
            a, b = running
            sibling = self._sibling_speed
        horizon = _INF
        for t in running:
            kind = t.kind
            if kind == _WORK:
                if n == 1:
                    speed = 1.0
                elif n == 2:
                    speed = sibling[(b if t is a else a).kind]
                else:
                    speed = self._thread_speed(t)
                h = t.penalty_left + t.remaining / speed
                if h < horizon:
                    horizon = h
            elif kind == _SPIN and t.spin_fired:
                h = t.penalty_left
                if h < horizon:
                    horizon = h
            if waiting and (ready_aff[t.slot] or ready):
                h = t.quantum_left
                if h < 0.0:
                    h = 0.0
                if h < horizon:
                    horizon = h
        if horizon == _INF:
            return
        if horizon < 0.0:
            horizon = 0.0
        # The timer carries its arming version; one superseded by a wake
        # in another cascade fires into a no-op.  Carrying it as the
        # timeout value (instead of a closure) keeps the timer
        # pool-recyclable.
        self.env.timeout(horizon, self._version)._cb0 = self._timer_cb

    def _on_timer(self, ev: Event) -> None:
        if ev._value == self._version:
            self._wake()
