"""Generator-based simulation processes.

A process wraps a Python generator.  Each value the generator *yields*
must be an :class:`~repro.sim.events.Event`; the process suspends until the
event is processed and then resumes with the event's value (or the event's
exception thrown into the generator).  A process is itself an event that
succeeds with the generator's return value, so processes can wait on each
other and be composed with :class:`~repro.sim.events.AllOf` /
:class:`~repro.sim.events.AnyOf`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event, Interrupt, URGENT

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment

__all__ = ["Process"]


class Process(Event):
    """An active entity driven by a generator.

    Parameters
    ----------
    env:
        Owning environment.
    generator:
        The generator to execute.  It may ``return`` a value, which becomes
        the process's event value.
    name:
        Optional label used in traces and error messages.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Bootstrap: resume the generator at the current simulation time.
        init = Event(env)
        init.succeed(None, priority=URGENT)
        init.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        The process must currently be waiting on an event; the interrupt is
        delivered immediately (at the current simulation time, urgently).
        Interrupting a finished process raises ``RuntimeError``.
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        if self._target is None:
            raise RuntimeError(
                f"cannot interrupt process {self.name!r} before it starts"
            )
        # Detach from the awaited event and deliver the interrupt.
        target, self._target = self._target, None
        if not target._processed:
            target.remove_callback(self._resume)
        deliver = Event(self.env)
        deliver.fail(Interrupt(cause), priority=URGENT)
        deliver.add_callback(self._deliver)

    def _deliver(self, interrupt: Event) -> None:
        """Throw the interrupt in at whatever the process awaits now.

        An interrupt issued while the awaited event is already running
        its callbacks cannot detach the process, which wakes with the
        value first and may yield again, or finish, before this runs.
        """
        if not self.is_alive:
            return
        target = self._target
        if target is not None and not target._processed:
            target.remove_callback(self._resume)
        self._resume(interrupt)

    # -- engine plumbing --------------------------------------------------
    def _resume(self, trigger: Event) -> None:
        """Advance the generator with the triggering event's outcome."""
        self.env._active_process = self
        self._target = None
        try:
            if trigger._ok:
                result = self._generator.send(trigger._value)
            else:
                result = self._generator.throw(trigger._value)
        except StopIteration as stop:
            self.env._active_process = None
            self.succeed(stop.value, priority=URGENT)
            return
        except BaseException as exc:
            self.env._active_process = None
            if self.env.strict:
                raise
            self.fail(exc, priority=URGENT)
            return
        self.env._active_process = None

        if not isinstance(result, Event):
            raise TypeError(
                f"process {self.name!r} yielded {result!r}, expected an Event"
            )
        if result.env is not self.env:
            raise ValueError("yielded event belongs to a different environment")
        self._target = result
        # ``add_callback`` inlined for the common single-waiter case.
        if result._cb0 is None and not result._processed:
            result._cb0 = self._resume
        else:
            result.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"
