"""Fleet resilience: blade health, circuit breakers, hedged dispatch.

The paper's MGPS insight — re-baseline scheduling on *observed* rather
than assumed capacity — applied one level up, across blades instead of
SPEs.  Three mechanisms, all default-off so a plain serving run is
byte-identical with or without this module loaded:

* **Blade health** (:class:`BladeHealth`): an EWMA of each blade's
  observed/expected unit-duration ratio.  The simulator is
  deterministic, so a healthy blade's ratio is exactly 1.0 and any
  sustained excursion is a real straggler, not noise.
* **Circuit breaker** (three states per blade): ``closed`` (normal
  dispatch) → ``open`` (EWMA over ``open_ratio`` or a crash: the blade
  leaves every dispatch-policy candidate set) → ``half-open`` after
  ``cooldown_s`` (exactly one probe unit is dispatched; a healthy probe
  closes the breaker, a slow or dead one re-opens it).  A flapped blade
  rejoins in ``half-open`` — probation, not trust.
* **Hedged dispatch**: when a unit's in-flight time exceeds a
  percentile-based straggler threshold (observed-ratio p95 ×
  ``hedge_ratio`` × the unit's nominal duration), the service clones it
  to a healthy blade.  First completion wins per job and the loser is
  cancelled; results are deduplicated by content digest (the job's
  compiled digest is blade-independent), so ``digest_map`` stays
  bit-identical to the fault-free run.

The service owns the processes; this module owns the state machine and
the arithmetic, and records every breaker transition as
``(time, blade, from, to, reason)`` for tests, chaos invariants and the
HTML report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from .slo import exact_percentile

__all__ = [
    "ResilienceConfig",
    "BladeHealth",
    "FleetResilience",
    "BREAKER_STATES",
    "LEGAL_BREAKER_TRANSITIONS",
    "count_breaker_cycles",
    "transitions_legal",
]

BREAKER_STATES = ("closed", "open", "half-open")

# Every legal edge of the breaker state machine.  Chaos invariants check
# recorded transition logs against this set.
LEGAL_BREAKER_TRANSITIONS = frozenset({
    ("closed", "open"),        # EWMA over threshold, or crash
    ("closed", "half-open"),   # flapped blade rejoins on probation
    ("open", "half-open"),     # cooldown elapsed, probe allowed
    ("half-open", "closed"),   # probe came back healthy
    ("half-open", "open"),     # probe slow or blade died again
})


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs for the fleet resilience layer (times in simulated seconds).

    Everything defaults *off*: a ``ServeConfig`` without explicit
    resilience settings runs the exact historical serving loop.
    """

    hedging: bool = False
    # Hedge when in-flight time exceeds
    # p95(observed ratios) * hedge_ratio * nominal unit duration.
    hedge_ratio: float = 1.5
    breaker: bool = False
    ewma_alpha: float = 0.5       # weight of the newest ratio sample
    open_ratio: float = 1.4       # EWMA above this opens the breaker
    open_after: int = 2           # samples needed before opening on ratio
    failure_threshold: int = 1    # consecutive crashes that open it
    cooldown_s: float = 120.0     # open -> half-open delay
    probe_ok_ratio: float = 1.2   # probe at or under this closes it
    enforce_deadlines: bool = False

    def __post_init__(self) -> None:
        if self.hedge_ratio <= 1.0:
            raise ValueError("hedge_ratio must be > 1.0")
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.open_ratio <= 1.0:
            raise ValueError("open_ratio must be > 1.0")
        if self.open_after < 1:
            raise ValueError("open_after must be >= 1")
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        if self.probe_ok_ratio < 1.0:
            raise ValueError("probe_ok_ratio must be >= 1.0")

    @property
    def enabled(self) -> bool:
        return self.hedging or self.breaker or self.enforce_deadlines

    def with_(self, **kwargs: Any) -> "ResilienceConfig":
        return replace(self, **kwargs)


def count_breaker_cycles(
    transitions: Any,
) -> int:
    """Completed open → half-open → closed recoveries across all blades.

    Works on any transition log shaped ``(time, blade, from, to, reason)``
    — live :class:`FleetResilience` state or a ``ServeResult``'s
    ``breaker_transitions`` tuple alike.
    """
    cycles = 0
    last: Dict[int, Tuple[str, str]] = {}
    for _t, blade, from_state, to_state, _r in transitions:
        prev = last.get(blade)
        if (to_state == "closed" and from_state == "half-open"
                and prev is not None and prev[1] == "half-open"
                and prev[0] == "open"):
            cycles += 1
        last[blade] = (from_state, to_state)
    return cycles


def transitions_legal(transitions: Any) -> bool:
    """True when every edge in the log is a legal breaker transition."""
    return all(
        (a, b) in LEGAL_BREAKER_TRANSITIONS
        for _t, _blade, a, b, _r in transitions
    )


class BladeHealth:
    """Per-blade health ledger: EWMA duration ratio + failure streak."""

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.ewma: Optional[float] = None
        self.samples = 0
        self.consecutive_failures = 0

    def observe(self, ratio: float) -> float:
        self.samples += 1
        self.consecutive_failures = 0
        if self.ewma is None:
            self.ewma = ratio
        else:
            self.ewma = self.alpha * ratio + (1.0 - self.alpha) * self.ewma
        return self.ewma

    def fail(self) -> int:
        self.consecutive_failures += 1
        return self.consecutive_failures

    def reset(self) -> None:
        """Fresh slate after a rejoin: old samples describe the old life."""
        self.ewma = None
        self.samples = 0
        self.consecutive_failures = 0


class FleetResilience:
    """Breaker state machine + hedge thresholds for one serving run.

    Pure bookkeeping: the service calls in at dispatch, completion,
    cancellation, crash and rejoin; this class answers "may blade i
    receive work right now?" and "when should this unit be hedged?".
    """

    def __init__(self, env, config: ResilienceConfig, n_blades: int,
                 stats=None, tracer=None) -> None:
        self.env = env
        self.config = config
        self.stats = stats
        self.tracer = tracer
        self.health = {
            i: BladeHealth(config.ewma_alpha) for i in range(n_blades)
        }
        self.state: Dict[int, str] = {i: "closed" for i in range(n_blades)}
        self.opened_at: Dict[int, float] = {}
        self.probe_inflight: Dict[int, bool] = {
            i: False for i in range(n_blades)
        }
        # (time, blade, from_state, to_state, reason)
        self.transitions: List[Tuple[float, int, str, str, str]] = []
        # Observed/expected ratios across all completed units — the
        # population the percentile-based hedge threshold is drawn from.
        self._ratios: List[float] = []
        self.hedges = 0
        self.hedge_wins = 0

    # -- breaker state machine --------------------------------------------
    def _transition(self, blade: int, to_state: str, reason: str) -> None:
        from_state = self.state[blade]
        if from_state == to_state:
            return
        assert (from_state, to_state) in LEGAL_BREAKER_TRANSITIONS, (
            f"illegal breaker transition {from_state} -> {to_state}"
        )
        self.state[blade] = to_state
        self.transitions.append(
            (self.env.now, blade, from_state, to_state, reason)
        )
        if to_state == "open":
            self.opened_at[blade] = self.env.now
            self.probe_inflight[blade] = False
        if to_state != "half-open":
            self.probe_inflight[blade] = False
        if self.stats is not None:
            self.stats.note_breaker(from_state, to_state)
        if self.tracer is not None:
            self.tracer.emit(
                self.env.now, "serve", f"blade{blade}", "breaker",
                state=to_state, was=from_state, reason=reason,
            )

    def admits(self, blade: int) -> bool:
        """May this blade receive a unit right now?

        Lazily promotes ``open`` to ``half-open`` once the cooldown has
        elapsed; a ``half-open`` blade admits exactly one probe unit.
        """
        if not self.config.breaker:
            return True
        state = self.state[blade]
        if state == "open":
            if (self.env.now - self.opened_at.get(blade, 0.0)
                    >= self.config.cooldown_s):
                self._transition(blade, "half-open", "cooldown")
                state = "half-open"
            else:
                return False
        if state == "half-open":
            return not self.probe_inflight[blade]
        return True

    def is_probe_dispatch(self, blade: int) -> bool:
        """True when the next unit placed on ``blade`` is the probe."""
        return self.config.breaker and self.state[blade] == "half-open"

    def note_probe_dispatched(self, blade: int) -> None:
        self.probe_inflight[blade] = True
        if self.stats is not None:
            self.stats.note_probe()

    # -- health feed -------------------------------------------------------
    def note_unit_done(self, blade: int, ratio: float,
                       probe: bool = False) -> None:
        """A unit finished on ``blade`` at ``ratio`` = observed/expected."""
        self._ratios.append(ratio)
        health = self.health[blade]
        ewma = health.observe(ratio)
        if not self.config.breaker:
            return
        if probe or (self.state[blade] == "half-open"
                     and self.probe_inflight[blade]):
            self.probe_inflight[blade] = False
            if ratio <= self.config.probe_ok_ratio:
                health.reset()
                self._transition(blade, "closed", "probe-healthy")
            else:
                self._transition(blade, "open", "probe-slow")
            return
        if (self.state[blade] == "closed"
                and health.samples >= self.config.open_after
                and ewma is not None and ewma > self.config.open_ratio):
            self._transition(blade, "open", f"ewma-ratio {ewma:.2f}")

    def note_unit_cancelled(self, blade: int, ratio_floor: float,
                            probe: bool = False) -> None:
        """A hedge loser was cancelled after ``ratio_floor`` × expected.

        The elapsed-time ratio at cancellation is a lower bound on what
        the unit would have cost, and it already exceeds the hedge
        threshold — feed it so stragglers whose work is always rescued
        by hedges still trip the breaker.
        """
        self.note_unit_done(blade, ratio_floor, probe=probe)

    def note_failure(self, blade: int) -> None:
        """Blade crashed mid-unit (kill or flap)."""
        streak = self.health[blade].fail()
        if not self.config.breaker:
            return
        if self.state[blade] == "half-open":
            self._transition(blade, "open", "probe-died")
        elif (self.state[blade] == "closed"
                and streak >= self.config.failure_threshold):
            self._transition(blade, "open", f"{streak} crash(es)")

    def note_rejoin(self, blade: int) -> None:
        """A flapped blade came back: probation, not trust."""
        self.health[blade].reset()
        if not self.config.breaker:
            return
        if self.state[blade] == "open":
            self._transition(blade, "half-open", "rejoin")
        elif self.state[blade] == "closed":
            self._transition(blade, "half-open", "rejoin")

    # -- hedging -----------------------------------------------------------
    def hedge_threshold_s(self, expected_s: float) -> float:
        """In-flight time past which ``expected_s`` of work is a straggler.

        Percentile-based: p95 of every observed duration ratio so far
        (1.0 until the first unit completes — the simulator's healthy
        baseline) times ``hedge_ratio`` times the nominal duration.
        """
        p95 = exact_percentile(self._ratios, 95) if self._ratios else 1.0
        return max(p95, 1.0) * self.config.hedge_ratio * expected_s

    def note_hedge(self) -> None:
        self.hedges += 1
        if self.stats is not None:
            self.stats.note_hedge()

    def note_hedge_win(self) -> None:
        self.hedge_wins += 1
        if self.stats is not None:
            self.stats.note_hedge_win()

    # -- reporting ---------------------------------------------------------
    def breaker_cycles(self) -> int:
        """Completed open → half-open → closed recoveries, all blades."""
        return count_breaker_cycles(self.transitions)

    def transitions_legal(self) -> bool:
        return transitions_legal(self.transitions)
