"""Deterministic fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a *declarative, seeded* description of the
perturbations one run should suffer:

* **transient off-load failures** — an off-load dispatch to an SPE is
  lost with probability ``offload_fail_rate`` per attempt (mailbox
  write dropped, SPE signal missed);
* **DMA errors** — each MFC transfer errors with probability
  ``dma_error_rate`` and must be re-issued, paying
  ``dma_retry_penalty`` times the transfer again per error;
* **permanent SPE death** — :class:`SPEKill` removes an SPE from
  service at an absolute simulated time;
* **slow SPEs** — :class:`SlowSPE` multiplies an SPE's service time by
  ``factor`` with optional per-task lognormal ``jitter``.

Plans carry their own ``seed``; every random decision is drawn from a
named :class:`~repro.sim.rng.RngStreams` substream keyed by fault kind
and SPE, so the same plan against the same workload produces the exact
same fault sequence — fault injection is replayable, diffable and
bisectable, never flaky.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from typing import Any, Callable, Dict, Tuple

__all__ = ["SPEKill", "SlowSPE", "FaultPlan", "parse_entries"]


def parse_entries(kind: str, cls, converters: Dict[str, Callable[[Any], Any]],
                  entries) -> tuple:
    """Build ``cls`` instances from a JSON list of objects.

    ``converters`` maps each accepted key to the function that converts
    its value.  A non-list ``entries``, a non-object entry, an unknown or
    missing key, or a value its converter rejects raises
    :class:`ValueError` naming ``kind``; both fault-plan readers (this
    module's and :class:`repro.serve.fleet.FleetFaultPlan`'s) parse
    through here.
    """
    if not isinstance(entries, list):
        raise ValueError(f"{kind} entries must be a JSON list, "
                         f"got {entries!r}")
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    out = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValueError(f"expected a JSON object for a {kind}, "
                             f"got {entry!r}")
        bad = set(entry) - set(converters)
        if bad:
            raise ValueError(
                f"unknown {kind} key {sorted(bad)[0]!r}; "
                f"known keys: {', '.join(sorted(converters))}"
            )
        missing = [name for name in required if name not in entry]
        if missing:
            raise ValueError(f"{kind} {entry!r} is missing key "
                             f"{missing[0]!r}")
        kwargs = {}
        for name, conv in converters.items():
            if name in entry:
                try:
                    kwargs[name] = conv(entry[name])
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{kind} key {name!r}: {exc}") from None
        out.append(cls(**kwargs))
    return tuple(out)


@dataclass(frozen=True)
class SPEKill:
    """Permanent death of one SPE at an absolute simulated time."""

    spe: int      # flat index into CellMachine.spes
    time: float   # simulated seconds

    def __post_init__(self) -> None:
        if self.spe < 0:
            raise ValueError(f"spe index must be >= 0, got {self.spe}")
        if self.time < 0:
            raise ValueError(f"kill time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class SlowSPE:
    """Multiplicative service-time perturbation of one SPE."""

    spe: int
    factor: float       # mean slowdown (1.0 = nominal)
    jitter: float = 0.0  # sigma of per-task lognormal noise

    def __post_init__(self) -> None:
        if self.spe < 0:
            raise ValueError(f"spe index must be >= 0, got {self.spe}")
        if self.factor < 1.0:
            raise ValueError(f"slow factor must be >= 1.0, got {self.factor}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


@dataclass(frozen=True)
class FaultPlan:
    """One run's complete, deterministic fault schedule."""

    seed: int = 0
    offload_fail_rate: float = 0.0
    dma_error_rate: float = 0.0
    dma_retry_penalty: float = 1.0
    spe_kills: Tuple[SPEKill, ...] = ()
    slow_spes: Tuple[SlowSPE, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("offload_fail_rate", "dma_error_rate"):
            rate = getattr(self, name)
            if not (0.0 <= rate < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.dma_retry_penalty < 0:
            raise ValueError("dma_retry_penalty must be >= 0")
        # Normalize list inputs so plans hash/compare by value.
        object.__setattr__(self, "spe_kills", tuple(self.spe_kills))
        object.__setattr__(self, "slow_spes", tuple(self.slow_spes))
        seen = set()
        for k in self.spe_kills:
            if k.spe in seen:
                raise ValueError(f"duplicate kill for SPE {k.spe}")
            seen.add(k.spe)

    def with_(self, **kwargs: Any) -> "FaultPlan":
        return replace(self, **kwargs)

    # -- (de)serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        (plan,) = parse_entries("fault-plan", cls, {
            "seed": int,
            "offload_fail_rate": float,
            "dma_error_rate": float,
            "dma_retry_penalty": float,
            "spe_kills": lambda v: parse_entries(
                "spe kill", SPEKill, {"spe": int, "time": float}, v),
            "slow_spes": lambda v: parse_entries(
                "slow spe", SlowSPE,
                {"spe": int, "factor": float, "jitter": float}, v),
        }, [payload])
        return plan

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))
