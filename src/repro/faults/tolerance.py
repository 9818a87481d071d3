"""Fault-tolerance policy: how the runtime responds to injected faults.

The policy is pure configuration; the mechanisms (retry loop, watchdog,
blacklist, PPE fallback, LLP mid-loop recovery) live in
:mod:`repro.core.runtime` and consult one :class:`TolerancePolicy`.

* **Retry with capped exponential backoff** — a failed off-load attempt
  (transient dispatch loss, exhausted DMA retries, SPE death, watchdog
  timeout) is retried after ``backoff(attempt)`` *simulated* seconds,
  doubling per attempt up to ``backoff_cap``.
* **Per-off-load watchdog** — each attempt gets a deadline of
  ``timeout_floor + timeout_factor x`` the task's expected SPE time;
  when it expires the dispatching process abandons the attempt (the SPE
  finishes and is reclaimed in the background) and retries or falls
  back.
* **PPE fallback** — after ``max_attempts`` failed attempts, or when no
  live SPE remains, the task executes its PPE version.  The application
  result is identical either way; only the timeline changes.
* **Blacklist** — an SPE that fails ``blacklist_after`` consecutive
  attempts is retired from the pool; schedulers (MGPS in particular)
  recompute their policy inputs from the surviving SPE set.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TolerancePolicy"]

US = 1e-6


@dataclass(frozen=True)
class TolerancePolicy:
    """Tunable constants of fault-tolerant off-loading."""

    max_attempts: int = 3          # SPE attempts before PPE fallback
    backoff_base: float = 20 * US  # first retry delay (simulated seconds)
    backoff_factor: float = 2.0
    backoff_cap: float = 5e-3
    timeout_factor: float = 8.0    # watchdog = floor + factor * expected
    timeout_floor: float = 500 * US
    blacklist_after: int = 3       # consecutive failures that retire an SPE
    max_dma_retries: int = 3       # absorbed DMA errors per transfer

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.timeout_factor <= 0 or self.timeout_floor < 0:
            raise ValueError("watchdog timeout must be positive")
        if self.blacklist_after < 1:
            raise ValueError("blacklist_after must be >= 1")
        if self.max_dma_retries < 0:
            raise ValueError("max_dma_retries must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Simulated delay before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_factor ** attempt)

    def attempt_deadline(self, expected: float) -> float:
        """Watchdog deadline for one attempt of an ``expected``-long task."""
        return self.timeout_floor + self.timeout_factor * max(0.0, expected)
