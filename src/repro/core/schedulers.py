"""Scheduler specifications: the policies an experiment can select.

A :class:`SchedulerSpec` is a declarative description; the runner turns it
into a concrete runtime bound to a machine.  ``kind`` is a key into the
scheduling-policy registry (see
:func:`~repro.core.runtime.register_policy`), so third-party policies are
selectable by name without touching this module.  Convenience
constructors mirror the paper's nomenclature:

* :func:`linux` — the Linux 2.6 baseline (Table 1, right column);
* :func:`edtlp` — event-driven task-level parallelism;
* :func:`static_hybrid` — EDTLP-LLP with a fixed loops-per-SPE degree;
* :func:`mgps` — the adaptive multigrain scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..cell.machine import CellMachine
from ..sim.engine import Environment
from .llp import LLPConfig
from .runtime import OffloadEngine, resolve_policy

__all__ = ["SchedulerSpec", "linux", "edtlp", "static_hybrid", "mgps"]


@dataclass(frozen=True)
class SchedulerSpec:
    """Declarative description of a scheduling policy.

    ``n_processes=None`` lets the runner choose the paper's defaults:
    one MPI process per SPE for task-parallel schemes, ``n_spes/degree``
    processes for the static hybrid, never more processes than
    bootstraps.
    """

    kind: str
    llp_degree: int = 1
    n_processes: Optional[int] = None
    granularity_enabled: bool = True
    optimized: bool = True
    offload_enabled: bool = True
    locality_aware: bool = False
    llp_config: Optional[LLPConfig] = None
    history_window: Optional[int] = None
    llp_u_threshold: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        resolve_policy(self.kind)  # unknown -> ValueError
        if self.llp_degree < 1:
            raise ValueError("llp_degree must be >= 1")
        if self.n_processes is not None and self.n_processes < 1:
            raise ValueError("n_processes must be >= 1")

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.kind == "static_hybrid":
            return f"edtlp-llp{self.llp_degree}"
        return self.kind

    def default_processes(self, total_spes: int, bootstraps: int) -> int:
        if self.n_processes is not None:
            return self.n_processes
        if self.kind == "static_hybrid":
            per_machine = max(1, total_spes // self.llp_degree)
        else:
            per_machine = total_spes
        return max(1, min(bootstraps, per_machine))

    def build(self, env: Environment, machine: CellMachine,
              faults=None, tolerance=None) -> OffloadEngine:
        """Instantiate the runtime for this spec on ``machine``.

        The registered policy factory receives this spec (so it can read
        ``llp_degree``, ``history_window``, ...) and the resulting policy
        steers one shared :class:`~repro.core.runtime.OffloadEngine`.

        Observability comes from the sinks attached to ``env`` (see
        :class:`~repro.sim.engine.Environment`).  ``faults`` is an
        installed :class:`~repro.faults.FaultInjector` (None = fault-free
        fast path); ``tolerance`` a
        :class:`~repro.faults.TolerancePolicy` override.
        """
        info = resolve_policy(self.kind)
        return OffloadEngine(
            env, machine,
            granularity_enabled=self.granularity_enabled,
            optimized=self.optimized,
            llp_config=self.llp_config,
            offload_enabled=self.offload_enabled,
            locality_aware=self.locality_aware,
            faults=faults,
            tolerance=tolerance,
            policy=info.factory(self),
        )

    def with_(self, **kwargs) -> "SchedulerSpec":
        return replace(self, **kwargs)


def linux(**kwargs) -> SchedulerSpec:
    """The OS-scheduler baseline: pinned SPEs, spin-wait off-loads."""
    return SchedulerSpec(kind="linux", **kwargs)


def edtlp(**kwargs) -> SchedulerSpec:
    """Event-driven task-level parallelism (Section 5.2)."""
    return SchedulerSpec(kind="edtlp", **kwargs)


def static_hybrid(degree: int, **kwargs) -> SchedulerSpec:
    """Static EDTLP-LLP with ``degree`` SPEs per parallel loop."""
    return SchedulerSpec(kind="static_hybrid", llp_degree=degree, **kwargs)


def mgps(**kwargs) -> SchedulerSpec:
    """Adaptive multigrain parallelism scheduling (Section 5.4)."""
    return SchedulerSpec(kind="mgps", **kwargs)
