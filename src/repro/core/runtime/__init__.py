"""The layered off-load runtime: engine / policy / loop schedules.

Three separable concerns, three layers:

* :mod:`~repro.core.runtime.engine` — :class:`OffloadEngine`, the
  mechanics every scheduler shares (SPE acquisition, DMA timing, the
  granularity test, and the single fault-tolerant off-load path);
* :mod:`~repro.core.runtime.policy` /
  :mod:`~repro.core.runtime.policies` — the
  :class:`SchedulingPolicy` protocol, its string-keyed registry, and the
  paper's four schedulers as thin policy objects;
* loop schedules live one layer down in :mod:`repro.core.llp`
  (``LLPConfig.schedule`` selects static / dynamic / guided / adaptive).
"""

from .context import ProcContext, RuntimeStats
from .engine import OffloadEngine
from .policies import (
    EDTLPPolicy,
    LinuxPolicy,
    MGPSPolicy,
    StaticHybridPolicy,
)
from .policy import (
    PolicyInfo,
    SchedulingPolicy,
    available_policies,
    register_policy,
    resolve_policy,
)

__all__ = [
    "OffloadEngine",
    "SchedulingPolicy",
    "PolicyInfo",
    "register_policy",
    "resolve_policy",
    "available_policies",
    "LinuxPolicy",
    "EDTLPPolicy",
    "StaticHybridPolicy",
    "MGPSPolicy",
    # shared context
    "ProcContext",
    "RuntimeStats",
]
