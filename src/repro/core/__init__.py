"""The paper's contribution: EDTLP, LLP and MGPS scheduling on Cell."""

from .cluster import ClusterResult, run_cluster_experiment
from .granularity import GranularityGovernor, OffloadDecision
from .history import UtilizationHistory
from .llp import LLPConfig, LLPInvocation, LoopParallelModel, split_iterations
from .oracle import OracleChoice, OracleSelector
from .results import ScheduleResult
from .runner import run_bsp_experiment, run_experiment
from .runtime import ProcContext, RuntimeStats
from .schedulers import SchedulerSpec, edtlp, linux, mgps, static_hybrid

__all__ = [
    "SchedulerSpec",
    "linux",
    "edtlp",
    "static_hybrid",
    "mgps",
    "run_experiment",
    "run_bsp_experiment",
    "run_cluster_experiment",
    "ClusterResult",
    "ScheduleResult",
    "ProcContext",
    "RuntimeStats",
    "GranularityGovernor",
    "OffloadDecision",
    "UtilizationHistory",
    "LLPConfig",
    "LLPInvocation",
    "LoopParallelModel",
    "split_iterations",
    "OracleSelector",
    "OracleChoice",
]
