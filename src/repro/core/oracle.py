"""Oracle scheduler selection.

Section 5.4 compares MGPS against "the static hybrid (EDTLP-LLP)
scheduler, which uses an oracle for the future to guide decisions
between EDTLP and EDTLP-LLP" — i.e. the best static scheme chosen with
perfect knowledge of the workload.  :class:`OracleSelector` implements
that oracle by exhaustively evaluating candidate schedulers on the given
workload; MGPS's figure of merit is how close it gets *without* the
oracle (see ``tests/test_paper_claims.py`` and the Figure 8 bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..cell.params import BladeParams, DEFAULT_BLADE
from ..workloads.traces import Workload
from .results import ScheduleResult
from .runner import run_experiment
from .schedulers import SchedulerSpec

__all__ = ["OracleChoice", "OracleSelector"]


@dataclass(frozen=True)
class OracleChoice:
    """The oracle's verdict for one workload."""

    best: ScheduleResult
    all_results: Tuple[ScheduleResult, ...]

    @property
    def best_name(self) -> str:
        return self.best.scheduler


class OracleSelector:
    """Chooses the best static scheduler by trying all of them."""

    def __init__(
        self,
        candidates: Sequence[SchedulerSpec],
        blade: BladeParams = DEFAULT_BLADE,
        seed: int = 0,
    ) -> None:
        self.blade = blade
        self.seed = seed
        self.candidates = list(candidates)
        if not self.candidates:
            raise ValueError("oracle needs at least one candidate")

    def choose(self, workload: Workload) -> OracleChoice:
        """Run every candidate on ``workload`` and return the verdict."""
        results = tuple(
            run_experiment(spec, workload, blade=self.blade, seed=self.seed)
            for spec in self.candidates
        )
        best = min(results, key=lambda r: r.makespan)
        return OracleChoice(best=best, all_results=results)
