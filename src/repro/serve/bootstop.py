"""autoMRE-style bootstopping: stop the bootstrap fan-out early.

RAxML's autoMRE criterion keeps adding bootstrap replicates only while
they still move the majority-rule support values; once the split
frequencies stabilize, the remaining replicates carry no information
and can be cancelled.  :class:`BootstopMonitor` is the serving-layer
version of that rule: the workflow engine feeds it each completed
replicate tree (in completion order — deterministic per run) and it
answers "has the consensus converged?".

The rule, concretely: every ``check_every`` replicates past
``min_replicates``, compute :func:`~repro.phylo.consensus
.split_frequencies` over all replicates seen so far and compare with
the previous checkpoint.  When the largest absolute support change
stays at or below ``threshold`` for ``stable_checks`` consecutive
checkpoints, the monitor declares convergence and the engine cancels
every replicate that has not started running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..phylo.consensus import split_frequencies
from ..phylo.tree import Tree

__all__ = ["BootstopConfig", "BootstopMonitor"]

Split = FrozenSet[int]


@dataclass(frozen=True)
class BootstopConfig:
    """Parameters of the convergence rule.

    ``min_replicates`` is the smallest sample the rule may judge from;
    ``check_every`` spaces the checkpoints; ``threshold`` is the
    largest per-split support drift (absolute frequency change between
    checkpoints) still counted as stable; ``stable_checks`` is how many
    consecutive stable checkpoints convergence requires.
    """

    min_replicates: int = 20
    check_every: int = 5
    threshold: float = 0.05
    stable_checks: int = 2

    def __post_init__(self) -> None:
        if self.min_replicates < 2:
            raise ValueError("min_replicates must be >= 2")
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must be in (0, 1)")
        if self.stable_checks < 1:
            raise ValueError("stable_checks must be >= 1")

    def describe(self) -> str:
        return (f"min={self.min_replicates} every={self.check_every} "
                f"thr={self.threshold:g} stable={self.stable_checks}")


class BootstopMonitor:
    """Streaming convergence monitor over completed bootstrap replicates.

    Feed trees with :meth:`add`; it returns True exactly once, on the
    replicate that makes the support values convergent.  ``history``
    records ``(n_replicates, max_delta)`` per checkpoint (the first
    checkpoint has no predecessor and records ``inf``), so reports can
    show the convergence trajectory.
    """

    def __init__(self, config: Optional[BootstopConfig] = None) -> None:
        self.config = config if config is not None else BootstopConfig()
        self.trees: List[Tree] = []
        self.converged = False
        self.converged_at: Optional[int] = None
        self.history: List[Tuple[int, float]] = []
        self._prev: Optional[Dict[Split, float]] = None
        self._stable = 0

    def add(self, tree: Tree) -> bool:
        """Record one completed replicate; True iff convergence is new."""
        if self.converged:
            return False
        self.trees.append(tree)
        n = len(self.trees)
        c = self.config
        if n < c.min_replicates or (n - c.min_replicates) % c.check_every:
            return False
        freqs = split_frequencies(self.trees)
        if self._prev is None:
            # First checkpoint: nothing to diff against yet.
            self.history.append((n, float("inf")))
            self._prev = freqs
            return False
        keys = set(freqs) | set(self._prev)
        delta = max(
            (abs(freqs.get(k, 0.0) - self._prev.get(k, 0.0)) for k in keys),
            default=0.0,
        )
        self.history.append((n, delta))
        self._prev = freqs
        if delta <= c.threshold:
            self._stable += 1
        else:
            self._stable = 0
        if self._stable >= c.stable_checks:
            self.converged = True
            self.converged_at = n
            return True
        return False
