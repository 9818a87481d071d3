"""Hill-climbing topology search (RAxML-style, NNI move set).

RAxML's "rapid hill climbing" applies topology moves and keeps those that
improve the likelihood, interleaved with branch-length optimization.  We
implement the classic NNI hill climb: evaluate the NNI neighbourhood,
take the best improving move, re-optimize branch lengths, repeat until no
move improves.  Greedy and deterministic given the starting tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from .likelihood import LikelihoodEngine
from .tree import Tree

__all__ = ["SearchResult", "hill_climb"]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one tree search."""

    tree: Tree
    loglik: float
    rounds: int
    moves_accepted: int
    moves_evaluated: int


def _score_candidate(
    engine: LikelihoodEngine, candidate: Tree, pivot_id: int
) -> float:
    """Score a topology candidate with lazy local branch optimization.

    RAxML-style: re-fit only the branches adjacent to the move before
    scoring, otherwise improving moves look bad under their inherited
    branch lengths.
    """
    engine.invalidate()
    engine.full_traversal(candidate)
    pivot = candidate.find(pivot_id)
    for local in (pivot, *pivot.children):
        if local.parent is not None:
            engine.makenewz(candidate, local)
            engine.refresh_ancestors(candidate, local)
    return engine.evaluate(candidate, full=False)


def hill_climb(
    engine: LikelihoodEngine,
    start: Tree,
    max_rounds: int = 10,
    branch_passes: int = 1,
    min_improvement: float = 1e-6,
) -> SearchResult:
    """Greedy topology search from ``start``; returns the best tree found.

    Each round: optimize all branch lengths, score every candidate move
    (with lazy local branch re-optimization), apply the best improving
    one.  Stops when no move improves the log-likelihood by at least
    ``min_improvement`` or after ``max_rounds`` rounds.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    current = start.copy()
    current_lik = engine.optimize_branches(current, passes=branch_passes)
    accepted = 0
    evaluated = 0
    rounds = 0

    for rounds in range(1, max_rounds + 1):
        best_apply = None
        best_lik = current_lik

        for branch_id, variant in current.nni_neighbourhood():
            candidate = current.copy()
            candidate.nni(candidate.find(branch_id), variant)
            lik = _score_candidate(engine, candidate, branch_id)
            evaluated += 1
            if lik > best_lik + min_improvement:
                best_lik = lik
                best_apply = (branch_id, variant)

        if best_apply is None:
            break
        branch_id, variant = best_apply
        current.nni(current.find(branch_id), variant)
        engine.invalidate()
        current_lik = engine.optimize_branches(current, passes=branch_passes)
        accepted += 1

    engine.invalidate()
    return SearchResult(
        tree=current,
        loglik=current_lik,
        rounds=rounds,
        moves_accepted=accepted,
        moves_evaluated=evaluated,
    )
