"""The likelihood kernels: ``newview``, ``evaluate``, ``makenewz``.

These are the three functions that consume 98.77% of RAxML's time
(Section 5.1) and that the paper off-loads to SPEs.  The implementation
is a real, working Felsenstein-pruning engine:

* :meth:`LikelihoodEngine.newview` — conditional likelihood vector (CLV)
  of an internal node from its children (76.8% of runtime in the paper);
* :meth:`LikelihoodEngine.evaluate` — the log-likelihood at the root
  (2.37%);
* :meth:`LikelihoodEngine.makenewz` — Newton-Raphson branch-length
  optimization using analytic first and second derivatives (19.6%).

All kernels are vectorized over site patterns and Gamma rate categories
(the inner ``for`` loops of Figure 3 become NumPy contractions), with
numerical underflow scaling for deep trees.  Every invocation is counted
and sized so a real inference can be replayed as an off-load trace
through the Cell simulator (see :mod:`repro.phylo.raxml`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .alignment import Alignment
from .models import SubstitutionModel, discrete_gamma_rates
from .tree import Node, Tree

__all__ = ["KernelLog", "LikelihoodEngine"]

_SCALE_THRESHOLD = 1e-100
_SCALE_FACTOR = 1e100
_LOG_SCALE = np.log(_SCALE_FACTOR)

MIN_BRANCH = 1e-6
MAX_BRANCH = 10.0


@dataclass
class KernelLog:
    """Counts and records kernel invocations for trace replay."""

    newview_calls: int = 0
    evaluate_calls: int = 0
    makenewz_calls: int = 0
    makenewz_iterations: int = 0
    record: bool = False
    events: List[Tuple[str, int]] = field(default_factory=list)

    def note(self, kernel: str, patterns: int) -> None:
        if kernel == "newview":
            self.newview_calls += 1
        elif kernel == "evaluate":
            self.evaluate_calls += 1
        elif kernel == "makenewz":
            self.makenewz_calls += 1
        else:
            raise ValueError(f"unknown kernel {kernel!r}")
        if self.record:
            self.events.append((kernel, patterns))


class LikelihoodEngine:
    """Felsenstein-pruning likelihood for one alignment and model."""

    def __init__(
        self,
        alignment: Alignment,
        model: SubstitutionModel,
        n_rate_categories: int = 4,
        alpha: float = 0.5,
    ) -> None:
        """Build an engine for ``alignment`` under ``model``.

        Rate heterogeneity is GAMMA: ``n_rate_categories`` discrete-Gamma
        categories with shape ``alpha``; the likelihood is the mean over
        categories (a mixture).
        """
        self.alignment = alignment
        self.model = model
        if n_rate_categories < 1:
            raise ValueError("need at least one rate category")
        self.rates = (
            discrete_gamma_rates(alpha, n_rate_categories)
            if n_rate_categories > 1
            else np.ones(1)
        )
        self.n_rates = len(self.rates)
        self.log = KernelLog()

        n = model.n_states
        if alignment.n_states != n:
            raise ValueError(
                f"alignment alphabet has {alignment.n_states} states but "
                f"the model has {n}"
            )
        self.n_states = n
        # Tip CLVs: indicator vectors for observed states, all-ones for
        # gaps/ambiguity (code == n: "could be any state"), shared across
        # rate categories.  Shape per taxon: (patterns, n_states).
        lookup = np.vstack([np.eye(n), np.ones((1, n))])
        self._tip_clv = lookup[alignment.patterns]  # (taxa, patterns, n)
        # Node CLV cache: node_id -> (clv[patterns, rates, 4], logscale[patterns])
        self._clv: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    # -- transition matrices ------------------------------------------------
    def _pmatrices(self, t: float) -> np.ndarray:
        """P(r * t) for every rate category; shape (rates, 4, 4)."""
        return self.model.transition_matrices(self.rates * t)

    # -- CLV plumbing ---------------------------------------------------------
    def _child_contribution(self, child: Node) -> Tuple[np.ndarray, np.ndarray]:
        """(patterns, rates, 4) partial for ``child`` seen from its parent."""
        p = self._pmatrices(child.length)  # (R, 4, 4)
        if child.is_leaf:
            tip = self._tip_clv[child.taxon]  # (S, 4)
            contrib = np.einsum("rxy,sy->srx", p, tip)
            scale = np.zeros(self.alignment.n_patterns)
        else:
            clv, scale = self._clv[child.id]
            contrib = np.einsum("rxy,sry->srx", p, clv)
        return contrib, scale

    def newview(self, node: Node) -> None:
        """Compute the CLV of ``node`` from its (already valid) children.

        This is the dominant kernel: one dense 4x4 contraction per child
        per rate category per site pattern.
        """
        if node.is_leaf:
            raise ValueError("newview is only defined for internal nodes")
        if not node.children:
            raise ValueError("internal node with no children")
        clv: Optional[np.ndarray] = None
        scale_total = np.zeros(self.alignment.n_patterns)
        for child in node.children:
            contrib, scale = self._child_contribution(child)
            clv = contrib if clv is None else clv * contrib
            scale_total += scale
        # Underflow scaling: lift patterns whose max CLV entry collapsed.
        peak = clv.max(axis=(1, 2))
        tiny = peak < _SCALE_THRESHOLD
        if np.any(tiny):
            clv[tiny] *= _SCALE_FACTOR
            scale_total[tiny] += 1.0
        self._clv[node.id] = (clv, scale_total)
        self.log.note("newview", self.alignment.n_patterns)

    def full_traversal(self, tree: Tree) -> None:
        """Recompute every internal CLV in postorder."""
        self._clv.clear()
        for node in tree.postorder():
            if not node.is_leaf:
                self.newview(node)

    def invalidate(self) -> None:
        """Drop cached CLVs (topology changed)."""
        self._clv.clear()

    def refresh_ancestors(self, tree: Tree, node: Node) -> int:
        """Recompute only the CLVs invalidated by changing the branch
        above ``node`` (its ancestors, bottom-up).

        This is how RAxML amortizes branch-length optimization: a branch
        change leaves every CLV outside the root path valid.  Requires a
        prior :meth:`full_traversal`.  Returns the number of ``newview``
        calls performed.
        """
        chain: List[Node] = []
        cur = node.parent
        while cur is not None:
            chain.append(cur)
            cur = cur.parent
        for ancestor in chain:  # already bottom-up (parent before root)
            self.newview(ancestor)
        return len(chain)

    # -- evaluate --------------------------------------------------------------
    def evaluate(self, tree: Tree, full: bool = True) -> float:
        """Log-likelihood of ``tree`` (natural log).

        With ``full=True`` the CLVs are recomputed first; pass False when
        the caller has kept them valid (e.g. inside ``makenewz``).
        """
        if full:
            self.full_traversal(tree)
        clv, scale = self._clv[tree.root.id]
        # Stationary frequencies at the root, mixed over rate categories.
        per_rate = np.einsum("srx,x->sr", clv, self.model.frequencies)
        site_lik = np.clip(per_rate.mean(axis=1), 1e-300, None)
        loglik = float(
            np.dot(self.alignment.weights, np.log(site_lik) - scale * _LOG_SCALE)
        )
        self.log.note("evaluate", self.alignment.n_patterns)
        return loglik

    # -- edge views (for branch-length optimization) ---------------------------
    def _edge_vectors(self, tree: Tree, node: Node) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(down, up, logscale) for the branch above ``node``.

        ``down`` is the CLV of the subtree below ``node`` (S, R, 4);
        ``up`` is the conditional likelihood of everything else, as a
        function of the state at the parent endpoint, with the stationary
        frequencies already folded in.  The branch's own P-matrix is NOT
        included, so ``L(t) = sum_s w_s log( mean_r up . P(rt) . down )``.
        """
        # Down vector.
        if node.is_leaf:
            down = np.repeat(
                self._tip_clv[node.taxon][:, None, :], self.n_rates, axis=1
            )
            down_scale = np.zeros(self.alignment.n_patterns)
        else:
            down, down_scale = self._clv[node.id]

        # Up vector: walk from the root towards node's parent.
        path: List[Node] = []
        cur = node.parent
        while cur is not None:
            path.append(cur)
            cur = cur.parent
        path.reverse()  # root ... parent(node)

        s_patterns = self.alignment.n_patterns
        up = np.ones((s_patterns, self.n_rates, self.n_states))
        up *= self.model.frequencies[None, None, :]
        up_scale = np.zeros(s_patterns)
        target_child: Optional[Node] = None
        for i, anc in enumerate(path):
            target_child = path[i + 1] if i + 1 < len(path) else node
            # Fold in every child of `anc` except the one on the path.
            for child in anc.children:
                if child is target_child:
                    continue
                contrib, scale = self._child_contribution(child)
                up = up * contrib
                up_scale += scale
            if target_child is not node:
                # Cross the branch from anc to the next node on the path.
                p = self._pmatrices(target_child.length)
                up = np.einsum("srx,rxy->sry", up, p)
                peak = up.max(axis=(1, 2))
                tiny = peak < _SCALE_THRESHOLD
                if np.any(tiny):
                    up[tiny] *= _SCALE_FACTOR
                    up_scale[tiny] += 1.0
        return down, up, down_scale + up_scale

    def edge_loglik(self, tree: Tree, node: Node, t: float) -> float:
        """Log-likelihood as a function of the length of ``node``'s branch."""
        down, up, logscale = self._edge_vectors(tree, node)
        p = self._pmatrices(t)
        site = np.einsum("srx,rxy,sry->sr", up, p, down).mean(axis=1)
        site = np.clip(site, 1e-300, None)
        return float(
            np.dot(self.alignment.weights, np.log(site) - logscale * _LOG_SCALE)
        )

    # -- makenewz ---------------------------------------------------------------
    def makenewz(
        self,
        tree: Tree,
        node: Node,
        max_iterations: int = 16,
        tolerance: float = 1e-8,
    ) -> float:
        """Newton-Raphson optimization of the branch above ``node``.

        Returns the optimized length (also written back to the node).
        Requires valid CLVs (run :meth:`full_traversal` first).  Mirrors
        RAxML's ``makenewz``: analytic dL/dt and d2L/dt2 from the spectral
        decomposition, with step clamping into [MIN_BRANCH, MAX_BRANCH].
        """
        if node.parent is None:
            raise ValueError("the root has no branch to optimize")
        down, up, _ = self._edge_vectors(tree, node)
        w = self.alignment.weights
        t = float(np.clip(node.length, MIN_BRANCH, MAX_BRANCH))

        for _ in range(max_iterations):
            self.log.makenewz_iterations += 1
            p, d1, d2 = self.model.transition_derivatives(t, self.rates)
            site = np.einsum("srx,rxy,sry->sr", up, p, down).mean(axis=1)
            dsite = np.einsum("srx,rxy,sry->sr", up, d1, down).mean(axis=1)
            d2site = np.einsum("srx,rxy,sry->sr", up, d2, down).mean(axis=1)
            site = np.clip(site, 1e-300, None)
            # d/dt log L = sum w * dsite/site ; second derivative likewise.
            g = float(np.dot(w, dsite / site))
            h = float(np.dot(w, d2site / site - (dsite / site) ** 2))
            if abs(g) < tolerance:
                break
            step = -g / h if h < 0 else g  # fall back to gradient ascent
            new_t = t + step
            if not np.isfinite(new_t):
                break
            # Clamp and damp: halve steps that leave the domain.
            while new_t <= MIN_BRANCH or new_t >= MAX_BRANCH:
                step *= 0.5
                new_t = t + step
                if abs(step) < tolerance:
                    new_t = float(np.clip(t + step, MIN_BRANCH, MAX_BRANCH))
                    break
            if abs(new_t - t) < tolerance:
                t = new_t
                break
            t = new_t

        node.length = t
        self.log.note("makenewz", self.alignment.n_patterns)
        return t

    def optimize_branches(self, tree: Tree, passes: int = 1) -> float:
        """Optimize every branch ``passes`` times; returns final loglik.

        Between branches only the invalidated root-path CLVs are
        recomputed (:meth:`refresh_ancestors`), so one pass costs
        O(n log n) ``newview`` calls instead of O(n^2).
        """
        if passes < 1:
            raise ValueError("passes must be >= 1")
        self.full_traversal(tree)
        for _ in range(passes):
            for node in tree.branches():
                self.makenewz(tree, node)
                # Only the ancestors of the changed branch are stale.
                self.refresh_ancestors(tree, node)
        return self.evaluate(tree, full=False)
