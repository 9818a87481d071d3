"""Phylogenetic tree structure and topology moves.

Trees are unrooted binary trees represented with a rooting at an internal
trifurcating node (the standard ML-program convention): every node except
the root has a parent branch with a length; leaves carry taxon indices.
Provides random topology generation, postorder traversal, Newick output,
cloning, and nearest-neighbor-interchange (NNI) moves — the move set of
RAxML-style hill-climbing searches.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["Node", "Tree"]


class Node:
    """One tree node; ``taxon`` is None for internal nodes."""

    __slots__ = ("id", "parent", "children", "length", "taxon")

    def __init__(
        self,
        node_id: int,
        taxon: Optional[int] = None,
        length: float = 0.0,
    ) -> None:
        self.id = node_id
        self.parent: Optional["Node"] = None
        self.children: List["Node"] = []
        self.length = length  # branch to the parent
        self.taxon = taxon

    @property
    def is_leaf(self) -> bool:
        return self.taxon is not None

    def add_child(self, child: "Node") -> None:
        child.parent = self
        self.children.append(child)

    def detach(self) -> None:
        """Remove this node from its parent's child list."""
        if self.parent is None:
            raise ValueError("cannot detach the root")
        self.parent.children.remove(self)
        self.parent = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = f"leaf:{self.taxon}" if self.is_leaf else "internal"
        return f"<Node {self.id} {kind} len={self.length:.4f}>"


class Tree:
    """An unrooted binary tree over ``n_taxa`` leaves."""

    def __init__(self, root: Node, n_taxa: int) -> None:
        self.root = root
        self.n_taxa = n_taxa
        self._next_id = max(n.id for n in self.postorder()) + 1

    # -- construction -----------------------------------------------------
    @staticmethod
    def random_topology(
        n_taxa: int,
        rng: np.random.Generator,
        mean_branch: float = 0.1,
    ) -> "Tree":
        """Random unrooted topology by stepwise addition.

        Starts from a 3-leaf star and repeatedly attaches the next taxon
        to a uniformly random branch — every unrooted topology has
        positive probability, matching how RAxML draws distinct random
        starting trees for multiple inferences.
        """
        if n_taxa < 3:
            raise ValueError("need at least 3 taxa")

        def blen() -> float:
            return float(rng.exponential(mean_branch)) + 1e-6

        next_id = n_taxa  # leaf ids = taxon ids; internal ids follow
        root = Node(next_id)
        next_id += 1
        for t in range(3):
            root.add_child(Node(t, taxon=t, length=blen()))
        tree = Tree(root, n_taxa)

        for t in range(3, n_taxa):
            # Pick a random non-root node (i.e. a random branch).
            candidates = [n for n in tree.postorder() if n.parent is not None]
            target = candidates[rng.integers(len(candidates))]
            # Split target's parent branch with a new internal node.
            parent = target.parent
            mid = Node(next_id, length=target.length / 2)
            next_id += 1
            target.detach()
            target.length /= 2
            parent.add_child(mid)
            mid.add_child(target)
            mid.add_child(Node(t, taxon=t, length=blen()))
            tree._next_id = next_id
        return tree

    def copy(self) -> "Tree":
        """Deep copy (fresh Node objects, same ids)."""

        def clone(node: Node) -> Node:
            c = Node(node.id, node.taxon, node.length)
            for child in node.children:
                c.add_child(clone(child))
            return c

        return Tree(clone(self.root), self.n_taxa)

    # -- traversal ---------------------------------------------------------
    def postorder(self) -> Iterator[Node]:
        """Children-before-parents iteration (likelihood order)."""
        stack: List[Tuple[Node, bool]] = [(self.root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            else:
                stack.append((node, True))
                for child in node.children:
                    stack.append((child, False))

    def nodes(self) -> List[Node]:
        return list(self.postorder())

    def leaves(self) -> List[Node]:
        return [n for n in self.postorder() if n.is_leaf]

    def internal_branches(self) -> List[Node]:
        """Nodes whose parent branch is internal (both ends internal).

        These are the NNI-eligible branches.
        """
        return [
            n
            for n in self.postorder()
            if n.parent is not None and not n.is_leaf
        ]

    def branches(self) -> List[Node]:
        """All non-root nodes (each owns the branch to its parent)."""
        return [n for n in self.postorder() if n.parent is not None]

    def find(self, node_id: int) -> Node:
        for n in self.postorder():
            if n.id == node_id:
                return n
        raise KeyError(f"no node with id {node_id}")

    # -- topology moves ----------------------------------------------------
    def nni(self, branch: Node, variant: int) -> None:
        """In-place nearest-neighbor interchange around ``branch``.

        ``branch`` is an internal node; the move swaps one of its children
        with one of its parent's *other* children (or, at the root, a
        sibling).  ``variant`` in {0, 1} picks which child crosses.
        """
        if branch.is_leaf or branch.parent is None:
            raise ValueError("NNI needs an internal, non-root branch")
        if variant not in (0, 1):
            raise ValueError("variant must be 0 or 1")
        parent = branch.parent
        siblings = [c for c in parent.children if c is not branch]
        if not siblings:
            raise ValueError("degenerate topology: no sibling to swap")
        sib = siblings[0]
        child = branch.children[variant % len(branch.children)]
        # Swap: sib moves under branch, child moves under parent.
        sib.detach()
        child.detach()
        branch.add_child(sib)
        parent.add_child(child)

    def nni_neighbourhood(self) -> List[Tuple[int, int]]:
        """All (branch_id, variant) NNI moves available on this tree."""
        moves = []
        for b in self.internal_branches():
            for v in range(min(2, len(b.children))):
                moves.append((b.id, v))
        return moves

    # -- serialization --------------------------------------------------------
    def newick(self, names: Optional[List[str]] = None) -> str:
        """Newick string with branch lengths."""

        def fmt(node: Node) -> str:
            if node.is_leaf:
                label = names[node.taxon] if names else f"t{node.taxon}"
            else:
                label = ""
            if node.children:
                inner = ",".join(fmt(c) for c in node.children)
                label = f"({inner}){label}"
            if node.parent is not None:
                return f"{label}:{node.length:.6f}"
            return label

        return fmt(self.root) + ";"

    def total_branch_length(self) -> float:
        return sum(n.length for n in self.postorder() if n.parent is not None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tree n_taxa={self.n_taxa} nodes={len(self.nodes())}>"
