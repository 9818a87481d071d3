"""Multiple sequence alignments: representation, synthesis, bootstraps.

The paper's input is 42_SC — 42 organisms x 1167 nucleotides.  We cannot
ship that dataset, so :func:`synthesize_alignment` evolves sequences of
the same shape down a random tree under an HKY model; the resulting data
exercises the identical code paths (site-pattern compression, per-site
likelihood loops, bootstrap re-weighting).

The alphabet is DNA (4 states) plus gaps/ambiguity characters, which
enter the likelihood as "any state" (an all-ones tip vector).

Sites are compressed to unique *patterns* with multiplicities, exactly as
ML programs do — the likelihood loops the paper parallelizes run over
patterns, and bootstrap resampling only changes the pattern weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["Alphabet", "DNA", "Alignment", "synthesize_alignment",
           "bootstrap_weights"]


@dataclass(frozen=True)
class Alphabet:
    """A molecular alphabet: state letters plus gap/ambiguity characters.

    State codes are 0..n-1; the *gap code* equals ``n_states`` and stands
    for "state unknown" (gaps '-', '?', and the ambiguity letter).
    """

    name: str
    letters: str
    ambiguity: str

    def __post_init__(self) -> None:
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters in alphabet")

    @property
    def n_states(self) -> int:
        return len(self.letters)

    @property
    def gap_code(self) -> int:
        return self.n_states

    def encode(self, char: str) -> int:
        c = char.upper()
        idx = self.letters.find(c)
        if idx >= 0:
            return idx
        if c in self.ambiguity or c in "-?.":
            return self.gap_code
        raise ValueError(f"unsupported {self.name} character {char!r}")

    def decode(self, code: int) -> str:
        if code == self.gap_code:
            return "-"
        return self.letters[code]


DNA = Alphabet(name="dna", letters="ACGT", ambiguity="NRYSWKMBDHVX")

_ALPHABETS: Dict[str, Alphabet] = {"dna": DNA}


@dataclass(frozen=True)
class Alignment:
    """A compressed alignment over a molecular alphabet.

    Attributes
    ----------
    names:
        Taxon labels, one per row.
    patterns:
        int8 array (n_taxa, n_patterns) of state codes, where the value
        ``alphabet.gap_code`` marks gaps/ambiguity.
    weights:
        Multiplicity of each pattern; ``weights.sum() == n_sites``.
    """

    names: Tuple[str, ...]
    patterns: np.ndarray
    weights: np.ndarray
    alphabet: Alphabet = field(default=DNA)

    def __post_init__(self) -> None:
        if self.patterns.ndim != 2:
            raise ValueError("patterns must be 2-D (taxa x patterns)")
        if len(self.names) != self.patterns.shape[0]:
            raise ValueError("one name per row required")
        if self.weights.shape != (self.patterns.shape[1],):
            raise ValueError("one weight per pattern required")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        if self.patterns.size and (
            self.patterns.min() < 0
            or self.patterns.max() > self.alphabet.gap_code
        ):
            raise ValueError(
                f"state codes must be within 0..{self.alphabet.gap_code}"
            )

    @property
    def n_states(self) -> int:
        return self.alphabet.n_states

    @property
    def n_taxa(self) -> int:
        return self.patterns.shape[0]

    @property
    def n_patterns(self) -> int:
        return self.patterns.shape[1]

    @property
    def n_sites(self) -> int:
        return int(self.weights.sum())

    @property
    def gap_fraction(self) -> float:
        """Fraction of cells that are gaps/ambiguity (weighted)."""
        gaps = (self.patterns == self.alphabet.gap_code).astype(float)
        total = self.n_taxa * self.weights.sum()
        return float((gaps * self.weights[None, :]).sum() / total)

    @staticmethod
    def from_sequences(
        names: Sequence[str],
        sequences: Sequence[str],
        alphabet: str = "dna",
    ) -> "Alignment":
        """Build from raw sequence strings, compressing identical columns
        into weighted patterns.  Gaps ('-', '?') and ambiguity letters
        become the gap code."""
        try:
            alpha = _ALPHABETS[alphabet]
        except KeyError:
            raise ValueError(
                f"unknown alphabet {alphabet!r}; "
                f"choose from {sorted(_ALPHABETS)}"
            ) from None
        if len(names) != len(sequences):
            raise ValueError("one name per sequence required")
        if not sequences:
            raise ValueError("empty alignment")
        length = len(sequences[0])
        if length == 0:
            raise ValueError("zero-length sequences")
        if any(len(s) != length for s in sequences):
            raise ValueError("sequences must have equal length")
        mat = np.array(
            [[alpha.encode(c) for c in seq] for seq in sequences],
            dtype=np.int8,
        )
        return Alignment.from_matrix(tuple(names), mat, alpha)

    @staticmethod
    def from_matrix(
        names: Tuple[str, ...],
        matrix: np.ndarray,
        alphabet: Alphabet = DNA,
    ) -> "Alignment":
        """Build from a (taxa x sites) code matrix, compressing columns."""
        cols, counts = np.unique(matrix.T, axis=0, return_counts=True)
        return Alignment(
            names=tuple(names),
            patterns=np.ascontiguousarray(cols.T, dtype=np.int8),
            weights=counts.astype(np.float64),
            alphabet=alphabet,
        )

    def with_weights(self, weights: np.ndarray) -> "Alignment":
        """Same patterns under new weights (a bootstrap replicate)."""
        return Alignment(
            self.names, self.patterns, np.asarray(weights, float),
            self.alphabet,
        )

    def to_sequences(self) -> List[str]:
        """Expand back to per-taxon strings (patterns repeated by weight).

        Only meaningful for integer weights; used in tests.
        """
        reps = self.weights.astype(int)
        if not np.all(reps == self.weights):
            raise ValueError("cannot expand non-integer weights")
        expanded = np.repeat(self.patterns, reps, axis=1)
        return [
            "".join(self.alphabet.decode(c) for c in row) for row in expanded
        ]


def synthesize_alignment(
    n_taxa: int = 42,
    n_sites: int = 1167,
    seed: int = 0,
    kappa: float = 2.5,
    frequencies=(0.30, 0.20, 0.20, 0.30),
    mean_branch: float = 0.08,
    gap_fraction: float = 0.0,
) -> Alignment:
    """Evolve a synthetic DNA alignment shaped like the paper's 42_SC.

    A random bifurcating topology is grown by sequential attachment;
    sequences evolve from a root sequence down the tree under HKY with
    exponentially distributed branch lengths.  ``gap_fraction`` of the
    cells are replaced with gaps (missing data), as in real alignments.
    Returns the compressed alignment (the generating tree is deliberately
    *not* returned — the inference examples must rediscover it).
    """
    from .models import hky

    if n_taxa < 3:
        raise ValueError("need at least 3 taxa")
    if n_sites < 1:
        raise ValueError("need at least 1 site")
    if not (0.0 <= gap_fraction < 1.0):
        raise ValueError("gap_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    model = hky(frequencies, kappa)

    # children[i] = list of (child_id, branch_length); node 0 is the root.
    children: dict = {0: []}
    leaves: List[int] = [0]
    next_id = 1
    # Grow a random topology: split a random current leaf into two.
    while len(leaves) < n_taxa:
        split = leaves.pop(rng.integers(len(leaves)))
        for _ in range(2):
            b = float(rng.exponential(mean_branch)) + 1e-4
            children.setdefault(split, []).append((next_id, b))
            leaves.append(next_id)
            next_id += 1

    # Evolve sequences root-to-leaves.
    seqs = {0: rng.choice(4, size=n_sites, p=model.frequencies)}
    stack = [0]
    while stack:
        node = stack.pop()
        for child, b in children.get(node, []):
            p = model.transition_matrix(b)  # rows: from, cols: to
            cum = np.cumsum(p, axis=1)
            u = rng.random(n_sites)
            seqs[child] = (
                u[:, None] > cum[seqs[node]]
            ).sum(axis=1).astype(np.int8)
            stack.append(child)

    names = tuple(f"taxon{i:02d}" for i in range(n_taxa))
    mat = np.stack([seqs[leaf] for leaf in sorted(leaves)])
    if gap_fraction > 0:
        mask = rng.random(mat.shape) < gap_fraction
        mat = np.where(mask, np.int8(DNA.gap_code), mat)
    return Alignment.from_matrix(names, mat, DNA)


def bootstrap_weights(alignment: Alignment, rng: np.random.Generator) -> np.ndarray:
    """Non-parametric bootstrap: resample ``n_sites`` sites with
    replacement; returns new per-pattern weights.

    This is the Section 3.1 operation — "a certain amount of columns is
    re-weighted" — under which the inference is repeated.
    """
    probs = alignment.weights / alignment.weights.sum()
    return rng.multinomial(alignment.n_sites, probs).astype(np.float64)
