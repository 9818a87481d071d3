"""Tests for the DNA alphabet and gap handling."""

import itertools

import numpy as np
import pytest

from repro.phylo import (
    Alignment,
    DNA,
    LikelihoodEngine,
    SubstitutionModel,
    Tree,
    hky,
    jc69,
    synthesize_alignment,
)


class TestAlphabets:
    def test_dna_codes(self):
        assert DNA.n_states == 4
        assert DNA.encode("a") == 0
        assert DNA.encode("T") == 3
        assert DNA.encode("N") == DNA.gap_code
        assert DNA.encode("-") == DNA.gap_code
        assert DNA.decode(2) == "G"
        assert DNA.decode(DNA.gap_code) == "-"
        with pytest.raises(ValueError):
            DNA.encode("1")

    def test_alphabet_letter_uniqueness_enforced(self):
        from repro.phylo.alignment import Alphabet
        with pytest.raises(ValueError):
            Alphabet("bad", "AAC", "")

    def test_model_alignment_mismatch_rejected(self):
        aln = Alignment.from_sequences(["a", "b", "c"], ["AC", "AG", "AT"])
        three_states = SubstitutionModel.create(np.full(3, 1 / 3), np.ones(3))
        with pytest.raises(ValueError, match="states"):
            LikelihoodEngine(aln, three_states, 1)


class TestGaps:
    def test_gap_fraction_accounting(self):
        aln = Alignment.from_sequences(["a", "b"], ["AC-T", "A-GT"])
        assert aln.gap_fraction == pytest.approx(2 / 8)

    def test_gap_roundtrip(self):
        seqs = ["AC-T", "A?GN"]
        aln = Alignment.from_sequences(["a", "b"], seqs)
        rec = aln.to_sequences()
        # '?' and 'N' both decode to '-'.
        assert sorted("".join(rec)) == sorted("AC-TA-G-")

    def test_gap_is_missing_data_in_likelihood(self):
        """A fully gapped taxon contributes nothing: the likelihood
        equals that of the alignment without it... in the 3-taxon star
        case, adding an all-gap taxon keeps per-site likelihoods equal."""
        model = jc69()
        aln3 = Alignment.from_sequences(["a", "b", "c"], ["AC", "AG", "AT"])
        aln4 = Alignment.from_sequences(
            ["a", "b", "c", "d"], ["AC", "AG", "AT", "--"]
        )
        rng = np.random.default_rng(0)
        tree3 = Tree.random_topology(3, rng)
        # 4-taxon tree: attach the gap taxon anywhere.
        tree4 = Tree.random_topology(4, np.random.default_rng(1))
        l3 = LikelihoodEngine(aln3, model, 1).evaluate(tree3)
        l4 = LikelihoodEngine(aln4, model, 1).evaluate(tree4)
        # Not exactly equal (different topologies/branches for observed
        # taxa), but the gap taxon itself cannot push likelihood to 0.
        assert np.isfinite(l4)
        # Direct check: gap tip vector contributes a factor of 1:
        eng = LikelihoodEngine(aln4, model, 1)
        assert np.allclose(eng._tip_clv[3], 1.0)

    def test_gapped_likelihood_matches_brute_force(self):
        from tests.test_phylo_core import brute_force_loglik

        model = hky((0.3, 0.2, 0.2, 0.3), 2.0)
        aln = Alignment.from_sequences(
            ["a", "b", "c", "d"], ["AC-T", "ACG-", "G-GT", "GTGA"]
        )
        tree = Tree.random_topology(4, np.random.default_rng(2))

        # Brute force with marginalization over gap states.
        def brute_with_gaps():
            nodes = tree.nodes()
            internals = [n for n in nodes if not n.is_leaf]
            total = 0.0
            pm = {
                n.id: model.transition_matrix(n.length)
                for n in nodes if n.parent is not None
            }
            for pat, w in zip(aln.patterns.T, aln.weights):
                lik = 0.0
                leaf_states = {}
                for leaf in tree.leaves():
                    code = pat[leaf.taxon]
                    leaf_states[leaf.id] = (
                        range(4) if code == DNA.gap_code else [code]
                    )
                leaf_ids = [l.id for l in tree.leaves()]
                for internal_states in itertools.product(
                    range(4), repeat=len(internals)
                ):
                    sdict = {
                        n.id: s for n, s in zip(internals, internal_states)
                    }
                    for combo in itertools.product(
                        *(leaf_states[i] for i in leaf_ids)
                    ):
                        for lid, s in zip(leaf_ids, combo):
                            sdict[lid] = s
                        p = model.frequencies[sdict[tree.root.id]]
                        for n in nodes:
                            if n.parent is not None:
                                p *= pm[n.id][sdict[n.parent.id], sdict[n.id]]
                        lik += p
                total += w * np.log(lik)
            return total

        eng = LikelihoodEngine(aln, model, 1)
        assert eng.evaluate(tree) == pytest.approx(brute_with_gaps())

    def test_synthesize_with_gaps(self):
        aln = synthesize_alignment(6, 200, seed=0, gap_fraction=0.15)
        assert 0.10 < aln.gap_fraction < 0.20
        # Inference still works.
        tree = Tree.random_topology(6, np.random.default_rng(0))
        ll = LikelihoodEngine(aln, jc69(), 1).evaluate(tree)
        assert np.isfinite(ll)
