"""A working maximum-likelihood phylogenetics engine (the RAxML workload).

Real Felsenstein-pruning likelihood kernels (``newview`` / ``evaluate`` /
``makenewz``), GTR/HKY substitution models with discrete-Gamma rates,
NNI hill-climbing search and non-parametric bootstrapping — plus the
bridge that replays recorded kernel invocations through the simulated
Cell machine.
"""

from .alignment import (
    Alignment,
    Alphabet,
    DNA,
    bootstrap_weights,
    synthesize_alignment,
)
from .consensus import annotate_support, majority_rule_consensus, split_frequencies
from .bootstrap import (
    BootstrapAnalysis,
    BootstrapReplicate,
    branch_support,
    run_bootstrap_analysis,
)
from .likelihood import KernelLog, LikelihoodEngine
from .models import (
    SubstitutionModel,
    discrete_gamma_rates,
    gtr,
    hky,
    jc69,
)
from .raxml import KernelCostModel, profile_report, trace_from_kernel_log
from .search import SearchResult, hill_climb
from .tree import Node, Tree

__all__ = [
    "Alignment",
    "synthesize_alignment",
    "bootstrap_weights",
    "SubstitutionModel",
    "gtr",
    "hky",
    "jc69",
    "discrete_gamma_rates",
    "Tree",
    "Node",
    "LikelihoodEngine",
    "KernelLog",
    "SearchResult",
    "hill_climb",
    "BootstrapAnalysis",
    "BootstrapReplicate",
    "run_bootstrap_analysis",
    "branch_support",
    "KernelCostModel",
    "trace_from_kernel_log",
    "profile_report",
    "Alphabet",
    "DNA",
    "split_frequencies",
    "majority_rule_consensus",
    "annotate_support",
]
