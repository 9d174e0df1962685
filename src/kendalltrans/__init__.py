"""Pair-relation (Kendall) encoding of ordinal data and its toolkit.

The core idea: replace an n-vector by the states of all n*(n-1) ordered
pairs of its entries (below / above / tied, plus missing).  The encoding is
parameter-free, keeps exactly the ranking information, admits plug-in
information estimators with clean closed forms, inverts back to a ranking
by Copeland scoring, and lets independently encoded batches be fused
without calibrating them against each other.
"""

from .errors import DomainError
from .transform import (
    PAIR_SCHEME,
    KendallSequence,
    Ranking,
    Symbol,
    copeland_inverse,
    expand_categorical,
    jitter_ties,
    kendall_transform,
    pair_at,
    pair_count,
    pair_index,
    transform_system,
    weighted_copeland,
)
from .infotheory import (
    AurocResult,
    TauValue,
    auroc,
    conditional_mi,
    entropy,
    interaction_information,
    kendall_tau,
    make_joint,
    mi_from_auroc,
    mi_from_rho,
    mi_from_tau,
    mutual_information,
)
from .integrate import complete_fraction, merge_transformed
from .analysis import (
    FeatureRanking,
    SimResult,
    bin_equal_frequency,
    bin_equal_width,
    jaccard_max,
    make_correlated_table,
    rank_features,
    simulate_bivariate,
    simulate_integration,
    simulate_multivariate,
    spearman_rho,
    split_merge_rankings,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "PAIR_SCHEME",
    "KendallSequence",
    "Ranking",
    "Symbol",
    "copeland_inverse",
    "expand_categorical",
    "jitter_ties",
    "kendall_transform",
    "pair_at",
    "pair_count",
    "pair_index",
    "transform_system",
    "weighted_copeland",
    "AurocResult",
    "TauValue",
    "auroc",
    "conditional_mi",
    "entropy",
    "interaction_information",
    "kendall_tau",
    "make_joint",
    "mi_from_auroc",
    "mi_from_rho",
    "mi_from_tau",
    "mutual_information",
    "complete_fraction",
    "merge_transformed",
    "FeatureRanking",
    "SimResult",
    "bin_equal_frequency",
    "bin_equal_width",
    "jaccard_max",
    "make_correlated_table",
    "rank_features",
    "simulate_bivariate",
    "simulate_integration",
    "simulate_multivariate",
    "spearman_rho",
    "split_merge_rankings",
]
