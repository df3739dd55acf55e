"""MANI-Rank: multi-attribute and intersectional group fairness for consensus ranking.

Reproduction of Cachel, Rundensteiner & Harrison, *MANI-Rank: Multiple
Attribute and Intersectional Group Fairness for Consensus Ranking*
(ICDE 2022).  The package provides:

* :mod:`repro.core` — candidates, protected attributes, rankings, ranking
  sets, and rank distances;
* :mod:`repro.fairness` — the MANI-Rank criteria (FPR, ARP, IRP), PD loss and
  Price of Fairness;
* :mod:`repro.aggregation` — fairness-unaware consensus methods (Borda,
  Copeland, Schulze, exact Kemeny, ...);
* :mod:`repro.fair` — the MFCR solutions (Fair-Kemeny, Fair-Copeland,
  Fair-Schulze, Fair-Borda) and the paper's baselines;
* :mod:`repro.datagen` — Mallows sampling, fairness-controlled modal
  rankings, and the case-study datasets;
* :mod:`repro.experiments` — one module per paper table/figure;
* :mod:`repro.io` — CSV/JSON persistence;
* :mod:`repro.cache` — the content-addressed consensus cache and the
  ``mani-rank serve`` HTTP front-end;
* :mod:`repro.api` — the stable high-level facade with the compatibility
  promise (see ``docs/api.md``).

Quickstart
----------

>>> from repro import CandidateTable, RankingSet, FairKemenyAggregator, evaluate_mani_rank
>>> table = CandidateTable(
...     {
...         "Gender": ["M", "M", "W", "W", "M", "M", "W", "W"],
...         "Race": ["A", "B", "A", "B", "A", "B", "A", "B"],
...     }
... )
>>> rankings = RankingSet.from_orders(
...     [[0, 1, 4, 5, 2, 3, 6, 7], [1, 0, 5, 4, 3, 2, 7, 6], [0, 4, 1, 5, 2, 6, 3, 7]]
... )
>>> fair = FairKemenyAggregator().aggregate(rankings, table, delta=0.2)
>>> evaluate_mani_rank(fair, table, delta=0.2).satisfied
True
"""

from repro.aggregation import (
    BordaAggregator,
    CopelandAggregator,
    FootruleAggregator,
    KemenyAggregator,
    KemenyDeltaEngine,
    LocalSearchKemenyAggregator,
    PickAPermAggregator,
    SchulzeAggregator,
    get_aggregator,
)
from repro.core import (
    CandidateTable,
    Group,
    ProtectedAttribute,
    Ranking,
    RankingSet,
    kendall_tau,
    normalized_kendall_tau,
    spearman_footrule,
)
from repro.exceptions import (
    AggregationError,
    InfeasibleProblemError,
    RankingError,
    ReproError,
    ValidationError,
)
from repro.fair import (
    CorrectFairestPermBaseline,
    FairBordaAggregator,
    FairCopelandAggregator,
    FairKemenyAggregator,
    FairSchulzeAggregator,
    KemenyWeightedBaseline,
    PickFairestPermBaseline,
    UnawareKemenyBaseline,
    get_fair_method,
    make_mr_fair,
)
from repro.cache import (
    CacheStats,
    ConsensusCacheService,
    ResultCache,
)
from repro.fairness import (
    FairnessTable,
    FairnessThresholds,
    arp,
    evaluate_mani_rank,
    fpr,
    fpr_by_group,
    irp,
    mani_rank_satisfied,
    parity_scores,
    pd_loss,
    price_of_fairness,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "CandidateTable",
    "ProtectedAttribute",
    "Group",
    "Ranking",
    "RankingSet",
    "kendall_tau",
    "normalized_kendall_tau",
    "spearman_footrule",
    # fairness
    "fpr",
    "fpr_by_group",
    "arp",
    "irp",
    "parity_scores",
    "mani_rank_satisfied",
    "evaluate_mani_rank",
    "pd_loss",
    "price_of_fairness",
    "FairnessThresholds",
    "FairnessTable",
    # aggregation
    "BordaAggregator",
    "CopelandAggregator",
    "SchulzeAggregator",
    "KemenyAggregator",
    "PickAPermAggregator",
    "FootruleAggregator",
    "KemenyDeltaEngine",
    "LocalSearchKemenyAggregator",
    "get_aggregator",
    # fair methods
    "make_mr_fair",
    "FairKemenyAggregator",
    "FairBordaAggregator",
    "FairCopelandAggregator",
    "FairSchulzeAggregator",
    "UnawareKemenyBaseline",
    "KemenyWeightedBaseline",
    "PickFairestPermBaseline",
    "CorrectFairestPermBaseline",
    "get_fair_method",
    # consensus cache + serving
    "CacheStats",
    "ConsensusCacheService",
    "ResultCache",
    # exceptions
    "ReproError",
    "ValidationError",
    "RankingError",
    "AggregationError",
    "InfeasibleProblemError",
]
