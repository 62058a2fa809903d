"""From-scratch multilevel hypergraph partitioner (KaHyPar substitute)."""

from .coarsen import coarsen, coarsen_once, contract
from .graph import BalanceConstraint, Hypergraph, PartitionResult
from .initial import greedy_initial, repair_labels
from .partition import partition_hypergraph
from .refine import (
    COUNTERS,
    RefineCounters,
    RefinementState,
    fm_refine,
    greedy_refine,
    rebalance,
)

__all__ = [
    "Hypergraph",
    "BalanceConstraint",
    "PartitionResult",
    "partition_hypergraph",
    "coarsen",
    "coarsen_once",
    "contract",
    "greedy_initial",
    "repair_labels",
    "RefinementState",
    "RefineCounters",
    "COUNTERS",
    "fm_refine",
    "greedy_refine",
    "rebalance",
]
