"""High utility-occupancy pattern mining under length constraints."""

from .database import (
    HUOPResult,
    MiningParams,
    Pattern,
    RevisedDatabase,
    TotalOrder,
    Transaction,
    TransactionDatabase,
    build_database,
    build_total_order,
    min_support_count,
    revise_database,
    support_counts,
)
from .io import (
    GeneratorSpec,
    generate_synthetic,
    parse_quantity_profit,
    parse_spmf_utility,
    write_quantity_profit,
    write_results,
    write_stats_csv,
)
from .lists import PatternNode, UOTuple, build_initial_nodes, construct, length_upper_bound
from .oracle import brute_force_mine, enumerate_supported
from .search import SearchStats, mine, unconstrained_maxlen

__version__ = "0.1.0"

__all__ = [
    "GeneratorSpec",
    "HUOPResult",
    "MiningParams",
    "Pattern",
    "PatternNode",
    "RevisedDatabase",
    "SearchStats",
    "TotalOrder",
    "Transaction",
    "TransactionDatabase",
    "UOTuple",
    "brute_force_mine",
    "build_database",
    "build_initial_nodes",
    "build_total_order",
    "construct",
    "enumerate_supported",
    "generate_synthetic",
    "length_upper_bound",
    "min_support_count",
    "mine",
    "parse_quantity_profit",
    "parse_spmf_utility",
    "revise_database",
    "support_counts",
    "unconstrained_maxlen",
    "write_quantity_profit",
    "write_results",
    "write_stats_csv",
]
