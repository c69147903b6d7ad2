"""Depth-first pattern search with a length cap and a length-aware bound.

The search walks the set-enumeration tree of the mining order on an
explicit stack, so deep patterns do not hit the recursion limit.  Every
node it reaches is frequent, as the initial nodes are frequent items and
a join returns ``None`` when infrequent, and is reported if it qualifies.
A node already ``maxlen`` long ends its branch before any bound or join.
Below the cap a subtree is explored only when :func:`length_upper_bound`,
built on the capped ``luo`` lists, says an extension could still reach
the occupancy threshold.  Occupancy is not anti-monotone and never
prunes; ``minlen`` only filters what is reported.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .database import (
    MiningParams,
    Pattern,
    TransactionDatabase,
    build_total_order,
    min_support_count,
    revise_database,
    support_counts,
)
from .lists import PatternNode, build_initial_nodes, construct


@dataclass(frozen=True)
class HUOPResult:
    """One reported pattern with its support count and mean occupancy."""

    pattern: Pattern
    sup: int
    uo: float


@dataclass
class SearchStats:
    """Counters describing one mining run.

    ``visited_nodes`` counts every node whose summary the search reads,
    the initial single items included.  ``constructions`` counts join
    attempts below the length cap, ``early_aborts`` the joins found
    infrequent by the bitmask and ``lub_prunes`` the subtrees cut by the
    bound.  ``support_prunes`` is always 0; perfbench still reports it.
    """

    visited_nodes: int = 0
    constructions: int = 0
    lub_prunes: int = 0
    support_prunes: int = 0
    early_aborts: int = 0
    runtime_ms: int = 0


def length_upper_bound(node: PatternNode, min_sup_count: int) -> float:
    """Upper bound on the mean occupancy of any extension reachable from
    this node under the length cap its ``luo`` lists were built for.

    Per supporting transaction the pattern's own share plus everything
    an extension could still absorb is ``uo + sum(luo)``; any frequent
    extension is supported by at least ``min_sup_count`` of these
    transactions, so the mean of the ``min_sup_count`` largest such
    values bounds its occupancy.
    """
    rruo_at = node.rruo_at
    values = sorted([uo + rruo_at[tid] for tid, uo in node.uo_at.items()], reverse=True)
    return sum(values[:min_sup_count]) / min_sup_count


def search_subtree(
    prefix: PatternNode | None,
    exten: list[PatternNode],
    params: MiningParams,
    min_sc: int,
    results: list[HUOPResult],
    stats: SearchStats,
    bound_log: list[tuple[Pattern, float]] | None = None,
) -> None:
    """Visit each extension of ``prefix`` and its subtree in mining order.

    ``min_sc`` is the support count threshold, taken relative to the
    original database size at every depth.  One stack frame per depth
    keeps only the current path's extension lists alive.
    """
    stack = [(prefix, exten, enumerate(exten))]
    while stack:
        prefix, exten, siblings = stack[-1]
        for pos, xa in siblings:
            stats.visited_nodes += 1
            if xa.uo >= params.beta and len(xa.pattern) >= params.minlen:
                results.append(HUOPResult(pattern=xa.pattern, sup=xa.sup, uo=xa.uo))
            if len(xa.pattern) == params.maxlen:
                continue
            bound = length_upper_bound(xa, min_sc)
            if bound_log is not None:
                bound_log.append((xa.pattern, bound))
            if bound < params.beta:
                stats.lub_prunes += 1
                continue
            sub_exten: list[PatternNode] = []
            for xb in exten[pos + 1 :]:
                stats.constructions += 1
                node = construct(prefix, xa, xb, min_sc)
                if node is None:
                    stats.early_aborts += 1
                else:
                    sub_exten.append(node)
            # Descend; this frame's iterator resumes after the subtree.
            stack.append((xa, sub_exten, enumerate(sub_exten)))
            break
        else:
            stack.pop()


def _result_sort_key(rdb_rank):
    def key(result: HUOPResult):
        return (len(result.pattern), tuple(rdb_rank[i] for i in result.pattern))

    return key


def mine(
    db: TransactionDatabase,
    params: MiningParams,
    threads: int = 1,
    bound_log: list[tuple[Pattern, float]] | None = None,
) -> tuple[list[HUOPResult], SearchStats]:
    """Mine all qualifying patterns of ``db`` under ``params``.

    Returns the results sorted by length, then by position in the mining
    order, plus the run's counters.  ``threads`` is accepted for
    compatibility and has no effect: the walk is serial, because a
    thread pool over the first tree level was measured no faster.
    """
    start = time.perf_counter()
    counts = support_counts(db)
    min_sc = min_support_count(params.alpha, db.size)
    order = build_total_order(counts, min_sc)
    rdb = revise_database(db, order)
    nodes = list(build_initial_nodes(rdb, params.maxlen))

    stats = SearchStats()
    results: list[HUOPResult] = []
    search_subtree(None, nodes, params, min_sc, results, stats, bound_log)

    results.sort(key=_result_sort_key(order.rank))
    stats.runtime_ms = int((time.perf_counter() - start) * 1000)
    return results, stats


def unconstrained_maxlen(db: TransactionDatabase, alpha: float) -> int:
    """Length cap that imposes no constraint: the number of frequent
    items (at least 1 so parameters stay well formed)."""
    counts = support_counts(db)
    min_sc = min_support_count(alpha, db.size)
    return max(1, sum(1 for c in counts.values() if c >= min_sc))
