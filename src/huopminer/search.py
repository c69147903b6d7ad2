"""Depth-first pattern search with a length cap and a length-aware bound.

The search walks the set-enumeration tree of the mining order on an
explicit stack, so deep patterns do not hit the recursion limit.  Every
node it reaches is frequent, as the initial nodes are frequent items and
a join returns ``None`` when infrequent, and is reported if it qualifies.
A node already ``maxlen`` long ends its branch before any bound or join,
and the joins that build such leaves get a
:class:`~huopminer.lists.LeafGate`, which drops a leaf whose ``uo`` it
proves below the threshold from the masks alone.  Below the cap a
subtree is explored only when :func:`length_upper_bound`, built on the
capped ``luo`` lists, says an extension could still reach the occupancy
threshold.  That bound sorts the node's column, so two
cheaper lower bounds on it come first, ``uo`` and ``uo + rruo`` (the
mean of ``uo + sum(luo)`` over all the node's tids): a node with either
at ``minuo`` is kept unsorted.  With ``bound_log`` the bound of every
node below the cap is also logged: the log only observes the walk, and
no decision depends on it.  Occupancy is not anti-monotone, so below
the cap it never prunes; ``minlen`` only filters what is reported.  The
walk reads only a node's summary, ``pattern``, ``sup``, ``uo`` and
``rruo``: :mod:`huopminer.lists` builds, joins and bounds the nodes over
their occupancy columns.  A node's children are built in one pass over its
later siblings; the counters are taken per frame, from list lengths.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from types import SimpleNamespace

from .database import (
    HUOPResult,
    MiningParams,
    Pattern,
    TransactionDatabase,
    build_total_order,
    min_support_count,
    revise_database,
    support_counts,
)
from .lists import LeafGate, PatternNode, build_initial_nodes, construct, length_upper_bound


class SearchStats(SimpleNamespace):
    """Counters describing one mining run.

    ``visited_nodes`` counts every node whose summary the search reads,
    the initial single items included, and so not the leaves the leaf
    gate rejects.  ``constructions`` counts join attempts below the
    length cap, ``early_aborts`` the joins that returned no node: those
    found infrequent by the bitmask and the joins into the cap whose
    leaf the gate proved below ``minuo``.  ``lub_prunes`` counts the
    subtrees cut by the bound.  The first three are taken once per frame
    of the walk, from list lengths.  ``support_prunes`` is always 0;
    perfbench still reports it.  The counters compare and print as a
    namespace's attributes do.
    """

    def __init__(self, visited_nodes: int = 0, constructions: int = 0, lub_prunes: int = 0,
                 support_prunes: int = 0, early_aborts: int = 0, runtime_ms: int = 0) -> None:
        super().__init__(visited_nodes=visited_nodes, constructions=constructions, lub_prunes=lub_prunes,
                         support_prunes=support_prunes, early_aborts=early_aborts, runtime_ms=runtime_ms)


def search_subtree(
    exten: Sequence[PatternNode],
    params: MiningParams,
    min_sc: int,
    results: list[HUOPResult],
    stats: SearchStats,
    bound_log: list[tuple[Pattern, float]] | None = None,
) -> None:
    """Walk the tree below the single-item nodes ``exten`` in pre-order,
    siblings in mining order, so ``results`` gets the patterns of each
    length in mining order.  ``min_sc`` is the support count threshold,
    relative to the original database size at every depth.  One stack
    frame per depth keeps only the current path's extension lists alive.
    """
    beta = params.beta
    gate = LeafGate(exten, beta)
    stats.visited_nodes += len(exten)
    stack = [(exten, enumerate(exten))]
    while stack:
        exten, siblings = stack[-1]
        for pos, xa in siblings:
            if xa.uo >= beta and len(xa.pattern) >= params.minlen:
                results.append(HUOPResult(pattern=xa.pattern, sup=xa.sup, uo=xa.uo))
            if len(xa.pattern) == params.maxlen:
                continue
            if bound_log is not None:
                bound_log.append((xa.pattern, length_upper_bound(xa, min_sc)))
            # uo <= uo + rruo <= the bound, so a node passing either
            # pre-check is kept without sorting; only the rest are bounded
            if xa.uo < beta and xa.uo + xa.rruo < beta and length_upper_bound(xa, min_sc) < beta:
                stats.lub_prunes += 1
                continue
            later = exten[pos + 1 :]
            # Descend; this frame's iterator resumes after the subtree.  The
            # children rebind exten, so once a subtree's frame is popped no
            # local keeps its nodes alive while the next children are built.
            leaf = gate if len(xa.pattern) == params.maxlen - 1 else None
            exten = [n for xb in later if (n := construct(None, xa, xb, min_sc, leaf)) is not None]
            stats.constructions += len(later)
            stats.early_aborts += len(later) - len(exten)
            stats.visited_nodes += len(exten)
            stack.append((exten, enumerate(exten)))
            break
        else:
            stack.pop()


def mine(
    db: TransactionDatabase,
    params: MiningParams,
    threads: int = 1,
    bound_log: list[tuple[Pattern, float]] | None = None,
) -> tuple[list[HUOPResult], SearchStats]:
    """Mine all qualifying patterns of ``db`` under ``params``.

    Returns the results sorted by length, then by position in the mining
    order (the order the walk finds each length in), plus the run's
    counters.  ``threads`` is accepted for compatibility and has no
    effect: the walk is serial, because a thread pool over the first
    tree level was measured no faster.
    """
    start = time.perf_counter()
    counts = support_counts(db)
    min_sc = min_support_count(params.alpha, db.size)
    order = build_total_order(counts, min_sc)
    rdb = revise_database(db, order)
    nodes = build_initial_nodes(rdb, params.maxlen)

    stats = SearchStats()
    results: list[HUOPResult] = []
    search_subtree(nodes, params, min_sc, results, stats, bound_log)

    # stable, and the walk appends each length's patterns in mining order
    results.sort(key=lambda r: len(r.pattern))
    stats.runtime_ms = int((time.perf_counter() - start) * 1000)
    return results, stats


def unconstrained_maxlen(db: TransactionDatabase, alpha: float) -> int:
    """The least length cap that imposes no constraint: the number of
    frequent items, at least 1 so parameters stay well formed.  The CLI
    does not call it; the acceptance gate and perfbench do."""
    min_sc = min_support_count(alpha, db.size)
    return max(1, len(build_total_order(support_counts(db), min_sc).items))
