"""Brute-force reference miner.

Everything here recomputes measures straight from the database through
:mod:`huopminer.measures`; no occupancy lists, no bounds.  It exists to
pin down what the fast engine must produce and is viable only on small
vocabularies, so runs are refused beyond a configurable item cap.
"""

from __future__ import annotations

from .database import (
    HUOPResult,
    MiningParams,
    Pattern,
    TransactionDatabase,
    build_total_order,
    min_support_count,
    support_counts,
)
from .errors import InvalidParamsError
from .measures import _mean, uo_in_transaction

DEFAULT_MAX_ITEMS = 25


def _enumerate(db: TransactionDatabase, max_len: int, min_sc: int, max_items: int):
    """Depth-first enumeration over the support-ascending item order.

    Yields ``(pattern, tids)`` for every itemset of length <= max_len
    whose support count reaches ``min_sc``; extensions of a failing
    itemset are skipped, support only shrinks when items are added.
    Refuses databases in which more than ``max_items`` items occur.
    """
    counts = support_counts(db)
    if len(counts) > max_items:
        raise InvalidParamsError(
            f"{len(counts)} items exceed the enumeration cap of {max_items}; "
            "raise max_items to force the run"
        )
    order = build_total_order(counts, min_sc)
    tidsets = {item: set() for item in order.items}
    for tx in db.transactions:
        for item in tx.entries:
            if item in tidsets:
                tidsets[item].add(tx.tid)

    found: list[tuple[Pattern, frozenset[int]]] = []

    def extend(pattern: Pattern, tids: frozenset[int], start: int) -> None:
        for pos in range(start, len(order.items)):
            item = order.items[pos]
            joined = tids & tidsets[item] if pattern else frozenset(tidsets[item])
            if len(joined) >= min_sc:
                grown = pattern + (item,)
                found.append((grown, joined))
                if len(grown) < max_len:
                    extend(grown, joined, pos + 1)

    if max_len >= 1:
        extend((), frozenset(), 0)
    rank = order.rank
    found.sort(key=lambda pf: (len(pf[0]), tuple(rank[i] for i in pf[0])))
    return found


def enumerate_supported(
    db: TransactionDatabase, max_len: int, max_items: int = DEFAULT_MAX_ITEMS
) -> list[tuple[Pattern, int]]:
    """Every itemset with at least one supporting transaction, up to
    ``max_len`` items, with its support count."""
    return [(pattern, len(tids)) for pattern, tids in _enumerate(db, max_len, 1, max_items)]


def brute_force_mine(
    db: TransactionDatabase, params: MiningParams, max_items: int = DEFAULT_MAX_ITEMS
) -> list[HUOPResult]:
    """Reference answer for :func:`huopminer.search.mine`.

    Same result type, same sort order (length, then mining-order
    position), every measure recomputed from raw quantities.  Occupancy
    is :func:`uo_of_pattern`'s mean, taken over the pattern's tidset
    only; tids increase, so sorted tids are in database order.
    """
    min_sc = min_support_count(params.alpha, db.size)
    by_tid = {tx.tid: tx for tx in db.transactions}
    results = []
    for pattern, tids in _enumerate(db, params.maxlen, min_sc, max_items):
        if len(pattern) < params.minlen:
            continue
        uo = _mean(pattern, map(by_tid.__getitem__, sorted(tids)), uo_in_transaction, db.utility_table)
        if uo >= params.beta:
            results.append(HUOPResult(pattern=pattern, sup=len(tids), uo=uo))
    return results
