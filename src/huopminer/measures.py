"""Utility-occupancy measures computed directly from a database.

For a pattern ``X`` and a supporting transaction ``T``:

* ``uo(X, T)`` is the share of ``T``'s transaction utility contributed by
  the items of ``X``; ``uo(X)`` averages that share over all supporting
  transactions.
* ``ruo(X, T)`` is the share contributed by the retained items that come
  strictly after ``X`` in the mining order (the room left for
  extensions); ``ruo(X)`` is its average.
* ``luo(X, T, maxlen)`` keeps only the largest per-item shares after
  ``X``, as many as a pattern could still absorb before hitting
  ``maxlen``; ``rruo`` sums, then averages them.  By construction
  ``rruo <= ruo``.

These functions rescan the database on every call.  They are the slow,
obviously-correct counterpart of :mod:`huopminer.lists`, used to
cross-check it, and the one definition of the ``luo`` in the
``UOTuple``s that iterating a node yields.  The per-transaction ``ruo``,
``luo`` and ``rruo`` skip items outside the mining order and take the
rest in ascending rank, so an original transaction gives exactly what
its revised counterpart gives: an iterated node reads the parsed
database, no revised copy.

A measure asked about an absent pattern raises ``PatternNotSupportedError``,
naming the transaction that lacks it or saying that none holds it.  To
the tail measures, a pattern with an item outside the mining order is
absent from every transaction, original or revised, and raises it too.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Mapping

from .database import Pattern, RevisedDatabase, Transaction, TransactionDatabase
from .errors import InvalidParamsError, PatternNotSupportedError


def _supports(pattern: Pattern, tx: Transaction) -> bool:
    return all(map(tx.entries.__contains__, pattern))


def _checked_pattern(pattern: Iterable[int], tx: Transaction, rank: Mapping[int, int] | None = None) -> Pattern:
    """``pattern`` as a tuple, once ``tx`` is known to contain it; given the
    mining order's ``rank``, an item outside the order counts as absent, as
    it is from the revised transaction."""
    pattern = tuple(pattern)
    if not _supports(pattern, tx) or rank is not None and not all(map(rank.__contains__, pattern)):
        raise PatternNotSupportedError(f"transaction {tx.tid} does not contain {pattern}")
    return pattern


def _mean(
    pattern: Iterable[int],
    transactions: Iterable[Transaction],
    measure: Callable[..., float],
    *args: object,
) -> float:
    """Mean of ``measure(pattern, tx, *args)`` over the transactions that
    contain ``pattern``, summed left to right in database order."""
    pattern = tuple(pattern)
    total = 0.0
    count = 0
    for tx in transactions:
        if _supports(pattern, tx):
            total += measure(pattern, tx, *args)
            count += 1
    if count == 0:
        raise PatternNotSupportedError(f"no transaction contains pattern {pattern}")
    return total / count


def uo_in_transaction(pattern: Iterable[int], tx: Transaction, table: Mapping[int, float]) -> float:
    """Utility share of ``pattern`` within one supporting transaction."""
    total = 0.0
    for item in _checked_pattern(pattern, tx):
        total += tx.entries[item] * table[item]
    return total / tx.tu


def uo_of_pattern(pattern: Iterable[int], db: TransactionDatabase) -> float:
    """Mean utility share over all transactions containing ``pattern``."""
    return _mean(pattern, db.transactions, uo_in_transaction, db.utility_table)


def _tail_occupancies(pattern: tuple[int, ...], tx: Transaction, rdb: RevisedDatabase) -> list[float]:
    """Per-item utility shares of the retained items after ``pattern``,
    in ascending order rank."""
    rank = rdb.order.rank
    last = max(rank[i] for i in pattern)
    table = rdb.database.utility_table
    tail = sorted((i for i in tx.entries if rank.get(i, -1) > last), key=rank.__getitem__)
    return [tx.entries[i] * table[i] / tx.tu for i in tail]


def ruo_in_transaction(pattern: Iterable[int], tx: Transaction, rdb: RevisedDatabase) -> float:
    """Utility share of everything after ``pattern`` in one transaction."""
    return sum(_tail_occupancies(_checked_pattern(pattern, tx, rdb.order.rank), tx, rdb))


def ruo_of_pattern(pattern: Iterable[int], rdb: RevisedDatabase) -> float:
    """Mean remaining utility share over supporting transactions."""
    return _mean(pattern, rdb.transactions, ruo_in_transaction, rdb)


def luo_in_transaction(
    pattern: Iterable[int], tx: Transaction, rdb: RevisedDatabase, maxlen: int
) -> tuple[float, ...]:
    """Largest utility shares after ``pattern``, capped by the room left
    under ``maxlen``, in descending order."""
    pattern = tuple(pattern)
    slots = maxlen - len(pattern)
    if slots < 0:
        raise InvalidParamsError(f"pattern longer than maxlen: {len(pattern)} > {maxlen}")
    _checked_pattern(pattern, tx, rdb.order.rank)
    if slots == 0:
        return ()
    return tuple(heapq.nlargest(slots, _tail_occupancies(pattern, tx, rdb)))


def rruo_in_transaction(
    pattern: Iterable[int], tx: Transaction, rdb: RevisedDatabase, maxlen: int
) -> float:
    """Sum of the capped largest shares after ``pattern`` in one transaction."""
    return sum(luo_in_transaction(pattern, tx, rdb, maxlen))


def rruo_of_pattern(pattern: Iterable[int], rdb: RevisedDatabase, maxlen: int) -> float:
    """Mean of :func:`rruo_in_transaction` over supporting transactions."""
    return _mean(pattern, rdb.transactions, rruo_in_transaction, rdb, maxlen)
