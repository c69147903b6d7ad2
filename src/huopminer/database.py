"""Quantitative transaction database model.

A transaction holds per-item purchase quantities; a utility table assigns
each item a positive unit utility.  The utility of item ``i`` in
transaction ``T`` is ``quantity * unit_utility`` and the transaction
utility ``tu`` is the sum of those products over the whole transaction.
``tu`` is computed once, when the database is built, and is never
recomputed afterwards, in particular not after infrequent items are
stripped by :func:`revise_database`.

Items are normalized to dense integer ids when a database is built.  Ids
are assigned in ascending label order (numeric for all-digit labels,
lexicographic otherwise), so comparing ids reproduces the natural order
of the original identifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InvalidDatabaseError, InvalidParamsError, MissingUtilityError

# A pattern is a tuple of item ids, kept sorted by the mining order.
Pattern = tuple[int, ...]


@dataclass(frozen=True)
class Transaction:
    """One transaction: ``entries`` maps item id to quantity.

    After :func:`revise_database` the entry order is meaningful (ascending
    mining order); ``tu`` always refers to the full original transaction.
    """

    tid: int
    entries: Mapping[int, float]
    tu: float


@dataclass(frozen=True)
class TransactionDatabase:
    """An ordered collection of transactions plus the unit-utility table.

    ``item_labels[i]`` is the external label of item id ``i``.
    """

    transactions: tuple[Transaction, ...]
    utility_table: Mapping[int, float]
    item_labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.transactions)

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.item_labels)}

    def item_id(self, label: str) -> int:
        return self._label_index[str(label)]

    def labels_of(self, pattern: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.item_labels[i] for i in pattern)


@dataclass(frozen=True)
class TotalOrder:
    """The processing order over frequent items: ascending support count,
    ties broken by ascending item id."""

    items: tuple[int, ...]
    rank: Mapping[int, int]


@dataclass(frozen=True)
class RevisedDatabase:
    """A database view with infrequent items stripped and the remaining
    entries sorted by the total order.

    ``size`` is the size of the original database; transactions left with
    no frequent items are dropped from ``transactions`` but still count
    toward ``size`` (support thresholds are relative to the original
    database).  ``tu`` values are carried over unchanged.
    """

    transactions: tuple[Transaction, ...]
    order: TotalOrder
    utility_table: Mapping[int, float]
    size: int


@dataclass(frozen=True)
class MiningParams:
    """Thresholds and length window for one mining run.

    ``alpha`` is the minimum support ratio, ``beta`` the minimum
    utility-occupancy, and patterns are reported only when their length
    falls within ``[minlen, maxlen]``.
    """

    alpha: float
    beta: float
    minlen: int
    maxlen: int

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidParamsError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 < self.beta <= 1.0:
            raise InvalidParamsError(f"beta must be in (0, 1], got {self.beta}")
        if not isinstance(self.minlen, int) or not isinstance(self.maxlen, int):
            raise InvalidParamsError("minlen and maxlen must be integers")
        if not 1 <= self.minlen <= self.maxlen:
            raise InvalidParamsError(
                f"need 1 <= minlen <= maxlen, got minlen={self.minlen} maxlen={self.maxlen}"
            )


def min_support_count(alpha: float, db_size: int) -> int:
    """Minimum number of supporting transactions implied by ``alpha``."""
    return math.ceil(alpha * db_size)


def compute_tu(entries: Mapping, table: Mapping) -> float:
    """Sum of quantity times unit utility over ``entries``.

    Accepts either label or id keys as long as ``table`` is keyed the same
    way.  Raises :class:`MissingUtilityError` for an item absent from the
    table.
    """
    total = 0.0
    for item, qty in entries.items():
        try:
            eu = table[item]
        except KeyError:
            raise MissingUtilityError(item) from None
        total += qty * eu
    return total


def _label_key(label: str) -> tuple[int, int, str]:
    # All-decimal labels compare numerically, everything else as text.
    if label.isdecimal():
        return (0, int(label), label)
    return (1, 0, label)


def build_database(
    rows: Iterable[tuple[int, Mapping[str, float]]],
    utilities: Mapping[str, float],
) -> TransactionDatabase:
    """Assemble a database from ``(tid, {label: quantity})`` rows.

    Labels are coerced to strings and mapped to dense ids in ascending
    label order.  Quantities must be positive; tids must be positive and
    strictly increasing; every observed item needs a positive, finite
    unit utility; every transaction utility must be finite.
    """
    rows = [(tid, {str(k): v for k, v in entries.items()}) for tid, entries in rows]
    util = {str(k): v for k, v in utilities.items()}

    seen: set[str] = set()
    last_tid = 0
    for tid, entries in rows:
        if not isinstance(tid, int) or tid <= 0:
            raise InvalidDatabaseError(f"transaction ids must be positive integers, got {tid!r}")
        if tid <= last_tid:
            raise InvalidDatabaseError(f"transaction ids must be strictly increasing at tid {tid}")
        last_tid = tid
        for label, qty in entries.items():
            if not qty > 0:  # also rejects nan
                raise InvalidDatabaseError(
                    f"quantity for item {label!r} in transaction {tid} must be positive, got {qty!r}"
                )
            seen.add(label)

    labels = tuple(sorted(seen, key=_label_key))
    for label in labels:
        if label not in util:
            raise MissingUtilityError(label)
        if not 0 < util[label] < math.inf:
            raise InvalidDatabaseError(
                f"unit utility for item {label!r} must be positive and finite, got {util[label]!r}"
            )

    ids = {label: i for i, label in enumerate(labels)}
    table = {ids[label]: float(util[label]) for label in labels}

    transactions = []
    for tid, entries in rows:
        try:
            tu = compute_tu(entries, util)
        except OverflowError:  # an int quantity beyond the float range
            tu = math.inf
        if tu == math.inf:
            raise InvalidDatabaseError(f"utility of transaction {tid} is not finite")
        transactions.append(
            Transaction(tid=tid, entries={ids[k]: v for k, v in entries.items()}, tu=tu)
        )
    return TransactionDatabase(
        transactions=tuple(transactions), utility_table=table, item_labels=labels
    )


def support_counts(db: TransactionDatabase) -> dict[int, int]:
    """Number of transactions containing each item."""
    counts: dict[int, int] = {}
    for tx in db.transactions:
        for item in tx.entries:
            counts[item] = counts.get(item, 0) + 1
    return counts


def build_total_order(counts: Mapping[int, int], min_sup_count: int) -> TotalOrder:
    """Order the items whose support count meets the threshold."""
    items = sorted(
        (i for i, c in counts.items() if c >= min_sup_count),
        key=lambda i: (counts[i], i),
    )
    return TotalOrder(items=tuple(items), rank={item: r for r, item in enumerate(items)})


def revise_database(db: TransactionDatabase, order: TotalOrder) -> RevisedDatabase:
    """Strip items outside ``order`` and sort the rest by it.

    ``tu`` values and the database size are kept from the original
    database; transactions that retain no item are dropped from the
    iteration sequence.
    """
    revised = []
    for tx in db.transactions:
        kept = sorted((i for i in tx.entries if i in order.rank), key=order.rank.__getitem__)
        if kept:
            revised.append(
                Transaction(tid=tx.tid, entries={i: tx.entries[i] for i in kept}, tu=tx.tu)
            )
    return RevisedDatabase(
        transactions=tuple(revised),
        order=order,
        utility_table=db.utility_table,
        size=db.size,
    )
