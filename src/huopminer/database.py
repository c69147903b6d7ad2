"""Quantitative transaction database model.

A transaction holds per-item purchase quantities; a utility table assigns
each item a positive unit utility.  The utility of item ``i`` in
transaction ``T`` is ``quantity * unit_utility`` and the transaction
utility ``tu`` is the sum of those products over the whole transaction.
``tu`` is computed once, when the database is built, and is never
recomputed afterwards, in particular not where a
:class:`RevisedDatabase` view leaves infrequent items out.

Each label of the utility table gets a dense integer id when a database
is built, in ascending label order (numeric for all-digit labels, of
any length, lexicographic otherwise), so comparing ids reproduces the
natural order of the original identifiers.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping

from .errors import InvalidDatabaseError, InvalidParamsError, MissingUtilityError

# A pattern is a tuple of item ids, kept sorted by the mining order.
Pattern = tuple[int, ...]


@dataclass(frozen=True)
class HUOPResult:
    """One reported pattern with its support count and mean occupancy."""

    pattern: Pattern
    sup: int
    uo: float


@dataclass(frozen=True, slots=True)
class Transaction:
    """One transaction: ``entries`` maps item id to quantity.

    In ``RevisedDatabase.transactions`` the entry order is meaningful
    (ascending mining order); ``tu`` always refers to the full original
    transaction.
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
    """A view of ``database`` through ``order``: infrequent items stripped,
    the rest sorted by the order, transactions left empty dropped.

    The view holds no copy.  :meth:`kept` walks the original transactions
    and is all the initial scan reads; ``transactions``, the revised copy,
    is built on first access only.  Support thresholds stay relative to
    the size of the original database, and ``tu`` values are carried
    over unchanged.
    """

    database: TransactionDatabase
    order: TotalOrder

    @property
    def utility_table(self) -> Mapping[int, float]:
        return self.database.utility_table

    def kept(self) -> Iterator[tuple[Transaction, list[int]]]:
        """Each original transaction that keeps a frequent item, with the
        ranks of those items, ascending: the frequent item of rank ``r``
        is ``order.items[r]``.  This alone decides which transactions
        survive revision; the ``k``-th pair is the ``k``-th transaction
        of ``transactions``."""
        rank = self.order.rank
        for tx in self.database.transactions:
            ranks = [rank[i] for i in tx.entries if i in rank]
            if ranks:
                ranks.sort()
                yield tx, ranks

    @cached_property
    def transactions(self) -> tuple[Transaction, ...]:
        """The revised transactions, copied from the original ones."""
        items = self.order.items
        return tuple(
            Transaction(
                tid=tx.tid,
                entries={i: tx.entries[i] for i in map(items.__getitem__, ranks)},
                tu=tx.tu,
            )
            for tx, ranks in self.kept()
        )


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
    """Least support count ``m`` with ``m / db_size >= alpha``; the float
    product can round past an integer (``0.07 * 100 > 7``)."""
    count = math.ceil(alpha * db_size)
    if count > 0 and (count - 1) / db_size >= alpha:  # int / int rounds correctly
        count -= 1
    return count


def _label_key(label: str) -> tuple[int, int, str, str]:
    # All-decimal labels compare numerically, everything else as text.  A
    # number's ASCII digits, leading zeros stripped, compare by count, then
    # as text: int() refuses strings past sys.get_int_max_str_digits().
    if label.isdecimal():
        digits = (label if label.isascii() else "".join(str(int(c)) for c in label)).lstrip("0")
        return (0, len(digits), digits, label)
    return (1, 0, "", label)


def _number_items(
    utilities: Mapping[str, float],
) -> tuple[tuple[str, ...], dict[str, int], dict[int, float]]:
    """The labels of ``utilities`` in id order, each label's id and the
    id-keyed table, checked as :func:`build_database` states."""
    util: dict[str, float] = {}
    for key, eu in utilities.items():
        label = str(key)
        if not 0 < eu < math.inf:
            raise InvalidDatabaseError(
                f"unit utility for item {label!r} must be positive and finite, got {eu!r}"
            )
        if label in util:  # keys such as 1 and "1" name one item
            raise InvalidDatabaseError(f"the utility table lists item {label!r} twice")
        util[label] = float(eu)
    labels = tuple(sorted(util, key=_label_key))
    ids = {label: i for i, label in enumerate(labels)}
    table = {i: util[label] for i, label in enumerate(labels)}
    return labels, ids, table


def _transaction(tid: int, by_id: Mapping[int, float], tu: float) -> Transaction:
    """The transaction, once its utility is known to be finite."""
    if tu == math.inf:  # a product past the float range, or an int beyond it
        raise InvalidDatabaseError(f"utility of transaction {tid} is not finite")
    return Transaction(tid, by_id, tu)


def build_database(
    rows: Iterable[tuple[int, Mapping[str, float]]],
    utilities: Mapping[str, float],
) -> TransactionDatabase:
    """Assemble a database from label-keyed ``(tid, {label: quantity})``
    rows, as the spmf parser, the generator and library callers hold
    them.

    Every entry of ``utilities`` is an item: its unit utility must be
    positive and finite, and its label, coerced to a string, gets a dense
    id in ascending label order, whether or not a row lists it.  ``rows``
    is then read once, each row converted to its id-keyed transaction as
    it arrives, so errors come in row order.  Each row's items need an
    entry in ``utilities``; tids must be positive and strictly
    increasing, quantities positive, the labels of the table and of each
    row distinct after coercion and transaction utilities finite.
    """
    labels, ids, table = _number_items(utilities)
    transactions = []
    last_tid = 0
    for tid, entries in rows:
        if not isinstance(tid, int) or tid <= 0:
            raise InvalidDatabaseError(f"transaction ids must be positive integers, got {tid!r}")
        if tid <= last_tid:
            raise InvalidDatabaseError(f"transaction ids must be strictly increasing at tid {tid}")
        last_tid = tid
        by_id: dict[int, float] = {}
        tu = 0.0
        for label, qty in entries.items():
            item = ids.get(str(label))
            if item is None:
                raise MissingUtilityError(str(label))
            if not qty > 0:  # also rejects nan
                raise InvalidDatabaseError(
                    f"quantity for item {str(label)!r} in transaction {tid} must be positive, got {qty!r}"
                )
            by_id[item] = qty
            try:
                tu += qty * table[item]
            except OverflowError:  # an int quantity beyond the float range
                tu = math.inf
        if len(by_id) < len(entries):  # keys such as 1 and "1" name one item
            raise InvalidDatabaseError(f"transaction {tid} lists an item twice")
        transactions.append(_transaction(tid, by_id, tu))
    return TransactionDatabase(
        transactions=tuple(transactions), utility_table=table, item_labels=labels
    )


def support_counts(db: TransactionDatabase) -> dict[int, int]:
    """Number of transactions containing each item, in first-seen order."""
    return Counter(chain.from_iterable(tx.entries for tx in db.transactions))


def build_total_order(counts: Mapping[int, int], min_sup_count: int) -> TotalOrder:
    """Order the items whose support count meets the threshold."""
    items = sorted(
        (i for i, c in counts.items() if c >= min_sup_count),
        key=lambda i: (counts[i], i),
    )
    return TotalOrder(items=tuple(items), rank={item: r for r, item in enumerate(items)})


def revise_database(db: TransactionDatabase, order: TotalOrder) -> RevisedDatabase:
    """View ``db`` through ``order``, copying nothing; see
    :class:`RevisedDatabase`."""
    return RevisedDatabase(database=db, order=order)
