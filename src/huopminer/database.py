"""Quantitative transaction database model.

A transaction holds per-item purchase quantities; a utility table assigns
each item a positive unit utility.  The utility of item ``i`` in
transaction ``T`` is ``quantity * unit_utility`` and the transaction
utility ``tu`` is the sum of those products over the whole transaction.
``tu`` is computed once, when the database is built, and is never
recomputed afterwards, in particular not where a
:class:`RevisedDatabase` view leaves infrequent items out.

A database keeps its transactions in flat columns, one entry per item
of a transaction, and builds a :class:`Transaction` only when one is
read through :attr:`TransactionDatabase.transactions`.

Each label of the utility table gets a dense integer id when a database
is built, in ascending label order (numeric for all-digit labels, of
any length, lexicographic otherwise), so comparing ids reproduces the
natural order of the original identifiers.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import InvalidDatabaseError, InvalidParamsError

# A pattern is a tuple of item ids, kept sorted by the mining order.
Pattern = tuple[int, ...]

# Transactions per block of RevisedDatabase.kept(): the block's slices of
# the item and quantity columns and its place column live at one time.
_BLOCK_TRANSACTIONS = 4096

# Entries _columns() buffers in two lists before it stores them, about
# 20 kB: a fixed cost beside the columns, whatever the rows' lengths.
_BLOCK_ENTRIES = 1024


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
    """The transactions as flat columns in CSR (compressed sparse row)
    layout, plus the unit-utility table.

    Transaction ``p``, 0-based, is the run of entries from ``ends[p - 1]``
    (0 for the first) up to ``ends[p]``: entry ``e`` is item ``items[e]``
    with quantity ``quantities[e]``, in the order its row listed them.
    ``tus[p]`` is its utility, at least each of its entries' utilities as
    every loader sums it (:func:`~huopminer.search.mine` refuses a database
    in which an entry of a frequent item breaks this), and ``tids[p]`` its id, a ``range`` when the ids are
    ``1..n``.  ``items`` and ``quantities`` are as narrow as their
    values allow, down to one byte per entry, and read back exactly: see
    :func:`_columns`.  ``ends`` is four bytes wide, so a database holds at
    most 2**32 - 1 entries.  ``item_labels[i]`` is the external label of
    item id ``i``.  :attr:`transactions` reads the columns as a sequence
    of :class:`Transaction`.
    """

    items: array[int]
    quantities: array[int] | list[float]
    ends: array[int]
    tus: array[float]
    tids: Sequence[int]
    utility_table: Mapping[int, float]
    item_labels: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.tus)

    @cached_property
    def transactions(self) -> _Transactions:
        """A read-only sequence of the transactions, each built from the
        columns when indexed or iterated."""
        return _Transactions(self)

    def labels_of(self, pattern: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.item_labels[i] for i in pattern)


class _Transactions(Sequence[Transaction]):
    """The transactions of a :class:`TransactionDatabase`, read from its
    columns: ``len`` is O(1), and indexing builds each
    :class:`Transaction` afresh, a slice a tuple of them; iteration
    indexes ``0, 1, ...`` in turn."""

    __slots__ = ("_db",)

    def __init__(self, db: TransactionDatabase) -> None:
        self._db = db

    def __len__(self) -> int:
        return len(self._db.tus)

    def __getitem__(self, p: int | slice) -> Transaction | tuple[Transaction, ...]:
        db = self._db
        p = range(len(db.tus))[p]  # a negative index counts from the end
        if isinstance(p, range):  # the positions of a slice
            return tuple(map(self.__getitem__, p))
        start, end = db.ends[p - 1] if p else 0, db.ends[p]
        return Transaction(
            db.tids[p], dict(zip(db.items[start:end], db.quantities[start:end])), db.tus[p]
        )


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

    The view holds no copy.  :meth:`kept` walks the database's columns
    and is all the initial scan reads; ``transactions``, the revised copy,
    is built on first access only.  Support thresholds stay relative to
    the size of the original database, and ``tu`` values are carried
    over unchanged.
    """

    database: TransactionDatabase
    order: TotalOrder

    def kept(self) -> Iterator[tuple[int, list[int], array[int], array[int] | list[float]]]:
        """Each original transaction that keeps a frequent item, as its
        0-based position ``p`` in ``database.transactions``, the indexes of
        those items' entries, ascending by rank, and the item and quantity
        columns those indexes read.  This alone decides which transactions
        survive revision.

        The columns are read a block of ``_BLOCK_TRANSACTIONS`` transactions
        at a time: each block's items and quantities are sliced once, and
        its entries are numbered from the block's first.  A place column
        holds each entry's place in the mining order, its item's rank plus
        1, or 0 for an infrequent item; each transaction's run of entry
        indexes is filtered on that place and sorted by it, both in C.  The
        slices and the place column live only as long as their block."""
        db = self.database
        by_item = [0] * len(db.item_labels)
        for place, item in enumerate(self.order.items, start=1):
            by_item[item] = place
        ends = db.ends
        base = 0  # the block's first entry
        for first in range(0, len(ends), _BLOCK_TRANSACTIONS):
            block_ends = ends[first : first + _BLOCK_TRANSACTIONS]
            items = db.items[base : block_ends[-1]]
            quantities = db.quantities[base : block_ends[-1]]
            key = list(map(by_item.__getitem__, items)).__getitem__
            start = 0
            for p, end in enumerate(block_ends, start=first):
                end -= base
                entries = sorted(filter(key, range(start, end)), key=key)
                start = end
                if entries:
                    yield p, entries, items, quantities
            base = block_ends[-1]

    @cached_property
    def transactions(self) -> tuple[Transaction, ...]:
        """The revised transactions, copied from the original ones."""
        db = self.database
        return tuple(
            Transaction(
                tid=db.tids[p], entries={items[e]: quantities[e] for e in entries}, tu=db.tus[p]
            )
            for p, entries, items, quantities in self.kept()
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


def _decimal_digits(text: str) -> str:
    """The ASCII digits of a decimal string, leading zeros stripped: the
    one reader of decimal text, for label order, quantities and spmf items."""
    return (text if text.isascii() else "".join(str(int(c)) for c in text)).lstrip("0")


def _label_key(label: str) -> tuple[int, int, str, str]:
    # All-decimal labels compare numerically, everything else as text.  A
    # number's digits compare by count, then as text: int() refuses
    # strings past sys.get_int_max_str_digits().
    if label.isdecimal():
        digits = _decimal_digits(label)
        return (0, len(digits), digits, label)
    return (1, 0, "", label)


def _number_items(
    utilities: Mapping[str, float],
) -> tuple[tuple[str, ...], dict[str, int], dict[int, float]]:
    """The labels of ``utilities`` in id order, each label's id and the
    id-keyed table; the table is taken as it is, unchecked."""
    labels = tuple(sorted(utilities, key=_label_key))
    ids = {label: i for i, label in enumerate(labels)}
    table = {i: utilities[label] for i, label in enumerate(labels)}
    return labels, ids, table


def _columns(
    rows: Iterable[tuple[int, dict[int, float], float]],
    table: dict[int, float],
    labels: tuple[str, ...],
) -> TransactionDatabase:
    """The database of id-keyed ``(tid, {item: quantity}, tu)`` rows, the
    one place every loader stores its transactions.  Each row's utility is
    checked as the row arrives, so errors stay in file order: it sums float
    products of positive numbers, which can overflow to infinity or
    underflow to 0, and a row built directly can hold a NaN or negative
    one.  Tids are stored only once one is not its 1-based position.

    Each per-entry column is stored at the narrowest width that holds it
    exactly.  Item ids take ``array('B')`` up to 256 labels and ``'i'``
    beyond.  Quantities start in ``array('B')`` and widen once to a list
    at anything it cannot hold: an int past 255, a float such as an spmf
    utility, a Fraction.  An infinite quantity never reaches a column:
    its row's utility is not finite, and the row is rejected.  Reading an
    entry back gives a number equal to the one stored, of its type;
    anything else that ``'B'`` takes as an integer, such as ``True``,
    comes back as the int it equals.  The rows' entries are buffered in
    lists and stored once ``_BLOCK_ENTRIES`` have come, as
    ``array.fromlist`` stores a list faster than ``extend`` stores a row,
    and leaves the column as it was when a value does not fit."""
    n = len(labels)
    items = array("B" if n <= 1 << 8 else "i")
    quantities: array[int] | list[float] = array("B")
    ends, tus = array("I"), array("d")
    tids: list[int] | range | None = None
    item_block: list[int] = []
    qty_block: list[float] = []
    for tid, by_id, tu in rows:
        if not tu < math.inf:  # a product past the float range, an int beyond it, or nan
            raise InvalidDatabaseError(f"utility of transaction {tid} is not finite")
        if not tu > 0:  # 0 from products below the least positive float; shares divide by tu
            why = "underflows to 0" if tu == 0 else f"is {tu!r}, not positive"
            raise InvalidDatabaseError(f"utility of transaction {tid} {why}")
        item_block.extend(by_id)
        qty_block.extend(by_id.values())
        ends.append(len(items) + len(item_block))
        tus.append(tu)
        if tids is not None:
            tids.append(tid)
        elif tid != len(tus):
            tids = [*range(1, len(tus)), tid]
        if len(item_block) >= _BLOCK_ENTRIES:
            items.fromlist(item_block)
            quantities = _stored(quantities, qty_block)
            item_block, qty_block = [], []
    items.fromlist(item_block)
    quantities = _stored(quantities, qty_block)
    if tids is None:
        tids = range(1, len(tus) + 1)
    return TransactionDatabase(items, quantities, ends, tus, tids, table, labels)


def _stored(
    column: array[int] | list[float], values: list[float]
) -> array[int] | list[float]:
    """``column`` with ``values`` appended, widened from ``array('B')`` to
    a list if they need it; see :func:`_columns`."""
    if isinstance(column, array):
        try:
            column.fromlist(values)
            return column
        except (OverflowError, TypeError):  # the column is left as it was
            column = column.tolist()  # ints up to 255, each one cached object
    column.extend(values)
    return column


def build_database(
    rows: Iterable[tuple[int, Mapping[str, float]]],
    utilities: Mapping[str, float],
) -> TransactionDatabase:
    """Assemble a database from label-keyed ``(tid, {label: quantity})``
    rows, any iterable: the generator streams them, as library callers may.

    Every entry of ``utilities`` is an item, checked first: its unit
    utility must be positive and finite, and its label, coerced to a
    string, gets a dense id in ascending label order, whether or not a row
    lists it.  ``rows`` is then read once, each row converted to its
    id-keyed transaction as it arrives, so errors come in row order.  Each
    row's items need an entry in ``utilities``; tids must be positive and
    strictly increasing, quantities positive, the labels of the table and
    of each row distinct after coercion and transaction utilities finite
    and, after rounding, above 0.
    """
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
    labels, ids, table = _number_items(util)

    def id_rows() -> Iterator[tuple[int, dict[int, float], float]]:
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
                    raise InvalidDatabaseError(f"no unit utility known for item {str(label)!r}")
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
            yield tid, by_id, tu

    return _columns(id_rows(), table, labels)


def support_counts(db: TransactionDatabase) -> dict[int, int]:
    """Number of transactions containing each item, in first-seen order:
    the count of each id in the item column, as an item is listed at most
    once per transaction."""
    return Counter(db.items)


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
