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
from bisect import bisect_right
from collections import Counter, namedtuple
from collections.abc import Iterator, Sequence
from functools import cached_property
from itertools import repeat
from operator import gt
from typing import Iterable, Mapping, NamedTuple

from .errors import InvalidDatabaseError, InvalidParamsError

# A pattern is a tuple of item ids, kept sorted by the mining order.
Pattern = tuple[int, ...]

# Transactions per block of RevisedDatabase.kept(): the block's slices of
# the item and quantity columns and its place column live at one time.
_BLOCK_TRANSACTIONS = 4096

# Entries the TransactionDatabase constructor buffers in two lists before
# it stores them, about 20 kB: a fixed cost beside the columns, whatever
# the rows' lengths.
_BLOCK_ENTRIES = 1024


class HUOPResult(NamedTuple):
    """One reported pattern with its support count and mean occupancy."""

    pattern: Pattern
    sup: int
    uo: float


class Transaction(NamedTuple):
    """One transaction: ``entries`` maps item id to quantity.

    In ``RevisedDatabase.transactions`` the entry order is meaningful
    (ascending mining order); ``tu`` always refers to the full original
    transaction.
    """

    tid: int
    entries: Mapping[int, float]
    tu: float


class _Frozen:
    """A record whose ``__init__`` writes each field named in ``_fields``
    once, straight into the instance ``__dict__``.  The fields compare and
    print as a frozen dataclass's do, and assigning or deleting any
    attribute raises ``AttributeError``.  A ``cached_property`` still
    caches, as it too writes the ``__dict__``."""

    _fields: tuple[str, ...]

    def _values(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class TransactionDatabase(_Frozen):
    """The transactions as flat columns in CSR (compressed sparse row)
    layout, plus the unit-utility table, built from id-keyed
    ``(tid, {item: quantity}, tu)`` rows, any iterable read once, such as
    a :class:`Transaction` sequence: every loader and
    :func:`build_database` stores its rows here, and
    ``TransactionDatabase(db.transactions, db.utility_table,
    db.item_labels) == db``.

    ``utility_table`` maps each item id to its unit utility, stored as a
    float; ``item_labels[i]`` is the external label of item id ``i``.
    Transaction ``p``, 0-based, is the run of entries from ``ends[p - 1]``
    (0 for the first) up to ``ends[p]``: entry ``e`` is item ``items[e]``
    with quantity ``quantities[e]``, in the order its row listed them.
    ``tus[p]`` is its utility, at least each of its entries' utilities as
    every loader sums it (:func:`~huopminer.search.mine` refuses a database
    in which an entry of a frequent item breaks this), and ``tids[p]`` its
    id, a ``range`` when the ids are ``1..n``.  ``ends`` is four bytes
    wide, so a database holds at most 2**32 - 1 entries.
    :attr:`transactions` reads the columns as a sequence of
    :class:`Transaction`.

    The constructor checks the table first: each unit utility must be
    positive and finite, an int past the float range included.  Each row
    is then checked as it arrives, so errors stay in file order.  Its
    utility is a float sum of positive products in every loader, which
    can overflow to infinity or underflow to 0, and a row built directly
    can hold a NaN, negative or int one past the float range.  Tids must
    be positive and strictly increasing; they are stored only once one is
    not its 1-based position, and only then compared.  Every loader
    refuses a quantity that is not positive, NaN included; a row built
    directly can hold one, so each block of quantities is checked as it
    is stored (see :func:`_stored`), and the first such entry is refused,
    naming its transaction and item.

    Each per-entry column is stored at the narrowest width that holds it
    exactly.  Item ids take ``array('B')`` up to 256 labels and ``'i'``
    beyond.  Quantities start in ``array('B')`` and widen once to a list
    at anything it cannot hold: an int past 255, a float such as an spmf
    utility, a Fraction.  A loader's infinite quantity never reaches a
    column: its row's utility is not finite, and the row is rejected.
    Reading an entry back gives a number equal to the one stored, of its
    type; anything else that ``'B'`` takes as an integer, such as
    ``True``, comes back as the int it equals.  The rows' entries are
    buffered in lists and stored once ``_BLOCK_ENTRIES`` have come, as
    ``array.fromlist`` stores a list faster than ``extend`` stores a row,
    and leaves the column as it was when a value does not fit.
    """

    items: array[int]
    quantities: array[int] | list[float]
    ends: array[int]
    tus: array[float]
    tids: Sequence[int]
    utility_table: Mapping[int, float]
    item_labels: tuple[str, ...]

    _fields = ("items", "quantities", "ends", "tus", "tids", "utility_table", "item_labels")

    def __init__(self, rows, utility_table, item_labels) -> None:
        table: dict[int, float] = {}
        for item, eu in utility_table.items():
            try:
                table[item] = unit = float(eu) if eu > 0 else 0.0  # nan is not > 0
            except OverflowError:  # an int past the float range
                eu = unit = math.inf
            if not 0 < unit < math.inf:  # a positive value below the least float too
                raise InvalidDatabaseError(
                    f"unit utility for item {item_labels[item]!r} must be positive and finite, got {eu!r}"
                )
        items = array("B" if len(item_labels) <= 1 << 8 else "i")
        quantities: array[int] | list[float] = array("B")
        ends, tus = array("I"), array("d")
        tids: list[int] | range | None = None
        item_block: list[int] = []
        qty_block: list[float] = []
        for tid, by_id, tu in rows:
            try:
                tus.append(tu)
            except OverflowError:  # an int past the float range
                tu = math.inf
            if not tu < math.inf:  # a product past the float range, an int beyond it, or nan
                raise InvalidDatabaseError(f"utility of transaction {tid} is not finite")
            if not tu > 0:  # 0 from products below the least positive float; shares divide by tu
                why = "underflows to 0" if tu == 0 else f"is {tu!r}, not positive"
                raise InvalidDatabaseError(f"utility of transaction {tid} {why}")
            item_block.extend(by_id)
            qty_block.extend(by_id.values())
            ends.append(len(items) + len(item_block))
            if tids is not None or tid != len(tus):  # tids past 1..n: a list from here on
                if tids is None:
                    tids = [*range(1, len(tus))]
                if not tid > (tids[-1] if tids else 0):
                    raise InvalidDatabaseError(f"transaction ids must be strictly increasing at tid {tid}")
                tids.append(tid)
            if len(item_block) >= _BLOCK_ENTRIES:
                items.fromlist(item_block)
                quantities = _stored(quantities, qty_block, item_block, ends, tids, item_labels)
                item_block, qty_block = [], []
        items.fromlist(item_block)
        quantities = _stored(quantities, qty_block, item_block, ends, tids, item_labels)
        if tids is None:
            tids = range(1, len(tus) + 1)
        vars(self).update(zip(self._fields, (items, quantities, ends, tus, tids, table, item_labels)))

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


class TotalOrder(NamedTuple):
    """The processing order over frequent items: ascending support count,
    ties broken by ascending item id."""

    items: tuple[int, ...]
    rank: Mapping[int, int]


class RevisedDatabase(_Frozen):
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

    _fields = ("database", "order")

    def __init__(self, database, order) -> None:
        vars(self).update(zip(self._fields, (database, order)))

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


class MiningParams(namedtuple("MiningParams", "alpha beta minlen maxlen")):
    """Thresholds and length window for one mining run.

    ``alpha`` is the minimum support ratio, ``beta`` the minimum
    utility-occupancy, and patterns are reported only when their length
    falls within ``[minlen, maxlen]``.  A named tuple, checked however it
    is made: by the constructor, ``_make`` or ``_replace``; ``alpha`` and
    ``beta`` are numbers, ``minlen`` and ``maxlen`` ints.
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, minlen: int, maxlen: int) -> MiningParams:
        for name, ratio in (("alpha", alpha), ("beta", beta)):
            try:
                inside = 0.0 < ratio <= 1.0
            except TypeError:  # a str or None compares with no float
                raise InvalidParamsError(f"{name} must be a number, got {ratio!r}") from None
            if not inside:
                raise InvalidParamsError(f"{name} must be in (0, 1], got {ratio}")
        if not isinstance(minlen, int) or not isinstance(maxlen, int):
            raise InvalidParamsError("minlen and maxlen must be integers")
        if not 1 <= minlen <= maxlen:
            raise InvalidParamsError(f"need 1 <= minlen <= maxlen, got minlen={minlen} maxlen={maxlen}")
        return super().__new__(cls, alpha, beta, minlen, maxlen)

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> MiningParams:
        # namedtuple's _make, which _replace calls, would skip __new__
        return cls(*iterable)


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
    id-keyed table, in id order; the table is taken as it is, for the
    :class:`TransactionDatabase` constructor to check."""
    labels = tuple(sorted(utilities, key=_label_key))
    ids = {label: i for i, label in enumerate(labels)}
    table = {i: utilities[label] for i, label in enumerate(labels)}
    return labels, ids, table


def _stored(
    column: array[int] | list[float],
    values: list[float],
    item_block: list[int],
    ends: array[int],
    tids: list[int] | None,
    labels: tuple[str, ...],
) -> array[int] | list[float]:
    """``column`` with a block's ``values`` appended, widened from
    ``array('B')`` to a list if they need it; see :class:`TransactionDatabase`.  The
    first value that is not positive is refused, named by its item, of
    ``item_block``, and its transaction.  Stored in ``array('B')``, only a
    0 can be one, so the block's bytes are searched for a 0; a list is
    compared with 0 in C, and walked value by value only to find the one
    that fails."""
    first = len(column)  # the block's first entry
    if isinstance(column, array):
        try:
            column.fromlist(values)
        except (OverflowError, TypeError):  # the column is left as it was
            column = column.tolist()  # ints up to 255, each one cached object
    if isinstance(column, array):
        bad = column[first:].tobytes().find(0)
    else:
        column.extend(values)
        bad = -1 if all(map(gt, values, repeat(0))) else next(k for k, qty in enumerate(values) if not qty > 0)
    if bad >= 0:
        p = bisect_right(ends, first + bad)
        raise InvalidDatabaseError(
            f"quantity for item {labels[item_block[bad]]!r} in transaction {p + 1 if tids is None else tids[p]}"
            f" must be positive, got {values[bad]!r}"
        )
    return column


def build_database(
    rows: Iterable[tuple[int, Mapping[str, float]]],
    utilities: Mapping[str, float],
) -> TransactionDatabase:
    """Assemble a database from label-keyed ``(tid, {label: quantity})``
    rows, any iterable: the generator streams them, as library callers may.

    Every entry of ``utilities`` is an item, checked first, by the
    :class:`TransactionDatabase` constructor: its unit utility must be
    positive and finite, and its label, coerced to a string, gets a dense
    id in ascending label order, whether or not a row lists it.  ``rows``
    is then read once, each row converted to its id-keyed transaction as
    it arrives, so errors come in row order.  Each row's items need an
    entry in ``utilities``; tids must be positive and strictly increasing,
    quantities positive, the labels of the table and of each row distinct
    after coercion and transaction utilities finite and, after rounding,
    above 0.
    """
    util: dict[str, float] = {}
    for key, eu in utilities.items():
        label = str(key)
        if label in util:  # keys such as 1 and "1" name one item
            raise InvalidDatabaseError(f"the utility table lists item {label!r} twice")
        util[label] = eu
    labels, ids, table = _number_items(util)

    def id_rows() -> Iterator[tuple[int, dict[int, float], float]]:
        unit = list(map(float, table.values()))  # by id; read once the constructor checked them
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
                    tu += qty * unit[item]
                except OverflowError:  # an int quantity beyond the float range
                    tu = math.inf
            if len(by_id) < len(entries):  # keys such as 1 and "1" name one item
                raise InvalidDatabaseError(f"transaction {tid} lists an item twice")
            yield tid, by_id, tu

    return TransactionDatabase(id_rows(), table, labels)


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
