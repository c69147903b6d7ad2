"""Per-pattern nodes: columnar occupancy storage and the summary derived
from it.

For each supporting transaction a pattern has a utility share there
(``uo``) plus the capped list of the largest shares still available
after it (``luo``).  A node stores only what the search reads, as
columns keyed by the transaction's 0-based position ``p`` in the
database: ``uo_at`` maps each position to the pattern's ``uo``,
``last_at`` and ``rruo_at`` to the ``uo`` and ``sum(luo)`` of its last
item, computed by the single-item build.  The node derives from them
the support count and the means of ``uo`` and of ``sum(luo)``, and
:func:`length_upper_bound` bounds its extensions from the columns, so
the search never touches the database.  Only iterating a node, which
yields its ``UOTuple``s, needs ``luo`` itself, recomputed from the
``(rdb, maxlen, keys)`` triple that all nodes of one build share as
``source``.

Nodes are built in two places, both as :class:`PatternNode`:

* :func:`build_initial_nodes` scans the parsed database's columns
  once, each transaction's entries in the ranks of the total order, and
  builds the single-item nodes; no revised copy of the database is
  made.  A single-item node keeps the scan's compact columns, its
  shares and remainders in position order, and takes ``sup``, ``uo``
  and ``rruo`` from them; :func:`length_upper_bound`,
  :func:`share_planes` and iteration read them as they are.  It builds
  its dicts, keyed by the set bits of its mask, and drops the compact
  columns, only when a kept join first reads them; on a wide, sparse
  database whose joins all abort on the masks, no dict is ever built.
  Every position read from a node of one build, compact or as a dict
  key, is an int of one table, ``keys``, filled at the first read of any
  node's positions, so that a join finds each key by identity.
* :func:`construct` joins two sibling patterns (same prefix, the
  extending items adjacent in the mining order) by extending the left
  operand with one item.  A pattern's share in a transaction is the sum
  of its items' shares, so ``uo(prefix+a+b) = uo(prefix+a) + uo(b)``.
  The join reads the left operand's ``uo_at``, both masks, and the
  added item's share and remainder columns, ``last_at`` and ``rruo_at``,
  as the positions of ``prefix+a`` that hold ``b`` are the union's.
  That item also gives ``luo``, so a joined node shares the later
  sibling's ``last_at``, ``rruo_at`` and ``source`` by reference: every
  node ending in item ``i`` reads the dicts built for ``i``, which may
  hold more positions than the node.

Every node also carries ``bits``, the set of its positions as an int
bitmask.  A join intersects the operands' masks first and counts the
bits: that is the union's exact support, so an infrequent join returns
``None`` without reading a column, and a kept join builds its ``uo_at``
in one pass over the first operand.

A join into the length cap builds a leaf, a node that is reported or
dropped on its ``uo`` alone.  The search passes such joins a
:class:`LeafGate`, which holds each item's shares in fixed point as bit
planes over the positions (a bit-sliced index) and bounds the leaf's
share sum from above with ANDs and popcounts over the intersected mask.
When that bound, widened by a proved float margin, is below ``minuo``,
the join returns ``None`` too, again without reading a column.  So
``None`` means an infrequent union or, with a gate, a leaf provably
below ``minuo``; an ungated join returns ``None`` if and only if the
union is infrequent.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator
from functools import reduce
from itertools import compress
from math import ceil
from operator import add
from typing import NamedTuple

from .database import Pattern, RevisedDatabase
from .errors import InvalidDatabaseError, InvalidParamsError
from .measures import luo_in_transaction


class UOTuple(NamedTuple):
    """Per-transaction entry: utility share of the pattern and the capped
    descending list of shares still available after it."""

    tid: int
    uo: float
    luo: tuple[float, ...]


class PatternNode:
    """A pattern with its occupancy columns and the summary derived from
    them: support count ``sup`` and mean ``uo``.  The paper's UO-nlist
    and FUO-table of the pattern are both this one node: iterating it
    yields its ``UOTuple``s in database order, each with the tid of its
    transaction, and its ``len`` is ``sup``.

    ``bits`` has bit ``p`` set when the pattern occurs in
    ``rdb.database.transactions[p]``, so a mask takes one bit per
    transaction whatever the tids are.  ``uo_at`` maps each of those
    positions, in ascending order, to the pattern's share there.
    ``last_at`` and ``rruo_at`` map positions to the share and to
    ``sum(luo)`` of the pattern's last item alone; joined nodes share
    their last item's dicts, so these may hold positions the pattern
    does not occur at.  ``last_at`` is ``uo_at`` for a single item.
    ``source`` is the ``(rdb, maxlen, keys)`` triple the nodes of one
    build share: each iterated ``UOTuple`` derives its ``luo`` from
    ``rdb`` and ``maxlen``, and ``keys`` is the table of position ints
    that every node's positions are read from, empty until the first
    such read.  A join reads a left operand's ``uo_at``; of a right
    one it reads the mask and what its last item shares: ``last_at``,
    ``rruo_at`` and ``source``.

    A single-item node from :func:`build_initial_nodes` starts compact:
    instead of the three dicts it holds the scan's columns, an
    ``array('d')`` of shares and one of remainders, both in position
    order, from which ``sup``, ``uo`` and ``rruo`` are summed in the
    same order as over the dicts.  The first read of ``uo_at``,
    ``last_at`` or ``rruo_at``, by a kept join, builds the dicts from
    what ``_read`` returns and drops the columns.  Everything else reads
    a node of either form through ``_read`` too, which builds nothing.
    """

    __slots__ = (
        "pattern", "uo_at", "last_at", "rruo_at", "sup", "uo", "bits", "source", "_columns"
    )

    def __init__(
        self,
        pattern: Pattern,
        uo_at: dict[int, float],
        last_at: dict[int, float],
        rruo_at: dict[int, float],
        bits: int,
        source: tuple[RevisedDatabase, int, list[int]],
    ) -> None:
        self.pattern = pattern
        self.uo_at = uo_at
        self.last_at = last_at
        self.rruo_at = rruo_at
        self.sup = len(uo_at)
        self.uo = sum(uo_at.values()) / self.sup
        self.bits = bits
        self.source = source
        self._columns = None

    @classmethod
    def _compact(
        cls,
        pattern: Pattern,
        shares: array[float],
        rests: array[float],
        bits: int,
        source: tuple[RevisedDatabase, int, list[int]],
    ) -> PatternNode:
        """A single-item node over the scan's columns; its dicts are
        built on first read."""
        node = cls.__new__(cls)
        node.pattern = pattern
        node.sup = len(shares)
        node.uo = sum(shares) / node.sup
        node.bits = bits
        node.source = source
        node._columns = (shares, rests)
        return node

    def __getattr__(self, name: str) -> dict[int, float]:
        # Python calls this only when normal lookup fails, as for the
        # unset dict slots of a compact node: build them once and keep them
        if name not in ("uo_at", "last_at", "rruo_at") or self._columns is None:
            raise AttributeError(name)
        positions, shares, rests = self._read()
        self.uo_at = self.last_at = dict(zip(positions, shares))
        self.rruo_at = dict(zip(self.uo_at, rests))
        self._columns = None
        return getattr(self, name)

    def _read(self) -> tuple[Iterable[int], Iterable[float], Iterable[float]]:
        """The node's positions, its shares and its last item's remainders,
        each in position order: :meth:`_positions` and the compact columns
        while the node has them, else views of its dicts.  No dict is built."""
        if self._columns is not None:
            shares, rests = self._columns
            return self._positions(), shares, rests
        uo_at = self.uo_at
        return uo_at.keys(), uo_at.values(), map(self.rruo_at.__getitem__, uo_at)

    def _positions(self) -> Iterator[int]:
        """The set bits of ``bits``, lowest first, as the scan appends a
        single item's columns.  Each is an int of the build's ``keys``
        table, filled at the first ``next`` of any node's positions, so
        every dict of one build matches its keys by identity."""
        rdb, _, keys = self.source
        if not keys:
            keys.extend(range(rdb.database.size))
        yield from compress(keys, format(self.bits, "b")[::-1].encode().replace(b"0", b"\0"))

    def __len__(self) -> int:
        return self.sup

    def __iter__(self) -> Iterator[UOTuple]:
        rdb, maxlen, _ = self.source
        positions, shares, _ = self._read()
        for p, uo in zip(positions, shares):
            tx = rdb.database.transactions[p]
            yield UOTuple(tx.tid, uo, luo_in_transaction(self.pattern[-1:], tx, rdb, maxlen))

    @property
    def tuples(self) -> PatternNode:
        """The node's entries: iterating it yields its ``UOTuple``s."""
        return self

    @property
    def rruo(self) -> float:
        """Mean ``sum(luo)``: the remaining occupancy under the length cap."""
        return sum(self._read()[2]) / self.sup

    @property
    def uonl(self) -> PatternNode:
        """The UO-nlist: ``pattern`` and ``tuples``."""
        return self

    @property
    def fuot(self) -> PatternNode:
        """The FUO-table: ``sup``, ``uo`` and ``rruo``."""
        return self


def length_upper_bound(node: PatternNode, min_sup_count: int) -> float:
    """Upper bound on the mean occupancy of any extension reachable from
    this node under the length cap its ``luo`` lists were built for.

    Per supporting transaction the pattern's own share plus everything
    an extension could still absorb is ``uo + sum(luo)``; any frequent
    extension is supported by at least ``min_sup_count`` of these
    transactions, so the mean of the ``min_sup_count`` largest such
    values bounds its occupancy.
    """
    _, shares, rests = node._read()
    values = sorted(map(add, shares, rests), reverse=True)
    return sum(values[:min_sup_count]) / min_sup_count


def build_initial_nodes(rdb: RevisedDatabase, maxlen: int) -> tuple[PatternNode, ...]:
    """Build the single-item nodes in one pass, returned in mining order.

    Each item's ``luo`` keeps at most ``maxlen - 1`` of the largest shares
    among the items after it in the same transaction.  The scan reads
    ``rdb.kept()``, so ``rdb.transactions`` is never built, and walks each
    transaction's entries of frequent items last rank first, reading each
    entry's item and quantity from the block columns that ``kept()`` yields
    with it and ``tu`` from the database; each share is ``quantity * unit /
    tu``, as the measures compute it.  No share exceeds 1, the contract the
    planes of :func:`share_planes` rest on: every loader sums ``tu`` from
    these same nonnegative products, and a float sum is never below one of
    its terms.  A directly built database can break it, with a ``tu`` below
    an entry's utility or not a number, or an int quantity past the float
    range; the scan then raises ``InvalidDatabaseError`` naming the tid and
    the item.  Each entry at position ``p`` goes to its item's two compact
    ``array('d')`` columns, the share and the capped remainder, which keep
    no float object, and sets bit ``p`` of the item's mask, a bytearray of
    one bit per transaction, dropped as its int is made; the nodes keep the
    columns until a kept join reads their dicts.  The top shares seen so far
    are a short descending list, appended to while it has room, else its
    smallest entry replaced by a larger share; it is re-sorted and
    re-summed, largest first, only when it changes, and not at all after the
    entry walked last, whose remainder is already taken.
    """
    if maxlen < 1:
        raise InvalidParamsError(f"maxlen must be at least 1, got {maxlen}")
    db = rdb.database
    tus, unit = db.tus, db.utility_table
    # each frequent item's columns, indexed by item id
    shares: list[array[float] | None] = [None] * len(db.item_labels)
    rests: list[array[float] | None] = [None] * len(db.item_labels)
    masks: list[bytearray | int | None] = [None] * len(db.item_labels)
    for item in rdb.order.items:
        shares[item], rests[item] = array("d"), array("d")
        masks[item] = bytearray((db.size + 7) // 8)
    slots = maxlen - 1
    source = (rdb, maxlen, [])

    try:
        for p, entries, items, quantities in rdb.kept():
            byte, bit = p >> 3, 1 << (p & 7)
            tu = tus[p]
            top: list[float] = []
            rest = 0.0
            first = entries[0]
            for e in reversed(entries):
                item = items[e]
                share = quantities[e] * unit[item] / tu
                if not share <= 1:  # the contract on shares, stated above; refuses nan too
                    label, tid = db.item_labels[item], db.tids[p]
                    raise InvalidDatabaseError(f"share of item {label!r} in transaction {tid} is {share!r}, not at most 1")
                shares[item].append(share)
                rests[item].append(rest)
                masks[item][byte] |= bit
                if e == first:  # no entry is left to take a remainder
                    break
                if len(top) < slots:
                    top.append(share)
                elif top and share > top[-1]:
                    top[-1] = share
                else:
                    continue
                if len(top) > 1 and share > top[-2]:  # only the new entry can be out of place
                    top.sort(reverse=True)
                rest = sum(top)
    except OverflowError:  # an int quantity past the float range: its share is inf
        label, tid = db.item_labels[item], db.tids[p]
        raise InvalidDatabaseError(f"share of item {label!r} in transaction {tid} is inf, not at most 1") from None

    for item in rdb.order.items:  # each bytearray is freed as its int replaces it
        masks[item] = int.from_bytes(masks[item], "little")
    return tuple(
        PatternNode._compact((item,), shares[item], rests[item], masks[item], source)
        for item in rdb.order.items
    )


def construct(
    prefix: PatternNode | None,
    xa: PatternNode,
    xb: PatternNode,
    min_sup_count: int,
    gate: LeafGate | None = None,
) -> PatternNode | None:
    """Join sibling nodes ``xa`` and ``xb`` into their union pattern,
    adding per position the share of ``xb``'s last item to ``xa``'s.

    It reads ``xa``'s ``uo_at``, both masks, and ``xb``'s ``last_at`` and
    ``rruo_at``: a position of ``xa`` in ``last_at`` is one of the union.
    Returns ``None`` when the union's support, counted from the
    intersected masks, is below ``min_sup_count``.  With a ``gate``, for
    a join into the length cap, it also returns ``None`` when the gate
    proves from the masks that the union's ``uo`` is below ``minuo``, so
    that the node, which would be neither reported nor joined, is never
    built; without one, ``None`` means an infrequent union and nothing
    else.  No column is read before either decision.  ``prefix`` is not
    read.  It stays first because the benchmark's tracer
    (``perfbench/sample.py``) unpacks ``(prefix, xa, xb)`` from the
    positional arguments.
    """
    bits = xa.bits & xb.bits
    sup = bits.bit_count()
    if sup < min_sup_count or gate is not None and gate.rejects(xa.pattern, xb.pattern[-1], bits, sup):
        return None

    last = xb.last_at
    uo_at = {p: u + last[p] for p, u in xa.uo_at.items() if p in last}
    return PatternNode(xa.pattern + (xb.pattern[-1],), uo_at, last, xb.rruo_at, bits, xb.source)


# A share s weighs ceil(s * 2**SCALE_BITS) in fixed point, held less one, so
# a leaf's share sum is bounded from above by ANDs and popcounts over planes.
SCALE_BITS = 8
# per plane j, a translate table: a byte to ASCII 1 if its bit j is set, else 0
_PLANE_TABLES = tuple(bytes(48 | (v >> j & 1) for v in range(256)) for j in range(SCALE_BITS))


def share_planes(node: PatternNode) -> list[int]:
    """The ``SCALE_BITS`` bit planes of a single-item node's shares: plane
    ``j`` has bit ``p`` set when bit ``j`` of ``ceil(share * 2**SCALE_BITS) -
    1``, the share's weight less one, is set at position ``p``; no share
    exceeds 1 (see :func:`build_initial_nodes`).  A share that is not
    positive, as one that underflowed to 0.0, is stored as 0: it weighs 1."""
    positions, shares, _ = node._read()
    scale = float(1 << SCALE_BITS)
    low = bytearray(node.bits.bit_length())
    for p, share in zip(positions, shares):
        low[p] = ceil(share * scale) - 1 if share > 0.0 else 0
    low.reverse()  # int() reads the highest position first
    return [int(low.translate(table), 2) for table in _PLANE_TABLES]


def _add_planes(a: list[int], b: list[int]) -> list[int]:
    """Ripple-carry sum of two bit-sliced columns of a width that holds it."""
    total = []
    carry = 0
    for x, y in zip(a, b):
        total.append(x ^ y ^ carry)
        carry = x & y | carry & (x ^ y)
    return total


class LeafGate:
    """Rejects a join into the length cap whose node could not be
    reported, reading its mask and no column (a bit-sliced index, O'Neil
    and Quass, SIGMOD 1997).

    A leaf is reported when its float ``uo`` reaches ``minuo``, and that
    ``uo`` is the mean over the leaf's positions of the left-to-right sum
    of its items' shares.  For nonnegative shares it exceeds the exact mean
    by a factor of at most ``1 + γ`` with ``γ = m·u / (1 - m·u)``, ``m =
    L + sup`` and ``u = 2**-53``, and by twice that with the compensated
    ``sum`` of CPython 3.12 and later.  The sum ``total`` of the leaf's
    items' weights over its mask bounds the exact share sum from above,
    so the leaf is rejected only when ``total·(1 + n·2**-52) < minuo·sup·
    2**SCALE_BITS`` with ``n = L + sup + 2``: ``n·2**-52 >= 2γ`` while
    ``m·(m + 2) <= 2**54``, so for any ``m`` up to ``2**26``.  The test is
    in integers, so a leaf at ``minuo`` is never rejected.

    An item's planes hold each weight less one (see :func:`share_planes`),
    and every position of the mask holds every item, so ``total`` starts at
    ``L·sup``.  The planes, built at an item's first leaf join whose mask
    passes, are padded to the width ``len(nodes)`` items need, and a
    parent's items are added once per parent.  A leaf under a parent of
    ``k`` items reads the parent's sum and its own planes from level ``(k
    << SCALE_BITS).bit_length() - 1`` down, until the partial sum decides.
    """

    __slots__ = ("_nodes", "_planes", "_padding", "_num", "_den", "_parent", "_sums")

    def __init__(self, nodes: Iterable[PatternNode], minuo: float) -> None:
        self._nodes = {node.pattern[0]: node for node in nodes}
        self._planes: dict[int, list[int]] = {}
        self._padding = [0] * ((len(self._nodes) << SCALE_BITS).bit_length() - SCALE_BITS)
        self._num, self._den = minuo.as_integer_ratio()
        self._parent: Pattern = ()
        self._sums: list[int] = []

    def _item_planes(self, item: int) -> list[int]:
        if item not in self._planes:
            self._planes[item] = share_planes(self._nodes[item]) + self._padding
        return self._planes[item]

    def rejects(self, parent: Pattern, item: int, bits: int, sup: int) -> bool:
        """Whether the leaf ``parent + (item,)`` over the positions
        ``bits``, ``sup`` of them, has a ``uo`` provably below ``minuo``."""
        if parent is not self._parent:  # the walk joins one parent's leaves in a row
            self._parent = parent
            self._sums = reduce(_add_planes, map(self._item_planes, parent))
        sums, own = self._sums, self._item_planes(item)
        # least total that cannot be rejected: the rule, solved for total
        n = len(parent) + 3 + sup
        limit = -(-(self._num * sup << SCALE_BITS + 52) // (self._den * ((1 << 52) + n)))
        total = (len(parent) + 1) * sup  # the planes hold each weight less one
        slack = 2 * sup  # each column adds below 2**j per position below level j
        for j in reversed(range((len(parent) << SCALE_BITS).bit_length())):
            total += ((bits & sums[j]).bit_count() + (bits & own[j]).bit_count()) << j
            if total >= limit or total + (slack << j) - slack < limit:
                break
        return total < limit
