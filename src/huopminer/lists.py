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
  The dicts of one build all take their keys from one table of position
  ints, ``keys``, filled at the first such read, so that a join finds
  each key by identity.
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
from functools import cache, reduce
from itertools import compress, count, zip_longest
from math import ceil
from operator import add
from typing import NamedTuple

from .database import Pattern, RevisedDatabase
from .errors import InvalidParamsError
from .measures import luo_in_transaction


class UOTuple(NamedTuple):
    """Per-transaction entry: utility share of the pattern and the capped
    descending list of shares still available after it."""

    tid: int
    uo: float
    luo: tuple[float, ...]


def _positions(bits: int, numbers: Iterable[int]) -> Iterator[int]:
    """The set bits of ``bits``, lowest first, each taken from ``numbers``
    (``count()``, or a table of the ints themselves): the database
    positions of a mask, in the order the scan appends a single item's
    columns.  Nothing is read from the mask before the first ``next``."""
    yield from compress(numbers, format(bits, "b")[::-1].encode().replace(b"0", b"\0"))


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
    ``rdb`` and ``maxlen``, and ``keys`` is the list of position ints
    their dicts take their keys from, empty until the first dicts of the
    build are made.  A join reads a left operand's ``uo_at``; of a right
    one it reads the mask and what its last item shares: ``last_at``,
    ``rruo_at`` and ``source``.

    A single-item node from :func:`build_initial_nodes` starts compact:
    instead of the three dicts it holds the scan's columns, an
    ``array('d')`` of shares and one of remainders, both in position
    order, from which ``sup``, ``uo`` and ``rruo`` are summed in the
    same order as over the dicts.  The first read of ``uo_at``,
    ``last_at`` or ``rruo_at``, by a kept join, builds the dicts, keyed
    by the set bits of ``bits`` as taken from ``keys``, and drops the
    columns.  Everything else reads a node of either form through
    ``_read``, which builds nothing.
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
        shares, rests = self._columns
        rdb, _, keys = self.source
        if not keys:  # the first dicts of this build: number every position once
            keys.extend(range(rdb.database.size))
        # every node of one build takes its keys from the same int objects,
        # so a join's lookups match keys by identity
        self.uo_at = self.last_at = dict(zip(_positions(self.bits, keys), shares))
        self.rruo_at = dict(zip(self.uo_at, rests))
        self._columns = None
        return getattr(self, name)

    def _read(self) -> tuple[Iterable[int], Iterable[float], Iterable[float]]:
        """The node's positions, its shares and its last item's remainders,
        each in position order: the compact columns while the node has
        them, else views of its dicts.  No dict is built."""
        if self._columns is not None:
            shares, rests = self._columns
            return _positions(self.bits, count()), shares, rests
        uo_at = self.uo_at
        return uo_at.keys(), uo_at.values(), map(self.rruo_at.__getitem__, uo_at)

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

    Each item's ``luo`` keeps at most ``maxlen - 1`` of the largest
    shares among the items after it in the same transaction.  The scan
    reads ``rdb.kept()``, so ``rdb.transactions`` is never built, and
    walks each transaction's entries of frequent items last rank first,
    reading each entry's item and quantity from the block columns that
    ``kept()`` yields with it and ``tu`` from the database; each share is
    ``quantity * unit / tu``, as the measures compute it.  Each entry at
    position ``p`` goes to its item's two compact columns, the share and
    the capped remainder, each an ``array('d')``, which keeps no float
    object; it sets bit ``p`` of the item's mask, a bytearray of one bit
    per transaction.  The nodes keep these columns until a kept join
    reads their dicts.  The top shares seen so far are a short descending
    list, appended to while it has room, else its smallest entry replaced
    by a larger share; it is re-sorted and re-summed, largest first, only
    when it changes, and not at all after the entry walked last, whose
    remainder is already taken.
    """
    if maxlen < 1:
        raise InvalidParamsError(f"maxlen must be at least 1, got {maxlen}")
    db = rdb.database
    tus, unit = db.tus, db.utility_table
    # each frequent item's columns, indexed by item id
    shares: list[array[float] | None] = [None] * len(db.item_labels)
    rests: list[array[float] | None] = [None] * len(db.item_labels)
    masks: list[bytearray | None] = [None] * len(db.item_labels)
    for item in rdb.order.items:
        shares[item], rests[item] = array("d"), array("d")
        masks[item] = bytearray((db.size + 7) // 8)
    slots = maxlen - 1
    source = (rdb, maxlen, [])

    for p, entries, items, quantities in rdb.kept():
        byte, bit = p >> 3, 1 << (p & 7)
        tu = tus[p]
        top: list[float] = []
        rest = 0.0
        first = entries[0]
        for e in reversed(entries):
            item = items[e]
            share = quantities[e] * unit[item] / tu
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

    return tuple(
        PatternNode._compact(
            (item,), shares[item], rests[item], int.from_bytes(masks[item], "little"), source
        )
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


# A share s is held in fixed point as ceil(s * 2**SCALE_BITS), one byte
# per position below 2**SCALE_BITS, so a leaf's share sum is bounded by
# ANDs and popcounts over bit planes, exactly and from above.
SCALE_BITS = 8


@cache
def _plane_table(j: int) -> bytes:
    """A translate table taking a byte to ASCII ``1`` when its bit ``j``
    is set and to ``0`` otherwise; built on first use, not at import."""
    return bytes(48 | (v >> j & 1) for v in range(256))


def share_planes(node: PatternNode) -> list[int]:
    """Bit planes of a single-item node's fixed-point shares.

    Plane ``j`` has bit ``p`` set when bit ``j`` of ``ceil(share *
    2**SCALE_BITS)`` is set at position ``p``; a share of 1.0, the whole
    of a one-item transaction, sets plane ``SCALE_BITS`` alone.
    """
    positions, shares, _ = node._read()
    scale, low_bits = float(1 << SCALE_BITS), (1 << SCALE_BITS) - 1
    low = bytearray(node.bits.bit_length())
    high = []
    for p, share in zip(positions, shares):
        w = ceil(share * scale)
        if w > low_bits:  # a share of 1.0 or more: rare
            high.append((p, w >> SCALE_BITS))
            w &= low_bits
        low[p] = w
    low.reverse()  # int() reads the highest position first
    planes = [int(low.translate(_plane_table(j)), 2) for j in range(SCALE_BITS)]
    for p, w in high:
        planes.extend([0] * (SCALE_BITS + w.bit_length() - len(planes)))
        for j in range(w.bit_length()):
            planes[SCALE_BITS + j] |= (w >> j & 1) << p
    return planes


def _add_planes(a: list[int], b: list[int]) -> list[int]:
    """The bit-sliced sum of two bit-sliced columns, by ripple carry."""
    total = []
    carry = 0
    for x, y in zip_longest(a, b, fillvalue=0):
        total.append(x ^ y ^ carry)
        carry = x & y | carry & (x ^ y)
    if carry:
        total.append(carry)
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
    ``sum`` of CPython 3.12 and later.  The fixed-point sum ``total`` of
    the leaf's items over its mask bounds the exact share sum from above,
    so the leaf is rejected only when ``total·(1 + n·2**-52) < minuo·sup·
    2**SCALE_BITS`` with ``n = L + sup + 2``: ``n·2**-52 >= 2γ`` while
    ``m·(m + 2) <= 2**54``, so for any ``m`` up to ``2**26``.  The test is
    in integers, so a leaf at ``minuo`` is never rejected.

    The planes of an item are built at its first leaf join whose mask
    passes, and the planes of the parent's items are added once per
    parent; a leaf then reads the parent's sum and its own item's planes,
    high bit first, and stops once the partial sum decides.
    """

    __slots__ = ("_nodes", "_planes", "_num", "_den", "_parent", "_sums")

    def __init__(self, nodes: Iterable[PatternNode], minuo: float) -> None:
        self._nodes = {node.pattern[0]: node for node in nodes}
        self._planes: dict[int, list[int]] = {}
        self._num, self._den = minuo.as_integer_ratio()
        self._parent: Pattern = ()
        self._sums: list[int] = []

    def _item_planes(self, item: int) -> list[int]:
        planes = self._planes.get(item)
        if planes is None:
            planes = self._planes[item] = share_planes(self._nodes[item])
        return planes

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
        if len(own) != len(sums):  # pad the shorter column with empty planes
            width = max(len(own), len(sums))
            sums, own = sums + [0] * (width - len(sums)), own + [0] * (width - len(own))
        total = 0
        slack = 2 * sup  # each column adds below 2**j per position below level j
        for j in reversed(range(len(sums))):  # at level 0 nothing is left unread
            total += ((bits & sums[j]).bit_count() + (bits & own[j]).bit_count()) << j
            if total >= limit or total + (slack << j) - slack < limit:
                break
        return total < limit
