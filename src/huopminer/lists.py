"""Per-pattern nodes: columnar occupancy storage and the summary derived
from it.

For each supporting transaction a pattern has a utility share there
(``uo``) plus the capped list of the largest shares still available
after it (``luo``).  A node stores only what the search reads, as
columns keyed by transaction id: ``uo_at`` maps each tid to the
pattern's ``uo``, ``last_at`` and ``rruo_at`` to the ``uo`` and
``sum(luo)`` of its last item, computed by the single-item build.  The
node derives from them the support count and the means of ``uo`` and of
``sum(luo)``, and :func:`length_upper_bound` bounds its extensions from
the columns, so the search never touches the database.  Only iterating
a node, which yields its ``UOTuple``s, needs ``luo`` itself, recomputed
from the ``(rdb, maxlen)`` pair that all nodes of one build share as
``source``.

Nodes are built in two places, both as :class:`PatternNode`:

* :func:`build_initial_nodes` scans the parsed database once, through
  the ranks of the total order, and builds the single-item nodes; no
  revised copy of the database is made.  A single-item node keeps the
  scan's compact columns, its tids, shares and remainders in scan
  order, and takes ``sup``, ``uo`` and ``rruo`` from them.  It builds
  its tid-keyed dicts, and drops the compact columns, only when a kept
  join, a bound sort or iteration first reads them; on a wide, sparse
  database whose joins all abort on the masks, no dict is ever built.
* :func:`construct` joins two sibling patterns (same prefix, the
  extending items adjacent in the mining order) by extending the left
  operand with one item.  A pattern's share in a transaction is the sum
  of its items' shares, so ``uo(prefix+a+b) = uo(prefix+a) + uo(b)``.
  The join reads the left operand's ``uo_at``, both masks, and the
  added item's share and remainder columns, ``last_at`` and ``rruo_at``,
  as ``tids(prefix+a) & tids(b)`` is the union's tidset.  That item also
  gives ``luo``, so a joined node shares the later sibling's
  ``last_at``, ``rruo_at`` and ``source`` by reference: every node
  ending in item ``i`` reads the dicts built for ``i``, which may hold
  more tids than the node.

Every node also carries ``bits``, the set of transactions it occurs in
as an int bitmask.  A join intersects the operands' masks first and
counts the bits: that is the union's exact support, so an infrequent
join returns ``None`` without reading a column, and a kept join builds
its ``uo_at`` in one pass over the first operand.

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


class PatternNode:
    """A pattern with its occupancy columns and the summary derived from
    them: support count ``sup`` and mean ``uo``.  The paper's UO-nlist
    and FUO-table of the pattern are both this one node: iterating it
    yields its ``UOTuple``s in ascending tid order, and its ``len`` is
    ``sup``.

    ``uo_at`` maps each supporting tid, in ascending order, to the
    pattern's share there.  ``last_at`` and ``rruo_at`` map tids to the
    share and to ``sum(luo)`` of the pattern's last item alone; joined
    nodes share their last item's dicts, so these may hold tids the
    pattern does not occur in.  ``last_at`` is ``uo_at`` for a single
    item.  Only the tids of ``uo_at`` belong to the node.  ``source`` is
    the shared, read-only ``(rdb, maxlen)`` pair each iterated
    ``UOTuple`` derives its ``luo`` from.  A join reads a left operand's
    ``uo_at``; of a right one it reads the mask and what its last item
    shares: ``last_at``, ``rruo_at`` and ``source``.

    ``bits`` has bit ``k`` set when the pattern occurs at position ``k``
    of the revised database, the ``k``-th transaction that keeps a
    frequent item, so a mask takes one bit per transaction whatever the
    tids are.

    A single-item node from :func:`build_initial_nodes` starts compact:
    instead of the three dicts it holds the scan's columns, a list of
    tids, an ``array('d')`` of shares and a list of remainders, all in
    scan order, from which ``sup``, ``uo`` and ``rruo`` are summed in the
    same order as over the dicts.  The first read of ``uo_at``,
    ``last_at`` or ``rruo_at``, by a kept join, a bound sort or
    iteration, builds the dicts from the columns and drops the columns.
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
        source: tuple[RevisedDatabase, int],
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
        tids: list[int],
        shares: array[float],
        rests: list[float],
        bits: int,
        source: tuple[RevisedDatabase, int],
    ) -> PatternNode:
        """A single-item node over the scan's columns; its dicts are
        built on first read."""
        node = cls.__new__(cls)
        node.pattern = pattern
        node.sup = len(tids)
        node.uo = sum(shares) / node.sup
        node.bits = bits
        node.source = source
        node._columns = (tids, shares, rests)
        return node

    def __getattr__(self, name: str) -> dict[int, float]:
        # Python calls this only when normal lookup fails, as for the
        # unset dict slots of a compact node: build them once and keep them
        if name not in ("uo_at", "last_at", "rruo_at") or self._columns is None:
            raise AttributeError(name)
        tids, shares, rests = self._columns
        self.uo_at = self.last_at = dict(zip(tids, shares))
        self.rruo_at = dict(zip(tids, rests))
        self._columns = None
        return getattr(self, name)

    def __len__(self) -> int:
        return self.sup

    def __iter__(self) -> Iterator[UOTuple]:
        rdb, maxlen = self.source
        transactions = iter(rdb.database.transactions)  # holds the node's tids in order
        for tid, uo in self.uo_at.items():
            tx = next(tx for tx in transactions if tx.tid == tid)
            yield UOTuple(tid, uo, luo_in_transaction(self.pattern[-1:], tx, rdb, maxlen))

    @property
    def tuples(self) -> PatternNode:
        """The node's entries: iterating it yields its ``UOTuple``s."""
        return self

    @property
    def rruo(self) -> float:
        """Mean ``sum(luo)``: the remaining occupancy under the length cap."""
        if self._columns is not None:
            return sum(self._columns[2]) / self.sup
        return sum(map(self.rruo_at.__getitem__, self.uo_at)) / self.sup

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
    rruo_at = node.rruo_at
    values = sorted([uo + rruo_at[tid] for tid, uo in node.uo_at.items()], reverse=True)
    return sum(values[:min_sup_count]) / min_sup_count


def build_initial_nodes(rdb: RevisedDatabase, maxlen: int) -> tuple[PatternNode, ...]:
    """Build the single-item nodes in one pass, returned in mining order.

    Each item's ``luo`` keeps at most ``maxlen - 1`` of the largest
    shares among the items after it in the same transaction.  The scan
    reads ``rdb.kept()``, so ``rdb.transactions`` is never built, and
    walks each transaction's ranks last first.  It appends each entry to
    three compact columns of its item's rank: the tid to a list, the
    share to an ``array('d')``, which keeps no float object, and the
    capped remainder to a list, where consecutive entries share one
    float.  The nodes keep these columns until a kept join, a bound sort
    or iteration reads their dicts.  The top shares seen so far are a
    short descending list, appended to while it has room, else its
    smallest entry replaced by a larger share; it is re-sorted and
    re-summed, largest first, only when it changes.  Each item's
    ``bits`` mark its positions in the revised database, gathered in a
    bytearray holding one bit per transaction.
    """
    if maxlen < 1:
        raise InvalidParamsError(f"maxlen must be at least 1, got {maxlen}")
    items = rdb.order.items
    unit = [rdb.database.utility_table[item] for item in items]
    tids: list[list[int]] = [[] for _ in items]
    shares = [array("d") for _ in items]
    rests: list[list[float]] = [[] for _ in items]
    masks = [bytearray((rdb.database.size + 7) // 8) for _ in items]
    slots = maxlen - 1
    source = (rdb, maxlen)

    for k, (tx, ranks) in enumerate(rdb.kept()):
        byte, bit = k >> 3, 1 << (k & 7)
        tid, tu, entries = tx.tid, tx.tu, tx.entries
        top: list[float] = []
        rest = 0.0
        for r in reversed(ranks):
            share = entries[items[r]] * unit[r] / tu
            tids[r].append(tid)
            shares[r].append(share)
            rests[r].append(rest)
            masks[r][byte] |= bit
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
            (item,), tids[r], shares[r], rests[r], int.from_bytes(masks[r], "little"), source
        )
        for r, item in enumerate(items)
    )


def construct(
    prefix: PatternNode | None,
    xa: PatternNode,
    xb: PatternNode,
    min_sup_count: int,
    gate: LeafGate | None = None,
) -> PatternNode | None:
    """Join sibling nodes ``xa`` and ``xb`` into their union pattern,
    adding per tid the share of ``xb``'s last item to ``xa``'s share.

    It reads ``xa``'s ``uo_at``, both masks, and ``xb``'s ``last_at`` and
    ``rruo_at``: a tid of ``xa`` in ``last_at`` is a tid of the union.
    Returns ``None`` when the union's support, counted from the
    intersected masks, is below ``min_sup_count``.  With a ``gate``, for
    a join into the length cap, it also returns ``None`` when the gate
    proves from the masks that the union's ``uo`` is below ``minuo``, so
    that the node, which would be neither reported nor joined, is never
    built; without one, ``None`` means an infrequent union and nothing
    else.  No tid is read before either decision.  ``prefix`` is not
    read.  It stays first because the benchmark's tracer
    (``perfbench/sample.py``) unpacks ``(prefix, xa, xb)`` from the
    positional arguments.
    """
    bits = xa.bits & xb.bits
    sup = bits.bit_count()
    if sup < min_sup_count or gate is not None and gate.rejects(xa.pattern, xb.pattern[-1], bits, sup):
        return None

    last = xb.last_at
    uo_at = {tid: u + last[tid] for tid, u in xa.uo_at.items() if tid in last}
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

    Plane ``j`` has bit ``k`` set when bit ``j`` of ``ceil(share *
    2**SCALE_BITS)`` is set at position ``k``; a share of 1.0, the whole
    of a one-item transaction, sets plane ``SCALE_BITS`` alone.  The
    node's ``i``-th share sits at the ``i``-th set bit of its ``bits``,
    as the scan appends both in position order, so no tid is looked up.
    """
    shares: Iterable[float] = node.uo_at.values() if node._columns is None else node._columns[1]
    flags = format(node.bits, "b")[::-1].encode().replace(b"0", b"\0")  # bit k as byte k
    scale, low_bits = float(1 << SCALE_BITS), (1 << SCALE_BITS) - 1
    low = bytearray(len(flags))
    high = []
    for k, share in zip(compress(count(), flags), shares):
        w = ceil(share * scale)
        if w > low_bits:  # a share of 1.0 or more: rare
            high.append((k, w >> SCALE_BITS))
            w &= low_bits
        low[k] = w
    low.reverse()  # int() reads the highest position first
    planes = [int(low.translate(_plane_table(j)), 2) for j in range(SCALE_BITS)]
    for k, w in high:
        planes.extend([0] * (SCALE_BITS + w.bit_length() - len(planes)))
        for j in range(w.bit_length()):
            planes[SCALE_BITS + j] |= (w >> j & 1) << k
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
    reported, reading its mask and no tid (a bit-sliced index, O'Neil and
    Quass, SIGMOD 1997).

    A leaf is reported when its float ``uo`` reaches ``minuo``, and that
    ``uo`` is the mean over the leaf's tids of the left-to-right sum of
    its items' shares.  For nonnegative shares it exceeds the exact mean
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
