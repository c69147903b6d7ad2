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
its ``uo_at`` in one pass over the first operand.  ``None`` is returned
if and only if the joined pattern would be infrequent.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
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
) -> PatternNode | None:
    """Join sibling nodes ``xa`` and ``xb`` into their union pattern,
    adding per tid the share of ``xb``'s last item to ``xa``'s share.

    It reads ``xa``'s ``uo_at``, both masks, and ``xb``'s ``last_at`` and
    ``rruo_at``: a tid of ``xa`` in ``last_at`` is a tid of the union.
    Returns ``None`` when the union's support, counted from the
    intersected masks, is below ``min_sup_count``; this is the only way
    a join can come back empty.  ``prefix`` is not read.  It stays first
    because the benchmark's tracer (``perfbench/sample.py``) unpacks
    ``(prefix, xa, xb)`` from the positional arguments.
    """
    bits = xa.bits & xb.bits
    if bits.bit_count() < min_sup_count:
        return None

    last = xb.last_at
    uo_at = {tid: u + last[tid] for tid, u in xa.uo_at.items() if tid in last}
    return PatternNode(xa.pattern + (xb.pattern[-1],), uo_at, last, xb.rruo_at, bits, xb.source)
