"""Per-pattern nodes: columnar occupancy storage and the summary derived
from it.

For each supporting transaction a pattern has a utility share there
(``uo``) plus the capped list of the largest shares still available
after it (``luo``).  A node stores only what the search reads, as
columns keyed by transaction id: ``uo_at`` maps each tid to the
pattern's own ``uo`` and ``rruo_at`` to ``sum(luo)`` of its last item,
summed when the single-item nodes are built.  The node derives from
them the support count and the means of ``uo`` and of ``sum(luo)``, and
:func:`length_upper_bound` bounds its extensions from the columns, so
the search never touches the database.  Only the ``tuples`` view needs
``luo`` itself; it recomputes it from the ``(rdb, maxlen)`` pair that
all nodes of one build share as ``source``.

Nodes are built in two places, both through the one
:class:`PatternNode` constructor over these columns:

* :func:`build_initial_nodes` scans the parsed database once, through
  the ranks of the total order, and builds the single-item nodes; no
  revised copy of the database is made.
* :func:`construct` joins two sibling patterns (same prefix, the
  extending items adjacent in the mining order).  Shares add up as
  ``uo(prefix+a+b) = uo(prefix+a) + uo(prefix+b) - uo(prefix)``, one
  dict lookup per operand and tid.  ``luo`` is inherited from the later
  sibling unchanged, so a joined node shares that sibling's ``rruo_at``
  and ``source`` by reference: every node ending in item ``i`` reads
  the dict built for ``i``, which may hold more tids than the node.

Every node also carries ``bits``, the set of transactions it occurs in
as an int bitmask.  A join intersects the operands' masks first and
counts the bits: that is the union's exact support, so an infrequent
join returns ``None`` without reading a column, and a kept join builds
its ``uo_at`` in one pass over the first operand.  ``None`` is returned
if and only if the joined pattern would be infrequent.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .database import Pattern, RevisedDatabase
from .errors import InvalidParamsError, PrefixTupleMissingError
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
    and FUO-table of the pattern are both this one node.

    ``uo_at`` maps each supporting tid, in ascending order, to the
    pattern's share there.  ``rruo_at`` maps tids to ``sum(luo)`` of the
    pattern's last item; joined nodes share their last item's dict, so
    it may hold tids the pattern does not occur in.  Only the tids of
    ``uo_at`` belong to the node.  ``source`` is the shared, read-only
    ``(rdb, maxlen)`` pair the ``tuples`` view derives ``luo`` from.

    ``bits`` has bit ``k`` set when the pattern occurs at position ``k``
    of the revised database, the ``k``-th transaction that keeps a
    frequent item, so a mask takes one bit per transaction whatever the
    tids are.
    """

    __slots__ = ("pattern", "uo_at", "rruo_at", "sup", "uo", "bits", "source")

    def __init__(
        self,
        pattern: Pattern,
        uo_at: dict[int, float],
        rruo_at: dict[int, float],
        bits: int,
        source: tuple[RevisedDatabase, int],
    ) -> None:
        self.pattern = pattern
        self.uo_at = uo_at
        self.rruo_at = rruo_at
        self.sup = len(uo_at)
        self.uo = sum(uo_at.values()) / self.sup
        self.bits = bits
        self.source = source

    @property
    def tuples(self) -> UOTupleView:
        """The node's entries as ``UOTuple``s, ascending tid."""
        return UOTupleView(self)

    @property
    def rruo(self) -> float:
        """Mean ``sum(luo)``: the remaining occupancy under the length cap."""
        return sum(map(self.rruo_at.__getitem__, self.uo_at)) / self.sup

    @property
    def uonl(self) -> PatternNode:
        """The UO-nlist view: ``pattern`` and ``tuples``."""
        return self

    @property
    def fuot(self) -> PatternNode:
        """The FUO-table view: ``sup``, ``uo`` and ``rruo``."""
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


class UOTupleView:
    """A node's ``UOTuple``s in ascending tid order.

    ``len`` is the node's support, in constant time; each ``UOTuple`` is
    built as iteration reaches it, its ``luo`` recomputed from ``source``.
    """

    __slots__ = ("_node",)

    def __init__(self, node: PatternNode) -> None:
        self._node = node

    def __len__(self) -> int:
        return self._node.sup

    def __iter__(self) -> Iterator[UOTuple]:
        node = self._node
        rdb, maxlen = node.source
        transactions = iter(rdb.database.transactions)  # holds the node's tids in order
        for tid, uo in node.uo_at.items():
            tx = next(tx for tx in transactions if tx.tid == tid)
            yield UOTuple(tid, uo, luo_in_transaction(node.pattern[-1:], tx, rdb, maxlen))


def build_initial_nodes(rdb: RevisedDatabase, maxlen: int) -> tuple[PatternNode, ...]:
    """Build the single-item nodes in one pass, returned in mining order.

    Each item's ``luo`` keeps at most ``maxlen - 1`` of the largest
    shares among the items after it in the same transaction.  The scan
    reads ``rdb.kept()``, so ``rdb.transactions`` is never built, keeps
    its columns in lists indexed by rank and walks each transaction's
    ranks last first.  The top shares seen so far are a short
    descending list, appended to while it has room, else its smallest
    entry replaced by a larger share; it is re-sorted and re-summed,
    largest first, only when it changes.  Each item's ``bits`` mark its
    positions in the revised database, gathered in a bytearray holding
    one bit per transaction.
    """
    if maxlen < 1:
        raise InvalidParamsError(f"maxlen must be at least 1, got {maxlen}")
    items = rdb.order.items
    unit = [rdb.utility_table[item] for item in items]
    uo_at: list[dict[int, float]] = [{} for _ in items]
    rruo_at: list[dict[int, float]] = [{} for _ in items]
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
            uo_at[r][tid] = share
            rruo_at[r][tid] = rest
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
        PatternNode((item,), uo_at[r], rruo_at[r], int.from_bytes(masks[r], "little"), source)
        for r, item in enumerate(items)
    )


def construct(
    prefix: PatternNode | None,
    xa: PatternNode,
    xb: PatternNode,
    min_sup_count: int,
) -> PatternNode | None:
    """Join sibling nodes ``xa`` and ``xb`` into their union pattern.

    ``prefix`` is the shared prefix node (``None`` when the siblings are
    single items).  Returns ``None`` when the union's support, counted
    from the intersected masks, is below ``min_sup_count``; this is the
    only way a join can come back empty.
    """
    bits = xa.bits & xb.bits
    if bits.bit_count() < min_sup_count:
        return None

    a = xa.uo_at
    b = xb.uo_at
    if prefix is None:
        uo_at = {tid: u + b[tid] for tid, u in a.items() if tid in b}
    else:
        p = prefix.uo_at
        try:
            uo_at = {tid: u + b[tid] - p[tid] for tid, u in a.items() if tid in b}
        except KeyError as missing:
            raise PrefixTupleMissingError(
                f"prefix {prefix.pattern} has no entry for transaction {missing.args[0]}"
            ) from None
    return PatternNode(xa.pattern + (xb.pattern[-1],), uo_at, xb.rruo_at, bits, xb.source)
