"""Per-pattern nodes: the occupancy list and the summary derived from it.

Each pattern carries one tuple per supporting transaction holding the
pattern's utility share there (``uo``) plus the capped list of the
largest shares still available after it (``luo``).  A pattern's node
holds that list and derives from it the support count and the means of
``uo`` and of ``sum(luo)``, so the search can gate and bound patterns
without touching the database again.

Two ways to build them:

* :func:`build_initial_nodes` scans the revised database once and builds
  the single-item nodes.
* :func:`construct` joins two sibling patterns (same prefix, the
  extending items adjacent in the mining order) by merging their tuple
  lists on transaction id.  Joined tuples inherit ``luo`` from the
  later sibling unchanged; shares add up as
  ``uo(prefix+a+b) = uo(prefix+a) + uo(prefix+b) - uo(prefix)``.

Every node also carries ``bits``, the set of transactions it occurs in
as an int bitmask.  A join intersects the operands' masks first and
counts the bits: that is the union's exact support, so an infrequent
join returns ``None`` without touching a tuple, and a kept join merges
only to gather the matching tuples.  ``None`` is returned if and only if
the joined pattern would be infrequent.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple, Sequence

from .database import Pattern, RevisedDatabase
from .errors import PrefixTupleMissingError


class UOTuple(NamedTuple):
    """Per-transaction entry: utility share of the pattern and the capped
    descending list of shares still available after it."""

    tid: int
    uo: float
    luo: tuple[float, ...]


class PatternNode:
    """A pattern with its tuples (ascending tid) and the summary derived
    from them: support count ``sup`` and mean ``uo``.  The paper's
    UO-nlist and FUO-table of the pattern are both this one node.

    ``bits`` has bit ``k`` set when the pattern occurs in transaction
    ``k`` of one numbering that every node of a search shares:
    :func:`build_initial_nodes` numbers transactions by their index in
    the revised database, so a mask takes one bit per transaction
    whatever the tids are.  Left out, ``bits`` is derived from the tids
    (bit ``tid``), which suits nodes built by hand from small tids.
    """

    __slots__ = ("pattern", "tuples", "sup", "uo", "bits")

    def __init__(
        self, pattern: Pattern, tuples: Sequence[UOTuple], bits: int | None = None
    ) -> None:
        self.pattern = pattern
        self.tuples = tuple(tuples)
        self.sup = len(self.tuples)
        self.uo = sum(t.uo for t in self.tuples) / self.sup
        if bits is None:
            bits = sum(1 << t.tid for t in self.tuples)
        self.bits = bits

    @property
    def rruo(self) -> float:
        """Mean ``sum(luo)``: the remaining occupancy under the length cap."""
        return sum(sum(t.luo) for t in self.tuples) / self.sup

    @property
    def uonl(self) -> PatternNode:
        """The UO-nlist view: ``pattern`` and ``tuples``."""
        return self

    @property
    def fuot(self) -> PatternNode:
        """The FUO-table view: ``sup``, ``uo`` and ``rruo``."""
        return self


def build_initial_nodes(rdb: RevisedDatabase, maxlen: int) -> tuple[PatternNode, ...]:
    """Build the single-item nodes in one pass, returned in mining order.

    Each item's ``luo`` keeps at most ``maxlen - 1`` of the largest
    shares among the items after it in the same transaction.  Its
    ``bits`` mark its positions in ``rdb.transactions``, gathered during
    the scan in a bytearray holding one bit per transaction.
    """
    tuples: dict[int, list[UOTuple]] = {item: [] for item in rdb.order.items}
    masks = {item: bytearray((len(rdb.transactions) + 7) // 8) for item in rdb.order.items}
    slots = maxlen - 1

    table = rdb.utility_table
    for k, tx in enumerate(rdb.transactions):
        byte, bit = k >> 3, 1 << (k & 7)
        items = list(tx.entries)
        shares = [tx.entries[i] * table[i] / tx.tu for i in items]
        for pos, item in enumerate(items):
            if slots > 0:
                luo = tuple(heapq.nlargest(slots, shares[pos + 1 :]))
            else:
                luo = ()
            tuples[item].append(UOTuple(tx.tid, shares[pos], luo))
            masks[item][byte] |= bit

    return tuple(
        PatternNode((item,), tuples[item], int.from_bytes(masks[item], "little"))
        for item in rdb.order.items
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
    sup = bits.bit_count()
    if sup < min_sup_count:
        return None

    b_tuples = xb.tuples
    p_tuples = prefix.tuples if prefix is not None else ()
    n_p = len(p_tuples)
    out: list[UOTuple] = []
    ib = 0
    ip = 0

    # The masks promise ``sup`` shared tids, so ``xb`` holds a tid at
    # least as large as the current one until the last of them is found.
    for tid, uo, _ in xa.tuples:
        eb = b_tuples[ib]
        while eb.tid < tid:
            ib += 1
            eb = b_tuples[ib]
        if eb.tid != tid:
            continue
        if prefix is None:
            uo = uo + eb.uo
        else:
            while ip < n_p and p_tuples[ip].tid < tid:
                ip += 1
            if ip == n_p or p_tuples[ip].tid != tid:
                raise PrefixTupleMissingError(
                    f"prefix {prefix.pattern} has no entry for transaction {tid}"
                )
            uo = uo + eb.uo - p_tuples[ip].uo
        out.append(UOTuple(tid, uo, eb.luo))
        if len(out) == sup:
            break
        ib += 1

    return PatternNode(xa.pattern + (xb.pattern[-1],), out, bits)
