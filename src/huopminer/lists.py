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

The join keeps a running upper bound on the support of the result (the
tuples of the first operand not yet ruled out) and gives up as soon as
that bound sinks below the support threshold, returning ``None``.  The
bound is exact at the end of the scan, so ``None`` is returned if and
only if the joined pattern would be infrequent.
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
    UO-nlist and FUO-table of the pattern are both this one node."""

    __slots__ = ("pattern", "tuples", "sup", "uo")

    def __init__(self, pattern: Pattern, tuples: Sequence[UOTuple]) -> None:
        self.pattern = pattern
        self.tuples = tuple(tuples)
        self.sup = len(self.tuples)
        self.uo = sum(t.uo for t in self.tuples) / self.sup

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
    shares among the items after it in the same transaction.
    """
    tuples: dict[int, list[UOTuple]] = {item: [] for item in rdb.order.items}
    slots = maxlen - 1

    table = rdb.utility_table
    for tx in rdb.transactions:
        items = list(tx.entries)
        shares = [tx.entries[i] * table[i] / tx.tu for i in items]
        for pos, item in enumerate(items):
            if slots > 0:
                luo = tuple(heapq.nlargest(slots, shares[pos + 1 :]))
            else:
                luo = ()
            tuples[item].append(UOTuple(tx.tid, shares[pos], luo))

    return tuple(PatternNode((item,), tuples[item]) for item in rdb.order.items)


def construct(
    prefix: PatternNode | None,
    xa: PatternNode,
    xb: PatternNode,
    min_sup_count: int,
) -> PatternNode | None:
    """Join sibling nodes ``xa`` and ``xb`` into their union pattern.

    ``prefix`` is the shared prefix node (``None`` when the siblings are
    single items).  Returns ``None`` when the scan proves the union's
    support cannot reach ``min_sup_count``; this is the only way a join
    can come back empty.
    """
    a_tuples = xa.tuples
    b_tuples = xb.tuples
    p_tuples = prefix.tuples if prefix is not None else None

    sup_ub = xa.sup
    out: list[UOTuple] = []
    ib = 0
    ip = 0

    for ea in a_tuples:
        while ib < len(b_tuples) and b_tuples[ib].tid < ea.tid:
            ib += 1
        if ib < len(b_tuples) and b_tuples[ib].tid == ea.tid:
            eb = b_tuples[ib]
            if p_tuples is None:
                uo = ea.uo + eb.uo
            else:
                while ip < len(p_tuples) and p_tuples[ip].tid < ea.tid:
                    ip += 1
                if ip == len(p_tuples) or p_tuples[ip].tid != ea.tid:
                    raise PrefixTupleMissingError(
                        f"prefix {prefix.pattern} has no entry for transaction {ea.tid}"
                    )
                uo = ea.uo + eb.uo - p_tuples[ip].uo
            out.append(UOTuple(ea.tid, uo, eb.luo))
            ib += 1
        else:
            sup_ub -= 1
            if sup_ub < min_sup_count:
                return None

    return PatternNode(xa.pattern + (xb.pattern[-1],), out)
