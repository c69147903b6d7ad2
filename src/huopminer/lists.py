"""Compact per-pattern structures:  occupancy lists and their summaries.

Each pattern carries one tuple per supporting transaction holding the
pattern's utility share there (``uo``) plus the capped list of the
largest shares still available after it (``luo``).  A summary table keeps
the support count and the means of ``uo`` and of ``sum(luo)`` so the
search can gate and bound patterns without touching the database again.

Two ways to build them:

* :func:`build_initial_nodes` scans the revised database once and builds
  the single-item structures.
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
from dataclasses import dataclass

from .database import Pattern, RevisedDatabase
from .errors import PrefixTupleMissingError


@dataclass(frozen=True)
class UOTuple:
    """Per-transaction entry: utility share of the pattern and the capped
    descending list of shares still available after it."""

    tid: int
    uo: float
    luo: tuple[float, ...]


@dataclass(frozen=True)
class UONList:
    """All per-transaction entries of one pattern, ascending tid."""

    pattern: Pattern
    tuples: tuple[UOTuple, ...]


@dataclass(frozen=True)
class FUOTable:
    """Summary of a list: support count, mean ``uo``, mean ``sum(luo)``."""

    sup: int
    uo: float
    rruo: float


@dataclass(frozen=True)
class PatternNode:
    """A pattern with its list and summary, as handled by the search."""

    uonl: UONList
    fuot: FUOTable

    @property
    def pattern(self) -> Pattern:
        return self.uonl.pattern


def _make_node(pattern: Pattern, tuples: list[UOTuple], uo_sum: float, rruo_sum: float) -> PatternNode:
    sup = len(tuples)
    return PatternNode(
        uonl=UONList(pattern=pattern, tuples=tuple(tuples)),
        fuot=FUOTable(sup=sup, uo=uo_sum / sup, rruo=rruo_sum / sup),
    )


def build_initial_nodes(rdb: RevisedDatabase, maxlen: int) -> tuple[PatternNode, ...]:
    """Build the single-item nodes in one pass, returned in mining order.

    Each item's ``luo`` keeps at most ``maxlen - 1`` of the largest
    shares among the items after it in the same transaction.
    """
    tuples: dict[int, list[UOTuple]] = {item: [] for item in rdb.order.items}
    uo_sums = {item: 0.0 for item in rdb.order.items}
    rruo_sums = {item: 0.0 for item in rdb.order.items}
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
            tuples[item].append(UOTuple(tid=tx.tid, uo=shares[pos], luo=luo))
            uo_sums[item] += shares[pos]
            rruo_sums[item] += sum(luo)

    return tuple(
        _make_node((item,), tuples[item], uo_sums[item], rruo_sums[item])
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
    single items).  Returns ``None`` when the scan proves the union's
    support cannot reach ``min_sup_count``; this is the only way a join
    can come back empty.
    """
    pattern = xa.pattern + (xb.pattern[-1],)
    a_tuples = xa.uonl.tuples
    b_tuples = xb.uonl.tuples
    p_tuples = prefix.uonl.tuples if prefix is not None else None

    sup_ub = xa.fuot.sup
    out: list[UOTuple] = []
    uo_sum = 0.0
    rruo_sum = 0.0
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
            out.append(UOTuple(tid=ea.tid, uo=uo, luo=eb.luo))
            uo_sum += uo
            rruo_sum += sum(eb.luo)
            ib += 1
        else:
            sup_ub -= 1
            if sup_ub < min_sup_count:
                return None

    return _make_node(pattern, out, uo_sum, rruo_sum)
