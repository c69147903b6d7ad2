"""Occupancy-list structures: initial build, joins, early aborts, and
agreement with the direct-scan measures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ids_of, small_databases
from huopminer import (
    build_initial_nodes,
    build_total_order,
    construct,
    revise_database,
    support_counts,
)
from huopminer.errors import PrefixTupleMissingError
from huopminer.lists import PatternNode, UOTuple
from huopminer.measures import (
    luo_in_transaction,
    rruo_in_transaction,
    uo_in_transaction,
    uo_of_pattern,
)


@pytest.fixture(scope="module")
def rdb(sample_db):
    return revise_database(sample_db, build_total_order(support_counts(sample_db), 3))


@pytest.fixture(scope="module")
def nodes(sample_db, rdb):
    built = build_initial_nodes(rdb, 3)
    return {sample_db.labels_of(n.pattern)[0]: n for n in built}


def test_initial_nodes_in_mining_order(sample_db, rdb):
    built = build_initial_nodes(rdb, 3)
    assert [sample_db.labels_of(n.pattern)[0] for n in built] == ["c", "a", "d", "e", "b"]


def test_initial_node_c(sample_db, nodes):
    c = nodes["c"]
    assert [t.tid for t in c.uonl.tuples] == [1, 2, 4, 6, 9]
    t6 = c.uonl.tuples[3]
    assert t6.tid == 6
    assert t6.uo == pytest.approx(0.1, abs=5e-4)
    assert t6.luo == pytest.approx((0.5, 1 / 6), abs=5e-4)

    assert c.fuot.sup == 5
    expected_uo = (2 / 63 + 1 / 62 + 1 / 25 + 6 / 60 + 5 / 74) / 5
    expected_rruo = (40 / 63 + 41 / 62 + 24 / 25 + 40 / 60 + 65 / 74) / 5
    assert c.fuot.uo == pytest.approx(expected_uo, abs=1e-12)
    assert c.fuot.rruo == pytest.approx(expected_rruo, abs=1e-12)
    assert c.fuot.uo == pytest.approx(0.05108, abs=5e-4)
    assert c.fuot.rruo == pytest.approx(0.76028, abs=5e-4)


def test_initial_nodes_cap_one_leaves_no_room(rdb):
    for node in build_initial_nodes(rdb, 1):
        assert all(t.luo == () for t in node.uonl.tuples)
        assert node.fuot.rruo == 0.0


def test_tuple_shares_match_direct_scan(sample_db, rdb, nodes):
    by_tid = {tx.tid: tx for tx in rdb.transactions}
    for node in nodes.values():
        for t in node.uonl.tuples:
            direct = uo_in_transaction(node.pattern, by_tid[t.tid], sample_db.utility_table)
            assert t.uo == pytest.approx(direct, abs=1e-12)


def test_construct_two_items(sample_db, nodes):
    joined = construct(None, nodes["c"], nodes["a"], 3)
    assert joined is not None
    assert sample_db.labels_of(joined.pattern) == ("c", "a")
    assert [t.tid for t in joined.uonl.tuples] == [1, 2, 6]
    assert joined.fuot.sup == 3
    assert joined.fuot.uo == pytest.approx((11 / 63 + 22 / 62 + 12 / 60) / 3, abs=1e-12)
    assert joined.fuot.uo == pytest.approx(0.2431, abs=5e-4)
    # the tail room is inherited from the later operand's single-item lists
    expected_rruo = (40 / 63 + 40 / 62 + 40 / 60) / 3
    assert joined.fuot.rruo == pytest.approx(expected_rruo, abs=1e-12)
    assert joined.fuot.rruo == pytest.approx(0.6489, abs=5e-4)
    a_tuples = {t.tid: t for t in nodes["a"].uonl.tuples}
    for t in joined.uonl.tuples:
        assert t.luo == a_tuples[t.tid].luo


def test_construct_aborts_on_disjoint_tids():
    t = lambda tid: UOTuple(tid, 0.5, ())
    xa = PatternNode((0,), (t(1), t(2)))
    xb = PatternNode((1,), (t(3), t(4)))
    assert construct(None, xa, xb, 1) is None


def test_construct_aborts_when_support_cannot_reach_threshold(nodes):
    # pattern {c, a} has support 3; a threshold of 4 must abort the join
    assert construct(None, nodes["c"], nodes["a"], 4) is None


def test_construct_missing_prefix_tuple_is_an_error():
    t = lambda tid, uo: UOTuple(tid, uo, ())
    prefix = PatternNode((0,), (t(1, 0.2),))
    xa = PatternNode((0, 1), (t(1, 0.4), t(2, 0.4)))
    xb = PatternNode((0, 2), (t(2, 0.3),))
    with pytest.raises(PrefixTupleMissingError):
        construct(prefix, xa, xb, 1)


def _supporting_tids(db, pattern):
    return [tx.tid for tx in db.transactions if all(i in tx.entries for i in pattern)]


def _check_node(db, rdb, maxlen, node):
    assert [t.tid for t in node.uonl.tuples] == _supporting_tids(db, node.pattern)
    assert node.fuot.sup == len(node.uonl.tuples)
    by_tid = {tx.tid: tx for tx in rdb.transactions}
    # joined tuples inherit luo from the last item's single-item list,
    # which is what makes the length-aware bound sound at every depth
    last = node.pattern[-1:]
    rruo_total = 0.0
    for t in node.uonl.tuples:
        tx = by_tid[t.tid]
        assert t.uo == pytest.approx(
            uo_in_transaction(node.pattern, tx, db.utility_table), abs=1e-9
        )
        assert t.uo + sum(t.luo) <= 1.0 + 1e-9
        assert list(t.luo) == sorted(t.luo, reverse=True)
        assert t.luo == pytest.approx(luo_in_transaction(last, tx, rdb, maxlen), abs=1e-12)
        rruo_total += rruo_in_transaction(last, tx, rdb, maxlen)
    assert node.fuot.uo == pytest.approx(uo_of_pattern(node.pattern, db), abs=1e-9)
    assert node.fuot.rruo == pytest.approx(rruo_total / node.fuot.sup, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(small_databases(), st.integers(1, 4))
def test_joins_agree_with_direct_scans(db, maxlen):
    rdb = revise_database(db, build_total_order(support_counts(db), 1))
    nodes = build_initial_nodes(rdb, maxlen)

    def walk(prefix, exten, depth_left):
        for pos, xa in enumerate(exten):
            _check_node(db, rdb, maxlen, xa)
            if depth_left == 0:
                continue
            sub = []
            for xb in exten[pos + 1 :]:
                joined = construct(prefix, xa, xb, 1)
                if joined is None:
                    # the abort must be exact: the siblings share no transactions
                    assert not (
                        set(_supporting_tids(db, xa.pattern))
                        & set(_supporting_tids(db, xb.pattern))
                    )
                else:
                    assert joined.fuot.sup <= min(xa.fuot.sup, xb.fuot.sup)
                    sub.append(joined)
            walk(xa, sub, depth_left - 1)

    walk(None, list(nodes), maxlen - 1)


@settings(max_examples=40, deadline=None)
@given(small_databases(), st.integers(2, 4))
def test_construct_returns_none_exactly_when_union_is_infrequent(db, maxlen):
    # for every threshold k at which xa is frequent, the join comes back
    # empty if and only if the union's true support is below k, and a
    # node it returns carries that support; the search relies on this to
    # keep every node construct returns
    rdb = revise_database(db, build_total_order(support_counts(db), 1))
    nodes = build_initial_nodes(rdb, maxlen)

    def walk(prefix, exten, depth_left):
        for pos, xa in enumerate(exten):
            sub = []
            for xb in exten[pos + 1 :]:
                union = xa.pattern + (xb.pattern[-1],)
                true_sup = len(_supporting_tids(db, union))
                for k in range(1, xa.fuot.sup + 1):
                    joined = construct(prefix, xa, xb, k)
                    if true_sup < k:
                        assert joined is None
                    else:
                        assert joined is not None
                        assert joined.fuot.sup == true_sup
                if true_sup >= 1:
                    sub.append(construct(prefix, xa, xb, 1))
            if depth_left > 0:
                walk(xa, sub, depth_left - 1)

    walk(None, list(nodes), maxlen - 1)
