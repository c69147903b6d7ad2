"""Occupancy-list structures: initial build, joins, early aborts, and
agreement with the direct-scan measures."""

import dataclasses
import io
import math
import operator
import tracemalloc
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import ids_of, results_by_label, small_databases
from huopminer import (
    MiningParams,
    build_database,
    build_initial_nodes,
    build_total_order,
    construct,
    length_upper_bound,
    min_support_count,
    mine,
    parse_quantity_profit,
    parse_spmf_utility,
    revise_database,
    support_counts,
)
from huopminer import database as hdb
from huopminer.errors import InvalidParamsError
from huopminer.lists import SCALE_BITS, LeafGate, PatternNode, share_planes
from huopminer.measures import (
    luo_in_transaction,
    rruo_in_transaction,
    uo_in_transaction,
    uo_of_pattern,
)
from huopminer.oracle import brute_force_mine


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
    t6 = next(t for t in c.uonl.tuples if t.tid == 6)
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


@pytest.mark.parametrize("maxlen", [0, -1])
def test_initial_nodes_reject_a_cap_below_one(rdb, maxlen):
    # a cap below 1 leaves no room for the item itself
    with pytest.raises(InvalidParamsError):
        build_initial_nodes(rdb, maxlen)


def test_initial_nodes_build_no_revised_copy(sample_db):
    # the scan and the tuples view both read the parsed database through
    # the order; neither builds the revised transactions
    rdb = revise_database(sample_db, build_total_order(support_counts(sample_db), 3))
    for node in build_initial_nodes(rdb, 3):
        assert len(list(node.uonl.tuples)) == node.fuot.sup
    assert "transactions" not in vars(rdb)


def test_initial_bits_number_database_positions():
    # tid 2 holds only the infrequent z and drops out of the revised
    # database, but positions number the parsed database, so tid 3 sits
    # at position 2
    db = build_database(
        [(1, {"a": 1, "b": 1}), (2, {"z": 3}), (3, {"a": 2, "b": 1})],
        {"a": 1, "b": 1, "z": 1},
    )
    rdb = revise_database(db, build_total_order(support_counts(db), 2))
    nodes = {db.labels_of(n.pattern)[0]: n for n in build_initial_nodes(rdb, 3)}
    assert nodes["a"].bits == 0b101
    assert nodes["b"].bits == 0b101
    assert list(nodes["a"].uo_at) == [0, 2]


def _scan_and_mine(db, alpha, maxlen):
    """What the scan and the walk give, compared exactly: the node columns,
    masks and dicts, the revised transactions, and mine's results, bound
    log and counters but its runtime."""
    rdb = revise_database(db, build_total_order(support_counts(db), min_support_count(alpha, db.size)))
    nodes = build_initial_nodes(rdb, maxlen)
    columns = [(n.pattern, [list(c) for c in n._columns], n.bits) for n in nodes]
    dicts = [(n.uo_at, n.rruo_at) for n in nodes]
    log = []
    results, stats = mine(db, MiningParams(alpha, 0.2, 1, maxlen), bound_log=log)
    counters = dataclasses.asdict(stats)
    del counters["runtime_ms"]
    return (
        columns,
        dicts,
        rdb.transactions,
        [(r.pattern, r.sup, r.uo.hex()) for r in results],
        [(pattern, bound.hex()) for pattern, bound in log],
        counters,
    )


# the transactions at positions 0, 2, 3 and 7 hold only infrequent items:
# with blocks of 3 they start the first block, end it, start the second
# and end the last, partial one
_EDGES = build_database(
    [(1, {"z": 1}), (2, {"a": 1, "b": 2}), (3, {"y": 1}), (4, {"x": 2}),
     (5, {"a": 2, "b": 1, "c": 3}), (6, {"a": 1, "c": 1}), (7, {"b": 4, "c": 1}), (8, {"w": 1})],
    {"a": 3, "b": 1, "c": 2, "w": 1, "x": 1, "y": 1, "z": 1},
)


@settings(max_examples=100, deadline=None)
@given(
    small_databases(max_transactions=20),
    st.integers(1, 8),
    st.sampled_from([0.1, 0.25, 0.4, 0.6]),
    st.integers(1, 4),
)
@example(_EDGES, 3, 0.25, 3)
@example(_EDGES, 1, 0.25, 2)
def test_scan_blocks_change_nothing(db, block, alpha, maxlen):
    # kept() reads the columns a block of transactions at a time, with
    # entries numbered from the block's first; blocks of 1 to 8 must give
    # exactly what one block larger than the database gives
    with mock.patch.object(hdb, "_BLOCK_TRANSACTIONS", db.size + 1):
        want = _scan_and_mine(db, alpha, maxlen)
    with mock.patch.object(hdb, "_BLOCK_TRANSACTIONS", block):
        assert _scan_and_mine(db, alpha, maxlen) == want


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


def test_tuples_view_of_a_joined_node(nodes):
    joined = construct(None, nodes["c"], nodes["a"], 3)
    # the joined node shares a's share and remainder columns, which hold
    # more tids than it, and the view derives the same luo as a's for each tid
    assert joined.last_at is nodes["a"].uo_at
    assert joined.rruo_at is nodes["a"].rruo_at
    assert len(joined.rruo_at) > joined.sup
    view = joined.uonl.tuples
    assert len(view) == joined.sup == 3
    first, second = list(view), list(view)
    assert first == second
    assert [t.tid for t in first] == [1, 2, 6]
    a_luo = {t.tid: t.luo for t in nodes["a"].uonl.tuples}
    assert all(t.luo == a_luo[t.tid] for t in first)


def _node(pattern, uo_at, bits):
    """A node over hand-made columns, its own last-item column, with no
    room left after it and no database to derive its tuples from."""
    return PatternNode(pattern, uo_at, uo_at, dict.fromkeys(uo_at, 0.0), bits, None)


def test_construct_aborts_on_disjoint_tids():
    # tids 1-4 sit at positions 0-3 of the revised database
    xa = _node((0,), {1: 0.5, 2: 0.5}, 0b0011)
    xb = _node((1,), {3: 0.5, 4: 0.5}, 0b1100)
    assert construct(None, xa, xb, 1) is None


def test_construct_aborts_when_support_cannot_reach_threshold(nodes):
    # pattern {c, a} has support 3; a threshold of 4 must abort the join
    assert construct(None, nodes["c"], nodes["a"], 4) is None


def _supporting_tids(db, pattern):
    return [tx.tid for tx in db.transactions if all(i in tx.entries for i in pattern)]


def _check_node(db, rdb, maxlen, singles, node):
    tids = [t.tid for t in node.uonl.tuples]
    assert all(x < y for x, y in zip(tids, tids[1:]))
    assert len(node.uonl.tuples) == len(tids) == node.fuot.sup
    # the mean is summed in tid order, so it repeats bit for bit
    assert node.fuot.uo == sum(t.uo for t in node.uonl.tuples) / node.fuot.sup
    assert tids == _supporting_tids(db, node.pattern)
    assert node.bits.bit_count() == node.fuot.sup
    # bit p marks the p-th transaction of the database
    tid_set = set(tids)
    assert node.bits == sum(1 << p for p, tx in enumerate(db.transactions) if tx.tid in tid_set)
    by_tid = {tx.tid: tx for tx in rdb.transactions}
    # joined tuples inherit luo from the last item's single-item list,
    # which is what makes the length-aware bound sound at every depth
    last = node.pattern[-1:]
    last_luo = {t.tid: t.luo for t in singles[last].uonl.tuples}
    rruo_total = 0.0
    for p, t in zip(node.uo_at, node.uonl.tuples):
        tx = by_tid[t.tid]
        assert t.luo == last_luo[t.tid]
        assert t.uo == pytest.approx(
            uo_in_transaction(node.pattern, tx, db.utility_table), abs=1e-9
        )
        assert t.uo + sum(t.luo) <= 1.0 + 1e-9
        assert list(t.luo) == sorted(t.luo, reverse=True)
        assert t.luo == pytest.approx(luo_in_transaction(last, tx, rdb, maxlen), abs=1e-12)
        # the one stored remainder column is the reference's sum exactly
        assert node.rruo_at[p] == sum(t.luo)
        rruo_total += rruo_in_transaction(last, tx, rdb, maxlen)
    assert node.fuot.uo == pytest.approx(uo_of_pattern(node.pattern, db), abs=1e-9)
    assert node.fuot.rruo == pytest.approx(rruo_total / node.fuot.sup, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(small_databases(), st.integers(1, 4), st.integers(1, 2))
def test_joins_agree_with_direct_scans(db, maxlen, min_sc):
    # at 2 the revised database can drop items and whole transactions
    rdb = revise_database(db, build_total_order(support_counts(db), min_sc))
    nodes = build_initial_nodes(rdb, maxlen)
    singles = {n.pattern: n for n in nodes}

    def walk(exten, depth_left):
        for pos, xa in enumerate(exten):
            _check_node(db, rdb, maxlen, singles, xa)
            if depth_left == 0:
                continue
            sub = []
            for xb in exten[pos + 1 :]:
                joined = construct(None, xa, xb, 1)
                if joined is None:
                    # the abort must be exact: the siblings share no transactions
                    assert not (
                        set(_supporting_tids(db, xa.pattern))
                        & set(_supporting_tids(db, xb.pattern))
                    )
                else:
                    assert joined.fuot.sup <= min(xa.fuot.sup, xb.fuot.sup)
                    sub.append(joined)
            walk(sub, depth_left - 1)

    walk(list(nodes), maxlen - 1)


@settings(max_examples=40, deadline=None)
@given(small_databases(), st.integers(2, 4))
def test_construct_returns_none_exactly_when_union_is_infrequent(db, maxlen):
    # for every threshold k at which xa is frequent, the join comes back
    # empty if and only if the union's true support is below k, and a
    # node it returns carries that support; the search relies on this to
    # keep every node construct returns.  The join reads of xb only its
    # mask and its last item's columns, so joining xa with that item's
    # single-item node instead builds the same node, sharing the same
    # last-item columns
    rdb = revise_database(db, build_total_order(support_counts(db), 1))
    nodes = build_initial_nodes(rdb, maxlen)
    single = {n.pattern[0]: n for n in nodes}

    def walk(exten, depth_left):
        for pos, xa in enumerate(exten):
            sub = []
            for xb in exten[pos + 1 :]:
                union = xa.pattern + (xb.pattern[-1],)
                true_sup = len(_supporting_tids(db, union))
                for k in range(1, xa.fuot.sup + 1):
                    joined = construct(None, xa, xb, k)
                    by_item = construct(None, xa, single[xb.pattern[-1]], k)
                    if true_sup < k:
                        assert joined is None and by_item is None
                    else:
                        assert joined is not None and by_item is not None
                        assert joined.fuot.sup == true_sup
                        assert by_item.pattern == joined.pattern
                        assert by_item.bits == joined.bits
                        assert [(t, u.hex()) for t, u in by_item.uo_at.items()] == [
                            (t, u.hex()) for t, u in joined.uo_at.items()
                        ]
                        assert by_item.last_at is joined.last_at
                        assert by_item.rruo_at is joined.rruo_at
                if true_sup >= 1:
                    sub.append(construct(None, xa, xb, 1))
            if depth_left > 0:
                walk(sub, depth_left - 1)

    walk(list(nodes), maxlen - 1)


@settings(max_examples=60, deadline=None)
@given(small_databases(), st.integers(1, 2))
def test_join_shares_are_left_to_right_sums_of_item_shares(db, min_sc):
    # at every depth a node's share in a transaction is the float sum of
    # its items' single-item shares, added in pattern order; a join that
    # reads anything else, such as a prefix to subtract, rounds otherwise
    rdb = revise_database(db, build_total_order(support_counts(db), min_sc))
    nodes = build_initial_nodes(rdb, max(1, len(rdb.order.items)))
    single = {n.pattern[0]: n.uo_at for n in nodes}

    def walk(exten):
        for pos, xa in enumerate(exten):
            for tid, share in xa.uo_at.items():
                total = 0.0
                for item in xa.pattern:
                    total += single[item][tid]
                assert share == total
            joined = (construct(None, xa, xb, 1) for xb in exten[pos + 1 :])
            walk([node for node in joined if node is not None])

    walk(list(nodes))


@settings(max_examples=60, deadline=None)
@given(small_databases(), st.integers(1, 2))
def test_node_is_its_own_uo_nlist(db, min_sc):
    # at every depth a node's len is its support, iterating it yields one
    # UOTuple per supporting tid in ascending order, and tuples is the node
    rdb = revise_database(db, build_total_order(support_counts(db), min_sc))
    nodes = build_initial_nodes(rdb, max(1, len(rdb.order.items)))

    def walk(exten):
        for pos, xa in enumerate(exten):
            assert len(xa) == xa.sup
            assert [t.tid for t in xa] == [db.transactions[p].tid for p in xa.uo_at]
            assert list(xa) == list(xa.uonl.tuples)
            assert xa.tuples is xa
            joined = (construct(None, xa, xb, 1) for xb in exten[pos + 1 :])
            walk([node for node in joined if node is not None])

    walk(list(nodes))


def _check_one_index(db, maxlen, min_sc):
    # every node the walk builds keys its columns by the database
    # positions its mask sets, and each of its UOTuples carries the tid
    # of the transaction at that position
    rdb = revise_database(db, build_total_order(support_counts(db), min_sc))

    def walk(exten, depth_left):
        for pos, xa in enumerate(exten):
            positions = [p for p in range(xa.bits.bit_length()) if xa.bits >> p & 1]
            assert list(xa.uo_at) == positions
            assert [t.tid for t in xa] == [db.transactions[p].tid for p in positions]
            if depth_left > 0:
                joined = (construct(None, xa, xb, min_sc) for xb in exten[pos + 1 :])
                walk([node for node in joined if node is not None], depth_left - 1)

    walk(build_initial_nodes(rdb, maxlen), maxlen - 1)


@settings(max_examples=60, deadline=None)
@given(small_databases(), st.integers(1, 4), st.integers(1, 2))
def test_columns_are_keyed_by_the_positions_of_the_mask(db, maxlen, min_sc):
    _check_one_index(db, maxlen, min_sc)


def test_columns_are_keyed_by_position_whatever_the_tids():
    # tids k * 10**12; every seventh transaction holds only the infrequent
    # z and drops out of the revised database, but keeps its position
    rows = [
        (k * 10**12, {"z": 1} if k % 7 == 0 else
         {label: 1 + (k + j) % 4 for j, label in enumerate("abcde") if (k * j) % 3 != 1})
        for k in range(1, 31)
    ]
    db = build_database(rows, {"a": 3, "b": 5, "c": 1, "d": 2, "e": 10, "z": 1})
    _check_one_index(db, 3, min_support_count(0.2, db.size))


def test_dicts_of_one_build_share_their_key_objects():
    # every dict of one build takes its position keys from one table, so
    # a kept join finds each key by identity, not by comparing equal ints
    db = build_database(
        [(t, {"a": 1, "b": 2, "c": 1 + t % 3}) for t in range(1, 400)], {"a": 1, "b": 2, "c": 3}
    )
    rdb = revise_database(db, build_total_order(support_counts(db), 1))
    a, b, c = build_initial_nodes(rdb, 3)
    keys = a.source[2]
    # positions read from a node that is still compact are the table's too
    positions = list(c._read()[0])
    assert c._columns is not None
    assert keys == list(range(db.size))
    assert all(p is keys[p] for p in positions)
    ab = construct(None, a, b, 1)
    for node in (a, b, c, ab):
        assert all(key is keys[key] for key in node.uo_at)
        assert all(key is keys[key] for key in node.rruo_at)
    # a later kept join's dicts hold the very ints read above
    bc = construct(None, b, c, 1)
    assert all(p is q for p, q in zip(positions, bc.uo_at, strict=True))


@settings(max_examples=60, deadline=None)
@given(small_databases(), st.integers(1, 4), st.integers(1, 2))
def test_compact_single_item_nodes_read_as_their_dicts(db, maxlen, min_sc):
    # a fresh single-item node reads its compact columns in the order its
    # dicts keep, so the summary, the bound, the planes and the tuples read
    # first equal the ones over the dicts read afterwards, bit for bit;
    # only the dicts' first read builds them
    rdb = revise_database(db, build_total_order(support_counts(db), min_sc))
    for node in build_initial_nodes(rdb, maxlen):
        uo, rruo, bound = node.uo, node.rruo, length_upper_bound(node, min_sc)
        planes = share_planes(node)
        tuples = [(t.tid, t.uo.hex(), t.luo) for t in node]
        assert node._columns is not None  # none of these built the dicts
        assert uo == sum(node.uo_at.values()) / node.sup
        assert node._columns is None
        assert [(t.tid, t.uo.hex(), t.luo) for t in node] == tuples
        assert length_upper_bound(node, min_sc) == bound
        assert share_planes(node) == planes
        assert rruo == sum(map(node.rruo_at.__getitem__, node.uo_at)) / node.sup
        assert node.rruo == rruo
        assert node.last_at is node.uo_at

    # on a fresh build, the first join ending in an item builds that
    # item's dicts; it and every later node ending there share them
    nodes = build_initial_nodes(rdb, maxlen)
    single = {n.pattern: n for n in nodes}

    def walk(exten, depth_left):
        for pos, xa in enumerate(exten):
            if depth_left == 0:
                continue
            sub = []
            for xb in exten[pos + 1 :]:
                joined = construct(None, xa, xb, 1)
                if joined is not None:
                    last = single[joined.pattern[-1:]]
                    assert joined.last_at is last.last_at
                    assert joined.rruo_at is last.rruo_at
                    sub.append(joined)
            walk(sub, depth_left - 1)

    walk(list(nodes), maxlen - 1)


def test_initial_nodes_hold_few_bytes_per_entry(scaled_sparse_db):
    # the sparse-wide shape scaled down: the compact single-item columns,
    # an array('d') of shares and one of remainders, hold 22.50-22.56 B per
    # revised entry under CPython 3.10 to 3.13, the README's figure.  The
    # scan reads the database a block of transactions at a time, and each
    # item's mask bytearray is freed as its int replaces it, so the traced
    # peak, 27.55-27.59 B per entry, is the nodes plus their masks and one
    # block's slices and place column (a scan that keeps every bytearray
    # beside its int reads 28.34-28.40); after the parse, the scan sets
    # the peak
    db = scaled_sparse_db
    min_sc = min_support_count(0.025, db.size)
    rdb = revise_database(db, build_total_order(support_counts(db), min_sc))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nodes = build_initial_nodes(rdb, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(n.sup for n in nodes)
    assert entries == 49_167
    held, peak = (held - before) / entries, (peak - before) / entries
    assert held < 23, f"{held:.2f} B per entry held"
    assert peak < 28, f"{peak:.2f} B per entry at peak"


def test_initial_nodes_stay_compact_while_every_join_aborts(scaled_sparse_db):
    # sparse-wide scaled down: 95 frequent items, each in about 2.6 % of
    # the transactions, so every join aborts on the masks and no node
    # builds its position-keyed dicts; those hold about 142 B per entry,
    # the compact columns about 22.4 under CPython 3.10 to 3.13
    db = scaled_sparse_db
    min_sc = min_support_count(0.025, db.size)
    rdb = revise_database(db, build_total_order(support_counts(db), min_sc))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nodes = build_initial_nodes(rdb, 3)
        aborted = sum(
            construct(None, xa, xb, min_sc) is None
            for pos, xa in enumerate(nodes)
            for xb in nodes[pos + 1 :]
        )
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert aborted == len(nodes) * (len(nodes) - 1) // 2 > 0
    per_entry = held / sum(n.sup for n in nodes)
    assert per_entry < 23, f"{per_entry:.2f} B per entry held"


def _plane_weights(planes, position):
    return sum((plane >> position & 1) << j for j, plane in enumerate(planes))


def test_share_planes_hold_each_share_rounded_up():
    # position k of a single-item node's K planes spells its weight less
    # one, ceil(share * 2**K) - 1, in binary; a one-item transaction gives
    # a share of exactly 1.0, the largest weight 2**K, and a unit utility
    # of 1e-300 against 1e10 gives the subnormal share 1e-310, which still
    # weighs 1, so is stored as 0.  Tid 3 keeps no frequent item, but
    # positions number the parsed database: tid 4 is position 3
    rows = [(1, {"a": 1}), (2, {"a": 1, "b": 1, "c": 1}), (3, {"d": 1}),
            (4, {"a": 3, "c": 1}), (5, {"a": 2, "b": 1})]
    db = build_database(rows, {"a": 7, "b": 1e-300, "c": 1e10, "d": 1})
    rdb = revise_database(db, build_total_order(support_counts(db), 2))
    nodes = build_initial_nodes(rdb, 3)
    labels = {db.labels_of(n.pattern)[0]: n for n in nodes}
    assert set(labels) == {"a", "b", "c"}
    positions = {1: 0, 2: 1, 4: 3, 5: 4}
    shares = {}
    for label, node in labels.items():
        assert node._columns is not None
        planes = share_planes(node)  # read from the scan's columns
        assert len(planes) == SCALE_BITS
        for p, share in node.uo_at.items():  # builds the dicts
            tid = db.transactions[p].tid
            assert positions[tid] == p
            assert _plane_weights(planes, p) == math.ceil(share * 2**SCALE_BITS) - 1
            shares[label, tid] = share
        assert share_planes(node) == planes  # read from the dicts
        unset = set(range(5)) - set(node.uo_at)
        assert all(_plane_weights(planes, k) == 0 for k in unset)
    assert shares["a", 1] == 1.0 and _plane_weights(share_planes(labels["a"]), 0) == 2**SCALE_BITS - 1
    assert 0 < shares["b", 2] < 2.2250738585072014e-308  # subnormal
    assert _plane_weights(share_planes(labels["b"]), 1) == 0
    # a share above 255/256 that is not 1.0 weighs 2**K too: 1000/1001
    db = build_database([(1, {"x": 1, "y": 1})], {"x": 1000, "y": 1})
    nodes = build_initial_nodes(revise_database(db, build_total_order(support_counts(db), 1)), 2)
    x, y = sorted(nodes, key=lambda n: db.labels_of(n.pattern))
    assert x.uo == 1000 / 1001
    assert [_plane_weights(share_planes(n), 0) for n in (x, y)] == [2**SCALE_BITS - 1, 0]


def test_a_share_of_exactly_zero_weighs_one():
    # a's share, 1e-300 / (1e-300 + 1e100), underflows to 0.0: the planes
    # store it as 0, a weight of 1, which bounds it from above, so the
    # leaf gate still lets ab, whose uo is 1.0, through
    db = build_database([(1, {"a": 1, "b": 1}), (2, {"a": 1, "b": 1})], {"a": 1e-300, "b": 1e100})
    rdb = revise_database(db, build_total_order(support_counts(db), 2))
    a, b = sorted(build_initial_nodes(rdb, 2), key=lambda n: db.labels_of(n.pattern))
    assert list(a._columns[0]) == [0.0, 0.0] and list(b._columns[0]) == [1.0, 1.0]
    assert [_plane_weights(share_planes(a), p) for p in (0, 1)] == [0, 0]
    assert LeafGate([a, b], 1.0).rejects(a.pattern, b.pattern[0], a.bits & b.bits, 2) is False
    for minuo in (0.5, 1.0):
        params = MiningParams(1.0, minuo, 1, 2)
        got = results_by_label(db, mine(db, params)[0])
        assert got == results_by_label(db, brute_force_mine(db, params))
        assert got["ab"] == (2, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_no_share_exceeds_one(data):
    # every loader sums tu left to right from the products the scan
    # divides, and a float sum of nonnegative terms is never below one of
    # them: so from the builder, whatever the quantities' type, and from
    # the same rows as qty and as spmf text, every share is at most 1.
    # Unit utilities far apart and one-item rows make shares near 1
    profits = {label: data.draw(st.floats(1e-3, 1e6) | st.integers(1, 10).map(float)) for label in "abcde"}
    rows = []
    for tid in range(1, data.draw(st.integers(1, 8)) + 1):
        members = data.draw(st.lists(st.sampled_from("abcde"), min_size=1, max_size=4, unique=True))
        rows.append((tid, {label: data.draw(st.integers(1, 10**6)) for label in members}))
    denominator = data.draw(st.integers(1, 7))
    spmf_lines = []
    for _, entries in rows:
        utilities = [q * profits[label] for label, q in entries.items()]
        ids = " ".join(str("abcde".index(label)) for label in entries)
        spmf_lines.append(f"{ids}:{sum(utilities)!r}:{' '.join(map(repr, utilities))}\n")
    databases = [
        build_database(rows, profits),
        build_database([(t, {k: float(q) for k, q in e.items()}) for t, e in rows], profits),
        build_database([(t, {k: Fraction(q, denominator) for k, q in e.items()}) for t, e in rows], profits),
        parse_quantity_profit(
            io.StringIO("".join(" ".join(f"{k}:{q}" for k, q in e.items()) + "\n" for _, e in rows)),
            io.StringIO("".join(f"{label} {eu!r}\n" for label, eu in profits.items())),
        ),
        parse_spmf_utility(io.StringIO("".join(spmf_lines))),
    ]
    for db in databases:
        rdb = revise_database(db, build_total_order(support_counts(db), 1))
        for node in build_initial_nodes(rdb, 3):
            assert all(0 <= share <= 1 for share in node._columns[0])


def test_leaf_gate_keeps_leaves_within_the_proved_margin():
    # shares 1/4, 1/4 and 1/2 are exact in fixed point, so the pair ab sums
    # to exactly 0.5 over its 4 positions.  The rule rejects only when
    # total * (2**52 + n) < minuo * sup * 2**(K+52), n = L + sup + 2 = 8:
    # 0.5 itself and up to 8 ulps (2**-53 each) above it are kept, 9 ulps
    # above it is rejected, whatever the leaf's float uo
    db = build_database([(t, {"a": 1, "b": 1, "c": 2}) for t in range(1, 5)], {"a": 1, "b": 1, "c": 1})
    rdb = revise_database(db, build_total_order(support_counts(db), 1))
    a, b, c = sorted(build_initial_nodes(rdb, 2), key=lambda n: n.pattern)
    bits = a.bits & b.bits
    for ulps, rejected in ((0, False), (8, False), (9, True)):
        gate = LeafGate([a, b, c], 0.5 + ulps * 2**-53)
        assert gate.rejects(a.pattern, b.pattern[0], bits, 4) is rejected
    assert construct(None, a, b, 1, LeafGate([a, b, c], 0.5)).uo == 0.5
    assert construct(None, a, b, 1, LeafGate([a, b, c], 0.5 + 9 * 2**-53)) is None


@settings(max_examples=80, deadline=None)
@given(small_databases(max_transactions=30, unit_utilities=st.sampled_from([1, 3, 1000, 10**6])), st.data())
def test_the_leaf_gate_answers_by_its_integer_rule(db, data):
    # one gate answers leaves under parents of several lengths, each
    # answer exactly the rule its docstring states: with total the sum
    # over the mask of the leaf's items' weights, ceil(share * 2**K) for
    # a positive share and 1 for any other, the leaf is rejected iff
    # total * den * (2**52 + n) < num * sup * 2**(K + 52), n = L + sup + 2
    # and num/den = minuo.  Unit utilities far apart give shares above
    # 255/256 in rows of several items, and minuo is often drawn within a
    # few ulps of a leaf's turning point, where a lost carry or plane shows
    rdb = revise_database(db, build_total_order(support_counts(db), 1))
    nodes = build_initial_nodes(rdb, 2)
    masks = {node.pattern[0]: node.bits for node in nodes}
    assume(len(masks) > 1)
    leaves = []
    for _ in range(data.draw(st.integers(1, 6))):
        parent = tuple(data.draw(st.lists(st.sampled_from(list(masks)), min_size=1,
                                          max_size=len(masks) - 1, unique=True)))
        rest = [item for item in masks if item not in parent]
        for item in data.draw(st.lists(st.sampled_from(rest), min_size=1, unique=True)):
            leaf = parent + (item,)
            bits = reduce(operator.and_, map(masks.get, leaf))
            shares = [
                uo_in_transaction((i,), db.transactions[p], db.utility_table)
                for p in range(db.size) if bits >> p & 1
                for i in leaf
            ]
            total = sum(math.ceil(share * 2**SCALE_BITS) if share > 0 else 1 for share in shares)
            leaves.append((parent, item, bits, bits.bit_count(), total))

    turning = [(total, sup, len(parent) + 3 + sup) for parent, _, _, sup, total in leaves if sup]
    if turning and data.draw(st.booleans()):
        total, sup, n = data.draw(st.sampled_from(turning))
        minuo = float(Fraction(total * ((1 << 52) + n), sup << SCALE_BITS + 52))
        steps = data.draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            minuo = math.nextafter(minuo, steps * math.inf)
    else:
        minuo = data.draw(st.floats(0, 1))
    num, den = minuo.as_integer_ratio()
    gate = LeafGate(nodes, minuo)
    for parent, item, bits, sup, total in leaves:
        n = len(parent) + 3 + sup
        rule = total * den * ((1 << 52) + n) < (num * sup << SCALE_BITS + 52)
        assert gate.rejects(parent, item, bits, sup) is rule
