"""Search engine: bounds, golden results, length window, stats."""

import dataclasses
import inspect
import math
import sys
from array import array
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOLDEN_18, database_of, ids_of, joined_labels, results_by_label, small_databases
from huopminer import (
    MiningParams,
    Transaction,
    build_database,
    build_initial_nodes,
    build_total_order,
    construct,
    min_support_count,
    mine,
    revise_database,
    support_counts,
    unconstrained_maxlen,
)
from huopminer import lists, search
from huopminer.errors import InvalidDatabaseError
from huopminer.measures import uo_of_pattern
from huopminer.oracle import brute_force_mine
from huopminer.search import length_upper_bound


@pytest.fixture(scope="module")
def nodes(sample_db):
    rdb = revise_database(sample_db, build_total_order(support_counts(sample_db), 3))
    return {sample_db.labels_of(n.pattern)[0]: n for n in build_initial_nodes(rdb, 3)}


def test_length_upper_bound_at_a(nodes):
    # per-transaction value uo + sum(luo); six supporting transactions,
    # three of them reach 1.0, so the top-3 mean is exactly 1.0
    assert length_upper_bound(nodes["a"].uonl, 3) == pytest.approx(1.0, abs=1e-9)


def test_length_upper_bound_at_c(nodes):
    expected = (25 / 25 + 70 / 74 + 46 / 60) / 3
    assert length_upper_bound(nodes["c"].uonl, 3) == pytest.approx(expected, abs=1e-9)
    assert length_upper_bound(nodes["c"].uonl, 3) == pytest.approx(0.9042, abs=5e-4)


def test_length_upper_bound_under_tight_cap(sample_db):
    rdb = revise_database(sample_db, build_total_order(support_counts(sample_db), 3))
    one = {sample_db.labels_of(n.pattern)[0]: n for n in build_initial_nodes(rdb, 1)}
    # no room for extensions: the bound is the mean of the top-3 shares
    shares = sorted((t.uo for t in one["d"].uonl.tuples), reverse=True)
    assert length_upper_bound(one["d"].uonl, 3) == pytest.approx(sum(shares[:3]) / 3, abs=1e-12)


def test_golden_run(sample_db):
    results, stats = mine(sample_db, MiningParams(0.3, 0.3, 1, 3))
    got = results_by_label(sample_db, results)
    assert list(got) == list(GOLDEN_18)  # same patterns, same canonical order
    for label, (sup, uo) in GOLDEN_18.items():
        assert got[label][0] == sup
        assert got[label][1] == pytest.approx(uo, abs=5e-4)
    assert stats.support_prunes == 0
    assert stats.runtime_ms >= 0


def test_golden_run_matches_reference_exactly(sample_db):
    params = MiningParams(0.3, 0.3, 1, 3)
    results, _ = mine(sample_db, params)
    reference = brute_force_mine(sample_db, params)
    assert [r.pattern for r in results] == [r.pattern for r in reference]
    assert [r.sup for r in results] == [r.sup for r in reference]
    for got, want in zip(results, reference):
        assert got.uo == pytest.approx(want.uo, abs=1e-9)


def test_results_sorted_by_length_then_order(sample_db):
    results, _ = mine(sample_db, MiningParams(0.3, 0.3, 1, 3))
    lengths = [len(r.pattern) for r in results]
    assert lengths == sorted(lengths)
    rank = {i: r for r, i in enumerate(ids_of(sample_db, "cadeb"))}
    for a, b in zip(results, results[1:]):
        ka = (len(a.pattern), tuple(rank[i] for i in a.pattern))
        kb = (len(b.pattern), tuple(rank[i] for i in b.pattern))
        assert ka < kb


def test_length_cap_one(sample_db):
    results, _ = mine(sample_db, MiningParams(0.3, 0.3, 1, 1))
    got = results_by_label(sample_db, results)
    assert got.keys() == {"d", "e", "b"}
    assert got["d"][0] == 6 and got["d"][1] == pytest.approx(0.3515, abs=5e-4)
    assert got["e"][0] == 6 and got["e"][1] == pytest.approx(0.4784, abs=5e-4)
    assert got["b"][0] == 8 and got["b"][1] == pytest.approx(0.3869, abs=5e-4)


def test_min_length_filters_only_output(sample_db):
    results, stats = mine(sample_db, MiningParams(0.3, 0.3, 2, 3))
    got = results_by_label(sample_db, results)
    assert got.keys() == {label for label in GOLDEN_18 if len(label) >= 2}
    assert len(got) == 15
    # the length floor only gates emission; the walk itself is untouched
    _, unfiltered = mine(sample_db, MiningParams(0.3, 0.3, 1, 3))
    assert stats.visited_nodes == unfiltered.visited_nodes
    assert stats.constructions == unfiltered.constructions
    assert stats.lub_prunes == unfiltered.lub_prunes


def test_everything_pruned_at_full_support(sample_db):
    results, _ = mine(sample_db, MiningParams(1.0, 0.3, 1, 3))
    assert results == []


def test_loose_cap_reaches_longer_patterns(sample_db):
    params = MiningParams(0.3, 0.3, 1, 5)
    results, _ = mine(sample_db, params)
    got = results_by_label(sample_db, results)
    assert len(got) == 20
    assert set(GOLDEN_18) < got.keys()
    assert got.keys() - set(GOLDEN_18) == {"caeb", "cdeb"}
    reference = brute_force_mine(sample_db, params)
    assert [r.pattern for r in results] == [r.pattern for r in reference]
    for got_r, want_r in zip(results, reference):
        assert got_r.sup == want_r.sup
        assert got_r.uo == pytest.approx(want_r.uo, abs=1e-9)


def test_low_occupancy_prefixes_are_still_extended(sample_db):
    # c and ce fall short of the threshold themselves, yet ceb qualifies;
    # occupancy must not gate the walk, only the report
    results, _ = mine(sample_db, MiningParams(0.3, 0.3, 1, 3))
    labels = {joined_labels(sample_db, r.pattern) for r in results}
    assert "c" not in labels and "ceb" in labels


def test_visited_nodes_by_cap(sample_db):
    # hand count for the sample run at cap 3: five single items, ten
    # pairs, and seven triples survive to have their summaries read.  At
    # cap 2 the pairs are leaves, and the leaf gate rejects ca (uo 0.243)
    # and cd (0.194) from their masks, so eight pairs are read
    visited = []
    for maxlen in (1, 2, 3, 4, 5):
        _, stats = mine(sample_db, MiningParams(0.3, 0.3, 1, maxlen))
        visited.append(stats.visited_nodes)
    assert visited == [5, 13, 22, 24, 24]
    assert visited == sorted(visited)


def test_stats_counters_on_golden_run(sample_db):
    _, stats = mine(sample_db, MiningParams(0.3, 0.3, 1, 3))
    assert stats.visited_nodes == 22
    assert stats.constructions == 20
    # three joins provably cannot reach the support threshold
    assert stats.early_aborts == 3
    assert stats.lub_prunes == 0


def test_threads_do_not_change_anything(sample_db):
    params = MiningParams(0.3, 0.3, 1, 3)
    solo, solo_stats = mine(sample_db, params, threads=1)
    pooled, pooled_stats = mine(sample_db, params, threads=4)
    assert solo == pooled
    assert solo_stats.visited_nodes == pooled_stats.visited_nodes
    assert solo_stats.constructions == pooled_stats.constructions
    assert solo_stats.early_aborts == pooled_stats.early_aborts


def test_mine_calls_its_steps_through_the_search_globals(sample_db, monkeypatch):
    # profilers rebind these names on huopminer.search; mine and the walk
    # must look each one up there at call time
    calls = Counter()

    def counting(name):
        fn = getattr(search, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(search, name, wrapper)

    steps = ("support_counts", "build_total_order", "revise_database", "build_initial_nodes",
             "search_subtree", "construct", "length_upper_bound")
    for name in steps:
        counting(name)
    log = []
    _, stats = mine(sample_db, MiningParams(0.3, 0.3, 1, 3), bound_log=log)
    assert [calls[name] for name in steps[:5]] == [1] * 5
    assert calls["construct"] == stats.constructions == 20
    assert calls["length_upper_bound"] == len(log) > 0


def test_unconstrained_cap(sample_db):
    assert unconstrained_maxlen(sample_db, 0.3) == 5
    assert unconstrained_maxlen(sample_db, 0.7) == 1  # only b stays, floor is 1


def test_bound_log_is_sound_for_extensions(sample_db):
    params = MiningParams(0.3, 0.3, 1, 3)
    log = []
    mine(sample_db, params, bound_log=log)
    assert log  # bounds were recorded
    frequent = brute_force_mine(sample_db, MiningParams(0.3, 1e-12, 1, 3))
    by_pattern = {r.pattern: r.uo for r in frequent}
    for pattern, bound in log:
        assert len(pattern) < params.maxlen  # nodes at the cap are neither bounded nor joined
        for other, uo in by_pattern.items():
            if len(other) > len(pattern) and other[: len(pattern)] == pattern:
                assert uo <= bound + 1e-9


def test_walk_deeper_than_the_recursion_limit():
    # one transaction of 300 equal items: only the full pattern reaches
    # minuo, and the bound cuts every node off the one path to it, so the
    # walk is 300 levels deep but visits only 300 * 301 / 2 nodes
    labels = [f"i{k}" for k in range(300)]
    db = build_database([(1, dict.fromkeys(labels, 1))], dict.fromkeys(labels, 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        results, stats = mine(db, MiningParams(1.0, 1 - 1 / 600, 1, 300))
    finally:
        sys.setrecursionlimit(limit)
    assert [(len(r.pattern), r.sup) for r in results] == [(300, 1)]
    assert stats.visited_nodes == 45150


def test_transaction_of_only_rare_items_changes_nothing():
    # transaction 2 holds a single infrequent item: it contributes no list
    # entries, but still counts toward the database size
    rows = [(1, {"a": 1, "b": 2}), (2, {"z": 3}), (3, {"a": 2, "b": 1})]
    with_rare = build_database(rows, {"a": 2, "b": 1, "z": 5})
    params = MiningParams(0.5, 0.2, 1, 2)
    got, _ = mine(with_rare, params)
    reference = brute_force_mine(with_rare, params)
    assert [(r.pattern, r.sup) for r in got] == [(r.pattern, r.sup) for r in reference]
    for g, w in zip(got, reference):
        assert g.uo == pytest.approx(w.uo, abs=1e-9)
    # reported values are identical when that transaction is absent; the
    # support thresholds differ (2 of 3 vs 1 of 2) but every pattern here
    # clears both
    without = build_database([(1, {"a": 1, "b": 2}), (2, {"a": 2, "b": 1})], {"a": 2, "b": 1})
    got_without, _ = mine(without, params)
    assert {joined_labels(with_rare, r.pattern): (r.sup, r.uo) for r in got} == {
        joined_labels(without, r.pattern): (r.sup, r.uo) for r in got_without
    }


def test_huge_sparse_tids_mine_like_the_reference():
    # join masks are numbered by position in the database, not by tid: a
    # mask keyed by tids this large would need terabytes
    rows = [
        (k * 10**12, {label: 1 + (k + j) % 4 for j, label in enumerate("abcde") if (k * j) % 3 != 1})
        for k in range(1, 31)
    ]
    db = build_database(rows, {"a": 3, "b": 5, "c": 1, "d": 2, "e": 10})
    params = MiningParams(0.2, 0.2, 1, 3)
    got, stats = mine(db, params)
    reference = brute_force_mine(db, params)
    assert [(r.pattern, r.sup) for r in got] == [(r.pattern, r.sup) for r in reference]
    for g, w in zip(got, reference):
        assert g.uo == pytest.approx(w.uo, abs=1e-9)
    assert max(len(r.pattern) for r in got) == 3
    assert stats.constructions > stats.early_aborts


def test_a_tie_at_minuo_is_decided_as_by_the_oracle():
    # "efb" occurs in the third row alone, where its exact occupancy is
    # (2 + 3 + 1) / 9 = 2/3, between the floats below and above.  The
    # leaf's own float uo rounds to above, but the bound of its prefix "e",
    # below, prunes it at a minuo of above, where the oracle's uo, below,
    # misses too: both report the pattern set that exact occupancy defines
    rows = [(1, dict.fromkeys("abcd", 1)), (2, {"a": 1}), (3, dict.fromkeys("abcdef", 1)),
            (4, {"a": 1}), (5, {"a": 1})]
    db = build_database(rows, {"a": 1, "b": 1, "c": 1, "d": 1, "e": 2, "f": 3})
    below, above = 0.6666666666666666, 0.6666666666666667
    assert Fraction(below) < Fraction(2, 3) < Fraction(above)
    for beta, reported in ((1e-9, True), (below, True), (above, False)):
        params = MiningParams(0.1, beta, 1, 3)
        got = results_by_label(db, mine(db, params)[0])
        want = results_by_label(db, brute_force_mine(db, params))
        assert {k: sup for k, (sup, _) in got.items()} == {k: sup for k, (sup, _) in want.items()}
        assert ("efb" in got) is reported
        if reported:
            assert (got["efb"][1], want["efb"][1]) == (above, below)


def test_a_share_above_one_is_refused():
    # no loader makes a tu below its entries' utilities, but a database
    # built directly can: a's share in the first transaction is 2.9.  The
    # leaf gate's planes hold shares up to 1 alone, so the scan, where
    # every share is made, refuses the database instead of mining it.  An
    # int quantity past the float range has an infinite share, refused the
    # same way.  A nan tu makes a nan share: the columns refuse such a tu,
    # so that database is built with the constructor, which checks nothing
    items = {"utility_table": {0: 1.0, 1: 1.0}, "item_labels": ("a", "b")}
    above = database_of([Transaction(1, {0: 29, 1: 1}, 10.0), Transaction(2, {0: 1, 1: 1}, 20.0)], **items)
    overflowing = database_of([Transaction(1, {0: int("7" * 400), 1: 1}, 3.0)], **items)
    finite = database_of([Transaction(1, {0: 2}, 2.0), Transaction(2, {0: 1, 1: 1}, 2.0)], **items)
    not_a_number = dataclasses.replace(finite, tus=array("d", [math.nan, 2.0]))
    for db, share in ((above, "2.9"), (overflowing, "inf"), (not_a_number, "nan")):
        message = f"share of item 'a' in transaction 1 is {share}, not at most 1"
        with pytest.raises(InvalidDatabaseError, match=message):
            mine(db, MiningParams(0.5, 0.9, 1, 2))
        with pytest.raises(InvalidDatabaseError, match=message):
            build_initial_nodes(revise_database(db, build_total_order(support_counts(db), 1)), 2)


def test_a_share_of_exactly_one_is_mined():
    # a tu equal to its single entry's utility gives a share of exactly 1,
    # the edge of the contract: the scan takes it, and the engine, the
    # leaf gate included, reports what the oracle reports
    db = database_of(
        transactions=[
            Transaction(1, {0: 7}, 21.0),
            Transaction(2, {0: 1, 1: 2}, 5.0),
            Transaction(3, {0: 2, 1: 1}, 7.0),
            Transaction(4, {1: 4}, 4.0),
        ],
        utility_table={0: 3.0, 1: 1.0},
        item_labels=("a", "b"),
    )
    rdb = revise_database(db, build_total_order(support_counts(db), 1))
    assert sorted(max(node._columns[0]) for node in build_initial_nodes(rdb, 2)) == [1.0, 1.0]
    for beta in (0.3, 0.7, 0.9, 1.0):
        params = MiningParams(0.5, beta, 1, 2)
        got = results_by_label(db, mine(db, params)[0])
        want = results_by_label(db, brute_force_mine(db, params))
        assert {k: sup for k, (sup, _) in got.items()} == {k: sup for k, (sup, _) in want.items()}
        for k, (_, uo) in got.items():
            assert uo == pytest.approx(want[k][1], abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(small_databases())
def test_visited_nodes_monotone_in_cap(db):
    previous = None
    for maxlen in (1, 2, 3, 4):
        _, stats = mine(db, MiningParams(0.4, 0.3, 1, maxlen))
        if previous is not None:
            assert stats.visited_nodes >= previous
        previous = stats.visited_nodes


@settings(max_examples=60, deadline=None)
@given(small_databases(), st.integers(1, 6), st.floats(0.01, 1.0))
def test_bound_pre_checks_decide_as_the_logged_bound(db, maxlen, beta):
    # the log bounds every node below the cap, the unlogged walk only the
    # nodes neither uo nor uo + rruo keeps; both prune by the same rule.
    # The walk counts its joins per frame, so the counters must still
    # equal the calls of construct and its None returns, and every node
    # it visits is an initial node or a kept join
    params = MiningParams(0.25, beta, 1, maxlen)
    order = build_total_order(support_counts(db), min_support_count(params.alpha, db.size))
    bounded = []
    joins = Counter()

    def counting(node, min_sc):
        bounded.append(node)
        return length_upper_bound(node, min_sc)

    def joining(*args):
        node = construct(*args)
        joins[node is None] += 1
        return node

    def run(log, **patches):
        joins.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "construct", joining)
            for name, patch in patches.items():
                mp.setattr(search, name, patch)
            results, stats = mine(db, params, bound_log=log)
        assert stats.constructions == joins[True] + joins[False]
        assert stats.early_aborts == joins[True]
        assert stats.visited_nodes == len(order.items) + stats.constructions - stats.early_aborts
        return results, stats

    log = []
    logged, logged_stats = run(log)
    unlogged, stats = run(None, length_upper_bound=counting)
    assert unlogged == logged
    counters = ("visited_nodes", "constructions", "early_aborts", "lub_prunes")
    assert [getattr(stats, c) for c in counters] == [getattr(logged_stats, c) for c in counters]
    assert len(bounded) <= len(log)
    for node in bounded:
        assert node.uo < beta and node.uo + node.rruo < beta


@settings(max_examples=60, deadline=None)
@given(small_databases(), st.integers(2, 5))
def test_a_left_subtree_is_freed_before_the_next_joins(db, maxlen):
    # when a node starts its joins, every node one item longer that the
    # walk built before it lies in a subtree the walk has left; at most
    # the last join's result may still be referenced
    live = Counter()

    class Counted(lists.PatternNode):
        def __init__(self, pattern, *args):
            super().__init__(pattern, *args)
            live[len(pattern)] += 1

        def __del__(self):
            live[len(self.pattern)] -= 1

    started = set()

    def joining(prefix, xa, xb, min_sc, gate):
        if xa.pattern not in started:
            started.add(xa.pattern)
            assert live[len(xa.pattern) + 1] <= 1
        return construct(prefix, xa, xb, min_sc, gate)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lists, "PatternNode", Counted)
        mp.setattr(search, "construct", joining)
        mine(db, MiningParams(0.25, 0.01, 1, maxlen))


def _ungated(prefix, xa, xb, min_sc, gate=None):
    return construct(prefix, xa, xb, min_sc)


def _leaves(db, maxlen):
    """The leaves an ungated walk reaches, with the engine's float uo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "construct", _ungated)
        results, _ = mine(db, MiningParams(0.1, 1e-9, 1, maxlen))
    return [r for r in results if len(r.pattern) == maxlen and r.uo <= 1.0]


@settings(max_examples=80, deadline=None)
@given(small_databases(max_transactions=30), st.integers(2, 5), st.data())
def test_the_leaf_gate_rejects_only_leaves_below_minuo(db, maxlen, data):
    # every join the gate turns down, built anyway, is a leaf under minuo;
    # the gate is offered for joins into the cap only.  minuo is drawn at
    # or a little above a leaf's uo, where the gate's rounding decides
    leaves = _leaves(db, maxlen)
    if leaves:
        beta = min(1.0, data.draw(st.sampled_from(leaves)).uo + data.draw(st.floats(0, 0.05)))
    else:
        beta = data.draw(st.floats(0.05, 1.0))
    rejected = []

    def joining(prefix, xa, xb, min_sc, gate):
        assert (gate is not None) == (len(xa.pattern) + 1 == maxlen)
        node = construct(prefix, xa, xb, min_sc, gate)
        built = construct(prefix, xa, xb, min_sc)
        if node is None and built is not None:
            assert built.uo < beta
            rejected.append(built.pattern)
        else:
            assert (node is None) == (built is None)
        return node

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "construct", joining)
        _, stats = mine(db, MiningParams(0.1, beta, 1, maxlen))
    assert len(set(rejected)) == len(rejected) <= stats.early_aborts


@settings(max_examples=60, deadline=None)
@given(small_databases(max_transactions=30), st.integers(2, 5), st.data())
def test_gated_and_ungated_walks_agree(db, maxlen, data):
    # minuo is often exactly the engine's float uo of a leaf: the gate's
    # margin covers the float rounding, so a leaf the ungated walk reports
    # at that tie the gated one reports too.  The walks are compared with
    # each other, as the bound may prune such a leaf's parent in both: it
    # sums the same shares in another order and can round one ulp lower
    def run(beta, gated):
        log = []
        with pytest.MonkeyPatch.context() as mp:
            if not gated:
                mp.setattr(search, "construct", _ungated)
            results, _ = mine(db, MiningParams(0.1, beta, 1, maxlen), bound_log=log)
        return results, log

    leaves = _leaves(db, maxlen)
    if leaves:
        beta = data.draw(st.sampled_from(leaves)).uo
    else:
        beta = data.draw(st.floats(0.05, 1.0))
    assert run(beta, True) == run(beta, False)
