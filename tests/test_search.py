"""Search engine: bounds, golden results, length window, stats."""

import inspect
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GOLDEN_18, ids_of, joined_labels, results_by_label, small_databases
from huopminer import (
    MiningParams,
    build_database,
    build_initial_nodes,
    build_total_order,
    mine,
    revise_database,
    support_counts,
    unconstrained_maxlen,
)
from huopminer import search
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
    # pairs, and seven triples survive to have their summaries read
    visited = []
    for maxlen in (1, 2, 3, 4, 5):
        _, stats = mine(sample_db, MiningParams(0.3, 0.3, 1, maxlen))
        visited.append(stats.visited_nodes)
    assert visited == [5, 15, 22, 24, 24]
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
    # nodes neither uo nor uo + rruo keeps; both prune by the same rule
    params = MiningParams(0.25, beta, 1, maxlen)
    bounded = []

    def counting(node, min_sc):
        bounded.append(node)
        return length_upper_bound(node, min_sc)

    log = []
    logged, logged_stats = mine(db, params, bound_log=log)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "length_upper_bound", counting)
        unlogged, stats = mine(db, params)
    assert unlogged == logged
    counters = ("visited_nodes", "constructions", "early_aborts", "lub_prunes")
    assert [getattr(stats, c) for c in counters] == [getattr(logged_stats, c) for c in counters]
    assert len(bounded) <= len(log)
    for node in bounded:
        assert node.uo < beta and node.uo + node.rruo < beta
