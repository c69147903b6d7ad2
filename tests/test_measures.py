"""Occupancy measures checked against hand-computed fractions from the
sample rows, plus the structural inequalities they must satisfy."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import db_and_supported_pattern, ids_of, small_databases, transaction
from huopminer import build_database, build_total_order, revise_database, support_counts
from huopminer.errors import InvalidParamsError, PatternNotSupportedError
from huopminer.measures import (
    luo_in_transaction,
    rruo_in_transaction,
    rruo_of_pattern,
    ruo_in_transaction,
    ruo_of_pattern,
    uo_in_transaction,
    uo_of_pattern,
)
from huopminer.oracle import enumerate_supported


@pytest.fixture(scope="module")
def rdb(sample_db):
    order = build_total_order(support_counts(sample_db), 3)
    return revise_database(sample_db, order)


def test_uo_in_transaction(sample_db):
    ac = ids_of(sample_db, "ac")
    assert uo_in_transaction(ac, transaction(sample_db, 1), sample_db.utility_table) == pytest.approx(11 / 63)
    assert uo_in_transaction(ac, transaction(sample_db, 6), sample_db.utility_table) == pytest.approx(12 / 60)


def test_uo_whole_transaction_is_one(sample_db):
    t5 = transaction(sample_db, 5)
    assert uo_in_transaction(tuple(t5.entries), t5, sample_db.utility_table) == pytest.approx(1.0)


def test_uo_of_pattern(sample_db):
    ac = ids_of(sample_db, "ac")
    expected = (11 / 63 + 22 / 62 + 12 / 60) / 3
    assert uo_of_pattern(ac, sample_db) == pytest.approx(expected, abs=1e-12)
    assert uo_of_pattern(ac, sample_db) == pytest.approx(0.2431, abs=5e-4)
    c = ids_of(sample_db, "c")
    expected_c = (2 / 63 + 1 / 62 + 1 / 25 + 6 / 60 + 5 / 74) / 5
    assert uo_of_pattern(c, sample_db) == pytest.approx(expected_c, abs=1e-12)
    assert uo_of_pattern(c, sample_db) == pytest.approx(0.05108, abs=5e-4)


def test_uo_errors(sample_db):
    ac = ids_of(sample_db, "ac")
    with pytest.raises(PatternNotSupportedError, match="transaction 4 does not contain"):
        uo_in_transaction(ac, transaction(sample_db, 4), sample_db.utility_table)
    db = build_database([(1, {"a": 1}), (2, {"b": 1})], {"a": 1, "b": 1})
    with pytest.raises(PatternNotSupportedError, match="no transaction contains pattern"):
        uo_of_pattern(ids_of(db, "ab"), db)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p, tx, rdb, cap: ruo_in_transaction(p, tx, rdb), "transaction 1 does not contain"),
        (lambda p, tx, rdb, cap: luo_in_transaction(p, tx, rdb, cap), "transaction 1 does not contain"),
        (lambda p, tx, rdb, cap: rruo_in_transaction(p, tx, rdb, cap), "transaction 1 does not contain"),
        (lambda p, tx, rdb, cap: ruo_of_pattern(p, rdb), "no transaction contains pattern"),
        (lambda p, tx, rdb, cap: rruo_of_pattern(p, rdb, cap), "no transaction contains pattern"),
    ],
    ids=[
        "ruo_in_transaction",
        "luo_in_transaction",
        "rruo_in_transaction",
        "ruo_of_pattern",
        "rruo_of_pattern",
    ],
)
def test_tail_measure_errors(call, message):
    # neither transaction holds a and b together
    db = build_database([(1, {"a": 1}), (2, {"b": 1})], {"a": 1, "b": 1})
    rdb = revise_database(db, build_total_order(support_counts(db), 1))
    with pytest.raises(PatternNotSupportedError, match=message):
        call(ids_of(db, "ab"), transaction(rdb, 1), rdb, 3)
    # at threshold 2 the order drops b, so the original transaction 1
    # answers as its revised copy, which lacks b, at any cap: a cap of 1
    # leaves no slot, and the error still comes first
    db = build_database([(1, {"a": 1, "b": 2}), (2, {"a": 1})], {"a": 1, "b": 1})
    rdb = revise_database(db, build_total_order(support_counts(db), 2))
    for tx in (transaction(db, 1), transaction(rdb, 1)):
        for cap in (1, 3):
            with pytest.raises(PatternNotSupportedError, match=message + r" \(1,\)$"):
                call(ids_of(db, "b"), tx, rdb, cap)


def test_ruo_in_transaction(sample_db, rdb):
    a = ids_of(sample_db, "a")
    # items after a in mining order within transaction 1: d, e, b
    assert ruo_in_transaction(a, transaction(rdb, 1), rdb) == pytest.approx(52 / 63)
    assert ruo_in_transaction(a, transaction(rdb, 1), rdb) == pytest.approx(0.8254, abs=5e-4)


def test_ruo_of_pattern(sample_db, rdb):
    a = ids_of(sample_db, "a")
    expected = (52 / 63 + 40 / 62 + 20 / 35 + 8 / 14 + 48 / 60 + 10 / 13) / 6
    assert ruo_of_pattern(a, rdb) == pytest.approx(expected, abs=1e-12)
    assert ruo_of_pattern(a, rdb) == pytest.approx(0.6971, abs=5e-4)


def test_ruo_of_last_item_is_zero(sample_db, rdb):
    b = ids_of(sample_db, "b")
    assert ruo_of_pattern(b, rdb) == 0.0


def test_luo_in_transaction(sample_db, rdb):
    a = ids_of(sample_db, "a")
    # after a in transaction 6: d 8/60, e 30/60, b 10/60; room for two more items
    assert luo_in_transaction(a, transaction(rdb, 6), rdb, 3) == pytest.approx((0.5, 1 / 6))
    c = ids_of(sample_db, "c")
    # after c in transaction 4: d 4/25, b 20/25
    assert luo_in_transaction(c, transaction(rdb, 4), rdb, 3) == pytest.approx((0.8, 0.16))


def test_luo_no_room_left(sample_db, rdb):
    ceb = ids_of(sample_db, "ceb")
    assert luo_in_transaction(ceb, transaction(rdb, 6), rdb, 3) == ()


def test_luo_rejects_overlong_pattern(sample_db, rdb):
    ceb = ids_of(sample_db, "ceb")
    with pytest.raises(InvalidParamsError, match="pattern longer than maxlen"):
        luo_in_transaction(ceb, transaction(rdb, 6), rdb, 2)


def test_rruo_in_transaction(sample_db, rdb):
    a = ids_of(sample_db, "a")
    assert rruo_in_transaction(a, transaction(rdb, 6), rdb, 3) == pytest.approx(2 / 3)
    assert rruo_in_transaction(a, transaction(rdb, 6), rdb, 3) == pytest.approx(0.6667, abs=5e-4)


def test_rruo_of_pattern(sample_db, rdb):
    a = ids_of(sample_db, "a")
    expected = (40 / 63 + 40 / 62 + 20 / 35 + 8 / 14 + 40 / 60 + 10 / 13) / 6
    assert rruo_of_pattern(a, rdb, 3) == pytest.approx(expected, abs=1e-12)
    assert rruo_of_pattern(a, rdb, 3) == pytest.approx(0.64315, abs=5e-4)
    c = ids_of(sample_db, "c")
    expected_c = (40 / 63 + 41 / 62 + 24 / 25 + 40 / 60 + 65 / 74) / 5
    assert rruo_of_pattern(c, rdb, 3) == pytest.approx(expected_c, abs=1e-12)
    assert rruo_of_pattern(c, rdb, 3) == pytest.approx(0.76028, abs=5e-4)


def test_rruo_never_above_ruo_on_sample(sample_db, rdb):
    for label in "cade":
        pattern = ids_of(sample_db, label)
        for maxlen in (1, 2, 3, 4, 5):
            assert rruo_of_pattern(pattern, rdb, maxlen) <= ruo_of_pattern(pattern, rdb) + 1e-12


def test_rruo_equals_ruo_when_cap_is_loose(sample_db, rdb):
    # with room for every remaining item the capped tail is the whole tail
    a = ids_of(sample_db, "a")
    assert rruo_of_pattern(a, rdb, 5) == pytest.approx(ruo_of_pattern(a, rdb), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(db_and_supported_pattern(), st.integers(0, 4))
def test_measure_invariants(db_pattern, extra_room):
    db, pattern = db_pattern
    rdb = revise_database(db, build_total_order(support_counts(db), 1))
    maxlen = len(pattern) + extra_room

    uo = uo_of_pattern(pattern, db)
    ruo = ruo_of_pattern(pattern, rdb)
    rruo = rruo_of_pattern(pattern, rdb, maxlen)
    assert 0.0 <= uo <= 1.0 + 1e-12
    assert 0.0 <= ruo <= 1.0 + 1e-12
    assert rruo <= ruo + 1e-12

    longest = max(len(tx.entries) for tx in db.transactions)
    if maxlen >= longest:
        assert rruo == pytest.approx(ruo, abs=1e-12)

    for tx in rdb.transactions:
        if not all(i in tx.entries for i in pattern):
            continue
        uo_t = uo_in_transaction(pattern, tx, db.utility_table)
        ruo_t = ruo_in_transaction(pattern, tx, rdb)
        assert uo_t + ruo_t <= 1.0 + 1e-9
        luo = luo_in_transaction(pattern, tx, rdb, maxlen)
        assert len(luo) <= maxlen - len(pattern)
        assert list(luo) == sorted(luo, reverse=True)
        assert rruo_in_transaction(pattern, tx, rdb, maxlen) <= ruo_t + 1e-12


def _left_to_right_mean(values):
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


@settings(max_examples=60, deadline=None)
@given(small_databases(), st.integers(1, 2), st.integers(1, 4))
def test_pattern_measures_are_left_to_right_means(db, min_sc, maxlen):
    # at threshold 2 revision drops items and whole transactions, so
    # ruo and rruo average over rdb.transactions, not db.transactions
    rdb = revise_database(db, build_total_order(support_counts(db), min_sc))
    for pattern, _sc in enumerate_supported(db, maxlen):
        held = [tx for tx in db.transactions if all(i in tx.entries for i in pattern)]
        uo = [uo_in_transaction(pattern, tx, db.utility_table) for tx in held]
        assert uo_of_pattern(pattern, db) == _left_to_right_mean(uo)
        revised = [tx for tx in rdb.transactions if all(i in tx.entries for i in pattern)]
        if not revised:
            continue
        ruo = [ruo_in_transaction(pattern, tx, rdb) for tx in revised]
        assert ruo_of_pattern(pattern, rdb) == _left_to_right_mean(ruo)
        rruo = [rruo_in_transaction(pattern, tx, rdb, maxlen) for tx in revised]
        assert rruo_of_pattern(pattern, rdb, maxlen) == _left_to_right_mean(rruo)


@settings(max_examples=60, deadline=None)
@given(small_databases(), st.integers(1, 4))
def test_measures_agree_on_original_and_revised_transactions(db, maxlen):
    # at threshold 2 revision drops items and whole transactions; the
    # tail measures skip items outside the order and take a pattern with
    # one as absent, so the original transaction gives exactly the value
    # or the error that its revised counterpart gives
    def outcome(measure, *args):
        try:
            return measure(*args)
        except PatternNotSupportedError as exc:
            return str(exc)

    rdb = revise_database(db, build_total_order(support_counts(db), 2))
    original = {tx.tid: tx for tx in db.transactions}
    for revised in rdb.transactions:
        tx = original[revised.tid]
        items = list(tx.entries)
        for size in range(1, min(len(items), maxlen) + 1):
            for pattern in combinations(items, size):
                for measure, *args in (
                    (ruo_in_transaction, rdb),
                    (luo_in_transaction, rdb, maxlen),
                    (rruo_in_transaction, rdb, maxlen),
                ):
                    assert outcome(measure, pattern, tx, *args) == outcome(measure, pattern, revised, *args)
