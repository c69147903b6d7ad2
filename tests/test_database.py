"""Database model: tu computation, support counts, ordering, revision."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SAMPLE_ROWS, SAMPLE_TUS, small_databases, transaction
from huopminer import (
    MiningParams,
    Transaction,
    TransactionDatabase,
    build_database,
    build_total_order,
    min_support_count,
    revise_database,
    support_counts,
)
from huopminer.errors import InvalidDatabaseError, InvalidParamsError, MissingUtilityError


def test_tu_per_transaction(sample_db):
    assert [tx.tu for tx in sample_db.transactions] == SAMPLE_TUS


def test_support_counts(sample_db):
    counts = support_counts(sample_db)
    by_label = {sample_db.item_labels[i]: c for i, c in counts.items()}
    assert by_label == {"a": 6, "b": 8, "c": 5, "d": 6, "e": 6}


def test_min_support_count():
    assert min_support_count(0.3, 10) == 3
    assert min_support_count(0.25, 10) == 3
    assert min_support_count(1.0, 10) == 10
    assert min_support_count(0.3, 25) == 8
    assert min_support_count(0.01, 10) == 1
    # the float product rounds past the integer: 0.07 * 100 > 7
    assert min_support_count(0.07, 100) == 7
    assert min_support_count(0.14, 100) == 14
    assert min_support_count(0.035, 200) == 7


def test_total_order_on_sample(sample_db):
    order = build_total_order(support_counts(sample_db), 3)
    assert sample_db.labels_of(order.items) == ("c", "a", "d", "e", "b")
    assert [order.rank[i] for i in order.items] == [0, 1, 2, 3, 4]


def test_total_order_tie_break_is_label_order():
    db = build_database(
        [(1, {"z": 1}), (2, {"y": 1}), (3, {"x": 1})],
        {"x": 1, "y": 1, "z": 1},
    )
    order = build_total_order(support_counts(db), 1)
    assert db.labels_of(order.items) == ("x", "y", "z")


def test_total_order_filters_infrequent(sample_db):
    order = build_total_order(support_counts(sample_db), 6)
    assert sample_db.labels_of(order.items) == ("a", "d", "e", "b")
    order = build_total_order(support_counts(sample_db), 11)
    assert order.items == ()


def test_digit_labels_sort_numerically():
    db = build_database([(1, {"10": 1, "2": 1, "1": 1})], {"1": 1, "2": 1, "10": 1})
    assert db.item_labels == ("1", "2", "10")
    # a digit that is not a decimal digit ("²") sorts as text, int() rejects it
    db = build_database([(1, {"²": 1, "10": 1, "2": 1})], {"²": 1, "2": 1, "10": 1})
    assert db.item_labels == ("2", "10", "²")


# ASCII, Arabic-Indic and fullwidth decimal digits, and two characters
# that are not decimal digits, so some labels sort as text
_LABEL_CHARS = "0123456789" + "\u0660\u0661\u0669" + "\uff10\uff11\uff19" + "a\u00b2"


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            lambda zeros, body: zeros + body,
            st.sampled_from(["", "0", "00", "\u0660", "\uff10\u0660"]),
            st.text(_LABEL_CHARS, min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
def test_decimal_labels_are_numbered_as_their_integers(labels):
    # the ids follow int(label), ties by the label's text, for every
    # all-decimal label; any other label sorts after them, as text
    def reference(label):
        return (0, int(label), label) if label.isdecimal() else (1, 0, label)

    db = build_database([], {label: 1 for label in labels})
    assert db.item_labels == tuple(sorted(labels, key=reference))


def test_revision_reorders_and_keeps_tu(sample_db):
    order = build_total_order(support_counts(sample_db), 3)
    rdb = revise_database(sample_db, order)
    t1 = transaction(rdb, 1)
    assert sample_db.labels_of(t1.entries) == ("c", "a", "d", "e", "b")
    assert list(t1.entries.values()) == [2, 3, 6, 2, 4]
    assert t1.tu == 63
    t5 = transaction(rdb, 5)
    assert sample_db.labels_of(t5.entries) == ("a", "d")
    assert t5.tu == 14


def test_revision_strips_infrequent_but_tu_stays():
    db = build_database(
        [(1, {"a": 1, "z": 5}), (2, {"a": 2}), (3, {"a": 1})],
        {"a": 2, "z": 10},
    )
    order = build_total_order(support_counts(db), 2)
    rdb = revise_database(db, order)
    t1 = transaction(rdb, 1)
    assert db.labels_of(t1.entries) == ("a",)
    assert t1.tu == 52  # the stripped item still counts toward tu


def test_revision_is_a_view_of_the_database(sample_db):
    # revising copies nothing up front: the view keeps the parsed
    # database and builds its revised transactions on first access only
    order = build_total_order(support_counts(sample_db), 3)
    rdb = revise_database(sample_db, order)
    assert rdb.database is sample_db
    assert rdb.order is order
    assert rdb.utility_table is sample_db.utility_table
    assert "transactions" not in vars(rdb)
    assert rdb.transactions is rdb.transactions
    assert [tx for tx, _ in rdb.kept()] == list(sample_db.transactions)


def test_transaction_is_slotted_and_frozen():
    tx = Transaction(tid=1, entries={0: 2}, tu=4.0)
    assert not hasattr(tx, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        tx.tu = 5.0
    assert tx == Transaction(1, {0: 2}, 4.0)
    assert tx != Transaction(1, {0: 2}, 5.0)


def test_revision_drops_empty_transactions_not_size():
    db = build_database(
        [(1, {"a": 1, "b": 1}), (2, {"z": 3}), (3, {"a": 2, "b": 1})],
        {"a": 1, "b": 1, "z": 1},
    )
    order = build_total_order(support_counts(db), 2)
    rdb = revise_database(db, order)
    assert [tx.tid for tx in rdb.transactions] == [1, 3]


def test_revision_idempotent(sample_db):
    order = build_total_order(support_counts(sample_db), 3)
    rdb = revise_database(sample_db, order)
    again = revise_database(
        TransactionDatabase(
            transactions=rdb.transactions,
            utility_table=sample_db.utility_table,
            item_labels=sample_db.item_labels,
        ),
        order,
    )
    assert again.transactions == rdb.transactions


@settings(max_examples=40, deadline=None)
@given(small_databases())
def test_revision_invariants(db):
    counts = support_counts(db)
    min_sc = 2
    order = build_total_order(counts, min_sc)
    rdb = revise_database(db, order)
    original = {tx.tid: tx for tx in db.transactions}
    for tx in rdb.transactions:
        assert tx.tu == original[tx.tid].tu
        ranks = [order.rank[i] for i in tx.entries]
        assert ranks == sorted(ranks)
        assert all(counts[i] >= min_sc for i in tx.entries)
        kept_utility = sum(qty * db.utility_table[i] for i, qty in tx.entries.items())
        assert kept_utility <= tx.tu + 1e-9


def test_params_validation():
    MiningParams(0.3, 0.3, 1, 3)  # fine
    with pytest.raises(InvalidParamsError):
        MiningParams(0.0, 0.3, 1, 3)
    with pytest.raises(InvalidParamsError):
        MiningParams(1.2, 0.3, 1, 3)
    with pytest.raises(InvalidParamsError):
        MiningParams(0.3, 0.0, 1, 3)
    with pytest.raises(InvalidParamsError):
        MiningParams(0.3, 1.0001, 1, 3)
    with pytest.raises(InvalidParamsError):
        MiningParams(0.3, 0.3, 0, 3)
    with pytest.raises(InvalidParamsError):
        MiningParams(0.3, 0.3, 3, 2)
    with pytest.raises(InvalidParamsError):
        MiningParams(0.3, 0.3, 1, 3.0)


def test_build_database_rejects_bad_rows():
    with pytest.raises(InvalidDatabaseError):
        build_database([(1, {"a": 0})], {"a": 1})
    with pytest.raises(InvalidDatabaseError):
        build_database([(1, {"a": 1}), (1, {"a": 1})], {"a": 1})
    with pytest.raises(InvalidDatabaseError):
        build_database([(0, {"a": 1})], {"a": 1})
    with pytest.raises(MissingUtilityError):
        build_database([(1, {"a": 1, "b": 2})], {"a": 1})
    with pytest.raises(InvalidDatabaseError):
        build_database([(1, {"a": 1})], {"a": 0})
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidDatabaseError):
            build_database([(1, {"a": bad})], {"a": 1})
        with pytest.raises(InvalidDatabaseError):
            build_database([(1, {"a": 1})], {"a": bad})
    # finite inputs whose transaction utility overflows a float
    with pytest.raises(InvalidDatabaseError):
        build_database([(1, {"a": 1e308})], {"a": 10})
    # an int quantity too large to convert to a float
    with pytest.raises(InvalidDatabaseError, match="utility of transaction 1 is not finite"):
        build_database([(1, {"a": 10**400, "b": 1})], {"a": 1, "b": 1})


def test_build_database_numbers_and_checks_every_utility_entry():
    # an entry that no row lists is still an item: it gets an id in label
    # order, and a bad unit utility for it is refused
    db = build_database([(1, {"b": 2})], {"c": 1, "b": 3, "a": 5})
    assert db.item_labels == ("a", "b", "c")
    assert db.transactions[0].entries == {1: 2}
    assert db.transactions[0].tu == 6
    for bad in (0, -1, math.nan, math.inf):
        with pytest.raises(InvalidDatabaseError, match="'z'"):
            build_database([(1, {"a": 1})], {"a": 1, "z": bad})


def test_build_database_reports_errors_in_row_order():
    # the rows are read once, so the first bad row is the one reported
    with pytest.raises(MissingUtilityError, match="'b'"):
        build_database([(1, {"b": 1}), (1, {"a": 1})], {"a": 1})
    with pytest.raises(InvalidDatabaseError, match="strictly increasing"):
        build_database([(1, {"a": 1}), (1, {"b": 1})], {"a": 1})


def test_build_database_rejects_a_label_given_twice():
    # 1 and "1" are one label once coerced to text
    with pytest.raises(InvalidDatabaseError, match="transaction 2 lists an item twice"):
        build_database([(1, {"1": 1}), (2, {1: 2, "1": 3})], {"1": 1})


def test_build_database_rejects_a_utility_label_given_twice():
    # 1 and "1" coerce to one label: neither unit utility may win silently
    for table in ({1: 5.0, "1": 3.0}, {"1": 3.0, 1: 5.0}):
        with pytest.raises(InvalidDatabaseError, match="lists item '1' twice"):
            build_database([(1, {"1": 2})], table)


def test_sample_shape(sample_db):
    assert sample_db.size == len(SAMPLE_ROWS) == 10
    assert sample_db.item_labels == ("a", "b", "c", "d", "e")
