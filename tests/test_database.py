"""Database model: tu computation, support counts, ordering, revision."""

import dataclasses
import io
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import SAMPLE_ROWS, SAMPLE_TUS, database_of, small_databases, transaction
from huopminer import (
    MiningParams,
    Transaction,
    build_database,
    build_total_order,
    database,
    mine,
    min_support_count,
    parse_quantity_profit,
    revise_database,
    support_counts,
)
from huopminer.errors import InvalidDatabaseError, InvalidParamsError
from huopminer.oracle import brute_force_mine


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
    assert "transactions" not in vars(rdb)
    assert rdb.transactions is rdb.transactions
    assert [
        (p, [(items[e], quantities[e]) for e in entries])
        for p, entries, items, quantities in rdb.kept()
    ] == [
        (p, sorted(tx.entries.items(), key=lambda entry: order.rank[entry[0]]))
        for p, tx in enumerate(sample_db.transactions)
    ]


def test_transaction_is_slotted_and_frozen():
    tx = Transaction(tid=1, entries={0: 2}, tu=4.0)
    assert not hasattr(tx, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        tx.tu = 5.0
    assert tx == Transaction(1, {0: 2}, 4.0)
    assert tx != Transaction(1, {0: 2}, 5.0)


def test_transactions_are_a_read_only_view_of_the_columns(sample_db):
    txs = sample_db.transactions
    assert sample_db.transactions is txs
    assert len(txs) == sample_db.size == len(SAMPLE_ROWS)
    # each index builds its transaction afresh, equal to the row it came from
    assert txs[9] == Transaction(10, {1: 3, 4: 5}, 65.0)
    assert txs[9] is not txs[9]
    assert txs[-1] == txs[9] and txs[-10] == txs[0]
    for p in (10, -11):
        with pytest.raises(IndexError):
            txs[p]
    with pytest.raises(TypeError):
        txs[0] = txs[1]
    assert list(txs) == [txs[p] for p in range(len(txs))]
    assert [
        (tx.tid, dict(zip(sample_db.labels_of(tx.entries), tx.entries.values()))) for tx in txs
    ] == SAMPLE_ROWS
    # tids 1..n are not stored
    assert sample_db.tids == range(1, 11)
    # a slice is the tuple of the transactions it names
    for s in (slice(1, 3), slice(None, None, -1), slice(-2, None), slice(5, 1)):
        assert txs[s] == tuple(txs)[s]


def test_columns_hold_big_tids_and_quantities_exactly():
    # tids past 32 bits and quantities at and past 2**63 go to the columns
    # as the ints they are, whichever loader reads them
    rows = [(k * 10**12, {"a": 2**63 + k, "b": 2**64 * k}) for k in (1, 2, 3)]
    db = build_database(rows, {"a": 1, "b": 2})
    assert [(tx.tid, tx.entries) for tx in db.transactions] == [
        (k * 10**12, {0: 2**63 + k, 1: 2**64 * k}) for k in (1, 2, 3)
    ]
    text = "".join(f"a:{2**63 + k} b:{2**64 * k}\n" for k in (1, 2, 3))
    parsed = parse_quantity_profit(io.StringIO(text), io.StringIO("a 1\nb 2\n"))
    assert [tx.entries for tx in parsed.transactions] == [tx.entries for tx in db.transactions]
    assert all(type(q) is int for tx in parsed.transactions for q in tx.entries.values())
    # a quantity of 400 digits makes no finite utility, so no loader
    # stores one, but the quantity column holds it all the same
    huge = int("7" * 400)
    db = database_of(
        transactions=[Transaction(5 * 10**12, {0: huge, 1: 1}, 3.0)],
        utility_table={0: 1.0, 1: 1.0},
        item_labels=("a", "b"),
    )
    assert db.transactions[0] == Transaction(5 * 10**12, {0: huge, 1: 1}, 3.0)
    rdb = revise_database(db, build_total_order(support_counts(db), 1))
    assert rdb.transactions == (Transaction(5 * 10**12, {0: huge, 1: 1}, 3.0),)


def assert_entries_are_the_rows(db, rows):
    # each entry in its row's order, equal to its input and of its type
    def typed(entries):
        return [(label, q, type(q)) for label, q in entries]

    assert [
        (tx.tid, typed((db.item_labels[i], q) for i, q in tx.entries.items()))
        for tx in db.transactions
    ] == [(tid, typed(entries.items())) for tid, entries in rows]


def qty_text(rows) -> str:
    return "".join(
        " ".join(f"{label}:{q}" for label, q in entries.items()) + "\n" for _, entries in rows
    )


@pytest.mark.parametrize("wide", [300, 2**63 + 1, 2**64, Fraction(3, 2), 2.5])
def test_quantity_column_widens_in_the_middle_of_a_row(wide):
    # the row's first entry fits the narrow column and its second does
    # not: the column widens, and neither entry is stored twice
    rows = [(1, {"a": 1, "b": wide}), (2, {"a": 7, "b": 300})]
    assert_entries_are_the_rows(build_database(rows, {"a": 1, "b": 1}), rows)
    if type(wide) is int:  # a quantity in the text is decimal digits
        parsed = parse_quantity_profit(io.StringIO(qty_text(rows)), io.StringIO("a 1\nb 1\n"))
        assert_entries_are_the_rows(parsed, rows)


@pytest.mark.parametrize("wide", [300, 2**63 + 1])
def test_quantity_column_widens_at_a_block_edge(wide):
    # one-entry rows fill whole blocks of buffered entries up to row 4096;
    # the first wide quantity is in row 4097, mid-row, in the next block
    assert 4096 % database._BLOCK_ENTRIES == 0
    rows = [(tid, {"b": 1 + tid % 5}) for tid in range(1, 4097)]
    rows.append((4097, {"a": 2, "b": wide, "c": 4}))
    rows += [(tid, {"a": 1 + tid % 255, "c": 3}) for tid in range(4098, 5001)]
    assert_entries_are_the_rows(build_database(rows, {"a": 1, "b": 1, "c": 2}), rows)
    parsed = parse_quantity_profit(io.StringIO(qty_text(rows)), io.StringIO("a 1\nb 1\nc 2\n"))
    assert_entries_are_the_rows(parsed, rows)


@pytest.mark.parametrize("labels", [256, 257])
def test_item_column_at_its_width_edges(labels):
    # ids one byte wide up to 256 labels, four beyond, and row ends four
    # bytes wide at both; the highest id is listed, and every reader sees
    # the labels' rows
    top, mid = str(labels - 1), str(labels // 2)
    rows = [
        (1, {top: 2, "0": 1}),
        (2, {"0": 3, mid: 1, top: 4}),
        (3, {mid: 5, top: 1}),
        (4, {"0": 2, mid: 2}),
    ]
    db = build_database(rows, {str(k): 1 + k % 7 for k in range(labels)})
    assert db.items.itemsize == (1 if labels <= 256 else 4)
    assert db.ends.itemsize == 4
    assert_entries_are_the_rows(db, rows)
    assert {db.item_labels[i]: c for i, c in support_counts(db).items()} == {top: 3, "0": 3, mid: 3}
    params = MiningParams(0.5, 0.1, 1, 3)
    got, _ = mine(db, params)
    reference = brute_force_mine(db, params)
    assert {db.labels_of(r.pattern) for r in got} >= {(top,), ("0",), (mid,)}
    assert [(r.pattern, r.sup) for r in got] == [(r.pattern, r.sup) for r in reference]
    for g, w in zip(got, reference):
        assert g.uo == pytest.approx(w.uo, abs=1e-9)


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
        database_of(
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
    with pytest.raises(InvalidDatabaseError, match="no unit utility known for item 'b'"):
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


def test_build_database_rejects_a_transaction_utility_that_underflows():
    # positive quantities and unit utilities whose products round to 0.0:
    # every share divides by tu, so mine and the oracle would divide by 0
    rows = [(1, {"a": 1e-200, "b": 1}), (2, {"a": 1e-200})]
    with pytest.raises(InvalidDatabaseError, match="^utility of transaction 2 underflows to 0$"):
        build_database(rows, {"a": 1e-200, "b": 1})


@pytest.mark.parametrize("tu, message", [(math.nan, "is not finite"), (-3.0, "is -3.0, not positive")])
def test_the_columns_refuse_a_transaction_utility_that_is_nan_or_negative(tu, message):
    # no loader sums such a tu, but a database built directly can hold one;
    # a negative tu made every share of its row negative, and mine reported
    # nothing instead of refusing the database
    rows = [Transaction(1, {0: 2, 1: 1}, tu), Transaction(2, {0: 1, 1: 1}, 2.0)]
    with pytest.raises(InvalidDatabaseError, match=f"^utility of transaction 1 {message}$"):
        database_of(rows, {0: 1.0, 1: 1.0}, ("a", "b"))


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
    with pytest.raises(InvalidDatabaseError, match="no unit utility known for item 'b'"):
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
