"""Dataset parsing, synthetic generation, and the writers."""

import io as stdio
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import SAMPLE_PROFITS, SAMPLE_ROWS, make_sample_db, results_by_label
from huopminer import (
    GeneratorSpec,
    MiningParams,
    Transaction,
    TransactionDatabase,
    build_database,
    generate_synthetic,
    mine,
    parse_quantity_profit,
    parse_spmf_utility,
    support_counts,
    write_quantity_profit,
    write_results,
    write_stats_csv,
)
from huopminer import io as hio
from huopminer.errors import DatasetFormatError, InvalidDatabaseError, InvalidParamsError
from huopminer.oracle import brute_force_mine

# The sample rows in the two text encodings.  In the utility-list lines
# items a..e appear as 1..5 and each value is quantity times unit utility.
SAMPLE_QTY = """\
# quantities, one transaction per line
a:3 b:4 c:2 d:6 e:2
a:7 b:4 c:1 e:2
a:5 b:2 e:1
b:4 c:1 d:2
a:2 d:4

a:2 b:2 c:6 d:4 e:3
a:1 b:2
d:3
b:3 c:5 d:2 e:5
b:3 e:5
"""

SAMPLE_PROFIT_FILE = """\
# item unit_utility
a 3
b 5
c 1
d 2
e 10
"""

SAMPLE_SPMF = """\
1 2 3 4 5:63:9 20 2 12 20
1 2 3 5:62:21 20 1 20
1 2 5:35:15 10 10
2 3 4:25:20 1 4
1 4:14:6 8
1 2 3 4 5:60:6 10 6 8 30
1 2:13:3 10
4:6:6
2 3 4 5:74:15 5 4 50
2 5:65:15 50
"""


def qty_db():
    return parse_quantity_profit(stdio.StringIO(SAMPLE_QTY), stdio.StringIO(SAMPLE_PROFIT_FILE))


def test_parse_quantity_profit_matches_sample():
    db = qty_db()
    want = make_sample_db()
    assert db.item_labels == want.item_labels
    assert [tx.tu for tx in db.transactions] == [tx.tu for tx in want.transactions]
    assert [tx.entries for tx in db.transactions] == [tx.entries for tx in want.transactions]
    assert db.transactions[8].tu == 74
    assert db.transactions[1].tu == 62


def test_parse_quantity_profit_from_paths(tmp_path):
    tx_path = tmp_path / "sample.qty"
    profit_path = tmp_path / "sample.profit"
    tx_path.write_text(SAMPLE_QTY)
    profit_path.write_text(SAMPLE_PROFIT_FILE)
    db = parse_quantity_profit(tx_path, profit_path)
    assert db.size == 10


@pytest.mark.parametrize(
    "line",
    ["a:0", "a:-1", "a:1.5", "a:", "a", "a:2 a:3", "q:1"],
)
def test_parse_quantity_profit_rejects_bad_pairs(line):
    with pytest.raises(DatasetFormatError):
        parse_quantity_profit(stdio.StringIO(line + "\n"), stdio.StringIO(SAMPLE_PROFIT_FILE))


def test_parse_quantity_profit_rejects_bad_profits():
    for text in ["a", "a 0", "a -2", "a x", "a 1\na 2", "a nan", "a inf"]:
        with pytest.raises(DatasetFormatError):
            parse_quantity_profit(stdio.StringIO("a:1\n"), stdio.StringIO(text + "\n"))


def test_parse_error_reports_line_number(tmp_path):
    text = "a:1\na:2\na:0\n"
    with pytest.raises(DatasetFormatError) as err:
        parse_quantity_profit(stdio.StringIO(text), stdio.StringIO(SAMPLE_PROFIT_FILE))
    assert "line 3" in str(err.value)
    # a file read from its path with CRLF line ends counts lines the same
    tx_path = tmp_path / "crlf.qty"
    tx_path.write_bytes(text.replace("\n", "\r\n").encode())
    profit_path = tmp_path / "crlf.profit"
    profit_path.write_text(SAMPLE_PROFIT_FILE)
    with pytest.raises(DatasetFormatError) as err:
        parse_quantity_profit(tx_path, profit_path)
    assert "line 3" in str(err.value)


# the line ends of str.splitlines, \r\n among them, plus text, blanks
# and comment marks
line_texts = st.lists(
    st.sampled_from(["a", "b c", " ", "#", "\r\n", "\r", "\n", "\v", "\x1c", "\x85", "\u2028"]),
    max_size=30,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(line_texts, st.integers(1, 8), st.booleans())
@example("a\r\nb\r\nc\r\n", 1, False)  # each cut is sought from the \r of a \r\n
@example("a\rb\vc\x1cd\x85e\u2028#f\r", 1, True)  # no \n at all: one chunk
def test_data_lines_are_numbered_as_splitlines_numbers_them(text, chunk, allow_comments):
    # the reader splits the text in chunks of a few characters here, each
    # cut just after a \n, and must yield what one splitlines() would
    want = [
        (no, raw.strip())
        for no, raw in enumerate(text.splitlines(), start=1)
        if raw.strip() and not (allow_comments and raw.strip().startswith("#"))
    ]
    with mock.patch.object(hio, "_CHUNK_CHARS", chunk):
        assert list(hio._data_lines(text, allow_comments)) == want


def test_parse_errors_come_in_file_order():
    # line 1 overflows its transaction utility and line 3 is malformed:
    # the file streams into the database, so line 1 is reported
    text = "a:1" + "0" * 400 + "\na:2\na:0\n"
    with pytest.raises(InvalidDatabaseError, match="utility of transaction 1 is not finite"):
        parse_quantity_profit(stdio.StringIO(text), stdio.StringIO(SAMPLE_PROFIT_FILE))


def test_parse_spmf_errors_come_in_file_order():
    # line 1 adds up to 1e308 twice, a sum past the float range that fails
    # its declared TU check, and line 2 is malformed: the lines stream
    # into the database one at a time, so line 1 is reported
    text = "1 2:1e308:1e308 1e308\n1 2:10:4\n"
    with pytest.raises(DatasetFormatError, match=r"^line 1: declared TU 1e\+308 but utilities sum to inf$"):
        parse_spmf_utility(stdio.StringIO(text))


@pytest.mark.parametrize(
    "text, message",
    [
        # a duplicate label is reported before its quantity is read
        ("a:2 a:x\n", "line 1: duplicate item 'a'"),
        # the second pair repeats the first pair's text
        ("a:2 a:2\n", "line 1: duplicate item 'a'"),
        ("a:2\nb:1 a:2 b:1\n", "line 2: duplicate item 'b'"),
        # a bad quantity is reported before a missing profit entry
        ("q:0\n", "line 1: quantity for item 'q' must be a positive integer, got 0"),
        ("a:1\na:1 q:1\n", "line 2: item 'q' has no profit entry"),
        # a line's pairs are all checked before its utility sum
        ("a:1" + "0" * 400 + " b:0\n", "line 1: quantity for item 'b' must be a positive integer"),
        # also when the quantity is past int()'s digit limit
        pytest.param(
            "a:" + "7" * 5000 + " b:0\n",
            "line 1: quantity for item 'b' must be a positive integer",
            id="5000-digit quantity then b:0",
        ),
    ],
)
def test_parse_quantity_profit_error_precedence(text, message):
    with pytest.raises(DatasetFormatError) as err:
        parse_quantity_profit(stdio.StringIO(text), stdio.StringIO(SAMPLE_PROFIT_FILE))
    assert str(err.value).startswith(message)


def assert_same_database(got, want):
    assert got.item_labels == want.item_labels
    assert got.utility_table == want.utility_table
    assert len(got.transactions) == len(want.transactions)
    for g, w in zip(got.transactions, want.transactions):
        assert g.tid == w.tid
        assert list(g.entries.items()) == list(w.entries.items())
        assert g.tu.hex() == w.tu.hex()


# labels with ':' exercise rpartition, all-digit ones the numeric order;
# none starts with '#', which would make its line a comment
qty_labels = st.text(alphabet="ab:0123456789", min_size=1, max_size=4)


@st.composite
def qty_files(draw):
    """Label-keyed rows and a profit table, with both rendered as text."""
    labels = draw(st.lists(qty_labels, min_size=1, max_size=6, unique=True))
    profits = {
        label: draw(st.floats(0.01, 1000.0) | st.integers(1, 50).map(float)) for label in labels
    }
    rows, lines = [], []
    for tid in range(1, draw(st.integers(1, 8)) + 1):
        members = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        # small quantities repeat their pair texts across lines
        entries = {label: draw(st.integers(1, 3) | st.integers(1, 10**12)) for label in members}
        rows.append((tid, entries))
        lines.append(
            " ".join(f"{label}:{'0' * draw(st.integers(0, 2))}{qty}" for label, qty in entries.items())
        )
    profit_text = "".join(f"{label} {eu!r}\n" for label, eu in profits.items())
    return rows, profits, "\n".join(lines) + "\n", profit_text


@settings(max_examples=80, deadline=None)
@given(qty_files())
def test_quantity_parser_equals_the_validating_builder(files):
    rows, profits, qty_text, profit_text = files
    got = parse_quantity_profit(stdio.StringIO(qty_text), stdio.StringIO(profit_text))
    assert_same_database(got, build_database(rows, profits))


@st.composite
def spmf_files(draw):
    """Label-keyed rows of utilities and the same rows as spmf text, each
    item a decimal token that may carry leading zeros."""
    rows, lines = [], []
    for tid in range(1, draw(st.integers(1, 8)) + 1):
        members = draw(st.lists(st.integers(0, 30), min_size=1, max_size=6, unique=True))
        entries = {str(item): draw(st.floats(0.01, 1000.0) | st.integers(1, 10**6).map(float))
                   for item in members}
        rows.append((tid, entries))
        tokens = " ".join(f"{'0' * draw(st.integers(0, 2))}{item}" for item in members)
        values = " ".join(map(repr, entries.values()))
        lines.append(f"{tokens}:{sum(entries.values())!r}:{values}")
    return rows, "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(spmf_files())
def test_spmf_parser_equals_the_validating_builder(files):
    # the spmf parser folds each utility into a quantity against a unit
    # utility of 1 and stores the rows in the columns the builder fills
    rows, text = files
    labels = {label for _, entries in rows for label in entries}
    got = parse_spmf_utility(stdio.StringIO(text))
    assert_same_database(got, build_database(rows, dict.fromkeys(labels, 1.0)))


def test_quantity_parser_equals_the_builder_past_many_distinct_pairs():
    # 5000 distinct pair texts, then the same again: the parser remembers
    # only some of them, and reads the rest afresh
    rows = [(tid, {"a" if tid % 2 else "b": 1 + (tid - 1) % 5000}) for tid in range(1, 10001)]
    qty_text = "".join(f"{label}:{qty}\n" for _, entries in rows for label, qty in entries.items())
    got = parse_quantity_profit(stdio.StringIO(qty_text), stdio.StringIO("a 3\nb 0.7\nc 2\n"))
    assert_same_database(got, build_database(rows, {"a": 3.0, "b": 0.7, "c": 2.0}))


def test_parsed_entries_hold_few_bytes(scaled_sparse_db):
    # the parsed database sets the peak memory of a load-bound run: its
    # columns hold a one-byte item id, a one-byte quantity and a share of
    # the transaction's four-byte end offset and its utility per entry,
    # and the parse builds no object per transaction.  Under CPython 3.10
    # to 3.13 it holds 5.46-5.51 B per entry (6.30-6.35 with eight-byte
    # ends), and its traced peak, the text read included, is 13.95-14.44 B
    db = scaled_sparse_db
    tx_out, profit_out = stdio.StringIO(), stdio.StringIO()
    write_quantity_profit(db, tx_out, profit_out)
    # a stream made from a string reads out a copy of it on every
    # interpreter; one written to does so from CPython 3.12 on only
    tx_text, profit_text = stdio.StringIO(tx_out.getvalue()), stdio.StringIO(profit_out.getvalue())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_quantity_profit(tx_text, profit_text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(len(tx.entries) for tx in parsed.transactions)
    assert entries == sum(len(tx.entries) for tx in db.transactions)
    held, peak = (held - before) / entries, (peak - before) / entries
    assert held < 6, f"{held:.2f} B per entry held"
    assert peak < 16, f"{peak:.2f} B per entry at peak"


def test_generator_streams_its_rows():
    # each drawn row is converted before the next one is drawn, so the
    # label-keyed rows never all live at once beside the database
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        db = generate_synthetic(
            GeneratorSpec(n_items=200, n_transactions=20_000, avg_transaction_len=5, seed=3)
        )
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert db.size == 20_000
    ratio = (peak - before) / (held - before)
    assert ratio <= 1.2, f"peak {ratio:.3f} times the {held - before} B held"


def test_spmf_parse_keeps_no_list_of_lines(scaled_sparse_db):
    # the text is read once and its lines are split twice, once for the
    # vocabulary and once for the rows, so no (number, line) list lives
    # beside the database while it is built.  Under CPython 3.10 to 3.13
    # the traced peak is 47.43-47.67 B per entry, and 36.45-36.50 B are
    # held after (48.27-48.51 and 37.29-37.35 with eight-byte row ends);
    # a parse that holds its list of lines peaks near 85 B
    db = scaled_sparse_db
    source = stdio.StringIO("".join(
        f"{' '.join(db.item_labels[i] for i in tx.entries)}:{tx.tu!r}:"
        f"{' '.join(repr(q * db.utility_table[i]) for i, q in tx.entries.items())}\n"
        for tx in db.transactions
    ))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_spmf_utility(source)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [tx.tu for tx in parsed.transactions] == [tx.tu for tx in db.transactions]
    held, peak = (held - before) / len(parsed.items), (peak - before) / len(parsed.items)
    assert peak <= 1.32 * held, f"{peak / held:.3f} times the {held:.2f} B per entry held"
    assert peak < 48, f"{peak:.2f} B per entry at peak"


def test_unused_profit_entries_change_no_answer(tmp_path):
    # the extra labels sort before, between and after the listed ones,
    # so every listed item's id moves but not its relative order
    padded_profits = SAMPLE_PROFIT_FILE + "0 7\nbb 2\nzz 4\n"
    padded = parse_quantity_profit(stdio.StringIO(SAMPLE_QTY), stdio.StringIO(padded_profits))
    assert padded.item_labels == ("0", "a", "b", "bb", "c", "d", "e", "zz")
    plain = qty_db()
    for params in (MiningParams(0.3, 0.3, 1, 3), MiningParams(0.1, 0.1, 1, 5)):
        for name, db in (("plain", plain), ("padded", padded)):
            results, _ = mine(db, params)
            write_results(results, db, tmp_path / f"{name}.out")
        assert (tmp_path / "plain.out").read_bytes() == (tmp_path / "padded.out").read_bytes()
    # the unused entries survive a round trip through the writer
    tx_path = tmp_path / "padded.qty"
    profit_path = tmp_path / "padded.profit"
    write_quantity_profit(padded, tx_path, profit_path)
    back = parse_quantity_profit(tx_path, profit_path)
    assert back.item_labels == padded.item_labels
    assert back.utility_table == padded.utility_table
    assert [tx.entries for tx in back.transactions] == [tx.entries for tx in padded.transactions]
    assert [tx.tu for tx in back.transactions] == [tx.tu for tx in padded.transactions]


def test_leading_byte_order_mark_is_skipped(tmp_path):
    want = qty_db()
    got = parse_quantity_profit(
        stdio.StringIO("\ufeff" + SAMPLE_QTY), stdio.StringIO("\ufeff" + SAMPLE_PROFIT_FILE)
    )
    assert got.item_labels == want.item_labels
    assert [tx.tu for tx in got.transactions] == [tx.tu for tx in want.transactions]
    # the same through paths, as an editor writing UTF-8 with a BOM saves them
    tx_path = tmp_path / "bom.qty"
    profit_path = tmp_path / "bom.profit"
    tx_path.write_text(SAMPLE_QTY, encoding="utf-8-sig")
    profit_path.write_text(SAMPLE_PROFIT_FILE, encoding="utf-8-sig")
    got = parse_quantity_profit(tx_path, profit_path)
    assert got.item_labels == want.item_labels
    assert [tx.tu for tx in got.transactions] == [tx.tu for tx in want.transactions]

    want = parse_spmf_utility(stdio.StringIO(SAMPLE_SPMF))
    got = parse_spmf_utility(stdio.StringIO("\ufeff" + SAMPLE_SPMF))
    assert got.item_labels == want.item_labels
    assert [tx.tu for tx in got.transactions] == [tx.tu for tx in want.transactions]


def test_parse_spmf_utility():
    db = parse_spmf_utility(stdio.StringIO("2 3 5:12:6 2 4\n"))
    assert db.item_labels == ("2", "3", "5")
    assert db.transactions[0].tu == 12
    # each per-item utility is folded into the quantity against unit 1
    assert all(eu == 1.0 for eu in db.utility_table.values())
    assert list(db.transactions[0].entries.values()) == [6, 2, 4]


def test_spmf_items_are_the_integers_they_spell():
    db = parse_spmf_utility(stdio.StringIO("1 2:5:2 3\n01 2:5:2 3\n1 02:5:2 3\n"))
    assert db.item_labels == ("1", "2")
    assert support_counts(db) == {0: 3, 1: 3}
    # each item is written as its number, zero as "0"
    assert parse_spmf_utility(stdio.StringIO("007 00:3:2 1\n")).item_labels == ("0", "7")


def test_spmf_and_qty_encodings_mine_identically():
    spmf = parse_spmf_utility(stdio.StringIO(SAMPLE_SPMF))
    qty = qty_db()
    assert [tx.tu for tx in spmf.transactions] == [tx.tu for tx in qty.transactions]
    params = MiningParams(0.3, 0.3, 1, 3)
    got_s, _ = mine(spmf, params)
    got_q, _ = mine(qty, params)
    # the label sets differ (1..5 vs a..e) but dense ids line up
    assert [r.pattern for r in got_s] == [r.pattern for r in got_q]
    assert [r.sup for r in got_s] == [r.sup for r in got_q]
    for a, b in zip(got_s, got_q):
        assert a.uo == pytest.approx(b.uo, abs=1e-12)


@pytest.mark.parametrize(
    "line",
    [
        "1 2:10",  # missing a section
        "1 2:10:4 6:extra",  # too many sections
        "1 2:10:4",  # count mismatch
        "1 x:10:4 6",  # non-integer item
        "1 ²:10:4 6",  # a digit, but not a decimal integer
        "1 1:10:4 6",  # duplicate item
        "1 2:ten:4 6",  # bad tu
        "1 2:10:4 x",  # bad utility
        "1 2:10:4 0",  # non-positive utility
        ":10:",  # no items
        "1 2:10:4 nan",  # nan utility, which the TU check alone let through
        "1 2:nan:4 6",  # nan tu
        "1 2:inf:4 inf",  # infinite tu and utility
        "1 2:inf:4 6",  # infinite tu over finite utilities
        "1 2:2000000000001:1000000000000 1000000000000",  # off by one unit at 2e12
        "1:1:1\n1 2:1e308:1e308 1e308",  # utilities that sum past the float range
    ],
)
def test_parse_spmf_rejects_malformed(line):
    with pytest.raises(DatasetFormatError):
        parse_spmf_utility(stdio.StringIO(line + "\n"))


def test_parse_spmf_checks_consistency():
    with pytest.raises(DatasetFormatError, match=r"declared TU 11\.0 but utilities sum to 10\.0") as err:
        parse_spmf_utility(stdio.StringIO("1 2:11:4 6\n"))
    assert "line 1" in str(err.value)
    # tiny float dust is tolerated
    parse_spmf_utility(stdio.StringIO("1 2:10.0000001:4 6\n"))
    # so is the rounding of a float sum of large utilities, which exceeds
    # the absolute tolerance although the line adds up in decimal
    line = "1 2 3 4:1573862204694.3:11219070790.4 735427076954.2 240885527195.3 586330529754.4"
    parse_spmf_utility(stdio.StringIO(line + "\n"))


def test_generator_is_deterministic():
    spec = GeneratorSpec(n_items=12, n_transactions=25, avg_transaction_len=4, seed=7)
    first = generate_synthetic(spec)
    second = generate_synthetic(spec)
    assert first.item_labels == second.item_labels
    assert first.utility_table == second.utility_table
    assert [tx.entries for tx in first.transactions] == [tx.entries for tx in second.transactions]
    assert [tx.tu for tx in first.transactions] == [tx.tu for tx in second.transactions]
    other = generate_synthetic(GeneratorSpec(12, 25, 4, seed=8))
    assert [tx.entries for tx in first.transactions] != [tx.entries for tx in other.transactions]


def test_generator_respects_bounds():
    spec = GeneratorSpec(n_items=9, n_transactions=40, avg_transaction_len=5, seed=3)
    db = generate_synthetic(spec)
    assert db.size == 40
    for tx in db.transactions:
        assert 1 <= len(tx.entries) <= 2 * 5 - 1
        assert all(1 <= q <= 5 for q in tx.entries.values())
    assert all(1 <= eu <= 10 for eu in db.utility_table.values())


def test_generator_unit_everything():
    db = generate_synthetic(
        GeneratorSpec(n_items=6, n_transactions=10, avg_transaction_len=3,
                      max_quantity=1, max_unit_utility=1, seed=1)
    )
    for tx in db.transactions:
        assert tx.tu == len(tx.entries)


def test_generator_spec_validation():
    # each field out of its domain is a parameter error, still a ValueError
    for field, value, message in [
        ("n_items", 0, "need at least one item and one transaction"),
        ("n_transactions", 0, "need at least one item and one transaction"),
        ("avg_transaction_len", 0, r"avg_transaction_len must be in \[1, n_items\]"),
        ("avg_transaction_len", 4, r"avg_transaction_len must be in \[1, n_items\]"),
        ("max_quantity", 0, "max_quantity and max_unit_utility must be >= 1"),
        ("max_unit_utility", 0, "max_quantity and max_unit_utility must be >= 1"),
    ]:
        fields = {"n_items": 3, "n_transactions": 5, "avg_transaction_len": 2, field: value}
        with pytest.raises(InvalidParamsError, match=message):
            GeneratorSpec(**fields)
    assert issubclass(InvalidParamsError, ValueError)


def test_generated_database_round_trips(tmp_path):
    db = generate_synthetic(GeneratorSpec(n_items=10, n_transactions=20, avg_transaction_len=4, seed=11))
    tx_path = tmp_path / "g.qty"
    profit_path = tmp_path / "g.profit"
    write_quantity_profit(db, tx_path, profit_path)
    back = parse_quantity_profit(tx_path, profit_path)
    assert back.item_labels == db.item_labels
    assert [tx.tu for tx in back.transactions] == [tx.tu for tx in db.transactions]
    assert support_counts(back) == support_counts(db)
    params = MiningParams(0.2, 0.2, 1, 3)
    got, _ = mine(back, params)
    want, _ = mine(db, params)
    assert got == want


def test_fractional_unit_utilities_round_trip(tmp_path):
    # 2.5 and 0.75 are written with repr, not as integers
    rows = [
        (1, {"a": 2, "b": 3}),
        (2, {"a": 1, "c": 4}),
        (3, {"a": 3, "b": 1, "c": 2}),
        (4, {"b": 5, "c": 1}),
    ]
    db = build_database(rows, {"a": 2.5, "b": 1, "c": 0.75})
    tx_path = tmp_path / "f.qty"
    profit_path = tmp_path / "f.profit"
    write_quantity_profit(db, tx_path, profit_path)
    assert profit_path.read_text(encoding="utf-8") == "a 2.5\nb 1\nc 0.75\n"
    back = parse_quantity_profit(tx_path, profit_path)
    assert back.utility_table == db.utility_table
    assert [tx.tu for tx in back.transactions] == [tx.tu for tx in db.transactions]
    params = MiningParams(0.25, 0.1, 1, 3)
    for name, source in (("built", db), ("read", back)):
        results, _ = mine(source, params)
        write_results(results, source, tmp_path / f"{name}.out")
    assert (tmp_path / "built.out").read_bytes() == (tmp_path / "read.out").read_bytes()
    assert (tmp_path / "built.out").read_bytes()


@pytest.mark.parametrize(
    "make_db, error, text",
    [
        # an spmf utility is the quantity of a unit utility of 1
        (lambda: parse_spmf_utility(stdio.StringIO("1 2:5.5:2.5 3\n")),
         "quantity 2.5 for item '1' in transaction 1 is not a whole number", None),
        (lambda: build_database([(1, {"a": 2}), (2, {"a": Fraction(1, 3)})], {"a": 3}),
         "quantity Fraction(1, 3) for item 'a' in transaction 2 is not a whole number", None),
        # whole quantities of any type are written as the digits of their int
        (lambda: TransactionDatabase([Transaction(1, {0: int("7" * 400), 1: 3.0, 2: Fraction(6, 2)}, 3.0)],
                                     {0: 1.0, 1: 1.0, 2: 1.0}, ("a", "b", "c")),
         None, f"a:{'7' * 400} b:3 c:3\n"),
        # the qty loader splits a line at whitespace and skips a '#' line:
        # '#x' was written, and read back as 1 transaction, (1, {z: 3})
        *(
            (lambda label=label: build_database([(1, {label: 2, "z": 1}), (2, {"z": 3})], {label: 3, "z": 1}),
             f"item label {label!r} is empty, holds whitespace or starts with '#': the qty loader cannot read it back",
             None)
            for label in ("a b", "", "#x")
        ),
    ],
    ids=["spmf utility", "fraction", "whole quantities", "label with a space", "empty label", "label with a hash"],
)
def test_qty_writer_writes_only_what_the_qty_loader_reads(tmp_path, make_db, error, text):
    db = make_db()
    tx_path, profit_path = tmp_path / "w.qty", tmp_path / "w.profit"
    if error is None:
        write_quantity_profit(db, tx_path, profit_path)
        assert tx_path.read_text(encoding="utf-8") == text
    else:
        with pytest.raises(InvalidDatabaseError, match=f"^{re.escape(error)}$"):
            write_quantity_profit(db, tx_path, profit_path)
        assert not tx_path.exists() and not profit_path.exists()


def test_spmf_with_whole_utilities_mines_the_same_as_qty(tmp_path):
    # each utility is written as the digits of its quantity against a unit
    # utility of 1, so the qty copy holds the same products and tus
    spmf = parse_spmf_utility(stdio.StringIO(SAMPLE_SPMF))
    write_quantity_profit(spmf, tmp_path / "s.qty", tmp_path / "s.profit")
    qty = parse_quantity_profit(tmp_path / "s.qty", tmp_path / "s.profit")
    for name, db in (("spmf", spmf), ("qty", qty)):
        for maxlen in (1, 3):
            results, _ = mine(db, MiningParams(0.1, 0.1, 1, maxlen))
            write_results(results, db, tmp_path / f"{name}{maxlen}.out")
    for maxlen in (1, 3):
        assert (tmp_path / f"spmf{maxlen}.out").read_bytes() == (tmp_path / f"qty{maxlen}.out").read_bytes()
    assert (tmp_path / "spmf3.out").read_bytes()


def golden_results(db):
    results, _ = mine(db, MiningParams(0.3, 0.3, 1, 3))
    return results


def test_write_results_format(sample_db):
    buffer = stdio.StringIO()
    write_results(golden_results(sample_db), sample_db, buffer)
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 18
    assert lines[0] == "d #SUP: 6 #UO: 0.35155"
    assert lines[-1] == "d e b #SUP: 3 #UO: 0.85261"
    assert "a e b #SUP: 4 #UO: 0.88208" in lines
    # lengths grouped ascending, occupancy printed to exactly 5 decimals
    lengths = [line.split(" #SUP")[0].count(" ") + 1 for line in lines]
    assert lengths == sorted(lengths)
    for line in lines:
        assert line.rsplit(" ", 1)[1].split(".")[1].__len__() == 5


def test_write_results_empty(tmp_path, sample_db):
    path = tmp_path / "none.txt"
    write_results([], sample_db, path)
    assert path.read_bytes() == b""


def test_write_results_deterministic(tmp_path, sample_db):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    write_results(golden_results(sample_db), sample_db, a)
    write_results(golden_results(sample_db), sample_db, b)
    assert a.read_bytes() == b.read_bytes()


def test_write_stats_csv():
    buffer = stdio.StringIO()
    write_stats_csv(
        [
            {
                "dataset": "x.qty", "alpha": 0.3, "beta": 0.3, "minlen": 1,
                "maxlen": 3, "runtime_ms": 12, "visited_nodes": 22,
                "constructions": 22, "patterns": 18,
            }
        ],
        buffer,
    )
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "dataset,alpha,beta,minlen,maxlen,runtime_ms,visited_nodes,constructions,patterns"
    assert lines[1] == "x.qty,0.3,0.3,1,3,12,22,22,18"


def test_mining_from_either_encoding_matches_reference():
    db = qty_db()
    params = MiningParams(0.3, 0.3, 1, 3)
    got, _ = mine(db, params)
    want = brute_force_mine(db, params)
    assert [r.pattern for r in got] == [r.pattern for r in want]
