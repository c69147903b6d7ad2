"""Dataset parsing, synthetic generation, and the writers."""

import io as stdio

import pytest

from helpers import SAMPLE_PROFITS, SAMPLE_ROWS, make_sample_db, results_by_label
from huopminer import (
    GeneratorSpec,
    MiningParams,
    generate_synthetic,
    mine,
    parse_quantity_profit,
    parse_spmf_utility,
    support_counts,
    write_quantity_profit,
    write_results,
    write_spmf_utility,
    write_stats_csv,
)
from huopminer.errors import DatasetConsistencyError, DatasetFormatError
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


def test_parse_error_reports_line_number():
    text = "a:1\na:2\na:0\n"
    with pytest.raises(DatasetFormatError) as err:
        parse_quantity_profit(stdio.StringIO(text), stdio.StringIO(SAMPLE_PROFIT_FILE))
    assert "line 3" in str(err.value)


def test_parse_spmf_utility():
    db = parse_spmf_utility(stdio.StringIO("2 3 5:12:6 2 4\n"))
    assert db.item_labels == ("2", "3", "5")
    assert db.transactions[0].tu == 12
    # each per-item utility is folded into the quantity against unit 1
    assert all(eu == 1.0 for eu in db.utility_table.values())
    assert list(db.transactions[0].entries.values()) == [6, 2, 4]


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
    ],
)
def test_parse_spmf_rejects_malformed(line):
    with pytest.raises(DatasetFormatError):
        parse_spmf_utility(stdio.StringIO(line + "\n"))


def test_parse_spmf_checks_consistency():
    with pytest.raises(DatasetConsistencyError) as err:
        parse_spmf_utility(stdio.StringIO("1 2:11:4 6\n"))
    assert "line 1" in str(err.value)
    # tiny float dust is tolerated
    parse_spmf_utility(stdio.StringIO("1 2:10.0000001:4 6\n"))


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
    with pytest.raises(ValueError):
        GeneratorSpec(n_items=3, n_transactions=5, avg_transaction_len=4)
    with pytest.raises(ValueError):
        GeneratorSpec(n_items=0, n_transactions=5, avg_transaction_len=1)
    with pytest.raises(ValueError):
        GeneratorSpec(n_items=3, n_transactions=5, avg_transaction_len=1, max_quantity=0)


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


def test_spmf_writer_round_trips(tmp_path):
    db = generate_synthetic(GeneratorSpec(n_items=8, n_transactions=15, avg_transaction_len=3, seed=5))
    path = tmp_path / "g.spmf"
    write_spmf_utility(db, path)
    back = parse_spmf_utility(path)
    assert back.item_labels == db.item_labels
    assert [tx.tu for tx in back.transactions] == [tx.tu for tx in db.transactions]
    params = MiningParams(0.2, 0.2, 1, 3)
    got, _ = mine(back, params)
    want, _ = mine(db, params)
    assert [r.pattern for r in got] == [r.pattern for r in want]
    assert [r.sup for r in got] == [r.sup for r in want]
    for a, b in zip(got, want):
        assert a.uo == pytest.approx(b.uo, abs=1e-9)


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
