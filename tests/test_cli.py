"""End-to-end command-line behaviour."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from huopminer import (
    GeneratorSpec,
    HUOPResult,
    cli,
    generate_synthetic,
    search,
    support_counts,
    write_quantity_profit,
)

SAMPLE_QTY = """\
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

SAMPLE_PROFIT = "a 3\nb 5\nc 1\nd 2\ne 10\n"


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    tx = root / "sample.qty"
    profit = root / "sample.profit"
    tx.write_text(SAMPLE_QTY)
    profit.write_text(SAMPLE_PROFIT)
    return tx, profit


def qty_args(dataset, *extra):
    tx, profit = dataset
    return ["--input", str(tx), "--format", "qty", "--profit", str(profit), *extra]


def mine_args(dataset, *extra):
    return ["mine", *qty_args(dataset, "--minsup", "0.3", "--minuo", "0.3", *extra)]


def test_mine_to_file(dataset, tmp_path, capsys):
    out = tmp_path / "patterns.txt"
    code = cli.main(mine_args(dataset, "--maxlen", "3", "--output", str(out)))
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = out.read_text().splitlines()
    assert len(lines) == 18
    assert lines[0] == "d #SUP: 6 #UO: 0.35155"
    assert "a e b #SUP: 4 #UO: 0.88208" in lines


def test_mine_to_stdout(dataset, capsys):
    code = cli.main(mine_args(dataset, "--maxlen", "3"))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 18


def test_mine_unconstrained_by_default(dataset, capsys):
    code = cli.main(mine_args(dataset))
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 20


def test_mine_uncapped_counts_support_once(dataset, monkeypatch, capsys):
    # the default cap is the item table's size, which no pattern reaches,
    # so only the run itself counts support over the database
    calls = []

    def counting(db):
        calls.append(db.size)
        return support_counts(db)

    monkeypatch.setattr(search, "support_counts", counting)
    assert cli.main(mine_args(dataset)) == 0
    assert len(capsys.readouterr().out.splitlines()) == 20
    assert len(calls) == 1


def test_mine_maxlen_one(dataset, capsys):
    code = cli.main(mine_args(dataset, "--maxlen", "1"))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "d #SUP: 6 #UO: 0.35155",
        "e #SUP: 6 #UO: 0.47844",
        "b #SUP: 8 #UO: 0.38689",
    ]


def test_mine_writes_stats(dataset, tmp_path):
    out = tmp_path / "p.txt"
    stats = tmp_path / "s.csv"
    code = cli.main(mine_args(dataset, "--maxlen", "3", "--output", str(out), "--stats", str(stats)))
    assert code == 0
    lines = stats.read_text().splitlines()
    assert lines[0].startswith("dataset,alpha,beta,minlen,maxlen,")
    row = lines[1].split(",")
    assert row[1:5] == ["0.3", "0.3", "1", "3"]
    assert row[6:] == ["22", "20", "18"]  # visited, constructions, patterns


def test_mine_minlen_filters_output(dataset, capsys):
    code = cli.main(mine_args(dataset, "--minlen", "2", "--maxlen", "3"))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15
    assert all(" " in line.split(" #SUP")[0] for line in lines)


def test_minsup_times_size_rounding_past_an_integer(tmp_path, capsys):
    # 0.07 * 100 is 7.000000000000001 in floats, yet 7 / 100 == 0.07:
    # a, in 7 of 100 transactions, is frequent at --minsup 0.07
    tx = tmp_path / "round.qty"
    profit = tmp_path / "round.profit"
    tx.write_text("a:1 b:1\n" * 7 + "b:1 c:1\n" * 93)
    profit.write_text("a 5\nb 1\nc 1\n")
    outputs = []
    for minsup in ("0.07", "0.069"):
        code = cli.main([
            "mine", "--input", str(tx), "--format", "qty", "--profit", str(profit),
            "--minsup", minsup, "--minuo", "0.5", "--maxlen", "2",
        ])
        assert code == 0
        outputs.append(capsys.readouterr().out.splitlines())
    assert "a #SUP: 7 #UO: 0.83333" in outputs[0]
    assert "a b #SUP: 7 #UO: 1.00000" in outputs[0]
    assert outputs[0] == outputs[1]


def test_verify_matches(dataset, capsys):
    code = cli.main(["verify", *qty_args(dataset, "--minsup", "0.3", "--minuo", "0.3", "--maxlen", "3")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "MATCH: 18 patterns"


def test_verify_unconstrained(dataset, capsys):
    code = cli.main(["verify", *qty_args(dataset, "--minsup", "0.25", "--minuo", "0.4")])
    assert code == 0
    assert capsys.readouterr().out.startswith("MATCH: ")


def test_verify_reports_each_difference(dataset, monkeypatch, capsys):
    real_mine = cli.mine

    def skewed_mine(db, params):
        results, stats = real_mine(db, params)
        by_label = {"".join(db.labels_of(r.pattern)): r for r in results}
        assert "c" not in by_label  # c's occupancy is below --minuo
        c = HUOPResult(pattern=(db.item_labels.index("c"),), sup=5, uo=0.25)
        e = by_label["e"]
        skewed = [r for r in results if r is not by_label["b"] and r is not e]
        skewed += [c, HUOPResult(pattern=e.pattern, sup=e.sup, uo=e.uo + 1e-6)]
        return skewed, stats

    monkeypatch.setattr(cli, "mine", skewed_mine)
    code = cli.main(["verify", *qty_args(dataset, "--minsup", "0.3", "--minuo", "0.3", "--maxlen", "3")])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["missing", "unexpected", "mismatch"]
    assert lines[0].startswith("missing: b (sup=8, ")
    assert lines[1].startswith("unexpected: c (sup=5, ")
    assert lines[2].startswith("mismatch: engine e (sup=6, ")


def test_verify_max_items_caps_the_oracle(dataset, capsys):
    # the sample has 5 items: a cap of 4 refuses the oracle run, 5 allows it
    flags = qty_args(dataset, "--minsup", "0.3", "--minuo", "0.3", "--maxlen", "3")
    assert cli.main(["verify", *flags, "--max-items", "4"]) == 2
    err = capsys.readouterr().err
    assert "exceed the enumeration cap of 4" in err
    assert "Traceback" not in err
    assert cli.main(["verify", *flags, "--max-items", "5"]) == 0
    assert capsys.readouterr().out.strip() == "MATCH: 18 patterns"


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_verify_rejects_a_max_items_below_one_before_io(tmp_path, capsys, cap):
    missing = tmp_path / "does-not-exist.qty"
    code = cli.main([
        "verify", "--input", str(missing), "--format", "qty", "--profit", str(missing),
        "--minsup", "0.3", "--minuo", "0.3", "--max-items", cap,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: --max-items must be >= 1, got {cap}\n"  # before any read


def test_internal_error_exits_1_with_traceback(dataset, monkeypatch, capsys):
    def broken_mine(db, params):
        raise RuntimeError("engine fault")

    monkeypatch.setattr(cli, "mine", broken_mine)
    assert cli.main(mine_args(dataset)) == 1
    err = capsys.readouterr().err
    assert err.startswith("Traceback")
    assert "RuntimeError: engine fault" in err


def test_flag_errors_block_before_io(tmp_path, capsys):
    missing = tmp_path / "does-not-exist.qty"
    code = cli.main([
        "mine", "--input", str(missing), "--format", "qty", "--profit", str(missing),
        "--minsup", "1.5", "--minuo", "0.3",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "minsup" in err
    assert "does-not-exist" not in err  # rejected before any read was attempted


@pytest.mark.parametrize(
    "extra",
    [
        ("--minuo", "0"),
        ("--minlen", "0"),
        ("--maxlen", "-1"),
        ("--minlen", "3", "--maxlen", "2"),
        ("--threads", "0"),
    ],
)
def test_bad_flag_domains(dataset, capsys, extra):
    args = mine_args(dataset)
    # replace defaults with the bad combination under test
    code = cli.main(args + list(extra))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_qty_requires_profit(dataset, capsys):
    tx, _ = dataset
    code = cli.main(["mine", "--input", str(tx), "--format", "qty",
                     "--minsup", "0.3", "--minuo", "0.3"])
    assert code == 2
    assert "--profit" in capsys.readouterr().err


def test_spmf_rejects_profit(dataset, capsys):
    tx, profit = dataset
    code = cli.main(["mine", "--input", str(tx), "--format", "spmf", "--profit", str(profit),
                     "--minsup", "0.3", "--minuo", "0.3"])
    assert code == 2
    assert "--profit" in capsys.readouterr().err


def test_missing_input_file(tmp_path, dataset, capsys):
    _, profit = dataset
    code = cli.main(["mine", "--input", str(tmp_path / "nope.qty"), "--format", "qty",
                     "--profit", str(profit), "--minsup", "0.3", "--minuo", "0.3"])
    assert code == 2
    assert "error: " in capsys.readouterr().err


def test_empty_dataset(tmp_path, dataset, capsys):
    _, profit = dataset
    empty = tmp_path / "empty.qty"
    empty.write_text("# only a comment\n\n")
    code = cli.main(["mine", "--input", str(empty), "--format", "qty",
                     "--profit", str(profit), "--minsup", "0.3", "--minuo", "0.3"])
    assert code == 2
    assert "no transactions" in capsys.readouterr().err


def test_malformed_dataset(tmp_path, dataset, capsys):
    _, profit = dataset
    bad = tmp_path / "bad.qty"
    bad.write_text("a:0\n")
    code = cli.main(["mine", "--input", str(bad), "--format", "qty",
                     "--profit", str(profit), "--minsup", "0.3", "--minuo", "0.3"])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "fmt, tx_text, profit_text, message",
    [
        ("spmf", "1 2:10:4 nan\n", None, "must be positive and finite"),
        ("spmf", "1 2:10:4 inf\n", None, "must be positive and finite"),
        ("qty", SAMPLE_QTY, SAMPLE_PROFIT.replace("a 3", "a nan"), "must be positive and finite"),
        ("qty", SAMPLE_QTY, SAMPLE_PROFIT.replace("a 3", "a inf"), "must be positive and finite"),
        ("qty", f"a:1{'0' * 400} b:1\n", SAMPLE_PROFIT, "utility of transaction 1 is not finite"),
    ],
    ids=["spmf-nan", "spmf-inf", "profit-nan", "profit-inf", "qty-overflow"],
)
def test_non_finite_input_exits_2(tmp_path, capsys, fmt, tx_text, profit_text, message):
    tx = tmp_path / "input.txt"
    tx.write_text(tx_text)
    args = ["mine", "--input", str(tx), "--format", fmt, "--minsup", "0.3", "--minuo", "0.3"]
    if profit_text is not None:
        profit = tmp_path / "input.profit"
        profit.write_text(profit_text)
        args += ["--profit", str(profit)]
    assert cli.main(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "fmt, tx_bytes, profit_text",
    [
        ("qty", b"a:3 b:\xff2\n", "a 3\nb 5\n"),
        ("spmf", b"1 2:\xff:4 6\n", None),
    ],
    ids=["qty", "spmf"],
)
def test_non_utf8_input_exits_2(tmp_path, capsys, fmt, tx_bytes, profit_text):
    tx = tmp_path / "input.txt"
    tx.write_bytes(tx_bytes)
    args = ["mine", "--input", str(tx), "--format", fmt, "--minsup", "0.3", "--minuo", "0.3"]
    if profit_text is not None:
        profit = tmp_path / "input.profit"
        profit.write_text(profit_text)
        args += ["--profit", str(profit)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not UTF-8 text")
    assert "Traceback" not in err


def mine_text(tmp_path, tx_text, profit_text="a 2\nb 3\n", fmt="qty"):
    tx = tmp_path / "input.txt"
    tx.write_text(tx_text)
    args = ["mine", "--input", str(tx), "--format", fmt, "--minsup", "0.3", "--minuo", "0.1"]
    if fmt == "qty":
        profit = tmp_path / "input.profit"
        profit.write_text(profit_text)
        args += ["--profit", str(profit)]
    return cli.main(args)


# past the 4300 digits CPython's int() accepts from a string by default
LONG_LABEL = "7" * 5000


@pytest.mark.parametrize(
    "fmt, tx_text, profit_text, expected",
    [
        (
            "qty",
            f"a:2 {LONG_LABEL}:3\n{LONG_LABEL}:1\na:1\n",
            f"a 2\n{LONG_LABEL} 5\n",
            ["L #SUP: 2 #UO: 0.89474", "a #SUP: 2 #UO: 0.60526", "L a #SUP: 1 #UO: 1.00000"],
        ),
        (
            "spmf",
            f"{LONG_LABEL} 10:10:4 6\n{LONG_LABEL}:5:5\n10:3:3\n",
            None,
            ["10 #SUP: 2 #UO: 0.80000", "L #SUP: 2 #UO: 0.70000", "10 L #SUP: 1 #UO: 1.00000"],
        ),
    ],
    ids=["qty", "spmf"],
)
def test_labels_past_the_int_digit_limit_mine(tmp_path, capsys, fmt, tx_text, profit_text, expected):
    # the long label is numbered as a number: after "10", before "a"
    assert mine_text(tmp_path, tx_text, profit_text, fmt) == 0
    out = capsys.readouterr().out.replace(LONG_LABEL, "L")
    assert out.splitlines() == expected


def test_quantities_past_the_int_digit_limit(tmp_path, capsys):
    # a number past the limit overflows like a 400-digit one
    assert mine_text(tmp_path, f"a:{'7' * 400} b:1\n") == 2
    overflow = capsys.readouterr()
    assert overflow.err == "error: utility of transaction 1 is not finite\n"
    assert mine_text(tmp_path, f"a:{'7' * 5000} b:1\n") == 2
    assert capsys.readouterr() == overflow
    # a quantity past the float range overflows at any unit utility: the
    # product is taken in floats, though 1e400 * 1e-300 is only 1e100
    assert mine_text(tmp_path, f"a:1{'0' * 400}\n", "a 1e-300\n") == 2
    assert capsys.readouterr() == overflow
    # leading zeros do not count toward the limit
    assert mine_text(tmp_path, "a:1 b:1\n") == 0
    plain = capsys.readouterr()
    assert mine_text(tmp_path, f"a:{'0' * 4999}1 b:1\n") == 0
    assert capsys.readouterr() == plain


# 5000-character tokens; an spmf item must be decimal to pass its first check
X, Z, P, D = "x" * 5000, "z" * 5000, "p" * 5000, "7" * 5000


@pytest.mark.parametrize(
    "fmt, tx_text, profit_text, message",
    [
        pytest.param("qty", f"a:{X} b:1\n", "a 2\nb 3\n",
                     f"line 1: bad quantity '{'x' * 40}…' for item 'a'", id="quantity"),
        pytest.param("qty", f"{X}\n", "a 2\n",
                     f"line 1: expected 'item:quantity', got '{'x' * 40}…'", id="pair"),
        pytest.param("qty", f"{Z}:1\n", "a 2\n",
                     f"line 1: item '{'z' * 40}…' has no profit entry", id="unknown label"),
        pytest.param("qty", f"{Z}:x\n", "a 2\n",
                     f"line 1: bad quantity 'x' for item '{'z' * 40}…'", id="label of a bad quantity"),
        pytest.param("qty", f"{Z}:0\n", "a 2\n",
                     f"line 1: quantity for item '{'z' * 40}…' must be a positive integer, got 0",
                     id="label of a zero quantity"),
        pytest.param("qty", f"a:-{'9' * 4000}\n", "a 2\n",
                     f"line 1: bad quantity '-{'9' * 39}…' for item 'a'", id="negative quantity"),
        pytest.param("qty", f"{Z}:1 {Z}:2\n", f"{Z} 2\n",
                     f"line 1: duplicate item '{'z' * 40}…'", id="duplicate label"),
        pytest.param("qty", f"{Z}:1 {Z}:1\n", f"{Z} 2\n",
                     f"line 1: duplicate item '{'z' * 40}…'", id="duplicate pair"),
        pytest.param("qty", "a:1\n", f"{P} 1\n{P} 1\n",
                     f"line 2: duplicate profit entry for item '{'p' * 40}…'", id="duplicate profit"),
        pytest.param("qty", "a:1\n", f"{P} 0\n",
                     f"line 1: unit utility for item '{'p' * 40}…' must be positive and finite",
                     id="zero unit utility"),
        pytest.param("qty", "a:1\n", f"a {X}\n",
                     f"line 1: bad unit utility '{'x' * 40}…'", id="bad unit utility"),
        pytest.param("spmf", f"{'y' * 5000}:1:1\n", None,
                     f"line 1: item '{'y' * 40}…' is not a non-negative integer", id="spmf item"),
        pytest.param("spmf", f"{D} {D}:2:1 1\n", None,
                     f"line 1: duplicate item '{'7' * 40}…'", id="spmf duplicate"),
        pytest.param("spmf", f"{D}:0:0\n", None,
                     f"line 1: utility for item '{'7' * 40}…' must be positive and finite",
                     id="spmf zero utility"),
        pytest.param("spmf", f"1:1:{X}\n", None,
                     f"line 1: bad utility value '{'x' * 40}…'", id="spmf bad utility"),
        pytest.param("spmf", f"1:{X}:1\n", None,
                     f"line 1: bad transaction utility '{'x' * 40}…'", id="spmf bad TU"),
    ],
)
def test_a_long_malformed_quantity_is_echoed_clipped(tmp_path, capsys, fmt, tx_text, profit_text, message):
    # every error that quotes file text cuts it to its first 40 characters
    assert mine_text(tmp_path, tx_text, profit_text, fmt) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 200


def clipped(text):
    return text if len(text) <= 40 else text[:40] + "…"


@pytest.mark.parametrize(
    "qty",
    ["+5", f"+{'5' * 5000}", "5_0", f"5_{'0' * 5000}", "-5", f"-{'5' * 5000}"],
    ids=["plus", "plus, long", "separator", "separator, long", "minus", "minus, long"],
)
def test_a_quantity_is_decimal_digits_at_any_length(tmp_path, capsys, qty):
    # int() takes a sign and a digit separator below its digit limit; a
    # quantity takes neither, at any length
    assert mine_text(tmp_path, f"a:{qty}\n") == 2
    assert capsys.readouterr().err == f"error: line 1: bad quantity {clipped(qty)!r} for item 'a'\n"


def test_a_quantity_of_leading_zeros_is_its_last_digits(tmp_path, capsys):
    assert mine_text(tmp_path, "a:1\n") == 0
    plain = capsys.readouterr()
    assert mine_text(tmp_path, f"a:{'0' * 4999}1\n") == 0
    assert capsys.readouterr() == plain
    assert mine_text(tmp_path, f"a:{'0' * 5000}\n") == 2
    assert capsys.readouterr().err == (
        "error: line 1: quantity for item 'a' must be a positive integer, got 0\n"
    )


@pytest.mark.parametrize(
    "fmt, tx_text, profit_text, message",
    [
        pytest.param("spmf", "1 01:5:2 3\n", None, "line 1: duplicate item '01'", id="spmf item by value"),
        pytest.param("spmf", "1 2:1_0:5 5\n", None,
                     "line 1: bad transaction utility '1_0'", id="spmf separator"),
        pytest.param("qty", "a:1\n", "a 1_0\n", "line 1: bad unit utility '1_0'", id="profit separator"),
    ],
)
def test_numbers_are_read_as_spmf_reads_them(tmp_path, capsys, fmt, tx_text, profit_text, message):
    # an spmf item is the integer its token spells, and a float takes no
    # digit separator, which Java's Double.parseDouble refuses too
    assert mine_text(tmp_path, tx_text, profit_text, fmt) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_bench_minuo_sweep(dataset, capsys):
    code = cli.main([
        "bench", *qty_args(dataset, "--minsup", "0.3", "--minuo", "0.3", "--maxlen", "3"),
        "--sweep", "minuo", "--values", "0.2,0.4,0.6",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    patterns = [int(line.split(",")[-1]) for line in lines[1:]]
    assert patterns == sorted(patterns, reverse=True)
    betas = [line.split(",")[2] for line in lines[1:]]
    assert betas == ["0.2", "0.4", "0.6"]


def test_bench_minsup_sweep(dataset, capsys):
    code = cli.main([
        "bench", *qty_args(dataset, "--minsup", "0.3", "--minuo", "0.3", "--maxlen", "3"),
        "--sweep", "minsup", "--values", "0.2,0.4,0.6",
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    patterns = [int(line.split(",")[-1]) for line in lines[1:]]
    assert patterns == sorted(patterns, reverse=True)
    assert patterns[0] > patterns[-1]
    alphas = [line.split(",")[1] for line in lines[1:]]
    assert alphas == ["0.2", "0.4", "0.6"]


def test_bench_checks_every_row_before_io(tmp_path, capsys):
    missing = tmp_path / "does-not-exist.qty"
    code = cli.main([
        "bench", "--input", str(missing), "--format", "qty", "--profit", str(missing),
        "--minsup", "0.3", "--minuo", "0.3", "--minlen", "3",
        "--sweep", "maxlen", "--values", "4,2",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "--maxlen 2" in err
    assert "does-not-exist" not in err  # rejected before any read was attempted


def test_bench_maxlen_sweep_adds_uncapped_row(dataset, tmp_path):
    stats = tmp_path / "sweep.csv"
    code = cli.main([
        "bench", *qty_args(dataset, "--minsup", "0.3", "--minuo", "0.3"),
        "--sweep", "maxlen", "--values", "1,2,3", "--stats", str(stats),
    ])
    assert code == 0
    lines = stats.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [r[4] for r in rows] == ["1", "2", "3", "0"]
    visited = [int(r[6]) for r in rows]
    assert visited == [5, 13, 22, 24]  # at cap 2 the leaf gate rejects two pairs
    assert visited == sorted(visited)


def test_bench_maxlen_sweep_lists_a_given_uncapped_row_once(dataset, tmp_path):
    stats = tmp_path / "sweep.csv"
    code = cli.main([
        "bench", *qty_args(dataset, "--minsup", "0.3", "--minuo", "0.3"),
        "--sweep", "maxlen", "--values", "2,0", "--stats", str(stats),
    ])
    assert code == 0
    rows = [line.split(",") for line in stats.read_text().splitlines()[1:]]
    assert [r[4] for r in rows] == ["2", "0"]


def test_uncapped_row_when_the_item_table_outnumbers_the_frequent_items(dataset, tmp_path):
    # at minsup 0.7 only b of the 5 items is frequent, so the uncapped
    # cap of 5 and the cap of 1 walk the same tree
    stats = tmp_path / "sweep.csv"
    code = cli.main([
        "bench", *qty_args(dataset, "--minsup", "0.7", "--minuo", "0.3"),
        "--sweep", "maxlen", "--values", "1", "--stats", str(stats),
    ])
    assert code == 0
    rows = [line.split(",") for line in stats.read_text().splitlines()[1:]]
    assert [r[4] for r in rows] == ["1", "0"]
    assert [r[6:] for r in rows] == [["1", "0", "1"], ["1", "0", "1"]]


def test_bench_rejects_bad_values(dataset, capsys):
    base = ["bench", *qty_args(dataset, "--minsup", "0.3", "--minuo", "0.3")]
    assert cli.main(base + ["--sweep", "minuo", "--values", "0.2,oops"]) == 2
    assert cli.main(base + ["--sweep", "minuo", "--values", "1.5"]) == 2
    assert cli.main(base + ["--sweep", "maxlen", "--values", "-2"]) == 2
    assert cli.main(base + ["--sweep", "minsup", "--values", ", ,"]) == 2
    assert capsys.readouterr().err.count("error: ") == 4


def test_gen_is_deterministic(tmp_path):
    args = ["gen", "--items", "8", "--transactions", "12", "--avg-len", "3", "--seed", "9"]
    first = tmp_path / "one.qty"
    second = tmp_path / "two.qty"
    assert cli.main(args + ["--output", str(first)]) == 0
    assert cli.main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # profit table lands next to the transactions by default
    assert (tmp_path / "one.qty.profit").read_bytes() == (tmp_path / "two.qty.profit").read_bytes()


def test_gen_output_is_minable(tmp_path, capsys):
    out = tmp_path / "g.qty"
    assert cli.main(["gen", "--items", "6", "--transactions", "30", "--avg-len", "3",
                     "--seed", "4", "--output", str(out)]) == 0
    code = cli.main(["verify", "--input", str(out), "--format", "qty",
                     "--profit", str(out) + ".profit",
                     "--minsup", "0.2", "--minuo", "0.2", "--maxlen", "4"])
    assert code == 0
    assert capsys.readouterr().out.startswith("MATCH: ")


def test_gen_defaults_are_the_generator_specs(tmp_path):
    out = tmp_path / "g.qty"
    assert cli.main(["gen", "--items", "9", "--transactions", "40", "--avg-len", "3",
                     "--output", str(out)]) == 0
    want, want_profit = tmp_path / "want.qty", tmp_path / "want.profit"
    write_quantity_profit(generate_synthetic(GeneratorSpec(9, 40, 3)), want, want_profit)
    assert out.read_bytes() == want.read_bytes()
    assert (tmp_path / "g.qty.profit").read_bytes() == want_profit.read_bytes()


def test_gen_validates_spec(tmp_path, capsys):
    out = tmp_path / "x.qty"
    code = cli.main(["gen", "--items", "3", "--transactions", "5", "--avg-len", "9",
                     "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: avg_transaction_len must be in [1, n_items]\n"
    # each field out of its domain; the flag given last overrides the valid one
    for flag, message in [
        ("--items", "need at least one item and one transaction"),
        ("--transactions", "need at least one item and one transaction"),
        ("--avg-len", "avg_transaction_len must be in [1, n_items]"),
        ("--max-quantity", "max_quantity and max_unit_utility must be >= 1"),
        ("--max-utility", "max_quantity and max_unit_utility must be >= 1"),
    ]:
        code = cli.main(["gen", "--items", "6", "--transactions", "5", "--avg-len", "2",
                         flag, "0", "--output", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_threads_do_not_change_output(dataset, tmp_path):
    single = tmp_path / "t1.txt"
    pooled = tmp_path / "t4.txt"
    assert cli.main(mine_args(dataset, "--maxlen", "3", "--output", str(single))) == 0
    assert cli.main(mine_args(dataset, "--maxlen", "3", "--threads", "4",
                              "--output", str(pooled))) == 0
    assert single.read_bytes() == pooled.read_bytes()


def _child_env():
    # a child must import the same package as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_module_entrypoint(dataset, tmp_path):
    def child(argv):
        return subprocess.run([sys.executable, "-m", "huopminer", *argv], capture_output=True,
                              text=True, env=_child_env())

    out = tmp_path / "m.txt"
    proc = child(mine_args(dataset, "--maxlen", "3", "--output", str(out)))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert len(out.read_text().splitlines()) == 18
    # verify's verdict crosses the process boundary as its exit code
    proc = child(["verify", *qty_args(dataset, "--minsup", "0.3", "--minuo", "0.3", "--maxlen", "3")])
    assert proc.returncode == 0
    assert proc.stdout == "MATCH: 18 patterns\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_the_run_as_it_ends_cat(tmp_path):
    # a reader that stops early, as head does, closes the pipe while the
    # results are still being written: the run ends by SIGPIPE, with
    # nothing on stderr, instead of reporting a broken pipe as a user error
    data = tmp_path / "d.qty"
    assert cli.main(["gen", "--items", "40", "--transactions", "300", "--avg-len", "12",
                     "--output", str(data)]) == 0
    argv = ["mine", "--input", str(data), "--format", "qty", "--profit", f"{data}.profit",
            "--minsup", "0.02", "--minuo", "0.05", "--maxlen", "3"]
    out = tmp_path / "results.txt"
    assert cli.main([*argv, "--output", str(out)]) == 0
    assert out.stat().st_size > 1 << 18  # well past a pipe's buffer
    proc = subprocess.Popen([sys.executable, "-m", "huopminer", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env())
    with proc.stderr:
        with proc.stdout:
            assert proc.stdout.readline()
        assert proc.stderr.read() == b""
    assert proc.wait() == -signal.SIGPIPE
