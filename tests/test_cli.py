"""End-to-end command-line behaviour."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from huopminer import HUOPResult, cli

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
    tx = tmp_path / "input.txt"
    tx.write_text(tx_text)
    args = ["mine", "--input", str(tx), "--format", fmt, "--minsup", "0.3", "--minuo", "0.1"]
    if profit_text is not None:
        profit = tmp_path / "input.profit"
        profit.write_text(profit_text)
        args += ["--profit", str(profit)]
    assert cli.main(args) == 0
    out = capsys.readouterr().out.replace(LONG_LABEL, "L")
    assert out.splitlines() == expected


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
    assert visited == [5, 15, 22, 24]
    assert visited == sorted(visited)


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


def test_gen_validates_spec(tmp_path, capsys):
    code = cli.main(["gen", "--items", "3", "--transactions", "5", "--avg-len", "9",
                     "--output", str(tmp_path / "x.qty")])
    assert code == 2
    assert "error: " in capsys.readouterr().err


def test_threads_do_not_change_output(dataset, tmp_path):
    single = tmp_path / "t1.txt"
    pooled = tmp_path / "t4.txt"
    assert cli.main(mine_args(dataset, "--maxlen", "3", "--output", str(single))) == 0
    assert cli.main(mine_args(dataset, "--maxlen", "3", "--threads", "4",
                              "--output", str(pooled))) == 0
    assert single.read_bytes() == pooled.read_bytes()


def test_module_entrypoint(dataset, tmp_path):
    tx, profit = dataset
    out = tmp_path / "m.txt"
    # the child must import the same package as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "huopminer", "mine", "--input", str(tx), "--format", "qty",
         "--profit", str(profit), "--minsup", "0.3", "--minuo", "0.3",
         "--maxlen", "3", "--output", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert len(out.read_text().splitlines()) == 18
