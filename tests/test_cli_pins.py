"""The CLI pins: generated datasets run through ``cli.main`` end to end.

``verify`` prints ``MATCH`` and returns 0 only when the engine's pattern
set, supports and occupancies agree with the brute-force oracle.  Copies
of the same data in another layout must mine to the same bytes, and the
benchmark's three shapes mine to pinned sha256 digests, so any change to
a pattern, support or occupancy digit fails.  Each dataset is generated
once per module and shared by every run that reads it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from helpers import cut, pad_profit_table, pad_quantities, pad_spmf_ids, to_spmf
from huopminer import cli

# ``huopminer gen`` flags of each dataset.  dense, sparse and long are the
# benchmark's dense-narrow, sparse-wide and long-uncapped shapes.
SHAPES = {
    "gen": "--items 12 --transactions 500 --avg-len 5 --seed 1",
    "thin": "--items 20 --transactions 600 --avg-len 2 --seed 4",
    "wide": "--items 30 --transactions 2000 --avg-len 5 --max-quantity 1000000 --seed 6",
    "dense": "--items 25 --transactions 3000 --avg-len 9 --seed 2",
    "sparse": "--items 200 --transactions 100000 --avg-len 5 --seed 3",
    "long": "--items 20 --transactions 4000 --avg-len 8 --seed 5",
}

GEN_FLAGS = "--minsup 0.05 --minuo 0.2"
WIDE_FLAGS = "--minsup 0.05 --minuo 0.2 --maxlen 3"

# The benchmark shapes' mining flags and the sha256 of their result files.
PINS = {
    "dense": ("--minsup 0.05 --minuo 0.3 --maxlen 3",
              "3740e96339fd4d51c1efdd5931599507855536e85501828d315787d4a8e481fb"),
    "sparse": ("--minsup 0.025 --minuo 0.2 --maxlen 3",
               "7f5a3765d98d8251391c8fadb9462b2a5aa9932552ce6dfc75f31f4b314d7256"),
    "long": ("--minsup 0.06 --minuo 0.2",
             "4e22ad796d87cb7f5d2a19836e28ad0475153601ae9a192f4eaedd8c67cc21c9"),
}


class Datasets:
    """The inputs, each written once on first use: ``<shape>.qty`` from
    ``huopminer gen``, its ``<shape>.spmf`` copy, and ``padded.profit``,
    the gen shape's profit table with unlisted items added."""

    def __init__(self, root: Path):
        self.root = root
        self._made: dict[str, Path] = {}

    def path(self, name: str) -> Path:
        if name not in self._made:
            self._made[name] = self._make(name)
        return self._made[name]

    def _make(self, name: str) -> Path:
        path = self.root / name
        shape, kind = name.split(".")
        if kind == "qty":
            assert cli.main(["gen", *SHAPES[shape].split(), "--output", str(path)]) == 0
        elif kind == "spmf":
            path.write_text(to_spmf(self.path(f"{shape}.qty")))
        else:
            path.write_text(pad_profit_table(Path(f"{self.path('gen.qty')}.profit").read_text()))
        return path

    def args(self, name: str, profit: str | None = None) -> list[str]:
        """The dataset flags that read ``name``; a qty file reads its own
        ``.profit`` table unless another is named."""
        path = self.path(name)
        if name.endswith(".spmf"):
            return ["--input", str(path), "--format", "spmf"]
        table = self.path(profit) if profit else f"{path}.profit"
        return ["--input", str(path), "--format", "qty", "--profit", str(table)]


@pytest.fixture(scope="module")
def datasets(tmp_path_factory):
    return Datasets(tmp_path_factory.mktemp("cli-pins"))


def mined(out: Path, args: list[str], flags: str) -> bytes:
    assert cli.main(["mine", *args, *flags.split(), "--output", str(out)]) == 0
    return out.read_bytes()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# (input, profit table, flags, patterns reported)
VERIFY = [
    pytest.param("gen.qty", None, GEN_FLAGS, 672, id="gen"),
    pytest.param("gen.qty", None, f"{GEN_FLAGS} --maxlen 3", 283, id="gen-maxlen3"),
    # the capped remainders overflow their 3 slots and the bound prunes 21
    # subtrees, so the scan's replace path and the bound behind its
    # pre-checks both decide answers
    pytest.param("gen.qty", None, "--minsup 0.05 --minuo 0.5 --maxlen 4", 216,
                 id="gen-minuo0.5-maxlen4"),
    # a minimum length drops the short patterns and nothing else, with and
    # without a length cap
    pytest.param("gen.qty", None, f"{GEN_FLAGS} --minlen 2", 666, id="gen-minlen2"),
    pytest.param("gen.qty", None, f"{GEN_FLAGS} --minlen 2 --maxlen 3", 277,
                 id="gen-minlen2-maxlen3"),
    # no node is joined or bounded, so the single-item nodes never build
    # their tid-keyed dicts and every answer comes from the sums over the
    # scan's compact columns
    pytest.param("gen.qty", None, f"{GEN_FLAGS} --maxlen 1", 6, id="gen-maxlen1"),
    # thin loses 9 of its 20 items and 117 of its 600 transactions to
    # revision at minsup 0.1, so the nodes' bits number kept positions,
    # not tids
    pytest.param("thin.qty", None, "--minsup 0.1 --minuo 0.2", 11, id="thin"),
    pytest.param("thin.qty", None, "--minsup 0.1 --minuo 0.2 --maxlen 2", 11, id="thin-maxlen2"),
    pytest.param("thin.qty", None, "--minsup 0.1 --minuo 0.2 --maxlen 1", 11, id="thin-maxlen1"),
    pytest.param("gen.spmf", None, GEN_FLAGS, 672, id="gen-spmf"),
    pytest.param("gen.spmf", None, f"{GEN_FLAGS} --maxlen 3", 283, id="gen-spmf-maxlen3"),
    # 31 profit lines that no transaction lists, one of them sorting
    # first, shift every item's id and must change no answer
    pytest.param("gen.qty", "padded.profit", GEN_FLAGS, 672, id="gen-padded-profit"),
    pytest.param("wide.qty", None, f"{WIDE_FLAGS} --max-items 30", 17, id="wide"),
    # the oracle averages over each candidate's tidset, so 200 items or
    # 2180 patterns up to length 4 take seconds.  dense is join-heavy: its
    # 2590 kept joins each read the left operand and the added item's
    # columns only; long is uncapped and deep
    pytest.param("dense.qty", None, PINS["dense"][0], 210, id="dense"),
    pytest.param("sparse.qty", None, f"{PINS['sparse'][0]} --max-items 200", 56, id="sparse"),
    pytest.param("long.qty", None, PINS["long"][0], 2180, id="long"),
]


@pytest.mark.parametrize("name, profit, flags, patterns", VERIFY)
def test_verify_matches_the_oracle(datasets, capsys, name, profit, flags, patterns):
    assert cli.main(["verify", *datasets.args(name, profit), *flags.split()]) == 0
    assert capsys.readouterr().out == f"MATCH: {patterns} patterns\n"


def test_spmf_copy_mines_to_the_same_bytes(datasets, tmp_path):
    qty = mined(tmp_path / "qty.out", datasets.args("gen.qty"), GEN_FLAGS)
    assert mined(tmp_path / "spmf.out", datasets.args("gen.spmf"), GEN_FLAGS) == qty


def test_quantities_past_the_int_digit_limit_mine_to_the_same_bytes(datasets, tmp_path):
    # 4400 zeros in front of every quantity, past the 4300 digits int()
    # converts from text
    qty = mined(tmp_path / "qty.out", datasets.args("gen.qty"), GEN_FLAGS)
    zeros = tmp_path / "zeros.qty"
    zeros.write_text(pad_quantities(datasets.path("gen.qty").read_text(), 4400))
    args = ["--input", str(zeros), "--format", "qty", "--profit", f"{datasets.path('gen.qty')}.profit"]
    assert mined(tmp_path / "zeros.out", args, GEN_FLAGS) == qty


def test_unlisted_profit_lines_change_no_byte(datasets, tmp_path):
    # the 31 extra profit lines shift every item's id
    qty = mined(tmp_path / "qty.out", datasets.args("gen.qty"), GEN_FLAGS)
    padded = mined(tmp_path / "padded.out", datasets.args("gen.qty", "padded.profit"), GEN_FLAGS)
    assert padded == qty


def test_wide_spmf_copy_mines_to_the_same_bytes(datasets, tmp_path):
    # wide's quantities run to 1e6, so its 9782 distinct item:quantity
    # texts overflow the qty parser's memo of pair texts; its spmf copy
    # loads through build_database instead
    qty = mined(tmp_path / "qty.out", datasets.args("wide.qty"), WIDE_FLAGS)
    assert mined(tmp_path / "spmf.out", datasets.args("wide.spmf"), WIDE_FLAGS) == qty


@pytest.mark.parametrize("shape", PINS)
def test_result_digest(datasets, tmp_path, shape):
    # dense-narrow's 210 patterns, sparse-wide's 56 (its time goes to
    # parsing and building the initial nodes) and long-uncapped's 2180 of
    # lengths 1 to 4 with the default maxlen 0, which pin the order the
    # walk reports each length in
    flags, pin = PINS[shape]
    assert sha256(mined(tmp_path / "qty.out", datasets.args(f"{shape}.qty"), flags)) == pin


@pytest.mark.parametrize("shape", PINS)
def test_spmf_copy_result_digest(datasets, tmp_path, shape):
    # through the loader that streams its lines into build_database; the
    # long copy takes that loader through the uncapped, deep search
    flags, pin = PINS[shape]
    assert sha256(mined(tmp_path / "spmf.out", datasets.args(f"{shape}.spmf"), flags)) == pin


@pytest.mark.parametrize("shape", ["dense", "long"])
def test_zero_padded_spmf_ids_result_digest(datasets, tmp_path, shape):
    # an spmf item is the integer its token spells
    flags, pin = PINS[shape]
    padded = tmp_path / "padded.spmf"
    padded.write_text(pad_spmf_ids(datasets.path(f"{shape}.spmf").read_text()))
    args = ["--input", str(padded), "--format", "spmf"]
    assert sha256(mined(tmp_path / "padded.out", args, flags)) == pin


def bench_counters(datasets, capsys, flags: str, fields: str) -> bytes:
    assert cli.main(["bench", *datasets.args("dense.qty"), *flags.split()]) == 0
    return cut(capsys.readouterr().out, fields)


def test_dense_maxlen_sweep_counters(datasets, capsys):
    # the paper's maxlen sweep: visited nodes, joins and patterns at caps
    # 1, 2, 3 and uncapped (the maxlen column and the counters, not the
    # runtime).  The leaf gate turns down the joins into the cap whose uo
    # it proves below minuo from the masks, so at cap 2 none of the 300
    # pairs and at cap 3 only 252 of the 2290 triples are built and
    # visited, while the joins and patterns stay
    kept = bench_counters(datasets, capsys,
                          "--minsup 0.05 --minuo 0.3 --sweep maxlen --values 1,2,3", "5,7-")
    assert sha256(kept) == "67af536d225384572888bea34118e76010134aa710dcdab9d44e28b13e9278f5", kept


def test_dense_minuo_sweep_counters(datasets, capsys):
    # the same counters at cap 3, where the gate turns down 729, 2038,
    # 2155 and 808 leaves (the beta column and the counters)
    kept = bench_counters(datasets, capsys,
                          "--minsup 0.05 --minuo 0.3 --maxlen 3 --sweep minuo --values 0.2,0.3,0.4,0.6",
                          "3,7-")
    assert sha256(kept) == "d3c4e1e39b1fe8aa6212dcd83b5bc9a2b63a7172ae004dc912759402baff362d", kept
