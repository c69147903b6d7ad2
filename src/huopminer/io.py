"""Reading, writing and generating datasets, plus the result writers.

Two text formats are supported, both UTF-8 text whose lines end where
``str.splitlines`` ends them; a leading byte-order mark is skipped:

* utility-list lines, one transaction per line::

      item1 item2 ... itemK:TU:u1 u2 ... uK

  where ``uj`` is the total utility of ``itemj`` in the transaction and
  ``TU`` their sum.  Each item is the integer its token spells, so
  ``007`` is item ``7``; each ``uj`` is folded into a quantity against a
  unit utility of 1, which changes no product and so no mining result.

* quantity-profit pairs, a transactions file of ``item:quantity`` pairs
  plus a profit file of ``item unit_utility`` lines.  ``#`` starts a
  comment line and blank lines are skipped in both files.  Every profit
  line is an item; one that no transaction lists changes no answer.

Quantities and spmf item ids are decimal digits, leading zeros ignored;
utilities are float text without ``_``, as SPMF's Java reader takes
them.  Transaction ids are assigned 1-based in file order, and errors
are reported in file order too, quoting file text cut to 40 characters.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .database import HUOPResult, TransactionDatabase, build_database
from .database import _columns, _decimal_digits, _number_items
from .errors import DatasetFormatError, InvalidDatabaseError, InvalidParamsError

TU_TOLERANCE = 1e-6

# The most pair texts one quantity parse remembers, about 1 MB.  A file
# whose pairs rarely repeat (distinct quantities) would otherwise grow the
# memo with its own size and gain no hits, only time and memory.
_PAIR_MEMO_CAP = 4096

# The characters a data-line reader splits into lines at a time: the
# lines of one chunk, not of the whole text, live at once.
_CHUNK_CHARS = 1 << 16


# ---------------------------------------------------------------------------
# parsing

def _clip(text: str) -> str:
    """``text`` as an error message echoes it: its first 40 characters."""
    return text if len(text) <= 40 else text[:40] + "…"


def _read_text(source) -> str:
    """The whole text of a path or a text stream, less one leading
    byte-order mark."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"not UTF-8 text: {exc}") from None
    return text.removeprefix("\ufeff")


def _data_lines(text: str, allow_comments: bool) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, stripped line)`` for the data lines of
    ``text``.  The text is split in chunks of about ``_CHUNK_CHARS``
    characters, each cut just after a ``\\n``, which always ends a line
    under ``str.splitlines``: the lines, their numbers and their ends are
    those of ``text.splitlines()``, and only one chunk's list of lines is
    alive at a time."""
    no = start = 0
    while start < len(text):
        cut = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        for no, raw in enumerate(text[start:cut].splitlines(), start=no + 1):
            line = raw.strip()
            if not line:
                continue
            if allow_comments and line.startswith("#"):
                continue
            yield no, line
        start = cut


def _float(text: str, what: str, no: int) -> float:
    """``text`` as a float without ``_``, or the format error that names it ``what``."""
    try:
        if "_" not in text:
            return float(text)
    except ValueError:
        pass
    raise DatasetFormatError(f"bad {what} {_clip(text)!r}", no)


def parse_spmf_utility(source) -> TransactionDatabase:
    """Parse utility-list lines into a database.

    The text is read once.  A first pass numbers the integers that the
    decimal tokens before each line's first colon spell, as the qty loader
    numbers labels; a second checks each line in file order and stores it
    in the columns.  Rejects malformed lines, duplicate items in a line,
    non-positive or non-finite utilities, and lines whose declared TU is
    not within ``TU_TOLERANCE`` of the sum of the per-item utilities,
    widened by the rounding error a float sum of that many values can carry.
    """
    text = _read_text(source)
    lines = _data_lines(text, allow_comments=False)
    tokens = {token for _, line in lines for token in line.partition(":")[0].split()}
    canonical = {token: _decimal_digits(token) or "0" for token in tokens if token.isdecimal()}
    labels, ids, table = _number_items(dict.fromkeys(canonical.values(), 1.0))
    return _columns(_spmf_rows(text, {t: ids[c] for t, c in canonical.items()}), table, labels)


def _spmf_rows(text: str, ids: Mapping[str, int]) -> Iterator[tuple[int, dict[int, float], float]]:
    """The checked ``(tid, {item: utility}, total)`` row of each data line:
    each item the ``ids`` entry of its token, ``total`` summed left to right."""
    for tid, (no, line) in enumerate(_data_lines(text, allow_comments=False), start=1):
        parts = line.split(":")
        if len(parts) != 3:
            raise DatasetFormatError("expected 'items:TU:utilities' with two colons", no)
        items = parts[0].split()
        utilities = parts[2].split()
        if not items:
            raise DatasetFormatError("no items in transaction", no)
        if len(items) != len(utilities):
            raise DatasetFormatError(f"{len(items)} items but {len(utilities)} utility values", no)
        tu = _float(parts[1], "transaction utility", no)
        entries: dict[int, float] = {}
        total = 0.0
        for token, value_text in zip(items, utilities):
            item = ids.get(token)
            if item is None:
                raise DatasetFormatError(f"item {_clip(token)!r} is not a non-negative integer", no)
            if item in entries:
                raise DatasetFormatError(f"duplicate item {_clip(token)!r}", no)
            value = _float(value_text, "utility value", no)
            if not 0 < value < math.inf:
                raise DatasetFormatError(f"utility for item {_clip(token)!r} must be positive and finite", no)
            entries[item] = value
            total += value
        # the rounding slack scales with the sum, not with tu, so that an
        # infinite TU or sum fails; the negated test fails a nan TU too
        slack = (len(items) + 1) * sys.float_info.epsilon * total
        if not abs(total - tu) <= TU_TOLERANCE + slack or total == math.inf:
            raise DatasetFormatError(f"declared TU {tu} but utilities sum to {total}", no)
        yield tid, entries, total


def parse_quantity_profit(tx_source, profit_source) -> TransactionDatabase:
    """Parse a quantity file and its profit table into a database.

    The profit file is read first, each line an item.  The quantity file
    is then read in one pass, each line converted straight to its
    id-keyed row and stored in the database's columns.  A pair text read
    before is looked up in a bounded memo instead of parsed again; the
    errors and the database are the same either way.
    """
    utilities: dict[str, float] = {}
    for no, line in _data_lines(_read_text(profit_source), allow_comments=True):
        fields = line.split()
        if len(fields) != 2:
            raise DatasetFormatError("expected 'item unit_utility'", no)
        label, text = fields
        if label in utilities:
            raise DatasetFormatError(f"duplicate profit entry for item {_clip(label)!r}", no)
        eu = _float(text, "unit utility", no)
        if not 0 < eu < math.inf:
            raise DatasetFormatError(f"unit utility for item {_clip(label)!r} must be positive and finite", no)
        utilities[label] = eu
    labels, ids, table = _number_items(utilities)

    def id_rows() -> Iterator[tuple[int, dict[int, int], float]]:
        memo: dict[str, tuple[int, int, float]] = {}  # pair text -> (item, qty, utility)
        lines = _data_lines(_read_text(tx_source), allow_comments=True)
        for tid, (no, line) in enumerate(lines, start=1):
            by_id: dict[int, int] = {}
            tu = 0.0
            for pair in line.split():
                entry = memo.get(pair)
                if entry is None:
                    label, sep, qty_text = pair.rpartition(":")
                    if not sep or not label:
                        raise DatasetFormatError(f"expected 'item:quantity', got {_clip(pair)!r}", no)
                    item = ids.get(label)
                    if item in by_id:
                        raise DatasetFormatError(f"duplicate item {_clip(label)!r}", no)
                    if not qty_text.isdecimal():
                        raise DatasetFormatError(
                            f"bad quantity {_clip(qty_text)!r} for item {_clip(label)!r}", no
                        )
                    # leading zeros do not count; 640 digits or more overflow
                    # the float range at any unit utility, like the product below
                    digits = _decimal_digits(qty_text)
                    if not digits:
                        raise DatasetFormatError(
                            f"quantity for item {_clip(label)!r} must be a positive integer, got 0", no
                        )
                    qty = int(digits) if len(digits) < 640 else math.inf
                    if item is None:
                        raise DatasetFormatError(f"item {_clip(label)!r} has no profit entry", no)
                    try:
                        u = qty * table[item]
                    except OverflowError:  # an int quantity beyond the float range
                        u = math.inf
                    if len(memo) < _PAIR_MEMO_CAP:
                        memo[pair] = (item, qty, u)
                else:
                    item, qty, u = entry
                    if item in by_id:
                        raise DatasetFormatError(f"duplicate item {_clip(labels[item])!r}", no)
                by_id[item] = qty
                tu += u
            yield tid, by_id, tu

    return _columns(id_rows(), table, labels)


# ---------------------------------------------------------------------------
# synthetic data

@dataclass(frozen=True)
class GeneratorSpec:
    """Shape of a synthetic database; the same spec always produces the
    same database."""

    n_items: int
    n_transactions: int
    avg_transaction_len: int
    max_quantity: int = 5
    max_unit_utility: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_items < 1 or self.n_transactions < 1:
            raise InvalidParamsError("need at least one item and one transaction")
        if not 1 <= self.avg_transaction_len <= self.n_items:
            raise InvalidParamsError("avg_transaction_len must be in [1, n_items]")
        if self.max_quantity < 1 or self.max_unit_utility < 1:
            raise InvalidParamsError("max_quantity and max_unit_utility must be >= 1")


def generate_synthetic(spec: GeneratorSpec) -> TransactionDatabase:
    """Draw a database: transaction lengths uniform in
    ``[1, 2 * avg_transaction_len - 1]`` (capped by the vocabulary),
    items sampled without replacement, quantities uniform in
    ``[1, max_quantity]``, one fixed unit utility per item uniform in
    ``[1, max_unit_utility]``."""
    rng = random.Random(spec.seed)
    labels = [str(i) for i in range(1, spec.n_items + 1)]
    utilities = {label: rng.randint(1, spec.max_unit_utility) for label in labels}
    def rows() -> Iterator[tuple[int, dict[str, int]]]:
        for tid in range(1, spec.n_transactions + 1):
            length = min(rng.randint(1, 2 * spec.avg_transaction_len - 1), spec.n_items)
            chosen = rng.sample(labels, length)
            yield tid, {label: rng.randint(1, spec.max_quantity) for label in chosen}
    return build_database(rows(), utilities)


# ---------------------------------------------------------------------------
# writing

@contextmanager
def _output(dest) -> Iterator[IO[str]]:
    """Yield a text stream for a path or a stream; only a path opened
    here is closed again."""
    if hasattr(dest, "write"):
        yield dest
        return
    with open(dest, "w", encoding="utf-8", newline="") as out:
        yield out


def _fmt_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def write_results(results: Sequence[HUOPResult], db: TransactionDatabase, dest) -> None:
    """One line per pattern: labels, support count, occupancy to five
    decimal places.  Expects results already in their canonical order."""
    with _output(dest) as out:
        for r in results:
            labels = " ".join(db.labels_of(r.pattern))
            out.write(f"{labels} #SUP: {r.sup} #UO: {r.uo:.5f}\n")


STATS_FIELDS = (
    "dataset",
    "alpha",
    "beta",
    "minlen",
    "maxlen",
    "runtime_ms",
    "visited_nodes",
    "constructions",
    "patterns",
)


def write_stats_csv(rows: Iterable[Mapping[str, object]], dest) -> None:
    """Write run statistics as CSV with a fixed header."""
    with _output(dest) as out:
        writer = csv.DictWriter(out, fieldnames=STATS_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_quantity_profit(db: TransactionDatabase, tx_dest, profit_dest) -> None:
    """Write a database in the quantity-profit pair of files, each quantity
    as the decimal digits the qty loader reads.  A quantity that is not a
    whole number, such as an spmf utility of 2.5, raises
    ``InvalidDatabaseError`` naming its transaction and item before either
    destination is opened."""
    for e, qty in enumerate(db.quantities):
        if qty % 1:  # a fraction, or nan for an infinite or nan quantity
            tid, label = db.tids[bisect_right(db.ends, e)], db.item_labels[db.items[e]]
            raise InvalidDatabaseError(
                f"quantity {qty!r} for item {label!r} in transaction {tid} is not a whole number"
            )
    with _output(tx_dest) as out:
        for tx in db.transactions:
            pairs = " ".join(f"{db.item_labels[item]}:{int(qty)}" for item, qty in tx.entries.items())
            out.write(pairs + "\n")
    with _output(profit_dest) as out:
        for item, label in enumerate(db.item_labels):
            out.write(f"{label} {_fmt_number(db.utility_table[item])}\n")
