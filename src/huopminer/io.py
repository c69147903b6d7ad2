"""Reading, writing and generating datasets, plus the result writers.

Two text formats are supported, both UTF-8 with LF line endings:

* utility-list lines, one transaction per line::

      item1 item2 ... itemK:TU:u1 u2 ... uK

  where ``uj`` is the total utility of ``itemj`` in the transaction and
  ``TU`` their sum.  Items are integer tokens.  Ingestion folds each
  ``uj`` into a synthetic quantity against a unit utility of 1; every
  downstream formula only ever consumes the product, so mining results
  are unaffected.

* quantity-profit pairs, a transactions file of ``item:quantity`` pairs
  plus a profit file of ``item unit_utility`` lines.  ``#`` starts a
  comment line and blank lines are skipped in both files.

Transaction ids are assigned 1-based in file order.
"""

from __future__ import annotations

import csv
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .database import TransactionDatabase, build_database
from .errors import DatasetConsistencyError, DatasetFormatError
from .search import HUOPResult

TU_TOLERANCE = 1e-6


# ---------------------------------------------------------------------------
# parsing

def _open_lines(source) -> list[str]:
    """Return the lines of a path or a text stream."""
    if hasattr(source, "read"):
        return source.read().splitlines()
    with open(source, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


def _data_lines(lines: Iterable[str], allow_comments: bool):
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if allow_comments and line.startswith("#"):
            continue
        yield no, line


def parse_spmf_utility(source) -> TransactionDatabase:
    """Parse utility-list lines into a database.

    Rejects malformed lines, duplicate items within a line, non-positive
    or non-finite utilities, and lines whose declared TU is not within
    ``TU_TOLERANCE`` of the sum of the per-item utilities.
    """
    lines = _open_lines(source)
    rows = []
    tid = 0
    for no, line in _data_lines(lines, allow_comments=False):
        parts = line.split(":")
        if len(parts) != 3:
            raise DatasetFormatError("expected 'items:TU:utilities' with two colons", no)
        items = parts[0].split()
        utilities = parts[2].split()
        if not items:
            raise DatasetFormatError("no items in transaction", no)
        if len(items) != len(utilities):
            raise DatasetFormatError(
                f"{len(items)} items but {len(utilities)} utility values", no
            )
        try:
            tu = float(parts[1])
        except ValueError:
            raise DatasetFormatError(f"bad transaction utility {parts[1]!r}", no) from None
        entries: dict[str, float] = {}
        total = 0.0
        for token, text in zip(items, utilities):
            if not token.isdecimal():
                raise DatasetFormatError(f"item {token!r} is not a non-negative integer", no)
            if token in entries:
                raise DatasetFormatError(f"duplicate item {token!r}", no)
            try:
                value = float(text)
            except ValueError:
                raise DatasetFormatError(f"bad utility value {text!r}", no) from None
            if not 0 < value < math.inf:
                raise DatasetFormatError(f"utility for item {token!r} must be positive and finite", no)
            entries[token] = value
            total += value
        # written so that a nan or infinite TU fails the check too
        if not abs(total - tu) <= TU_TOLERANCE:
            raise DatasetConsistencyError(
                f"declared TU {tu} but utilities sum to {total}", no
            )
        tid += 1
        rows.append((tid, entries))

    vocabulary = {label for _, entries in rows for label in entries}
    return build_database(rows, {label: 1.0 for label in vocabulary})


def parse_quantity_profit(tx_source, profit_source) -> TransactionDatabase:
    """Parse a quantity file and its profit table into a database."""
    profit_lines = _open_lines(profit_source)
    utilities: dict[str, float] = {}
    for no, line in _data_lines(profit_lines, allow_comments=True):
        fields = line.split()
        if len(fields) != 2:
            raise DatasetFormatError("expected 'item unit_utility'", no)
        label, text = fields
        if label in utilities:
            raise DatasetFormatError(f"duplicate profit entry for item {label!r}", no)
        try:
            eu = float(text)
        except ValueError:
            raise DatasetFormatError(f"bad unit utility {text!r}", no) from None
        if not 0 < eu < math.inf:
            raise DatasetFormatError(f"unit utility for item {label!r} must be positive and finite", no)
        utilities[label] = eu

    tx_lines = _open_lines(tx_source)
    rows = []
    tid = 0
    for no, line in _data_lines(tx_lines, allow_comments=True):
        entries: dict[str, int] = {}
        for pair in line.split():
            label, sep, qty_text = pair.rpartition(":")
            if not sep or not label:
                raise DatasetFormatError(f"expected 'item:quantity', got {pair!r}", no)
            if label in entries:
                raise DatasetFormatError(f"duplicate item {label!r}", no)
            try:
                qty = int(qty_text)
            except ValueError:
                raise DatasetFormatError(f"bad quantity {qty_text!r} for item {label!r}", no) from None
            if qty < 1:
                raise DatasetFormatError(
                    f"quantity for item {label!r} must be a positive integer, got {qty}", no
                )
            if label not in utilities:
                raise DatasetFormatError(f"item {label!r} has no profit entry", no)
            entries[label] = qty
        if not entries:
            raise DatasetFormatError("no items in transaction", no)
        tid += 1
        rows.append((tid, entries))

    return build_database(rows, utilities)


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
            raise ValueError("need at least one item and one transaction")
        if not 1 <= self.avg_transaction_len <= self.n_items:
            raise ValueError("avg_transaction_len must be in [1, n_items]")
        if self.max_quantity < 1 or self.max_unit_utility < 1:
            raise ValueError("max_quantity and max_unit_utility must be >= 1")


def generate_synthetic(spec: GeneratorSpec) -> TransactionDatabase:
    """Draw a database: transaction lengths uniform in
    ``[1, 2 * avg_transaction_len - 1]`` (capped by the vocabulary),
    items sampled without replacement, quantities uniform in
    ``[1, max_quantity]``, one fixed unit utility per item uniform in
    ``[1, max_unit_utility]``."""
    rng = random.Random(spec.seed)
    labels = [str(i) for i in range(1, spec.n_items + 1)]
    utilities = {label: rng.randint(1, spec.max_unit_utility) for label in labels}
    rows = []
    for tid in range(1, spec.n_transactions + 1):
        length = min(rng.randint(1, 2 * spec.avg_transaction_len - 1), spec.n_items)
        chosen = rng.sample(labels, length)
        rows.append((tid, {label: rng.randint(1, spec.max_quantity) for label in chosen}))
    return build_database(rows, utilities)


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
    """Write a database in the quantity-profit pair of files."""
    with _output(tx_dest) as out:
        for tx in db.transactions:
            pairs = " ".join(
                f"{db.item_labels[item]}:{_fmt_number(qty)}" for item, qty in tx.entries.items()
            )
            out.write(pairs + "\n")
    with _output(profit_dest) as out:
        for item, label in enumerate(db.item_labels):
            out.write(f"{label} {_fmt_number(db.utility_table[item])}\n")


def write_spmf_utility(db: TransactionDatabase, dest) -> None:
    """Write a database as utility-list lines.

    Labels are written verbatim; only databases with integer item labels
    produce files that :func:`parse_spmf_utility` accepts back.
    """
    with _output(dest) as out:
        for tx in db.transactions:
            items = " ".join(db.item_labels[item] for item in tx.entries)
            utilities = " ".join(
                _fmt_number(qty * db.utility_table[item]) for item, qty in tx.entries.items()
            )
            out.write(f"{items}:{_fmt_number(tx.tu)}:{utilities}\n")
