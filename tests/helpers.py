"""Shared test data and strategies.

``SAMPLE_ROWS``/``SAMPLE_PROFITS`` is the small worked-example database
used throughout the tests; every expected number derived from it in the
test modules is recomputed from these raw quantities, usually as exact
fractions, before being frozen.  The text rewrites at the end derive the
CLI pins' variant inputs from a generated dataset.
"""

from __future__ import annotations

from hypothesis import strategies as st

from huopminer import TransactionDatabase, build_database, parse_quantity_profit
from huopminer.database import _columns

SAMPLE_ROWS = [
    (1, {"a": 3, "b": 4, "c": 2, "d": 6, "e": 2}),
    (2, {"a": 7, "b": 4, "c": 1, "e": 2}),
    (3, {"a": 5, "b": 2, "e": 1}),
    (4, {"b": 4, "c": 1, "d": 2}),
    (5, {"a": 2, "d": 4}),
    (6, {"a": 2, "b": 2, "c": 6, "d": 4, "e": 3}),
    (7, {"a": 1, "b": 2}),
    (8, {"d": 3}),
    (9, {"b": 3, "c": 5, "d": 2, "e": 5}),
    (10, {"b": 3, "e": 5}),
]

SAMPLE_PROFITS = {"a": 3, "b": 5, "c": 1, "d": 2, "e": 10}

# Transaction utilities implied by the rows above, in tid order.
SAMPLE_TUS = [63, 62, 35, 25, 14, 60, 13, 6, 74, 65]

# Hand-checked answers for the sample database at minsup 0.3, minuo 0.3,
# lengths 1..3.  Keys are label strings in mining order (support
# ascending, c a d e b); values are (support count, occupancy to 4dp).
# Listed in the canonical result order: length first, then mining order.
GOLDEN_18 = {
    "d": (6, 0.3515),
    "e": (6, 0.4784),
    "b": (8, 0.3869),
    "ce": (4, 0.5078),
    "cb": (5, 0.4130),
    "ad": (3, 0.5222),
    "ae": (4, 0.6090),
    "ab": (5, 0.6205),
    "de": (3, 0.6237),
    "db": (4, 0.5062),
    "eb": (6, 0.7328),
    "cae": (3, 0.6232),
    "cab": (3, 0.5120),
    "cde": (3, 0.6901),
    "cdb": (4, 0.5660),
    "ceb": (4, 0.7601),
    "aeb": (4, 0.8821),
    "deb": (3, 0.8526),
}


def make_sample_db() -> TransactionDatabase:
    return build_database(SAMPLE_ROWS, SAMPLE_PROFITS)


def ids_of(db: TransactionDatabase, labels: str) -> tuple[int, ...]:
    """Map a compact label string like 'cae' to item ids."""
    return tuple(db.item_labels.index(ch) for ch in labels)


def joined_labels(db: TransactionDatabase, pattern) -> str:
    return "".join(db.labels_of(pattern))


def results_by_label(db, results) -> dict[str, tuple[int, float]]:
    return {joined_labels(db, r.pattern): (r.sup, r.uo) for r in results}


def database_of(transactions, utility_table, item_labels) -> TransactionDatabase:
    """A database holding ``transactions`` as they are: their tids, their
    ``tu``s and their entries in their order, stored by ``database._columns``
    as every loader stores its rows.  A row is checked only as ``_columns``
    checks every row, for a ``tu`` that is finite and positive."""
    return _columns(((tx.tid, tx.entries, tx.tu) for tx in transactions), utility_table, item_labels)


def transaction(db: TransactionDatabase, tid: int):
    for tx in db.transactions:
        if tx.tid == tid:
            return tx
    raise LookupError(tid)


@st.composite
def small_databases(draw, max_items: int = 6, max_transactions: int = 8, unit_utilities=st.integers(1, 10)):
    n_items = draw(st.integers(1, max_items))
    labels = [chr(ord("a") + k) for k in range(n_items)]
    utilities = {label: draw(unit_utilities) for label in labels}
    n_tx = draw(st.integers(1, max_transactions))
    rows = []
    for tid in range(1, n_tx + 1):
        members = draw(
            st.lists(st.sampled_from(labels), min_size=1, max_size=n_items, unique=True)
        )
        rows.append((tid, {label: draw(st.integers(1, 5)) for label in sorted(members)}))
    return build_database(rows, utilities)


@st.composite
def db_and_supported_pattern(draw):
    """A database plus a pattern that at least one transaction contains."""
    db = draw(small_databases())
    tx = draw(st.sampled_from(list(db.transactions)))
    items = sorted(tx.entries)
    pattern = tuple(
        sorted(draw(st.lists(st.sampled_from(items), min_size=1, max_size=len(items), unique=True)))
    )
    return db, pattern


def to_spmf(qty_path) -> str:
    """The spmf utility-list copy of a qty file and its ``.profit`` table:
    one ``labels:TU:utilities`` line per transaction, every number its repr."""
    db = parse_quantity_profit(qty_path, f"{qty_path}.profit")
    lines = []
    for tx in db.transactions:
        utilities = [q * db.utility_table[i] for i, q in tx.entries.items()]
        labels = " ".join(db.item_labels[i] for i in tx.entries)
        lines.append(f"{labels}:{tx.tu!r}:{' '.join(map(repr, utilities))}\n")
    return "".join(lines)


def pad_quantities(qty_text: str, zeros: int) -> str:
    """``zeros`` zeros in front of every quantity of a qty file."""
    return qty_text.replace(":", ":" + "0" * zeros)


def pad_profit_table(profit_text: str) -> str:
    """31 profit lines that no transaction lists: ``0``, which sorts first,
    then ``x1`` to ``x30``."""
    return profit_text + "0 4\n" + "".join(f"x{k} 3\n" for k in range(1, 31))


def pad_spmf_ids(spmf_text: str) -> str:
    """``00`` in front of every item id of an spmf file."""
    lines = []
    for line in spmf_text.splitlines():
        ids, colon, rest = line.partition(":")
        lines.append(" ".join("00" + i for i in ids.split()) + colon + rest + "\n")
    return "".join(lines)


def cut(csv_text: str, fields: str) -> bytes:
    """The bytes ``cut -d, -f<fields>`` prints for ``csv_text``; ``fields``
    lists 1-based columns ``N`` and open ranges ``N-``."""
    def kept(n: int) -> bool:
        return any(n >= int(f[:-1]) if f.endswith("-") else n == int(f)
                   for f in fields.split(","))

    rows = (line.split(",") for line in csv_text.splitlines())
    return "".join(
        ",".join(c for n, c in enumerate(row, 1) if kept(n)) + "\n" for row in rows
    ).encode()
