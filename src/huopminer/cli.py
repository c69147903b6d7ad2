"""Command-line front end.

Subcommands: ``mine`` (run the engine), ``verify`` (engine against the
brute-force reference), ``bench`` (sweep one parameter, emit stats CSV),
``gen`` (write a synthetic dataset).

Exit codes: 0 on success, 2 for anything the user can fix (bad flags,
malformed datasets, refused oracle runs), 1 for internal errors and for
a failed verification.  A closed stdout ends the run by ``SIGPIPE``, as
it ends ``cat``.  When results go to a file, stdout stays silent.
"""

from __future__ import annotations

import argparse
import signal
import sys
import traceback

from . import io as dataio
from .database import HUOPResult, MiningParams, TransactionDatabase
from .errors import InputError
from .oracle import DEFAULT_MAX_ITEMS, brute_force_mine
from .search import mine

UO_MATCH_TOLERANCE = 1e-9


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="transactions file")
    p.add_argument("--format", required=True, choices=("spmf", "qty"), help="input format")
    p.add_argument("--profit", help="profit table (qty format only)")


def _add_mining_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--minsup", required=True, type=float, help="minimum support ratio, (0, 1]")
    p.add_argument("--minuo", required=True, type=float, help="minimum utility-occupancy, (0, 1]")
    p.add_argument("--minlen", type=int, default=1,
                   help="minimum pattern length (default %(default)s)")
    p.add_argument(
        "--maxlen", type=int, default=0,
        help="maximum pattern length; 0 means unconstrained (default %(default)s)",
    )
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility, no effect: the search is serial, "
        "a thread pool was measured no faster (default %(default)s)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="huopminer",
        description="Mine high utility-occupancy patterns under length constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine patterns and write them out")
    _add_dataset_flags(p)
    _add_mining_flags(p)
    p.add_argument("--output", help="result file (stdout when omitted)")
    p.add_argument("--stats", help="write a stats CSV (header and one row) here, replacing the file")

    p = sub.add_parser("verify", help="compare the engine against the brute-force reference")
    _add_dataset_flags(p)
    _add_mining_flags(p)
    p.add_argument("--max-items", type=int, default=DEFAULT_MAX_ITEMS,
                   help="vocabulary cap for the reference run (default %(default)s)")

    p = sub.add_parser("bench", help="sweep one parameter and emit stats CSV")
    _add_dataset_flags(p)
    _add_mining_flags(p)
    p.add_argument("--sweep", required=True, choices=("minsup", "minuo", "maxlen"),
                   help="parameter to sweep")
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--stats", help="stats CSV file (stdout when omitted)")

    p = sub.add_parser("gen", help="write a synthetic quantity-profit dataset")
    p.add_argument("--items", required=True, type=int, help="vocabulary size")
    p.add_argument("--transactions", required=True, type=int, help="number of transactions")
    p.add_argument("--avg-len", required=True, type=int, help="average transaction length")
    spec = dataio.GeneratorSpec
    p.add_argument("--max-quantity", type=int, default=spec.max_quantity,
                   help="quantity cap (default %(default)s)")
    p.add_argument("--max-utility", type=int, default=spec.max_unit_utility,
                   help="unit-utility cap (default %(default)s)")
    p.add_argument("--seed", type=int, default=spec.seed,
                   help="generator seed (default %(default)s)")
    p.add_argument("--output", required=True, help="transactions file to write")
    p.add_argument("--profit", help="profit file to write (default: OUTPUT + '.profit')")

    return parser


def _check_flags(args: argparse.Namespace) -> None:
    """Domain checks that must run before any file is touched; ``gen``'s
    flags are checked by :class:`GeneratorSpec`."""
    if args.command == "gen":
        return
    if not 0.0 < args.minsup <= 1.0:
        raise InputError(f"--minsup must be in (0, 1], got {args.minsup}")
    if not 0.0 < args.minuo <= 1.0:
        raise InputError(f"--minuo must be in (0, 1], got {args.minuo}")
    if args.minlen < 1:
        raise InputError(f"--minlen must be >= 1, got {args.minlen}")
    if args.maxlen < 0:
        raise InputError(f"--maxlen must be >= 0, got {args.maxlen}")
    if args.maxlen != 0 and args.maxlen < args.minlen:
        raise InputError(f"--maxlen {args.maxlen} is below --minlen {args.minlen} (0 lifts the cap)")
    if args.threads < 1:
        raise InputError(f"--threads must be >= 1, got {args.threads}")
    if args.command == "verify" and args.max_items < 1:
        raise InputError(f"--max-items must be >= 1, got {args.max_items}")
    if args.format == "qty" and not args.profit:
        raise InputError("--profit is required with --format qty")
    if args.format == "spmf" and args.profit:
        raise InputError("--profit only applies to --format qty")


def _load_db(args: argparse.Namespace) -> TransactionDatabase:
    if args.format == "spmf":
        db = dataio.parse_spmf_utility(args.input)
    else:
        db = dataio.parse_quantity_profit(args.input, args.profit)
    if db.size == 0:
        raise InputError(f"{args.input} contains no transactions")
    return db


def _resolve_params(args: argparse.Namespace, db: TransactionDatabase) -> MiningParams:
    # no pattern outgrows the item table, so its size caps nothing
    maxlen = args.maxlen or max(len(db.item_labels), args.minlen)
    return MiningParams(alpha=args.minsup, beta=args.minuo, minlen=args.minlen, maxlen=maxlen)


def _stats_row(args, stats, results) -> dict[str, object]:
    return {
        "dataset": args.input,
        "alpha": args.minsup,
        "beta": args.minuo,
        "minlen": args.minlen,
        "maxlen": args.maxlen,
        "runtime_ms": stats.runtime_ms,
        "visited_nodes": stats.visited_nodes,
        "constructions": stats.constructions,
        "patterns": len(results),
    }


def run_mine(args: argparse.Namespace) -> int:
    db = _load_db(args)
    params = _resolve_params(args, db)
    results, stats = mine(db, params)
    dataio.write_results(results, db, args.output or sys.stdout)
    if args.stats:
        dataio.write_stats_csv([_stats_row(args, stats, results)], args.stats)
    return 0


def _describe(db: TransactionDatabase, r: HUOPResult) -> str:
    return f"{' '.join(db.labels_of(r.pattern))} (sup={r.sup}, uo={r.uo:.6f})"


def run_verify(args: argparse.Namespace) -> int:
    db = _load_db(args)
    params = _resolve_params(args, db)
    got, _ = mine(db, params)
    want = brute_force_mine(db, params, max_items=args.max_items)

    got_map = {r.pattern: r for r in got}
    want_map = {r.pattern: r for r in want}
    clean = True
    for pattern in sorted(want_map.keys() - got_map.keys(), key=lambda p: (len(p), p)):
        print(f"missing: {_describe(db, want_map[pattern])}")
        clean = False
    for pattern in sorted(got_map.keys() - want_map.keys(), key=lambda p: (len(p), p)):
        print(f"unexpected: {_describe(db, got_map[pattern])}")
        clean = False
    for pattern in sorted(got_map.keys() & want_map.keys(), key=lambda p: (len(p), p)):
        g, w = got_map[pattern], want_map[pattern]
        if g.sup != w.sup or abs(g.uo - w.uo) > UO_MATCH_TOLERANCE:
            print(f"mismatch: engine {_describe(db, g)} vs reference {_describe(db, w)}")
            clean = False
    if not clean:
        return 1
    print(f"MATCH: {len(got)} patterns")
    return 0


def run_bench(args: argparse.Namespace) -> int:
    convert = int if args.sweep == "maxlen" else float
    try:
        values = [convert(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad --values entry: {exc}") from None
    if not values:
        raise InputError("--values must list at least one value")
    if args.sweep == "maxlen" and 0 not in values:
        values.append(0)  # always include the unconstrained baseline

    # every row's flags are checked before the input is read
    sweep = [argparse.Namespace(**{**vars(args), args.sweep: v}) for v in values]
    for row_args in sweep:
        _check_flags(row_args)

    db = _load_db(args)
    rows = []
    for row_args in sweep:
        results, stats = mine(db, _resolve_params(row_args, db))
        rows.append(_stats_row(row_args, stats, results))

    dataio.write_stats_csv(rows, args.stats or sys.stdout)
    return 0


def run_gen(args: argparse.Namespace) -> int:
    spec = dataio.GeneratorSpec(
        n_items=args.items,
        n_transactions=args.transactions,
        avg_transaction_len=args.avg_len,
        max_quantity=args.max_quantity,
        max_unit_utility=args.max_utility,
        seed=args.seed,
    )
    db = dataio.generate_synthetic(spec)
    profit = args.profit or args.output + ".profit"
    dataio.write_quantity_profit(db, args.output, profit)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"mine": run_mine, "verify": run_verify, "bench": run_bench, "gen": run_gen}
    try:
        _check_flags(args)
        return handlers[args.command](args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


def entrypoint() -> None:
    if hasattr(signal, "SIGPIPE"):  # not in main, which may run inside another program
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())
