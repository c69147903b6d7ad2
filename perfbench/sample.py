"""One timed sample of huopminer, run in a fresh interpreter by run.py.

The sample imports ``huopminer`` from the given source tree, parses the
workload's files, mines them with ``threads=1`` and writes the results
file, timing each step from the outside.  It then writes a JSON report
holding the timings (wall and CPU), the peak RSS, the run counters and
the full answer (labels, support count, occupancy at full precision) so
that run.py can check it against the oracle.

The peak RSS is ``VmHWM`` of ``/proc/self/status``: the high-water mark
of this process's own address space, which starts afresh at exec.
``ru_maxrss`` would not do: on Linux, exec carries the parent's
high-water mark into the child's.

With ``--trace 1`` the public functions that ``search.mine`` calls, as
bound in the ``huopminer.search`` namespace, and the io entry points are
wrapped.  Each call becomes a span ``[name, start, end, parent, tag]``
kept in memory and written with the report; counts are taken at the same
boundaries.  The search wrappers are installed after the length cap is
resolved, so that only the calls ``mine`` makes are traced.

    python3 perfbench/sample.py --src src --tx db.qty --profit db.profit \\
        --minsup 0.05 --minuo 0.3 --maxlen 3 --out results.txt \\
        --report sample.json --trace 0
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time


class Tracer:
    """Span recorder that replaces module attributes with timed wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        """Replace ``module.attr`` by a wrapper recording a span named
        ``name``; ``observe(args, result)`` may count and returns the
        span's tag."""
        fn = getattr(module, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                span[1] = start
                stack.pop()
            if observe is not None:
                span[4] = observe(args, result)
            return result

        setattr(module, attr, traced)


def install_io_tracer(tracer: Tracer, hio) -> None:
    """Wrap the io entry points."""
    counts = tracer.counts

    def on_parse(args, db):
        counts["io.transactions"] = db.size
        return None

    def on_write(args, result):
        counts["io.patterns_written"] += len(args[0])
        return None

    tracer.wrap(hio, "parse_quantity_profit", "io.parse_quantity_profit", on_parse)
    tracer.wrap(hio, "write_results", "io.write_results", on_write)


def install_search_tracer(tracer: Tracer, search, beta: float, maxlen: int) -> dict:
    """Wrap ``search.mine`` and the functions it calls.

    Only joins within ``maxlen``, which the search goes on to visit,
    count toward the depth.  Returns a dict that receives the revised
    database, needed later to measure list memory.
    """
    counts = tracer.counts
    kept: dict = {}

    def on_order(args, order):
        counts["database.frequent_items"] = len(order.items)
        return None

    def on_revise(args, rdb):
        counts["database.revised_entries"] = sum(len(tx.entries) for tx in rdb.transactions)
        kept["rdb"] = rdb
        return None

    def on_initial(args, nodes):
        counts["lists.initial_tuples"] = sum(len(n.uonl.tuples) for n in nodes)
        counts["lists.initial_luo_entries"] = sum(
            len(t.luo) for n in nodes for t in n.uonl.tuples
        )
        if nodes:
            counts["search.max_depth"] = max(counts["search.max_depth"], 1)
        return None

    def on_construct(args, node):
        _prefix, xa, xb = args[:3]
        counts["lists.construct_calls"] += 1
        counts["lists.tuples_in"] += len(xa.uonl.tuples) + len(xb.uonl.tuples)
        if node is None:
            counts["lists.construct_aborted"] += 1
            return "aborted"
        counts["lists.tuples_out"] += len(node.uonl.tuples)
        depth = len(node.pattern)
        if depth <= maxlen and depth > counts["search.max_depth"]:
            counts["search.max_depth"] = depth
        return "kept"

    def on_bound(args, bound):
        counts["search.length_upper_bound_calls"] += 1
        if bound < beta:
            counts["search.bound_prunes"] += 1
        return None

    tracer.wrap(search, "mine", "search.mine")
    tracer.wrap(search, "support_counts", "database.support_counts")
    tracer.wrap(search, "build_total_order", "database.build_total_order", on_order)
    tracer.wrap(search, "revise_database", "database.revise_database", on_revise)
    tracer.wrap(search, "build_initial_nodes", "lists.build_initial_nodes", on_initial)
    tracer.wrap(search, "search_subtree", "search.search_subtree")
    tracer.wrap(search, "construct", "lists.construct", on_construct)
    tracer.wrap(search, "length_upper_bound", "search.length_upper_bound", on_bound)
    return kept


def list_bytes_per_tuple(build_initial_nodes, rdb, maxlen: int) -> float:
    """Traced heap bytes held by the single-item lists, per tuple."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        nodes = build_initial_nodes(rdb, maxlen)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    tuples = sum(len(n.uonl.tuples) for n in nodes)
    return held / tuples if tuples else 0.0


def peak_rss_kb() -> int:
    """High-water RSS of this process's own address space, in KiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SystemExit("no VmHWM in /proc/self/status")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="directory holding the huopminer package")
    p.add_argument("--tx", required=True)
    p.add_argument("--profit", required=True)
    p.add_argument("--minsup", type=float, required=True)
    p.add_argument("--minuo", type=float, required=True)
    p.add_argument("--maxlen", type=int, required=True, help="0 lifts the cap, as in the CLI")
    p.add_argument("--out", required=True, help="results file to write")
    p.add_argument("--report", required=True, help="JSON report to write")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))

    t_start, c_start = perf_counter(), process_time()
    import huopminer
    from huopminer import io as hio
    from huopminer import search
    t_imported, c_imported = perf_counter(), process_time()

    if src not in Path(huopminer.__file__).resolve().parents:
        raise SystemExit(f"huopminer imported from {huopminer.__file__}, not from {src}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        original_build = search.build_initial_nodes
        install_io_tracer(tracer, hio)

    db = hio.parse_quantity_profit(args.tx, args.profit)
    t_parsed, c_parsed = perf_counter(), process_time()
    maxlen = args.maxlen
    if maxlen == 0:
        maxlen = max(search.unconstrained_maxlen(db, args.minsup), 1)
    params = huopminer.MiningParams(alpha=args.minsup, beta=args.minuo, minlen=1, maxlen=maxlen)
    if tracer is not None:
        kept = install_search_tracer(tracer, search, args.minuo, maxlen)

    t_mine, c_mine = perf_counter(), process_time()
    results, stats = search.mine(db, params, threads=1)
    t_mined, c_mined = perf_counter(), process_time()
    hio.write_results(results, db, args.out)
    t_written, c_written = perf_counter(), process_time()

    report: dict = {
        "setup_s": t_parsed - t_start,
        "import_s": t_imported - t_start,
        "mine_s": t_mined - t_mine,
        "run_s": t_written - t_imported,
        "setup_cpu_s": c_parsed - c_start,
        "mine_cpu_s": c_mined - c_mine,
        "run_cpu_s": c_written - c_imported,
        "peak_rss_mb": peak_rss_kb() / 1024,
        "transactions": db.size,
        "items": len(db.item_labels),
        "maxlen": maxlen,
        "stats": {
            "visited_nodes": stats.visited_nodes,
            "constructions": stats.constructions,
            "early_aborts": stats.early_aborts,
            "lub_prunes": stats.lub_prunes,
            "support_prunes": stats.support_prunes,
        },
        "results": [[list(db.labels_of(r.pattern)), r.sup, r.uo] for r in results],
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["counts"] = dict(tracer.counts)
        report["bytes_per_tuple"] = list_bytes_per_tuple(original_build, kept["rdb"], maxlen)

    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
