"""Benchmark for huopminer: seeded workloads, oracle-checked timings.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-narrow --seed 1 --seconds 40 --trace 0

Each workload is a frozen ``huopminer gen`` dataset plus one parameter
set.  ``--seed`` shuffles the order of the dataset's transactions, which
changes the inputs but neither the answer nor the amount of work, so
runs on different seeds measure the same workload.  The oracle
(``huopminer.oracle.brute_force_mine``) computes the reference answer
once per invocation, untimed; every sample is then run in a fresh
interpreter by sample.py, one at a time, and checked against it.

With ``--trace 0`` the run reports the end-to-end metrics (median over
its samples); with ``--trace 1`` it runs untraced samples, then traced
ones, and reports the per-layer metrics derived from the traced spans.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full report
(provenance, every sample, spans) is written under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SAMPLE = HERE / "sample.py"

MIN_SAMPLES = 3
MIN_TRACED = 2
SAMPLE_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    items: int
    transactions: int
    avg_len: int
    gen_seed: int
    minsup: float
    minuo: float
    maxlen: int
    qty_sha256: str
    profit_sha256: str

    def gen_flags(self) -> str:
        return (
            f"--items {self.items} --transactions {self.transactions} "
            f"--avg-len {self.avg_len} --seed {self.gen_seed}"
        )


# Sizes and generator seeds are frozen: never re-tune them to hide a
# regression.  The digests are those of ``huopminer gen`` output.  Why
# each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "dense-narrow": Workload(
        items=25, transactions=3000, avg_len=9, gen_seed=2,
        minsup=0.05, minuo=0.3, maxlen=3,
        qty_sha256="a7ff9b9becd5923690c80961e1c66a5db521dec674ec75aeb0f857b628a9efc7",
        profit_sha256="a8a42584936d1d98ec3b3713c50d4f90edf20939aaf69cd6c1719124689f5c36",
    ),
    "sparse-wide": Workload(
        items=200, transactions=100000, avg_len=5, gen_seed=3,
        minsup=0.025, minuo=0.2, maxlen=3,
        qty_sha256="4f7786137b30414da0648e6a7858da5bfeff88995cd5016bbe08d3a9f5a1e95d",
        profit_sha256="a33345bd83cee7da24c216ad24b1ae1d4359836720af556f277b31c3a6c03bb7",
    ),
    # Not in BENCHMARK.json: the run-time budget fits only two workloads
    # at the 40 s a run that host noise needs.  Run it by hand.
    "long-uncapped": Workload(
        items=20, transactions=4000, avg_len=8, gen_seed=5,
        minsup=0.06, minuo=0.2, maxlen=0,
        qty_sha256="487ee58b336c5f575e32a4c3a13903180f11b95b1df05b42b18e5ab41b17a95a",
        profit_sha256="291bbee4f86caafcf06c11f00c29ce4ab880442d128e538b122e5a0d11495595",
    ),
    # Not in BENCHMARK.json: a seconds-long shape for perfbench/selftest.py.
    "tiny": Workload(
        items=8, transactions=300, avg_len=3, gen_seed=7,
        minsup=0.05, minuo=0.2, maxlen=0,
        qty_sha256="2a3f4f7fb2a25c8c17bdddaa49a8ab9bba6b56153a3d294b1409db30dbe956e3",
        profit_sha256="5e656db215161264e9283280756aa771236f8f59003f8d99f3751c359b51a9aa",
    ),
}

END_TO_END = {"setup_s": "s", "mine_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "io.parse_s": "s",
    "io.input_bytes": "B",
    "io.transactions": "count",
    "database.support_counts_s": "s",
    "database.build_total_order_s": "s",
    "database.revise_database_s": "s",
    "database.frequent_items": "count",
    "database.revised_entries": "count",
    "lists.build_initial_nodes_s": "s",
    "lists.initial_tuples": "count",
    "lists.initial_luo_entries": "count",
    "lists.bytes_per_tuple": "B",
    "lists.construct_calls": "count",
    "lists.construct_aborted": "count",
    "lists.construct_aborted_s": "s",
    "lists.construct_kept_s": "s",
    "lists.tuples_in": "count",
    "lists.tuples_out": "count",
    "lists.construct_yield": "ratio",
    "search.length_upper_bound_calls": "count",
    "search.length_upper_bound_s": "s",
    "search.bound_prunes": "count",
    "search.bound_prune_ratio": "ratio",
    "search.visited_nodes": "count",
    "search.support_prunes": "count",
    "search.max_depth": "count",
    "search.self_s": "s",
    "search.search_subtree_self_s": "s",
    "io.write_s": "s",
    "io.patterns_written": "count",
    "trace.overhead_s": "s",
}

# Span name -> per-layer metric summing the spans' durations.
SPAN_TOTALS = {
    "io.parse_quantity_profit": "io.parse_s",
    "database.support_counts": "database.support_counts_s",
    "database.build_total_order": "database.build_total_order_s",
    "database.revise_database": "database.revise_database_s",
    "lists.build_initial_nodes": "lists.build_initial_nodes_s",
    "search.length_upper_bound": "search.length_upper_bound_s",
    "io.write_results": "io.write_s",
}


class BenchError(Exception):
    """The benchmark cannot measure this workload; no result is printed."""


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# preparation (untimed)

def import_huopminer():
    if not (SRC / "huopminer" / "__init__.py").is_file():
        raise BenchError(f"no huopminer package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import huopminer

    if SRC not in Path(huopminer.__file__).resolve().parents:
        raise BenchError(f"huopminer imported from {huopminer.__file__}, not from {SRC}")
    return huopminer


def make_inputs(hm, wl: Workload, seed: int, tmp: Path) -> dict:
    """Generate the frozen dataset, check its digests, then shuffle the
    transaction order with ``seed``."""
    spec = hm.GeneratorSpec(
        n_items=wl.items,
        n_transactions=wl.transactions,
        avg_transaction_len=wl.avg_len,
        seed=wl.gen_seed,
    )
    base_qty, profit = tmp / "base.qty", tmp / "input.profit"
    hm.write_quantity_profit(hm.generate_synthetic(spec), base_qty, profit)
    gen_digests = {"qty": sha256_of(base_qty), "profit": sha256_of(profit)}
    want = {"qty": wl.qty_sha256, "profit": wl.profit_sha256}
    if gen_digests != want:
        raise BenchError(
            f"generated inputs {gen_digests} differ from the recorded {want} for "
            f"gen {wl.gen_flags()}; refusing to measure a different workload"
        )
    lines = base_qty.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    qty = tmp / "input.qty"
    qty.write_text("".join(lines), encoding="utf-8")
    base_qty.unlink()
    return {
        "qty": qty,
        "profit": profit,
        "gen_sha256": gen_digests,
        "input_sha256": {"qty": sha256_of(qty), "profit": gen_digests["profit"]},
        "input_bytes": qty.stat().st_size + profit.stat().st_size,
    }


def resolve_maxlen(hm, db, wl: Workload) -> int:
    if wl.maxlen == 0:
        return max(hm.unconstrained_maxlen(db, wl.minsup), 1)
    return wl.maxlen


def reference_answer(hm, wl: Workload, inputs: dict) -> dict:
    """Oracle answer as ``{labels: (sup, uo)}``, plus the database shape."""
    db = hm.parse_quantity_profit(inputs["qty"], inputs["profit"])
    params = hm.MiningParams(
        alpha=wl.minsup, beta=wl.minuo, minlen=1, maxlen=resolve_maxlen(hm, db, wl)
    )
    results = hm.brute_force_mine(db, params, max_items=len(db.item_labels))
    answer = {tuple(db.labels_of(r.pattern)): (r.sup, r.uo) for r in results}
    return {"answer": answer, "transactions": db.size, "items": len(db.item_labels)}


def provenance(wl_name: str, wl: Workload, seed: int, inputs: dict) -> dict:
    git_sha = "unknown: not a git checkout"
    if shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            git_sha = lines[1]
    src_files = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        tree.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": wl_name,
        "gen_flags": wl.gen_flags(),
        "params": {"minsup": wl.minsup, "minuo": wl.minuo, "maxlen": wl.maxlen, "threads": 1},
        "seed": seed,
        "gen_sha256": inputs["gen_sha256"],
        "input_sha256": inputs["input_sha256"],
        "git_sha": git_sha,
        "src_sha256": tree.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# samples

def run_sample(wl: Workload, inputs: dict, tmp: Path, index: int, trace: bool):
    """Run one sample process; returns ``(report, results_path)`` or
    raises ``RuntimeError`` describing why the sample failed."""
    report_path = tmp / f"sample{index}.json"
    results_path = tmp / f"results{index}.txt"
    cmd = [
        sys.executable, str(SAMPLE),
        "--src", str(SRC),
        "--tx", str(inputs["qty"]),
        "--profit", str(inputs["profit"]),
        "--minsup", repr(wl.minsup),
        "--minuo", repr(wl.minuo),
        "--maxlen", str(wl.maxlen),
        "--out", str(results_path),
        "--report", str(report_path),
        "--trace", "1" if trace else "0",
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"sample {index} exceeded {SAMPLE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"sample {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report_path.unlink()
    return report, results_path


def check_trace_counts(report: dict) -> None:
    """Raise ``RuntimeError`` unless the counts taken by the wrappers
    agree with the ``SearchStats`` that ``mine`` returned."""
    counts, stats = report["counts"], report["stats"]
    for key, stat in (
        ("lists.construct_calls", "constructions"),
        ("lists.construct_aborted", "early_aborts"),
        ("search.bound_prunes", "lub_prunes"),
    ):
        if counts.get(key, 0) != stats[stat]:
            raise RuntimeError(f"traced {key}={counts.get(key, 0)} but mine reported {stat}={stats[stat]}")


def check_answer(report: dict, ref: dict) -> None:
    """Raise ``RuntimeError`` unless the sample read the same database
    and reported exactly the oracle's patterns, compared as
    ``huopminer verify`` compares them."""
    from huopminer.cli import UO_MATCH_TOLERANCE

    if (report["transactions"], report["items"]) != (ref["transactions"], ref["items"]):
        raise RuntimeError(
            f"parsed {report['transactions']} transactions / {report['items']} items, "
            f"expected {ref['transactions']} / {ref['items']}"
        )
    got = {tuple(labels): (sup, uo) for labels, sup, uo in report["results"]}
    want = ref["answer"]
    if len(got) != len(report["results"]):
        raise RuntimeError("duplicate patterns in the answer")
    if got.keys() != want.keys():
        missing, unexpected = len(want.keys() - got.keys()), len(got.keys() - want.keys())
        raise RuntimeError(f"pattern set differs: {missing} missing, {unexpected} unexpected")
    for labels, (sup, uo) in got.items():
        wsup, wuo = want[labels]
        if sup != wsup or abs(uo - wuo) > UO_MATCH_TOLERANCE:
            raise RuntimeError(f"{labels}: sup={sup} uo={uo!r}, oracle sup={wsup} uo={wuo!r}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def tail_percentile(values: list[float]):
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def describe(name: str, unit: str, values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    line = f"{name:<12} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        return line + "  (no tail percentile: fewer than 10 samples beyond p75)"
    return line + f"  p{tail[0]} {tail[1]:.6g}"


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def layer_metrics(report: dict, input_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced sample."""
    spans = report["spans"]
    counts = report["counts"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _tag in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    by_tag = {"aborted": 0.0, "kept": 0.0}
    for i, (name, start, end, _parent, tag) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        if name == "lists.construct":
            by_tag[tag] += end - start

    stats = report["stats"]
    m: dict[str, float] = {metric: total.get(span, 0.0) for span, metric in SPAN_TOTALS.items()}
    calls = counts.get("lists.construct_calls", 0)
    bound_calls = counts.get("search.length_upper_bound_calls", 0)
    m.update(
        {
            "io.input_bytes": input_bytes,
            "io.transactions": counts["io.transactions"],
            "database.frequent_items": counts["database.frequent_items"],
            "database.revised_entries": counts["database.revised_entries"],
            "lists.initial_tuples": counts["lists.initial_tuples"],
            "lists.initial_luo_entries": counts["lists.initial_luo_entries"],
            "lists.bytes_per_tuple": report["bytes_per_tuple"],
            "lists.construct_calls": calls,
            "lists.construct_aborted": counts.get("lists.construct_aborted", 0),
            "lists.construct_aborted_s": by_tag["aborted"],
            "lists.construct_kept_s": by_tag["kept"],
            "lists.tuples_in": counts.get("lists.tuples_in", 0),
            "lists.tuples_out": counts.get("lists.tuples_out", 0),
            "lists.construct_yield": (calls - counts.get("lists.construct_aborted", 0)) / calls
            if calls else 0.0,
            "search.length_upper_bound_calls": bound_calls,
            "search.bound_prunes": counts.get("search.bound_prunes", 0),
            "search.bound_prune_ratio": counts.get("search.bound_prunes", 0) / bound_calls
            if bound_calls else 0.0,
            "search.visited_nodes": stats["visited_nodes"],
            "search.support_prunes": stats["support_prunes"],
            "search.max_depth": counts.get("search.max_depth", 0),
            "search.self_s": self_time.get("search.mine", 0.0),
            "search.search_subtree_self_s": self_time.get("search.search_subtree", 0.0),
            "io.patterns_written": counts.get("io.patterns_written", 0),
        }
    )
    return m


def is_exact(name: str) -> bool:
    """Per-layer metrics that count work and must repeat exactly."""
    return PER_LAYER[name] != "s" and name != "lists.bytes_per_tuple"


def fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------

def measure(wl_name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = WORKLOADS[wl_name]
    hm = import_huopminer()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl_name}-", dir=WORK))
    try:
        inputs = make_inputs(hm, wl, seed, tmp)
        prov = provenance(wl_name, wl, seed, inputs)
        log(f"[perfbench] {wl_name} seed {seed}: computing the oracle reference")
        ref = reference_answer(hm, wl, inputs)

        attempted = failed = 0
        samples: list[dict] = []
        traced: list[dict] = []
        errors: list[str] = []
        results_sha256: set[str] = set()

        def one(trace_sample: bool) -> None:
            """Run and check one sample."""
            nonlocal attempted
            attempted += 1

            def fail(exc: Exception) -> None:
                nonlocal failed
                failed += 1
                errors.append(f"sample {attempted}: {exc}")
                log(f"[perfbench] FAILED {errors[-1]}")

            try:
                report, results_path = run_sample(wl, inputs, tmp, attempted, trace_sample)
            except (RuntimeError, OSError, ValueError) as exc:
                fail(exc)
                return
            # A wrong answer fails the sample, but its timings still count.
            try:
                check_answer(report, ref)
                if trace_sample:
                    check_trace_counts(report)
            except (RuntimeError, KeyError, TypeError, ValueError) as exc:
                fail(exc)
            results_sha256.add(sha256_of(results_path))
            results_path.unlink()
            report.pop("results")
            (traced if trace_sample else samples).append(report)

        # A traced run spends half its time on untraced samples, the
        # baseline for trace.overhead_s.
        start = time.perf_counter()
        untraced_until = seconds / 2 if trace else seconds
        n = 0
        while n < MIN_SAMPLES or time.perf_counter() - start < untraced_until:
            one(False)
            n += 1
        if trace:
            n = 0
            while n < MIN_TRACED or time.perf_counter() - start < seconds:
                one(True)
                n += 1

        if len(results_sha256) > 1:
            errors.append(f"samples wrote {len(results_sha256)} different results files")

        if not samples or (trace and not traced):
            raise BenchError("no sample ran to the end: " + "; ".join(errors[-3:]))
        if trace:
            per_sample = [layer_metrics(r, inputs["input_bytes"]) for r in traced]
            metrics: dict[str, float] = {}
            for name in PER_LAYER:
                if name == "trace.overhead_s":
                    continue
                values = [m[name] for m in per_sample]
                if is_exact(name):
                    if len(set(values)) > 1:
                        errors.append(f"traced samples disagree on {name}: {values}")
                    metrics[name] = values[0]
                else:
                    metrics[name] = statistics.median(values)
            metrics["trace.overhead_s"] = statistics.median(
                r["run_s"] for r in traced
            ) - statistics.median(r["run_s"] for r in samples)
            out = {k: {"value": metrics[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
            summary = [f"{k:<34} {fmt(v['value'])} {v['unit']}" for k, v in out.items()]
        else:
            series = {
                "setup_s": [r["setup_s"] for r in samples],
                "mine_s": [r["mine_s"] for r in samples],
                "run_s": [r["run_s"] for r in samples],
                "peak_rss_mb": [r["peak_rss_mb"] for r in samples],
            }
            out = {
                k: {"value": statistics.median(series[k]), "unit": unit}
                for k, unit in END_TO_END.items()
            }
            summary = [describe(k, END_TO_END[k], series[k]) for k in END_TO_END]
        summary.append(f"{'fail_rate':<12} {failed}/{attempted} = {failed / attempted:.6g}")

        prov["results_sha256"] = sorted(results_sha256)
        full = {
            "provenance": prov,
            "trace": trace,
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "metrics": out,
            "samples": samples,
            "traced_samples": traced,
        }
        report_path = WORK / f"{wl_name}-seed{seed}-trace{int(trace)}.json"
        report_path.write_text(json.dumps(full), encoding="utf-8")

        print(f"workload {wl_name}: gen {wl.gen_flags()}, seed {seed}, {ref['transactions']} transactions, "
              f"{len(ref['answer'])} oracle patterns, results sha256 {','.join(sorted(results_sha256))}")
        for line in summary:
            print(line)
        print(f"report {report_path.relative_to(ROOT)}")
        print(json.dumps({
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": out,
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="huopminer benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    try:
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        log(f"perfbench: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
