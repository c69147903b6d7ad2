"""Self-test of the benchmark harness on the tiny workload.

    python3 perfbench/selftest.py

Checks that run.py prints every metric of BENCHMARK.json by name with
its unit, that no sample fails, that traced and untraced runs write the
same results file, that two traced runs count the same work, that a
sample's peak RSS is its own and not that of the process that started
it, and that in a directory holding only BENCHMARK.json and perfbench/
the benchmark exits non-zero without printing a result.  Takes a few
seconds and about 200 MB of memory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"unexpected keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"run not clean:\n{proc.stdout}\n{proc.stderr}")
    if "fail_rate    0/" not in proc.stdout:
        raise AssertionError("fail_rate line missing or non-zero")
    return result


def check_metrics(result: dict, declared: list[dict], stdout: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"metrics {got} differ from BENCHMARK.json {want}")
    lines = {line.split()[0]: line for line in stdout.splitlines() if line.strip()}
    for name, unit in want.items():
        if f" {unit}" not in lines.get(name, ""):
            raise AssertionError(f"{name} not printed by name with its unit {unit}")


def report(seed: int, trace: int) -> dict:
    path = run.WORK / f"tiny-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def check_peak_rss_is_own() -> None:
    """Start a tiny sample from a process grown to 200 MB; the sample's
    reported peak must stay far below it."""
    hm = run.import_huopminer()
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="rss-", dir=run.WORK))
    try:
        inputs = run.make_inputs(hm, run.WORKLOADS["tiny"], 1, tmp)
        ballast = b"\1" * (200 << 20)
        sample, _ = run.run_sample(run.WORKLOADS["tiny"], inputs, tmp, 1, False)
        del ballast
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if sample["peak_rss_mb"] > 100:
        raise AssertionError(
            f"a tiny sample reports {sample['peak_rss_mb']:.1f} MB: the parent's peak, not its own"
        )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in spec["workloads"]}
    if not names <= run.WORKLOADS.keys():
        raise AssertionError(f"workloads {names - run.WORKLOADS.keys()} unknown to run.py")
    if list(run.END_TO_END) != [m["name"] for m in spec["end_to_end"]]:
        raise AssertionError("run.END_TO_END and BENCHMARK.json end_to_end differ")
    if list(run.PER_LAYER) != [m["name"] for m in spec["per_layer"]]:
        raise AssertionError("run.PER_LAYER and BENCHMARK.json per_layer differ")

    plain = bench(1, 0)
    check_metrics(last_json(plain), spec["end_to_end"], plain.stdout)
    traced = bench(1, 1)
    check_metrics(last_json(traced), spec["per_layer"], traced.stdout)
    again = last_json(bench(2, 1))

    digests = {tuple(report(1, t)["provenance"]["results_sha256"]) for t in (0, 1)}
    if len(digests) != 1 or len(next(iter(digests))) != 1:
        raise AssertionError(f"traced and untraced results differ: {digests}")

    first = last_json(traced)["metrics"]
    for name, unit in run.PER_LAYER.items():
        if unit == "count" and first[name]["value"] != again["metrics"][name]["value"]:
            raise AssertionError(f"two traced runs count {name} differently")

    check_peak_rss_is_own()

    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(1, 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
            raise AssertionError("run.py succeeded without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
