"""Smoke test of the benchmark itself; exits 0 when every check holds.

    python3 perfbench/smoke.py

Runs every workload at its smallest size, untraced and traced, and checks
that the result line has the contract's keys, that every metric named in
BENCHMARK.json is present with its unit (end-to-end metrics never 0), that
the traced spans nest (every parent exists and encloses its child, every self
time is >= 0) and account for the traced wall time, that the same seed gives
the same configs, and that the benchmark fails without printing a result in
a directory that holds only BENCHMARK.json and this directory.
"""

import csv
import gzip
import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict

from run import OUT_ROOT, ROOT, WORKLOAD_NAMES, work_dir_for
from tracer import nesting_errors

SEED = 7


def run_bench(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(problems, label, proc, expected):
    if proc.returncode != 0:
        problems.append(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return None
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{proc.stdout}")
    got = {name: mv["unit"] for name, mv in result["metrics"].items()}
    if got != expected:
        problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[n for n in got if n in expected and got[n] != expected[n]]}")
    for name, mv in result["metrics"].items():
        if not (isinstance(mv["value"], (int, float)) and math.isfinite(mv["value"])):
            problems.append(f"{label}: {name} = {mv['value']!r} is not a finite number")
    return result


def read_spans(path):
    reps = defaultdict(list)
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            reps[int(row["rep"])].append(
                [row["name"], int(row["start_ns"]), int(row["end_ns"]), int(row["parent"]), None])
    return list(reps.values())


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for workload in WORKLOAD_NAMES:
        common = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--size", "smoke"]
        result = check_result(problems, f"{workload} untraced",
                              run_bench(ROOT, *common, "--trace", "0"), end_to_end)
        if result:
            zero = [n for n, mv in result["metrics"].items() if mv["value"] == 0]
            if zero:
                problems.append(f"{workload}: end-to-end metrics read 0: {zero}")
        result = check_result(problems, f"{workload} traced",
                              run_bench(ROOT, *common, "--trace", "1"), per_layer)
        traced_dir = work_dir_for(workload, SEED, 1, "smoke")
        for rep, spans in enumerate(read_spans(traced_dir / "spans.csv.gz")):
            problems.extend(f"{workload} rep {rep}: {e}" for e in nesting_errors(spans)[:5])
            if not spans:
                problems.append(f"{workload} rep {rep}: no spans")
        if result:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if not 0 <= m["trace.unaccounted_s"] <= 0.05 * m["trace.wall_s"]:
                problems.append(f"{workload}: layer self times leave "
                                f"{m['trace.unaccounted_s']} s of {m['trace.wall_s']} s")
        records = [json.loads((work_dir_for(workload, SEED, t, "smoke") / "record.json")
                              .read_text()) for t in (0, 1)]
        if list(records[0]["configs"].values()) != list(records[1]["configs"].values()):
            problems.append(f"{workload}: the same seed gave different configs")

    # without the program's sources the benchmark must fail and print no result
    bare = OUT_ROOT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", WORKLOAD_NAMES[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare checkout: exit code {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print(f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
