"""Repeat the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload stepping --seeds 1-10 --seconds 55 \
        [--trace 0] [--out summary.json]

Runs ``run.py`` once per (workload, seed), each in its own process, and
reports per metric the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread (q3 - q1) / median, against the bound in BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", required=True,
                   help="workload name; repeat the flag for several")
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the summary as JSON here")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    ok = True
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            runs.append({"seed": seed, "elapsed_s": elapsed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}",
                  flush=True)
        stats = {}
        for name in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][name] for r in runs]
            med = median(values)
            q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds.get(name), "values": values}
            bound = bounds.get(name)
            mark = "" if bound is None else f"  bound {bound}  {'OK' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:40s} median {med:14.6g}  spread {spread:8.4f}{mark}")
        summary["workloads"][workload] = {"runs": runs, "metrics": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
