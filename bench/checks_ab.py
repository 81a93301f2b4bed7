"""Time the consistency and axiom check drivers of two source trees side by side, in one process.

    python3 bench/checks_ab.py [--rev HEAD^ | --parent-src <dir>] --out bench/BENCH_<n>_checks.json

The two trees are those of ``bench/rhs_ab.py``: the git revision ``--rev``
of this repository, written out with ``git archive`` (or any ``cutdg``
source directory given as ``--parent-src``), and this checkout's ``src``,
both imported into one process, each as its own set of module objects.

The cases are the three check commands of the ``setup-checks`` benchmark
workload's ``checks`` part, at its full sizes (20 polynomials, 50 triples):
``run_consistency`` on ``configs/consistency-advection.cfg`` and on
``configs/consistency-acoustics.cfg``, and ``run_axioms`` on
``configs/consistency-acoustics.cfg``.  Each driver call builds its own
context, as the command does.

First, for each case and each of the ``--check-seeds`` seeds, both sides
run once and their reports' ``lines()`` are compared: they must be equal
line for line.  Then ``--pairs`` pairs of one run of every case per side
are timed with ``time.process_time``, the side that runs first
alternating from pair to pair.  Recorded are each run's CPU time per case
and over the three cases, each side's median and quartiles, and the
change/parent ratio per pair with the number of pairs in which the change
was faster.  BLAS threads are pinned to 1 before numpy is imported.
"""

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path
from statistics import median, quantiles

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

import rhs_ab  # noqa: E402

ROOT = rhs_ab.ROOT
SIDES = rhs_ab.SIDES
CASES = {
    "consistency-advection": ("run_consistency", "consistency-advection.cfg"),
    "consistency-acoustics": ("run_consistency", "consistency-acoustics.cfg"),
    "check-axioms-acoustics": ("run_axioms", "consistency-acoustics.cfg"),
}


def case_run(tree, name, seed):
    """(driver, config) of one case on one side, with the workload's sizes and ``seed``."""
    driver, file_name = CASES[name]
    cfg = tree.config.load_config(str(ROOT / "configs" / file_name))
    cfg = replace(cfg, n_polynomials=20, n_triples=50, seed=seed).validate()
    return getattr(tree.experiments, driver), cfg


def spread(values):
    """Median and quartiles of ``values``."""
    q1, _, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rev", default="HEAD^", help="git revision of the parent tree")
    p.add_argument("--parent-src", default=None, help="a cutdg source directory instead of --rev")
    p.add_argument("--out", required=True, help="the JSON record to write")
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--seed", type=int, default=1, help="the timed runs' seed")
    p.add_argument("--check-seeds", type=int, default=5,
                   help="seeds 1..N whose reports are compared")
    args = p.parse_args(argv)

    trees = rhs_ab.load_trees(args.rev, args.parent_src)
    record = {"python": platform.python_version(), "numpy": np.__version__,
              "nproc": os.cpu_count(), "rev": args.rev if args.parent_src is None else None,
              "pairs": args.pairs, "seed": args.seed, "reports_equal": {}, "cases": {}}

    for name in CASES:
        equal = []
        for seed in range(1, args.check_seeds + 1):
            lines = {}
            for side in SIDES:
                driver, cfg = case_run(trees[side], name, seed)
                lines[side] = driver(cfg).lines()
            equal.append(lines["parent"] == lines["change"])
            if not equal[-1]:
                print(f"{name} seed {seed}: reports differ", lines, sep="\n")
        record["reports_equal"][name] = equal

    runs = {s: {name: case_run(trees[s], name, args.seed) for name in CASES} for s in SIDES}
    cpu = {s: {name: [] for name in CASES} for s in SIDES}
    for pair in range(args.pairs):
        for side in rhs_ab.ordered(pair):
            for name, (driver, cfg) in runs[side].items():
                t0 = time.process_time()
                driver(cfg)
                cpu[side][name].append(time.process_time() - t0)
    total = {s: [sum(cpu[s][n][i] for n in CASES) for i in range(args.pairs)] for s in SIDES}
    for name, values in list(cpu["parent"].items()) + [("total", None)]:
        per_side = {s: cpu[s][name] for s in SIDES} if values is not None else total
        rec = {s: spread(per_side[s]) for s in SIDES}
        rec.update(rhs_ab.summary(per_side), cpu_s=per_side)
        record["cases"][name] = rec
        print(f"{name:24s} median {rec['parent']['median'] * 1e3:7.2f} -> "
              f"{rec['change']['median'] * 1e3:7.2f} ms (parent quartiles "
              f"{rec['parent']['q1'] * 1e3:.2f}-{rec['parent']['q3'] * 1e3:.2f}), ratio "
              f"{rec['ratio_median']:.3f}, faster in "
              f"{sum(r < 1 for r in rec['ratios'])}/{len(rec['ratios'])}")
    same = all(all(v) for v in record["reports_equal"].values())
    print(f"reports equal on every case and seed: {same}")
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
