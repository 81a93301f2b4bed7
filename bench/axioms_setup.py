"""Time the axiom check and the acoustic DoD penalty constructor.

    python3 bench/axioms_setup.py --side change [--src src] --out bench/BENCH_<n>_axioms.json
    python3 bench/axioms_setup.py --side parent --src <checkout of the parent>/src --out bench/BENCH_<n>_axioms.json

The axiom case loads ``configs/consistency-acoustics.cfg`` (the check-axioms
part of the ``setup-checks`` workload) and times ``run_axioms(cfg)``, and on
its stabilized cells the ``check_axioms_on_cell`` loop alone, each best of
5; it records the report's worst residual per identity.  The penalty cases
rerun ``bench/penalty_setup.py``'s measurement for its acoustic cases at
nx=128, r=1 (alpha=1e-6) and r=3 (alpha=1e-2): ``AssemblyPlan`` and
``WaveStabilization``, each best of 5.  The result is stored under
``--side`` in the ``--out`` JSON file, so one file holds both sides of a
comparison; the package is imported from ``--src``.  BLAS threads are
pinned to 1 before numpy is imported.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from penalty_setup import CASES, best_of, measure  # noqa: E402

CONFIG = ROOT / "configs" / "consistency-acoustics.cfg"


def measure_axioms():
    import numpy as np

    from cutdg.config import load_config
    from cutdg.experiments import build_context, check_axioms_on_cell, run_axioms

    cfg = load_config(CONFIG)
    report, run_times = best_of(lambda: run_axioms(cfg))
    ctx = build_context(cfg, stabilized=True)

    def check_all():
        rng = np.random.default_rng(cfg.seed)
        return [check_axioms_on_cell(ctx.space, ctx.spec, cid, rng, cfg.n_triples)
                for cid in ctx.small]

    _, check_times = best_of(check_all)
    return {
        "config": str(CONFIG.relative_to(ROOT)),
        "stabilized_cells": report.n_cells,
        "n_triples": report.n_triples,
        "passed": report.passed,
        "worst": report.worst,
        "run_axioms_best_s": min(run_times),
        "run_axioms_times_s": run_times,
        "check_cells_best_s": min(check_times),
        "check_cells_times_s": check_times,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--side", required=True, help="label of this run, e.g. parent or change")
    p.add_argument("--src", default=str(ROOT / "src"), help="directory holding the cutdg package")
    p.add_argument("--out", required=True, help="the JSON record to add this side to")
    args = p.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy

    axioms = measure_axioms()
    print(f"{args.side}: run_axioms best={axioms['run_axioms_best_s']:.4f} s, "
          f"check loop best={axioms['check_cells_best_s']:.4f} s "
          f"over {axioms['stabilized_cells']} cells, passed={axioms['passed']}")
    penalties = [measure(*case) for case in CASES
                 if case[0] == "acoustics" and case[3] == 128]
    for res in penalties:
        print(f"{args.side}: acoustics r={res['degree']} alpha={res['min_alpha']:g} "
              f"nx={res['nx']} plan best={res['plan_best_s']:.4f} s; "
              f"penalty cells={res['stabilized_cells']} best={res['best_s']:.4f} s")
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record[args.side] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "axioms": axioms,
        "penalty_cases": penalties,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
