"""Time the acoustic DoD penalty constructor on two fine ramp meshes.

    python3 bench/penalty_setup.py --side change [--src src] [--out bench/BENCH_9_penalty.json]
    python3 bench/penalty_setup.py --side parent --src <checkout of the parent>/src

Each case builds the context of ``ramp_config("acoustics", r, alpha, nx=128)``
without a penalty, classifies its small cells and their strengths as
``build_context`` does, then times ``WaveStabilization(plan, small, eta)``,
best of 5.  The cases are nx=128 at r=1, alpha=1e-6 (the ``setup-checks``
fine-acoustics mesh) and at r=3, alpha=1e-2.  Each case also records the
nonzeros of the penalty matrix and of the base couplings plus the penalty.
The result is stored under ``--side`` in the ``--out`` JSON file, so one file
holds both sides of a comparison; the package is imported from ``--src``.
BLAS threads are pinned to 1 before numpy is imported.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
CASES = ((1, 1e-6), (3, 1e-2))
NX = 128
REPEATS = 5


def measure(degree, alpha):
    from cutdg.experiments import build_context, ramp_config
    from cutdg.geometry import classify_small_cells
    from cutdg.stabilization import WaveStabilization, eta_values

    cfg = ramp_config("acoustics", degree, alpha, nx=NX)
    ctx = build_context(cfg, stabilized=False)
    small = classify_small_cells(ctx.mesh, cfg.alpha0)
    eta = eta_values(ctx.mesh, small, cfg.alpha0, cfg.eta_scale)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        stab = WaveStabilization(ctx.plan, small, eta)
        times.append(time.perf_counter() - t0)
    penalty = stab.matrix()
    return {
        "degree": degree,
        "min_alpha": alpha,
        "nx": NX,
        "stabilized_cells": len(small),
        "best_s": min(times),
        "times_s": times,
        "penalty_nnz": int(penalty.nnz),
        "coupling_nnz": int((ctx.plan.coupling + penalty).nnz),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--side", required=True, help="label of this run, e.g. parent or change")
    p.add_argument("--src", default=str(ROOT / "src"), help="directory holding the cutdg package")
    p.add_argument("--out", default=str(ROOT / "bench" / "BENCH_9_penalty.json"))
    args = p.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy

    results = [measure(r, alpha) for r, alpha in CASES]
    for res in results:
        print(f"{args.side}: r={res['degree']} alpha={res['min_alpha']:g} "
              f"cells={res['stabilized_cells']} best={res['best_s']:.4f} s "
              f"penalty nnz={res['penalty_nnz']} coupling nnz={res['coupling_nnz']}")
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record[args.side] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cases": results,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
