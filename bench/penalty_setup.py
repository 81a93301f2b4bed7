"""Time the base form's assembly and the DoD penalty constructor on fine ramp meshes.

    python3 bench/penalty_setup.py --side change [--src src] --out bench/BENCH_<n>_setup.json
    python3 bench/penalty_setup.py --side parent --src <checkout of the parent>/src --out bench/BENCH_<n>_setup.json

Each case builds the context of ``ramp_config(equation, r, alpha, nx)``
without a penalty, classifies its small cells and their strengths as
``build_context`` does, then times ``AssemblyPlan(space, spec)`` and
the penalty constructor (``WaveStabilization`` or
``AdvectionStabilization``), each best of 5.  The cases are acoustics at
nx=128 with r=1, alpha=1e-6 (the ``setup-checks`` fine-acoustics mesh) and
with r=3, alpha=1e-2, and advection at nx=64 with r=2, alpha=1e-2.  Each
case also records the nonzeros and the number of (k m, k m) BSR blocks of
the base couplings (``plan.blocks`` summed by ``dg.block_matrix``), the
nonzeros of the penalty matrix (``stab.blocks()`` summed the same way) and
of the base couplings plus the penalty.  The result is stored under
``--side`` in the ``--out`` JSON file, so one file holds both sides of a
comparison; the package is imported from ``--src``.  BLAS threads are
pinned to 1 before numpy is imported.
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
CASES = (("acoustics", 1, 1e-6, 128), ("acoustics", 3, 1e-2, 128), ("advection", 2, 1e-2, 64))
REPEATS = 5


def best_of(build):
    """(last result, wall times) of ``REPEATS`` calls of ``build``."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result, times


def measure(equation, degree, alpha, nx):
    import numpy as np

    from cutdg.dg import AssemblyPlan, block_matrix
    from cutdg.experiments import build_context, ramp_config
    from cutdg.geometry import classify_small_cells
    from cutdg.stabilization import AdvectionStabilization, WaveStabilization, eta_values

    cfg = ramp_config(equation, degree, alpha, nx=nx)
    ctx = build_context(cfg, stabilized=False)
    small = classify_small_cells(ctx.mesh, cfg.alpha0)
    eta = eta_values(ctx.mesh, small, cfg.alpha0, cfg.eta_scale)
    plan, plan_times = best_of(lambda: AssemblyPlan(ctx.space, ctx.spec))
    penalty = AdvectionStabilization if equation == "advection" else WaveStabilization
    stab, times = best_of(lambda: penalty(ctx.plan, small, eta))
    km = ctx.space.n_modes * ctx.spec.m
    num_cells = ctx.mesh.num_cells
    coupling = block_matrix(plan.blocks, num_cells)
    matrix = block_matrix(stab.blocks(), num_cells)
    return {
        "equation": equation,
        "degree": degree,
        "min_alpha": alpha,
        "nx": nx,
        "stabilized_cells": len(small),
        "plan_best_s": min(plan_times),
        "plan_times_s": plan_times,
        "plan_coupling_nnz": int(np.count_nonzero(coupling.data)),
        "plan_bsr_blocks": int(coupling.tobsr(blocksize=(km, km)).indices.size),
        "best_s": min(times),
        "times_s": times,
        "penalty_nnz": int(np.count_nonzero(matrix.data)),
        "coupling_nnz": int(np.count_nonzero((coupling + matrix).data)),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--side", required=True, help="label of this run, e.g. parent or change")
    p.add_argument("--src", default=str(ROOT / "src"), help="directory holding the cutdg package")
    p.add_argument("--out", required=True, help="the JSON record to add this side to")
    args = p.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy

    results = [measure(*case) for case in CASES]
    for res in results:
        print(f"{args.side}: {res['equation']} r={res['degree']} alpha={res['min_alpha']:g} "
              f"nx={res['nx']} plan best={res['plan_best_s']:.4f} s "
              f"nnz={res['plan_coupling_nnz']} blocks={res['plan_bsr_blocks']}; "
              f"penalty cells={res['stabilized_cells']} best={res['best_s']:.4f} s "
              f"nnz={res['penalty_nnz']} coupling nnz={res['coupling_nnz']}")
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
