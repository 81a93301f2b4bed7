"""Time the setup layers (mesh, quadrature space, assembly, folded operator) on fine meshes.

    python3 bench/mesh_setup.py --side change [--src src] --out bench/BENCH_<n>_setup.json
    python3 bench/mesh_setup.py --side parent --src <checkout of the parent>/src --out bench/BENCH_<n>_setup.json

Each case times, 5 times each, ``build_mesh(cfg.background(),
cfg.geometry())``, ``Space(mesh, r)``, ``AssemblyPlan(space, spec)``,
``SemiDiscreteOperator(plan, stab)`` on the case's context, and
``make_rhs(build_context(cfg))``, and records the best and the median of
each.  The cases are ``ramp_config("acoustics", r, alpha, nx=128)`` with
r=1, alpha=1e-6 (the ``setup-checks`` fine-acoustics mesh) and with r=3,
alpha=1e-2, and ``configs/convergence-advection.cfg`` at r=2, nx=64 (the
finest ``refine-advection`` level of the ``stepping`` workload).  Each case
also records the mesh's cell, cut-cell and face counts and the number of
(k m, k m) blocks of the folded operator's block-sparse part.  After all
cases the process's peak resident set (``ru_maxrss``) is recorded.  The
result is stored under ``--side`` in the ``--out`` JSON file, so one file
holds both sides of a comparison; the package is imported from ``--src``.
BLAS threads are pinned to 1 before numpy is imported.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
CASES = (("acoustics", 1, 1e-6, 128), ("acoustics", 3, 1e-2, 128), ("advection", 2, None, 64))
REPEATS = 5
LAYERS = ("build_mesh", "space", "assembly_plan", "semi_discrete_operator", "build_context_make_rhs")


def timed(build):
    """(last result, {best_s, median_s, times_s}) of ``REPEATS`` calls of ``build``."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result, {"best_s": min(times), "median_s": statistics.median(times), "times_s": times}


def case_config(equation, degree, alpha, nx):
    """A ramp config, or for advection the shipped refinement config at one level."""
    from cutdg.config import load_config
    from cutdg.experiments import ramp_config

    if equation == "acoustics":
        return ramp_config(equation, degree, alpha, nx=nx)
    cfg = load_config(str(ROOT / "configs" / "convergence-advection.cfg"))
    cfg.degree, cfg.nx, cfg.ny = degree, nx, nx
    return cfg


def measure(equation, degree, alpha, nx):
    from cutdg.dg import AssemblyPlan, SemiDiscreteOperator
    from cutdg.experiments import build_context, make_rhs
    from cutdg.geometry import build_mesh
    from cutdg.quadrature import Space

    cfg = case_config(equation, degree, alpha, nx)
    mesh, mesh_times = timed(lambda: build_mesh(cfg.background(), cfg.geometry()))
    space, space_times = timed(lambda: Space(mesh, degree))
    ctx = build_context(cfg)
    _, plan_times = timed(lambda: AssemblyPlan(ctx.space, ctx.spec))
    op, op_times = timed(lambda: SemiDiscreteOperator(ctx.plan, ctx.stab))
    _, setup_times = timed(lambda: make_rhs(build_context(cfg)))
    return {
        "equation": equation,
        "degree": degree,
        "min_alpha": alpha,
        "nx": nx,
        "cells": mesh.num_cells,
        "cut_cells": len(space.cut_ids),
        "faces": len(mesh.face_left),
        "bsr_blocks": int(op.coupling.indices.size),
        "build_mesh": mesh_times,
        "space": space_times,
        "assembly_plan": plan_times,
        "semi_discrete_operator": op_times,
        "build_context_make_rhs": setup_times,
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
        print(f"{args.side}: {res['equation']} r={res['degree']} nx={res['nx']} "
              f"blocks={res['bsr_blocks']}  "
              + "  ".join(f"{key} best={res[key]['best_s']:.4f} median={res[key]['median_s']:.4f} s"
                          for key in LAYERS))
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.side}: ru_maxrss {maxrss_mb:.1f} MB")
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {}
    record[args.side] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "ru_maxrss_mb": maxrss_mb,
        "cases": results,
    }
    out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
