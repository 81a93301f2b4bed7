"""Time the cut-cell mesh, the quadrature space and the whole setup on fine ramp meshes.

    python3 bench/mesh_setup.py --side change [--src src] [--out bench/BENCH_11_setup.json]
    python3 bench/mesh_setup.py --side parent --src <checkout of the parent>/src

Each case takes ``ramp_config("acoustics", r, alpha, nx)`` and times, 5
times each, ``build_mesh(cfg.background(), cfg.geometry())``,
``Space(mesh, r)`` and ``make_rhs(build_context(cfg))``, and records the
best and the median of each.  The cases are nx=128 with r=1, alpha=1e-6
(the ``setup-checks`` fine-acoustics mesh) and with r=3, alpha=1e-2.  Each
case also records the mesh's cell, cut-cell and face counts.  After both
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
CASES = ((1, 1e-6, 128), (3, 1e-2, 128))
REPEATS = 5


def timed(build):
    """(last result, {best_s, median_s, times_s}) of ``REPEATS`` calls of ``build``."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result, {"best_s": min(times), "median_s": statistics.median(times), "times_s": times}


def measure(degree, alpha, nx):
    from cutdg.experiments import build_context, make_rhs, ramp_config
    from cutdg.geometry import build_mesh
    from cutdg.quadrature import Space

    cfg = ramp_config("acoustics", degree, alpha, nx=nx)
    mesh, mesh_times = timed(lambda: build_mesh(cfg.background(), cfg.geometry()))
    space, space_times = timed(lambda: Space(mesh, degree))
    _, setup_times = timed(lambda: make_rhs(build_context(cfg)))
    return {
        "equation": "acoustics",
        "degree": degree,
        "min_alpha": alpha,
        "nx": nx,
        "cells": mesh.num_cells,
        "cut_cells": len(space.cut_ids),
        "faces": len(mesh.face_left),
        "build_mesh": mesh_times,
        "space": space_times,
        "build_context_make_rhs": setup_times,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--side", required=True, help="label of this run, e.g. parent or change")
    p.add_argument("--src", default=str(ROOT / "src"), help="directory holding the cutdg package")
    p.add_argument("--out", default=str(ROOT / "bench" / "BENCH_11_setup.json"))
    args = p.parse_args(argv)

    sys.path.insert(0, str(Path(args.src).resolve()))
    import numpy

    results = [measure(*case) for case in CASES]
    for res in results:
        print(f"{args.side}: r={res['degree']} alpha={res['min_alpha']:g} nx={res['nx']} "
              + "  ".join(f"{key} best={res[key]['best_s']:.4f} median={res[key]['median_s']:.4f} s"
                          for key in ("build_mesh", "space", "build_context_make_rhs")))
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
