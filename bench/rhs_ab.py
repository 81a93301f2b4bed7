"""Time the right-hand side and ``evolve`` of two source trees side by side, in one process.

    python3 bench/rhs_ab.py [--rev HEAD^ | --parent-src <dir>] --out bench/BENCH_<n>_rhs.json

The parent tree is the git revision ``--rev`` of this repository, written
out with ``git archive`` into a temporary directory (or any ``cutdg``
source directory given as ``--parent-src``); the change is this
checkout's ``src``.  Both packages are imported into one process, each as
its own set of module objects, so the two sides share the interpreter, the
heap and the machine's state at every moment of the comparison.

The cases are the four parts of the ``stepping`` benchmark workload, from
``configs/``: ``stability-sliver.cfg`` (acoustics, r=1, 16x16, 200 steps)
and ``convergence-advection.cfg`` at r=2 on nx 16, 32 and 64 to t = 0.05,
plus ``ramp_config("acoustics", 1, 1e-6, nx=128)`` for 20 steps (the
``setup-checks`` fine-acoustics mesh).  For each case and side it builds
the context and the folded operator once, then:

* ``op(u)`` on one random state: ``--blocks`` pairs of ``--calls`` calls
  each, the side that runs first alternating from pair to pair.  Recorded
  are the CPU time per call of every block, and the largest difference of
  the two sides' ``op(u)`` relative to its largest entry.
* ``evolve`` of the case's initial field: ``--pairs`` pairs of one run per
  side, the side that runs first alternating, each side running all five
  cases in turn.  Recorded are each run's CPU time and dof-steps per
  second, per case and over the four ``stepping`` parts, and per case the
  largest difference of the two sides' final states relative to the
  parent's largest entry, and of their L2 traces relative to each parent
  entry.  As a reference for the traces, each side's last trace entry is
  also compared with the final state's norm summed in extended precision
  (``np.longdouble``) from the stacked mass matrices.

Each side builds its operator with ``experiments.make_rhs``, the same
object that ``op(u)`` and ``evolve`` apply.

CPU time is ``time.process_time``.  BLAS threads are pinned to 1 before
numpy is imported.  The summary printed at the end gives each side's
median and the median over pairs of the change/parent ratio, with the
number of pairs in which the change was faster.
"""

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
STEPPING = ("sliver-acoustics", "refine-advection-nx16", "refine-advection-nx32",
            "refine-advection-nx64")
CASES = STEPPING + ("fine-acoustics-nx128",)
PRESSURE = "pressure-poly:0.4,1,-0.7,0.5,-1,0.25"


def load_tree(src):
    """The ``cutdg`` modules of the source directory ``src``, imported afresh."""
    def drop():
        for name in [n for n in sys.modules if n == "cutdg" or n.startswith("cutdg.")]:
            del sys.modules[name]

    drop()
    sys.path.insert(0, str(src))
    try:
        return SimpleNamespace(**{name: importlib.import_module(f"cutdg.{name}")
                                  for name in ("config", "dg", "experiments", "solutions", "stepping")})
    finally:
        sys.path.remove(str(src))
        drop()


def load_trees(rev, parent_src=None):
    """{"parent": the tree of git revision ``rev`` (or of the source directory
    ``parent_src``), "change": this checkout's ``src``}."""
    with tempfile.TemporaryDirectory() as tmp:
        if parent_src is None:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            parent_src = Path(tmp) / "src"
        return {"parent": load_tree(parent_src), "change": load_tree(ROOT / "src")}


def case_config(tree, name):
    """(config, step count) of one case; a count of None runs to the config's t_final."""
    if name == "sliver-acoustics":
        cfg = tree.config.load_config(str(ROOT / "configs" / "stability-sliver.cfg"))
        cfg.initial = PRESSURE
        return cfg, 200
    if name.startswith("refine-advection"):
        cfg = tree.config.load_config(str(ROOT / "configs" / "convergence-advection.cfg"))
        cfg.degree = 2
        cfg.nx = int(name.rsplit("nx", 1)[1])
        cfg.t_final = 0.05
        cfg.initial = "windowed-sine-advect"
        return cfg, None
    return tree.experiments.ramp_config("acoustics", 1, 1e-6, nx=128, initial=PRESSURE), 20


class Case:
    """One case's context, folded operator, random state and evolve inputs on one side."""

    def __init__(self, tree, name):
        ex, st = tree.experiments, tree.stepping
        cfg, steps = case_config(tree, name)
        self.ctx = ctx = ex.build_context(cfg)
        shape = (ctx.mesh.num_cells, ctx.space.n_modes, ctx.spec.m)
        self.u = np.random.default_rng(16).uniform(-1, 1, shape)
        self.u0 = ex.project_field(ctx.space, tree.solutions.lookup_field(cfg.initial, ctx.spec))
        self.evolve_args = (ctx.dt, st.steps_to(cfg.t_final, ctx.dt) if steps is None else steps,
                            cfg.rk_order)
        # the folded operator: both op(u) and evolve apply it
        self.op = ex.make_rhs(ctx)
        self.evolve = st.evolve
        self.result = None
        self.dofs = ctx.space.dofs(ctx.spec.m)

    def time_calls(self, calls):
        t0 = time.process_time()
        for _ in range(calls):
            self.op(self.u)
        return (time.process_time() - t0) / calls

    def time_evolve(self):
        ctx = self.ctx
        t0 = time.process_time()
        self.result = self.evolve(ctx.space, self.u0, self.op, *self.evolve_args)
        return time.process_time() - t0, self.result.steps


def extended_norm(space, coeffs):
    """The L2 norm of ``coeffs``, each cell's c^T M c summed in ``np.longdouble``."""
    c = coeffs.astype(np.longdouble)
    return np.sqrt(np.einsum("cij,cim,cjm->", space.mass.astype(np.longdouble), c, c))


def ordered(pair):
    """The sides in the order they run in pair number ``pair``: parent first on even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def summary(values):
    """Each side's median and the change/parent ratio per pair (median, wins)."""
    ratios = [c / p for p, c in zip(values["parent"], values["change"])]
    return {"median": {s: median(values[s]) for s in SIDES}, "ratio_median": median(ratios),
            "ratios": ratios}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rev", default="HEAD^", help="git revision of the parent tree")
    p.add_argument("--parent-src", default=None, help="a cutdg source directory instead of --rev")
    p.add_argument("--out", required=True, help="the JSON record to write")
    p.add_argument("--calls", type=int, default=200)
    p.add_argument("--blocks", type=int, default=7)
    p.add_argument("--pairs", type=int, default=8)
    args = p.parse_args(argv)

    trees = load_trees(args.rev, args.parent_src)
    cases = {name: {side: Case(trees[side], name) for side in SIDES} for name in CASES}

    record = {"python": platform.python_version(), "numpy": np.__version__,
              "nproc": os.cpu_count(), "rev": args.rev if args.parent_src is None else None,
              "calls": args.calls, "blocks": args.blocks, "pairs": args.pairs, "cases": {}}
    for name, sides in cases.items():
        out = {s: sides[s].op(sides[s].u) for s in SIDES}
        per_call = {s: [] for s in SIDES}
        for block in range(args.blocks):
            for side in ordered(block):
                per_call[side].append(sides[side].time_calls(args.calls))
        record["cases"][name] = {
            "cells": int(sides["change"].ctx.mesh.num_cells), "dofs": int(sides["change"].dofs),
            "max_rel_diff": float(np.abs(out["change"] - out["parent"]).max()
                                  / np.abs(out["parent"]).max()),
            "op_s_per_call": per_call, "op": summary(per_call),
            "op_min_s": {s: min(per_call[s]) for s in SIDES},
        }

    runs = {s: {name: [] for name in CASES} for s in SIDES}
    for pair in range(args.pairs):
        for side in ordered(pair):
            for name in CASES:
                runs[side][name].append(cases[name][side].time_evolve())
    for name in CASES:
        rate = {s: [cases[name][s].dofs * steps / cpu for cpu, steps in runs[s][name]]
                for s in SIDES}
        record["cases"][name]["evolve_cpu_s"] = {s: [cpu for cpu, _ in runs[s][name]] for s in SIDES}
        record["cases"][name]["evolve_dof_steps_per_s"] = summary(rate)
        final = {s: cases[name][s].result for s in SIDES}
        parent_l2 = final["parent"].l2_trace
        record["cases"][name]["evolve_final_max_rel_diff"] = float(
            np.abs(final["change"].final.coeffs - final["parent"].final.coeffs).max()
            / np.abs(final["parent"].final.coeffs).max())
        record["cases"][name]["l2_trace_max_rel_diff"] = float(
            (np.abs(final["change"].l2_trace - parent_l2) / np.abs(parent_l2)).max())
        exact = extended_norm(cases[name]["change"].ctx.space, final["change"].final.coeffs)
        record["cases"][name]["l2_final_rel_err"] = {
            s: float(abs(final[s].l2_trace[-1] - exact) / exact) for s in SIDES}
    stepping = {s: [sum(cases[n][s].dofs * runs[s][n][i][1] for n in STEPPING)
                    / sum(runs[s][n][i][0] for n in STEPPING) for i in range(args.pairs)]
                for s in SIDES}
    record["stepping_evolve_dof_steps_per_s"] = dict(summary(stepping), values=stepping)

    for name, rec in record["cases"].items():
        op, ev = rec["op"], rec["evolve_dof_steps_per_s"]
        print(f"{name:24s} op(u) median {op['median']['parent'] * 1e6:8.1f} -> "
              f"{op['median']['change'] * 1e6:8.1f} us (ratio {op['ratio_median']:.3f}, faster in "
              f"{sum(r < 1 for r in op['ratios'])}/{len(op['ratios'])}), evolve ratio "
              f"{ev['ratio_median']:.3f}, max rel diff op(u) {rec['max_rel_diff']:.1e}, final "
              f"{rec['evolve_final_max_rel_diff']:.1e}, l2 {rec['l2_trace_max_rel_diff']:.1e} "
              f"(last entry's error {rec['l2_final_rel_err']['parent']:.1e} -> "
              f"{rec['l2_final_rel_err']['change']:.1e})")
    st = record["stepping_evolve_dof_steps_per_s"]
    print(f"stepping evolve dof-steps/s median {st['median']['parent']:.3e} -> "
          f"{st['median']['change']:.3e} (ratio {st['ratio_median']:.3f}, faster in "
          f"{sum(r > 1 for r in st['ratios'])}/{len(st['ratios'])})")
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
