"""Time the setup phases of two source trees side by side, in one process, and compare their tables.

    python3 bench/setup_ab.py [--rev HEAD^ | --parent-src <dir>] --out bench/BENCH_<n>_setup.json

The setup counterpart of ``rhs_ab.py``: the parent tree is the git
revision ``--rev`` (or the ``cutdg`` source directory ``--parent-src``), the
change is this checkout's ``src``, and both are imported into one process
(``rhs_ab.load_trees``).

The timed cases are the four parts of the ``stepping`` benchmark workload
and the nx=128 ``fine-acoustics`` mesh (as in ``rhs_ab.py``), and the two
r=2 ``consistency`` contexts (``configs/consistency-{advection,acoustics}.cfg``,
the consistency part of ``setup-checks``).  The nx=16 ramp grid,
``ramp_config(equation, r, 1e-2)`` for r = 0..3 and both equations, is
compared but not timed.  Each case is set up phase by phase, as
``build_context`` + ``make_rhs`` + ``project_field`` do:

* ``mesh``: ``build_mesh`` and ``classify_small_cells``;
* ``space``: ``Space(mesh, r)``;
* ``penalty``: ``eta_values`` and the DoD penalty constructor;
* ``operator``: B + S and K = -M^{-1} (B + S), ``dg.assemble(space, spec,
  stab)`` and its ``folded(space)``;
* ``projection``: ``project_field`` of the case's field (the ``stepping``
  workload's initial fields; a random global polynomial of the space's
  degree, which is written down exactly, on the ``consistency`` contexts).

``--pairs`` pairs of setups of every timed case are run, the side that runs
first alternating from pair to pair; recorded is each phase's CPU time
(``time.process_time``) per run.  Then every case, timed or not, is set up
once more per side, and for every mesh array, every ``Space`` table (the cell rules, the
basis values and gradients, the masses, the mode integrals, and the rules
and traces of all faces), the penalty's blocks (``stab.blocks()``, in their
order) and its named matrices (cell by cell in ascending order,
:func:`penalty_parts`), B + S and K (each one's stencil, its coupling and
its ``matrix()``, blocks and indices), for advection the outflow weights,
``K(u)`` on one random state, the projected field and, for a polynomial
field, its values at the quadrature points, the record holds whether the
two sides are equal (``np.array_equal``) and their largest difference
relative to the parent's largest entry.  Last, the ``refine-advection``
convergence run (``run_convergence``, r=2, nx 16/32/64 to t = 0.05) gives
each side's finest-level L2 error.  BLAS threads are pinned to 1 before
numpy is imported.
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from rhs_ab import (  # noqa: E402
    PRESSURE, ROOT, SIDES, STEPPING, case_config, load_trees, ordered, summary)

import numpy as np  # noqa: E402

PHASES = ("mesh", "space", "penalty", "operator", "projection")
CONSISTENCY = ("consistency-advection", "consistency-acoustics")
TIMED = STEPPING + ("fine-acoustics-nx128",) + CONSISTENCY
MESH_TABLES = ("cell_ij", "cell_vertices", "cell_offsets", "cell_face_ids", "cell_area",
               "cell_volume_fraction", "face_p", "face_q", "face_normal", "face_left",
               "face_right")
RAMPS = tuple(f"ramp-{eq}-r{r}" for eq in ("advection", "acoustics") for r in range(4))


def case_inputs(tree, name):
    """(config, field) of one case."""
    ex = tree.experiments
    if name in CONSISTENCY:
        cfg = tree.config.load_config(str(ROOT / "configs" / f"{name}.cfg"))
        spec = cfg.system()
        fld = ex.random_polynomial(np.random.default_rng(cfg.seed), cfg.degree, spec.m,
                                   pressure_only=spec.kind == "acoustics")
        return cfg, fld
    if name in RAMPS:
        _, equation, r = name.split("-")
        initial = PRESSURE if equation == "acoustics" else "windowed-sine-advect"
        cfg = ex.ramp_config(equation, int(r[1:]), 1e-2, initial=initial)
    else:
        cfg = case_config(tree, name)[0]
    return cfg, ex.lookup_field(cfg.initial, cfg.system())


def operators(tree, space, spec, stab):
    """(B + S, K) of one setup, each with its ``stencil``, ``coupling`` and
    ``matrix()``.  B + S is returned as a function that builds it again for
    the comparison: like ``make_rhs``, the operator phase keeps only K."""
    dg = tree.dg
    return (lambda: dg.assemble(space, spec, stab)), dg.assemble(space, spec, stab).folded(space)


def setup(tree, cfg, fld, operator=True):
    """(CPU seconds per phase, the objects built) of one case's setup; the
    ``operator`` phase is left out when ``operator`` is false."""
    ex = tree.experiments
    times, clock = {}, time.process_time
    t0 = clock()
    spec = cfg.system()
    mesh = ex.build_mesh(cfg.background(), cfg.constraints)
    small = ex.classify_small_cells(mesh, cfg.alpha0)
    times["mesh"], t0 = clock() - t0, clock()
    space = ex.Space(mesh, cfg.degree)
    times["space"], t0 = clock() - t0, clock()
    eta = ex.eta_values(mesh, small, cfg.alpha0, cfg.eta_scale)
    penalty = ex.AdvectionStabilization if spec.kind == "advection" else ex.WaveStabilization
    stab = penalty(space, spec, small, eta) if len(small) else None
    times["penalty"], t0 = clock() - t0, clock()
    summed = op = None
    if operator:
        summed, op = operators(tree, space, spec, stab)
        times["operator"], t0 = clock() - t0, clock()
    u0 = ex.project_field(space, fld)
    times["projection"] = clock() - t0
    return times, {"space": space, "spec": spec, "stab": stab, "summed": summed, "op": op,
                   "u0": u0, "fld": fld}


def penalty_parts(stab):
    """The penalty's named matrices as {name: {cell: matrix}}, read from its groups."""
    parts = {}
    for group in stab.groups:
        for name, part in group.parts.items():
            parts.setdefault(name, {}).update(zip(group.cell_ids.tolist(), part))
    return parts


def rules(space):
    """The cut cells' basis gradients, stacked in cell order, and every
    face's rule."""
    grads = np.concatenate([space.cell_rules([c])[3][0] for c in space.cut_ids.tolist()])
    return (grads,) + space.face_rule(np.arange(len(space.mesh.face_left)))


def tables(tree, built, rng):
    """Every array one setup on ``tree`` produced, by name."""
    space, spec, stab, op = built["space"], built["spec"], built["stab"], built["op"]
    cut_grad, face_pts, face_w = rules(space)
    out = {
        "space.quad_pts": space.quad_pts, "space.quad_w": space.quad_w,
        "space.ref_phi": space._ref_phi, "space.ref_grad": space._ref_grad,
        "space.cut_phi": space._cut_phi, "space.cut_grad": cut_grad,
        "space.face_pts": face_pts, "space.face_w": face_w,
        "space.mass": space.mass, "space.mode_integral": space.mode_integral,
        "space.face_traces": np.stack(space.face_traces(np.arange(len(space.mesh.face_left)))[:2]),
        "projection": built["u0"].coeffs,
    }
    for key in MESH_TABLES:
        out[f"mesh.{key}"] = getattr(space.mesh, key)
    if op is not None:
        for name, operator in (("B+S", built["summed"]()), ("K", op)):
            out[f"{name}.stencil"] = operator.stencil
            for key, value in (("coupling", operator.coupling), ("matrix", operator.matrix())):
                for part in ("data", "indices", "indptr"):
                    out[f"{name}.{key}.{part}"] = getattr(value, part)
        shape = (space.mesh.num_cells, space.n_modes, spec.m)
        out["K(u)"] = op(rng.uniform(-1, 1, shape))
        if spec.kind == "advection":
            out["outflow_weights"] = tree.dg.outflow_weights(space, spec, stab)
    if stab is not None:
        rows, cols, blocks = (np.concatenate(part) for part in zip(*stab.blocks()))
        out.update({"penalty.rows": rows, "penalty.cols": cols, "penalty.blocks": blocks})
        for name, by_cell in penalty_parts(stab).items():
            out[f"penalty.{name}"] = np.concatenate(
                [m.reshape(-1) for _, m in sorted(by_cell.items())])
    if isinstance(built["fld"], tree.solutions.PolynomialField):
        out["field(quad_pts)"] = built["fld"](space.quad_pts)
    return out


def compare(trees, name):
    """Per table: equal on both sides, and the largest difference relative to
    the parent's largest entry."""
    got = {}
    for side in SIDES:
        tree = trees[side]
        _, built = setup(tree, *case_inputs(tree, name), operator=name not in CONSISTENCY)
        got[side] = tables(tree, built, np.random.default_rng(19))
    result = {}
    for key, parent in got["parent"].items():
        change = got["change"][key]
        if change.shape != parent.shape:
            raise ValueError(f"{name}: {key} is {parent.shape} on the parent, {change.shape} here")
        scale = np.abs(parent).max() or 1.0   # an all-zero table: the absolute difference
        result[key] = {"equal": bool(np.array_equal(parent, change)),
                       "max_rel_diff": float(np.abs(change - parent).max() / scale)}
    return result


def timing(values):
    """``rhs_ab.summary`` of per-run CPU times, with the pairs in which the change was faster."""
    t = summary(values)
    return dict(t, values=values, faster=sum(r < 1 for r in t["ratios"]))


def convergence_error(tree):
    """The finest level's L2 error of the ``refine-advection`` run."""
    cfg = case_config(tree, "refine-advection-nx16")[0]
    cfg.refinements = (16, 32, 64)
    return tree.experiments.run_convergence(cfg).rows[-1].l2_error


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rev", default="HEAD^", help="git revision of the parent tree")
    p.add_argument("--parent-src", default=None, help="a cutdg source directory instead of --rev")
    p.add_argument("--out", required=True, help="the JSON record to write")
    p.add_argument("--pairs", type=int, default=20)
    args = p.parse_args(argv)

    trees = load_trees(args.rev, args.parent_src)
    inputs = {s: {n: case_inputs(trees[s], n) for n in TIMED} for s in SIDES}
    runs = {s: {n: {ph: [] for ph in PHASES} for n in TIMED} for s in SIDES}
    for pair in range(args.pairs):
        for side in ordered(pair):
            for name in TIMED:
                times, _ = setup(trees[side], *inputs[side][name], operator=name not in CONSISTENCY)
                for ph, t in times.items():
                    runs[side][name][ph].append(t)

    record = {"python": platform.python_version(), "numpy": np.__version__,
              "nproc": os.cpu_count(), "rev": args.rev if args.parent_src is None else None,
              "pairs": args.pairs, "cases": {}}
    for name in TIMED + RAMPS:
        rec = record["cases"][name] = {}
        if name in TIMED:
            rec["cpu_s"] = cpu = {s: {ph: t for ph, t in runs[s][name].items() if t} for s in SIDES}
            rec["median_s"] = {s: {ph: median(t) for ph, t in cpu[s].items()} for s in SIDES}
            rec["total"] = timing({s: [sum(v) for v in zip(*cpu[s].values())] for s in SIDES})
        rec["tables"] = compare(trees, name)
    record["stepping_setup_s"] = st = timing(
        {s: [sum(sum(v[i] for v in runs[s][n].values()) for n in STEPPING)
             for i in range(args.pairs)] for s in SIDES})
    err = {s: convergence_error(trees[s]) for s in SIDES}
    err["rel_diff"] = abs(err["change"] - err["parent"]) / err["parent"]
    record["refine_advection_l2_error"] = err

    def setup_line(t):
        return (f"{t['median']['parent'] * 1e3:.1f} -> {t['median']['change'] * 1e3:.1f} ms "
                f"(ratio {t['ratio_median']:.3f}, faster in {t['faster']}/{args.pairs})")

    for name, rec in record["cases"].items():
        worst = max(rec["tables"].items(), key=lambda kv: kv[1]["max_rel_diff"])
        equal = sum(t["equal"] for t in rec["tables"].values())
        line = (f"{name:24s} tables equal {equal}/{len(rec['tables'])}, largest rel diff "
                f"{worst[1]['max_rel_diff']:.1e} ({worst[0]})")
        if "K(u)" in rec["tables"]:
            line += f", K(u) {rec['tables']['K(u)']['max_rel_diff']:.1e}"
        if "total" in rec:
            med = rec["median_s"]
            line += f"; setup {setup_line(rec['total'])}; " + ", ".join(
                f"{ph} {med['parent'][ph] * 1e3:.1f}->{med['change'][ph] * 1e3:.1f}"
                for ph in med["parent"])
        print(line)
    print(f"stepping setup {setup_line(st)}; refine-advection l2_error {err['parent']:.6e} -> "
          f"{err['change']:.6e} (rel diff {err['rel_diff']:.1e})")
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
