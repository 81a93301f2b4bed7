"""Metric names, units and how each is computed from one repetition.

A repetition runs every command of a workload once.  End-to-end metrics come
from untraced repetitions, per-layer metrics from traced ones; each run
reports the median over its repetitions.
"""

from collections import defaultdict
from statistics import median

import numpy as np

from tracer import self_times

SETUP_SPANS = ("experiments.build_context", "experiments.make_rhs", "experiments.project_field")
LAYERS = ("geometry", "quadrature", "dg", "stabilization", "stepping", "experiments", "cli")
CLI_COMMANDS = ("consistency", "check-axioms", "convergence", "stability")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "dof_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> (unit, kind, span or figure name)
PER_LAYER = {
    "geometry.build_mesh_s": ("s", "total", "geometry.build_mesh"),
    "geometry.cut_cells": ("count", "note", "geometry.build_mesh"),
    "geometry.small_cells": ("count", "note", "geometry.classify_small_cells"),
    "quadrature.space_s": ("s", "total", "quadrature.space"),
    "quadrature.l2_project_s": ("s", "total", "quadrature.l2_project"),
    "quadrature.l2_norm_s": ("s", "total", "quadrature.l2_norm"),
    "quadrature.l2_norm_calls": ("count", "calls", "quadrature.l2_norm"),
    "quadrature.l2_error_s": ("s", "total", "quadrature.l2_error"),
    "quadrature.monomial_values_calls": ("count", "calls", "quadrature.monomial_values"),
    "quadrature.solve_mass_calls": ("count", "calls", "quadrature.solve_mass"),
    "dg.plan_s": ("s", "total", "dg.plan"),
    "dg.base_residual_ms.p50": ("ms", "p50", "dg.base_residual"),
    "dg.base_residual_ms.p99": ("ms", "p99", "dg.base_residual"),
    "dg.base_residual_calls": ("count", "calls", "dg.base_residual"),
    "dg.face_terms_calls": ("count", "calls", "dg.face_terms"),
    "dg.apply_mass_inverse_ms.p50": ("ms", "p50", "dg.apply_mass_inverse"),
    "stabilization.init_s": ("s", "total", "stabilization.init"),
    "stabilization.operator_build_s": ("s", "total", "stabilization.operator_build"),
    "stabilization.cell_residual_calls": ("count", "calls", "stabilization.cell_residual"),
    "stabilization.add_residual_ms.p50": ("ms", "p50", "stabilization.add_residual"),
    "stabilization.operator_entries": ("count", "note", "stabilization.operator_build"),
    "stepping.evolve_s": ("s", "total", "stepping.evolve"),
    "stepping.steps": ("count", "calls", "stepping.rk_step"),
    "stepping.rhs_calls": ("count", "calls", "stepping.rhs"),
    "stepping.rhs_ms.p50": ("ms", "p50", "stepping.rhs"),
    "stepping.rhs_ms.p99": ("ms", "p99", "stepping.rhs"),
    "experiments.build_context_s": ("s", "total", "experiments.build_context"),
    "experiments.make_rhs_s": ("s", "total", "experiments.make_rhs"),
    "experiments.project_field_s": ("s", "total", "experiments.project_field"),
    "experiments.check_axioms_on_cell_s": ("s", "total", "experiments.check_axioms_on_cell"),
    "experiments.run_consistency_s": ("s", "total", "experiments.run_consistency"),
    "experiments.l2_error": ("L2", "figure", "l2_error"),
    "experiments.observed_order": ("order", "figure", "observed_order"),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "self", _layer)
PER_LAYER["cli.main_s"] = ("s", "layer_total", "cli")
for _command in CLI_COMMANDS:
    PER_LAYER[f"cli.{_command}_s"] = ("s", "total", f"cli.{_command}")
PER_LAYER.update({
    "trace.wall_s": ("s", "trace", None),
    "trace.untraced_wall_s": ("s", "trace", None),
    "trace.overhead_s": ("s", "trace", None),
    "trace.overhead_pct": ("%", "trace", None),
    "trace.unaccounted_s": ("s", "trace", None),
    "trace.spans": ("count", "trace", None),
})


def end_to_end_values(spans, wall_ns):
    """wall_s, setup_s and dof_steps_per_s of one untraced repetition.

    dof_steps_per_s is the sum of dofs x steps over every ``evolve`` call,
    divided by the time spent inside them.
    """
    setup_ns = evolve_ns = dof_steps = 0
    for name, start, end, _, note in spans:
        if name in SETUP_SPANS:
            setup_ns += end - start
        elif name == "stepping.evolve":
            evolve_ns += end - start
            dof_steps += note
    return {"wall_s": wall_ns / 1e9, "setup_s": setup_ns / 1e9,
            "dof_steps_per_s": dof_steps / (evolve_ns / 1e9) if evolve_ns else 0.0}


def layer_values(spans, wall_ns, figures):
    """Every non-``trace`` per-layer metric of one traced repetition."""
    durations = defaultdict(list)
    notes = defaultdict(float)
    layer_self = defaultdict(int)
    for (name, start, end, _, note), own in zip(spans, self_times(spans)):
        durations[name].append(end - start)
        if note is not None:
            notes[name] += note
        layer_self[name.partition(".")[0]] += own
    values = {}
    for metric, (_, kind, key) in PER_LAYER.items():
        d = durations.get(key, [])
        if kind == "total":
            v = sum(d) / 1e9
        elif kind == "calls":
            v = len(d)
        elif kind == "note":
            v = notes.get(key, 0.0)
        elif kind in ("p50", "p99"):
            v = float(np.percentile(d, 50 if kind == "p50" else 99)) / 1e6 if d else 0.0
        elif kind == "figure":
            v = figures.get(key, 0.0)
        elif kind == "self":
            v = layer_self.get(key, 0) / 1e9
        elif kind == "layer_total":
            v = sum(sum(dd) for name, dd in durations.items() if name.startswith(key + ".")) / 1e9
        else:
            continue
        values[metric] = v
    values["trace.wall_s"] = wall_ns / 1e9
    values["trace.unaccounted_s"] = (wall_ns - sum(layer_self.values())) / 1e9
    values["trace.spans"] = len(spans)
    return values


def medians(rows):
    """Median of each key over a list of dicts with equal keys."""
    return {key: median(row[key] for row in rows) for key in rows[0]}
