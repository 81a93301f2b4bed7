"""In-memory spans around cutdg's public entry points, installed from outside.

The tracer never edits the package: it replaces module attributes and class
methods with timing wrappers for the duration of a ``with`` block and puts
the originals back afterwards.  A function imported by value into several
modules (``monomial_values`` lives in ``quadrature`` but is imported into
``operators``, ``stabilization`` and ``experiments``) is replaced in every
module that holds it, so no call goes uncounted.

A span is ``[name, start_ns, end_ns, parent, note]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``note`` an optional number the
entry point reports about its result (work done, cells found, ...).
Times are integer nanoseconds, so self times are exact differences.
"""

import functools
import sys
import time

# (owner, attribute, span name, note). ``owner`` is "module" for a function
# or "module:Class" for a method.  A note takes (args, result) and returns a
# number recorded on the span.


def _cut_cells(args, mesh):
    return sum(1 for c in mesh.cells if c.volume_fraction < 1.0 - 1e-12)


def _count(args, result):
    return len(result)


def _operator_entries(args, result):
    return sum(entry[1].size for entry in args[0].entries)


def _dof_steps(args, result):
    return result.final.coeffs.size * result.steps


SETUP_POINTS = (
    ("cutdg.experiments", "build_context", "experiments.build_context", None),
    ("cutdg.experiments", "make_rhs", "experiments.make_rhs", None),
    ("cutdg.experiments", "project_field", "experiments.project_field", None),
    ("cutdg.stepping", "evolve", "stepping.evolve", _dof_steps),
)

LAYER_POINTS = SETUP_POINTS + (
    ("cutdg.geometry", "build_mesh", "geometry.build_mesh", _cut_cells),
    ("cutdg.geometry", "classify_small_cells", "geometry.classify_small_cells", _count),
    ("cutdg.quadrature:Space", "__init__", "quadrature.space", None),
    ("cutdg.quadrature:Space", "l2_project", "quadrature.l2_project", None),
    ("cutdg.quadrature:Space", "l2_norm", "quadrature.l2_norm", None),
    ("cutdg.quadrature:Space", "l2_error", "quadrature.l2_error", None),
    ("cutdg.quadrature:Space", "solve_mass", "quadrature.solve_mass", None),
    ("cutdg.quadrature", "monomial_values", "quadrature.monomial_values", None),
    ("cutdg.dg:AssemblyPlan", "__init__", "dg.plan", None),
    ("cutdg.dg:AssemblyPlan", "base_residual", "dg.base_residual", None),
    ("cutdg.dg:AssemblyPlan", "apply_mass_inverse", "dg.apply_mass_inverse", None),
    ("cutdg.dg", "face_terms", "dg.face_terms", None),
    ("cutdg.stabilization:WaveStabilization", "__init__", "stabilization.init", None),
    ("cutdg.stabilization:AdvectionStabilization", "__init__", "stabilization.init", None),
    ("cutdg.stabilization:WaveStabilization", "cell_residual",
     "stabilization.cell_residual", None),
    ("cutdg.stabilization:AdvectionStabilization", "cell_residual",
     "stabilization.cell_residual", None),
    ("cutdg.stabilization:StabilizationOperator", "__init__",
     "stabilization.operator_build", _operator_entries),
    ("cutdg.stabilization:StabilizationOperator", "add_residual",
     "stabilization.add_residual", None),
    ("cutdg.stepping", "rk_step", "stepping.rk_step", None),
    ("cutdg.experiments", "check_axioms_on_cell", "experiments.check_axioms_on_cell", None),
    ("cutdg.experiments", "run_consistency", "experiments.run_consistency", None),
)

# make_rhs returns the closure that stepping calls once per stage; in a traced
# run that closure is wrapped too, as the stepping layer's callback.
RHS_SPAN = "stepping.rhs"


class Tracer:
    """Records spans while installed; one instance per measured repetition."""

    def __init__(self, points, wrap_rhs=False):
        self.points = points
        self.wrap_rhs = wrap_rhs
        self.spans = []
        self.missing = []
        self._stack = [-1]
        self._patched = []

    def wrap(self, name, fn, note=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1], None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        return wrapper

    def _rhs_factory(self, make_rhs):
        @functools.wraps(make_rhs)
        def factory(*args, **kwargs):
            return self.wrap(RHS_SPAN, make_rhs(*args, **kwargs))

        return factory

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cutdg" or n.startswith("cutdg.")) and m is not None]
        for owner, attr, name, note in self.points:
            module_name, _, cls_name = owner.partition(":")
            holder = sys.modules.get(module_name)
            if cls_name:
                holder = getattr(holder, cls_name, None)
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            wrapped = original
            if self.wrap_rhs and name == "experiments.make_rhs":
                wrapped = self._rhs_factory(original)
            wrapped = self.wrap(name, wrapped, note)
            if cls_name:
                self._patch(holder, attr, original, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)
        return self

    def _patch(self, holder, attr, original, wrapped):
        self._patched.append((holder, attr, original))
        setattr(holder, attr, wrapped)

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()
        return False

    def top_span(self, name, fn, *args):
        """Run ``fn(*args)`` inside a top-level span named ``name``."""
        return self.wrap(name, fn)(*args)


def self_times(spans):
    """Per-span self time in ns: duration minus the durations of its children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_errors(spans):
    """Descriptions of every span that does not nest inside its parent."""
    errors = []
    own = self_times(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} {name} ends before it starts")
        if parent >= i:
            errors.append(f"span {i} {name} has parent {parent} recorded after it")
        elif parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                errors.append(f"span {i} {name} leaves its parent {parent} {p[0]}")
        elif parent != -1:
            errors.append(f"span {i} {name} has invalid parent {parent}")
        if own[i] < 0:
            errors.append(f"span {i} {name} has negative self time {own[i]} ns")
    return errors
