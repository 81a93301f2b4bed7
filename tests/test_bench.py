import subprocess
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("script", sorted(p.name for p in _BENCH.glob("*.py")))
def test_bench_script_loads(script):
    # a script whose import was deleted out from under it fails here
    run = subprocess.run([sys.executable, str(_BENCH / script), "--help"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert "usage:" in run.stdout


def _tracer():
    """The benchmark's tracer module, loaded from its file without importing
    the benchmark package."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", _BENCH.parent / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _stability_config(tmp_path):
    from cutdg.config import serialize_config
    from cutdg.experiments import ramp_config

    cfg = ramp_config("acoustics", 1, 1e-2, nx=8, steps=5, out=str(tmp_path))
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
    return cfg, path


def test_traced_stability_run_hits_every_benchmark_entry_point(tmp_path):
    # the benchmark's tracer wraps these entry points by name and reads its
    # end-to-end metrics off their spans; a traced stability run of 5 RK3
    # steps must find them all and call the right-hand side once per stage
    from cutdg import cli
    from cutdg.experiments import build_context

    tracer = _tracer()
    cfg, path = _stability_config(tmp_path)
    ctx = build_context(cfg)
    dofs = ctx.space.dofs(ctx.spec.m)
    with tracer.Tracer(tracer.SETUP_POINTS, wrap_rhs=True) as t:
        assert cli.main(["stability", "--config", str(path)]) == 0
    assert t.missing == []
    names = [span[0] for span in t.spans]
    for name in ("experiments.build_context", "experiments.make_rhs",
                 "experiments.project_field", "stepping.evolve"):
        assert names.count(name) == 1, name
    assert names.count(tracer.RHS_SPAN) == 15
    assert [span[4] for span in t.spans if span[0] == "stepping.evolve"] == [dofs * 5]


# the layer entry points the tracer names but the package no longer has;
# their per-layer metrics read 0
_STALE_LAYER_POINTS = [
    "cutdg.quadrature:Space.solve_mass",
    "cutdg.dg:AssemblyPlan.__init__",
    "cutdg.dg:AssemblyPlan.base_residual",
    "cutdg.dg:AssemblyPlan.apply_mass_inverse",
    "cutdg.dg.face_terms",
    "cutdg.stabilization:WaveStabilization.cell_residual",
    "cutdg.stabilization:AdvectionStabilization.cell_residual",
    "cutdg.stabilization:StabilizationOperator.__init__",
    "cutdg.stabilization:StabilizationOperator.add_residual",
]


def test_traced_stability_run_under_every_layer_point(tmp_path):
    # the benchmark's per-layer run wraps every layer entry point, notes
    # included (the mesh's cut-cell count); the run must still pass, and
    # the entry points the tracer cannot find are exactly the stale ones
    from cutdg import cli

    tracer = _tracer()
    _, path = _stability_config(tmp_path)
    with tracer.Tracer(tracer.LAYER_POINTS, wrap_rhs=True) as t:
        assert cli.main(["stability", "--config", str(path)]) == 0
    assert t.missing == _STALE_LAYER_POINTS
    assert tracer.nesting_errors(t.spans) == []
    names = [span[0] for span in t.spans]
    assert names.count(tracer.RHS_SPAN) == 15
    assert [span[4] for span in t.spans if span[0] == "geometry.build_mesh"][0] > 0


_AB_SMOKE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import rhs_ab, setup_ab

trees = rhs_ab.load_trees(None, sys.argv[2])
tables = setup_ab.compare(trees, "ramp-acoustics-r1")
cases = {side: rhs_ab.Case(trees[side], "sliver-acoustics") for side in rhs_ab.SIDES}
out = {side: case.op(case.u) for side, case in cases.items()}
for case in cases.values():
    case.time_evolve()
parent, change = (cases[side].result for side in rhs_ab.SIDES)
print(json.dumps({
    "tables": len(tables),
    "unequal": sorted(name for name, t in tables.items() if not t["equal"]),
    "op(u)": bool(np.array_equal(out["parent"], out["change"])),
    "final": bool(np.array_equal(parent.final.coeffs, change.final.coeffs)),
    "l2_trace": bool(np.array_equal(parent.l2_trace, change.l2_trace)),
    "steps": [parent.steps, change.steps],
}))
"""


def test_ab_scripts_agree_on_one_tree(tmp_path):
    # both A/B scripts, run with this source tree on both sides, must find
    # every table, op(u) and evolve result equal; each loads the two trees
    # into one interpreter by rewriting sys.modules, so it runs in its own
    import json

    run = subprocess.run([sys.executable, "-c", _AB_SMOKE, str(_BENCH), str(_BENCH.parent / "src")],
                         capture_output=True, text=True, timeout=300, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["tables"] > 20 and got["unequal"] == []
    assert got["op(u)"] and got["final"] and got["l2_trace"]
    assert got["steps"] == [200, 200]
