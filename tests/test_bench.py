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


def test_traced_stability_run_hits_every_benchmark_entry_point(tmp_path):
    # the benchmark's tracer wraps these entry points by name and reads its
    # end-to-end metrics off their spans; a traced stability run of 5 RK3
    # steps must find them all and call the right-hand side once per stage
    import importlib.util

    from cutdg import cli
    from cutdg.config import serialize_config
    from cutdg.experiments import build_context, ramp_config

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", _BENCH.parent / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cfg = ramp_config("acoustics", 1, 1e-2, nx=8, steps=5, out=str(tmp_path))
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
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
