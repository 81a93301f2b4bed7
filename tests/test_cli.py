import re

import pytest

from cutdg.cli import main
from cutdg.config import serialize_config
from cutdg.experiments import line_config, ramp_config


def _write_config(tmp_path, cfg, **overrides):
    for key, value in overrides.items():
        setattr(cfg, key, value)
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg))
    return str(path)


def test_mesh_info_command(tmp_path, capsys):
    cfg = ramp_config("acoustics", 1, 1e-2, out=str(tmp_path))
    path = _write_config(tmp_path, cfg)
    rc = main(["mesh-info", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cells = " in out
    assert (tmp_path / "mesh.txt").exists()


def test_mesh_info_builds_no_penalty(tmp_path, capsys):
    # corpus line 0 at nx=16 has a small cell in a box corner, which the
    # acoustic penalty rejects; mesh-info describes the mesh all the same
    cfg = line_config("acoustics", 1, 0.6095693498571635, 0.17140402119374165,
                      out=str(tmp_path))
    path = _write_config(tmp_path, cfg)
    assert main(["mesh-info", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "cells = " in out and "stabilized = " in out
    assert (tmp_path / "mesh.txt").exists()
    assert main(["stability", "--config", path]) == 1
    assert "are both boundary faces" in capsys.readouterr().err


def test_invalid_config_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("equation = advection\nnot_a_key = 1\n")
    rc = main(["mesh-info", "--config", str(path)])
    assert rc == 2
    assert "not_a_key" in capsys.readouterr().err


@pytest.mark.parametrize("command, equation, initial", [
    ("stability", "acoustics", "poly:1,x"),
    ("stability", "acoustics", "pressure-poly:nan"),
    ("evolve", "advection", "poly:inf"),
    ("evolve", "advection", "bump-advect:0.5,0.5,0"),
    ("evolve", "advection", "bump-advect:nan,0.5,0.1"),
    ("evolve", "advection", "bump-advect:0.5,0.5,-0.1"),
])
def test_bad_initial_field_exit_code(tmp_path, capsys, command, equation, initial):
    # an unparsable or non-finite value, or a bump radius <= 0, is a
    # configuration error naming the field, before any step
    cfg = ramp_config(equation, 1, 1e-2, nx=8, out=str(tmp_path))
    path = _write_config(tmp_path, cfg, initial=initial)
    assert main([command, "--config", path]) == 2
    captured = capsys.readouterr()
    assert repr(initial) in captured.err and captured.out == ""
    assert not (tmp_path / "evolve_trace.csv").exists()


@pytest.mark.parametrize("line, key", [("sound_speed = nan", "sound_speed"),
                                       ("dissipation = rusanov", "dissipation"),
                                       ("ny = 16", "ny"),
                                       ("threads = 1", "threads"),
                                       ("refinements = 0,4", "refinements")])
def test_rejected_config_line_exit_code(tmp_path, capsys, line, key):
    # a non-finite value, a removed key (dissipation; ny, which box and nx
    # fix; threads, which changed nothing) or a refinement level below one
    # stops before any work
    cfg = ramp_config("acoustics", 1, 1e-2, out=str(tmp_path))
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg) + line + "\n")
    assert main(["stability", "--config", str(path)]) == 2
    assert key in capsys.readouterr().err


def test_consistency_command(tmp_path, capsys):
    cfg = ramp_config("advection", 1, 1e-5, n_polynomials=3, out=str(tmp_path))
    path = _write_config(tmp_path, cfg)
    rc = main(["consistency", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status = pass" in out
    assert "seed=42" in out


def test_check_axioms_command(tmp_path, capsys):
    cfg = ramp_config("acoustics", 1, 1e-2, n_triples=5, out=str(tmp_path))
    path = _write_config(tmp_path, cfg)
    rc = main(["check-axioms", "--config", path, "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "balance" in out


@pytest.mark.parametrize("command, key", [
    ("check-axioms", "n_triples"),
    ("consistency", "n_polynomials"),
])
@pytest.mark.parametrize("value", [0, -1])
def test_check_over_nothing_is_a_configuration_error(tmp_path, capsys, command, key, value):
    # without the check, 0 passed vacuously and n_triples = -1 crashed
    cfg = ramp_config("acoustics", 1, 1e-2, out=str(tmp_path))
    path = _write_config(tmp_path, cfg, **{key: value})
    rc = main([command, "--config", path])
    captured = capsys.readouterr()
    assert rc == 2
    assert key in captured.err
    assert "status" not in captured.out


def test_stability_command(tmp_path, capsys):
    cfg = ramp_config("acoustics", 1, 1e-6, steps=30, out=str(tmp_path))
    path = _write_config(tmp_path, cfg)
    rc = main(["stability", "--config", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "growth = " in out


def test_evolve_command_writes_trace(tmp_path, capsys):
    cfg = ramp_config("advection", 1, 1e-2, t_final=0.05,
                      initial="bump-advect:0.55,0.55,0.15", out=str(tmp_path))
    path = _write_config(tmp_path, cfg)
    rc = main(["evolve", "--config", path])
    assert rc == 0
    trace = (tmp_path / "evolve_trace.csv").read_text()
    assert trace.splitlines()[0] == "step,t,l2,mass"


def test_convergence_command_deterministic(tmp_path):
    from cutdg.config import RunConfig
    from cutdg.geometry import halfplane_from_line

    hp = halfplane_from_line(0.75, 0.005)
    cfg = RunConfig(
        equation="advection", degree=0, nx=8,
        constraints=[(hp.a, hp.b, hp.c)], beta=(1.0, 0.75),
        alpha0=0.25, initial="windowed-sine-advect",
        refinements=(8, 16), projection_only=True, out=str(tmp_path),
    ).validate()
    path = _write_config(tmp_path, cfg)
    rc = main(["convergence", "--config", path])
    assert rc == 0
    first = (tmp_path / "convergence.csv").read_bytes()
    rc = main(["convergence", "--config", path])
    assert rc == 0
    assert (tmp_path / "convergence.csv").read_bytes() == first


def test_threads_flag_accepted(tmp_path, capsys):
    cfg = ramp_config("acoustics", 1, 1e-2, out=str(tmp_path))
    path = _write_config(tmp_path, cfg)
    assert main(["mesh-info", "--config", path, "--threads", "4"]) == 0
    capsys.readouterr()
    # accepted and ignored, but not below one
    assert main(["mesh-info", "--config", path, "--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["consistency", "check-axioms"])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_is_a_configuration_error(tmp_path, capsys, command, where):
    # numpy's generators take no negative seed: the checks raised its
    # ValueError out of main, the other commands ran without complaint
    cfg = ramp_config("acoustics", 1, 1e-2, nx=8, n_polynomials=1, n_triples=1,
                      out=str(tmp_path))
    if where == "config":
        path, argv = _write_config(tmp_path, cfg, seed=-3), []
    else:
        path, argv = _write_config(tmp_path, cfg), ["--seed", "-1"]
    assert main([command, "--config", path] + argv) == 2
    captured = capsys.readouterr()
    assert "'seed'" in captured.err and captured.out == ""


@pytest.mark.parametrize("nx, refinements, key", [(16, (16, 24, 33), "refinements"),
                                                  (15, (16,), "nx")])
def test_non_square_level_stops_before_any_level_runs(tmp_path, capsys, monkeypatch,
                                                      nx, refinements, key):
    # on a 1 x 0.5 box, 33 or 15 cells across give no square cells: the
    # study stops naming the key, before it builds any level
    from cutdg import experiments
    from cutdg.config import RunConfig

    built = []
    monkeypatch.setattr(experiments, "build_context", built.append)
    cfg = RunConfig(box=(0.0, 0.0, 1.0, 0.5), nx=nx, refinements=refinements,
                    projection_only=True, out=str(tmp_path))
    path = _write_config(tmp_path, cfg)
    assert main(["convergence", "--config", path]) == 2
    captured = capsys.readouterr()
    assert f"key {key!r}" in captured.err and "cells must be square" in captured.err
    assert built == []
    assert not (tmp_path / "convergence.csv").exists()


@pytest.mark.parametrize("refinements", ["16,16", "16,32,32", "32,16"])
def test_non_increasing_refinements_stop_before_any_level_runs(tmp_path, capsys, monkeypatch,
                                                               refinements):
    # equal levels gave an observed order of nan, and a coarsening an order
    # of the wrong sign's meaning; the study stops naming the key instead
    from cutdg import experiments

    built = []
    monkeypatch.setattr(experiments, "build_context", built.append)
    cfg = ramp_config("advection", 1, 1e-2, projection_only=True, out=str(tmp_path))
    path = tmp_path / "run.cfg"
    path.write_text(serialize_config(cfg) + f"refinements = {refinements}\n")
    assert main(["convergence", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "refinements" in err
    assert built == []


@pytest.mark.parametrize("config, out", [("missing.cfg", None), ("a_dir", None),
                                         ("latin1.cfg", None), ("run.cfg", "a_file"),
                                         ("run.cfg", "a_file/sub")])
def test_unusable_path_is_a_configuration_error(tmp_path, capsys, config, out):
    # a config that cannot be read as text, or an output directory that
    # cannot be made, stops naming the path instead of in a traceback
    _write_config(tmp_path, ramp_config("acoustics", 1, 1e-2, nx=8))
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "latin1.cfg").write_bytes("# caf\xe9\nequation = acoustics\n".encode("latin-1"))
    (tmp_path / "a_file").write_text("")
    argv = ["mesh-info", "--config", str(tmp_path / config)]
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert repr(str(tmp_path / (out or config))) in captured.err and captured.out == ""


@pytest.mark.parametrize("command, flags, cfg, rc, expected", [
    ("stability", ["--no-dod"], ramp_config("acoustics", 1, 1e-6, steps=200), 0,
     ["growth_without_stabilization = unstable"]),
    ("stability", [], ramp_config("acoustics", 1, 1e-6, steps=200, dod=False), 1,
     ["growth = unstable", r"failed_at_step = \d+", "status = FAIL"]),
    ("evolve", [], ramp_config("advection", 1, 1e-6, t_final=0.5, dod=False), 1,
     ["integration failed at step 25"]),
    ("convergence", [], ramp_config("advection", 1, 1e-6, t_final=0.5, dod=False,
                                    initial="windowed-sine-advect", refinements=(16,)), 1,
     [r"advection-r1-nx16,16,0\.0625,\d+,diverged,"]),
])
def test_failed_time_run_lines(tmp_path, capsys, command, flags, cfg, rc, expected):
    # without the penalty the sliver ramp blows up at the background step:
    # each time run prints its failure on a line of its own and exits 1,
    # except the informational contrast of a stabilized run
    path = _write_config(tmp_path, cfg, out=str(tmp_path))
    assert main([command, "--config", path] + flags) == rc
    lines = capsys.readouterr().out.splitlines()
    for pattern in expected:
        assert any(re.fullmatch(pattern, line) for line in lines), (pattern, lines)
    assert not (tmp_path / "evolve_trace.csv").exists()
