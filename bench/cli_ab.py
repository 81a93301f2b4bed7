"""Run the CLI of two source trees on the same configs and compare what each run leaves, byte for byte.

    python3 bench/cli_ab.py [--rev HEAD^ | --parent-src <dir>] --out bench/BENCH_<n>_cli.json

The two trees are those of ``bench/rhs_ab.py``: the git revision ``--rev``
of this repository, written out with ``git archive`` (or any ``cutdg``
source directory given as ``--parent-src``), and this checkout's ``src``.

The runs are every command, and ``stability --no-dod``, on each config in
``configs/`` and on the four sliver-ramp configs of
``tests/test_cli.py::test_failed_time_run_lines``, which blow up at the
background step (an unstabilized acoustic run, its stabilized twin whose
``--no-dod`` contrast blows up, an unstabilized advection run and a
one-level convergence study of it).  A command that does not apply to a
config (``stability`` on an advection config, say) is run all the same: its
configuration error is output to compare too.

Each run is ``python3 -m cutdg <command> --config <cfg> --out out [flags]``
in a fresh working directory of its own, with ``PYTHONPATH`` set to the
side's ``src`` and BLAS threads pinned to 1, the two sides one after the
other.  Recorded per run are both exit codes and whether the exit code,
stdout, stderr and each file written into ``out`` are byte-identical (a file
that only one side wrote counts as different).  The script exits 1 when any
run differs.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import rhs_ab

ROOT = rhs_ab.ROOT
SIDES = rhs_ab.SIDES
RUNS = [(command, []) for command in ("consistency", "check-axioms", "convergence", "evolve",
                                      "stability", "mesh-info")] + [("stability", ["--no-dod"])]


def failure_configs():
    """{name: config text} of the four failing time runs, written by this
    checkout's ``ramp_config`` and ``serialize_config``."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from cutdg.config import serialize_config
        from cutdg.experiments import ramp_config
    finally:
        sys.path.remove(str(ROOT / "src"))
    cfgs = {
        "ramp-acoustics-stabilized": ramp_config("acoustics", 1, 1e-6, steps=200),
        "ramp-acoustics-nodod": ramp_config("acoustics", 1, 1e-6, steps=200, dod=False),
        "ramp-advection-nodod": ramp_config("advection", 1, 1e-6, t_final=0.5, dod=False),
        "ramp-convergence-nodod": ramp_config("advection", 1, 1e-6, t_final=0.5, dod=False,
                                              initial="windowed-sine-advect", refinements=(16,)),
    }
    return {f"{name}.cfg": serialize_config(cfg) for name, cfg in cfgs.items()}


def run_cli(src, argv, work):
    """(exit code, stdout, stderr, {file name: bytes} of ``out``) of one run
    of the CLI of source directory ``src`` in the new directory ``work``."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-m", "cutdg"] + argv, cwd=work, env=env,
                         capture_output=True, timeout=600)
    out = work / "out"
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.is_dir() else {}
    return run.returncode, run.stdout, run.stderr, files


def compare(sources, command, flags, config, work):
    """The record of one run on both sides: exit codes and what is identical."""
    got = {side: run_cli(sources[side], [command, "--config", str(config), "--out", "out"]
                         + flags, work / side)
           for side in SIDES}
    (p_rc, p_out, p_err, p_files), (c_rc, c_out, c_err, c_files) = (got[s] for s in SIDES)
    record = {
        "command": command, "flags": flags, "config": config.name,
        "exit": {"parent": p_rc, "change": c_rc}, "exit_identical": p_rc == c_rc,
        "stdout_identical": p_out == c_out, "stderr_identical": p_err == c_err,
        "files_identical": {name: p_files.get(name) == c_files.get(name)
                            for name in sorted(set(p_files) | set(c_files))},
    }
    record["identical"] = (record["exit_identical"] and record["stdout_identical"]
                           and record["stderr_identical"]
                           and all(record["files_identical"].values()))
    return record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rev", default="HEAD^", help="git revision of the parent tree")
    p.add_argument("--parent-src", default=None, help="a cutdg source directory instead of --rev")
    p.add_argument("--out", required=True, help="the JSON record to write")
    args = p.parse_args(argv)

    runs = []
    with rhs_ab.source_dirs(args.rev, args.parent_src) as sources, \
            tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = sorted((ROOT / "configs").glob("*.cfg"))
        for name, text in failure_configs().items():
            (tmp / name).write_text(text)
            configs.append(tmp / name)
        for config in configs:
            for command, flags in RUNS:
                work = tmp / f"run{len(runs)}"
                runs.append(compare(sources, command, flags, config, work))
                rec = runs[-1]
                print(f"{'same' if rec['identical'] else 'DIFF'} exit {rec['exit']['change']}",
                      *[command] + flags, config.name, *rec["files_identical"])

    same = sum(rec["identical"] for rec in runs)
    record = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "rev": args.rev if args.parent_src is None else None,
              "identical": same, "total": len(runs), "runs": runs}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"{same}/{len(runs)} runs byte-identical")
    return 0 if same == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main())
