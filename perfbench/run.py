"""Benchmark of the cutdg CLI: one workload per run, results as one JSON line.

    python3 perfbench/run.py --workload stepping --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

The run calls ``cutdg.cli.main`` in-process on configs generated from the
seed, repeats the workload until ``--seconds`` is used up, checks every
command's output and prints the medians over repetitions as the last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics.
``--workload all`` runs each workload in its own process and prints a table.
See README.md in this directory.
"""

import argparse
import gzip
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("stepping", "setup-checks")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: smallest inputs, for testing the benchmark itself")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cli_threads": 1,
    }


class Runner:
    """Runs one workload's commands in repetitions and checks their output."""

    def __init__(self, name, seed, size, work_dir):
        import workloads
        from cutdg import cli

        self.cli = cli
        self.workloads = workloads
        self.seed = seed
        self.out_dir = str(work_dir / "out")
        self.commands = workloads.generate(name, seed, size, str(ROOT / "configs"),
                                           str(work_dir / "configs"))
        self.attempted = 0
        self.failures = []
        self.missing = set()

    def rep(self, points, wrap_rhs=False):
        """One repetition: (wall ns, spans, figures)."""
        from tracer import Tracer

        wall = 0
        figures = {}
        with Tracer(points, wrap_rhs) as tracer:
            for cmd in self.commands:
                buf = io.StringIO()
                code = None
                t0 = time.perf_counter_ns()
                try:
                    with redirect_stdout(buf):
                        code = tracer.top_span(f"cli.{cmd.command}", self.cli.main,
                                               cmd.argv(self.out_dir, self.seed))
                except Exception:  # counted as a failed command, never retried
                    traceback.print_exc(file=sys.stderr)
                wall += time.perf_counter_ns() - t0
                self.attempted += 1
                problems, figs = self.workloads.check(cmd, code, buf.getvalue())
                figures.update(figs)
                if problems:
                    self.failures.append(f"{cmd.command} {cmd.path}: {'; '.join(problems)}")
        self.missing.update(tracer.missing)
        return wall, tracer.spans, figures


def measure(args, work_dir):
    import metrics
    import tracer

    # fill import-time and per-degree caches once, as a resident user would;
    # the warm-up's commands are checked and counted like the measured ones
    warmup = Runner(args.workload, args.seed, "smoke", work_dir / "warmup")
    warmup.rep(tracer.SETUP_POINTS)
    runner = Runner(args.workload, args.seed, args.size, work_dir)
    runner.attempted, runner.failures = warmup.attempted, warmup.failures

    untraced, traced, all_spans = [], [], []
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        if args.trace:
            # alternate which mode goes first, so drift hits both alike
            order = (False, True) if len(traced) % 2 == 0 else (True, False)
            for traced_rep in order:
                points = tracer.LAYER_POINTS if traced_rep else tracer.SETUP_POINTS
                wall, spans, figs = runner.rep(points, wrap_rhs=traced_rep)
                if traced_rep:
                    traced.append(metrics.layer_values(spans, wall, figs))
                    all_spans.append(spans)
                else:
                    untraced.append(wall / 1e9)
        else:
            wall, spans, _ = runner.rep(tracer.SETUP_POINTS)
            untraced.append(metrics.end_to_end_values(spans, wall))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(durations) > args.seconds:
            break

    if args.trace:
        values = metrics.medians(traced)
        base = median(untraced)
        values["trace.untraced_wall_s"] = base
        values["trace.overhead_s"] = values["trace.wall_s"] - base
        values["trace.overhead_pct"] = 100.0 * values["trace.overhead_s"] / base
        units = {name: spec[0] for name, spec in metrics.PER_LAYER.items()}
        write_spans(work_dir / "spans.csv.gz", all_spans)
    else:
        values = metrics.medians(untraced)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = metrics.END_TO_END
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(),
        "configs": {c.path: c.digest for c in runner.commands},
        "repetitions": len(durations), "untraced": untraced, "traced": traced,
        "failures": runner.failures,
        "missing_entry_points": sorted(runner.missing),
    }
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = result
    with open(work_dir / "record.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def write_spans(path, reps):
    """All traced repetitions' spans as CSV: rep,index,name,start_ns,end_ns,parent,note."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("rep,index,name,start_ns,end_ns,parent,note\n")
        for r, spans in enumerate(reps):
            for i, (name, start, end, parent, note) in enumerate(spans):
                fh.write(f"{r},{i},{name},{start},{end},{parent},{'' if note is None else note}\n")


def work_dir_for(workload, seed, trace, size):
    """Where a run keeps its configs, command outputs, record and spans."""
    return OUT_ROOT / f"{workload}-seed{seed}-trace{trace}-{size}"


def run_one(args):
    sys.path.insert(0, str(ROOT / "src"))
    work_dir = work_dir_for(args.workload, args.seed, args.trace, args.size)
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    record = measure(args, work_dir)
    env = record["environment"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={record['repetitions']} record={work_dir / 'record.json'}")
    print(f"# nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas']} threads={env['thread_env']}")
    for path, digest in record["configs"].items():
        print(f"# config {os.path.basename(path)} sha256={digest}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps(record["result"]))
    return 0


def run_all(args):
    """Each workload in its own worker process; a table, then one JSON object."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {name}: worker exited with code {proc.returncode}")
            results[name] = None
            continue
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        if res is None:
            continue
        print(f"## {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} fail_rate={res['failed'] / res['attempted']:.3g}")
        for metric, mv in res["metrics"].items():
            print(f"   {metric:40s} {mv['value']:>16.6g} {mv['unit']}")
    print(json.dumps(results))
    return 0 if all(r is not None and r["correct"] for r in results.values()) else 1


def main(argv=None):
    args = parse_args(argv)
    # before numpy is imported anywhere in this process or its workers
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "cutdg" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no cutdg sources (src/cutdg) and configs/ under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
