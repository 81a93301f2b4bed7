"""Workload generator and result checks for the cutdg benchmark.

Each workload is a list of CLI commands.  The generator writes every
command's configuration from a shipped config or from ``ramp_config``, with
the workload seed applied, in the canonical ``serialize_config`` form; the
program only ever sees those files and the ``--seed`` flag.  The checks
re-read each command's own output and apply the benchmark's tolerances, so a
command that loosened its own pass criterion would still be caught.
"""

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from cutdg.config import load_config, serialize_config
from cutdg.experiments import ramp_config

CONSISTENCY_TOL = 1e-10
AXIOM_TOL = 1e-12
AXIOMS = ("symmetry", "linearity", "balance", "face_consistency", "volume_consistency")


# A workload runs its parts one after the other.  Two workloads of two parts
# each, rather than four of one, let every run last long enough to average
# over the machine's speed drift while a full evaluation (4 + 22 runs per
# workload) still fits its time limit.
WORKLOADS = {
    "stepping": ("sliver-acoustics", "refine-advection"),
    "setup-checks": ("fine-acoustics", "checks"),
}

# Sizes per part: "full" is what the benchmark measures, "smoke" the smallest
# run that still goes through every command and check.  refine-advection must
# stay as accurate at its finest level as the seed code was, within 25%:
# l2_ceiling is 1.25 times the seed code's error there (9.18e-6 full, 7.66e-5
# smoke; the inputs of this part do not depend on the seed).
SIZES = {
    "sliver-acoustics": {"full": {"steps": 200}, "smoke": {"steps": 3}},
    "refine-advection": {"full": {"refinements": (16, 32, 64), "t_final": 0.05,
                                  "l2_ceiling": 1.25 * 9.18e-6},
                         "smoke": {"refinements": (8, 16, 32), "t_final": 0.01,
                                   "l2_ceiling": 1.25 * 7.66e-5}},
    "fine-acoustics": {"full": {"nx": 128, "steps": 2}, "smoke": {"nx": 32, "steps": 1}},
    "checks": {"full": {"n_polynomials": 20, "n_triples": 50},
               "smoke": {"n_polynomials": 2, "n_triples": 2}},
}


@dataclass
class Command:
    command: str
    config: object
    path: str
    digest: str
    l2_ceiling: float = None

    def argv(self, out_dir, seed):
        return [self.command, "--config", self.path, "--out", out_dir,
                "--seed", str(seed), "--threads", "1"]


def _seeded_pressure(seed):
    """Quadratic pressure field with seeded coefficients, zero velocity."""
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=6)
    return "pressure-poly:" + ",".join(f"{c:.17g}" for c in coeffs)


def _part(name, seed, size, configs_dir):
    """(command, config) pairs of one workload part, before they are written out."""
    p = SIZES[name][size]

    def shipped(file_name):
        return load_config(os.path.join(configs_dir, file_name))

    if name == "sliver-acoustics":
        cfg = shipped("stability-sliver.cfg")
        cfg.steps = p["steps"]
        cfg.initial = _seeded_pressure(seed)
        plan = [("stability", cfg)]
    elif name == "refine-advection":
        cfg = shipped("convergence-advection.cfg")
        cfg.degree = 2
        cfg.refinements = p["refinements"]
        cfg.t_final = p["t_final"]
        cfg.initial = "windowed-sine-advect"
        plan = [("convergence", cfg)]
    elif name == "fine-acoustics":
        cfg = ramp_config("acoustics", 1, 1e-6, nx=p["nx"], steps=p["steps"],
                          initial=_seeded_pressure(seed))
        plan = [("stability", cfg)]
    elif name == "checks":
        plan = []
        for command, file_name in (("consistency", "consistency-advection.cfg"),
                                   ("consistency", "consistency-acoustics.cfg"),
                                   ("check-axioms", "consistency-acoustics.cfg")):
            cfg = shipped(file_name)
            cfg.n_polynomials = p["n_polynomials"]
            cfg.n_triples = p["n_triples"]
            plan.append((command, cfg))
    else:
        raise KeyError(f"unknown workload part {name!r}")
    for _, cfg in plan:
        cfg.seed = seed
        cfg.threads = 1
        cfg.out = "out"
        cfg.validate()
    return plan


def generate(name, seed, size, configs_dir, work_dir):
    """Write the workload's configs into ``work_dir``; return its commands."""
    os.makedirs(work_dir, exist_ok=True)
    plan = [(part, command, cfg) for part in WORKLOADS[name]
            for command, cfg in _part(part, seed, size, configs_dir)]
    commands = []
    for i, (part, command, cfg) in enumerate(plan):
        ceiling = SIZES[part][size].get("l2_ceiling")
        text = serialize_config(cfg)
        path = os.path.join(work_dir, f"{i}-{command}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        commands.append(Command(command, cfg, path, digest, ceiling))
    return commands


# ---------------------------------------------------------------------------
# result checks
# ---------------------------------------------------------------------------


def _fields(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _number(fields, key):
    try:
        return float(fields[key])
    except (KeyError, ValueError):
        return math.nan


def check(cmd, exit_code, stdout):
    """Failed checks of one command run (empty when it passed), and its figures."""
    problems = []
    figures = {}
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    cfg = cmd.config
    fields = _fields(stdout)
    if cmd.command in ("consistency", "check-axioms", "stability"):
        if fields.get("status") != "pass":
            problems.append(f"status = {fields.get('status')}")
    if cmd.command == "consistency":
        worst = _number(fields, "max_normalized_residual")
        if not worst <= CONSISTENCY_TOL:
            problems.append(f"consistency residual {worst} > {CONSISTENCY_TOL}")
    elif cmd.command == "check-axioms":
        for axiom in AXIOMS:
            worst = _number(fields, axiom)
            if not worst <= AXIOM_TOL:
                problems.append(f"{axiom} {worst} > {AXIOM_TOL}")
    elif cmd.command == "stability":
        growth = _number(fields, "growth")
        if not growth <= 1.0 + cfg.growth_tol:
            problems.append(f"growth {growth} > 1 + {cfg.growth_tol}")
    elif cmd.command == "convergence":
        rows = [line.split(",") for line in stdout.splitlines()
                if line.startswith(f"{cfg.equation}-r")]
        if len(rows) != len(cfg.refinements):
            problems.append(f"{len(rows)} convergence rows for {len(cfg.refinements)} levels")
        else:
            try:
                err = float(rows[-1][4])
                order = float(rows[-1][5])
            except (IndexError, ValueError):
                err = order = math.nan
            figures["l2_error"] = err
            figures["observed_order"] = order
            if not (math.isfinite(err) and err <= cmd.l2_ceiling):
                problems.append(f"l2_error {err} not finite or above {cmd.l2_ceiling:.3g}")
            if not order >= cfg.degree + 0.5:
                problems.append(f"observed order {order} < {cfg.degree + 0.5}")
    return problems, figures
