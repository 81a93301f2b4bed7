"""Command-line interface.

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error.
"""

import argparse
import os
import sys

from .config import load_config
from .errors import ConfigurationError, CutDGError, IntegrationFailureError
from . import experiments


def _add_common(parser):
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: the solver runs in a single process")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cutdg",
        description="Cut-cell DG solver with small-cell stabilization: experiment drivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, brief in (
        ("consistency", "penalty residual at projected global polynomials"),
        ("check-axioms", "propagation-form identities on stabilized cells"),
        ("convergence", "refinement study, writes convergence.csv"),
        ("evolve", "time evolution, writes evolve_trace.csv"),
        ("stability", "long small-cell run with the background time step"),
        ("mesh-info", "mesh statistics and mesh dump"),
    ):
        p = sub.add_parser(name, help=brief)
        _add_common(p)
        if name == "stability":
            p.add_argument("--no-dod", action="store_true",
                           help="also run the unstabilized contrast (informational)")
    return parser


def _load(args):
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {args.config!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config {args.config!r} is not UTF-8 text: {exc}") from exc
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.threads is not None and args.threads < 1:
        raise ConfigurationError("threads must be >= 1")
    cfg.validate()
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {cfg.out!r}: {exc.strerror}") from exc
    return cfg


def _emit(lines):
    for line in lines:
        print(line)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        if args.command == "consistency":
            report = experiments.run_consistency(cfg)
            _emit(report.lines())
            return 0 if report.passed else 1
        if args.command == "check-axioms":
            report = experiments.run_axioms(cfg)
            _emit(report.lines())
            return 0 if report.passed else 1
        if args.command == "convergence":
            report = experiments.run_convergence(cfg)
            path = os.path.join(cfg.out, "convergence.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.csv())
            print(f"# seed = {cfg.seed}")
            print(report.csv(), end="")
            return 1 if report.diverged else 0
        if args.command == "evolve":
            try:
                report = experiments.run_evolve(cfg)
            except IntegrationFailureError as exc:
                print(f"integration failed at step {exc.step}")
                return 1
            path = os.path.join(cfg.out, "evolve_trace.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.trace_csv())
            _emit(report.lines())
            return 0
        if args.command == "stability":
            report = experiments.run_stability(cfg, contrast=args.no_dod)
            _emit(report.lines())
            return 0 if report.passed else 1
        if args.command == "mesh-info":
            info, dump = experiments.mesh_info(cfg)
            path = os.path.join(cfg.out, "mesh.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dump)
            print(info, end="")
            return 0
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CutDGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
