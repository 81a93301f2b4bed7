"""Command-line interface: each command runs one driver of :mod:`cutdg.experiments`,
writes its report's files into the output directory and prints its lines.
Exit codes: 0 all checks pass, 1 check failure, 2 configuration error.
"""

import argparse
import os
import sys

from .config import load_config
from .errors import ConfigurationError, CutDGError
from . import experiments

# command -> (driver in cutdg.experiments, help).  The driver is looked up
# when the command runs, so a wrapper on the module attribute sees the call.
COMMANDS = {
    "consistency": ("run_consistency", "penalty residual at projected global polynomials"),
    "check-axioms": ("run_axioms", "propagation-form identities on stabilized cells"),
    "convergence": ("run_convergence", "refinement study, writes convergence.csv"),
    "evolve": ("run_evolve", "time evolution, writes evolve_trace.csv"),
    "stability": ("run_stability", "long small-cell run with the background time step"),
    "mesh-info": ("mesh_info", "mesh statistics and mesh dump"),
}


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
    for name, (_, brief) in COMMANDS.items():
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    driver = getattr(experiments, COMMANDS[args.command][0])
    options = {"contrast": args.no_dod} if args.command == "stability" else {}
    try:
        cfg = _load(args)
        report = driver(cfg, **options)
        for name, text in report.files().items():
            with open(os.path.join(cfg.out, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for line in report.lines():
            print(line)
        return 0 if report.passed else 1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CutDGError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
