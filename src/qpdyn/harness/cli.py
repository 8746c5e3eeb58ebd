"""Command-line entry point.

Subcommands map onto recipes; every one takes --config, --out, --workers,
and --verbose.  Exit codes: 0 on success, 2 on a config or usage error
(--workers below 1 is one), 3 when a numerical-safety flag (truncation
leakage, quadrature non-convergence) was raised during the run.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import ConfigError, load_config
from .recipes import run_experiment, run_sweep

log = logging.getLogger("qpdyn")

SUBCOMMANDS = {
    "evolve": "evolve",
    "moments": "moment-growth",
    "greens-scan": "bad-set-scan",
    "sublinear": "sublinear",
    "parseval-check": "parseval-crosscheck",
    "discrepancy": "discrepancy-sweep",
    "diophantine": "diophantine",
    "lyapunov": "lyapunov-map",
    "sweep": "sweep",
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SAFETY = 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpdyn",
        description=(
            "Experiments on quasi-periodic long-range lattice operators: "
            "moment growth, Green's-function box scans, route cross-checks, "
            "discrepancy and Lyapunov maps."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, recipe in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {recipe} recipe")
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="worker processes, at least 1")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "sweep":
            cfg = load_config(args.config, experiment=None)
            result = run_sweep(cfg, args.out, workers=args.workers)
        else:
            cfg = load_config(args.config, experiment=SUBCOMMANDS[args.command])
            result = run_experiment(cfg, args.out, workers=args.workers)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"invalid config:\n- {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in result.files:
        log.info("wrote %s", path)
    print(
        f"{result.experiment}: wrote {len(result.files)} files "
        f"({sum(result.row_counts.values())} rows) to {args.out}"
    )
    if result.safety_flags:
        print(
            "numerical-safety flags raised: " + ", ".join(sorted(set(result.safety_flags))),
            file=sys.stderr,
        )
        return EXIT_SAFETY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
