"""Command-line interface.

Commands: simulate, analyze, duration-study, version. Exit codes:
0 success, 2 configuration error, 3 data error (running out of memory
included), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import load_config
from .errors import ConfigError, DataError, NumericError
from .pipeline import run_analyze, run_duration_study, run_simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", help="JSON config file (or a previous manifest)")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="U64", help="simulation / seeding value")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="input runs read, and volumes motion-registered, at once "
                             "(default: usable CPUs); results never depend on it")
    parser.add_argument("--q", type=float, metavar="Q", help="FDR level (default 0.05)")
    parser.add_argument("--fwhm", type=float, metavar="MM",
                        help="smoothing kernel FWHM in mm (default 8)")
    parser.add_argument("--cutoff-hz", type=float, metavar="HZ",
                        help="high-pass cutoff in Hz (default 0.005)")
    parser.add_argument("--connectivity", type=int, choices=(6, 18, 26),
                        help="cluster neighborhood (default 26)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boldkit",
                                     description="Task-based BOLD fMRI analysis toolkit")
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("simulate", "generate synthetic phantom runs and ground truth"),
        ("analyze", "run the preprocessing + GLM + FDR + cluster pipeline"),
        ("duration-study", "compare single, concatenated, and averaged runs"),
    ):
        command = sub.add_parser(name, help=help_text)
        _add_common_flags(command)
    sub.add_parser("version", help="print the toolkit version")
    return parser


def _overrides_from_args(args) -> dict:
    return {
        "output_dir": args.out,
        "seed": args.seed,
        "threads": args.threads,
        "inference.q": args.q,
        "preprocess.fwhm_mm": args.fwhm,
        "glm.cutoff_hz": args.cutoff_hz,
        "inference.connectivity": args.connectivity,
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    if args.command == "version":
        print(f"boldkit {__version__}")
        return EXIT_OK

    runners = {
        "simulate": run_simulate,
        "analyze": run_analyze,
        "duration-study": run_duration_study,
    }
    try:
        cfg = load_config(args.config, _overrides_from_args(args))
        files = runners[args.command](cfg)
    except ConfigError as exc:
        print(f"boldkit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"boldkit: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # the input is too large for this machine
        detail = f": {exc}" if str(exc) else ""
        print(f"boldkit: data error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"boldkit: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    for path in files:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
