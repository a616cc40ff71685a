"""Command-line interface.

Commands: simulate, analyze, duration-study, version. Exit codes:
0 success, 2 configuration error, 3 data error (running out of memory
included), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import SCHEMA, load_config
from .errors import ConfigError, DataError, NumericError
from .pipeline import run_analyze, run_duration_study, run_simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# Each flag: its config key, argparse type and metavar, and help. The
# key's SCHEMA entry checks the value and gives a section key's default.
FLAGS = (
    ("--out", "output_dir", str, "DIR", "output directory"),
    ("--seed", "seed", int, "U64", "simulation / seeding value"),
    ("--threads", "threads", int, "N",
     "input runs read, and volumes motion-registered, at once; results never depend on it"),
    ("--q", "inference.q", float, "Q", "FDR level"),
    ("--fwhm", "preprocess.fwhm_mm", float, "MM", "smoothing kernel FWHM in mm"),
    ("--cutoff-hz", "glm.cutoff_hz", float, "HZ", "high-pass cutoff in Hz"),
    ("--connectivity", "inference.connectivity", int, "N", "cluster neighborhood"),
)


def _add_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", metavar="PATH", help="JSON config file (or a previous manifest)")
    for flag, key, kind, metavar, help_text in FLAGS:
        section, _, name = key.rpartition(".")
        if section:
            help_text += f" (default {SCHEMA[section][name][0]})"
        parser.add_argument(flag, dest=key, type=kind, metavar=metavar, help=help_text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boldkit",
                                     description="Task-based BOLD fMRI analysis toolkit")
    sub = parser.add_subparsers(dest="command")
    for name, help_text in (
        ("simulate", "generate synthetic phantom runs and ground truth"),
        ("analyze", "run the preprocessing + GLM + FDR + cluster pipeline"),
        ("duration-study", "compare single, concatenated, and averaged runs"),
    ):
        _add_flags(sub.add_parser(name, help=help_text))
    sub.add_parser("version", help="print the toolkit version")
    return parser


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
        overrides = {key: getattr(args, key) for _, key, *_ in FLAGS}
        cfg = load_config(args.config, overrides)
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
