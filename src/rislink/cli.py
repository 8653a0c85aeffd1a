"""Command line entry point: `rislink COMMAND [options]`.

One parser reads the command and every option, in any order: the options
are the same for every command, except `--direct-link`/`--no-direct-link`,
which only `solve` and `sweep-plane` take; any other command rejects them
as unrecognized arguments.

Exit codes: 0 success, 1 configuration error, 2 numerical/domain failure
or bad arguments, 3 validation suite failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import load_config
from .errors import ConfigError, RislinkError
from .experiments import (robustness, solve, sweep_distance, sweep_plane,
                          sweep_wavelength)
from .output import emit_csv, emit_plot_script

_EXPERIMENTS = {
    "solve": solve,
    "sweep-distance": sweep_distance,
    "sweep-plane": sweep_plane,
    "sweep-wavelength": sweep_wavelength,
    "robustness": robustness,
}
# the commands whose studies model the direct path
_DIRECT_LINK_COMMANDS = ("solve", "sweep-plane")
_DIRECT_LINK_FLAGS = ("--direct-link", "--no-direct-link")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="RIS-assisted MISO link designs and simulation studies")
    parser.add_argument("--version", action="version",
                        version=f"rislink {__version__}")
    parser.add_argument("command", choices=(*_EXPERIMENTS, "validate"))
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="YAML scene profile (default: bundled profile)")
    parser.add_argument("--out", metavar="DIR", default="out",
                        help="output directory for CSV/metadata/plot script")
    parser.add_argument("--strict-far-field", action="store_true",
                        help="raise instead of warning on near-field scenes")
    parser.add_argument("--direct-link", action=argparse.BooleanOptionalAction,
                        default=None,
                        help="include the unblocked direct path (solve and "
                             "sweep-plane only)")
    parser.add_argument("--grid", metavar="N", type=int, default=None,
                        help="override every sweep point count")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the full-scale panel grid from the profile")
    return parser


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    args = parser.parse_args(argv)
    if (args.direct_link is not None
            and args.command not in _DIRECT_LINK_COMMANDS):
        # as given, abbreviations included: argparse matches any unique
        # prefix of a long option
        given = [a for a in argv if len(a) > 2 and any(
            flag.startswith(a) for flag in _DIRECT_LINK_FLAGS)]
        parser.error(f"unrecognized arguments: {' '.join(given)}")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        cfg = load_config(args.config, paper_scale=args.paper_scale,
                          direct_link=args.direct_link,
                          strict_far_field=args.strict_far_field,
                          grid_override=args.grid)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "validate":
            # the oracle suite loads only here: no study reads it
            from .validation import validate_suite
            checks = validate_suite(cfg)
            failed = False
            for name, ok, detail in checks:
                print(f"{'PASS' if ok else 'FAIL'}  {name} ({detail})")
                failed |= not ok
            return 3 if failed else 0
        result = _EXPERIMENTS[args.command](cfg)
    except RislinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = Path(args.out)
    stem = args.command.replace("-", "_")
    csv_path = emit_csv(result, out / f"{stem}.csv")
    emit_plot_script(result, csv_path, out / f"{stem}.gp")
    print(f"wrote {csv_path} ({len(result)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
