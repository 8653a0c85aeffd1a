"""Command line entry point.

Exit codes: 0 success, 1 configuration error, 2 numerical/domain failure,
3 validation suite failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import load_config
from .errors import ConfigError, RislinkError
from .experiments import (robustness, solve, sweep_distance, sweep_plane,
                          sweep_wavelength, validate_suite)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislink",
        description="RIS-assisted MISO link designs and simulation studies")
    parser.add_argument("--version", action="version",
                        version=f"rislink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_EXPERIMENTS, "validate"):
        p = sub.add_parser(name)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="YAML scene profile (default: bundled profile)")
        p.add_argument("--out", metavar="DIR", default="out",
                       help="output directory for CSV/metadata/plot script")
        p.add_argument("--strict-far-field", action="store_true",
                       help="raise instead of warning on near-field scenes")
        if name in _DIRECT_LINK_COMMANDS:
            p.add_argument("--direct-link",
                           action=argparse.BooleanOptionalAction,
                           default=None,
                           help="include the unblocked direct path")
        p.add_argument("--grid", metavar="N", type=int, default=None,
                       help="override every sweep point count")
        p.add_argument("--paper-scale", action="store_true",
                       help="use the full-scale panel grid from the profile")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, paper_scale=args.paper_scale,
                          direct_link=getattr(args, "direct_link", None),
                          strict_far_field=args.strict_far_field,
                          grid_override=args.grid)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "validate":
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
