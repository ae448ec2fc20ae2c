"""Command-line scenario runner: one command per module family.

Commands: phonon-sim, wigner, photon-field, helicity-check, thermal-relax,
verify, as routed by experiments.SCENARIOS.  Each takes --config PATH plus
optional --out DIR, --units {natural|mev-ps}, --verbose.

Exit codes: 0 success, 2 parse error (usage, unreadable or malformed
config, unwritable output directory), 3 validation error (schema or
parameter), 4 numeric failure (failed invariant, non-finite result, float
overflow or division by zero).  Every error path emits a one-line JSON
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__, experiments, gridio
from .units import PRESETS

PARSE_EXIT = 2
VALIDATION_EXIT = 3
NUMERIC_EXIT = 4


def _diagnostic(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _diagnostic("usage", message)
        raise SystemExit(PARSE_EXIT)


_PARSER = _Parser(
    prog="wavekit", description="Deterministic phase-space scenarios on waves and quanta."
)
_PARSER.add_argument(
    "command", choices=tuple(dict.fromkeys(row[0] for row in experiments.SCENARIOS.values())),
    metavar="COMMAND", help="scenario family: %(choices)s",
)
_PARSER.add_argument("--config", required=True, metavar="PATH", help="JSON scenario config")
_PARSER.add_argument("--out", default=None, metavar="DIR", help="output directory override")
_PARSER.add_argument("--units", default=None, choices=tuple(PRESETS), help="unit preset override")
_PARSER.add_argument("--verbose", action="store_true", help="also print the effective config")


def _write_artifacts(out_dir: Path, summary: dict, artifacts: dict, top) -> list[str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    gridio.write_json(out_dir / "summary.json", {"version": __version__, **summary})
    gridio.write_json(out_dir / "effective-config.json", experiments.effective_dict(top))
    written = ["summary.json", "effective-config.json"]
    # the file suffix names the format, and the output flags switch each format off
    writers = {
        ".csv": (top.output.csv, gridio.write_csv),
        ".wgrd": (top.output.grid, gridio.write_wigner_grid),
    }
    for name in sorted(artifacts):
        wanted, write = writers[Path(name).suffix]
        if wanted:
            write(out_dir / name, artifacts[name])
            written.append(name)
    return written


def _report_run(top, verbose: bool) -> int:
    summary, artifacts = experiments.run_config(top)
    bad = [
        key for key, value in summary.items() if isinstance(value, float) and not math.isfinite(value)
    ]
    if bad:
        _diagnostic("numeric", f"non-finite results: {', '.join(bad)}")
        return NUMERIC_EXIT
    out_dir = Path(top.output.dir or f"{top.scenario}-out")
    try:
        written = _write_artifacts(out_dir, summary, artifacts, top)
    except OSError as exc:
        _diagnostic("output", f"cannot write to output directory {out_dir}: {exc}")
        return PARSE_EXIT
    if verbose:
        print(json.dumps(experiments.effective_dict(top), indent=2, sort_keys=True))
    for key in sorted(summary):
        print(f"{key} = {summary[key]}")
    print(f"wrote {', '.join(written)} to {out_dir}")
    return 0


def _report_checks(top, verbose: bool) -> int:
    summary, _ = experiments.run_config(top)
    if verbose:
        print(json.dumps(experiments.effective_dict(top), indent=2, sort_keys=True))
    for name, row in summary["checks"].items():
        tag = "PASS" if row["passed"] else "FAIL"
        print(f"{tag} {name}: value={row['value']:.6g} bound={row['bound']:.6g}")
    if summary["passed"]:
        print("all checks passed")
        return 0
    failed = [name for name, row in summary["checks"].items() if not row["passed"]]
    print(f"{len(failed)} check(s) failed")
    _diagnostic("numeric", f"failed invariants: {', '.join(failed)}")
    return NUMERIC_EXIT


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # raised by _Parser.error (diagnostic already emitted) and by --help
        return int(exc.code or 0)

    try:
        raw = json.loads(Path(args.config).read_bytes())
    except OSError as exc:
        _diagnostic("parse", f"cannot read config {args.config}: {exc}")
        return PARSE_EXIT
    except (ValueError, RecursionError) as exc:  # malformed, not Unicode, or nested too deep
        _diagnostic("parse", f"config is not valid JSON: {exc}")
        return PARSE_EXIT

    try:
        top = experiments.parse_config(raw, args.command, units=args.units, out_dir=args.out)
        if args.command == "verify":
            return _report_checks(top, args.verbose)
        return _report_run(top, args.verbose)
    except ValueError as exc:
        # experiments.ConfigError, or a parameter combination that only fails in the physics layer
        _diagnostic("validation", str(exc))
        return VALIDATION_EXIT
    except ArithmeticError as exc:
        # float overflow or division by zero in a runner; parse_config does no arithmetic
        _diagnostic("numeric", f"{top.scenario} failed: {type(exc).__name__}: {exc}")
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
