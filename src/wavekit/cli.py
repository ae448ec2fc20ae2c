"""Command-line scenario runner: one command per module family.

Commands: phonon-sim, wigner, photon-field, helicity-check, thermal-relax,
verify, as routed by experiments.SCENARIOS.  Each takes --config PATH plus
an optional --out DIR; the config file sets everything else about the run.

Exit codes: 0 success, 2 parse error (usage, unreadable or malformed
config, unwritable output directory), 3 validation error (schema or
parameter), 4 numeric failure (failed invariant, non-finite result, float
overflow, division by zero or invalid operation).  Every error path emits a
one-line JSON diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, experiments, gridio

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


def _write_artifacts(out_dir: Path, summary: dict, artifacts: dict, top) -> list[str]:
    out_dir.mkdir(parents=True, exist_ok=True)
    gridio.write_json(out_dir / "summary.json", {"version": __version__, **summary})
    gridio.write_json(out_dir / "effective-config.json", experiments.effective_dict(top))
    # the file suffix names the format; a .wgrd payload writes its file at the path it is given
    writers = {".csv": gridio.write_csv, ".wgrd": lambda path, write: write(path)}
    for name in sorted(artifacts):
        writers[Path(name).suffix](out_dir / name, artifacts[name])
    return ["summary.json", "effective-config.json", *sorted(artifacts)]


def _report_run(top) -> int:
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
    for key in sorted(summary):
        print(f"{key} = {summary[key]}")
    print(f"wrote {', '.join(written)} to {out_dir}")
    return 0


def _report_checks(top) -> int:
    summary, _ = experiments.run_config(top)
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
        top = experiments.parse_config(raw, args.command, out_dir=args.out)
        report = _report_checks if args.command == "verify" else _report_run
        # one numeric-failure boundary: overflow, division by zero and invalid operations
        # raise FloatingPointError, an ArithmeticError; Gaussian tails underflow by design
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return report(top)
    except ValueError as exc:
        # experiments.ConfigError, or a parameter combination that only fails in the physics layer
        _diagnostic("validation", str(exc))
        return VALIDATION_EXIT
    except ArithmeticError as exc:
        # float overflow, division by zero or invalid operation; parse_config does no arithmetic
        _diagnostic("numeric", f"{top.scenario} failed: {type(exc).__name__}: {exc}")
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
