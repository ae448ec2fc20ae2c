"""Command-line scenario runner: one subcommand per module family.

Subcommands: phonon-sim, wigner, photon-field, helicity-check,
thermal-relax, verify.  Each takes --config PATH plus optional --out DIR,
--units {natural|mev-ps}, --threads N, --verbose.

Exit codes: 0 success, 2 parse error (usage, unreadable or malformed
config), 3 validation error (schema or parameter), 4 numeric failure
(failed invariant, non-finite result).  Every error path emits a one-line
JSON diagnostic on stderr.

Only the standard library is imported at module scope; numerical imports
happen after --threads has capped the BLAS/OpenMP pools, so thread limits
actually take effect.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

PARSE_EXIT = 2
VALIDATION_EXIT = 3
NUMERIC_EXIT = 4

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# scenario families routed by each subcommand (names from experiments.SCENARIOS); kept
# here so the parser is built, and --threads applied, before numpy is imported
COMMAND_SCENARIOS = {
    "phonon-sim": ("phonon-gaussian", "traveling-wave"),
    "wigner": ("wigner-gaussian",),
    "photon-field": ("photon-field",),
    "helicity-check": ("helicity-cylindrical",),
    "thermal-relax": ("thermal-planck",),
    "verify": ("verify-lattice", "verify-helicity"),
}


class _ParseFailure(Exception):
    """Config file could not be read or decoded."""


def _diagnostic(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _diagnostic("usage", message)
        raise SystemExit(PARSE_EXIT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wavekit",
        description="Deterministic phase-space scenarios on waves and quanta.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH", help="JSON scenario config")
    common.add_argument("--out", default=None, metavar="DIR", help="output directory override")
    common.add_argument(
        "--units", default=None, choices=("natural", "mev-ps"), help="unit preset override"
    )
    common.add_argument(
        "--threads", type=int, default=None, metavar="N", help="cap numerical thread pools"
    )
    common.add_argument("--verbose", action="store_true", help="also print the effective config")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, scenarios in COMMAND_SCENARIOS.items():
        sub.add_parser(
            name,
            parents=[common],
            help=f"scenarios: {', '.join(scenarios)}",
        )
    return parser


def _load_raw(path: str):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise _ParseFailure(f"cannot read config {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _ParseFailure(f"config is not valid JSON: {exc}") from exc


def _nonfinite_keys(value, prefix="") -> list[str]:
    if isinstance(value, dict):
        out = []
        for key in value:
            out.extend(_nonfinite_keys(value[key], f"{prefix}{key}."))
        return out
    if isinstance(value, float) and not math.isfinite(value):
        return [prefix.rstrip(".")]
    return []


def _write_artifacts(out_dir: Path, summary: dict, artifacts: dict, top) -> list[str]:
    from . import __version__, gridio
    from .experiments import effective_dict

    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    gridio.write_json(out_dir / "summary.json", {"version": __version__, **summary})
    written.append("summary.json")
    gridio.write_json(out_dir / "effective-config.json", effective_dict(top))
    written.append("effective-config.json")
    for name in sorted(artifacts):
        fmt, payload = artifacts[name]
        if fmt == "csv" and top.output.csv:
            gridio.write_csv(out_dir / name, payload)
            written.append(name)
        elif fmt == "grid" and top.output.grid:
            gridio.write_wigner_grid(out_dir / name, payload)
            written.append(name)
    return written


def _cmd_run(xp, top, args) -> int:
    summary, artifacts = xp.run_config(top)
    bad = _nonfinite_keys(summary)
    if bad:
        _diagnostic("numeric", f"non-finite results: {', '.join(bad)}")
        return NUMERIC_EXIT
    out_dir = Path(top.output.dir or f"{top.scenario}-out")
    written = _write_artifacts(out_dir, summary, artifacts, top)
    if args.verbose:
        print(json.dumps(xp.effective_dict(top), indent=2, sort_keys=True))
    for key in sorted(summary):
        print(f"{key} = {summary[key]}")
    print(f"wrote {', '.join(written)} to {out_dir}")
    return 0


def _cmd_verify(xp, top, args) -> int:
    summary, _ = xp.run_config(top)
    if args.verbose:
        print(json.dumps(xp.effective_dict(top), indent=2, sort_keys=True))
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # raised by _Parser.error (diagnostic already emitted) and by --help
        return int(exc.code or 0)
    if args.threads is not None and args.threads < 1:
        _diagnostic("usage", "--threads must be a positive integer")
        return PARSE_EXIT
    if args.threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)

    try:
        raw = _load_raw(args.config)
    except _ParseFailure as exc:
        _diagnostic("parse", str(exc))
        return PARSE_EXIT

    from . import experiments as xp

    try:
        top = xp.parse_config(
            raw,
            allowed=COMMAND_SCENARIOS[args.command],
            units=args.units,
            out_dir=args.out,
        )
        if args.command == "verify":
            return _cmd_verify(xp, top, args)
        return _cmd_run(xp, top, args)
    except ValueError as exc:
        # xp.ConfigError, or a parameter combination that only fails inside the physics layer
        _diagnostic("validation", str(exc))
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
