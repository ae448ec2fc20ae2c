"""One pass over a workload's run list in a fresh interpreter.

Usage: python3 child.py JOB.json   (run with the pass directory as cwd)

The job names the checkout's src directory, the runs (each with its
generated config path), a valid config to parse during set-up (or none) and
whether to trace.  The child imports wavekit, parses that config and prints
"ready"; the load process takes the time to that line as set-up time.  It then calls wavekit.cli.main for every run
back to back, timing each, and only after the timer stops checks outcomes,
hashes the artifacts and deletes them.  The last stdout line is a JSON
record of the pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import checks
import tracing


def artifact_digest(directory: Path) -> tuple[str, int]:
    """SHA-256 over every artifact's name and bytes, and the bytes written."""
    digest = hashlib.sha256()
    total = 0
    if directory.is_dir():
        for path in sorted(directory.iterdir()):
            digest.update(path.name.encode() + b"\0")
            with open(path, "rb") as fh:
                while chunk := fh.read(1 << 22):
                    digest.update(chunk)
                    total += len(chunk)
    return digest.hexdigest(), total


def main(job_path: str) -> None:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    from wavekit import cli, experiments

    if job["setup_config"] is not None:
        experiments.parse_config(json.loads(Path(job["setup_config"]).read_text()))
    print("ready", flush=True)
    if job["setup_only"]:
        return

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()

    # each run gets its own directory and writes to the same relative --out,
    # so repeated configs must reproduce effective-config.json byte for byte
    pass_dir = Path.cwd()
    run_dirs = [pass_dir / f"r{index}" for index in range(len(job["runs"]))]
    for directory in run_dirs:
        directory.mkdir()
    records = []
    start = time.perf_counter()
    for index, run in enumerate(job["runs"]):
        argv = [run["command"], "--config", run["path"], "--out", "out", *run["argv"]]
        if tracer is not None:
            tracer.run = index
        out, err = io.StringIO(), io.StringIO()
        os.chdir(run_dirs[index])
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed run, not a failed pass
            code = f"{type(exc).__name__}: {exc}"
        records.append((time.perf_counter() - t0, code, out.getvalue(), err.getvalue()))
        os.chdir(pass_dir)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    results = []
    for index, (run, (seconds, code, out, err)) in enumerate(zip(job["runs"], records)):
        directory = run_dirs[index] / "out"
        summary_path = directory / "summary.json"
        summary = json.loads(summary_path.read_text()) if summary_path.is_file() else None
        digest, written = artifact_digest(directory)
        shutil.rmtree(run_dirs[index], ignore_errors=True)
        results.append({
            "id": run["id"],
            "key": run["key"],
            "seconds": seconds,
            "failure": checks.outcome(run, code, err, out, summary),
            "digest": digest,
            "bytes": written,
        })

    import numpy
    import scipy

    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "runs": results,
        "spans": tracer.spans if tracer is not None else [],
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }))


if __name__ == "__main__":
    main(sys.argv[1])
