"""wavekit benchmark: seeded scenario workloads run through wavekit.cli.main.

Usage (from the root of a wavekit checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

This is the single load process.  It generates the workload's configs from
the seed, then starts one child interpreter per pass, one at a time; each
child runs the whole list in-process through the CLI entry point.  Passes
repeat until S seconds have gone by (at least MIN_PASSES of them).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics from the traced ones.
Human-readable lines come first; the last stdout line is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_PASSES = 3  # untraced passes per --trace 0 run
MIN_TRACE_PASSES = 2  # of each kind per --trace 1 run
SETUP_SAMPLES = 5  # cold starts behind the setup_s median
RUN_DEADLINE_S = 170  # a whole invocation must finish within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "run_s_p50": "s",
    "run_s_tail": "s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "ok_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not produce a result."""


class Invocation:
    """Scratch space, generated configs and child processes of one benchmark run."""

    def __init__(self, root: Path, runs: list[dict], scratch: Path, deadline: float):
        self.root = root
        self.scratch = scratch
        self.deadline = deadline
        self.runs = self._write_configs(runs, scratch / "configs")
        # set-up parses the first run that must succeed, never an error path
        self.setup_config = next(
            (run["path"] for run in self.runs if run["expect"] == 0 and isinstance(run["config"], dict)),
            None,
        )
        self.children = 0

    @staticmethod
    def _write_configs(runs, directory):
        directory.mkdir(parents=True)
        written = []
        for index, run in enumerate(runs):
            text = run["config"] if isinstance(run["config"], str) else json.dumps(run["config"], indent=2)
            path = directory / f"{index:04d}-{run['id']}.json"
            path.write_text(text + "\n")
            key = json.dumps([run["command"], run["argv"], text])
            written.append(dict(run, path=str(path), key=key))
        return written

    def child(self, trace=False, setup_only=False) -> dict:
        """Start one child pass and wait for it; returns its record plus setup_s."""
        self.children += 1
        pass_dir = self.scratch / f"pass-{self.children}"
        pass_dir.mkdir()
        job = pass_dir / "job.json"
        job.write_text(json.dumps({
            "src": str(self.root / "src"),
            "runs": self.runs,
            "setup_config": self.setup_config,
            "trace": trace,
            "setup_only": setup_only,
        }))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job)],
            cwd=pass_dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.perf_counter()))
        except BaseException as exc:
            proc.kill()
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError("pass child overran the run deadline") from exc
            raise
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        if proc.returncode != 0 or ready.strip() != "ready":
            raise BenchError(f"pass child exited {proc.returncode}: {err.strip()[-2000:]}")
        record = {} if setup_only else json.loads(out.strip().splitlines()[-1])
        record["setup_s"] = setup_s
        return record


def collect_runs(passes: list[dict]) -> list[dict]:
    """Flatten run records; a run also fails if its artifacts differ from an
    earlier run of the same config in this invocation."""
    first_digest = {}
    flat = []
    for record in passes:
        for run in record["runs"]:
            expected = first_digest.setdefault(run["key"], run["digest"])
            if run["failure"] is None and run["digest"] != expected:
                run = dict(run, failure="artifact bytes differ from an earlier run of this config")
            flat.append(run)
    return flat


def known_defect_probes(inv: Invocation) -> list[dict]:
    probes = Invocation(inv.root, workloads.known_defects(), inv.scratch / "defects", inv.deadline)
    return probes.child()["runs"]


def measure_end_to_end(inv: Invocation, seconds: float) -> tuple[dict, list[dict], dict]:
    passes, setups = [], []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(inv.child())
        setups.append(passes[-1]["setup_s"])
    while len(setups) < SETUP_SAMPLES:
        setups.append(inv.child(setup_only=True)["setup_s"])
    runs = collect_runs(passes)
    times = [run["seconds"] for run in runs]
    tail = stats.tail(times, MIN_PASSES * len(inv.runs))
    failed = sum(run["failure"] is not None for run in runs)
    metrics = {
        "wall_s": stats.median([p["wall_s"] for p in passes]),
        "run_s_p50": stats.median(times),
        "run_s_tail": tail["value"],
        "setup_s": stats.median(setups),
        "peak_mem_mb": stats.median([p["peak_rss_mb"] for p in passes]),
        "ok_frac": 1.0 - failed / len(runs),
    }
    detail = {
        "passes": len(passes),
        "tail": tail,
        "setup_samples": len(setups),
        "fail_frac": failed / len(runs),
        "versions": passes[0]["versions"],
    }
    return metrics, runs, detail


def measure_per_layer(inv: Invocation, seconds: float) -> tuple[dict, list[dict], dict]:
    plain, traced = [], []
    start = time.perf_counter()
    while (
        min(len(plain), len(traced)) < MIN_TRACE_PASSES or time.perf_counter() - start < seconds
    ):
        if len(traced) < len(plain):
            traced.append(inv.child(trace=True))
        else:
            plain.append(inv.child())
    # untraced passes first, so traced artifacts are compared against them
    runs = collect_runs(plain + traced)
    per_pass = [tracing.pass_metrics(p["spans"]) for p in traced]
    metrics = tracing.combine_passes(per_pass)
    metrics["trace_overhead_frac"] = (
        stats.median([p["wall_s"] for p in traced]) / stats.median([p["wall_s"] for p in plain]) - 1.0
    )
    detail = {
        "passes": len(plain) + len(traced),
        "counts_agree": tracing.counts_agree(per_pass),
        "versions": plain[0]["versions"],
    }
    return metrics, runs, detail


def environment(root: Path, versions: dict) -> dict:
    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
        sha = proc.stdout.strip() or sha
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    # turn a termination request into SystemExit, so the running child is killed
    # and the scratch directory removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "wavekit" / "cli.py").is_file() or not (root / "configs").is_dir():
        print("perfbench: run from the root of a wavekit checkout (src/wavekit and configs/ "
              "not found)", file=sys.stderr)
        return 2
    # before any child imports numpy, so every BLAS/OpenMP pool has one thread
    for var in THREAD_VARS:
        os.environ[var] = "1"

    runs = workloads.generate(args.workload, args.seed, root)
    scratch_root = root / ".perfbench"
    scratch = scratch_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inv = Invocation(root, runs, scratch, deadline)
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, flat, detail = measure(inv, args.seconds)
        defects = known_defect_probes(inv) if args.workload == "config-sweep" else []
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()  # only if no other invocation is using it
        except OSError:
            pass

    failures = [run for run in flat if run["failure"] is not None]
    defect_failures = [run for run in defects if run["failure"] is not None]
    correct = not failures and detail.get("counts_agree", True)
    if args.trace:
        metrics["cli.known_defect_failures"] = len(defect_failures)
        units = tracing.PER_LAYER_UNITS
    else:
        units = END_TO_END_UNITS

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {detail['passes']}  run list {len(inv.runs)}  attempted {len(flat)}  "
          f"failed {len(failures)}")
    for name in units:
        line = f"  {name} = {_fmt(metrics[name])} {units[name]}"
        if name == "run_s_tail":
            tail = detail["tail"]
            line += (f"  (p{tail['percentile']:g} of {tail['samples']} runs, "
                     f"{tail['beyond']} beyond)")
        elif name == "setup_s":
            line += f"  (median of {detail['setup_samples']} cold starts)"
        elif name == "ok_frac":
            line += f"  (fail_frac = {_fmt(detail['fail_frac'])} ratio)"
        print(line)
    if "counts_agree" in detail and not detail["counts_agree"]:
        print("  exact counts differ between traced passes")
    for run in failures[:20]:
        print(f"  FAILED {run['id']}: {run['failure']}")
    if defects:
        print(f"  known defects: {len(defect_failures)} of {len(defects)} probes still fail")
        for run in defect_failures:
            print(f"    {run['id']}: {run['failure']}")
    print("env " + json.dumps(environment(root, detail["versions"]), sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(flat),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
