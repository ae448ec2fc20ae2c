"""Run the benchmark over several seeds and summarise each metric's spread.

Usage (from the root of a wavekit checkout):

    python3 perfbench/sweep.py --workloads wigner-1d,leapfrog --seeds 1-10 \
        --seconds 25 [--trace 0|1] [--label NAME] [--out FILE]

For every workload and end-to-end (or, with --trace 1, per-layer) metric it
prints the median, the quartiles as statistics.quantiles(n=4) gives them and
the quartile spread as a share of the median.  With --out it also writes
every raw result as JSON, which is how baseline entries are recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    record = {"label": args.label, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            start = time.perf_counter()
            result, env = run_once(workload, seed, args.seconds, args.trace)
            record["env"] = env
            results.append(dict(result, seed=seed, elapsed_s=time.perf_counter() - start))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"({results[-1]['elapsed_s']:.0f} s)", flush=True)
        summary = {
            name: dict(summarise([r["metrics"][name]["value"] for r in results]),
                       unit=results[0]["metrics"][name]["unit"])
            for name in results[0]["metrics"]
        }
        record["workloads"][workload] = {"summary": summary, "runs": results}
        for name, row in summary.items():
            print(f"  {workload:12s} {name:44s} median {row['median']:.6g} {row['unit']:6s} "
                  f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
