"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, 0, attrs or {}]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("b", 3.0, 6.0, parent=0),  # overlaps a: covered part of root is [1, 6]
        span("a.inner", 2.0, 3.0, parent=1),
        span("late", 9.5, 12.0, parent=0),  # runs past its parent: clipped to [9.5, 10]
    ]
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 3.0, 1.0, 2.5])


def test_pass_metrics_sum_self_time_and_counts():
    spans = [
        span("cli.main", 0.0, 5.0),
        span("experiments.run_config", 0.5, 4.5, parent=0),
        span("lattice.leapfrog_energy_series", 1.0, 3.0, parent=1, attrs={"n_sites": 64, "steps": 1000}),
        span("lattice.dft_to_modes", 3.0, 3.5, parent=1),
        span("lattice.evolve_psi", 3.5, 3.75, parent=1),
        span("gridio.write_csv", 4.5, 4.9, parent=0, attrs={"bytes": 2_000_000}),
    ]
    m = tracing.pass_metrics(spans)
    assert m["cli.main.self_s"] == pytest.approx(0.6)
    assert m["experiments.run_config.self_s"] == pytest.approx(1.25)
    assert m["lattice.transforms.self_s"] == pytest.approx(0.75)
    assert m["lattice.steps"] == 1000
    assert m["lattice.leapfrog_us_per_step.n64"] == pytest.approx(2000.0)
    assert m["lattice.leapfrog_us_per_step.n1024"] == 0.0
    assert m["gridio.bytes_written"] == 2_000_000
    assert m["gridio.write_mb_per_s"] == pytest.approx(5.0)


@pytest.mark.parametrize(
    "guaranteed, pct",
    [(9, 100.0), (19, 100.0), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(guaranteed, pct):
    assert stats.tail_percentile(guaranteed) == pct


def test_tail_reports_value_percentile_and_count_beyond():
    values = [float(v) for v in range(1, 101)]
    random.Random(3).shuffle(values)
    assert stats.tail(values, 100) == {"value": 90.0, "percentile": 90.0, "beyond": 10, "samples": 100}
    # more samples than guaranteed: same percentile, more beyond it
    assert stats.tail(values + [200.0] * 20, 100)["percentile"] == 90.0
    # too few samples for any rung: the maximum, with nothing beyond
    assert stats.tail([3.0, 1.0, 2.0], 3) == {"value": 3.0, "percentile": 100.0, "beyond": 0, "samples": 3}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workloads_depend_only_on_the_seed(workload):
    a = workloads.generate(workload, 7, ROOT)
    assert a == workloads.generate(workload, 7, ROOT)
    b = workloads.generate(workload, 8, ROOT)
    assert a != b
    # the seed changes parameters, never the run list's shape
    assert sorted(r["id"] for r in a) == sorted(r["id"] for r in b)


def test_outcome_rules():
    spec = {"command": "thermal-relax", "scenario": "thermal-planck", "expect": 3, "config": {}}
    one = '{"error": "validation", "detail": "x"}\n'
    assert checks.outcome(spec, 3, one, "", None) is None
    assert checks.outcome(spec, 3, one + one, "", None)
    assert checks.outcome(spec, 3, "Traceback ...\n", "", None)
    assert checks.outcome(spec, 0, "", "", None) == "exit 0, expected 3"
    assert checks.outcome(spec, "TypeError: boom", "", "", None).startswith("crashed")


def test_benchmark_json_names_what_the_benchmark_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER_UNITS


def tiny_runs(seed):
    rng = random.Random(seed)
    return (
        workloads.wigner_1d(rng, n_modes=(256,), phonon_sites=128)
        + workloads.leapfrog(rng, sizes=((64, 100),), verify=(16, 100))
        + workloads.fields_3d(rng, modes=(6,), max_index=2, meshes=(7,))
        + [workloads._run("thermal", workloads.thermal_planck(rng, "wien", "planck", "mev-ps", 32))]
    )


def traced_counts(scratch, seed):
    inv = run.Invocation(ROOT, tiny_runs(seed), scratch, deadline=time.perf_counter() + 120)
    plain, traced = inv.child(), inv.child(trace=True)
    flat = run.collect_runs([plain, traced])
    assert [r["failure"] for r in flat] == [None] * len(flat)  # includes traced == untraced bytes
    metrics = tracing.pass_metrics(traced["spans"])
    return {n: metrics[n] for n, unit in tracing.PER_LAYER_UNITS.items() if unit in ("count", "bytes")
            and n in metrics}


def test_exact_counts_repeat_across_invocations(tmp_path):
    first = traced_counts(tmp_path / "a", 5)
    second = traced_counts(tmp_path / "b", 5)
    assert first == second
    assert all(value > 0 for value in first.values()), first


def test_setup_parse_skips_error_paths(tmp_path):
    # after the config-sweep shuffle an error path can come first; set-up must
    # parse a valid config instead, and a list of error paths parses none
    rng = random.Random(2)
    valid = workloads._run("thermal", workloads.thermal_planck(rng, "wien", "zero", "natural", 16))
    invalid = [run for run in workloads.error_paths(rng) if run["id"] == "error-unknown-key"]
    inv = run.Invocation(ROOT, invalid + [valid], tmp_path / "a", deadline=time.perf_counter() + 60)
    assert inv.setup_config == inv.runs[1]["path"]
    assert [r["failure"] for r in inv.child()["runs"]] == [None, None]
    probes = run.Invocation(ROOT, workloads.known_defects(), tmp_path / "b", time.perf_counter() + 60)
    assert probes.setup_config is None
    assert len(run.known_defect_probes(inv)) == len(workloads.known_defects())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "leapfrog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
