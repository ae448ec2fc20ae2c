"""Command-line behavior: exit codes, diagnostics, overrides, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wavekit
from wavekit import cli, experiments


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def thermal_payload(out_dir, **kinetics):
    block = {"x_min": 0.5, "x_max": 8.0, "n_cells": 16}
    block.update(kinetics)
    return {
        "schema_version": 1,
        "scenario": "thermal-planck",
        "units": "natural",
        "output": {"dir": str(out_dir)},
        "kinetics": block,
    }


def verify_lattice_payload(out_dir, **lattice):
    block = {"n_sites": 32, "n_steps": 200, "seed": 11}
    block.update(lattice)
    return {
        "schema_version": 1,
        "scenario": "verify-lattice",
        "units": "natural",
        "seed": block.pop("seed"),
        "output": {"dir": str(out_dir)},
        "lattice": block,
    }


def last_stderr_json(err):
    lines = [line for line in err.strip().splitlines() if line.strip()]
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# happy path


def test_thermal_relax_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, thermal_payload(out))
    code = cli.main(["thermal-relax", "--config", str(cfg)])
    stdout = capsys.readouterr().out
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "thermal-planck"
    assert summary["relative_residual"] < 1e-9
    assert "peak_product = " in stdout
    assert any(line.startswith("wrote ") for line in stdout.splitlines())
    # effective config is itself a valid config for the same scenario
    eff = json.loads((out / "effective-config.json").read_text())
    top = experiments.parse_config(eff)
    assert top.scenario == "thermal-planck"


def test_verify_lattice_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, verify_lattice_payload(tmp_path / "out"))
    code = cli.main(["verify", "--config", str(cfg)])
    stdout = capsys.readouterr().out
    assert code == 0
    lines = [line for line in stdout.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert lines and all(line.startswith("PASS") for line in lines)


# ---------------------------------------------------------------------------
# exit codes and diagnostics


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json")
    code = cli.main(["thermal-relax", "--config", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert last_stderr_json(err)["error"] == "parse"
    # and no partial outputs anywhere
    assert not list(tmp_path.glob("**/summary.json"))


def test_missing_config_exits_2(tmp_path, capsys):
    code = cli.main(["thermal-relax", "--config", str(tmp_path / "absent.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in last_stderr_json(err)


def test_usage_error_exits_2(tmp_path, capsys):
    code = cli.main(["thermal-relax"])  # --config is required
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in last_stderr_json(err)


def test_unknown_command_exits_2(capsys):
    code = cli.main(["spectral-sim", "--config", "x.json"])
    assert code == 2


def test_unknown_keys_exit_3(tmp_path, capsys):
    out = tmp_path / "out"
    for mutate in (
        lambda p: p.update({"extra_top": 1}),
        lambda p: p["kinetics"].update({"extra_block": 1}),
        lambda p: p["kinetics"].update({"units": "natural"}),
        lambda p: p["kinetics"].update({"seed": 3}),
        lambda p: p.update({"seed": 3}),  # scenario takes no seed
        lambda p: p.update({"schema_version": 99}),
    ):
        payload = thermal_payload(out)
        mutate(payload)
        cfg = write_config(tmp_path, payload)
        code = cli.main(["thermal-relax", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 3, err
        assert "error" in last_stderr_json(err)


def traveling_payload(out_dir, **lattice):
    return {
        "schema_version": 1,
        "scenario": "traveling-wave",
        "units": "natural",
        "output": {"dir": str(out_dir)},
        "lattice": {"n_sites": 64, "t_final": 4.0, **lattice},
    }


def photon_payload(out_dir, **field):
    return {
        "schema_version": 1,
        "scenario": "photon-field",
        "units": "natural",
        "seed": 7,
        "output": {"dir": str(out_dir)},
        "field": {"max_index": 1, **field},
    }


def scenario_payload(out_dir, scenario, block, **params):
    return {
        "schema_version": 1,
        "scenario": scenario,
        "units": "natural",
        "output": {"dir": str(out_dir)},
        block: params,
    }


@pytest.mark.parametrize(
    "command, make_payload",
    [
        ("phonon-sim", lambda out: traveling_payload(out, n_sites="64")),
        ("phonon-sim", lambda out: traveling_payload(out, n_sites=64.0)),
        ("phonon-sim", lambda out: traveling_payload(out, n_sites=True)),
        ("thermal-relax", lambda out: thermal_payload(out, n_cells=[16])),
        ("verify", lambda out: {**verify_lattice_payload(out), "seed": "eleven"}),
        ("thermal-relax", lambda out: thermal_payload(out, temperature=True)),
        ("thermal-relax", lambda out: thermal_payload(out, temperature=math.nan)),
        ("thermal-relax", lambda out: thermal_payload(out, x_max=-math.inf)),
        ("thermal-relax", lambda out: {**thermal_payload(out), "units": "kelvin"}),
        ("thermal-relax", lambda out: {**thermal_payload(out), "scenario": ["thermal-planck"]}),
        ("thermal-relax", lambda out: {**thermal_payload(out), "schema_version": True}),
        # max_index 1 leaves 3^3 - 1 = 26 nonzero wavevectors to draw from
        ("photon-field", lambda out: photon_payload(out, n_random_modes=27)),
        ("photon-field", lambda out: photon_payload(out, n_random_modes=0)),
        ("photon-field", lambda out: photon_payload(out, n_random_modes=-3)),
        # size limits, refused before anything is allocated: 1025^2 pairs is just
        # over wigner.MAX_PAIRS, a 10^6-mode grid would take about 29 TiB, and
        # (2 * 4097)^2 cells is just over wigner.MAX_GRID_CELLS
        ("photon-field", lambda out: photon_payload(out, n_random_modes=1025, max_index=5)),
        ("wigner", lambda out: scenario_payload(out, "wigner-gaussian", "wigner", n_modes=10**6)),
        ("phonon-sim", lambda out: scenario_payload(out, "phonon-gaussian", "lattice", n_sites=4097)),
    ],
    ids=[
        "string-int", "float-int", "bool-int", "list-int", "string-seed", "bool-temperature",
        "nan-temperature", "infinite-x-max", "unknown-units", "list-scenario", "bool-schema-version",
        "too-many-modes", "zero-modes", "negative-modes", "too-many-pairs", "huge-wigner-grid",
        "huge-phonon-grid",
    ],
)
def test_bad_values_exit_3_with_one_json_line(tmp_path, capsys, command, make_payload):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, make_payload(out))
    code = cli.main([command, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 3, err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert json.loads(lines[0])["error"] == "validation"
    assert not out.exists()


def test_photon_field_needs_a_mode(tmp_path, capsys):
    cfg = write_config(tmp_path, photon_payload(tmp_path / "out", n_random_modes=0))
    assert cli.main(["photon-field", "--config", str(cfg)]) == 3
    detail = last_stderr_json(capsys.readouterr().err)["detail"]
    assert detail == "n_random_modes must be at least 1"


def test_int_in_float_field_is_kept_as_given(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, thermal_payload(out, temperature=2))
    assert cli.main(["thermal-relax", "--config", str(cfg)]) == 0
    capsys.readouterr()
    temperature = json.loads((out / "effective-config.json").read_text())["kinetics"]["temperature"]
    assert temperature == 2 and isinstance(temperature, int)


def test_scenario_tables_agree():
    routed = sorted((s, cmd) for cmd, names in cli.COMMAND_SCENARIOS.items() for s in names)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| ([a-z-]+) +\| ([a-z-]+) +\| `([a-z]+)` +\|$", readme, re.M)
    assert sorted(s for s, _ in routed) == sorted(experiments.SCENARIOS)
    assert sorted((s, cmd) for s, cmd, _ in rows) == routed
    blocks = {s: block for s, (block, _, _) in experiments.SCENARIOS.items()}
    assert dict((s, block) for s, _, block in rows) == blocks


def test_family_mismatch_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, thermal_payload(tmp_path / "out"))
    code = cli.main(["wigner", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error" in last_stderr_json(err)


def test_physics_rejection_exits_3(tmp_path, capsys):
    payload = {
        "schema_version": 1,
        "scenario": "traveling-wave",
        "units": "natural",
        "output": {"dir": str(tmp_path / "out")},
        "lattice": {"n_sites": 32, "t_final": 1.0, "direction": 0},
    }
    cfg = write_config(tmp_path, payload)
    code = cli.main(["phonon-sim", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error" in last_stderr_json(err)


def test_negative_control_exits_4(tmp_path, capsys):
    cfg = write_config(
        tmp_path, verify_lattice_payload(tmp_path / "out", negative_control=True)
    )
    code = cli.main(["verify", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 4
    assert any(line.startswith("FAIL") for line in captured.out.splitlines())
    assert "error" in last_stderr_json(captured.err)


# ---------------------------------------------------------------------------
# overrides and determinism


def test_units_override_without_touching_file(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, thermal_payload(out))
    before = cfg.read_bytes()
    code = cli.main(["thermal-relax", "--config", str(cfg), "--units", "mev-ps"])
    capsys.readouterr()
    assert code == 0
    assert cfg.read_bytes() == before
    summary = json.loads((out / "summary.json").read_text())
    assert summary["units"] == "mev-ps"
    eff = json.loads((out / "effective-config.json").read_text())
    assert eff["units"] == "mev-ps"


def test_out_override(tmp_path, capsys):
    cfg = write_config(tmp_path, thermal_payload(tmp_path / "ignored"))
    other = tmp_path / "elsewhere"
    code = cli.main(["thermal-relax", "--config", str(cfg), "--out", str(other)])
    capsys.readouterr()
    assert code == 0
    assert (other / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_reruns_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, thermal_payload(out))

    def artifact_bytes():
        assert cli.main(["thermal-relax", "--config", str(cfg)]) == 0
        capsys.readouterr()
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first = artifact_bytes()
    for p in out.iterdir():
        p.unlink()
    second = artifact_bytes()
    assert list(first) == list(second)
    for name in first:
        assert first[name] == second[name], name


def test_effective_config_reproduces_summary(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, thermal_payload(out1))
    assert cli.main(["thermal-relax", "--config", str(cfg)]) == 0
    eff = out1 / "effective-config.json"
    assert cli.main(["thermal-relax", "--config", str(eff), "--out", str(out2)]) == 0
    capsys.readouterr()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    assert s1 == s2


def test_csv_flag_suppresses_tables(tmp_path, capsys):
    out = tmp_path / "out"
    payload = thermal_payload(out)
    payload["output"]["csv"] = False
    cfg = write_config(tmp_path, payload)
    assert cli.main(["thermal-relax", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (out / "summary.json").exists()
    assert not list(out.glob("*.csv"))


def test_verbose_prints_effective_config(tmp_path, capsys):
    cfg = write_config(tmp_path, thermal_payload(tmp_path / "out"))
    assert cli.main(["thermal-relax", "--config", str(cfg), "--verbose"]) == 0
    stdout = capsys.readouterr().out
    assert '"scenario": "thermal-planck"' in stdout


def test_bad_thread_count_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, thermal_payload(tmp_path / "out"))
    code = cli.main(["thermal-relax", "--config", str(cfg), "--threads", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in last_stderr_json(err)


# ---------------------------------------------------------------------------
# real process: entry point, thread independence


def run_proc(args, cwd):
    # the subprocess runs in cwd, so a relative src entry on PYTHONPATH would not resolve
    src = str(Path(wavekit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "wavekit", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120, env=env,
    )


def test_module_entry_point(tmp_path):
    assert run_proc(["--help"], tmp_path).returncode == 0
    cfg = write_config(tmp_path, verify_lattice_payload(tmp_path / "out"))
    proc = run_proc(["verify", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_results_independent_of_thread_count(tmp_path):
    outs = []
    for threads, sub in (("1", "t1"), ("2", "t2")):
        out = tmp_path / sub
        cfg = write_config(tmp_path, thermal_payload(out), name=f"cfg-{sub}.json")
        proc = run_proc(
            ["thermal-relax", "--config", str(cfg), "--threads", threads], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "summary.json").read_text())
    assert outs[0] == outs[1]
