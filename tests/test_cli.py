"""Command-line behavior: exit codes, diagnostics, overrides, determinism."""

import importlib
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import wavekit
from wavekit import cli, experiments, gridio, lattice, wigner


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


SAMPLE_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))

# figure -> (target, tolerance) for each sample config's summary; the traveling-wave
# leapfrog drift is held to (omega_max dt)^2 / 2, which depends on its dt_factor
FIGURE_BOUNDS = {
    "wigner-gaussian": {
        "closed_form_error_t0": (0.0, 1e-6),
        "closed_form_error_t": (0.0, 1e-6),
        "total_error": (0.0, 1e-8),
        "marginal_x_error": (0.0, 1e-8),
        "marginal_p_error": (0.0, 1e-8),
    },
    "phonon-gaussian": {
        "wigner_closed_form_error": (0.0, 1e-6),
        "energy_site_vs_mode": (0.0, 1e-10),
        "energy_action_vs_mode": (0.0, 1e-10),
        "energy_drift_exact": (0.0, 1e-10),
        "eta_drift": (0.0, 1e-10),
        "psi_vs_mode_evolution": (0.0, 1e-10),
    },
    "traveling-wave": {},
    "photon-field": {
        "energy_field_vs_mode": (0.0, 1e-6),
        "energy_wigner_vs_mode": (0.0, 1e-6),
        "number_vs_wigner": (0.0, 1e-6),
        "energy_drift": (0.0, 1e-10),
        "number_drift": (0.0, 1e-10),
    },
    "helicity-cylindrical": {
        "eigencheck_same": (0.0, 1e-12),
        "eigencheck_opposite": (2.0, 1e-12),
        "stencil_order_ratio": (4.0, 0.5),
    },
    "thermal-planck": {"relative_residual": (0.0, 1e-10)},
}


@pytest.mark.parametrize("path", SAMPLE_CONFIGS, ids=lambda path: path.stem)
def test_sample_config_figures_within_bounds(tmp_path, capsys, path):
    scenario = json.loads(path.read_text())["scenario"]
    out = tmp_path / "out"
    code = cli.main([experiments.SCENARIOS[scenario][0], "--config", str(path), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    if scenario.startswith("verify-"):
        assert stdout.splitlines()[-1] == "all checks passed", stdout
        return
    summary = json.loads((out / "summary.json").read_text())
    bounds = dict(FIGURE_BOUNDS[scenario])
    if scenario == "traveling-wave":
        dt_factor = json.loads((out / "effective-config.json").read_text())["lattice"]["dt_factor"]
        bounds["leapfrog_energy_drift"] = (0.0, 0.5 * dt_factor**2)
    misses = {
        name: summary[name]
        for name, (target, tolerance) in bounds.items()
        if not abs(summary[name] - target) <= tolerance
    }
    assert not misses, misses


# ---------------------------------------------------------------------------
# exit codes and diagnostics


# the second file is no UTF-8 text and used to escape as a UnicodeDecodeError traceback,
# the third nests deeper than the decoder recurses and used to escape as a RecursionError
@pytest.mark.parametrize(
    "content",
    [b"{ this is not json", b"\xff\xfe\x00{", b"[" * 100_000],
    ids=["not-json", "not-utf8", "too-deep"],
)
def test_malformed_config_exits_2(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code = cli.main(["thermal-relax", "--config", str(bad)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "parse"
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


# the fields the config schema declares positive, since they later divide by their
# value or count with it: (command, payload, field)
ZERO_VALUES = [
    ("photon-field", lambda out: photon_payload(out, box_length=0), "box_length"),
    ("photon-field", lambda out: photon_payload(out, n_random_modes=0), "n_random_modes"),
    ("wigner", lambda out: scenario_payload(out, "wigner-gaussian", "wigner", ell=0), "ell"),
    ("wigner", lambda out: scenario_payload(
        out, "wigner-gaussian", "wigner", n_modes=0), "n_modes"),
    ("phonon-sim", lambda out: traveling_payload(out, dt_factor=0), "dt_factor"),
    # a zero width used to exit 3 only after numpy warnings on stderr
    ("phonon-sim", lambda out: traveling_payload(out, width=0), "width"),
    # a zero run time used to be refused as an unstable dt, a value the config never sets
    ("phonon-sim", lambda out: traveling_payload(out, t_final=0), "t_final"),
    # named before the stability check, which speaks of dt, a value the config never sets
    ("verify", lambda out: verify_lattice_payload(out, dt_factor=0), "dt_factor"),
    ("verify", lambda out: scenario_payload(out, "verify-helicity", "helicity", v=0), "v"),
    # named before the slab meshes, where a spacing of -1e308 would overflow first
    ("helicity-check", lambda out: scenario_payload(
        out, "helicity-cylindrical", "helicity", spacing=0), "spacing"),
    ("verify", lambda out: scenario_payload(
        out, "verify-helicity", "helicity", spacing=0), "spacing"),
    ("thermal-relax", lambda out: thermal_payload(out, n_cells=0), "n_cells"),
]
ZERO_IDS = [
    "zero-box-length", "zero-modes", "zero-ell", "zero-n-modes", "zero-dt-factor", "zero-width",
    "zero-t-final", "zero-verify-dt-factor", "zero-v", "zero-spacing", "zero-verify-spacing",
    "zero-n-cells",
]


# wigner-gaussian motions whose moved center x0 + v t_final overflows or keeps no digit
# at the grid spacing ell / 2; the ids of the first two keep the name of a transport-phase
# check that is gone, and the center check refuses them: (command, payload, named)
OVERFLOWING_MOTION = [
    ("wigner", lambda out: scenario_payload(out, "wigner-gaussian", "wigner", t_final=1e308),
     "v = 1.0 and t_final = 1e+308"),
    ("wigner", lambda out: scenario_payload(out, "wigner-gaussian", "wigner", t_final=5e307),
     "v = 1.0 and t_final = 5e+307"),
    ("wigner", lambda out: scenario_payload(
        out, "wigner-gaussian", "wigner", v=2.0, t_final=1e308), "v = 2.0 and t_final = 1e+308"),
    # a moved center whose last digit is coarser than ell / 2 leaves the transported grid
    # and its closed form as noise; at ell 1e-300, k0 = k0_cells 2 pi / (ell n) overflows
    ("wigner", lambda out: scenario_payload(out, "wigner-gaussian", "wigner", t_final=1e300),
     "v = 1.0 and t_final = 1e+300"),
    ("wigner", lambda out: scenario_payload(out, "wigner-gaussian", "wigner", v=1e300),
     "v = 1e+300 and t_final = 50.0"),
    ("wigner", lambda out: scenario_payload(out, "wigner-gaussian", "wigner", ell=1e-300),
     "v = 1.0 and t_final = 50.0"),
]
OVERFLOWING_IDS = [
    "overflowing-phase", "overflowing-phase-5e307", "overflowing-center", "coarse-center",
    "coarse-center-fast", "coarse-center-tiny-ell",
]


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
        ("thermal-relax", lambda out: {**thermal_payload(out), "units": 5}),
        ("thermal-relax", lambda out: {**thermal_payload(out), "units": None}),
        ("thermal-relax", lambda out: {**thermal_payload(out), "scenario": ["thermal-planck"]}),
        ("thermal-relax", lambda out: {**thermal_payload(out), "schema_version": True}),
        # max_index 1 leaves 3^3 - 1 = 26 nonzero wavevectors to draw from
        ("photon-field", lambda out: photon_payload(out, n_random_modes=27)),
        ("photon-field", lambda out: photon_payload(out, n_random_modes=-3)),
        # size limits, refused before anything is allocated: 1025^2 pairs is just
        # over wigner.MAX_PAIRS, a 10^6-mode grid would take about 29 TiB, and
        # (2 * 4097)^2 cells is just over wigner.MAX_GRID_CELLS
        ("photon-field", lambda out: photon_payload(out, n_random_modes=1025, max_index=5)),
        ("wigner", lambda out: scenario_payload(out, "wigner-gaussian", "wigner", n_modes=10**6)),
        ("phonon-sim", lambda out: scenario_payload(out, "phonon-gaussian", "lattice", n_sites=4097)),
        # max_index 32 needs a 132^3 field grid, just over em.MAX_GRID_POINTS = 128^3, and
        # mesh_n 129 a 257^3 half-spacing mesh, just over helicity.MAX_MESH_POINTS = 256^3
        ("photon-field", lambda out: photon_payload(out, max_index=32)),
        # refused on its 4 * 10^30 + 1 points a side before any grid length is searched
        ("photon-field", lambda out: photon_payload(out, max_index=10**30)),
        ("helicity-check", lambda out: scenario_payload(
            out, "helicity-cylindrical", "helicity", mesh_n=129)),
        ("verify", lambda out: scenario_payload(out, "verify-helicity", "helicity", mesh_n=129)),
        # 8193 energy samples on 16384 sites are just over lattice.MAX_SERIES_CELLS = 2^27:
        # 8192 steps of dt = 0.1/2, and verify-lattice's sample every 10 steps
        ("phonon-sim", lambda out: traveling_payload(out, n_sites=16384, t_final=409.6)),
        ("verify", lambda out: verify_lattice_payload(out, n_sites=16384, n_steps=81920)),
        # Gaussian packets that leave no action on the sampled modes: centred far off the
        # grid's wavenumbers, or on two sites whose only nonzero cell is the dropped k = 0
        ("phonon-sim", lambda out: scenario_payload(out, "phonon-gaussian", "lattice", k0=100)),
        ("phonon-sim", lambda out: scenario_payload(out, "phonon-gaussian", "lattice", n_sites=2)),
        ("wigner", lambda out: scenario_payload(
            out, "wigner-gaussian", "wigner", k0_cells=100000)),
        # so far off that g (k - k0)^2 overflows: a tail of weight 0, not a numeric failure
        *[("phonon-sim", lambda out, k0=k0: scenario_payload(
            out, "phonon-gaussian", "lattice", k0=k0)) for k0 in (1e300, -1e300, 1e308, -1e308)],
        ("wigner", lambda out: scenario_payload(
            out, "wigner-gaussian", "wigner", k0_cells=10**200)),
        # a traveling-wave bump with no energy to compare against, flat or on two sites
        ("phonon-sim", lambda out: traveling_payload(out, amplitude=0)),
        ("phonon-sim", lambda out: traveling_payload(out, n_sites=2)),
        # a subnormal x_min overflows the 1/x of either model's fixed point and gain
        ("thermal-relax", lambda out: thermal_payload(out, x_min=1e-320, model="rayleigh-jeans")),
        ("thermal-relax", lambda out: thermal_payload(out, x_min=1e-320)),
        # the relaxation time n_folds / (slowest rate) overflows: every rate underflows to 0,
        # or n_folds is too large
        ("thermal-relax", lambda out: thermal_payload(out, gamma=5e-324)),
        ("thermal-relax", lambda out: thermal_payload(out, n_folds=1e308)),
        # 10^12 cells would take 7.28 TiB a grid; experiments.MAX_THERMAL_CELLS = 2^24
        ("thermal-relax", lambda out: thermal_payload(out, n_cells=10**12)),
        # chain constants that lattice.LatticeParams refuses
        ("phonon-sim", lambda out: traveling_payload(out, m=0)),
        ("phonon-sim", lambda out: traveling_payload(out, kappa=-1)),
        ("phonon-sim", lambda out: traveling_payload(out, n_sites=63)),
        ("phonon-sim", lambda out: scenario_payload(out, "phonon-gaussian", "lattice", omega0=-1)),
    ] + [(command, payload) for command, payload, _ in ZERO_VALUES + OVERFLOWING_MOTION],
    ids=[
        "string-int", "float-int", "bool-int", "list-int", "string-seed", "bool-temperature",
        "nan-temperature", "infinite-x-max", "unknown-units", "number-units", "null-units",
        "list-scenario", "bool-schema-version",
        "too-many-modes", "negative-modes", "too-many-pairs", "huge-wigner-grid",
        "huge-phonon-grid", "huge-field-grid", "enormous-field-grid", "huge-helicity-mesh",
        "huge-verify-mesh", "long-wave-series", "long-verify-series", "empty-packet-far-k0",
        "empty-packet-two-sites", "empty-wigner-packet", "empty-packet-k0-1e300",
        "empty-packet-k0-minus-1e300", "empty-packet-k0-1e308", "empty-packet-k0-minus-1e308",
        "empty-wigner-packet-overflowing-k0", "flat-bump", "two-site-bump",
        "subnormal-x-min-rayleigh-jeans", "subnormal-x-min-wien-stimulated", "subnormal-gamma",
        "huge-n-folds", "huge-thermal-grid", "zero-mass", "negative-kappa", "odd-sites",
        "negative-omega0",
    ] + ZERO_IDS + OVERFLOWING_IDS,
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


@pytest.mark.parametrize("command, make_payload, field", ZERO_VALUES, ids=ZERO_IDS)
def test_zero_value_diagnostic_names_the_field(tmp_path, capsys, command, make_payload, field):
    payload = make_payload(tmp_path / "out")
    cfg = write_config(tmp_path, payload)
    assert cli.main([command, "--config", str(cfg)]) == 3
    detail = last_stderr_json(capsys.readouterr().err)["detail"]
    block = experiments.SCENARIOS[payload["scenario"]][1]
    assert detail == f"bad value in {block}: {field} must be positive, got 0"


@pytest.mark.parametrize("command, make_payload, named", OVERFLOWING_MOTION, ids=OVERFLOWING_IDS)
def test_overflowing_motion_names_v_and_t_final(tmp_path, capsys, command, make_payload, named):
    payload = make_payload(tmp_path / "out")
    cfg = write_config(tmp_path, payload)
    assert cli.main([command, "--config", str(cfg)]) == 3
    detail = last_stderr_json(capsys.readouterr().err)["detail"]
    assert detail.startswith(named) and "overflow" in detail
    assert detail.endswith(f"at ell = {payload['wigner'].get('ell', 1.0)!r}")


def test_empty_half_window_names_its_interval(tmp_path, capsys):
    # one mode on a ring of 1 has rows at x = 0 and 0.5, and the half window about the moved
    # center 0.5 + 0.3 falls between them
    out = tmp_path / "out"
    payload = scenario_payload(out, "wigner-gaussian", "wigner", n_modes=1, k0_cells=0, t_final=0.3)
    assert cli.main(["wigner", "--config", str(write_config(tmp_path, payload))]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "error": "validation",
        "detail": "window [0.55, 1.05) contains none of the grid's x in [0.0, 0.5]",
    }
    assert not out.exists()


def test_positive_fields_match_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("must be positive:", 1)[1].split(".", 1)[0]
    listed, scenario = set(), None
    for name, field in re.findall(r"([a-z]+(?:-[a-z]+)+)|`(\w+)`", sentence):
        scenario = name or scenario
        if field:
            listed.add((scenario, field))
    declared = {
        (scenario, field)
        for scenario, (_, _, cls, _) in experiments.SCENARIOS.items()
        for field, hint in experiments._type_hints(cls).items()
        if experiments._misfit(0, hint) == "positive"
    }
    assert listed == declared


@pytest.mark.parametrize("where", ["config", "flag"])
def test_unwritable_output_dir_exits_2_with_one_json_line(tmp_path, capsys, where):
    # an output directory that is an existing file, or lies beneath one
    blocker = tmp_path / "taken"
    blocker.write_text("")
    if where == "config":
        out, argv = blocker, []
    else:
        out, argv = blocker / "out", ["--out", str(blocker / "out")]
    cfg = write_config(tmp_path, thermal_payload(out))
    code = cli.main(["thermal-relax", "--config", str(cfg), *argv])
    err = capsys.readouterr().err
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert str(out) in json.loads(lines[0])["detail"]
    assert blocker.read_text() == ""


@pytest.mark.parametrize(
    "kinetics",
    [{"x_max": 2000.0}, {"x_max": 800.0, "init": "planck", "model": "wien"}],
    ids=["far-target", "far-planck-init"],
)
def test_far_thermal_tail_runs_without_warnings(tmp_path, capsys, kinetics):
    # 1/expm1(x) overflows past x ~ 709 to its exact limit 0, which is no failure
    cfg = write_config(tmp_path, thermal_payload(tmp_path / "out", **kinetics))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["thermal-relax", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


# the closed form's momentum factor exp(-g (p - hbar k0)^2 / hbar^2) overflows its exponent
# at g 1e308, a tail of weight 0 as in the packet itself; a runner reports its figures
# however large, and only the verify scenarios judge them
@pytest.mark.parametrize(
    "command, scenario, block, figure",
    [
        ("phonon-sim", "phonon-gaussian", "lattice", "wigner_closed_form_error"),
        ("wigner", "wigner-gaussian", "wigner", "closed_form_error_t"),
    ],
    ids=["phonon-gaussian", "wigner-gaussian"],
)
def test_huge_packet_g_runs_without_warnings(tmp_path, capsys, command, scenario, block, figure):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, scenario_payload(out, scenario, block, g=1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert math.isfinite(json.loads((out / "summary.json").read_text())[figure])


# finite motions given by extreme factors: v 1e308 in t_final 1e-300 moves the packet by
# 1e8, and verify-helicity precesses by omega t = 0.7 whatever the subnormal omega = v k
@pytest.mark.parametrize(
    "command, scenario, block, params",
    [
        ("wigner", "wigner-gaussian", "wigner", {"v": 1e308, "t_final": 1e-300}),
        *[("verify", "verify-helicity", "helicity", {"v": v}) for v in (5e-324, 1e-320, 1e-310)],
    ],
    ids=["fast-short-motion", "subnormal-helicity-v", "subnormal-helicity-v-1e-320",
         "subnormal-helicity-v-1e-310"],
)
def test_finite_motions_run_without_warnings(tmp_path, capsys, command, scenario, block, params):
    cfg = write_config(tmp_path, scenario_payload(tmp_path / "out", scenario, block, **params))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "kinetics, named",
    [
        ({"x_min": 1e-320, "model": "rayleigh-jeans"}, "x_min = 1e-320"),
        ({"x_min": 1e-320}, "x_min = 1e-320"),
        ({"gamma": 5e-324}, "gamma = 5e-324"),
        ({"n_folds": 1e308}, "n_folds = 1e+308"),
        # the top momentum x_max k_B T / v of the grid overflows
        ({"x_max": 1e308, "temperature": 10.0}, "x_max = 1e+308, temperature = 10.0"),
        ({"temperature": 1e308}, "x_max = 8.0, temperature = 1e+308"),
    ],
    ids=[
        "subnormal-x-min-rayleigh-jeans", "subnormal-x-min", "subnormal-gamma", "huge-n-folds",
        "huge-x-max", "huge-temperature",
    ],
)
def test_non_finite_thermal_refusal_names_its_cause(tmp_path, capsys, kinetics, named):
    cfg = write_config(tmp_path, thermal_payload(tmp_path / "out", **kinetics))
    assert cli.main(["thermal-relax", "--config", str(cfg)]) == 3
    detail = last_stderr_json(capsys.readouterr().err)["detail"]
    assert named in detail
    assert ("x_min" in detail) == ("x_min" in kinetics)


def run_summary(scenario, **params):
    block = experiments.SCENARIOS[scenario][1]
    payload = {"schema_version": 1, "scenario": scenario, "units": "natural", block: params}
    return experiments.run_config(experiments.parse_config(payload))[0]


# a position on the periodic ring exists only mod its length ell n, so packet and bump
# centers anywhere on the real line are measured on the ring
@pytest.mark.parametrize(
    "command, scenario, block, params",
    [
        # the default t_final 50 moves the center of a 64-cell ring from 32 to 82, i.e. 18
        ("wigner", "wigner-gaussian", "wigner", {"n_modes": 64, "k0_cells": 16}),
        # x0 1000 on 256 sites is 232
        ("phonon-sim", "phonon-gaussian", "lattice", {"x0": 1000}),
    ],
    ids=["moved-center", "far-x0"],
)
def test_packet_off_the_ring_wraps_onto_it(tmp_path, capsys, command, scenario, block, params):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, scenario_payload(out, scenario, block, **params))
    assert cli.main([command, "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "summary.json").read_text())["scenario"] == scenario


@pytest.mark.parametrize("scenario, length", [("wigner-gaussian", 512), ("phonon-gaussian", 256)])
def test_packet_start_is_taken_mod_the_ring(scenario, length):
    # 100.3 + turns is inexact, so the wrapped starts differ in their last bits
    base = run_summary(scenario, x0=100.3)
    for turns in (1, -1):
        assert run_summary(scenario, x0=100.3 + turns * length) == pytest.approx(
            base, rel=1e-12, abs=1e-12
        )


def test_packet_moved_past_the_ring_end_meets_the_closed_form():
    # v t_final = 400 moves the center from 256 to 656 on a ring of 512, i.e. to 144
    summary = run_summary("wigner-gaussian", n_modes=512, t_final=400.0)
    assert summary["closed_form_error_t0"] <= 1e-6
    assert summary["closed_form_error_t"] <= 1e-6


def test_bump_center_is_taken_mod_the_ring():
    # the default center is 512 / 4 = 128 sites; a whole-site shift moves the bump rigidly
    base = run_summary("traveling-wave")
    for center in (0.0, 511.0, -3.0, 3 * 512.0):
        summary = run_summary("traveling-wave", center=center)
        assert summary["transport_error"] == pytest.approx(base["transport_error"], rel=1e-9)
        assert summary["chirality_leakage"] <= 1e-12


def test_int_in_float_field_is_kept_as_given(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, thermal_payload(out, temperature=2))
    assert cli.main(["thermal-relax", "--config", str(cfg)]) == 0
    capsys.readouterr()
    temperature = json.loads((out / "effective-config.json").read_text())["kinetics"]["temperature"]
    assert temperature == 2 and isinstance(temperature, int)


def test_scenario_tables_agree(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| ([a-z-]+) +\| ([a-z-]+) +\| `([a-z]+)` +\| (.+?) +\|$", readme, re.M)
    table = [(s, cmd, block) for s, (cmd, block, _, _) in experiments.SCENARIOS.items()]
    assert [row[:3] for row in rows] == table
    # the artifacts column: what a sample config writes besides the two JSON files
    listed = {s: [] if files == "none" else re.findall(r"`([^`]+)`", files) for s, *_, files in rows}
    sampled = set()
    for path in SAMPLE_CONFIGS:
        scenario = json.loads(path.read_text())["scenario"]
        out = tmp_path / path.stem
        command = experiments.SCENARIOS[scenario][0]
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        written = [
            p.name for p in sorted(out.glob("*"))
            if p.name not in ("summary.json", "effective-config.json")
        ]
        assert written == listed[scenario], path.stem
        sampled.add(scenario)
    assert sampled == set(listed)


def test_readme_grid_format_version_matches_gridio():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert re.findall(r"grid format version (\d+)", readme) == [str(gridio._VERSION)]


# modules whose README "Library layout" bullet ends with "Public:" and their names;
# experiments and cli answer to the scenario table instead
LAYOUT_MODULES = ("lattice", "wigner", "em", "helicity", "kinetics", "gridio", "units")


def public_names(module):
    return sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    )


def test_public_surface_matches_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    layout = readme.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for bullet in re.split(r"^- ", layout, flags=re.M)[1:]:
        bullets[re.match(r"`(\w+)`", bullet).group(1)] = bullet
    for name in LAYOUT_MODULES:
        _, public, listed = bullets[name].partition("Public:")
        assert public, f"README bullet for {name} has no Public: list"
        module = importlib.import_module(f"wavekit.{name}")
        assert sorted(re.findall(r"`(\w+)`", listed)) == public_names(module), name


@pytest.mark.parametrize(
    "value", [[1], None, 5, "thermal"], ids=["list", "null", "number", "string"]
)
@pytest.mark.parametrize("where", ["top level", "output", "kinetics"])
def test_non_object_blocks_exit_3(tmp_path, capsys, monkeypatch, where, value):
    monkeypatch.chdir(tmp_path)
    payload = thermal_payload(tmp_path / "out")
    cfg = write_config(tmp_path, value if where == "top level" else {**payload, where: value})
    assert cli.main(["thermal-relax", "--config", str(cfg)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "validation", "detail": f"{where} must be an object"}
    assert [path.name for path in tmp_path.iterdir()] == [cfg.name]


def test_non_finite_summary_exits_4_and_writes_nothing(tmp_path, capsys, monkeypatch):
    command, block, cls, _ = experiments.SCENARIOS["thermal-planck"]

    def runner(cfg, units):
        return {"figure": math.inf}, {}

    monkeypatch.setitem(experiments.SCENARIOS, "thermal-planck", (command, block, cls, runner))
    out = tmp_path / "out"
    cfg = write_config(tmp_path, thermal_payload(out))
    assert cli.main(["thermal-relax", "--config", str(cfg)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [json.loads(line) for line in captured.err.splitlines()] == [
        {"error": "numeric", "detail": "non-finite results: figure"}
    ]
    assert not out.exists()


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


# Python float arithmetic in a runner that overflows or divides by zero; each used to
# escape as a traceback with exit 1.  The lattice constants whose top frequency, ring
# length, wavenumber step or 1/m overflows used to exit 3 or 4 naming dt, the packet,
# a non-finite state or NaN invariants instead.
@pytest.mark.parametrize(
    "command, scenario, block, params, raised",
    [
        ("thermal-relax", "thermal-planck", "kinetics", {"temperature": 1e300}, "OverflowError"),
        ("thermal-relax", "thermal-planck", "kinetics", {"v": 1e-300}, "OverflowError"),
        ("photon-field", "photon-field", "field", {"eps": 5e-324}, "OverflowError"),
        ("phonon-sim", "traveling-wave", "lattice", {"width": 1e300}, "OverflowError"),
        ("phonon-sim", "traveling-wave", "lattice", {"kappa": 1e308}, "OverflowError"),
        ("phonon-sim", "phonon-gaussian", "lattice", {"omega0": 1e300}, "OverflowError"),
        ("verify", "verify-lattice", "lattice", {"omega0": 1e300}, "OverflowError"),
        ("verify", "verify-helicity", "helicity", {"dt": 1e300}, "OverflowError"),
        ("verify", "verify-lattice", "lattice", {"kappa": 1e308}, "OverflowError"),
        ("phonon-sim", "phonon-gaussian", "lattice", {"kappa": 1e308}, "OverflowError"),
        ("verify", "verify-lattice", "lattice", {"ell": 5e-324}, "OverflowError"),
        ("phonon-sim", "phonon-gaussian", "lattice", {"ell": 5e-324}, "OverflowError"),
        ("phonon-sim", "traveling-wave", "lattice", {"ell": 5e-324}, "OverflowError"),
        ("wigner", "wigner-gaussian", "wigner", {"ell": 5e-324}, "OverflowError"),
        # the wavenumber scale 2 pi / ell overflows though 2 pi / (ell n) does not
        ("wigner", "wigner-gaussian", "wigner", {"ell": 1e-308}, "OverflowError"),
        ("wigner", "wigner-gaussian", "wigner", {"ell": 2e-308}, "OverflowError"),
        ("phonon-sim", "traveling-wave", "lattice", {"ell": 1e308}, "OverflowError"),
        ("wigner", "wigner-gaussian", "wigner", {"ell": 1e308}, "OverflowError"),
        ("phonon-sim", "phonon-gaussian", "lattice", {"ell": 1e308}, "OverflowError"),
        ("verify", "verify-lattice", "lattice", {"ell": 1e308}, "OverflowError"),
        ("verify", "verify-lattice", "lattice", {"m": 5e-324}, "OverflowError"),
        ("phonon-sim", "phonon-gaussian", "lattice", {"m": 5e-324}, "OverflowError"),
        ("phonon-sim", "traveling-wave", "lattice", {"m": 5e-324}, "OverflowError"),
    ],
    ids=[
        "huge-temperature", "tiny-thermal-v", "subnormal-eps", "huge-width", "huge-kappa",
        "huge-phonon-omega0", "huge-verify-omega0", "huge-verify-dt", "huge-verify-kappa",
        "huge-phonon-kappa", "subnormal-verify-ell", "subnormal-phonon-ell",
        "subnormal-traveling-ell", "subnormal-wigner-ell", "tiny-wigner-ell",
        "tiny-wigner-ell-2e-308", "huge-traveling-ell",
        "huge-wigner-ell", "huge-phonon-ell", "huge-verify-ell", "subnormal-verify-m",
        "subnormal-phonon-m", "subnormal-traveling-m",
    ],
)
def test_float_overflow_exits_4_with_one_json_line(
    tmp_path, capsys, command, scenario, block, params, raised
):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, scenario_payload(out, scenario, block, **params))
    code = cli.main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 4, captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    diagnostic = json.loads(lines[0])
    assert diagnostic["error"] == "numeric"
    assert scenario in diagnostic["detail"] and raised in diagnostic["detail"]
    if set(params) <= {"omega0", "kappa", "ell", "m"}:
        # the refusal of overflowing lattice constants names the field
        assert all(f"{name} = " in diagnostic["detail"] for name in params), diagnostic
    assert captured.out == "" and not out.exists()


# an edge-value sweep: one numeric field of one scenario config at a time, every other
# field at its default.  Each run exits 0, 3 or 4, a failure writes exactly one JSON line
# and no files, and no run raises a warning: numpy's overflow, division by zero and
# invalid operations stop the run at the CLI's numeric boundary instead
SWEEP_REALS = (0, 5e-324, 1e-300, 1e300)
SWEEP_INTS = (0, 1, 2)
SWEEP_ERRORS = {3: "validation", 4: "numeric"}


def scalar_types(hint):
    """The JSON scalar types a field annotation admits, through Annotated and X | None."""
    if typing.get_origin(hint) is typing.Annotated:
        return scalar_types(typing.get_args(hint)[0])
    if typing.get_origin(hint) is typing.Literal:
        return set()
    args = typing.get_args(hint)
    return set().union(*map(scalar_types, args)) if args else {hint}


@pytest.mark.parametrize("scenario", list(experiments.SCENARIOS))
def test_edge_value_sweep_fails_cleanly(tmp_path, capsys, scenario):
    command, block, cls, _ = experiments.SCENARIOS[scenario]
    out, ran = tmp_path / "out", 0
    for field, hint in experiments._type_hints(cls).items():
        types = scalar_types(hint)
        for value in SWEEP_REALS if float in types else SWEEP_INTS if int in types else ():
            payload = scenario_payload(out, scenario, block)
            (payload if field == "seed" else payload[block])[field] = value
            cfg = write_config(tmp_path, payload)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = cli.main([command, "--config", str(cfg)])
            err = capsys.readouterr().err
            where = f"{field} = {value!r}: {err}"
            if code == 0:
                assert err == "", where
            else:
                lines = err.splitlines()
                assert code in SWEEP_ERRORS and len(lines) == 1, where
                assert json.loads(lines[0])["error"] == SWEEP_ERRORS[code], where
                assert not out.exists(), where
            shutil.rmtree(out, ignore_errors=True)
            ran += 1
    assert ran


# the helicity stencil checks reduce their max-norms slab by slab; these inputs pin the
# outcomes that a slab loop gets wrong when it visits no slab on a mesh under 3 planes or
# skips the equation residual's dt refusal.  The stencils multiply by 1 / spacing and
# 1 / dt, so a subnormal spacing or dt is refused by name before any mesh is built (it
# exited 4 on numpy's "overflow encountered in divide"); a subnormal k stops at the CLI's
# numeric boundary, at its first overflow.
@pytest.mark.parametrize(
    "command, scenario, params, code, diagnostic",
    [
        ("helicity-check", "helicity-cylindrical", {"mesh_n": 2}, 3,
         {"error": "validation", "detail": "need at least 3 points per axis"}),
        ("verify", "verify-helicity", {"mesh_n": 2}, 3,
         {"error": "validation", "detail": "need at least 3 points per axis"}),
        ("helicity-check", "helicity-cylindrical", {"dt": 0}, 3,
         {"error": "validation", "detail": "dt must be positive"}),
        ("verify", "verify-helicity", {"dt": 0}, 3,
         {"error": "validation", "detail": "dt must be positive"}),
        ("helicity-check", "helicity-cylindrical", {"spacing": 1e-320}, 3,
         {"error": "validation",
          "detail": "spacing = 1e-320 is too small: its reciprocal overflows"}),
        ("helicity-check", "helicity-cylindrical", {"k": 5e-324}, 4,
         {"error": "numeric", "detail": "helicity-cylindrical failed: FloatingPointError:"
          " overflow encountered in scalar divide"}),
        ("verify", "verify-helicity", {"spacing": 1e-320}, 3,
         {"error": "validation",
          "detail": "spacing = 1e-320 is too small: its reciprocal overflows"}),
        ("helicity-check", "helicity-cylindrical", {"dt": 1e-310}, 3,
         {"error": "validation",
          "detail": "dt = 1e-310 is too small: its reciprocal overflows"}),
        ("verify", "verify-helicity", {"dt": 1e-310}, 3,
         {"error": "validation",
          "detail": "dt = 1e-310 is too small: its reciprocal overflows"}),
        ("helicity-check", "helicity-cylindrical", {"spacing": -1e308}, 3,
         {"error": "validation",
          "detail": "bad value in helicity: spacing must be positive, got -1e+308"}),
        ("verify", "verify-helicity", {"spacing": -1e308}, 3,
         {"error": "validation",
          "detail": "bad value in helicity: spacing must be positive, got -1e+308"}),
    ],
    ids=[
        "two-plane-mesh", "two-plane-verify-mesh", "zero-dt", "zero-verify-dt",
        "subnormal-spacing", "subnormal-k", "subnormal-verify-spacing", "huge-negative-spacing",
        "huge-negative-verify-spacing", "subnormal-dt", "subnormal-verify-dt",
    ],
)
def test_helicity_edge_outcomes(tmp_path, capsys, command, scenario, params, code, diagnostic):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, scenario_payload(out, scenario, "helicity", **params))
    assert cli.main([command, "--config", str(cfg)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in lines] == [diagnostic]
    assert not out.exists()


# ---------------------------------------------------------------------------
# overrides and determinism


# --out replaces the file's output directory but excuses neither a bad one nor any
# other bad value in the file
@pytest.mark.parametrize(
    "key, value, named",
    [("units", "kelvin", "units"), ("output", {"dir": 5}, "dir")],
    ids=["unknown-units", "number-output-dir"],
)
def test_override_still_checks_the_file_value(tmp_path, capsys, key, value, named):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**thermal_payload(out), key: value})
    code = cli.main(["thermal-relax", "--config", str(cfg), "--out", str(out)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 3, lines
    assert len(lines) == 1, lines
    diagnostic = json.loads(lines[0])
    assert diagnostic["error"] == "validation" and f"{named} must be" in diagnostic["detail"]
    assert not out.exists()


def test_out_override(tmp_path, capsys):
    cfg = write_config(tmp_path, thermal_payload(tmp_path / "ignored"))
    other = tmp_path / "elsewhere"
    code = cli.main(["thermal-relax", "--config", str(cfg), "--out", str(other)])
    capsys.readouterr()
    assert code == 0
    assert (other / "summary.json").exists()
    assert not (tmp_path / "ignored").exists()


def test_reruns_are_byte_identical(tmp_path, capsys):
    def rerun(path, out):
        # the same output directory both times, since effective-config.json records it
        for p in out.glob("*"):
            p.unlink()
        command = experiments.SCENARIOS[json.loads(path.read_text())["scenario"]][0]
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
        # verify runs write no files, so their printed checks are compared as well
        return capsys.readouterr().out, {p.name: p.read_bytes() for p in sorted(out.glob("*"))}

    for path in SAMPLE_CONFIGS:
        out = tmp_path / path.stem
        assert rerun(path, out) == rerun(path, out), path.stem


def test_random_phases_are_seeded(tmp_path, capsys):
    # the granular phase-space picture: random mode phases drawn from the top-level seed
    out = tmp_path / "out"

    def run(seed=None):
        payload = scenario_payload(out, "phonon-gaussian", "lattice", n_sites=128)
        if seed is not None:
            payload["lattice"]["random_phases"] = True
            payload["seed"] = seed
        for p in out.glob("*"):
            p.unlink()
        assert cli.main(["phonon-sim", "--config", str(write_config(tmp_path, payload))]) == 0
        capsys.readouterr()
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    coherent, first, again, other = run(), run(1), run(1), run(2)
    assert first == again
    assert first["wigner.wgrd"] != other["wigner.wgrd"]
    summary = json.loads(first["summary.json"])
    assert abs(summary["quanta"] - json.loads(coherent["summary.json"])["quanta"]) <= 1e-12
    for key in ("energy_site_vs_mode", "energy_action_vs_mode", "energy_drift_exact"):
        assert summary[key] <= 1e-10, key


def test_phonon_crop_is_the_windowed_transform(tmp_path, capsys):
    # wigner.wgrd holds the packet's transform within 4 sigma of its center in x and in p;
    # the runner copies it out of the row blocks as they go by, and the packet at x0 = 3
    # has its half window and crop cut by the ring's edge
    for params in ({"n_sites": 128}, {"n_sites": 512, "x0": 3.0}):
        out = tmp_path / str(len(params))
        payload = scenario_payload(out, "phonon-gaussian", "lattice", **params)
        assert cli.main(["phonon-sim", "--config", str(write_config(tmp_path, payload))]) == 0
        capsys.readouterr()
        crop = gridio.read_wigner_grid(out / "wigner.wgrd")

        cfg = experiments.PhononGaussianConfig(**params)
        lattice_params = lattice.LatticeParams(
            m=cfg.m, omega0=cfg.omega0, kappa=cfg.kappa, ell=cfg.ell, n_sites=cfg.n_sites
        )
        x0 = lattice_params.length / 2.0 if cfg.x0 is None else cfg.x0
        gp = wigner.GaussianEtaParams(n_quanta=cfg.n_quanta, g=cfg.g, k0=cfg.k0, x0=x0)
        raw = wigner.gaussian_action_wave(gp, cfg.ell, cfg.n_sites, 1.0)
        wave = lattice.psi_from_modes(lattice.modes_from_psi(raw, lattice_params), 1.0)
        # all 2n rows transformed (the window reaches past row n, where wigner_1d mirrors),
        # then the crop as window() and the p mask take it
        prefactor = wigner._number_prefactor(wave)
        grid = wigner._doubled_grid_transform(wave, prefactor, [(0.0, lattice_params.length)])
        sigma_x, sigma_p = math.sqrt(cfg.g / 2.0), 1.0 / math.sqrt(2.0 * cfg.g)
        window = grid.window(x0 - 4.0 * sigma_x, x0 + 4.0 * sigma_x)
        p_mask = np.abs(window.p - cfg.k0) <= 4.0 * sigma_p
        assert crop.f.size > 0
        assert np.array_equal(crop.x, window.x)
        assert np.array_equal(crop.p, window.p[p_mask])
        assert np.array_equal(crop.f, window.f[:, p_mask])
        assert crop.full_period is False and crop.hbar == 1.0
        assert crop.marginal_defect == grid.marginal_defect


# wigner-gaussian holds no grid: its grid.wgrd rows are transformed again as they are
# written, and a row's numbers do not depend on its block, so the file is the held grid's
@pytest.mark.parametrize("n_modes", [63, 64, 512])
def test_streamed_grid_file_is_the_held_grids(tmp_path, capsys, n_modes):
    out = tmp_path / "out"
    params = {"n_modes": n_modes, "k0_cells": n_modes // 4, "g": n_modes / 5.0}
    payload = scenario_payload(out, "wigner-gaussian", "wigner", **params)
    assert cli.main(["wigner", "--config", str(write_config(tmp_path, payload))]) == 0
    capsys.readouterr()
    cfg = experiments.WignerGaussianConfig(**params)
    length = cfg.ell * n_modes
    gp = wigner.GaussianEtaParams(
        n_quanta=cfg.n_quanta, g=cfg.g, k0=cfg.k0_cells * (2.0 * math.pi / length), x0=length / 2.0
    )
    grid = wigner.wigner_1d(wigner.gaussian_action_wave(gp, cfg.ell, n_modes, 1.0))
    held = tmp_path / "held.wgrd"
    gridio.write_wigner_grid(held, grid.x, grid.p, (grid.f,), grid.hbar, grid.marginal_defect)
    assert (out / "grid.wgrd").read_bytes() == held.read_bytes()


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


def test_unknown_option_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, thermal_payload(out))
    code = cli.main(["thermal-relax", "--config", str(cfg), "--threads", "2"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
    assert not out.exists()


# the config file alone sets a run: there is no unit or verbosity option, and no output
# flag that switches an artifact format off
@pytest.mark.parametrize(
    "argv", [["--units", "natural"], ["--verbose"]], ids=["units-option", "verbose-option"]
)
def test_removed_options_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, thermal_payload(out))
    code = cli.main(["thermal-relax", "--config", str(cfg), *argv])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert [json.loads(line) for line in lines] == [
        {"error": "usage", "detail": f"unrecognized arguments: {' '.join(argv)}"}
    ]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["csv", "grid"])
def test_removed_output_flags_exit_3(tmp_path, capsys, flag):
    out = tmp_path / "out"
    payload = thermal_payload(out)
    payload["output"][flag] = False
    code = cli.main(["thermal-relax", "--config", str(write_config(tmp_path, payload))])
    lines = capsys.readouterr().err.splitlines()
    assert code == 3
    assert [json.loads(line) for line in lines] == [
        {"error": "validation", "detail": f"unknown keys ['{flag}'] in output"}
    ]
    assert not out.exists()


def test_cli_usage_matches_readme(monkeypatch):
    # README documents the command line by the parser's own usage line, so every option
    # and metavar listed there is one the parser takes, and the other way round
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = re.findall(r"^usage: wavekit .*$", readme, re.M)
    monkeypatch.setenv("COLUMNS", "200")  # one unwrapped line
    assert documented == [cli._PARSER.format_usage().strip()]


# ---------------------------------------------------------------------------
# real process: entry point, thread independence


def run_python(args, cwd, **env_vars):
    # the subprocess runs in cwd, so a relative src entry on PYTHONPATH would not resolve
    src = str(Path(wavekit.__file__).resolve().parents[1])
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=120, env=env,
    )


def run_proc(args, cwd, **env_vars):
    return run_python(["-m", "wavekit", *args], cwd, **env_vars)


RUN_SAMPLE_CONFIGS = """
import json, sys
from pathlib import Path
from wavekit import cli, experiments

command = {s: row[0] for s, row in experiments.SCENARIOS.items()}
configs = sorted(Path(sys.argv[1]).glob("*.json"))
for cfg in configs:
    scenario = json.loads(cfg.read_text())["scenario"]
    out = str(Path(sys.argv[2]) / cfg.stem)
    assert cli.main([command[scenario], "--config", str(cfg), "--out", out]) == 0, cfg.name
print(json.dumps({"ran": len(configs), "scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""


def test_sample_configs_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    configs = Path(__file__).resolve().parents[1] / "configs"
    proc = run_python(["-c", RUN_SAMPLE_CONFIGS, str(configs), str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"ran": 9, "scipy": []}


def test_help_lists_every_command(tmp_path):
    # wide enough that argparse does not wrap the command list at a hyphen
    proc = run_proc(["--help"], tmp_path, COLUMNS="200")
    assert proc.returncode == 0, proc.stderr
    for command, *_ in experiments.SCENARIOS.values():
        assert command in proc.stdout, command


def test_module_entry_point(tmp_path):
    cfg = write_config(tmp_path, verify_lattice_payload(tmp_path / "out"))
    proc = run_proc(["verify", "--config", str(cfg)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout


def test_results_independent_of_thread_count(tmp_path):
    # thread pools follow the standard variables, read when numpy loads its BLAS
    outs = []
    for threads, sub in (("1", "t1"), ("2", "t2")):
        out = tmp_path / sub
        cfg = write_config(tmp_path, thermal_payload(out), name=f"cfg-{sub}.json")
        proc = run_proc(
            ["thermal-relax", "--config", str(cfg)], tmp_path,
            OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "summary.json").read_text())
    assert outs[0] == outs[1]
