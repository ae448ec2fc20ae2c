"""Command-line behavior: exit codes, diagnostics, overrides, determinism."""

import importlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
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
    if scenario == "helicity-cylindrical":
        # F = i curl U against i k U is the Beltrami defect times i, so the two agree exactly
        assert summary["field_vs_ikU"] == summary["beltrami_residual"]


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
    ("thermal-relax", lambda out: thermal_payload(out, n_cells=0), "n_cells"),
]
ZERO_IDS = [
    "zero-box-length", "zero-modes", "zero-ell", "zero-n-modes", "zero-dt-factor", "zero-width",
    "zero-t-final", "zero-verify-dt-factor", "zero-v", "zero-n-cells",
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
    ] + [(command, make_payload) for command, make_payload, _ in ZERO_VALUES],
    ids=[
        "string-int", "float-int", "bool-int", "list-int", "string-seed", "bool-temperature",
        "nan-temperature", "infinite-x-max", "unknown-units", "list-scenario", "bool-schema-version",
        "too-many-modes", "negative-modes", "too-many-pairs", "huge-wigner-grid",
        "huge-phonon-grid", "huge-field-grid", "enormous-field-grid", "huge-helicity-mesh",
        "huge-verify-mesh", "long-wave-series", "long-verify-series", "empty-packet-far-k0",
        "empty-packet-two-sites", "empty-wigner-packet", "flat-bump", "two-site-bump",
        "subnormal-x-min-rayleigh-jeans", "subnormal-x-min-wien-stimulated", "subnormal-gamma",
        "huge-n-folds", "huge-thermal-grid", "zero-mass", "negative-kappa", "odd-sites",
        "negative-omega0",
    ] + ZERO_IDS,
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


@pytest.mark.parametrize(
    "kinetics, named",
    [
        ({"x_min": 1e-320, "model": "rayleigh-jeans"}, "x_min = 1e-320"),
        ({"x_min": 1e-320}, "x_min = 1e-320"),
        ({"gamma": 5e-324}, "gamma = 5e-324"),
        ({"n_folds": 1e308}, "n_folds = 1e+308"),
    ],
    ids=["subnormal-x-min-rayleigh-jeans", "subnormal-x-min", "subnormal-gamma", "huge-n-folds"],
)
def test_non_finite_thermal_refusal_names_its_cause(tmp_path, capsys, kinetics, named):
    cfg = write_config(tmp_path, thermal_payload(tmp_path / "out", **kinetics))
    assert cli.main(["thermal-relax", "--config", str(cfg)]) == 3
    detail = last_stderr_json(capsys.readouterr().err)["detail"]
    assert named in detail
    assert ("x_min" in detail) == ("x_min" in kinetics)


@pytest.mark.parametrize(
    "params, named",
    [
        # the default t_final 50 moves the center of a 64-cell ring from 32 to 82
        ({"n_modes": 64, "k0_cells": 16}, "v = 1.0 and t_final = 50.0"),
        ({"x0": 1000}, "x0 = 1000"),
    ],
    ids=["moved-center", "far-x0"],
)
def test_packet_off_the_ring_names_its_fields(tmp_path, capsys, monkeypatch, params, named):
    # the packet center is not wrapped onto the ring, so its half window holds no grid point
    monkeypatch.setattr(experiments.wigner, "evolve_wigner_group_velocity", None)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, scenario_payload(out, "wigner-gaussian", "wigner", **params))
    assert cli.main(["wigner", "--config", str(cfg)]) == 3  # refused before the transport
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    detail = json.loads(lines[0])["detail"]
    assert detail.startswith(named) and "off the ring" in detail
    assert not out.exists()


def test_int_in_float_field_is_kept_as_given(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, thermal_payload(out, temperature=2))
    assert cli.main(["thermal-relax", "--config", str(cfg)]) == 0
    capsys.readouterr()
    temperature = json.loads((out / "effective-config.json").read_text())["kinetics"]["temperature"]
    assert temperature == 2 and isinstance(temperature, int)


def test_scenario_tables_agree():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| ([a-z-]+) +\| ([a-z-]+) +\| `([a-z]+)` +\|$", readme, re.M)
    table = [(s, cmd, block) for s, (cmd, block, _, _) in experiments.SCENARIOS.items()]
    assert rows == table


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
        "subnormal-traveling-ell", "subnormal-wigner-ell", "huge-traveling-ell",
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


# the helicity stencil checks reduce their max-norms slab by slab; these inputs pin the
# outcomes that a slab loop gets wrong when it drops a slab's NaN, divides numpy scalars,
# visits no slab on a mesh under 3 planes, or skips the equation residual's dt refusal
NONFINITE_HELICITY = (
    "beltrami_residual, beltrami_residual_half_h, stencil_order_ratio, field_vs_ikU, "
    "equation_residual"
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        ("helicity-check", "helicity-cylindrical", {"spacing": 1e-320}, 4,
         {"error": "numeric", "detail": f"non-finite results: {NONFINITE_HELICITY}"}),
        ("helicity-check", "helicity-cylindrical", {"k": 5e-324}, 4,
         {"error": "numeric", "detail": f"non-finite results: {NONFINITE_HELICITY}"}),
        ("verify", "verify-helicity", {"spacing": 1e-320}, 4,
         {"error": "numeric", "detail": "failed invariants: equation_residual, stencil_order"}),
    ],
    ids=[
        "two-plane-mesh", "two-plane-verify-mesh", "zero-dt", "zero-verify-dt",
        "subnormal-spacing", "subnormal-k", "subnormal-verify-spacing",
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


# an override replaces the file's value but does not excuse it; a bad units value
# used to be ignored under --units and the run went ahead
@pytest.mark.parametrize(
    "key, value, flag, named",
    [
        ("units", "kelvin", "--units", "units"),
        ("units", 5, "--units", "units"),
        ("units", None, "--units", "units"),
        ("output", {"dir": 5}, "--out", "dir"),
    ],
    ids=["unknown-units", "number-units", "null-units", "number-output-dir"],
)
def test_override_still_checks_the_file_value(tmp_path, capsys, key, value, flag, named):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**thermal_payload(out), key: value})
    override = "natural" if flag == "--units" else str(out)
    code = cli.main(["thermal-relax", "--config", str(cfg), flag, override])
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
    assert first["wigner.csv"] != other["wigner.csv"]
    summary = json.loads(first["summary.json"])
    assert abs(summary["quanta"] - json.loads(coherent["summary.json"])["quanta"]) <= 1e-12
    for key in ("energy_site_vs_mode", "energy_action_vs_mode", "energy_drift_exact"):
        assert summary[key] <= 1e-10, key


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
    for command, payload in (
        ("thermal-relax", thermal_payload(tmp_path / "out")),
        ("verify", verify_lattice_payload(tmp_path / "out")),
    ):
        cfg = write_config(tmp_path, payload)
        assert cli.main([command, "--config", str(cfg), "--verbose"]) == 0
        stdout = capsys.readouterr().out
        effective = experiments.effective_dict(experiments.parse_config(payload))
        assert stdout.startswith(json.dumps(effective, indent=2, sort_keys=True) + "\n")


def test_unknown_option_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, thermal_payload(out))
    code = cli.main(["thermal-relax", "--config", str(cfg), "--threads", "2"])
    lines = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
    assert not out.exists()


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
    proc = run_proc(["--help"], tmp_path)
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
