"""Seeded scenario lists, one per workload.

Each workload is a fixed list of runs whose sizes never change; the seed
only draws the physical parameters (and the order of the config sweep), so
the work per pass stays the same from seed to seed while the inputs differ.
A run is a dict: id, command, scenario, config (a dict, or raw text for a
malformed file), expect (the exit code the CLI must return) and argv (extra
CLI arguments).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# the CLI subcommand that routes each scenario
COMMAND = {
    "phonon-gaussian": "phonon-sim",
    "traveling-wave": "phonon-sim",
    "wigner-gaussian": "wigner",
    "photon-field": "photon-field",
    "helicity-cylindrical": "helicity-check",
    "thermal-planck": "thermal-relax",
    "verify-lattice": "verify",
    "verify-helicity": "verify",
}
BLOCK = {
    "phonon-gaussian": "lattice",
    "traveling-wave": "lattice",
    "wigner-gaussian": "wigner",
    "photon-field": "field",
    "helicity-cylindrical": "helicity",
    "thermal-planck": "kinetics",
    "verify-lattice": "lattice",
    "verify-helicity": "helicity",
}
MODELS = ("rayleigh-jeans", "wien", "wien-stimulated", "none")
INITS = ("zero", "rayleigh-jeans", "wien", "planck")


def _config(scenario, block, seed=None, units="natural"):
    cfg = {"schema_version": 1, "scenario": scenario, "units": units}
    if seed is not None:
        cfg["seed"] = seed
    cfg[BLOCK[scenario]] = block
    return cfg


def _run(run_id, cfg, expect=0, argv=(), command=None):
    scenario = cfg["scenario"] if isinstance(cfg, dict) else "raw-text"
    return {
        "id": run_id,
        "command": command or COMMAND[scenario],
        "scenario": scenario,
        "config": cfg,
        "expect": expect,
        "argv": list(argv),
    }


def wigner_gaussian(rng, n):
    return _config("wigner-gaussian", {
        "n_modes": n,
        "n_quanta": rng.uniform(4.0, 64.0),
        "g": rng.uniform(0.1, 0.4) * n,
        "k0_cells": rng.randint(n // 6, n // 3),
        "t_final": rng.uniform(0.02, 0.15) * n,
        "v": rng.uniform(0.5, 1.5),
    })


def phonon_gaussian(rng, n):
    return _config("phonon-gaussian", {
        "n_sites": n,
        "omega0": rng.uniform(0.0, 0.5),
        "kappa": rng.uniform(0.5, 2.0),
        "n_quanta": rng.uniform(4.0, 64.0),
        "g": rng.uniform(0.1, 0.3) * n,
        "k0": rng.uniform(math.pi / 8.0, 3.0 * math.pi / 8.0),
        "t_final": rng.uniform(10.0, 100.0),
    }, seed=rng.randrange(2**31))


def traveling_wave(rng, n, steps):
    kappa = rng.uniform(0.5, 2.0)
    dt_factor = rng.uniform(0.05, 0.2)
    # t_final = steps * dt with dt = dt_factor / omega_max fixes the step count
    return _config("traveling-wave", {
        "n_sites": n,
        "kappa": kappa,
        "amplitude": rng.uniform(0.5, 2.0),
        "width": max(3.0, rng.uniform(0.02, 0.05) * n),
        "direction": rng.choice((-1, 1)),
        "t_final": steps * dt_factor / (2.0 * math.sqrt(kappa)),
        "dt_factor": dt_factor,
    })


def verify_lattice(rng, n, steps, negative_control=False):
    return _config("verify-lattice", {
        "n_sites": n,
        "omega0": rng.uniform(0.2, 1.0),
        "kappa": rng.uniform(0.5, 2.0),
        "t_exact": rng.uniform(1.0, 20.0),
        "dt_factor": rng.uniform(0.02, 0.1),
        "n_steps": steps,
        "negative_control": negative_control,
    }, seed=rng.randrange(2**31))


def photon_field(rng, n_modes, max_index):
    return _config("photon-field", {
        "box_length": 2.0 * math.pi * rng.uniform(0.5, 2.0),
        "eps": rng.uniform(1.0, 3.0),
        "mu": rng.uniform(0.5, 1.5),
        "n_random_modes": n_modes,
        "max_index": max_index,
        "n_quanta": rng.uniform(1.0, 20.0),
        "t_final": rng.uniform(0.1, 5.0),
    }, seed=rng.randrange(2**31))


def helicity_cylindrical(rng, mesh_n):
    return _config("helicity-cylindrical", {
        "k": rng.uniform(0.5, 2.0),
        "v": rng.uniform(0.5, 1.5),
        "mesh_n": mesh_n,
        "spacing": rng.uniform(5e-4, 2e-3),
        "dt": rng.uniform(5e-4, 2e-3),
        "center_x": rng.uniform(-0.5, 0.5),
        "center_y": rng.uniform(-0.5, 0.5),
        "center_z": rng.uniform(-0.5, 0.5),
    })


def verify_helicity(rng, mesh_n, negative_control=False):
    return _config("verify-helicity", {
        "k": rng.uniform(1.0, 2.0),
        "v": rng.uniform(0.5, 1.5),
        "spacing": rng.uniform(1e-3, 3e-3),
        "dt": rng.uniform(1e-3, 3e-3),
        "mesh_n": mesh_n,
        "negative_control": negative_control,
    })


def thermal_planck(rng, model, init, units, n_cells=200):
    temperature = rng.uniform(0.2, 5.0) if units == "natural" else rng.uniform(50.0, 500.0)
    return _config("thermal-planck", {
        "gamma": rng.uniform(0.5, 2.0),
        "temperature": temperature,
        "model": model,
        "x_min": rng.uniform(0.02, 0.2),
        "x_max": rng.uniform(10.0, 25.0),
        "n_cells": n_cells,
        "init": init,
        "n_folds": 30.0,
    }, units=units)


def wigner_1d(rng, n_modes=(1024, 2048), phonon_sites=2048):
    runs = [_run(f"wigner-gaussian-n{n}", wigner_gaussian(rng, n)) for n in n_modes]
    runs.append(_run(f"phonon-gaussian-n{phonon_sites}", phonon_gaussian(rng, phonon_sites)))
    return runs


def leapfrog(rng, sizes=((64, 5000), (1024, 2000), (16384, 2000)), verify=(128, 20000)):
    runs = [_run(f"traveling-wave-n{n}", traveling_wave(rng, n, steps)) for n, steps in sizes]
    runs.append(_run(f"verify-lattice-n{verify[0]}", verify_lattice(rng, *verify)))
    return runs


def fields_3d(rng, modes=(32, 64, 128), max_index=3, meshes=(33, 65)):
    runs = [_run(f"photon-field-m{m}", photon_field(rng, m, max_index)) for m in modes]
    runs += [_run(f"helicity-cylindrical-n{n}", helicity_cylindrical(rng, n)) for n in meshes]
    return runs


def _variant(cfg, **changes):
    """A copy of cfg with its parameter block updated."""
    out = json.loads(json.dumps(cfg))
    out[BLOCK[cfg["scenario"]]].update(changes)
    return out


def error_paths(rng):
    """Inputs the CLI must reject with a documented exit code and one JSON line."""
    thermal = thermal_planck(rng, "wien-stimulated", "zero", "natural", n_cells=16)
    standing = _variant(traveling_wave(rng, 32, 10), direction=0)
    text = json.dumps(thermal)
    return [
        _run("error-truncated-json", text[: len(text) // 2], expect=2, command="thermal-relax"),
        _run("error-not-json", "scenario: thermal-planck\n", expect=2, command="thermal-relax"),
        _run("error-bad-units-flag", thermal, expect=2, argv=["--units", "kelvin"]),
        _run("error-unknown-key", _variant(thermal, colour="blue"), expect=3),
        _run("error-misplaced-units", _variant(thermal, units="natural"), expect=3),
        _run("error-schema-version", dict(thermal, schema_version=2), expect=3),
        _run("error-family-mismatch", thermal, expect=3, command="wigner"),
        _run("error-unknown-model", _variant(thermal, model="boltzmann"), expect=3),
        _run("error-unknown-init", _variant(thermal, init="hot"), expect=3),
        _run("error-x-range", _variant(thermal, x_min=5.0, x_max=1.0), expect=3),
        _run("error-standing-wave", standing, expect=3),
        _run("error-negative-control-lattice", verify_lattice(rng, 32, 200, True), expect=4),
        _run("error-negative-control-helicity", verify_helicity(rng, 7, True), expect=4),
    ]


def config_sweep(rng, configs_dir: Path):
    samples = []
    for path in sorted(configs_dir.glob("*.json")):
        cfg = json.loads(path.read_text())
        cfg.pop("output", None)
        samples.append(_run(f"sample-{path.stem}", cfg))
    runs = list(samples)
    for units in ("natural", "mev-ps"):
        for model in MODELS:
            for init in INITS:
                for rep in range(4):
                    runs.append(_run(
                        f"thermal-{units}-{model}-{init}-{rep}", thermal_planck(rng, model, init, units)
                    ))
    # sizes cycle through fixed ladders so that the work per pass does not depend on the seed
    runs += [_run(f"verify-helicity-{i}", verify_helicity(rng, (5, 7, 9, 7)[i % 4])) for i in range(16)]
    runs += [_run(f"verify-lattice-{i}", verify_lattice(rng, (16, 32, 64, 32)[i % 4], 300)) for i in range(8)]
    runs += [_run(f"photon-field-{i}", photon_field(rng, 2 + i % 7, 2)) for i in range(14)]
    runs += [_run(f"phonon-gaussian-{i}", phonon_gaussian(rng, (128, 256)[i % 2])) for i in range(16)]
    runs += [_run(f"traveling-wave-{i}", traveling_wave(rng, (32, 64)[i % 2], 200)) for i in range(8)]
    runs += [_run(f"wigner-gaussian-{i}", wigner_gaussian(rng, 256)) for i in range(4)]
    runs += [_run(f"helicity-cylindrical-{i}", helicity_cylindrical(rng, (5, 7)[i % 2])) for i in range(4)]
    runs += error_paths(rng)
    # two sample configs run twice in the same pass: their artifacts must match
    runs += [dict(run, id=run["id"] + "-again") for run in samples[:2]]
    rng.shuffle(runs)
    return runs


def known_defects():
    """Inputs the CLI should reject with exit 3 and one JSON line, but today does not.

    Two more known defects are left out on purpose: photon-field with more
    n_random_modes than lattice vectors never returns, and wigner-gaussian with
    n_modes = 10^6 asks for about 29 TiB.
    """
    wave = {"n_sites": 64, "t_final": 4.0}
    return [
        _run("defect-string-int", _config("traveling-wave", dict(wave, n_sites="64")), expect=3),
        _run("defect-float-int", _config("traveling-wave", dict(wave, n_sites=64.0)), expect=3),
        _run("defect-list-int", _config("thermal-planck", {"n_cells": [16]}), expect=3),
        _run("defect-string-seed", _config(
            "verify-lattice", {"n_sites": 32, "n_steps": 20}, seed="eleven"), expect=3),
        _run("defect-bool-temperature", _config(
            "thermal-planck", {"temperature": True, "n_cells": 16}), expect=3),
        _run("defect-nan-temperature", json.dumps(
            _config("thermal-planck", {"temperature": math.nan, "n_cells": 16})
        ), expect=3, command="thermal-relax"),
    ]


WORKLOADS = ("wigner-1d", "leapfrog", "fields-3d", "config-sweep")


def generate(workload: str, seed: int, root: Path) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wigner-1d":
        return wigner_1d(rng)
    if workload == "leapfrog":
        return leapfrog(rng)
    if workload == "fields-3d":
        return fields_3d(rng)
    if workload == "config-sweep":
        return config_sweep(rng, root / "configs")
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
