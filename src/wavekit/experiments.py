"""Config-driven scenario runners behind the CLI.

Each scenario pairs a frozen config dataclass with a runner returning
(summary, artifacts): summary is a JSON-ready dict, artifacts maps file
names to ("csv", columns) or ("grid", WignerGrid).  Runners are pure given
their config, so identical configs reproduce identical artifacts.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import typing
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import em, helicity, kinetics, lattice, wigner
from .units import PRESETS, get_units


class ConfigError(ValueError):
    """Config file is structurally or semantically invalid."""


SCHEMA_VERSION = 1


@dataclass(frozen=True)
class OutputOptions:
    dir: str | None = None
    csv: bool = True
    grid: bool = True


# field annotations that name a fixed set of strings
Units = Literal[tuple(PRESETS)]
Model = Literal[tuple(m.value for m in kinetics.SourceModel)]
Init = Literal["zero", "rayleigh-jeans", "wien", "planck"]

_type_hints = functools.cache(typing.get_type_hints)


_TYPE_NAMES = {
    int: "an integer",
    float: "a finite number",
    bool: "true or false",
    str: "a string",
    type(None): "null",
}


def _misfit(value, hint) -> str | None:
    """What a field annotation asks for if the JSON value does not fit it, else None.

    Values are never coerced: an integer in a float field stays an integer.
    """
    args = typing.get_args(hint)
    if typing.get_origin(hint) is Literal:
        return None if value in args else "one of " + ", ".join(map(repr, args))
    if args:  # X | None
        wants = [_misfit(value, arg) for arg in args]
        return None if None in wants else " or ".join(wants)
    if hint is float and not isinstance(value, bool):
        # rejects JSON NaN and Infinity, and integers beyond the float range
        fits = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        fits = type(value) is hint
    return None if fits else _TYPE_NAMES[hint]


def _strict(cls, data, where):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    hints = _type_hints(cls)
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    for name, value in data.items():
        want = _misfit(value, hints[name])
        if want is not None:
            raise ConfigError(f"bad value in {where}: {name} must be {want}, got {value!r}")
    return cls(**data)


# --- phonon-gaussian ---------------------------------------------------------


@dataclass(frozen=True)
class PhononGaussianConfig:
    n_sites: int = 256
    m: float = 1.0
    omega0: float = 0.0
    kappa: float = 1.0
    ell: float = 1.0
    n_quanta: float = 32.0
    g: float = 64.0
    k0: float = math.pi / 4.0
    x0: float | None = None
    t_final: float = 40.0
    random_phases: bool = False
    seed: int = 0
    units: Units = "natural"


def run_phonon_gaussian(cfg: PhononGaussianConfig):
    wigner.check_grid_size(cfg.n_sites)
    u = get_units(cfg.units)
    params = lattice.LatticeParams(
        m=cfg.m, omega0=cfg.omega0, kappa=cfg.kappa, ell=cfg.ell, n_sites=cfg.n_sites
    )
    x0 = params.length / 2.0 if cfg.x0 is None else cfg.x0
    gp = wigner.GaussianEtaParams(n_quanta=cfg.n_quanta, g=cfg.g, k0=cfg.k0, x0=x0)
    raw = wigner.gaussian_action_wave(gp, cfg.ell, cfg.n_sites, u.hbar)
    if cfg.random_phases:
        rng = np.random.default_rng(cfg.seed)
        raw = dataclasses.replace(
            raw, psik=raw.psik * np.exp(2j * np.pi * rng.random(raw.psik.size))
        )
    modes = lattice.modes_from_psi(raw, params)
    wave = lattice.psi_from_modes(modes, u.hbar)
    state0 = lattice.idft_from_modes(modes)

    area = lattice.action_area(wave)
    h_site = lattice.hamiltonian_energy(state0, params)
    h_mode = lattice.total_mode_energy(modes)
    h_psi = lattice.psi_energy(wave, params)

    wave_t = lattice.evolve_psi(wave, cfg.t_final, params)
    modes_t = lattice.evolve_modes_exact(modes, cfg.t_final)
    state_t = lattice.idft_from_modes(modes_t, t=cfg.t_final)
    cross = float(
        np.max(np.abs(lattice.psi_from_modes(modes_t, u.hbar).psik - wave_t.psik))
        / max(np.max(np.abs(wave_t.psik)), 1e-300)
    )

    grid = wigner.wigner_1d(wave)
    half = grid.window(x0 - params.length / 4.0, x0 + params.length / 4.0)
    closed = wigner.wigner_gaussian_closed(gp, half.x, half.p, u.hbar)
    peak = cfg.n_quanta / (math.pi * u.hbar)
    wigner_error = float(np.max(np.abs(half.f - closed)) / peak)
    # plot-ready crop: +-4 sigma about the packet center in each direction
    crop = grid.window(x0 - 4.0 * math.sqrt(cfg.g / 2.0), x0 + 4.0 * math.sqrt(cfg.g / 2.0))
    p_mask = np.abs(crop.p - u.hbar * cfg.k0) <= 4.0 * u.hbar / math.sqrt(2.0 * cfg.g)
    xx, pp = np.meshgrid(crop.x, crop.p[p_mask], indexing="ij")

    k = wave.k
    summary = {
        "scenario": "phonon-gaussian",
        "units": u.name,
        "n_sites": cfg.n_sites,
        "action_area": area,
        "quanta": area / u.h,
        "projected_area_loss": abs(lattice.action_area(raw) - area) / lattice.action_area(raw),
        "energy_site": h_site,
        "energy_mode": h_mode,
        "energy_action": h_psi,
        "energy_site_vs_mode": abs(h_site - h_mode) / h_mode,
        "energy_action_vs_mode": abs(h_psi - h_mode) / h_mode,
        "energy_drift_exact": abs(lattice.total_mode_energy(modes_t) - h_mode) / h_mode,
        "eta_drift": float(np.max(np.abs(wave_t.eta - wave.eta)) / np.max(wave.eta)),
        "psi_vs_mode_evolution": cross,
        "wigner_closed_form_error": wigner_error,
        "wigner_peak": float(np.max(half.f)),
        "t_final": cfg.t_final,
    }
    artifacts = {
        "spectrum.csv": (
            "csv",
            {
                "k": k,
                "omega": np.asarray(lattice.dispersion(k, params)),
                "eta_initial": wave.eta,
                "eta_final": wave_t.eta,
            },
        ),
        "profile.csv": (
            "csv",
            {
                "x": params.x_grid(),
                "u_initial": state0.u,
                "v_initial": state0.v,
                "u_final": state_t.u,
                "v_final": state_t.v,
            },
        ),
        "wigner.csv": (
            "csv",
            {
                "x": xx.ravel(),
                "p": pp.ravel(),
                "f": crop.f[:, p_mask].ravel(),
            },
        ),
    }
    return summary, artifacts


# --- traveling-wave ----------------------------------------------------------


@dataclass(frozen=True)
class TravelingWaveConfig:
    n_sites: int = 512
    m: float = 1.0
    kappa: float = 1.0
    ell: float = 1.0
    amplitude: float = 1.0
    width: float = 12.0
    center: float | None = None
    direction: int = 1
    t_final: float = 64.0
    dt_factor: float = 0.1
    units: Units = "natural"


def run_traveling_wave(cfg: TravelingWaveConfig):
    u = get_units(cfg.units)
    params = lattice.LatticeParams(
        m=cfg.m, omega0=0.0, kappa=cfg.kappa, ell=cfg.ell, n_sites=cfg.n_sites
    )
    center = params.length / 4.0 if cfg.center is None else cfg.center

    def bump(x):
        return cfg.amplitude * np.exp(-((x - center) ** 2) / (2.0 * cfg.width**2))

    x = params.x_grid()
    state0 = lattice.traveling_wave_init(bump(x), cfg.direction, params)
    modes0 = lattice.dft_to_modes(state0, params)
    h0 = lattice.hamiltonian_energy(state0, params)

    modes_t = lattice.evolve_modes_exact(modes0, cfg.t_final)
    exact_t = lattice.idft_from_modes(modes_t, t=cfg.t_final)

    dt = cfg.dt_factor / params.omega_max
    n_steps = max(1, round(cfg.t_final / dt))
    dt = cfg.t_final / n_steps
    _, energies, leap_t = lattice.leapfrog_energy_series(state0, params, dt, n_steps)

    shift = cfg.direction * params.v_ell * cfg.t_final
    # wrap the continuum prediction onto the ring
    x_back = np.mod(x - shift - center + params.length / 2.0, params.length) + center - params.length / 2.0
    predicted = bump(x_back)

    scale = float(np.max(np.abs(state0.u)))
    wave = lattice.psi_from_modes(modes0, u.hbar)
    summary = {
        "scenario": "traveling-wave",
        "units": u.name,
        "sound_speed": params.v_ell,
        "direction": cfg.direction,
        "t_final": cfg.t_final,
        "chirality_leakage": lattice.chirality_leakage(wave, cfg.direction),
        "transport_error": float(np.max(np.abs(exact_t.u - predicted)) / scale),
        "leapfrog_vs_exact": float(np.max(np.abs(leap_t.u - exact_t.u)) / scale),
        "leapfrog_energy_drift": float(np.max(np.abs(energies - h0)) / h0),
        "energy": h0,
        "dt": dt,
        "n_steps": n_steps,
    }
    artifacts = {
        "profile.csv": (
            "csv",
            {
                "x": x,
                "u_initial": state0.u,
                "u_exact": exact_t.u,
                "u_leapfrog": leap_t.u,
                "u_transport": predicted,
            },
        )
    }
    return summary, artifacts


# --- wigner-gaussian ---------------------------------------------------------


@dataclass(frozen=True)
class WignerGaussianConfig:
    n_modes: int = 512
    ell: float = 1.0
    n_quanta: float = 16.0
    g: float = 100.0
    k0_cells: int = 128
    x0: float | None = None
    t_final: float = 50.0
    v: float = 1.0
    units: Units = "natural"


def run_wigner_gaussian(cfg: WignerGaussianConfig):
    wigner.check_grid_size(cfg.n_modes)
    u = get_units(cfg.units)
    length = cfg.ell * cfg.n_modes
    x0 = length / 2.0 if cfg.x0 is None else cfg.x0
    dk = 2.0 * np.pi / length
    gp = wigner.GaussianEtaParams(n_quanta=cfg.n_quanta, g=cfg.g, k0=cfg.k0_cells * dk, x0=x0)
    wave = wigner.gaussian_action_wave(gp, cfg.ell, cfg.n_modes, u.hbar)
    grid = wigner.wigner_1d(wave)

    def omega(k):
        return cfg.v * np.abs(k)

    windowed = grid.window(x0 - length / 4.0, x0 + length / 4.0)
    closed0 = wigner.wigner_gaussian_closed(gp, windowed.x, windowed.p, u.hbar)
    peak = float(np.max(np.abs(closed0)))

    grid_t = wigner.evolve_wigner_group_velocity(grid, omega, cfg.t_final)
    xc = x0 + cfg.v * cfg.t_final
    win_t = grid_t.window(xc - length / 4.0, xc + length / 4.0)
    closed_t = wigner.wigner_gaussian_closed(gp, win_t.x, win_t.p, u.hbar, t=cfg.t_final, vg=cfg.v)

    marg_x = grid.marginal_x()
    site_h = wigner.doubled_site_values(wave)
    density_h = np.abs(site_h) ** 2 / u.hbar
    quanta = lattice.action_area(wave) / u.h

    summary = {
        "scenario": "wigner-gaussian",
        "units": u.name,
        "total_number": grid.total(),
        "quanta": quanta,
        "total_error": abs(grid.total() - quanta) / quanta,
        "marginal_x_error": float(np.max(np.abs(marg_x - density_h)) / np.max(density_h)),
        "marginal_p_error": float(
            np.max(np.abs(grid.marginal_p() - wave.eta / u.hbar**2)) * u.hbar**2 / np.max(wave.eta)
        ),
        "closed_form_error_t0": float(np.max(np.abs(windowed.f - closed0)) / peak),
        "closed_form_error_t": float(np.max(np.abs(win_t.f - closed_t)) / peak),
        "marginal_defect": grid.marginal_defect,
        "t_final": cfg.t_final,
    }
    artifacts = {
        "grid.wgrd": ("grid", grid),
        "marginals.csv": (
            "csv",
            {
                "x": grid.x,
                "marginal_x": marg_x,
                "site_density": density_h,
            },
        ),
    }
    return summary, artifacts


# --- photon-field ------------------------------------------------------------


@dataclass(frozen=True)
class PhotonFieldConfig:
    box_length: float = 2.0 * math.pi
    eps: float = 1.0
    mu: float = 1.0
    n_random_modes: int = 4
    max_index: int = 2
    n_quanta: float = 5.0
    seed: int = 7
    t_final: float = 1.0
    units: Units = "natural"


def _random_mode_set(cfg: PhotonFieldConfig, medium, hbar):
    if cfg.n_random_modes < 1:
        raise ConfigError("n_random_modes must be at least 1")
    available = (2 * max(cfg.max_index, 0) + 1) ** 3 - 1  # nonzero index triples
    if cfg.n_random_modes > available:
        raise ConfigError(f"n_random_modes exceeds the {available} nonzero wavevectors")
    wigner.check_pair_count(cfg.n_random_modes)
    rng = np.random.default_rng(cfg.seed)
    chosen: list[tuple[int, int, int]] = []
    while len(chosen) < cfg.n_random_modes:
        n = tuple(int(c) for c in rng.integers(-cfg.max_index, cfg.max_index + 1, size=3))
        if n == (0, 0, 0) or n in chosen:
            continue
        chosen.append(n)
    base = 2.0 * np.pi / cfg.box_length
    k = base * np.asarray(chosen, dtype=float)
    psik = np.zeros((len(chosen), 3), dtype=complex)
    for i in range(len(chosen)):
        e1, e2, _ = em.polarization_basis(k[i])
        c = rng.normal(size=4)
        psik[i] = (c[0] + 1j * c[1]) * e1 + (c[2] + 1j * c[3]) * e2
    return em.PhotonModeSet(k=k, psik=psik, box_length=cfg.box_length, medium=medium, hbar=hbar)


def run_photon_field(cfg: PhotonFieldConfig):
    u = get_units(cfg.units)
    medium = em.MediumParams(eps=cfg.eps, mu=cfg.mu, c=u.c)
    modes = _random_mode_set(cfg, medium, u.hbar)
    modes = em.normalize_photons(modes, cfg.n_quanta)

    e_mode = em.mode_energy_3d(modes)
    e_field = em.field_energy(modes)
    w3 = wigner.wigner_3d(modes)
    e_wigner = wigner.wigner_3d_energy(w3, medium.v)
    n_wigner = wigner.wigner_3d_total(w3)
    number = em.photon_number(modes)

    modes_t = em.evolve_mode_set(modes, cfg.t_final)
    summary = {
        "scenario": "photon-field",
        "units": u.name,
        "n_modes": int(modes.k.shape[0]),
        "photon_number": number,
        "number_vs_wigner": abs(number - n_wigner) / number,
        "energy_mode": e_mode,
        "energy_field": e_field,
        "energy_wigner": e_wigner,
        "energy_field_vs_mode": abs(e_field - e_mode) / e_mode,
        "energy_wigner_vs_mode": abs(e_wigner - e_mode) / e_mode,
        "energy_drift": abs(em.mode_energy_3d(modes_t) - e_mode) / e_mode,
        "number_drift": abs(em.photon_number(modes_t) - number) / number,
        "t_final": cfg.t_final,
    }
    k = modes.k
    artifacts = {
        "modes.csv": (
            "csv",
            {
                "kx": k[:, 0],
                "ky": k[:, 1],
                "kz": k[:, 2],
                "omega": modes.omega(),
                "eta": modes.eta(),
            },
        )
    }
    return summary, artifacts


# --- helicity-cylindrical ----------------------------------------------------


@dataclass(frozen=True)
class HelicityCylindricalConfig:
    k: float = 1.0
    v: float = 1.0
    mesh_n: int = 9
    spacing: float = 1e-3
    dt: float = 1e-3
    center_x: float = 0.3
    center_y: float = -0.2
    center_z: float = 0.1
    units: Units = "natural"


def _centered_mesh(n: int, spacing: float, center) -> np.ndarray:
    s = (np.arange(n) - (n - 1) / 2.0) * spacing
    X, Y, Z = np.meshgrid(s + center[0], s + center[1], s + center[2], indexing="ij")
    return np.stack([X, Y, Z])


def run_helicity_cylindrical(cfg: HelicityCylindricalConfig):
    u = get_units(cfg.units)
    mesh = _centered_mesh(cfg.mesh_n, cfg.spacing, (cfg.center_x, cfg.center_y, cfg.center_z))
    U0 = helicity.cylindrical_solution(mesh, cfg.k, cfg.v, t=0.0)
    U1 = helicity.cylindrical_solution(mesh, cfg.k, cfg.v, t=cfg.dt)

    inner = helicity.interior(U0)
    ref = cfg.k * np.max(np.sqrt(np.sum(np.abs(inner) ** 2, axis=0)))
    beltrami = _beltrami_residual(U0, cfg.k, cfg.spacing)
    F = helicity.field_from_potential(U0, cfg.spacing)
    field_err = float(np.max(np.sqrt(np.sum(np.abs(F - 1j * cfg.k * inner) ** 2, axis=0))) / ref)
    eq_resid = helicity.potential_equation_residual(U0, U1, cfg.dt, cfg.spacing, cfg.v)

    # halve the spacing on the same physical cube to expose the stencil order
    mesh2 = _centered_mesh(2 * cfg.mesh_n - 1, cfg.spacing / 2.0, (cfg.center_x, cfg.center_y, cfg.center_z))
    U0h = helicity.cylindrical_solution(mesh2, cfg.k, cfg.v, t=0.0)
    beltrami_h = _beltrami_residual(U0h, cfg.k, cfg.spacing / 2.0)

    mode = helicity.ComplexPotentialMode(k=np.array([0.0, 0.5, cfg.k]), sigma=1)
    U_plane = mode.evaluate(mesh, v=cfg.v)
    summary = {
        "scenario": "helicity-cylindrical",
        "units": u.name,
        "beltrami_residual": beltrami,
        "beltrami_residual_half_h": beltrami_h,
        "stencil_order_ratio": beltrami / max(beltrami_h, 1e-300),
        "field_vs_ikU": field_err,
        "equation_residual": eq_resid,
        "eigencheck_same": helicity.helicity_eigencheck(U_plane, mode.k, 1),
        "eigencheck_opposite": helicity.helicity_eigencheck(U_plane, mode.k, -1),
        "k": cfg.k,
        "spacing": cfg.spacing,
        "dt": cfg.dt,
    }
    artifacts = {
        "residuals.csv": (
            "csv",
            {
                "spacing": np.asarray([cfg.spacing, cfg.spacing / 2.0]),
                "beltrami_residual": np.asarray([beltrami, beltrami_h]),
            },
        )
    }
    return summary, artifacts


# --- thermal-planck ----------------------------------------------------------


@dataclass(frozen=True)
class ThermalPlanckConfig:
    gamma: float = 1.0
    temperature: float = 1.0
    v: float | None = None
    model: Model = "wien-stimulated"
    x_min: float = 0.05
    x_max: float = 20.0
    n_cells: int = 200
    init: Init = "zero"
    n_folds: float = 30.0
    units: Units = "natural"


def run_thermal_planck(cfg: ThermalPlanckConfig):
    u = get_units(cfg.units)
    model = kinetics.SourceModel(cfg.model)
    params = kinetics.KineticParams.in_units(u, cfg.gamma, cfg.temperature, v=cfg.v)
    if not 0 < cfg.x_min < cfg.x_max:
        raise ConfigError("need 0 < x_min < x_max")
    x = np.linspace(cfg.x_min, cfg.x_max, cfg.n_cells)
    p = x * params.p_thermal
    eps = params.v * p

    if cfg.init == "zero":
        f0 = np.zeros_like(p)
    elif cfg.init == "planck":
        f0 = np.asarray(kinetics.planck_f(eps, params))
    else:
        f0 = np.asarray(kinetics.equilibrium_f(eps, params, kinetics.SourceModel(cfg.init)))

    state0 = kinetics.KineticState(p=p, f=f0)
    final, elapsed = kinetics.relax_to_equilibrium(state0, params, model, cfg.n_folds)
    target = np.asarray(kinetics.equilibrium_f(eps, params, model))
    if model is kinetics.SourceModel.NONE:
        # damping only: the fixed point is zero, so scale by the initial peak
        resid = float(np.max(np.abs(final.f - target)) / max(float(np.max(f0)), 1e-300))
    else:
        resid = float(np.max(np.abs(final.f - target) / np.maximum(target, 1e-300)))
    rhs = np.asarray(kinetics.kinetic_rhs(eps, target, params, model))
    rhs_scale = params.gamma * 2.0 / params.h**3

    lam_max, product = kinetics.wien_peak(params)
    n_density = kinetics.thermal_photon_count(params)
    summary = {
        "scenario": "thermal-planck",
        "units": u.name,
        "model": model.value,
        "relative_residual": resid,
        "stationarity_residual": float(np.max(np.abs(rhs)) / rhs_scale),
        "elapsed": elapsed,
        "n_folds": cfg.n_folds,
        "peak_wavelength": lam_max,
        "peak_product": product,
        "photon_density": n_density,
        "photons_per_peak_cube": n_density * lam_max**3,
        "temperature": cfg.temperature,
    }
    lam = np.linspace(lam_max / 8.0, lam_max * 8.0, 200)
    artifacts = {
        "distribution.csv": (
            "csv",
            {
                "p": p,
                "x": x,
                "f_initial": f0,
                "f_final": final.f,
                "f_target": target,
            },
        ),
        "spectrum.csv": (
            "csv",
            {
                "wavelength": lam,
                "energy_density": np.asarray(kinetics.spectral_energy_density(lam, params)),
            },
        ),
    }
    return summary, artifacts


# --- verify kinds ------------------------------------------------------------


@dataclass(frozen=True)
class VerifyLatticeConfig:
    n_sites: int = 128
    m: float = 1.0
    omega0: float = 0.5
    kappa: float = 1.0
    ell: float = 1.0
    seed: int = 11
    t_exact: float = 7.3
    dt_factor: float = 0.05
    n_steps: int = 2000
    negative_control: bool = False
    units: Units = "natural"


def verify_lattice(cfg: VerifyLatticeConfig):
    u = get_units(cfg.units)
    params = lattice.LatticeParams(
        m=cfg.m, omega0=cfg.omega0, kappa=cfg.kappa, ell=cfg.ell, n_sites=cfg.n_sites
    )
    rng = np.random.default_rng(cfg.seed)
    state = lattice.LatticeState(
        u=rng.normal(size=cfg.n_sites), v=rng.normal(size=cfg.n_sites)
    )
    spec = lattice.dft_to_modes(state, params)
    if cfg.negative_control:
        spec = lattice.ModeSpectrum(uk=spec.uk * 1.001, vk=spec.vk, params=params)

    checks = {}

    back = lattice.idft_from_modes(spec)
    scale = float(np.max(np.abs(state.u)) + np.max(np.abs(state.v)))
    checks["site_roundtrip"] = (
        float((np.max(np.abs(back.u - state.u)) + np.max(np.abs(back.v - state.v))) / scale),
        1e-12,
    )

    h_site = lattice.hamiltonian_energy(state, params)
    checks["parseval_energy"] = (abs(lattice.total_mode_energy(spec) - h_site) / h_site, 1e-12)

    checks["reality"] = (lattice.reality_residual(spec), 1e-12)

    wave = lattice.psi_from_modes(spec, u.hbar)
    spec_back = lattice.modes_from_psi(wave, params)
    checks["action_roundtrip"] = (
        float(
            (np.max(np.abs(spec_back.uk - spec.uk)) + np.max(np.abs(spec_back.vk - spec.vk)))
            / max(np.max(np.abs(spec.uk)), np.max(np.abs(spec.vk)))
        ),
        1e-12,
    )

    modes_t = lattice.evolve_modes_exact(spec, cfg.t_exact)
    checks["exact_energy_drift"] = (
        abs(lattice.total_mode_energy(modes_t) - h_site) / h_site,
        1e-10,
    )
    wave_t = lattice.evolve_psi(wave, cfg.t_exact, params)
    checks["eta_invariance"] = (
        float(np.max(np.abs(wave_t.eta - wave.eta)) / np.max(wave.eta)),
        1e-12,
    )

    dt = cfg.dt_factor / params.omega_max
    _, energies, _ = lattice.leapfrog_energy_series(state, params, dt, cfg.n_steps, sample_every=10)
    theta = params.omega_max * dt
    checks["leapfrog_energy_bound"] = (
        float(np.max(np.abs(energies - h_site)) / h_site),
        0.5 * theta**2,
    )

    return _check_summary("verify-lattice", u.name, checks)


@dataclass(frozen=True)
class VerifyHelicityConfig:
    k: float = 1.5
    v: float = 0.9
    spacing: float = 2e-3
    dt: float = 2e-3
    mesh_n: int = 7
    negative_control: bool = False
    units: Units = "natural"


def verify_helicity(cfg: VerifyHelicityConfig):
    u = get_units(cfg.units)
    mesh = _centered_mesh(cfg.mesh_n, cfg.spacing, (0.25, 0.15, -0.3))
    mode = helicity.ComplexPotentialMode(k=np.array([0.3, -0.4, cfg.k]), sigma=1)
    U = mode.evaluate(mesh, v=cfg.v)
    sigma_same = -1 if cfg.negative_control else 1

    checks = {}
    checks["eigencheck_same"] = (helicity.helicity_eigencheck(U, mode.k, sigma_same), 1e-12)
    checks["eigencheck_opposite"] = (
        abs(helicity.helicity_eigencheck(U, mode.k, -1) - 2.0),
        1e-12,
    )

    U0 = helicity.cylindrical_solution(mesh, cfg.k, cfg.v, t=0.0)
    U1 = helicity.cylindrical_solution(mesh, cfg.k, cfg.v, t=cfg.dt)
    resid = helicity.potential_equation_residual(U0, U1, cfg.dt, cfg.spacing, cfg.v)
    omega = cfg.v * cfg.k
    bound = 0.5 * (cfg.k * cfg.spacing) ** 2 + 0.25 * (omega * cfg.dt) ** 2
    checks["equation_residual"] = (resid, bound)

    mesh_h = _centered_mesh(2 * cfg.mesh_n - 1, cfg.spacing / 2.0, (0.25, 0.15, -0.3))
    r1 = _beltrami_residual(helicity.cylindrical_solution(mesh, cfg.k, cfg.v), cfg.k, cfg.spacing)
    r2 = _beltrami_residual(
        helicity.cylindrical_solution(mesh_h, cfg.k, cfg.v), cfg.k, cfg.spacing / 2.0
    )
    checks["stencil_order"] = (abs(r1 / r2 - 4.0), 0.5)

    theta_t = 0.7 / omega
    rotated = helicity.precess_mode(U, mode.k / np.linalg.norm(mode.k), omega, theta_t)
    phased = U * np.exp(1j * mode.sigma * omega * theta_t)
    checks["precession_phase"] = (
        float(np.max(np.abs(rotated - phased)) / np.max(np.abs(U))),
        1e-12,
    )

    return _check_summary("verify-helicity", u.name, checks)


def _beltrami_residual(U, k, spacing):
    curl = helicity.stencil_curl(U, spacing)
    inner = helicity.interior(U)
    num = np.max(np.sqrt(np.sum(np.abs(curl - k * inner) ** 2, axis=0)))
    den = k * np.max(np.sqrt(np.sum(np.abs(inner) ** 2, axis=0)))
    return float(num / den)


def _check_summary(scenario, units_name, checks):
    table = {
        name: {"value": value, "bound": bound, "passed": bool(value <= bound)}
        for name, (value, bound) in checks.items()
    }
    summary = {
        "scenario": scenario,
        "units": units_name,
        "checks": table,
        "passed": all(row["passed"] for row in table.values()),
    }
    return summary, {}


# --- scenario table and config parsing ---------------------------------------

# scenario -> (module block holding its parameters, config dataclass, runner);
# cli.COMMAND_SCENARIOS routes subcommands onto these names
SCENARIOS = {
    "phonon-gaussian": ("lattice", PhononGaussianConfig, run_phonon_gaussian),
    "traveling-wave": ("lattice", TravelingWaveConfig, run_traveling_wave),
    "wigner-gaussian": ("wigner", WignerGaussianConfig, run_wigner_gaussian),
    "photon-field": ("field", PhotonFieldConfig, run_photon_field),
    "helicity-cylindrical": ("helicity", HelicityCylindricalConfig, run_helicity_cylindrical),
    "thermal-planck": ("kinetics", ThermalPlanckConfig, run_thermal_planck),
    "verify-lattice": ("lattice", VerifyLatticeConfig, verify_lattice),
    "verify-helicity": ("helicity", VerifyHelicityConfig, verify_helicity),
}


@dataclass(frozen=True)
class TopConfig:
    scenario: str
    params: object
    output: OutputOptions


def parse_config(data, allowed=None, units=None, out_dir=None) -> TopConfig:
    """Validate a raw config dict and build the scenario dataclass.

    Layout: schema_version, scenario, units, optional seed, optional output
    block, plus the one module block SCENARIOS names.  `allowed` restricts
    the accepted scenarios (subcommand routing); `units` and `out_dir`
    override the file's values without mutating it.
    """
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    if data.get("schema_version") != SCHEMA_VERSION or type(data["schema_version"]) is not int:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    scenario = data.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    if allowed is not None and scenario not in allowed:
        raise ConfigError(
            f"scenario {scenario!r} is not handled here; expected one of {sorted(allowed)}"
        )
    block_name, cls, _ = SCENARIOS[scenario]

    top_allowed = {"schema_version", "scenario", "units", "output", block_name}
    if "seed" in _type_hints(cls):
        top_allowed.add("seed")
    unknown = sorted(set(data) - top_allowed)
    if unknown:
        raise ConfigError(f"unknown top-level keys {unknown}")

    block = data.get(block_name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{block_name} must be an object")
    misplaced = sorted({"units", "seed"} & set(block))
    if misplaced:
        raise ConfigError(f"{misplaced} belong at the top level, not in {block_name}")
    kwargs = dict(block)
    if units is not None:
        kwargs["units"] = units
    elif "units" in data:
        kwargs["units"] = data["units"]
    if "seed" in data:
        kwargs["seed"] = data["seed"]
    params = _strict(cls, kwargs, block_name)
    output = _strict(OutputOptions, data.get("output", {}), "output")
    if out_dir is not None:
        output = dataclasses.replace(output, dir=out_dir)
    return TopConfig(scenario=scenario, params=params, output=output)


def effective_dict(top: TopConfig) -> dict:
    """Config dict with every default made explicit; reparses to an equal value."""
    block = dataclasses.asdict(top.params)
    result = {
        "schema_version": SCHEMA_VERSION,
        "scenario": top.scenario,
        "units": block.pop("units"),
    }
    if "seed" in block:
        result["seed"] = block.pop("seed")
    result["output"] = dataclasses.asdict(top.output)
    result[SCENARIOS[top.scenario][0]] = block
    return result


def run_config(top: TopConfig):
    _, _, runner = SCENARIOS[top.scenario]
    return runner(top.params)
