"""Config-driven scenario runners behind the CLI.

Each scenario pairs a frozen config dataclass with a runner that takes its
config, the run's UnitSystem and a sink, and returns (summary, artifacts):
summary is a JSON-ready dict of what the run computed, never a config value,
which the effective config records; artifacts maps file names to their
payloads, a column dict for a .csv name and for a .wgrd name the arguments
of gridio.write_wigner_grid after the path.  A runner that writes a .wgrd
file streams its rows as its transform makes them into sink(name, x, p), a
gridio.GridRows, which is the payload's blocks; the other runners never call
the sink.  run_config looks up the config's top-level units and heads every
summary with scenario and units.  Runners compute from config and units
alone, so identical configs reproduce identical artifacts.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import typing
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from . import em, helicity, kinetics, lattice, wigner
from .units import PRESETS, UnitSystem, get_units


class ConfigError(ValueError):
    """Config file is structurally or semantically invalid."""


SCHEMA_VERSION = 1

# Size limit, the upper end of a declared range (README "Declared ranges").
MAX_THERMAL_CELLS = 2**24  # thermal-planck n_cells: 128 MiB per grid array


@dataclass(frozen=True)
class OutputOptions:
    dir: str | None = None


# field annotations that name a fixed set of strings
Units = Literal[tuple(PRESETS)]
Model = Literal[tuple(m.value for m in kinetics.SourceModel)]
Init = Literal["zero", "rayleigh-jeans", "wien", "planck"]
# declared ranges, Annotated[T, lo, hi]: a T in [lo, hi]
# divided by: a normal float, whose reciprocal is finite
_Divisor = Annotated[float, sys.float_info.min, math.inf]
# squared and inverted: x^2 and 1/x^2 stay finite, times the factors up to 1e8 beside them
_Scale = Annotated[float, 1e-150, 1e150]
# squared or multiplied: x^2 stays finite, times the factors up to 1e8 beside it
_Signed = Annotated[float, -1e150, 1e150]
# as _Signed, above zero
_Positive = Annotated[float, math.ulp(0.0), 1e150]
# a time times a frequency up to 1e8: the phase stays finite
_Time = Annotated[float, -1e300, 1e300]
# divided by, and times factors up to 1e8: a number of quanta summed over cells, or a time step
_Bounded = Annotated[float, sys.float_info.min, 1e300]
# a packet's width g: divides a squared distance up to 1e8
_Width = Annotated[float, 1e-300, math.inf]
# lattice constants: 1/m, omega0^2 + 4 kappa, ell n and 2 pi / (ell n) finite, times up to 1e8
_Mass = Annotated[float, 1e-300, 1e150]
_Spacing = Annotated[float, 1e-300, 1e300]
_Pinning = Annotated[float, 0.0, 1e150]
_Coupling = Annotated[float, math.ulp(0.0), 1e300]
_GridModes = Annotated[int, 1, math.isqrt(wigner.MAX_GRID_CELLS) // 2]  # n modes: (2n)^2 cells
# a helicity mesh's points a side: one interior point, and (2 mesh_n - 1)^3 <= 2^24 at h/2
_MeshPlanes = Annotated[int, 3, 128]
# a random generator's seed: numpy takes any integer from 0 up
_Seed = Annotated[int, 0, math.inf]

_type_hints = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


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
    if typing.get_origin(hint) is Annotated:  # a declared range
        base, lo, hi = args
        want = _misfit(value, base)
        return f"in [{lo!r}, {hi!r}]" if want is None and not lo <= value <= hi else want
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


def _rel(error, scale) -> float:
    """Largest absolute entry of error over a reference scale."""
    return float(np.max(np.abs(error)) / scale)


def _closed_errors(gp, x, p, hbar, rows, blocks, **motion):
    """[(max|closed - f|, max closed, max f)] of the Gaussian closed form in the row range rows,
    on the rows lo.. of each (lo, block): its entries do not depend on slicing; np.max keeps NaN."""
    errors = []
    for lo, block in blocks:
        first = max(lo, rows.start)
        f = block[first - lo : max(rows.stop - lo, 0)]
        if len(f):
            closed = wigner.wigner_gaussian_closed(gp, x[first : first + len(f)], p, hbar, **motion)
            peak = np.max(closed)  # then the error in place: a block-sized temporary only
            np.abs(np.subtract(closed, f, out=closed), out=closed)
            errors.append((np.max(closed), peak, np.max(f)))
    return errors


# --- phonon-gaussian ---------------------------------------------------------


@dataclass(frozen=True)
class PhononGaussianConfig:
    n_sites: _GridModes = 256
    m: _Mass = 1.0
    omega0: _Pinning = 0.0
    kappa: _Coupling = 1.0
    ell: _Spacing = 1.0
    n_quanta: _Bounded = 32.0
    g: _Width = 64.0
    k0: float = math.pi / 4.0
    x0: float | None = None
    t_final: _Time = 40.0
    random_phases: bool = False
    seed: _Seed = 0


def run_phonon_gaussian(cfg: PhononGaussianConfig, u: UnitSystem, sink):
    params = lattice.LatticeParams(
        m=cfg.m, omega0=cfg.omega0, kappa=cfg.kappa, ell=cfg.ell, n_sites=cfg.n_sites
    )
    # a position on the periodic ring exists only mod ell n
    x0 = (params.length / 2.0 if cfg.x0 is None else cfg.x0) % params.length
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
    if area == 0:
        raise ConfigError("the Gaussian packet (n_quanta, g, k0) misses every lattice mode")
    h_site = lattice.hamiltonian_energy(state0, params)
    h_mode = lattice.total_mode_energy(modes)
    h_psi = lattice.psi_energy(wave, params)

    wave_t = lattice.evolve_psi(wave, cfg.t_final, params)
    modes_t = lattice.evolve_modes_exact(modes, cfg.t_final)
    state_t = lattice.idft_from_modes(modes_t, t=cfg.t_final)
    psi_t = lattice.psi_from_modes(modes_t, u.hbar).psik

    # the half window and a plot-ready crop of +-4 sigma about the packet center in each
    # direction: the rows from the first of them to the last are transformed, block by block
    x, p = wigner.doubled_axes(wave)
    widths = (params.length / 4.0, 4.0 * math.sqrt(cfg.g / 2.0))
    half, crop = (wigner.window_rows(x, x0 - w, x0 + w) for w in widths)
    p_mask = np.abs(p - u.hbar * cfg.k0) <= 4.0 * u.hbar / math.sqrt(2.0 * cfg.g)
    checks = []

    def take(lo, block):
        checks.extend(_closed_errors(gp, x, p, u.hbar, half, [(lo, block)]))
        grid.write(block[max(crop.start - lo, 0) : max(crop.stop - lo, 0), p_mask])

    rows = slice(min(half.start, crop.start), max(half.stop, crop.stop))
    with sink("wigner.wgrd", x[crop], p[p_mask]) as grid:
        _, _, defect = wigner.doubled_grid_transform(wave, wigner.number_prefactor(wave), rows, take)
    error, _, peak_f = np.max(checks, axis=0)
    wigner_error = _rel(error, cfg.n_quanta / (math.pi * u.hbar))

    k = wave.k
    raw_area = lattice.action_area(raw)
    summary = {
        "action_area": area,
        "quanta": area / u.h,
        "projected_area_loss": _rel(raw_area - area, raw_area),
        "energy_site": h_site,
        "energy_mode": h_mode,
        "energy_action": h_psi,
        "energy_site_vs_mode": _rel(h_site - h_mode, h_mode),
        "energy_action_vs_mode": _rel(h_psi - h_mode, h_mode),
        "energy_drift_exact": _rel(lattice.total_mode_energy(modes_t) - h_mode, h_mode),
        "eta_drift": _rel(wave_t.eta - wave.eta, np.max(wave.eta)),
        "psi_vs_mode_evolution": _rel(psi_t - wave_t.psik, np.max(np.abs(wave_t.psik))),
        "wigner_closed_form_error": wigner_error,
        "wigner_peak": float(peak_f),
    }
    artifacts = {
        "spectrum.csv": {
            "k": k,
            "omega": lattice.dispersion(k, params),
            "eta_initial": wave.eta,
            "eta_final": wave_t.eta,
        },
        "profile.csv": {
            "x": params.x_grid(),
            "u_initial": state0.u,
            "v_initial": state0.v,
            "u_final": state_t.u,
            "v_final": state_t.v,
        },
        "wigner.wgrd": (x[crop], p[p_mask], grid, u.hbar, defect),
    }
    return summary, artifacts


# --- traveling-wave ----------------------------------------------------------


@dataclass(frozen=True)
class TravelingWaveConfig:
    n_sites: int = 512
    m: _Mass = 1.0
    kappa: _Coupling = 1.0
    ell: _Scale = 1.0  # the bump squares its offsets
    amplitude: _Signed = 1.0
    width: _Scale = 12.0
    center: float | None = None
    direction: int = 1
    t_final: _Positive = 64.0
    dt_factor: _Divisor = 0.1


def run_traveling_wave(cfg: TravelingWaveConfig, u: UnitSystem, sink):
    params = lattice.LatticeParams(
        m=cfg.m, omega0=0.0, kappa=cfg.kappa, ell=cfg.ell, n_sites=cfg.n_sites
    )
    dt = cfg.dt_factor / params.omega_max
    # the cap keeps round() finite; a capped step count is over the limit anyway
    n_steps = max(1, round(min(cfg.t_final / dt, lattice.MAX_SERIES_CELLS)))
    lattice.check_series_size(n_steps + 1, cfg.n_sites)
    dt = cfg.t_final / n_steps
    center = params.length / 4.0 if cfg.center is None else cfg.center

    def bump(x):
        # the ring is periodic, so the bump sits at the nearest image of its center
        offset = (x - center + params.length / 2.0) % params.length - params.length / 2.0
        return cfg.amplitude * np.exp(-(offset**2) / (2.0 * cfg.width**2))

    x = params.x_grid()
    state0 = lattice.traveling_wave_init(bump(x), cfg.direction, params)
    modes0 = lattice.dft_to_modes(state0, params)
    h0 = lattice.hamiltonian_energy(state0, params)
    if h0 == 0:
        raise ConfigError(
            f"the bump (amplitude, width, center) carries no energy on n_sites = {cfg.n_sites}"
        )

    modes_t = lattice.evolve_modes_exact(modes0, cfg.t_final)
    exact_t = lattice.idft_from_modes(modes_t, t=cfg.t_final)

    _, energies, leap_t = lattice.leapfrog_energy_series(state0, params, dt, n_steps)

    predicted = bump(x - cfg.direction * params.v_ell * cfg.t_final)

    scale = float(np.max(np.abs(state0.u)))
    wave = lattice.psi_from_modes(modes0, u.hbar)
    summary = {
        "sound_speed": params.v_ell,
        "chirality_leakage": lattice.chirality_leakage(wave, cfg.direction),
        "transport_error": _rel(exact_t.u - predicted, scale),
        "leapfrog_vs_exact": _rel(leap_t.u - exact_t.u, scale),
        "leapfrog_energy_drift": _rel(energies - h0, h0),
        "energy": h0,
        "dt": dt,
        "n_steps": n_steps,
    }
    artifacts = {
        "profile.csv": {
            "x": x,
            "u_initial": state0.u,
            "u_exact": exact_t.u,
            "u_leapfrog": leap_t.u,
            "u_transport": predicted,
        },
    }
    return summary, artifacts


# --- wigner-gaussian ---------------------------------------------------------


@dataclass(frozen=True)
class WignerGaussianConfig:
    n_modes: _GridModes = 512
    ell: _Scale = 1.0
    n_quanta: _Bounded = 16.0
    g: _Width = 100.0
    k0_cells: int = 128
    x0: float | None = None
    t_final: float = 50.0
    v: float = 1.0


def run_wigner_gaussian(cfg: WignerGaussianConfig, u: UnitSystem, sink):
    length = cfg.ell * cfg.n_modes
    dk = 2.0 * np.pi / length
    # a position on the periodic ring exists only mod ell n
    x0 = (length / 2.0 if cfg.x0 is None else cfg.x0) % length
    if not math.isfinite(x0 + cfg.v * cfg.t_final):
        raise ConfigError(f"v = {cfg.v!r} and t_final = {cfg.t_final!r} overflow the moved center x0 + v t")
    gp = wigner.GaussianEtaParams(n_quanta=cfg.n_quanta, g=cfg.g, k0=cfg.k0_cells * dk, x0=x0)
    wave = wigner.gaussian_action_wave(gp, cfg.ell, cfg.n_modes, u.hbar)
    quanta = lattice.action_area(wave) / u.h
    if quanta == 0:
        raise ConfigError("the Gaussian packet (n_quanta, g, k0_cells) misses every grid mode")
    x, p = wigner.doubled_axes(wave)
    n, prefactor = cfg.n_modes, wigner.number_prefactor(wave)
    site = wigner.doubled_site_values(wave)

    # the t = 0 pass checks every ring row in the half window, and writes grid.wgrd from the
    # held rows 0..n-1, which come in order, each block before its ghost rows
    rows = wigner.window_rows(x, x0 - length / 4.0, x0 + length / 4.0)
    checks = []

    def check(lo, block):
        checks.extend(_closed_errors(gp, x, p, u.hbar, rows, [(lo, block)]))
        if lo < n:
            grid.write(block)

    with sink("grid.wgrd", x, p) as grid:
        row_sums, column_sums, defect = wigner.doubled_grid_transform(wave, prefactor, consume=check)
    error_t0, peak, _ = np.max(checks, axis=0)
    # every grid wavenumber times ell n is a multiple of 2 pi, so the motion counts only mod
    # ell n, which fmod takes exactly; the closed form moves by vg t = vt
    vt = math.fmod(cfg.v * cfg.t_final, length)
    # the moved center comes back onto the ring by whole turns, and so does the closed form's
    moved = (x0 + vt) % length
    gp_t = dataclasses.replace(gp, x0=x0 - (x0 + vt - moved))
    # omega = v|k|: the evolved wave has modes psi'_k exp(-i |k| vt), and its transform on
    # the moved half window is checked block by block against the closed form moved by +vt
    rows = wigner.window_rows(x, moved - length / 4.0, moved + length / 4.0)
    psi_t = dataclasses.replace(wave, psik=wave.psik * np.exp(-1j * np.abs(wave.k) * vt))
    blocks = wigner.row_blocks(wigner.doubled_site_values(psi_t), prefactor, rows)
    error_t = np.max(_closed_errors(gp_t, x, p, u.hbar, rows, blocks, t=1.0, vg=vt), axis=0)[0]

    # the steps beside x = 0 and p = 0, where WignerGrid.dx and .dp take them
    dx, dp = x[1] - x[0], p[n] - p[n - 1]
    marg_x = dp * row_sums
    density_h = np.abs(site) ** 2 / u.hbar
    total = float(dx * dp * np.sum(row_sums))

    summary = {
        "total_number": total,
        "quanta": quanta,
        "total_error": _rel(total - quanta, quanta),
        "marginal_x_error": _rel(marg_x - density_h, np.max(density_h)),
        "marginal_p_error": _rel(
            (dx * column_sums - wave.eta / u.hbar**2) * u.hbar**2, np.max(wave.eta)
        ),
        "closed_form_error_t0": _rel(error_t0, peak),
        "closed_form_error_t": _rel(error_t, peak),
        "marginal_defect": defect,
    }
    artifacts = {
        "grid.wgrd": (x, p, grid, u.hbar, defect),
        "marginals.csv": {
            "x": x,
            "marginal_x": marg_x,
            "site_density": density_h,
        },
    }
    return summary, artifacts


# --- photon-field ------------------------------------------------------------


@dataclass(frozen=True)
class PhotonFieldConfig:
    # a 3-D density pair weight goes as (2 pi / box_length)^6, which stays normal times factors
    # up to 1e8 for box_length from about 5.7e-50 to 5.5e50
    box_length: Annotated[float, 1e-49, 1e49] = 2.0 * math.pi
    eps: _Scale = 1.0
    mu: _Scale = 1.0
    # M^2 mode pairs in MAX_PAIRS; a field grid of 4 max_index + 1 points a side in MAX_GRID_POINTS
    n_random_modes: Annotated[int, 1, math.isqrt(wigner.MAX_PAIRS)] = 4
    max_index: Annotated[int, 0, (round(em.MAX_GRID_POINTS ** (1 / 3)) - 1) // 4] = 2
    n_quanta: _Bounded = 5.0
    seed: _Seed = 7
    t_final: _Time = 1.0


def _random_mode_set(cfg: PhotonFieldConfig, medium, hbar):
    available = (2 * cfg.max_index + 1) ** 3 - 1  # nonzero index triples
    if cfg.n_random_modes > available:
        raise ConfigError(f"n_random_modes exceeds the {available} nonzero wavevectors")
    rng = np.random.default_rng(cfg.seed)
    chosen: dict[tuple[int, int, int], None] = {}  # in the order of their first draws
    while len(chosen) < cfg.n_random_modes:
        n = tuple(int(c) for c in rng.integers(-cfg.max_index, cfg.max_index + 1, size=3))
        if n != (0, 0, 0):
            chosen.setdefault(n)
    base = 2.0 * np.pi / cfg.box_length
    k = base * np.asarray(list(chosen), dtype=float)
    e1, e2, _ = em.polarization_basis(k)
    c = rng.normal(size=(len(k), 4)).T[:, :, None]  # the stream of one draw of 4 per mode
    psik = (c[0] + 1j * c[1]) * e1 + (c[2] + 1j * c[3]) * e2
    return em.PhotonModeSet(k=k, psik=psik, box_length=cfg.box_length, medium=medium, hbar=hbar)


def run_photon_field(cfg: PhotonFieldConfig, u: UnitSystem, sink):
    medium = em.MediumParams(eps=cfg.eps, mu=cfg.mu, c=u.c)
    modes = _random_mode_set(cfg, medium, u.hbar)
    modes = em.normalize_photons(modes, cfg.n_quanta)

    e_mode = em.mode_energy_3d(modes)
    e_field = em.field_energy(modes)
    w3 = wigner.wigner_3d(modes)
    e_wigner = wigner.wigner_3d_energy(w3, medium.v)
    number = em.photon_number(modes)

    modes_t = em.evolve_mode_set(modes, cfg.t_final)
    summary = {
        "photon_number": number,
        "number_vs_wigner": _rel(number - wigner.wigner_3d_total(w3), number),
        "energy_mode": e_mode,
        "energy_field": e_field,
        "energy_wigner": e_wigner,
        "energy_field_vs_mode": _rel(e_field - e_mode, e_mode),
        "energy_wigner_vs_mode": _rel(e_wigner - e_mode, e_mode),
        "energy_drift": _rel(em.mode_energy_3d(modes_t) - e_mode, e_mode),
        "number_drift": _rel(em.photon_number(modes_t) - number, number),
    }
    k = modes.k
    artifacts = {
        "modes.csv": {
            "kx": k[:, 0],
            "ky": k[:, 1],
            "kz": k[:, 2],
            "omega": modes.omega(),
            "eta": modes.eta(),
        },
    }
    return summary, artifacts


# --- helicity-cylindrical ----------------------------------------------------


@dataclass(frozen=True)
class HelicityCylindricalConfig:
    k: _Scale = 1.0
    v: _Signed = 1.0
    mesh_n: _MeshPlanes = 9
    spacing: _Scale = 1e-3
    dt: _Bounded = 1e-3
    center_x: _Signed = 0.3
    center_y: _Signed = -0.2
    center_z: float = 0.1


def run_helicity_cylindrical(cfg: HelicityCylindricalConfig, u: UnitSystem, sink):
    center = (cfg.center_x, cfg.center_y, cfg.center_z)
    plane_k = np.array([0.0, 0.5, cfg.k])
    figures = helicity.cylindrical_figures(plane_k, cfg.k, cfg.v, cfg.mesh_n, cfg.spacing, cfg.dt, center)
    return figures, {}


# --- thermal-planck ----------------------------------------------------------


@dataclass(frozen=True)
class ThermalPlanckConfig:
    gamma: float = 1.0
    temperature: _Divisor = 1.0
    v: float | None = None
    model: Model = "wien-stimulated"
    x_min: float = 0.05
    x_max: float = 20.0
    n_cells: Annotated[int, 1, MAX_THERMAL_CELLS] = 200
    init: Init = "zero"
    n_folds: float = 30.0


def run_thermal_planck(cfg: ThermalPlanckConfig, u: UnitSystem, sink):
    model = kinetics.SourceModel(cfg.model)
    params = kinetics.KineticParams.in_units(u, cfg.gamma, cfg.temperature, v=cfg.v)
    if not 0 < cfg.x_min < cfg.x_max:
        raise ConfigError("need 0 < x_min < x_max")
    # every x lies in (0, x_max] and v > 0, so the top momentum and energy bound the grid's; the
    # spectrum goes as lambda^-5 within 8x of the Wien peak h v / (WIEN_X k_B T)
    p_top = cfg.x_max * params.p_thermal
    lam_max, product = kinetics.wien_peak(params)
    with np.errstate(all="ignore"):
        lam = np.linspace(lam_max / 8.0, lam_max * 8.0, 200)
        spectrum = kinetics.spectral_energy_density(lam, params)
    if not (math.isfinite(params.v * p_top) and np.all((spectrum > 0) & (spectrum < math.inf))):
        raise ConfigError(
            f"the top momentum x_max k_B T / v, its energy or the spectrum is out of the float"
            f" range from x_max = {cfg.x_max!r}, temperature = {cfg.temperature!r} and v = {params.v!r}"
        )
    x = np.linspace(cfg.x_min, cfg.x_max, cfg.n_cells)
    p = x * params.p_thermal
    eps = params.v * p

    # each initial state is the fixed point of a model: zero of none, Planck of wien-stimulated
    init = {"zero": "none", "planck": "wien-stimulated"}.get(cfg.init, cfg.init)
    # 1/x and 1/rate overflow on a grid reaching into subnormal x: refused below, without warnings
    with np.errstate(all="ignore"):
        f0 = kinetics.equilibrium_f(eps, params, init)
        state0 = kinetics.KineticState(p=p, f=f0)
        final, elapsed = kinetics.relax_to_equilibrium(state0, params, model, cfg.n_folds)
        target = kinetics.equilibrium_f(eps, params, model)
        rhs = kinetics.kinetic_rhs(eps, target, params, model)
    if not all(np.all(np.isfinite(a)) for a in (f0, target, rhs)):
        raise ConfigError(
            f"the fixed point or gain is not finite on the grid from x_min = {cfg.x_min!r}"
        )
    if not math.isfinite(elapsed):  # n_folds over the slowest rate, which underflows to 0
        raise ConfigError(
            f"the relaxation time is not finite from gamma = {cfg.gamma!r}"
            f" and n_folds = {cfg.n_folds!r}"
        )
    if model is kinetics.SourceModel.NONE:
        # damping only: the fixed point is zero, so scale by the initial peak
        resid = _rel(final.f - target, max(float(np.max(f0)), 1e-300))
    else:
        resid = float(np.max(np.abs(final.f - target) / np.maximum(target, 1e-300)))

    n_density = kinetics.thermal_photon_count(params)
    summary = {
        "relative_residual": resid,
        "stationarity_residual": _rel(rhs, params.gamma * 2.0 / params.h**3),
        "elapsed": elapsed,
        "peak_wavelength": lam_max,
        "peak_product": product,
        "photon_density": n_density,
        "photons_per_peak_cube": n_density * lam_max**3,
    }
    artifacts = {
        "distribution.csv": {
            "x": x,
            "f_initial": f0,
            "f_final": final.f,
            "f_target": target,
        },
        "spectrum.csv": {
            "wavelength": lam,
            "energy_density": spectrum,
        },
    }
    return summary, artifacts


# --- verify kinds ------------------------------------------------------------


@dataclass(frozen=True)
class VerifyLatticeConfig:
    n_sites: int = 128
    m: _Scale = 1.0
    omega0: _Pinning = 0.5
    kappa: _Coupling = 1.0
    ell: _Spacing = 1.0
    seed: _Seed = 11
    t_exact: _Time = 7.3
    dt_factor: _Divisor = 0.05
    n_steps: int = 2000
    negative_control: bool = False


def verify_lattice(cfg: VerifyLatticeConfig, u: UnitSystem, sink):
    sample_every = 10
    lattice.check_series_size(cfg.n_steps // sample_every + 1, cfg.n_sites)
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
    checks["parseval_energy"] = (_rel(lattice.total_mode_energy(spec) - h_site, h_site), 1e-12)

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
        _rel(lattice.total_mode_energy(modes_t) - h_site, h_site), 1e-10
    )
    wave_t = lattice.evolve_psi(wave, cfg.t_exact, params)
    checks["eta_invariance"] = (_rel(wave_t.eta - wave.eta, np.max(wave.eta)), 1e-12)

    dt = cfg.dt_factor / params.omega_max
    _, energies, _ = lattice.leapfrog_energy_series(state, params, dt, cfg.n_steps, sample_every)
    theta = params.omega_max * dt
    checks["leapfrog_energy_bound"] = (_rel(energies - h_site, h_site), 0.5 * theta**2)

    return _check_summary(checks)


@dataclass(frozen=True)
class VerifyHelicityConfig:
    k: _Scale = 1.5
    v: _Positive = 0.9
    spacing: _Scale = 2e-3
    dt: _Bounded = 2e-3
    mesh_n: _MeshPlanes = 7
    negative_control: bool = False


def verify_helicity(cfg: VerifyHelicityConfig, u: UnitSystem, sink):
    k = float(cfg.k)  # an int k is kept as given; float products overflow to inf, not raise
    kh, omega_dt = k * cfg.spacing, cfg.v * k * cfg.dt
    bound = 0.5 * kh * kh + 0.25 * omega_dt * omega_dt
    if not math.isfinite(bound):  # an infinite bound passes every check
        raise ConfigError(
            f"k spacing = {kh!r} and v k dt = {omega_dt!r} overflow the residual bound"
        )
    plane_k = np.array([0.3, -0.4, cfg.k])
    fig = helicity.cylindrical_figures(
        plane_k, cfg.k, cfg.v, cfg.mesh_n, cfg.spacing, cfg.dt, (0.25, 0.15, -0.3), precession=True
    )
    # the negative control holds the sigma = +1 mode to the sigma = -1 eigencheck
    same = fig["eigencheck_opposite" if cfg.negative_control else "eigencheck_same"]
    # unfloored, so a zero half-spacing residual stops the run
    order = fig["beltrami_residual"] / fig["beltrami_residual_half_h"]
    checks = {
        "eigencheck_same": (same, 1e-12),
        "eigencheck_opposite": (abs(fig["eigencheck_opposite"] - 2.0), 1e-12),
        "equation_residual": (fig["equation_residual"], bound),
        "stencil_order": (abs(order - 4.0), 0.5),
        "precession_phase": (fig["precession_phase"], 1e-12),
    }
    return _check_summary(checks)


def _check_summary(checks):
    table = {
        name: {"value": value, "bound": bound, "passed": bool(value <= bound)}
        for name, (value, bound) in checks.items()
    }
    return {"checks": table, "passed": all(row["passed"] for row in table.values())}, {}


# --- scenario table and config parsing ---------------------------------------

# scenario -> (CLI command that runs it, module block holding its parameters,
# config dataclass, runner); the only table routing scenarios to commands
SCENARIOS = {
    "phonon-gaussian": ("phonon-sim", "lattice", PhononGaussianConfig, run_phonon_gaussian),
    "traveling-wave": ("phonon-sim", "lattice", TravelingWaveConfig, run_traveling_wave),
    "wigner-gaussian": ("wigner", "wigner", WignerGaussianConfig, run_wigner_gaussian),
    "photon-field": ("photon-field", "field", PhotonFieldConfig, run_photon_field),
    "helicity-cylindrical": (
        "helicity-check", "helicity", HelicityCylindricalConfig, run_helicity_cylindrical
    ),
    "thermal-planck": ("thermal-relax", "kinetics", ThermalPlanckConfig, run_thermal_planck),
    "verify-lattice": ("verify", "lattice", VerifyLatticeConfig, verify_lattice),
    "verify-helicity": ("verify", "helicity", VerifyHelicityConfig, verify_helicity),
}


@dataclass(frozen=True)
class TopConfig:
    scenario: str
    units: Units
    params: object
    output: OutputOptions


def parse_config(data, command=None, out_dir=None) -> TopConfig:
    """Validate a raw config dict and build the scenario dataclass.

    Layout: schema_version, scenario, units, optional seed, optional output
    block, plus the one module block SCENARIOS names.  `command` restricts
    the accepted scenarios to those SCENARIOS routes to it; `out_dir`
    overrides the file's checked output directory without mutating it.
    """
    if not isinstance(data, dict):
        raise ConfigError("top level must be an object")
    if data.get("schema_version") != SCHEMA_VERSION or type(data["schema_version"]) is not int:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    scenario = data.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}")
    command_of, block_name, cls, _ = SCENARIOS[scenario]
    if command is not None and command != command_of:
        expected = sorted(name for name, row in SCENARIOS.items() if row[0] == command)
        raise ConfigError(f"scenario {scenario!r} is not handled here; expected one of {expected}")

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
    if "seed" in data:
        kwargs["seed"] = data["seed"]
    params = _strict(cls, kwargs, block_name)
    units = data.get("units", "natural")
    want = _misfit(units, Units)
    if want is not None:
        raise ConfigError(f"bad top-level value: units must be {want}, got {units!r}")
    output = _strict(OutputOptions, data.get("output", {}), "output")
    if out_dir is not None:
        output = dataclasses.replace(output, dir=out_dir)
    return TopConfig(scenario=scenario, units=units, params=params, output=output)


def effective_dict(top: TopConfig) -> dict:
    """Config dict with every default made explicit; reparses to an equal value."""
    block = dataclasses.asdict(top.params)
    result = {
        "schema_version": SCHEMA_VERSION,
        "scenario": top.scenario,
        "units": top.units,
    }
    if "seed" in block:
        result["seed"] = block.pop("seed")
    result["output"] = dataclasses.asdict(top.output)
    result[SCENARIOS[top.scenario][1]] = block
    return result


def run_config(top: TopConfig, sink):
    runner = SCENARIOS[top.scenario][3]
    summary, artifacts = runner(top.params, get_units(top.units), sink)
    return {"scenario": top.scenario, "units": top.units, **summary}, artifacts
