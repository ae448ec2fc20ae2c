"""Relaxation kinetics: fixed points, rates against an independent integrator,
transport, and the thermal-law quantities."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq
from scipy.special import zeta

from wavekit import cli, experiments, kinetics, units

NATURAL = kinetics.KineticParams(gamma=1.0, temperature=1.0)
ALL_MODELS = list(kinetics.SourceModel)


def thermal_state(params, x_grid, fill=None):
    p = x_grid * params.k_B * params.temperature / params.v
    f = np.zeros_like(p) if fill is None else fill(params.v * p)
    return kinetics.KineticState(p=p, f=np.asarray(f, dtype=float))


# ---------------------------------------------------------------------------
# parameters and state validation


def test_params_validation_and_units():
    with pytest.raises(ValueError):
        kinetics.KineticParams(gamma=0.0, temperature=1.0)
    with pytest.raises(ValueError):
        kinetics.KineticParams(gamma=1.0, temperature=-2.0)
    u = units.get_units("mev-ps")
    params = kinetics.KineticParams.in_units(u, gamma=0.5, temperature=300.0)
    assert params.h == pytest.approx(4.1, rel=1e-15)
    assert params.v == pytest.approx(299.792458, rel=1e-15)
    assert params.k_B == pytest.approx(0.086, rel=1e-15)
    assert params.p_thermal == pytest.approx(0.086 * 300.0 / 299.792458, rel=1e-14)
    with pytest.raises(ValueError):
        units.get_units("imperial")


def test_state_validation():
    with pytest.raises(ValueError):
        kinetics.KineticState(p=np.array([0.0, 1.0]), f=np.zeros(2))
    with pytest.raises(ValueError):
        kinetics.KineticState(p=np.array([1.0, 2.0]), f=np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        kinetics.KineticState(p=np.ones(3), f=np.ones(2))


# ---------------------------------------------------------------------------
# fixed points


def test_planck_value_at_log2():
    # at eps = kT log 2 the occupation is exactly the phase-space prefactor
    for preset, expected in (("natural", 2.0 / (2.0 * math.pi) ** 3), ("mev-ps", 2.0 / 4.1**3)):
        u = units.get_units(preset)
        params = kinetics.KineticParams.in_units(u, gamma=1.0, temperature=1.0)
        eps = math.log(2.0) * params.k_B * params.temperature
        assert kinetics.planck_f(eps, params) == pytest.approx(expected, rel=1e-14)
    assert 2.0 / (2.0 * math.pi) ** 3 == pytest.approx(0.008062883608299874, rel=1e-15)
    assert 2.0 / 4.1**3 == pytest.approx(0.029018731591242155, rel=1e-15)


def test_equilibria_are_stationary():
    x = np.linspace(0.2, 18.0, 40)
    eps = x * NATURAL.k_B * NATURAL.temperature
    for model in ALL_MODELS:
        f_star = np.asarray(kinetics.equilibrium_f(eps, NATURAL, model))
        rhs = np.asarray(kinetics.kinetic_rhs(eps, f_star, NATURAL, model))
        scale = NATURAL.gamma * max(np.max(f_star), 2.0 / NATURAL.h**3)
        assert np.max(np.abs(rhs)) < 5e-15 * scale


def test_planck_is_stationary_only_under_stimulated_gain():
    eps = np.linspace(0.5, 5.0, 9)
    f_T = np.asarray(kinetics.planck_f(eps, NATURAL))
    stim = kinetics.kinetic_rhs(eps, f_T, NATURAL, kinetics.SourceModel.WIEN_STIMULATED)
    plain = kinetics.kinetic_rhs(eps, f_T, NATURAL, kinetics.SourceModel.WIEN)
    assert np.max(np.abs(np.asarray(stim))) < 1e-14 * NATURAL.gamma * np.max(f_T)
    assert np.max(np.abs(np.asarray(plain))) > 1e-3 * NATURAL.gamma * np.max(f_T)


def test_classical_and_quantum_limits_bound_planck():
    x = np.linspace(0.05, 25.0, 200)
    eps = x * NATURAL.k_B * NATURAL.temperature
    f_rj = np.asarray(kinetics.equilibrium_f(eps, NATURAL, kinetics.SourceModel.RAYLEIGH_JEANS))
    f_w = np.asarray(kinetics.equilibrium_f(eps, NATURAL, kinetics.SourceModel.WIEN))
    f_T = np.asarray(kinetics.planck_f(eps, NATURAL))
    assert np.all(f_rj > f_T)
    assert np.all(f_T > f_w)


def test_wien_limit_relative_gap():
    # (f_T - f_W)/f_T telescopes to exp(-x) with no remainder
    x = np.linspace(0.1, 20.0, 120)
    eps = x * NATURAL.k_B * NATURAL.temperature
    f_w = np.asarray(kinetics.equilibrium_f(eps, NATURAL, kinetics.SourceModel.WIEN))
    f_T = np.asarray(kinetics.planck_f(eps, NATURAL))
    gap = (f_T - f_w) / f_T
    assert np.max(np.abs(gap - np.exp(-x))) < 1e-6 * np.max(np.exp(-x))


def test_classical_limit_relative_error_band():
    # (f_RJ - f_T)/f_T = expm1(x)/x - 1 sits between x/2 and x/2 + x^2/5
    x = np.linspace(1e-3, 0.5, 80)
    eps = x * NATURAL.k_B * NATURAL.temperature
    f_rj = np.asarray(kinetics.equilibrium_f(eps, NATURAL, kinetics.SourceModel.RAYLEIGH_JEANS))
    f_T = np.asarray(kinetics.planck_f(eps, NATURAL))
    err = (f_rj - f_T) / f_T
    assert np.all(err >= x / 2.0 * (1.0 - 1e-12))
    assert np.all(err <= x / 2.0 + x**2 / 5.0)


# ---------------------------------------------------------------------------
# rates and steps


def test_rates_match_independent_integration():
    params = kinetics.KineticParams(gamma=0.7, temperature=1.0)
    eps = 1.3
    for model in ALL_MODELS:
        f_star = float(kinetics.equilibrium_f(eps, params, model))
        f0 = f_star + 0.4
        sol = solve_ivp(
            lambda t, y: np.atleast_1d(kinetics.kinetic_rhs(eps, y[0], params, model)),
            (0.0, 2.0), [f0], rtol=1e-12, atol=1e-14, dense_output=True,
        )
        measured = -math.log((sol.sol(2.0)[0] - f_star) / (f0 - f_star)) / 2.0
        assert measured == pytest.approx(
            float(kinetics.effective_rate(eps, params, model)), rel=1e-8
        )
        stepped = kinetics.kinetic_step(
            kinetics.KineticState(p=np.array([eps / params.v]), f=np.array([f0])),
            params, 2.0, model,
        )
        assert stepped.f[0] == pytest.approx(sol.sol(2.0)[0], rel=1e-9)


def test_stimulated_rate_shape():
    x = np.linspace(0.05, 12.0, 50)
    eps = x * NATURAL.k_B * NATURAL.temperature
    rate = np.asarray(
        kinetics.effective_rate(eps, NATURAL, kinetics.SourceModel.WIEN_STIMULATED)
    )
    assert np.max(np.abs(rate - NATURAL.gamma * (-np.expm1(-x)))) < 1e-14 * NATURAL.gamma
    plain = np.asarray(kinetics.effective_rate(eps, NATURAL, kinetics.SourceModel.WIEN))
    assert np.max(np.abs(plain - NATURAL.gamma)) == 0.0


@given(
    dt1=st.floats(0.0, 5.0, allow_nan=False),
    dt2=st.floats(0.0, 5.0, allow_nan=False),
    x0=st.floats(0.1, 10.0, allow_nan=False),
)
def test_step_semigroup_and_contraction(dt1, dt2, x0):
    state = thermal_state(NATURAL, np.array([x0, 2.0 * x0]), fill=lambda e: 0.3 + 0.0 * e)
    model = kinetics.SourceModel.WIEN_STIMULATED
    two = kinetics.kinetic_step(
        kinetics.kinetic_step(state, NATURAL, dt1, model), NATURAL, dt2, model
    )
    one = kinetics.kinetic_step(state, NATURAL, dt1 + dt2, model)
    assert np.max(np.abs(two.f - one.f)) < 1e-13 * max(np.max(np.abs(one.f)), 1e-6)
    f_star = np.asarray(kinetics.equilibrium_f(state.eps(NATURAL), NATURAL, model))
    assert np.all(np.abs(one.f - f_star) <= np.abs(state.f - f_star) + 1e-15)
    assert np.all(one.f >= 0.0)


def test_step_validation():
    state = thermal_state(NATURAL, np.array([1.0]))
    with pytest.raises(ValueError):
        kinetics.kinetic_step(state, NATURAL, -0.1, kinetics.SourceModel.WIEN)


def test_damping_only_loses_quanta_exponentially():
    params = kinetics.KineticParams(gamma=0.4, temperature=1.0)
    state = thermal_state(params, np.linspace(0.5, 8.0, 12), fill=lambda e: 1.0 / (1.0 + e))
    t = 6.25
    later = kinetics.kinetic_step(state, params, t, kinetics.SourceModel.NONE)
    assert np.max(np.abs(later.f - state.f * math.exp(-params.gamma * t))) < 1e-12 * np.max(
        state.f
    )
    assert np.max(np.abs(later.p - state.p)) == 0.0


def test_relaxation_folds_bound():
    params = kinetics.KineticParams(gamma=2.0, temperature=1.0)
    state = thermal_state(params, np.linspace(0.4, 6.0, 16))
    model = kinetics.SourceModel.WIEN_STIMULATED
    final, elapsed = kinetics.relax_to_equilibrium(state, params, model, n_folds=30.0)
    rate_min = float(np.min(np.asarray(kinetics.effective_rate(state.eps(params), params, model))))
    assert elapsed == pytest.approx(30.0 / rate_min, rel=1e-14)
    f_star = np.asarray(kinetics.equilibrium_f(state.eps(params), params, model))
    gap0 = np.max(np.abs(state.f - f_star))
    assert np.max(np.abs(final.f - f_star)) <= math.exp(-30.0) * gap0 * (1.0 + 1e-10)
    with pytest.raises(ValueError):
        kinetics.relax_to_equilibrium(state, params, model, n_folds=0.0)


# ---------------------------------------------------------------------------
# streaming


def stream_once(f, v, dt, dx, gamma=0.3):
    # one streaming step of a single momentum column; damping only, so every
    # cell also scales by the known exp(-gamma dt)
    params = kinetics.KineticParams(gamma=gamma, temperature=1.0, v=v)
    out = kinetics.evolve_with_transport(
        f[:, None], np.ones(1), params, kinetics.SourceModel.NONE, dt, dx, 1
    )
    return out[:, 0] / math.exp(-gamma * dt)


def test_advection_conserves_and_shifts():
    rng = np.random.default_rng(2)
    f = rng.uniform(0.5, 2.0, size=32)
    dx = 0.1
    out = stream_once(f, 0.7, 0.05, dx)
    assert np.sum(out) == pytest.approx(np.sum(f), rel=1e-15)
    assert np.all(out >= 0.0)
    # unit CFL is an exact one-cell shift
    right = stream_once(f, 1.0, dx, dx)
    assert np.max(np.abs(right - np.roll(f, 1))) < 1e-14


def test_advection_validation():
    f = np.ones(8)
    with pytest.raises(ValueError):
        stream_once(f, 2.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        stream_once(f, 0.5, -0.1, 0.1)
    with pytest.raises(ValueError):
        stream_once(f, 0.5, 0.1, 0.0)
    params = kinetics.KineticParams(gamma=0.3, temperature=1.0, v=0.5)
    with pytest.raises(ValueError):
        kinetics.evolve_with_transport(
            np.ones(8), np.ones(1), params, kinetics.SourceModel.NONE, 0.01, 0.1, 1
        )


def transport_column_loop(f_xp, p, params, model, dt, dx, n_steps):
    # the column-by-column streaming that evolve_with_transport replaced
    f = np.array(f_xp, dtype=float)
    eps = params.v * p
    f_star = np.asarray(kinetics.equilibrium_f(eps, params, model))
    decay = np.exp(-np.asarray(kinetics.effective_rate(eps, params, model)) * dt)
    c = params.v * dt / dx  # Courant number of the upwind step
    for _ in range(n_steps):
        for j in range(p.size):
            f[:, j] = f[:, j] - c * (f[:, j] - np.roll(f[:, j], 1))
        f = f_star[None, :] + (f - f_star[None, :]) * decay[None, :]
    return f


def test_transport_plus_damping_total_decay():
    params = kinetics.KineticParams(gamma=0.3, temperature=1.0)
    rng = np.random.default_rng(5)
    p = np.linspace(0.5, 3.0, 4)
    f0 = rng.uniform(0.1, 1.0, size=(16, 4))
    dx = 0.5
    dt = dx / params.v  # unit CFL keeps streaming exact
    n = 20
    out = kinetics.evolve_with_transport(
        f0, p, params, kinetics.SourceModel.NONE, dt, dx, n
    )
    assert np.sum(out) == pytest.approx(np.sum(f0) * math.exp(-params.gamma * n * dt), rel=1e-10)
    with pytest.raises(ValueError):
        kinetics.evolve_with_transport(f0[:, :2], p, params, kinetics.SourceModel.NONE, dt, dx, 1)
    with pytest.raises(ValueError, match="CFL"):
        kinetics.evolve_with_transport(f0, p, params, kinetics.SourceModel.NONE, 1.01 * dt, dx, 1)


@pytest.mark.parametrize("model", list(kinetics.SourceModel))
def test_transport_matches_column_loop(model):
    params = kinetics.KineticParams(gamma=0.7, temperature=1.3)
    rng = np.random.default_rng(8)
    p = np.linspace(0.2, 4.0, 7)
    f0 = rng.uniform(0.0, 2.0, size=(24, 7))
    dx = 0.3
    dt = 0.37 * dx / params.v
    got = kinetics.evolve_with_transport(f0, p, params, model, dt, dx, 15)
    want = transport_column_loop(f0, p, params, model, dt, dx, 15)
    assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# thermal-law quantities


def test_peak_product_against_root_finder():
    lam_max, product = kinetics.wien_peak(NATURAL)
    # the maximum satisfies x = 5 (1 - exp(-x)) in x = h v/(lambda k T)
    x_star = brentq(lambda x: x - 5.0 * (1.0 - math.exp(-x)), 4.0, 6.0, xtol=1e-14)
    assert abs(product - 2.0 * math.pi / x_star) < 5e-10
    assert product == pytest.approx(1.265466414720394, abs=1e-9)
    assert lam_max == pytest.approx(
        NATURAL.h * NATURAL.v / (x_star * NATURAL.k_B * NATURAL.temperature), rel=1e-9
    )


def test_peak_product_is_temperature_and_unit_independent():
    products = []
    for T in (1e-3, 1.0, 1e3):
        params = kinetics.KineticParams(gamma=1.0, temperature=T)
        lam_max, product = kinetics.wien_peak(params)
        products.append(product)
        assert lam_max * T == pytest.approx(
            kinetics.wien_peak(NATURAL)[0] * 1.0, rel=1e-10
        )
    u = units.get_units("mev-ps")
    params = kinetics.KineticParams.in_units(u, gamma=1.0, temperature=300.0)
    products.append(kinetics.wien_peak(params)[1])
    assert np.ptp(products) < 1e-10


def test_room_temperature_peak_wavelength():
    u = units.get_units("mev-ps")
    params = kinetics.KineticParams.in_units(u, gamma=1.0, temperature=300.0)
    lam_max, _ = kinetics.wien_peak(params)
    assert lam_max == pytest.approx(9.595234850161873, rel=1e-9)  # micrometers


def test_photon_count_closed_form():
    count = kinetics.thermal_photon_count(NATURAL)
    closed = 16.0 * math.pi * zeta(3.0) * (NATURAL.p_thermal / NATURAL.h) ** 3
    assert count == pytest.approx(closed, rel=1e-10)
    assert count == pytest.approx(0.2435876564671462, rel=1e-12)


def photons_per_peak_cube(params):
    return kinetics.thermal_photon_count(params) * kinetics.wien_peak(params)[0] ** 3


def test_photons_per_peak_cube():
    n_m = photons_per_peak_cube(NATURAL)
    assert n_m == pytest.approx(0.4936363674090652, rel=1e-9)
    assert 0.47 <= n_m <= 0.50
    # dimensionless: identical in the physical unit system
    u = units.get_units("mev-ps")
    params = kinetics.KineticParams.in_units(u, gamma=1.0, temperature=300.0)
    assert photons_per_peak_cube(params) == pytest.approx(n_m, rel=1e-9)


def test_spectral_density_integrates_to_stefan_boltzmann():
    params = kinetics.KineticParams(gamma=1.0, temperature=1.3)
    total, _ = quad(lambda lam: kinetics.spectral_energy_density(lam, params), 0.0, np.inf,
                    epsrel=1e-12, limit=200)
    closed = (
        8.0 * math.pi**5 * (params.k_B * params.temperature) ** 4
        / (15.0 * params.h**3 * params.v**3)
    )
    assert total == pytest.approx(closed, rel=1e-10)
    with pytest.raises(ValueError):
        kinetics.spectral_energy_density(-1.0, params)


def test_spectral_density_no_overflow_in_tails():
    vals = kinetics.spectral_energy_density(np.array([1e-6, 1e6]), NATURAL)
    assert np.all(np.isfinite(vals))
    assert vals[0] == 0.0  # deep quantum cutoff underflows cleanly


def test_thermal_runner_peak_memory_in_grids(tmp_path):
    # the runner holds x, p, eps and f0 over the relaxation; kinetic_step adds its eps and
    # decay, and equilibrium_f its x, expm1 and quotient: 9 grid-sized arrays at the peak.
    # It read 11.1 while relax_to_equilibrium held its eps and rates over the step
    n_cells = 2**18
    config = Path(__file__).resolve().parents[1] / "configs" / "thermal-planck.json"
    payload = json.loads(config.read_text())
    payload["kinetics"]["n_cells"] = n_cells
    top, sink = experiments.parse_config(payload), cli.Staging(tmp_path)
    experiments.run_config(top, sink)  # warm-up, so one-time caches are not counted
    tracemalloc.start()
    try:
        experiments.run_config(top, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.1 * n_cells * 8
