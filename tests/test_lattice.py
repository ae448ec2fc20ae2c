"""Chain dynamics: energy bookkeeping, mode transforms, exact evolution, leapfrog."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavekit import lattice


def chain(n_sites=64, omega0=0.0, m=1.0, kappa=1.0, ell=1.0):
    return lattice.LatticeParams(m=m, omega0=omega0, kappa=kappa, ell=ell, n_sites=n_sites)


def random_state(params, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    u = scale * rng.normal(size=params.n_sites)
    v = scale * rng.normal(size=params.n_sites)
    return lattice.LatticeState(u=u, v=v)


# ---------------------------------------------------------------------------
# energies


def test_single_displaced_site_energy():
    # one stretched pair of springs on an otherwise resting 4-site ring
    params = chain(n_sites=4)
    state = lattice.LatticeState(u=np.array([1.0, 0.0, 0.0, 0.0]), v=np.zeros(4))
    assert lattice.hamiltonian_energy(state, params) == pytest.approx(1.0, abs=0.0)


def test_onsite_and_kinetic_terms():
    params = chain(n_sites=4, omega0=2.0, m=2.0, kappa=1.0)
    state = lattice.LatticeState(
        u=np.array([0.5, 0.0, 0.0, 0.0]), v=np.array([0.0, 1.0, 0.0, 0.0])
    )
    # v^2/(2m) + m*omega0^2*u^2/2 + m*kappa*(two stretched bonds)/2 = 0.25 + 1.0 + 0.5
    assert lattice.hamiltonian_energy(state, params) == pytest.approx(1.75, rel=1e-15)


def test_mode_energies_sum_to_hamiltonian():
    params = chain(n_sites=32, omega0=0.7)
    state = random_state(params, seed=5)
    modes = lattice.dft_to_modes(state, params)
    total = lattice.total_mode_energy(modes)
    assert total == pytest.approx(lattice.hamiltonian_energy(state, params), rel=1e-12)
    assert np.all(lattice.mode_energy(modes) >= 0.0)


# ---------------------------------------------------------------------------
# dispersion


def test_dispersion_band_edges():
    params = chain()
    assert lattice.dispersion(np.array([0.0]), params)[0] == 0.0
    assert lattice.dispersion(np.array([math.pi]), params)[0] == pytest.approx(2.0, rel=1e-15)
    gapped = chain(omega0=3.0)
    assert lattice.dispersion(np.array([0.0]), gapped)[0] == pytest.approx(3.0, rel=1e-15)
    assert lattice.dispersion(np.array([math.pi]), gapped)[0] == pytest.approx(
        math.sqrt(13.0), rel=1e-15
    )
    assert gapped.omega_max == pytest.approx(math.sqrt(13.0), rel=1e-15)


def test_group_velocity_matches_dispersion_slope():
    params = chain(omega0=0.3)
    k = np.linspace(0.1, math.pi - 0.1, 7)
    h = 1e-6
    slope = (lattice.dispersion(k + h, params) - lattice.dispersion(k - h, params)) / (2 * h)
    vg = lattice.group_velocity(k, params)
    assert np.max(np.abs(vg - slope)) < 1e-8
    # gapless long-wave limit is the sound speed
    gapless = chain()
    assert gapless.v_ell == pytest.approx(1.0, rel=1e-15)
    assert lattice.group_velocity(np.array([1e-7]), gapless)[0] == pytest.approx(
        gapless.v_ell, rel=1e-6
    )


# ---------------------------------------------------------------------------
# transforms


def test_impulse_has_flat_spectrum():
    # a single displaced site spreads evenly over the band: sqrt(ell/2pi) each
    params = chain(n_sites=16, ell=1.0)
    state = lattice.LatticeState(u=np.zeros(16), v=np.zeros(16))
    state.u[0] = 1.0
    modes = lattice.dft_to_modes(state, params)
    assert np.max(np.abs(np.abs(modes.uk) - 0.3989422804014327)) < 1e-14
    assert np.max(np.abs(modes.vk)) == 0.0


@given(seed=st.integers(0, 2**31), n_exp=st.integers(2, 6))
def test_site_mode_roundtrip(seed, n_exp):
    params = chain(n_sites=2**n_exp)
    state = random_state(params, seed)
    back = lattice.idft_from_modes(lattice.dft_to_modes(state, params))
    assert np.max(np.abs(back.u - state.u)) < 1e-12
    assert np.max(np.abs(back.v - state.v)) < 1e-12


@given(seed=st.integers(0, 2**31))
def test_parseval_energy(seed):
    params = chain(n_sites=32, omega0=0.4)
    state = random_state(params, seed)
    modes = lattice.dft_to_modes(state, params)
    assert lattice.total_mode_energy(modes) == pytest.approx(
        lattice.hamiltonian_energy(state, params), rel=1e-12
    )


@given(seed=st.integers(0, 2**31))
def test_reality_residual_vanishes_for_real_states(seed):
    params = chain(n_sites=16)
    modes = lattice.dft_to_modes(random_state(params, seed), params)
    assert lattice.reality_residual(modes) < 1e-13


def test_psi_roundtrip_and_energy():
    params = chain(n_sites=64, omega0=0.5)
    state = random_state(params, seed=9)
    modes = lattice.dft_to_modes(state, params)
    wave = lattice.psi_from_modes(modes, hbar=1.0)
    back = lattice.modes_from_psi(wave, params)
    assert np.max(np.abs(back.uk - modes.uk)) < 1e-12
    assert np.max(np.abs(back.vk - modes.vk)) < 1e-12
    assert lattice.psi_energy(wave, params) == pytest.approx(
        lattice.hamiltonian_energy(state, params), rel=1e-12
    )


def test_gapless_chain_with_drift_rejected():
    # the k=0 mode has no frequency, so its action amplitude is undefined
    params = chain(n_sites=8, omega0=0.0)
    state = lattice.LatticeState(u=np.zeros(8), v=np.ones(8))
    modes = lattice.dft_to_modes(state, params)
    with pytest.raises(ValueError):
        lattice.psi_from_modes(modes, hbar=1.0)


# ---------------------------------------------------------------------------
# exact evolution


@given(t=st.floats(-50.0, 50.0, allow_nan=False), seed=st.integers(0, 2**31))
def test_exact_evolution_conserves_energy_and_action(t, seed):
    params = chain(n_sites=32, omega0=0.6)
    modes = lattice.dft_to_modes(random_state(params, seed), params)
    evolved = lattice.evolve_modes_exact(modes, t)
    assert lattice.total_mode_energy(evolved) == pytest.approx(
        lattice.total_mode_energy(modes), rel=1e-12
    )
    eta0 = lattice.psi_from_modes(modes, 1.0).eta
    eta1 = lattice.psi_from_modes(evolved, 1.0).eta
    assert np.max(np.abs(eta1 - eta0)) < 1e-12 * max(np.max(eta0), 1.0)


def test_exact_evolution_group_property():
    params = chain(n_sites=32, omega0=0.6)
    modes = lattice.dft_to_modes(random_state(params, seed=3), params)
    one = lattice.evolve_modes_exact(lattice.evolve_modes_exact(modes, 1.3), 2.4)
    two = lattice.evolve_modes_exact(modes, 3.7)
    assert np.max(np.abs(one.uk - two.uk)) < 1e-12
    assert np.max(np.abs(one.vk - two.vk)) < 1e-12


def test_exact_evolution_satisfies_equation_of_motion():
    # central second difference of u(t) must reproduce -omega^2 u
    params = chain(n_sites=16, omega0=0.8)
    modes = lattice.dft_to_modes(random_state(params, seed=11), params)
    dt = 1e-4
    up = lattice.evolve_modes_exact(modes, dt).uk
    um = lattice.evolve_modes_exact(modes, -dt).uk
    accel = (up - 2.0 * modes.uk + um) / dt**2
    target = -lattice.dispersion(modes.k, params) ** 2 * modes.uk
    scale = np.max(np.abs(target)) + 1.0
    assert np.max(np.abs(accel - target)) / scale < 1e-6


def test_evolve_psi_matches_mode_evolution():
    params = chain(n_sites=32, omega0=0.5)
    modes = lattice.dft_to_modes(random_state(params, seed=21), params)
    wave = lattice.psi_from_modes(modes, 1.0)
    via_psi = lattice.evolve_psi(wave, 4.2, params=params)
    via_modes = lattice.psi_from_modes(lattice.evolve_modes_exact(modes, 4.2), 1.0)
    assert np.max(np.abs(via_psi.psik - via_modes.psik)) < 1e-12


# ---------------------------------------------------------------------------
# traveling waves


def test_traveling_packet_transports_rigidly():
    params = chain(n_sites=512)
    x = params.x_grid()
    width = 20.0
    u0 = np.exp(-((x - params.length / 4) ** 2) / (2 * width**2))
    state = lattice.traveling_wave_init(u0, 1, params)
    modes = lattice.dft_to_modes(state, params)
    t = 32.0
    evolved = lattice.idft_from_modes(lattice.evolve_modes_exact(modes, t), t=t)
    pred = np.interp((x - params.v_ell * t) % params.length, x, state.u, period=params.length)
    assert np.max(np.abs(evolved.u - pred)) / np.max(np.abs(state.u)) < 1e-3


def test_traveling_packet_chirality():
    params = chain(n_sites=256)
    x = params.x_grid()
    u0 = np.exp(-((x - params.length / 2) ** 2) / (2 * 12.0**2))
    for direction in (1, -1):
        state = lattice.traveling_wave_init(u0, direction, params)
        wave = lattice.psi_from_modes(lattice.dft_to_modes(state, params), 1.0)
        assert lattice.chirality_leakage(wave, direction) < 1e-12
        assert lattice.chirality_leakage(wave, -direction) == pytest.approx(1.0, abs=1e-12)


def test_empty_wave_has_no_chirality_leakage():
    wave = lattice.ActionWave(psik=np.zeros(8), k=np.linspace(-3.0, 3.0, 8), ell=1.0, hbar=1.0)
    assert lattice.chirality_leakage(wave, 1) == 0.0
    assert lattice.chirality_leakage(wave, -1) == 0.0


def test_traveling_wave_init_rejects_bad_direction():
    params = chain(n_sites=8)
    with pytest.raises(ValueError):
        lattice.traveling_wave_init(np.ones(8), 0, params)


# ---------------------------------------------------------------------------
# leapfrog


def test_leapfrog_step_size_validation():
    params = chain(n_sites=8)
    state = random_state(params, seed=1)
    for dt in (0.0, -0.1, 2.0 / params.omega_max):
        with pytest.raises(ValueError):
            lattice.leapfrog_energy_series(state, params, dt, 10)


def test_leapfrog_time_reversal():
    params = chain(n_sites=32, omega0=0.4)
    state = random_state(params, seed=7)
    dt = 0.05 / params.omega_max
    _, _, fwd = lattice.leapfrog_energy_series(state, params, dt, 500)
    flipped = lattice.LatticeState(u=fwd.u.copy(), v=-fwd.v)
    _, _, back = lattice.leapfrog_energy_series(flipped, params, dt, 500)
    assert np.max(np.abs(back.u - state.u)) < 1e-9
    assert np.max(np.abs(back.v + state.v)) < 1e-9


def standing_mode(params, cells):
    x = params.x_grid()
    k = 2 * math.pi * cells / params.length
    return lattice.LatticeState(u=np.cos(k * x), v=np.zeros(params.n_sites)), k


@pytest.mark.parametrize("cells", [2, 8, 16])
def test_leapfrog_drift_envelope_standing_mode(cells):
    # a standing mode oscillates inside a (omega*dt)^2/4 energy envelope
    params = chain(n_sites=64)
    state, k = standing_mode(params, cells)
    w = lattice.dispersion(np.array([k]), params)[0]
    dt = 0.1 / params.omega_max
    _, energies, _ = lattice.leapfrog_energy_series(state, params, dt, 8000)
    drift = np.max(np.abs(energies - energies[0])) / energies[0]
    envelope = (w * dt) ** 2 / 4.0
    assert drift == pytest.approx(envelope, rel=0.02)


@pytest.mark.parametrize("cells", [2, 8, 16])
def test_leapfrog_drift_envelope_traveling_mode(cells):
    # quadrature (equal kinetic and potential) modes do far better: (omega*dt)^4/32
    params = chain(n_sites=64)
    state, k = standing_mode(params, cells)
    w = lattice.dispersion(np.array([k]), params)[0]
    state = lattice.LatticeState(u=state.u, v=params.m * w * np.sin(k * params.x_grid()))
    dt = 0.1 / params.omega_max
    _, energies, _ = lattice.leapfrog_energy_series(state, params, dt, 8000)
    drift = np.max(np.abs(energies - energies[0])) / energies[0]
    envelope = (w * dt) ** 4 / 32.0
    assert drift == pytest.approx(envelope, rel=0.05)


# ---------------------------------------------------------------------------
# leapfrog series against the step loop it replaced


def accelerations(u, params):
    lap = np.roll(u, -1) + np.roll(u, 1) - 2.0 * u
    return -params.omega0**2 * u + params.kappa * lap


def leapfrog_step(state, params, dt):
    """One kick-drift-kick step; stable for 0 < dt < 2/omega_max."""
    # v is momentum: kick by m * du/dt-acceleration, drift by v/m
    a = accelerations(state.u, params)
    v_half = state.v + 0.5 * dt * params.m * a
    u_new = state.u + dt * v_half / params.m
    v_new = v_half + 0.5 * dt * params.m * accelerations(u_new, params)
    return lattice.LatticeState(u=u_new, v=v_new, t=state.t + dt)


def leapfrog_loop(state, params, dt, n_steps, sample_every=1):
    """The step-by-step series, kept as the oracle of the closed form."""
    times = [state.t]
    energies = [lattice.hamiltonian_energy(state, params)]
    for i in range(n_steps):
        state = leapfrog_step(state, params, dt)
        if (i + 1) % sample_every == 0:
            times.append(state.t)
            energies.append(lattice.hamiltonian_energy(state, params))
    return np.asarray(times), np.asarray(energies), state


def traveling_state(params):
    x = params.x_grid()
    width = params.length / 16.0
    u0 = np.exp(-((x - params.length / 4) ** 2) / (2 * width**2))
    return lattice.traveling_wave_init(u0, 1, params)


def drifting_state(params):
    # nonzero mean momentum: the k = 0 mode of the gapless chain drifts
    state = random_state(params, seed=4)
    return lattice.LatticeState(u=state.u, v=state.v + 0.7, t=1.5)


# (params, state, dt in units of 1/omega_max, n_steps, sample_every)
SERIES_CASES = {
    "traveling": (chain(64), traveling_state, 0.5, 500, 1),
    "drifting": (chain(64), drifting_state, 0.5, 500, 1),
    "gapped": (chain(32, omega0=0.6), lambda p: random_state(p, seed=3), 0.3, 1000, 1),
    "two-sites": (chain(2), drifting_state, 0.5, 100, 1),
    "one-step": (chain(16, omega0=0.5), lambda p: random_state(p, seed=5), 0.5, 1, 1),
    "ragged-samples": (chain(16, omega0=0.5), lambda p: random_state(p, seed=6), 0.5, 100, 7),
    "long-gapped": (chain(128, omega0=0.5), lambda p: random_state(p, seed=11), 0.05, 6000, 10),
    # at the stability limit the top mode's energy swings by 1/(1 - (omega dt/2)^2) ~ 500,
    # which magnifies round-off of loop and closed form alike; a band-limited state keeps
    # the energy away from it while the top modes still turn by theta ~ pi
    "stability-limit": (chain(256), traveling_state, 0.999 * 2.0, 1000, 1),
    "large": (chain(16384), drifting_state, 0.5, 2000, 1),
}


@pytest.mark.parametrize("case", list(SERIES_CASES))
def test_leapfrog_series_matches_step_loop(case):
    params, make_state, dt_factor, n_steps, sample_every = SERIES_CASES[case]
    state = make_state(params)
    dt = dt_factor / params.omega_max
    times, energies, final = lattice.leapfrog_energy_series(
        state, params, dt, n_steps, sample_every
    )
    ref_times, ref_energies, ref = leapfrog_loop(state, params, dt, n_steps, sample_every)
    assert times.shape == ref_times.shape == (n_steps // sample_every + 1,)
    assert np.allclose(times, ref_times, rtol=1e-12, atol=0.0)
    assert final.t == pytest.approx(ref.t, rel=1e-12)
    assert np.max(np.abs(final.u - ref.u)) <= 1e-12 * np.max(np.abs(ref.u))
    assert np.max(np.abs(final.v - ref.v)) <= 1e-12 * np.max(np.abs(ref.v))
    assert np.max(np.abs(energies - ref_energies)) <= 1e-13 * ref_energies[0]


# ---------------------------------------------------------------------------
# leapfrog series against the per-sample phase recurrence its lanes replaced


def recurrence_series(state, params, dt, n_steps, sample_every=1):
    """The series with one pass of the phase recurrence per energy sample, kept as the
    bit-exact oracle of the lanes that leapfrog_energy_series turns side by side."""
    n = state.u.size
    n_samples = n_steps // sample_every + 1
    steps = np.arange(n_samples) * sample_every
    m = params.m
    uk = np.fft.rfft(state.u)
    vk = np.fft.rfft(state.v)
    j = np.arange(uk.size)
    half = 0.5 * dt * np.sqrt(params.omega0**2 + 4.0 * params.kappa * np.sin(np.pi * j / n) ** 2)
    theta = 2.0 * np.arcsin(half)
    m_omega = m * np.sin(theta) / dt
    c, s = np.cos(n_steps * theta), np.sin(n_steps * theta)
    s_over = np.divide(s, m_omega, out=np.full(uk.size, n_steps * dt / m), where=m_omega > 0)
    u_final = np.fft.irfft(c * uk + s_over * vk, n)
    v_final = np.fft.irfft(c * vk - m_omega * s * uk, n)
    weight = np.full(uk.size, 1.0 / (2.0 * m * n))
    weight[0] /= 2.0
    if n % 2 == 0:
        weight[-1] /= 2.0
    q = half**2
    a = m_omega * uk
    base = float(np.sum(weight * (2.0 - q) / (1.0 - q) * (np.abs(a) ** 2 + np.abs(vk) ** 2)))
    z = weight * q / (1.0 - q) * np.conj(a + 1j * vk) * (a - 1j * vk)
    energies = np.empty(n_samples)
    turn = np.exp(2j * sample_every * theta)
    for start in range(0, n_samples, 256):
        term = z * np.exp(2j * steps[start] * theta)
        for i in range(start, min(start + 256, n_samples)):
            energies[i] = np.sum(term.real)
            term *= turn
    energies += base
    times = state.t + steps * dt
    return times, energies, lattice.LatticeState(u=u_final, v=v_final, t=state.t + n_steps * dt)


def assert_same_series(params, state, dt, n_steps, sample_every):
    times, energies, final = lattice.leapfrog_energy_series(state, params, dt, n_steps, sample_every)
    ref_times, ref_energies, ref = recurrence_series(state, params, dt, n_steps, sample_every)
    where = (params.n_sites, n_steps, sample_every)
    assert energies.shape == (n_steps // sample_every + 1,), where
    assert np.array_equal(energies, ref_energies), where
    assert np.array_equal(times, ref_times), where
    assert np.array_equal(final.u, ref.u) and np.array_equal(final.v, ref.v), where
    assert final.t == ref.t, where


@pytest.mark.parametrize("n_sites", [2, 64, 1024, 16384, 131072])
def test_leapfrog_series_lanes_match_the_recurrence_bit_for_bit(n_sites):
    # 1, 255, 256, 257 and 2001 samples, or as many as MAX_SERIES_CELLS allows (1024 on
    # 131072 sites); at sample_every 1 a series takes 2 samples at least, and at 10 the step
    # counts are ragged.  On 1024 sites, 2001 samples are 8 lanes in one group, the last lane
    # partial; on 16384 and 131072 each lane is a group of its own.  Near the stability limit
    # the oscillating energy is large against the constant part, so a lane's last bits show
    params = chain(n_sites, omega0=0.3)
    state = drifting_state(params)
    dt = 1.99 / params.omega_max
    for n_samples in (1, 255, 256, 257, 2001):
        n_samples = min(n_samples, lattice.MAX_SERIES_CELLS // n_sites)
        for sample_every in (1, 10):
            n_steps = max(1, (n_samples - 1) * sample_every + sample_every // 2)
            assert_same_series(params, state, dt, n_steps, sample_every)


@pytest.mark.parametrize(
    "n_sites, lanes, n_steps",
    [
        (64, 3, 2000),  # 8 lanes in groups of 3, 3 and 2, the last lane partial
        # 3 lanes in groups of 2 and 1; a group seeded by one broadcast exp over its lanes
        # would differ here in the last bits
        (131072, 2, 512),
    ],
)
def test_leapfrog_series_lane_groups_match_the_recurrence(monkeypatch, n_sites, lanes, n_steps):
    params = chain(n_sites, omega0=0.3)
    monkeypatch.setattr(lattice, "_LANE_BYTES", lanes * 16 * (n_sites // 2 + 1))
    assert_same_series(params, drifting_state(params), 1.99 / params.omega_max, n_steps, 1)


def test_leapfrog_series_workspace_is_bounded():
    # the largest series that MAX_SERIES_CELLS allows on 16384 sites: 8192 samples in 32 lanes
    params = chain(16384)
    state = random_state(params, seed=2)
    n_samples = lattice.MAX_SERIES_CELLS // params.n_sites
    bins = params.n_sites // 2 + 1
    # the O(n) arrays, 32 float64 values per real-FFT bin and 4 per sample, plus the lane
    # budget.  Measured 2.16 MB of the bound's 2.62 MB, the one-lane recurrence's peak, which
    # the transforms set; the 32 lanes at once would add 4.2 MB
    bound = 8 * (32 * bins + 4 * n_samples) + lattice._LANE_BYTES
    tracemalloc.start()
    try:
        lattice.leapfrog_energy_series(state, params, 0.5 / params.omega_max, n_samples - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound)
