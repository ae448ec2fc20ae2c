"""Phase-space densities: direct-summation cross-check, closed forms, marginals,
transport, and the 3-D photon column picture."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from wavekit import em, lattice, wigner


def random_wave(n, seed, ell=0.8, hbar=0.9):
    rng = np.random.default_rng(seed)
    dk = 2.0 * math.pi / (ell * n)
    k = (np.arange(n) - n // 2) * dk
    psik = rng.normal(size=n) + 1j * rng.normal(size=n)
    return lattice.ActionWave(psik=psik, k=k, ell=ell, hbar=hbar)


def gaussian_wave(n=256, g=64.0, n_quanta=3.0, ell=1.0, hbar=1.0, k0=None):
    if k0 is None:
        k0 = 2.0 * math.pi * (n // 4) / (ell * n)
    gp = wigner.GaussianEtaParams(n_quanta=n_quanta, g=g, k0=k0, x0=ell * n / 2.0)
    return gp, wigner.gaussian_action_wave(gp, ell, n, hbar)


# ---------------------------------------------------------------------------
# reference implementation: explicit correlation sums, O(n^3)


def direct_summation_reference(wave):
    n = wave.psik.size
    two_n = 2 * n
    dk = 2.0 * math.pi / (wave.ell * n)
    x = (wave.ell / 2.0) * np.arange(two_n)
    site = np.zeros(two_n, dtype=complex)
    for m in range(two_n):
        site[m] = (dk / math.sqrt(2.0 * math.pi)) * np.sum(
            wave.psik * np.exp(1j * wave.k * x[m])
        )
    pref = (wave.ell / 2.0) / (math.pi * wave.hbar**2)
    f = np.zeros((two_n, two_n))
    for m in range(two_n):
        for si in range(two_n):
            s = si - n
            acc = 0.0j
            for r in range(two_n):
                acc += (
                    site[(m + r) % two_n]
                    * np.conj(site[(m - r) % two_n])
                    * np.exp(-2j * math.pi * r * s / two_n)
                )
            f[m, si] = pref * acc.real
    p = (wave.hbar * dk / 2.0) * (np.arange(two_n) - n)
    return x, p, f


def test_matches_direct_summation():
    wave = random_wave(8, seed=3)
    x_ref, p_ref, f_ref = direct_summation_reference(wave)
    grid = wigner.wigner_1d(wave)
    assert np.max(np.abs(grid.x - x_ref)) == 0.0
    assert np.max(np.abs(grid.p - p_ref)) < 1e-15
    assert np.max(np.abs(grid.f - f_ref)) / np.max(np.abs(f_ref)) < 1e-13


# ---------------------------------------------------------------------------
# reference implementations of the fast paths: the full (2n)x(2n) complex lag
# matrix with a complex FFT per row, and complex-FFT transport along x


def full_matrix_transform(coeffs, ell, prefactor):
    n = coeffs.size
    two_n = 2 * n
    dk = 2.0 * math.pi / (ell * n)
    padded = np.zeros(two_n, dtype=complex)
    j = np.arange(n) - n // 2
    padded[np.mod(j, two_n)] = coeffs
    site = (dk / math.sqrt(2.0 * math.pi)) * two_n * np.fft.ifft(padded)
    m = np.arange(two_n)
    plus = site[(m[:, None] + m[None, :]) % two_n]
    minus = np.conj(site[(m[:, None] - m[None, :]) % two_n])
    rows = np.fft.fft(plus * minus, axis=1)
    return (prefactor * np.fft.fftshift(rows, axes=1)).real


def complex_fft_transport(grid, speeds, t):
    q = 2.0 * math.pi * np.fft.fftfreq(grid.x.size, d=grid.dx)
    rows = np.fft.fft(grid.f, axis=0)
    return np.fft.ifft(rows * np.exp(-1j * q[:, None] * speeds[None, :] * t), axis=0).real


@pytest.mark.parametrize("n", [1, 2, 7, 64, 300])
def test_half_lag_core_matches_full_matrix(n):
    if n == 300:
        assert 2 * n > wigner._CHUNK  # the grid spans several row blocks
    wave = random_wave(n, seed=n)
    omega = np.abs(wave.k) + 0.5
    cases = (
        (wigner.wigner_1d(wave), wave.psik, 1.0 / wave.hbar**2),
        (wigner.quasi_energy_density(wave, omega), np.sqrt(omega) * wave.psik, 1.0 / wave.hbar),
    )
    for grid, coeffs, scale in cases:
        ref = full_matrix_transform(coeffs, wave.ell, (wave.ell / 2.0) / math.pi * scale)
        assert np.max(np.abs(grid.f - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rfft_transport_matches_complex_fft():
    grid = wigner.wigner_1d(random_wave(150, seed=5))
    assert grid.p.size > wigner._CHUNK  # the columns span several blocks
    k_of_p = grid.p / grid.hbar
    t = 3.7
    for vg, speeds in (
        (0.7, np.full(grid.p.size, 0.7)),
        (np.cos(k_of_p), np.cos(k_of_p)),
        (np.tanh, np.tanh(k_of_p)),
    ):
        moved = wigner.evolve_wigner_group_velocity(grid, None, t, vg=vg)
        ref = complex_fft_transport(grid, speeds, t)
        assert np.max(np.abs(moved.f - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert moved.marginal_defect == grid.marginal_defect


# ---------------------------------------------------------------------------
# exact discrete identities


@given(seed=st.integers(0, 2**31), n_exp=st.integers(3, 5))
def test_total_counts_quanta(seed, n_exp):
    wave = random_wave(2**n_exp, seed)
    grid = wigner.wigner_1d(wave)
    expected = wave.dk * float(np.sum(wave.eta)) / wave.hbar
    assert grid.total() == pytest.approx(expected, rel=1e-12)


@given(seed=st.integers(0, 2**31))
def test_marginals_are_exact(seed):
    wave = random_wave(16, seed)
    grid = wigner.wigner_1d(wave)
    density_x = np.abs(wigner.doubled_site_values(wave)) ** 2 / wave.hbar
    scale = np.max(density_x)
    assert np.max(np.abs(grid.marginal_x() - density_x)) < 1e-13 * scale
    density_p = wave.eta / wave.hbar**2
    assert np.max(np.abs(grid.marginal_p() - density_p)) < 1e-13 * np.max(density_p)


def test_marginal_defect_on_gaussian():
    # rounding-level but not identically zero, in number and energy form
    gp, wave = gaussian_wave()
    assert 0.0 < wigner.wigner_1d(wave).marginal_defect < 1e-12
    energy = wigner.quasi_energy_density(wave, np.abs(wave.k) + 1.0)
    assert 0.0 < energy.marginal_defect < 1e-12


def test_checkerboard_ghost():
    # periodic images half a ring away carry an alternating sign in p
    wave = random_wave(16, seed=12)
    grid = wigner.wigner_1d(wave)
    n = wave.psik.size
    signs = (-1.0) ** (np.arange(2 * n) - n)
    ghost = np.roll(grid.f, -n, axis=0)
    assert np.max(np.abs(ghost - signs[None, :] * grid.f)) < 1e-12 * np.max(np.abs(grid.f))


def test_single_mode_is_one_flat_row():
    wave = random_wave(16, seed=0)
    psik = np.zeros(16, dtype=complex)
    psik[11] = 1.5 - 0.5j  # k index 3 of the shifted grid
    wave = lattice.ActionWave(psik=psik, k=wave.k, ell=wave.ell, hbar=wave.hbar)
    grid = wigner.wigner_1d(wave)
    row = 2 * 11  # doubled momentum grid
    others = np.delete(np.arange(32), row)
    assert np.max(np.abs(grid.f[:, others])) < 1e-13 * np.max(np.abs(grid.f))
    assert np.ptp(grid.f[:, row]) < 1e-13 * np.max(np.abs(grid.f))
    assert grid.total() == pytest.approx(wave.dk * float(np.sum(wave.eta)) / wave.hbar, rel=1e-12)


def test_window_crops_position_only():
    wave = random_wave(16, seed=4)
    grid = wigner.wigner_1d(wave)
    win = grid.window(2.0, 5.0)
    assert win.p.size == grid.p.size
    assert win.x.size < grid.x.size
    assert np.all(win.x >= 2.0) and np.all(win.x < 5.0)
    mask = (grid.x >= 2.0) & (grid.x < 5.0)
    assert np.array_equal(win.x, grid.x[mask])
    assert np.array_equal(win.f, grid.f[mask])
    assert np.shares_memory(win.f, grid.f)  # a row view, not a copy
    assert win.marginal_defect == grid.marginal_defect
    with pytest.raises(ValueError):
        win.marginal_p()
    with pytest.raises(ValueError):
        grid.window(100.0, 101.0)


# ---------------------------------------------------------------------------
# Gaussian packet closed form


def test_gaussian_closed_form_half_window():
    gp, wave = gaussian_wave()
    grid = wigner.wigner_1d(wave)
    length = wave.ell * wave.psik.size
    half = grid.window(gp.x0 - length / 4.0, gp.x0 + length / 4.0)
    closed = wigner.wigner_gaussian_closed(gp, half.x, half.p, wave.hbar)
    peak = gp.n_quanta / (math.pi * wave.hbar)
    assert np.max(np.abs(half.f - closed)) / peak < 1e-10


def test_closed_form_matches_joint_exponential():
    gp, wave = gaussian_wave()
    grid = wigner.wigner_1d(wave)
    t, vg = 3.5, 0.8
    closed = wigner.wigner_gaussian_closed(gp, grid.x, grid.p, wave.hbar, t=t, vg=vg)
    xc = grid.x[:, None] - gp.x0 - vg * t
    pc = grid.p[None, :] - wave.hbar * gp.k0
    joint = (gp.n_quanta / (math.pi * wave.hbar)) * np.exp(
        -gp.g * pc**2 / wave.hbar**2 - xc**2 / gp.g
    )
    peak = gp.n_quanta / (math.pi * wave.hbar)
    assert closed.shape == (grid.x.size, grid.p.size)
    assert np.max(np.abs(closed - joint)) / peak < 1e-14


def test_gaussian_peak_and_total():
    gp, wave = gaussian_wave()
    grid = wigner.wigner_1d(wave)
    peak = gp.n_quanta / (math.pi * wave.hbar)
    assert np.max(grid.f) == pytest.approx(peak, rel=1e-6)
    assert grid.total() == pytest.approx(gp.n_quanta, rel=1e-8)


def test_gaussian_params_validation():
    with pytest.raises(ValueError):
        wigner.GaussianEtaParams(n_quanta=0.0, g=1.0, k0=0.0)
    with pytest.raises(ValueError):
        wigner.GaussianEtaParams(n_quanta=1.0, g=-2.0, k0=0.0)


# ---------------------------------------------------------------------------
# energy-form density


def test_quasi_energy_totals_to_hamiltonian():
    params = lattice.LatticeParams(m=1.0, omega0=0.5, kappa=1.0, ell=1.0, n_sites=32)
    rng = np.random.default_rng(8)
    state = lattice.LatticeState(u=rng.normal(size=32), v=rng.normal(size=32))
    modes = lattice.dft_to_modes(state, params)
    wave = lattice.psi_from_modes(modes, hbar=1.0)
    omega = np.asarray(lattice.dispersion(wave.k, params))
    grid = wigner.quasi_energy_density(wave, omega)
    assert grid.total() == pytest.approx(lattice.hamiltonian_energy(state, params), rel=1e-12)


def test_quasi_energy_rejects_negative_frequency():
    wave = random_wave(8, seed=2)
    with pytest.raises(ValueError):
        wigner.quasi_energy_density(wave, -np.ones(8))


# ---------------------------------------------------------------------------
# transport


def test_transport_exact_roll():
    # integer-cell translation must be an exact circular shift
    gp, wave = gaussian_wave(n=128, g=16.0)
    grid = wigner.wigner_1d(wave)
    cells = 12
    moved = wigner.evolve_wigner_group_velocity(grid, None, cells * grid.dx, vg=1.0)
    assert np.max(np.abs(moved.f - np.roll(grid.f, cells, axis=0))) < 1e-12 * np.max(grid.f)


def test_transport_closed_form_and_marginal_p():
    gp, wave = gaussian_wave()
    grid = wigner.wigner_1d(wave)
    t = 17.32  # non-integer number of cells
    moved = wigner.evolve_wigner_group_velocity(grid, None, t, vg=1.0)
    length = wave.ell * wave.psik.size
    center = gp.x0 + t
    half = moved.window(center - length / 4.0, center + length / 4.0)
    closed = wigner.wigner_gaussian_closed(gp, half.x, half.p, wave.hbar, t=t, vg=1.0)
    peak = gp.n_quanta / (math.pi * wave.hbar)
    assert np.max(np.abs(half.f - closed)) / peak < 1e-10
    # momentum content must be untouched by position transport
    assert np.max(np.abs(moved.marginal_p() - grid.marginal_p())) < 1e-12 * np.max(
        grid.marginal_p()
    )


def test_transport_differentiates_dispersion():
    # finite-difference group velocity vs the exact derivative, same grid
    gp, wave = gaussian_wave(n=128, g=16.0)
    grid = wigner.wigner_1d(wave)
    omega = lambda k: np.sqrt(1.0 + np.asarray(k) ** 2)  # noqa: E731
    t = 25.0
    via_fd = wigner.evolve_wigner_group_velocity(grid, omega, t)
    exact = wigner.evolve_wigner_group_velocity(
        grid, None, t, vg=lambda k: k / np.sqrt(1.0 + k**2)
    )
    assert np.max(np.abs(via_fd.f - exact.f)) / np.max(np.abs(exact.f)) < 1e-8


def test_transport_requires_full_period():
    gp, wave = gaussian_wave(n=64, g=16.0)
    win = wigner.wigner_1d(wave).window(0.0, 10.0)
    with pytest.raises(ValueError):
        wigner.evolve_wigner_group_velocity(win, None, 1.0, vg=1.0)


# ---------------------------------------------------------------------------
# 3-D photon columns


def transverse_mode_set(seed, n_modes=5, box_length=2.0 * math.pi, hbar=1.0):
    rng = np.random.default_rng(seed)
    base = 2.0 * math.pi / box_length
    seen = set()
    kvecs = []
    while len(kvecs) < n_modes:
        trio = tuple(rng.integers(-3, 4, size=3))
        if trio == (0, 0, 0) or trio in seen:
            continue
        seen.add(trio)
        kvecs.append(base * np.array(trio, dtype=float))
    k = np.array(kvecs)
    psik = rng.normal(size=(n_modes, 3)) + 1j * rng.normal(size=(n_modes, 3))
    khat = k / np.linalg.norm(k, axis=1, keepdims=True)
    psik = psik - (np.sum(psik * khat, axis=1, keepdims=True)) * khat
    return em.PhotonModeSet(
        k=k, psik=psik, box_length=box_length, medium=em.MediumParams(), hbar=hbar
    )


def test_3d_totals_match_mode_sums():
    modes = transverse_mode_set(seed=6)
    w3 = wigner.wigner_3d(modes)
    assert wigner.wigner_3d_total(w3) == pytest.approx(em.photon_number(modes), rel=1e-12)
    v = modes.medium.c / math.sqrt(modes.medium.eps * modes.medium.mu)
    assert wigner.wigner_3d_energy(w3, v) == pytest.approx(
        em.field_energy(modes), rel=1e-12
    )


def test_3d_cross_column_profile():
    # two modes interfere in one midpoint column with a plane-wave profile
    L = 2.0 * math.pi
    base = 2.0 * math.pi / L
    k = base * np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    psik = np.array([[0.0, 1.0 + 0.5j, 0.3], [0.7, 0.0, -0.2j]], dtype=complex)
    modes = em.PhotonModeSet(
        k=k, psik=psik, box_length=L, medium=em.MediumParams(), hbar=1.0
    )
    w3 = wigner.wigner_3d(modes)
    mid = 0.5 * (k[0] + k[1])
    col = next(
        c for c in w3.columns if np.max(np.abs(c.p_mid - mid)) < 1e-12
    )
    w_box = (2.0 * math.pi) ** 3 / L**3
    pref = w_box**2 / ((2.0 * math.pi) ** 3 * 1.0)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, L, size=(6, 3))
    overlap = complex(np.dot(psik[0], np.conj(psik[1])))
    hand = pref * (
        overlap * np.exp(1j * (x @ (k[0] - k[1])))
        + np.conj(overlap) * np.exp(1j * (x @ (k[1] - k[0])))
    )
    assert np.max(np.abs(col.amplitude(x) - hand)) < 1e-13 * np.max(np.abs(hand))


def test_3d_rejects_other_inputs():
    with pytest.raises(TypeError):
        wigner.wigner_3d(np.zeros(3))


# ---------------------------------------------------------------------------
# reference implementation of the 3-D route: a double loop over mode pairs and
# the Riemann sum evaluated point by point on the full tensor grid


def columns_reference(modes):
    """[(key, p_mid, [(weight, k_a - k_b), ...]), ...] ascending by key."""
    L = modes.box_length
    w_box = (2.0 * math.pi) ** 3 / L**3
    hbar = modes.hbar
    pref = w_box**2 / ((2.0 * math.pi) ** 3 * hbar)
    groups, mids = {}, {}
    for a in range(modes.k.shape[0]):
        for b in range(modes.k.shape[0]):
            amp = pref * complex(np.dot(modes.psik[a], np.conj(modes.psik[b])))
            if amp == 0:
                continue
            mid = hbar * (modes.k[a] + modes.k[b]) / 2.0
            key = tuple(np.round(mid * L / (math.pi * hbar)).astype(int))
            groups.setdefault(key, []).append((amp, modes.k[a] - modes.k[b]))
            mids[key] = mid
    return [(key, mids[key], pairs) for key, pairs in sorted(groups.items())]


def profile_reference(pairs, x):
    out = np.zeros(x.shape[0], dtype=complex)
    for w, dk in pairs:
        out += w * np.exp(1j * (x @ dk))
    return out


def quadrature_reference(columns, L, weight):
    """sum over columns of weight(p_mid) times the Riemann sum of its profile."""
    max_c = 0
    for _, _, pairs in columns:
        for _, dk in pairs:
            max_c = max(max_c, int(np.max(np.abs(np.round(dk * L / (2.0 * math.pi))))))
    npts = max(2 * max_c + 1, 3)
    s = np.arange(npts) * (L / npts)
    X, Y, Z = np.meshgrid(s, s, s, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    dv = (L / npts) ** 3
    total = 0.0
    for _, p_mid, pairs in columns:
        total += weight(p_mid) * float(np.sum(profile_reference(pairs, pts)).real) * dv
    return total


def indexed_mode_set(indices, seed, box_length, hbar=1.0, medium=em.MediumParams()):
    """Random transverse amplitudes on the given integer wavevector indices."""
    rng = np.random.default_rng(seed)
    k = (2.0 * math.pi / box_length) * np.asarray(indices, dtype=float)
    psik = np.zeros(k.shape, dtype=complex)
    for i, kv in enumerate(k):
        e1, e2, _ = em.polarization_basis(kv)
        c = rng.normal(size=4)
        psik[i] = (c[0] + 1j * c[1]) * e1 + (c[2] + 1j * c[3]) * e2
    return em.PhotonModeSet(k=k, psik=psik, box_length=box_length, medium=medium, hbar=hbar)


def random_indices(rng, n_modes, max_index):
    chosen = []
    while len(chosen) < n_modes:
        trio = tuple(int(c) for c in rng.integers(-max_index, max_index + 1, size=3))
        if trio != (0, 0, 0) and trio not in chosen:
            chosen.append(trio)
    return chosen


def oracle_mode_sets():
    yield "single", indexed_mode_set([(0, 2, -1)], seed=1, box_length=3.0, hbar=0.7)
    # +-k partners: every pair (k, -k) lands in the p = 0 column, and pairs of
    # partners share midpoints in many other columns
    half = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 2), (0, 2, 1)]
    partners = indexed_mode_set(half + [tuple(-c for c in n) for n in half], seed=2, box_length=5.0)
    # a zero-amplitude mode contributes no pair at all
    psik = partners.psik.copy()
    psik[3] = 0.0
    yield "partners", em.PhotonModeSet(
        k=partners.k, psik=psik, box_length=5.0, medium=partners.medium, hbar=1.0
    )
    rng = np.random.default_rng(3)
    medium = em.MediumParams(eps=2.0, mu=1.3)
    for max_index in (1, 2, 3, 4):
        n_modes = min(2 + 5 * max_index, (2 * max_index + 1) ** 3 - 1)
        indices = random_indices(rng, n_modes, max_index)
        yield f"random-{max_index}", indexed_mode_set(
            indices, seed=max_index, box_length=2.0 * math.pi * (0.5 + 0.3 * max_index),
            hbar=1.3, medium=medium,
        )


ORACLE_MODE_SETS = [pytest.param(modes, id=name) for name, modes in oracle_mode_sets()]


@pytest.mark.parametrize("modes", ORACLE_MODE_SETS)
def test_3d_columns_match_pair_loop(modes):
    w3 = wigner.wigner_3d(modes)
    reference = columns_reference(modes)
    L, hbar = modes.box_length, modes.hbar
    keys = [tuple(np.round(c.p_mid * L / (math.pi * hbar)).astype(int)) for c in w3.columns]
    assert keys == [key for key, _, _ in reference]
    assert [len(c.pairs) for c in w3.columns] == [len(pairs) for _, _, pairs in reference]
    assert np.max(np.abs(w3.p_mid - np.array([mid for _, mid, _ in reference]))) <= 1e-15
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, L, size=(5, 3))
    for col, (_, _, pairs) in zip(w3.columns, reference):
        # same pairs in the same (a, b) order
        weights = np.array([w for w, _ in pairs])
        assert np.max(np.abs(col.pairs["weight"] - weights)) <= 1e-14 * np.max(np.abs(weights))
        assert np.array_equal(col.pairs["dk"], np.array([dk for _, dk in pairs]))
        hand = profile_reference(pairs, x)
        assert np.max(np.abs(col.amplitude(x) - hand)) <= 1e-13 * max(np.max(np.abs(hand)), 1e-300)


@pytest.mark.parametrize("modes", ORACLE_MODE_SETS)
def test_3d_quadrature_matches_full_grid(modes):
    w3 = wigner.wigner_3d(modes)
    reference = columns_reference(modes)
    v = modes.medium.v
    number = quadrature_reference(reference, modes.box_length, lambda p: 1.0)
    energy = quadrature_reference(reference, modes.box_length, lambda p: v * np.linalg.norm(p))
    assert wigner.wigner_3d_total(w3) == pytest.approx(number, rel=1e-13)
    assert wigner.wigner_3d_energy(w3, v) == pytest.approx(energy, rel=1e-13)


def test_3d_cross_terms_are_summed_not_assumed():
    # two modes one index apart: their cross pairs integrate to ~1e-16 of the
    # diagonal, not to an exact zero, so the quadrature does evaluate them
    modes = indexed_mode_set([(1, 0, 0), (2, 0, 0)], seed=5, box_length=2.0 * math.pi)
    w3 = wigner.wigner_3d(modes)
    cross = [c for c in w3.columns if len(c.pairs) == 2]
    only_cross = wigner.Wigner3D(
        p_mid=cross[0].p_mid[None, :], pairs=cross[0].pairs, offsets=np.array([0, 2]),
        box_length=w3.box_length, hbar=w3.hbar,
    )
    value = wigner._columns_quadrature(only_cross, lambda p: 1.0)
    diagonal = wigner.wigner_3d_total(w3)
    assert 0.0 < abs(value) < 1e-14 * diagonal


def test_size_limits_refuse_just_past_the_limit():
    # the checks look only at the sizes, so nothing large is allocated
    wigner.check_grid_size(4096)
    wigner.check_pair_count(1024)
    with pytest.raises(ValueError, match="MAX_GRID_CELLS"):
        wigner.wigner_1d(random_wave(4097, seed=0))
    indices = np.array([(i, j, 1) for i in range(33) for j in range(32)][:1025], dtype=float)
    modes = em.PhotonModeSet(
        k=indices, psik=np.zeros((1025, 3)), box_length=2.0 * math.pi,
        medium=em.MediumParams(), hbar=1.0,
    )
    with pytest.raises(ValueError, match="MAX_PAIRS"):
        wigner.wigner_3d(modes)
