"""Field-vector algebra, spectral operators, plane waves, and box mode sets."""

import math

import numpy as np
import pytest
from scipy.fft import next_fast_len

from wavekit import em, experiments

VACUUM = em.MediumParams()
DENSE = em.MediumParams(eps=2.25, mu=1.1, c=1.0)


def random_real_fields(seed, n=4):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(3, n, n, n)), rng.normal(size=(3, n, n, n))


def plane_field(c_vec, k_vec, n, length):
    mesh = em.box_mesh(n, length)
    phase = np.exp(1j * np.tensordot(k_vec, mesh, axes=(0, 0)))
    return np.asarray(c_vec, dtype=complex)[:, None, None, None] * phase


def transverse_mode_set(seed, n_modes, medium=DENSE, box_length=2.0 * math.pi, hbar=1.0):
    rng = np.random.default_rng(seed)
    base = 2.0 * math.pi / box_length
    seen, kvecs = set(), []
    while len(kvecs) < n_modes:
        trio = tuple(rng.integers(-2, 3, size=3))
        if trio == (0, 0, 0) or trio in seen:
            continue
        seen.add(trio)
        kvecs.append(base * np.array(trio, dtype=float))
    k = np.array(kvecs)
    psik = rng.normal(size=(n_modes, 3)) + 1j * rng.normal(size=(n_modes, 3))
    khat = k / np.linalg.norm(k, axis=1, keepdims=True)
    psik = psik - np.sum(psik * khat, axis=1, keepdims=True) * khat
    return em.PhotonModeSet(k=k, psik=psik, box_length=box_length, medium=medium, hbar=hbar)


# ---------------------------------------------------------------------------
# medium and field-vector algebra


def test_medium_derived_quantities():
    assert DENSE.v == pytest.approx(1.0 / math.sqrt(2.25 * 1.1), rel=1e-15)
    assert DENSE.impedance == pytest.approx(math.sqrt(1.1 / 2.25), rel=1e-15)
    with pytest.raises(ValueError):
        em.MediumParams(eps=-1.0)


def test_rs_roundtrip():
    for medium in (VACUUM, DENSE):
        E, H = random_real_fields(seed=2)
        F = em.riemann_silberstein(E, H, medium)
        E2, H2 = em.fields_from_rs(F, medium)
        assert np.max(np.abs(E2 - E)) < 1e-14
        assert np.max(np.abs(H2 - H)) < 1e-14


def test_energy_and_poynting_dual_forms():
    # w and Y from F must equal their textbook (E, H) expressions
    for medium in (VACUUM, DENSE):
        E, H = random_real_fields(seed=9)
        F = em.riemann_silberstein(E, H, medium)
        w, Y = em.energy_and_poynting(F, medium)
        w_dual = 0.5 * (medium.eps * np.sum(E**2, axis=0) + medium.mu * np.sum(H**2, axis=0))
        assert np.max(np.abs(w - w_dual)) < 1e-13 * np.max(w_dual)
        Y_dual = medium.v * math.sqrt(medium.eps * medium.mu) * np.cross(E, H, axis=0)
        assert np.max(np.abs(Y - Y_dual)) < 1e-13 * max(np.max(np.abs(Y_dual)), 1e-300)


# ---------------------------------------------------------------------------
# spectral operators


def test_spectral_curl_of_plane_mode():
    length = 2.0 * math.pi * 1.7
    base = 2.0 * math.pi / length
    k_vec = base * np.array([1.0, -2.0, 3.0])
    c_vec = np.array([0.3 + 0.1j, -0.7, 0.2 - 0.4j])
    field = plane_field(c_vec, k_vec, n=8, length=length)
    curl = em.spectral_curl(field, length)
    expected = plane_field(1j * np.cross(k_vec, c_vec), k_vec, n=8, length=length)
    assert np.max(np.abs(curl - expected)) < 1e-12 * np.max(np.abs(expected))
    div = em.spectral_divergence(field, length)
    expected_div = 1j * np.dot(k_vec, c_vec) * plane_field([1, 0, 0], k_vec, 8, length)[0]
    assert np.max(np.abs(div - expected_div)) < 1e-12 * np.max(np.abs(expected_div))


def test_curl_field_is_divergence_free():
    rng = np.random.default_rng(4)
    field = rng.normal(size=(3, 8, 8, 8))
    length = 3.0
    div = em.spectral_divergence(em.spectral_curl(field, length), length)
    scale = np.max(np.abs(em.spectral_curl(field, length)))
    assert np.max(np.abs(div)) < 1e-11 * scale


def test_spectral_operators_reject_flat_arrays():
    with pytest.raises(ValueError):
        em.spectral_curl(np.zeros((4, 4, 4)), 1.0)


# ---------------------------------------------------------------------------
# circular plane waves


def test_circular_wave_field_relations():
    length = 2.0 * math.pi
    mesh = em.box_mesh(8, length)
    k = 2.0
    for medium in (VACUUM, DENSE):
        for sigma in (1, -1):
            A, E, H = em.circular_plane_wave(mesh, 0.8, k, sigma, medium, t=0.3)
            # E = -dA/dt / c by central difference
            dt = 1e-5
            Ap, _, _ = em.circular_plane_wave(mesh, 0.8, k, sigma, medium, t=0.3 + dt)
            Am, _, _ = em.circular_plane_wave(mesh, 0.8, k, sigma, medium, t=0.3 - dt)
            fd = -(Ap - Am) / (2.0 * dt * medium.c)
            assert np.max(np.abs(E - fd)) < 1e-8 * np.max(np.abs(E))
            # H = curl A / mu on the grid
            curl = em.spectral_curl(A, length) / medium.mu
            assert np.max(np.abs(H - curl)) < 1e-12 * np.max(np.abs(H))


def test_circular_wave_energy_and_flow():
    length = 2.0 * math.pi
    mesh = em.box_mesh(8, length)
    k, A_perp = 2.0, 0.8
    for sigma in (1, -1):
        _, E, H = em.circular_plane_wave(mesh, A_perp, k, sigma, DENSE)
        F = em.riemann_silberstein(E, H, DENSE)
        w, Y = em.energy_and_poynting(F, DENSE)
        expected_w = k**2 * A_perp**2 / DENSE.mu
        assert np.ptp(w) < 1e-13 * expected_w
        assert np.max(w) == pytest.approx(expected_w, rel=1e-13)
        # flow is v*w along the propagation direction sigma * zhat
        assert np.max(np.abs(Y[0])) < 1e-13 * expected_w
        assert np.max(np.abs(Y[1])) < 1e-13 * expected_w
        assert np.max(np.abs(Y[2] - sigma * DENSE.v * w)) < 1e-13 * expected_w


def test_circular_wave_validation():
    mesh = em.box_mesh(4, 1.0)
    with pytest.raises(ValueError):
        em.circular_plane_wave(mesh, 1.0, 2.0, 0, VACUUM)
    with pytest.raises(ValueError):
        em.circular_plane_wave(mesh, 1.0, -2.0, 1, VACUUM)
    with pytest.raises(ValueError):
        em.circular_plane_wave(mesh[0], 1.0, 2.0, 1, VACUUM)


def test_curl_evolution_residual_is_second_order():
    length = 2.0 * math.pi
    mesh = em.box_mesh(8, length)
    k = 2.0

    def rs_at(t, medium=DENSE):
        _, E, H = em.circular_plane_wave(mesh, 0.8, k, 1, medium, t=t)
        return em.riemann_silberstein(E, H, medium)

    omega = k * DENSE.v
    dt = 0.02 / omega
    r1 = em.curl_evolution_residual(rs_at(0.0), rs_at(dt), dt, DENSE, length)
    r2 = em.curl_evolution_residual(rs_at(0.0), rs_at(dt / 2), dt / 2, DENSE, length)
    assert (omega * dt) ** 2 / 12.0 < r1 < (omega * dt) ** 2 / 4.0
    assert r1 / r2 == pytest.approx(4.0, rel=0.05)
    with pytest.raises(ValueError):
        em.curl_evolution_residual(rs_at(0.0), rs_at(dt), -dt, DENSE, length)


def test_energy_flow_residual_two_wave_superposition():
    length = 2.0 * math.pi
    mesh = em.box_mesh(12, length)

    def rs_at(t):
        _, E1, H1 = em.circular_plane_wave(mesh, 0.8, 1.0, 1, DENSE, t=t)
        _, E2, H2 = em.circular_plane_wave(mesh, 0.5, 2.0, 1, DENSE, t=t)
        return em.riemann_silberstein(E1 + E2, H1 + H2, DENSE)

    omega = 2.0 * DENSE.v
    dt = 1e-3 / omega
    resid = em.energy_flow_residual(rs_at(0.0), rs_at(dt), dt, DENSE, length)
    assert resid < 1e-5
    # single wave: both terms vanish, the v * max(w) / length reference keeps it well defined
    _, E, H = em.circular_plane_wave(mesh, 0.8, 1.0, 1, DENSE)
    F0 = em.riemann_silberstein(E, H, DENSE)
    _, E, H = em.circular_plane_wave(mesh, 0.8, 1.0, 1, DENSE, t=dt)
    F1 = em.riemann_silberstein(E, H, DENSE)
    assert em.energy_flow_residual(F0, F1, dt, DENSE, length) < 1e-9


# ---------------------------------------------------------------------------
# box mode sets


def test_mode_set_validation():
    L = 2.0 * math.pi
    good_k = np.array([[1.0, 0.0, 0.0]])
    good_psi = np.array([[0.0, 1.0, 0.5j]])
    em.PhotonModeSet(k=good_k, psik=good_psi, box_length=L, medium=VACUUM, hbar=1.0)
    with pytest.raises(ValueError):  # off the reciprocal grid
        em.PhotonModeSet(k=good_k * 1.3, psik=good_psi, box_length=L, medium=VACUUM, hbar=1.0)
    with pytest.raises(ValueError):  # duplicate row
        em.PhotonModeSet(
            k=np.vstack([good_k, good_k]), psik=np.vstack([good_psi, good_psi]),
            box_length=L, medium=VACUUM, hbar=1.0,
        )
    with pytest.raises(ValueError):  # k = 0
        em.PhotonModeSet(
            k=np.zeros((1, 3)), psik=good_psi, box_length=L, medium=VACUUM, hbar=1.0
        )
    with pytest.raises(ValueError):  # longitudinal amplitude
        em.PhotonModeSet(
            k=good_k, psik=np.array([[1.0, 0.0, 0.0]]), box_length=L,
            medium=VACUUM, hbar=1.0,
        )
    with pytest.raises(ValueError):
        em.PhotonModeSet(k=good_k, psik=good_psi, box_length=-L, medium=VACUUM, hbar=1.0)


def test_polarization_basis_triads():
    rng = np.random.default_rng(5)
    for k in list(rng.normal(size=(6, 3))) + [np.array([0.0, 0.0, 2.0])]:
        e1, e2, khat = em.polarization_basis(k)
        for a, b in ((e1, e2), (e1, khat), (e2, khat)):
            assert abs(np.dot(a, b)) < 1e-12
        assert np.linalg.norm(e1) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(e2) == pytest.approx(1.0, rel=1e-12)
        assert np.max(np.abs(np.cross(e1, e2) - khat)) < 1e-12
    with pytest.raises(ValueError):
        em.polarization_basis(np.zeros(3))


# the one-vector triad and per-mode loop that the stacked polarization_basis and
# experiments._random_mode_set replaced, kept as their bit-exact oracles


def triad_reference(k):
    norm = np.linalg.norm(k)
    khat = k / norm
    e1 = np.cross(k, [0.0, 0.0, 1.0])
    if np.linalg.norm(e1) < 1e-9 * norm:
        e1 = np.cross(k, [1.0, 0.0, 0.0])
    e1 = e1 / np.linalg.norm(e1)
    return e1, np.cross(khat, e1), khat


def mode_set_reference(cfg):
    rng = np.random.default_rng(cfg.seed)
    chosen = []
    while len(chosen) < cfg.n_random_modes:
        n = tuple(int(c) for c in rng.integers(-cfg.max_index, cfg.max_index + 1, size=3))
        if n == (0, 0, 0) or n in chosen:
            continue
        chosen.append(n)
    k = 2.0 * np.pi / cfg.box_length * np.asarray(chosen, dtype=float)
    psik = np.zeros((len(chosen), 3), dtype=complex)
    for i in range(len(chosen)):
        e1, e2, _ = triad_reference(k[i])
        c = rng.normal(size=4)
        psik[i] = (c[0] + 1j * c[1]) * e1 + (c[2] + 1j * c[3]) * e2
    return k, psik


def test_stacked_triads_match_the_one_vector_triad():
    rng = np.random.default_rng(8)
    k = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-100, 100, size=(500, 1))
    k[:4] = [[0.0, 0.0, 3.0], [0.0, 0.0, -2.0], [1e-12, 0.0, 1.0], [0.0, 1e-8, -1.0]]  # poles
    stacked = em.polarization_basis(k)
    for i, row in enumerate(k):
        for got, one, ref in zip(stacked, em.polarization_basis(row), triad_reference(row)):
            assert one.shape == (3,) and np.array_equal(one, ref) and np.array_equal(got[i], ref)


def test_mode_set_matches_the_per_mode_loop():
    # 210 seeded configs: one mode, every nonzero vector of max_index 1 (poles (0, 0, +-1)
    # among them, on the x-hat fallback), and 1..124 of max_index 2
    configs = []
    for seed in range(70):
        box_length = (2.0 * math.pi, 1.3, 7e-3)[seed % 3]
        for max_index, m in ((3, 1), (1, 26), (2, seed % 124 + 1)):
            configs.append(experiments.PhotonFieldConfig(
                n_random_modes=m, max_index=max_index, seed=seed, box_length=box_length))
    for cfg in configs:
        modes = experiments._random_mode_set(cfg, VACUUM, 1.0)
        k, psik = mode_set_reference(cfg)
        assert np.array_equal(modes.k, k)
        assert np.array_equal(modes.psik.view(float), psik.view(float))


def test_potential_psi_roundtrip():
    # inversion is exact per mode whether or not -k is listed
    modes = transverse_mode_set(seed=13, n_modes=5)
    A_modes, Adot_modes = em.potential_from_psi(modes)
    back = em.photon_action_wave(
        modes.k, A_modes, Adot_modes, modes.box_length, modes.medium, modes.hbar
    )
    assert np.max(np.abs(back.psik - modes.psik)) < 1e-13 * np.max(np.abs(modes.psik))


def test_potential_values_are_consistent_motion():
    # Adot from the mode set must be the time derivative of A, and the
    # evolved potential must satisfy the transverse wave equation
    modes = transverse_mode_set(seed=17, n_modes=4)
    n_grid = 9
    dt = 1e-3
    omega_max = float(np.max(modes.omega()))
    A0, Adot0 = em.potential_field_values(modes, n_grid)
    Ap, _ = em.potential_field_values(em.evolve_mode_set(modes, dt), n_grid)
    Am, _ = em.potential_field_values(em.evolve_mode_set(modes, -dt), n_grid)
    scale = np.max(np.abs(Adot0))
    assert np.max(np.abs((Ap - Am) / (2.0 * dt) - Adot0)) < (omega_max * dt) ** 2 * scale
    accel = (Ap - 2.0 * A0 + Am) / dt**2
    v = modes.medium.v
    lap = -em.spectral_curl(
        em.spectral_curl(A0, modes.box_length), modes.box_length
    )
    defect = np.max(np.abs(accel - v**2 * lap))
    assert defect < (omega_max * dt) ** 2 * np.max(np.abs(accel))


def test_evolution_preserves_number_and_energy():
    modes = transverse_mode_set(seed=23, n_modes=5)
    later = em.evolve_mode_set(modes, 7.7)
    assert em.photon_number(later) == pytest.approx(em.photon_number(modes), rel=1e-13)
    assert em.mode_energy_3d(later) == pytest.approx(em.mode_energy_3d(modes), rel=1e-13)


def test_energy_three_routes_agree():
    from wavekit import wigner

    modes = transverse_mode_set(seed=31, n_modes=6)
    e_modes = em.mode_energy_3d(modes)
    e_grid = em.field_energy(modes)
    e_phase = wigner.wigner_3d_energy(wigner.wigner_3d(modes), modes.medium.v)
    assert e_grid == pytest.approx(e_modes, rel=1e-10)
    assert e_phase == pytest.approx(e_modes, rel=1e-10)
    assert wigner.wigner_3d_total(wigner.wigner_3d(modes)) == pytest.approx(
        em.photon_number(modes), rel=1e-12
    )


def test_energy_quadrature_grid_is_exact():
    # fast FFT lengths >= 4 max|n| + 1: 13 and 61 are prime
    assert [em.default_grid(m) for m in (1, 2, 3, 15, 31)] == [5, 9, 14, 63, 125]
    # the smallest 11-smooth length, as scipy's fast-length search finds it
    assert all(em.default_grid(m) == next_fast_len(4 * m + 1) for m in range(600))
    modes = transverse_mode_set(seed=37, n_modes=3)
    default = em.field_energy(modes)
    finer = em.field_energy(modes, n_grid=25)
    assert finer == pytest.approx(default, rel=1e-12)


def test_single_unpaired_mode_energy():
    # a mode without its -k partner still carries a real field; all routes
    # must account for the implicit conjugate content
    L = 2.0 * math.pi
    k = np.array([[0.0, 0.0, 3.0]])
    e1, e2, _ = em.polarization_basis(k[0])
    psik = (0.6 * (e1 + 1j * e2) / math.sqrt(2.0))[None, :]
    modes = em.PhotonModeSet(k=k, psik=psik, box_length=L, medium=DENSE, hbar=1.0)
    assert em.field_energy(modes) == pytest.approx(em.mode_energy_3d(modes), rel=1e-10)


# the mode-closure copy and per-mode grid loop that em._grid_sums replaced,
# kept as the oracle for its scatter and inverse FFT


def closed_potential_modes(modes):
    A_modes, Adot_modes = em.potential_from_psi(modes)
    partner = em._partner_index(modes)
    ks, As, Ads = [], [], []
    for i in range(modes.k.shape[0]):
        ks.append(modes.k[i])
        As.append(A_modes[i])
        Ads.append(Adot_modes[i])
        if partner[i] < 0:
            ks.append(-modes.k[i])
            As.append(np.conj(A_modes[i]))
            Ads.append(np.conj(Adot_modes[i]))
    return np.asarray(ks), np.asarray(As), np.asarray(Ads)


def grid_sums_reference(ks, coeffs, n_grid, box_length):
    mesh = em.box_mesh(n_grid, box_length)
    out = np.zeros(coeffs.shape[1:] + mesh.shape[1:], dtype=complex)
    for i in range(ks.shape[0]):
        phase = np.exp(-1j * np.tensordot(ks[i], mesh, axes=(0, 0)))
        out += coeffs[i][..., None, None, None] * phase
    return ((2.0 * np.pi) ** 1.5 / box_length**3 * out).real


def field_energy_reference(modes, n_grid):
    m = modes.medium
    ks, A_modes, Adot_modes = closed_potential_modes(modes)
    coeffs = np.stack([-Adot_modes / m.c, np.cross(-1j * ks, A_modes) / m.mu], axis=1)
    E, H = grid_sums_reference(ks, coeffs, n_grid, modes.box_length)
    w = 0.5 * (m.eps * np.sum(E**2, axis=0) + m.mu * np.sum(H**2, axis=0))
    return float(np.sum(w) * (modes.box_length / n_grid) ** 3)


def indexed_mode_set(seed, triples, box_length=2.0 * math.pi * 1.3):
    rng = np.random.default_rng(seed)
    k = 2.0 * math.pi / box_length * np.asarray(triples, dtype=float)
    psik = np.empty(k.shape, dtype=complex)
    for i, row in enumerate(k):
        e1, e2, _ = em.polarization_basis(row)
        c = rng.normal(size=4)
        psik[i] = (c[0] + 1j * c[1]) * e1 + (c[2] + 1j * c[3]) * e2
    return em.PhotonModeSet(k=k, psik=psik, box_length=box_length, medium=DENSE, hbar=1.0)


PAIRED = [(1, 0, 0), (-1, 0, 0), (0, 2, -1), (0, -2, 1), (1, 1, 2), (-1, -1, -2)]
UNPAIRED = [(1, 0, 0), (0, 2, -1), (2, -1, 1), (-1, 1, 2)]
MIXED = [(1, 0, 0), (-1, 0, 0), (0, 2, -1), (2, -1, 1), (-2, 1, -1), (1, 2, 2)]


@pytest.mark.parametrize(
    "triples, n_grid",
    [
        (PAIRED, None),
        (UNPAIRED, None),
        ([(0, 0, 3)], None),
        (MIXED, None),
        # n_grid 3 < 2 max|n| + 1 = 5: (1, 0, 0) and (-2, 0, 0) share a DFT bin
        (MIXED + [(-2, 0, 0)], 3),
    ],
    ids=["paired", "unpaired", "single", "mixed", "aliasing"],
)
def test_fields_match_per_mode_loop(triples, n_grid):
    modes = indexed_mode_set(seed=len(triples), triples=triples)
    if n_grid is None:
        n_grid = em.default_grid(int(np.max(np.abs(triples))))
    ks, A_modes, Adot_modes = closed_potential_modes(modes)
    expected = grid_sums_reference(
        ks, np.stack([A_modes, Adot_modes], axis=1), n_grid, modes.box_length
    )
    for got, want in zip(em.potential_field_values(modes, n_grid), expected):
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
    assert em.field_energy(modes, n_grid) == pytest.approx(
        field_energy_reference(modes, n_grid), rel=1e-12
    )


def test_normalize_photons():
    modes = transverse_mode_set(seed=41, n_modes=4)
    scaled = em.normalize_photons(modes, 2.5)
    assert em.photon_number(scaled) == pytest.approx(2.5, rel=1e-13)
    assert em.action_area_3d(scaled) == pytest.approx(
        2.0 * math.pi * scaled.hbar * 2.5, rel=1e-13
    )
    with pytest.raises(ValueError):
        em.normalize_photons(modes, -1.0)
    empty = em.PhotonModeSet(
        k=np.array([[1.0, 0.0, 0.0]]), psik=np.zeros((1, 3), dtype=complex),
        box_length=2.0 * math.pi, medium=VACUUM, hbar=1.0,
    )
    with pytest.raises(ValueError):
        em.normalize_photons(empty, 1.0)
