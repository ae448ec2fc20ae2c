"""Helicity eigenmodes of the complex potential: algebraic identities,
rotation equivalence, and the axial Beltrami solution on a stencil."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from wavekit import em, experiments, helicity
from wavekit.units import get_units

DENSE = em.MediumParams(eps=2.25, mu=1.1, c=1.0)


def mesh_cube(n, span=1.0, center=(0.4, -0.3, 0.2)):
    axes = [c + np.linspace(-span, span, n) for c in center]
    X, Y, Z = np.meshgrid(*axes, indexing="ij")
    return np.stack([X, Y, Z]), 2.0 * span / (n - 1)


# ---------------------------------------------------------------------------
# plane modes


def test_mode_validation():
    with pytest.raises(ValueError):
        helicity.ComplexPotentialMode(k=np.zeros(3), sigma=1)
    with pytest.raises(ValueError):
        helicity.ComplexPotentialMode(k=np.array([1.0, 0.0, 0.0]), sigma=0)
    mode = helicity.ComplexPotentialMode(k=np.array([1.0, 0.0, 0.0]), sigma=1)
    with pytest.raises(ValueError):
        mode.evaluate(np.zeros((2, 5)))


def test_plane_mode_is_helicity_eigenfield():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-2.0, 2.0, size=(3, 40))
    for sigma in (1, -1):
        k = rng.normal(size=3)
        mode = helicity.ComplexPotentialMode(k=k, sigma=sigma, amplitude=0.7 - 0.2j)
        U = mode.evaluate(pts, t=0.6, v=1.1)
        assert helicity.helicity_eigencheck(U, k, sigma) < 1e-14
        assert helicity.helicity_eigencheck(U, k, -sigma) == pytest.approx(2.0, abs=1e-12)


def test_eigencheck_validation():
    U = np.zeros((3, 4), dtype=complex)
    with pytest.raises(ValueError):
        helicity.helicity_eigencheck(U, np.zeros(3), 1)
    with pytest.raises(ValueError):
        helicity.helicity_eigencheck(U, np.ones(3), 0)
    with pytest.raises(ValueError):
        helicity.helicity_eigencheck(np.zeros((2, 4)), np.ones(3), 1)


def test_plane_mode_satisfies_curl_equation_on_stencil():
    # centered differences against the analytic time derivative; the defect
    # is the honest stencil truncation, not zero and not large
    k = np.array([0.9, -0.4, 1.2])
    mode = helicity.ComplexPotentialMode(k=k, sigma=1, amplitude=1.0)
    pts, h = mesh_cube(11, span=0.5)
    v = 0.8
    omega = mode.omega(v)
    dt = 1e-4 / omega
    U0 = mode.evaluate(pts, t=0.0, v=v)
    U1 = mode.evaluate(pts, t=dt, v=v)
    resid = helicity.potential_equation_residual(U0, U1, dt, h, v)
    kh = float(np.linalg.norm(k)) * h
    assert kh**2 / 20.0 < resid < kh**2 / 3.0


def test_precession_equals_phase():
    rng = np.random.default_rng(11)
    k = rng.normal(size=3)
    pts = rng.uniform(-1.0, 1.0, size=(3, 30))
    v, t = 1.3, 0.77
    for sigma in (1, -1):
        mode = helicity.ComplexPotentialMode(k=k, sigma=sigma, amplitude=0.4 + 0.9j)
        omega = mode.omega(v)
        U0 = mode.evaluate(pts, t=0.0, v=v)
        later = mode.evaluate(pts, t=t, v=v)
        # free evolution is a rigid precession about khat by -omega t
        precessed = helicity.rotate_field(U0, k / np.linalg.norm(k), -omega * t)
        assert np.max(np.abs(precessed - later)) < 1e-12 * np.max(np.abs(U0))
        phase = np.exp(1j * sigma * omega * t)
        assert np.max(np.abs(phase * U0 - later)) < 1e-12 * np.max(np.abs(U0))


def test_rotate_field_matches_rotation_matrix():
    rng = np.random.default_rng(19)
    U = rng.normal(size=(3, 25)) + 1j * rng.normal(size=(3, 25))
    axis = np.array([0.6, -1.4, 0.8])  # not normalized on purpose
    theta = 1.234
    rotated = helicity.rotate_field(U, axis, theta)
    R = Rotation.from_rotvec(theta * axis / np.linalg.norm(axis))
    expected = R.apply(U.real.T).T + 1j * R.apply(U.imag.T).T
    assert np.max(np.abs(rotated - expected)) < 1e-13 * np.max(np.abs(U))
    with pytest.raises(ValueError):
        helicity.rotate_field(np.zeros((2, 5)), axis, theta)


def test_real_potential_matches_circular_wave():
    # the circular plane wave is the real shadow of one helicity mode
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3.0, 3.0, size=(3, 100))
    t, k, A_perp = 0.37, 1.8, 0.65
    for medium in (em.MediumParams(), DENSE):
        for sigma in (1, -1):
            mode = helicity.circular_complex_potential(A_perp, k, sigma, medium)
            U = mode.evaluate(pts, t=t, v=medium.v)
            A_wave, _, _ = em.circular_plane_wave(pts, A_perp, k, sigma, medium, t=t)
            A_mode = np.sqrt(medium.mu) * U.real  # A = sqrt(mu) (U + U*)/2
            assert np.max(np.abs(A_mode - A_wave)) < 1e-12 * A_perp


def test_circular_complex_potential_validation():
    with pytest.raises(ValueError):
        helicity.circular_complex_potential(1.0, -2.0, 1, DENSE)


# ---------------------------------------------------------------------------
# axial Beltrami solution


def hand_partials(x, k, v, t, scale):
    """Analytic first derivatives of the axial solution, written out."""
    env = np.exp(1j * k * (x[2] - v * t))
    u = scale * (x[0] - 1j * x[1]) * env / math.sqrt(2.0)
    w = 1j * (math.sqrt(2.0) / k) * scale * env
    du = {
        "x": scale * env / math.sqrt(2.0),
        "y": -1j * scale * env / math.sqrt(2.0),
        "z": 1j * k * u,
    }
    dw = {"x": np.zeros_like(w), "y": np.zeros_like(w), "z": 1j * k * w}
    return u, w, du, dw


def test_cylindrical_solution_closed_identities():
    k, v, t, scale = 1.3, 0.9, 0.4, 0.8
    rng = np.random.default_rng(23)
    x = rng.uniform(-2.0, 2.0, size=(3, 50))
    U = helicity.cylindrical_solution(x, k, v, t=t, scale=scale)
    u, w, du, dw = hand_partials(x, k, v, t, scale)
    assert np.max(np.abs(U - np.stack([u, 1j * u, w]))) < 1e-14 * np.max(np.abs(U))
    # curl U = k U component by component from the written-out partials
    curl = np.stack([
        dw["y"] - 1j * du["z"],
        du["z"] - dw["x"],
        1j * du["x"] - du["y"],
    ])
    assert np.max(np.abs(curl - k * U)) < 1e-13 * np.max(np.abs(k * U))
    # divergence-free
    div = du["x"] + 1j * du["y"] + dw["z"]
    assert np.max(np.abs(div)) < 1e-13 * np.max(np.abs(du["x"]))
    # i dU/dt = v curl U, with dU/dt = -i k v U analytically
    assert np.max(np.abs(1j * (-1j * k * v) * U - v * (k * U))) < 1e-14 * np.max(np.abs(U))


def test_cylindrical_stencil_second_order():
    k, v = 1.3, 0.9
    results = []
    for n in (9, 17):
        pts, h = mesh_cube(n, span=1.0)
        U = helicity.cylindrical_solution(pts, k, v)
        curl = helicity.stencil_curl(U, h)
        target = k * helicity.interior(U)
        resid = np.max(np.abs(curl - target)) / np.max(np.abs(target))
        results.append((h, resid))
    (h1, r1), (h2, r2) = results
    order = math.log2(r1 / r2)
    assert 1.9 < order < 2.1
    # coefficient close to the one-sided estimate (kh)^2/6
    assert 0.3 < r1 / ((k * h1) ** 2 / 6.0) < 1.5


def test_field_from_potential_is_ik_times_U():
    k, v = 1.3, 0.9
    pts, h = mesh_cube(13, span=1.0)
    U = helicity.cylindrical_solution(pts, k, v)
    F = 1j * helicity.stencil_curl(U, h)
    target = 1j * k * helicity.interior(U)
    resid = np.max(np.abs(F - target)) / np.max(np.abs(target))
    assert resid < (k * h) ** 2 / 3.0


def test_equation_residual_cylindrical_snapshots():
    k, v = 1.5, 0.9
    pts, h = mesh_cube(9, span=1.0)
    omega = k * v
    dt = 1e-3 * (2.0 * math.pi / omega)
    U0 = helicity.cylindrical_solution(pts, k, v, t=0.0)
    U1 = helicity.cylindrical_solution(pts, k, v, t=dt)
    resid = helicity.potential_equation_residual(U0, U1, dt, h, v)
    assert (k * h) ** 2 / 20.0 < resid < 0.5 * (k * h) ** 2 + 0.25 * (omega * dt) ** 2


def test_stencil_validation():
    with pytest.raises(ValueError):
        helicity.stencil_curl(np.zeros((3, 2, 4, 4), dtype=complex), 0.1)
    with pytest.raises(ValueError):
        helicity.stencil_curl(np.zeros((3, 4, 4, 4), dtype=complex), -0.1)
    with pytest.raises(ValueError):
        helicity.stencil_curl(np.zeros((4, 4, 4)), 0.1)
    with pytest.raises(ValueError):
        helicity.potential_equation_residual(
            np.zeros((3, 4, 4, 4)), np.zeros((3, 5, 5, 5)), 0.1, 0.1, 1.0
        )
    with pytest.raises(ValueError):
        helicity.potential_equation_residual(
            np.zeros((3, 4, 4, 4)), np.zeros((3, 4, 4, 4)), -0.1, 0.1, 1.0
        )
    with pytest.raises(ValueError):
        helicity.cylindrical_solution(np.zeros((3, 4)), -1.0, 1.0)


# ---------------------------------------------------------------------------
# the runners' stencil checks, reduced slab by slab


def whole_mesh_checks(k, v, mesh_n, spacing, dt, center):
    """The three figures of experiments._cylindrical_block, each on one whole mesh."""

    def mesh(n, h):
        s = (np.arange(n) - (n - 1) / 2.0) * h
        return np.stack(np.meshgrid(*(s + c for c in center), indexing="ij"))

    def max_norm(U):
        return float(np.max(np.sqrt(np.sum(np.abs(U) ** 2, axis=0))))

    def beltrami(U, h):
        defect = helicity.stencil_curl(U, h) - k * helicity.interior(U)
        return max_norm(defect) / (k * max_norm(helicity.interior(U)))

    x = mesh(mesh_n, spacing)
    U0 = helicity.cylindrical_solution(x, k, v)
    U1 = helicity.cylindrical_solution(x, k, v, t=dt)
    U_h = helicity.cylindrical_solution(mesh(2 * mesh_n - 1, spacing / 2.0), k, v)
    return (
        x,
        helicity.potential_equation_residual(U0, U1, dt, spacing, v),
        beltrami(U0, spacing),
        beltrami(U_h, spacing / 2.0),
    )


SLAB_CASE = {
    "k": 1.3, "v": 0.8, "mesh_n": 12, "spacing": 2e-3, "dt": 1e-3, "center": (0.3, -0.2, 0.1)
}


def test_slab_checks_equal_whole_mesh_checks():
    # the half-spacing mesh of mesh_n 12 has 21 interior planes: two full slabs and a short one
    interior_planes = 2 * SLAB_CASE["mesh_n"] - 3
    assert interior_planes > 2 * experiments._SLAB and interior_planes % experiments._SLAB
    x, *figures = experiments._cylindrical_block(**SLAB_CASE)
    oracle, *expected = whole_mesh_checks(**SLAB_CASE)
    assert np.array_equal(x, oracle)
    assert figures == expected
    assert all(math.isfinite(value) and value > 0 for value in figures)


def test_slab_checks_keep_a_nan_of_one_slab(monkeypatch):
    solution = helicity.cylindrical_solution
    last_fine_planes = (2 * SLAB_CASE["mesh_n"] - 3) % experiments._SLAB + 2

    def nan_in_last_fine_slab(x, *args, **kwargs):
        U = solution(x, *args, **kwargs)
        if x.shape[1] == last_fine_planes:
            U[1, -2, 3, 3] = np.nan
        return U

    _, *expected = whole_mesh_checks(**SLAB_CASE)
    monkeypatch.setattr(helicity, "cylindrical_solution", nan_in_last_fine_slab)
    _, equation, coarse, fine = experiments._cylindrical_block(**SLAB_CASE)
    assert [equation, coarse] == expected[:2]
    assert math.isnan(fine)


@pytest.mark.parametrize("scenario", ["helicity-cylindrical", "verify-helicity"])
def test_helicity_runner_peak_memory_under_one_half_spacing_field(scenario):
    # the half-spacing checks hold one slab at a time, not the whole (2 mesh_n - 1)^3 mesh
    mesh_n = 33
    _, _, config_class, run = experiments.SCENARIOS[scenario]
    cfg = config_class(mesh_n=mesh_n)
    units = get_units("natural")
    run(cfg, units)  # warm-up, so one-time caches are not counted
    tracemalloc.start()
    try:
        run(cfg, units)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field_bytes = 3 * (2 * mesh_n - 1) ** 3 * np.dtype(complex).itemsize
    assert peak <= 1.0 * field_bytes
