"""Helicity eigenmodes of the complex potential: algebraic identities,
rotation equivalence, and the axial Beltrami solution on a stencil."""

import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from wavekit import em, helicity

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
        # free evolution is a rigid precession about khat
        precessed = helicity.precess_mode(U0, k / np.linalg.norm(k), omega, t)
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
            A_mode = helicity.real_potential(U, mu=medium.mu)
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
