"""Helicity eigenmodes of the complex potential: algebraic identities,
rotation equivalence, and the axial Beltrami solution on a stencil."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from wavekit import cli, em, experiments, helicity
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
    # a scalar has no component axis: refused by name, not by an IndexError
    with pytest.raises(ValueError, match="U must be component-first"):
        helicity.rotate_field(1.0, axis, theta)


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


def hand_partials(x, k, v, t):
    """Analytic first derivatives of the axial solution, written out."""
    env = np.exp(1j * k * (x[2] - v * t))
    u = (x[0] - 1j * x[1]) * env / math.sqrt(2.0)
    w = 1j * (math.sqrt(2.0) / k) * env
    du = {
        "x": env / math.sqrt(2.0),
        "y": -1j * env / math.sqrt(2.0),
        "z": 1j * k * u,
    }
    dw = {"x": np.zeros_like(w), "y": np.zeros_like(w), "z": 1j * k * w}
    return u, w, du, dw


def test_cylindrical_solution_closed_identities():
    k, v, t = 1.3, 0.9, 0.4
    rng = np.random.default_rng(23)
    x = rng.uniform(-2.0, 2.0, size=(3, 50))
    U = helicity.cylindrical_solution(x, k, v, t=t)
    u, w, du, dw = hand_partials(x, k, v, t)
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


def divided_stencil_curl(U, h):
    """The centered-difference curl with each difference divided by 2h."""
    def d(comp, axis):
        return (np.roll(comp, -1, axis) - np.roll(comp, 1, axis))[1:-1, 1:-1, 1:-1] / (2.0 * h)

    return np.stack([d(U[2], 1) - d(U[1], 2), d(U[0], 2) - d(U[2], 0), d(U[1], 0) - d(U[0], 1)])


@pytest.mark.parametrize("h", [1e-3, 0.37, 3e-300, 7e290])
def test_stencil_multiply_equals_the_division(h):
    # numpy divides a complex array by a real s as by (s, 0), which multiplies by 1 / s, so
    # the stencil's multiply by 1 / (2h) keeps the division's bits, over 26 decades of U
    # (at h = 3e-300 some differences overflow, and the curl meets inf - inf)
    rng = np.random.default_rng(11)
    shape = (3, 6, 7, 8)
    U = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.uniform(-13, 13, shape)
    with np.errstate(over="ignore", invalid="ignore"):
        curl, reference = helicity.stencil_curl(U, h), divided_stencil_curl(U, h)
    assert np.array_equal(curl, reference, equal_nan=True)


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


def whole_mesh_checks(plane_k, k, v, mesh_n, spacing, dt, center):
    """U and the six figures of helicity.cylindrical_figures, each on one whole mesh."""

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
    mode = helicity.ComplexPotentialMode(k=plane_k, sigma=1)
    U = mode.evaluate(x, v=v)
    r1, r2 = beltrami(U0, spacing), beltrami(U_h, spacing / 2.0)
    return U, {
        "beltrami_residual": r1,
        "beltrami_residual_half_h": r2,
        "stencil_order_ratio": r1 / r2,
        "equation_residual": helicity.potential_equation_residual(U0, U1, dt, spacing, v),
        "eigencheck_same": helicity.helicity_eigencheck(U, plane_k, 1),
        "eigencheck_opposite": helicity.helicity_eigencheck(U, plane_k, -1),
    }


SLAB_CASE = {
    "plane_k": np.array([0.3, -0.4, 1.3]), "k": 1.3, "v": 0.8, "mesh_n": 12, "spacing": 2e-3,
    "dt": 1e-3, "center": (0.3, -0.2, 0.1),
}


def precession_phase(U, plane_k):
    """verify-helicity's precession check on one whole mesh: the rotated U against the
    phased U, relative to max|U|."""
    rotated = helicity.rotate_field(U, plane_k / np.linalg.norm(plane_k), -0.7)
    return float(np.max(np.abs(rotated - U * np.exp(0.7j))) / np.max(np.abs(U)))


def test_open_axes_solution_equals_dense_solution():
    k, v, t = 1.3, 0.9, 0.37
    rng = np.random.default_rng(5)
    axes = [np.sort(rng.uniform(-2.0, 2.0, size=n)) for n in (5, 7, 11)]
    dense = helicity.cylindrical_solution(np.stack(np.meshgrid(*axes, indexing="ij")), k, v, t)
    open_mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    assert np.array_equal(helicity._cylindrical_on_axes(*open_mesh, k, v, t), dense)


# 8 x-planes of the mesh_n 12 mesh and 2 of its 23-plane half-spacing mesh
SLAB_BUDGET = 8 * 48 * 12**2


def run_in_slabs(monkeypatch, budget, precession=False):
    """cylindrical_figures on SLAB_CASE at a slab budget, and the x-planes of each slab: the
    stencil slabs (halo included) of the coarse (12) and half-spacing (23) meshes, and the
    plane-mode slabs."""
    planes = {12: [], 23: [], "plane": []}
    solution, evaluate = helicity._cylindrical_on_axes, helicity.ComplexPotentialMode.evaluate

    def record_solution(x0, x1, x2, k, v, t=0.0, *args, **kwargs):
        if t == 0.0:  # U(0) only: a coarse slab also takes U(dt)
            planes[x2.size].append(x0.shape[0])
        return solution(x0, x1, x2, k, v, t, *args, **kwargs)

    def record_evaluate(self, x, *args, **kwargs):
        planes["plane"].append(x[0].shape[0])
        return evaluate(self, x, *args, **kwargs)

    monkeypatch.setattr(helicity, "_SLAB_BYTES", budget)
    monkeypatch.setattr(helicity, "_cylindrical_on_axes", record_solution)
    monkeypatch.setattr(helicity.ComplexPotentialMode, "evaluate", record_evaluate)
    figures = helicity.cylindrical_figures(**SLAB_CASE, precession=precession)
    monkeypatch.undo()
    return figures, planes


def test_slab_checks_equal_whole_mesh_checks(monkeypatch):
    oracle, expected = whole_mesh_checks(**SLAB_CASE)
    expected_precessed = {**expected, "precession_phase": precession_phase(oracle, SLAB_CASE["plane_k"])}
    splits = [
        # each mesh in full slabs and a short one: 8 + 2 coarse interior planes, 10 x 2 + 1
        # half-spacing ones and 8 + 4 plane-mode planes
        (SLAB_BUDGET, {12: [10, 4], 23: [4] * 10 + [3], "plane": [8, 4]}),
        (0, {12: [3] * 10, 23: [3] * 21, "plane": [1] * 12}),  # one plane per slab
        (2**40, {12: [12], 23: [23], "plane": [12]}),  # the whole mesh in one slab
    ]
    for budget, planes in splits:
        figures, seen = run_in_slabs(monkeypatch, budget)
        assert seen == planes
        assert figures == expected
        figures, _ = run_in_slabs(monkeypatch, budget, precession=True)
        assert figures == expected_precessed
        assert all(math.isfinite(value) and value > 0 for value in figures.values())


@given(seed=st.integers(0, 2**31), cuts=st.sets(st.integers(1, 8)))
@example(seed=0, cuts=set(range(1, 9)))
def test_plane_mode_on_slabs_equals_whole_mesh(seed, cuts):
    # the phase k.x is taken elementwise, so no point's value depends on the slab it is in
    x = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(3, 9, 9, 9))
    mode = helicity.ComplexPotentialMode(k=np.array([0.3, -0.4, 1.3]), sigma=1)
    bounds = [0, *sorted(cuts), 9]
    slabs = [mode.evaluate(x[:, i0:i1], t=0.3, v=0.8) for i0, i1 in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(slabs, axis=1), mode.evaluate(x, t=0.3, v=0.8))


def test_plane_mode_on_open_axes_equals_dense_mesh():
    # k.x is taken elementwise, so the open axes of a mesh give each point's value bit for bit
    rng = np.random.default_rng(4)
    axes = [np.sort(rng.uniform(-2.0, 2.0, size)) for size in (5, 7, 6)]
    open_axes = np.meshgrid(*axes, indexing="ij", sparse=True)
    dense = np.stack(np.meshgrid(*axes, indexing="ij"))
    mode = helicity.ComplexPotentialMode(k=np.array([0.3, -0.4, 1.3]), sigma=-1, amplitude=0.7j)
    U = mode.evaluate(open_axes, t=0.3, v=0.8)
    assert U.shape == (3, 5, 7, 6)
    assert np.array_equal(U, mode.evaluate(dense, t=0.3, v=0.8))


def test_slab_checks_keep_a_nan_of_one_slab(monkeypatch):
    solution = helicity._cylindrical_on_axes

    def nan_in_last_fine_slab(x0, *args, **kwargs):
        U = solution(x0, *args, **kwargs)
        if x0.shape[0] == 3:  # the last half-spacing slab; no other slab has 3 planes
            U[1, -2, 3, 3] = np.nan
        return U

    _, expected = whole_mesh_checks(**SLAB_CASE)
    monkeypatch.setattr(helicity, "_SLAB_BYTES", SLAB_BUDGET)
    monkeypatch.setattr(helicity, "_cylindrical_on_axes", nan_in_last_fine_slab)
    figures = helicity.cylindrical_figures(**SLAB_CASE)
    nan = {"beltrami_residual_half_h", "stencil_order_ratio"}
    assert all(math.isnan(figures[name]) for name in nan)
    assert {n: v for n, v in figures.items() if n not in nan} == {
        n: v for n, v in expected.items() if n not in nan
    }


def test_plane_mode_checks_keep_a_nan_of_one_slab(monkeypatch):
    evaluate = helicity.ComplexPotentialMode.evaluate

    def nan_in_last_slab(self, x, *args, **kwargs):
        U = evaluate(self, x, *args, **kwargs)
        if x[0].shape[0] == 4:  # the last plane-mode slab
            U[2, -1, 4, 5] = np.nan
        return U

    _, expected = whole_mesh_checks(**SLAB_CASE)
    monkeypatch.setattr(helicity, "_SLAB_BYTES", SLAB_BUDGET)
    monkeypatch.setattr(helicity.ComplexPotentialMode, "evaluate", nan_in_last_slab)
    figures = helicity.cylindrical_figures(**SLAB_CASE, precession=True)
    nan = {"eigencheck_same", "eigencheck_opposite", "precession_phase"}
    assert all(math.isnan(figures[name]) for name in nan)
    assert {n: v for n, v in figures.items() if n not in nan} == {
        n: v for n, v in expected.items() if n not in nan
    }


@pytest.mark.parametrize(
    "scenario, mesh_n, bound",
    [
        ("helicity-cylindrical", 33, 0.44),
        ("verify-helicity", 33, 0.44),
        ("helicity-cylindrical", 65, 0.1),
        ("verify-helicity", 65, 0.1),
    ],
    ids=["helicity-cylindrical", "verify-helicity", "helicity-cylindrical-65", "verify-helicity-65"],
)
def test_helicity_runner_peak_memory_under_one_half_spacing_field(
    tmp_path, scenario, mesh_n, bound
):
    # every check holds one slab at a time: neither the whole (2 mesh_n - 1)^3 mesh of the
    # half-spacing check nor the mesh_n^3 mesh of the plane-mode and precession checks
    _, _, config_class, run = experiments.SCENARIOS[scenario]
    cfg = config_class(mesh_n=mesh_n)
    units, sink = get_units("natural"), cli.Staging(tmp_path)
    run(cfg, units, sink)  # warm-up, so one-time caches are not counted
    tracemalloc.start()
    try:
        run(cfg, units, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    field_bytes = 3 * (2 * mesh_n - 1) ** 3 * np.dtype(complex).itemsize
    # measured: 0.28 and 0.33 of a field at mesh_n 33, 0.058 and 0.063 at 65, where a
    # half-spacing slab holds one interior x-plane
    assert peak <= bound * field_bytes
