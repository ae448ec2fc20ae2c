"""End-to-end acceptance gate: nine numbered criteria, one line of output each.

Run with -s (or -v on failure) to see the lines.  Every test computes its
quantities from scratch and checks them against an independent oracle or a
stated tolerance; nothing here reuses another test's numbers.
"""

import math
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import zeta

from wavekit import cli, em, experiments, helicity, kinetics, lattice, wigner


def report(num, slug, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({slug}): {detail}")
    assert ok, f"criterion {num} ({slug}): {detail}"


def peak_x_star():
    # the spectral peak solves x = 5 (1 - exp(-x))
    return brentq(lambda x: x - 5.0 * (1.0 - math.exp(-x)), 4.0, 6.0, xtol=1e-14)


def thermal_summary(tmp_path):
    payload = {
        "schema_version": 1,
        "scenario": "thermal-planck",
        "units": "natural",
        "output": {"dir": str(tmp_path / "out")},
        "kinetics": {},
    }
    top = experiments.parse_config(payload)
    summary, _ = experiments.run_config(top, cli.Staging(tmp_path))
    return summary


def test_criterion_1_peak_product(tmp_path):
    t0 = perf_counter()
    summary = thermal_summary(tmp_path)
    elapsed = perf_counter() - t0
    product = summary["peak_product"]
    oracle = 2.0 * math.pi / peak_x_star()
    ok = (
        abs(product - 1.26) <= 0.01
        and abs(product - oracle) <= 1e-4
        and elapsed < 1.0
    )
    report(
        1, "peak-product", ok,
        f"reported {product:.6f}, root-finder oracle {oracle:.6f}, "
        f"diff {abs(product - oracle):.2e} (tol 1e-4), {elapsed:.2f}s",
    )


def test_criterion_2_photons_per_peak_cube(tmp_path):
    t0 = perf_counter()
    summary = thermal_summary(tmp_path)
    elapsed = perf_counter() - t0
    n_m = summary["photons_per_peak_cube"]
    series = 16.0 * math.pi * zeta(3.0) / peak_x_star() ** 3
    ok = (
        0.47 <= n_m <= 0.50
        and abs(n_m - series) <= 1e-6
        and elapsed < 1.0
    )
    report(
        2, "photons-per-peak-cube", ok,
        f"quadrature {n_m:.10f}, series oracle {series:.10f}, "
        f"diff {abs(n_m - series):.2e} (tol 1e-6); band [0.47, 0.50] covers "
        f"the commonly rounded 0.48; {elapsed:.2f}s",
    )


def test_criterion_3_relaxation_to_thermal_law():
    params = kinetics.KineticParams(gamma=1.0, temperature=1.0)
    x = np.linspace(1.6, 25.0, 512)
    eps = x * params.k_B * params.temperature
    state = kinetics.KineticState(p=eps / params.v, f=np.zeros_like(x))
    t0 = perf_counter()
    final = kinetics.kinetic_step(
        state, params, 30.0 / params.gamma, kinetics.SourceModel.WIEN_STIMULATED
    )
    elapsed = perf_counter() - t0
    f_T = np.asarray(kinetics.planck_f(eps, params))
    rel = float(np.max(np.abs(final.f - f_T) / f_T))
    rhs = np.asarray(
        kinetics.kinetic_rhs(eps, f_T, params, kinetics.SourceModel.WIEN_STIMULATED)
    )
    stationarity = float(np.max(np.abs(rhs) / (params.gamma * f_T)))
    ok = rel < 1e-10 and stationarity < 1e-13 and elapsed < 5.0
    report(
        3, "thermal-relaxation", ok,
        f"per-cell relative distance {rel:.2e} at t = 30/gamma on 512 cells "
        f"(tol 1e-10), substitution residual {stationarity:.2e} (tol 1e-13), "
        f"{elapsed:.2f}s",
    )


def test_criterion_4_wigner_closed_form():
    n, g, ell, hbar = 1024, 64.0, 1.0, 1.0
    k0 = 2.0 * math.pi * (n // 4) / (ell * n)
    gp = wigner.GaussianEtaParams(n_quanta=16.0, g=g, k0=k0, x0=ell * n / 2.0)
    length = ell * n
    peak_ref = gp.n_quanta / (math.pi * hbar)
    t0 = perf_counter()
    wave = wigner.gaussian_action_wave(gp, ell, n, hbar)
    grid = wigner.wigner_1d(wave)
    half = grid.window(gp.x0 - length / 4.0, gp.x0 + length / 4.0)
    err0 = float(
        np.max(np.abs(half.f - wigner.wigner_gaussian_closed(gp, half.x, half.p, hbar)))
        / peak_ref
    )
    peak_err = abs(float(np.max(grid.f)) - peak_ref) / peak_ref
    # linear dispersion omega = |k|: the packet slides rigidly at the wave speed
    t = 37.5
    moved = wigner.evolve_wigner_group_velocity(grid, np.sign(grid.p), t)
    center = gp.x0 + t
    half_t = moved.window(center - length / 4.0, center + length / 4.0)
    err_t = float(
        np.max(
            np.abs(
                half_t.f
                - wigner.wigner_gaussian_closed(gp, half_t.x, half_t.p, hbar, t=t, vg=1.0)
            )
        )
        / peak_ref
    )
    elapsed = perf_counter() - t0
    ok = err0 < 1e-6 and err_t < 1e-6 and peak_err < 1e-6 and elapsed < 10.0
    report(
        4, "wigner-closed-form", ok,
        f"normalized L-inf {err0:.2e} at t=0 and {err_t:.2e} after linear-"
        f"dispersion transport (tol 1e-6), peak off by {peak_err:.2e} "
        f"(tol 1e-6), n = {n}, {elapsed:.2f}s",
    )


def test_criterion_5_lattice_invariants():
    params = lattice.LatticeParams(m=1.0, omega0=0.5, kappa=1.0, ell=1.0, n_sites=256)
    gp = wigner.GaussianEtaParams(
        n_quanta=32.0, g=64.0, k0=math.pi / 2.0, x0=params.length / 2.0
    )
    raw = wigner.gaussian_action_wave(gp, params.ell, params.n_sites, 1.0)
    h_quantum = 2.0 * math.pi  # hbar = 1
    area_raw = lattice.action_area(raw)
    wave = lattice.ActionWave(
        psik=raw.psik * math.sqrt(gp.n_quanta * h_quantum / area_raw),
        k=raw.k, ell=raw.ell, hbar=raw.hbar,
    )
    area_err = abs(lattice.action_area(wave) - gp.n_quanta * h_quantum) / (
        gp.n_quanta * h_quantum
    )
    total_err = abs(wigner.wigner_1d(wave).total() - gp.n_quanta) / gp.n_quanta
    modes = lattice.modes_from_psi(wave, params)
    eta0 = wave.eta
    eta_t = lattice.psi_from_modes(lattice.evolve_modes_exact(modes, 97.3), 1.0).eta
    eta_err = float(np.max(np.abs(eta_t - eta0)) / np.max(eta0))
    state = lattice.idft_from_modes(modes)
    dt = 0.01 / params.omega_max
    _, energies, _ = lattice.leapfrog_energy_series(state, params, dt, 10_000)
    drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    ok = drift <= 1e-6 and eta_err <= 1e-12 and area_err <= 1e-12 and total_err <= 1e-8
    report(
        5, "lattice-invariants", ok,
        f"leapfrog energy drift {drift:.2e} over 10^4 steps at dt = 0.01/omega_max "
        f"(tol 1e-6), action-density invariance {eta_err:.2e} (tol 1e-12), "
        f"area = N h within {area_err:.2e}, phase-space total = N within "
        f"{total_err:.2e} (tol 1e-8)",
    )


def test_criterion_6_energy_three_routes():
    worst = 0.0
    for seed, medium in ((31, em.MediumParams()), (57, em.MediumParams(eps=2.25, mu=1.1)),
                         (93, em.MediumParams(eps=1.8, mu=0.7))):
        rng = np.random.default_rng(seed)
        base = 1.0  # box length 2 pi
        seen, kvecs = set(), []
        while len(kvecs) < 6:
            trio = tuple(rng.integers(-2, 3, size=3))
            if trio == (0, 0, 0) or trio in seen:
                continue
            seen.add(trio)
            kvecs.append(base * np.array(trio, dtype=float))
        k = np.array(kvecs)
        psik = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        khat = k / np.linalg.norm(k, axis=1, keepdims=True)
        psik = psik - np.sum(psik * khat, axis=1, keepdims=True) * khat
        modes = em.PhotonModeSet(
            k=k, psik=psik, box_length=2.0 * math.pi, medium=medium, hbar=1.0
        )
        routes = (
            em.field_energy(modes),                                      # x space
            em.mode_energy_3d(modes),                                    # k space
            wigner.wigner_3d_energy(wigner.wigner_3d(modes), medium.v),  # phase space
        )
        spread = (max(routes) - min(routes)) / max(routes)
        worst = max(worst, spread)
    ok = worst < 1e-6
    report(
        6, "energy-three-routes", ok,
        f"x-space, k-space, phase-space energies spread by at most {worst:.2e} "
        f"across three random transverse mode sets (tol 1e-6)",
    )


def cross_matrix(kvec):
    k1, k2, k3 = kvec
    return np.array([[0.0, -k3, k2], [k3, 0.0, -k1], [-k2, k1, 0.0]])


def test_criterion_7_field_equations():
    # cylindrical solution: equation and divergence defects converge at
    # second order under mesh-and-step refinement
    k, v = 1.5, 0.9
    omega = k * v
    results = []
    for n, h, dt in ((9, 0.25, 2e-3), (17, 0.125, 1e-3)):
        axes = [c + np.linspace(-(n - 1) / 2.0, (n - 1) / 2.0, n) * h
                for c in (0.4, -0.3, 0.2)]
        X, Y, Z = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([X, Y, Z])
        U0 = helicity.cylindrical_solution(pts, k, v, t=0.0)
        U1 = helicity.cylindrical_solution(pts, k, v, t=dt)
        eq = helicity.potential_equation_residual(U0, U1, dt, h, v)

        def d(comp, axis):
            hi = [slice(1, -1)] * 3
            lo = [slice(1, -1)] * 3
            hi[axis] = slice(2, None)
            lo[axis] = slice(0, -2)
            return (comp[tuple(hi)] - comp[tuple(lo)]) / (2.0 * h)

        div = d(U0[0], 0) + d(U0[1], 1) + d(U0[2], 2)
        div_rel = float(np.max(np.abs(div)) / (k * np.max(np.abs(helicity.interior(U0)))))
        results.append((eq, div_rel))
    eq_order = math.log2(results[0][0] / results[1][0])
    div_order = math.log2(results[0][1] / results[1][1])

    # plane helical modes: exact one-step propagator in the spectral basis
    length = 2.0 * math.pi
    mesh = em.box_mesh(8, length)
    medium = em.MediumParams(eps=2.25, mu=1.1)
    k_wave = 2.0
    period = 2.0 * math.pi / (k_wave * medium.v)
    dt = 1e-3 * period
    prop_worst = 0.0
    fd_worst = 0.0
    q = 2.0 * math.pi * np.fft.fftfreq(8, d=length / 8)
    for sigma in (1, -1):
        def rs_at(t):
            _, E, H = em.circular_plane_wave(mesh, 0.8, k_wave, sigma, medium, t=t)
            return em.riemann_silberstein(E, H, medium)

        F0, F1 = rs_at(0.0), rs_at(dt)
        Fh0 = np.fft.fftn(F0, axes=(1, 2, 3))
        Fh1 = np.fft.fftn(F1, axes=(1, 2, 3))
        scale = float(np.max(np.abs(Fh1)))
        occupied = np.argwhere(np.max(np.abs(Fh0), axis=0) > 1e-9 * scale)
        for i, j, l in occupied:
            kvec = np.array([q[i], q[j], q[l]])
            step = expm(medium.v * dt * cross_matrix(kvec))
            defect = np.max(np.abs(Fh1[:, i, j, l] - step @ Fh0[:, i, j, l]))
            prop_worst = max(prop_worst, float(defect) / scale)
        fd_worst = max(fd_worst, em.curl_evolution_residual(F0, F1, dt, medium, length))
    # midpoint-curl discretization truncates at (omega dt)^2 / 12
    floor = (k_wave * medium.v * dt) ** 2 / 12.0
    ok = (
        eq_order >= 1.9
        and div_order >= 1.9
        and prop_worst < 1e-6
        and 0.8 < fd_worst / floor < 1.25
    )
    report(
        7, "field-equations", ok,
        f"cylindrical equation/divergence orders {eq_order:.2f}/{div_order:.2f} "
        f"(need >= 1.9), exact-propagator residual {prop_worst:.2e} at "
        f"dt = 1e-3 period (tol 1e-6); centered-difference variant "
        f"{fd_worst:.2e} sits on its truncation floor {floor:.2e} "
        f"(ratio {fd_worst / floor:.3f})",
    )


def test_criterion_8_potential_correspondence():
    rng = np.random.default_rng(29)
    pts = rng.uniform(-4.0, 4.0, size=(3, 100))
    t, k, A_perp = 0.41, 1.8, 0.65
    pot_worst = 0.0
    for medium in (em.MediumParams(), em.MediumParams(eps=2.25, mu=1.1)):
        for sigma in (1, -1):
            mode = helicity.circular_complex_potential(A_perp, k, sigma, medium)
            U = mode.evaluate(pts, t=t, v=medium.v)
            A_mode = math.sqrt(medium.mu) * (U + np.conj(U)).real / 2.0
            A_wave, _, _ = em.circular_plane_wave(pts, A_perp, k, sigma, medium, t=t)
            pot_worst = max(pot_worst, float(np.max(np.abs(A_mode - A_wave))) / A_perp)
    dual_worst = 0.0
    for medium in (em.MediumParams(), em.MediumParams(eps=2.25, mu=1.1)):
        E = rng.normal(size=(3, 4, 4, 4))
        H = rng.normal(size=(3, 4, 4, 4))
        F = em.riemann_silberstein(E, H, medium)
        w, Y = em.energy_and_poynting(F, medium)
        w_dual = 0.5 * (medium.eps * np.sum(E**2, axis=0) + medium.mu * np.sum(H**2, axis=0))
        Y_dual = medium.v * math.sqrt(medium.eps * medium.mu) * np.cross(E, H, axis=0)
        dual_worst = max(
            dual_worst,
            float(np.max(np.abs(w - w_dual))) / float(np.max(w_dual)),
            float(np.max(np.abs(Y - Y_dual))) / float(np.max(np.abs(Y_dual))),
        )
    ok = pot_worst < 1e-12 and dual_worst < 1e-12
    report(
        8, "potential-correspondence", ok,
        f"A = sqrt(mu) (U + U*)/2 off by {pot_worst:.2e} at 100 random points "
        f"(tol 1e-12); w and Y dual forms off by {dual_worst:.2e} (tol 1e-12)",
    )


def test_criterion_9_equilibria_and_rates():
    params = kinetics.KineticParams(gamma=0.7, temperature=1.0)
    x = np.linspace(0.05, 25.0, 400)
    eps = x * params.k_B * params.temperature
    f_rj = np.asarray(kinetics.equilibrium_f(eps, params, kinetics.SourceModel.RAYLEIGH_JEANS))
    f_w = np.asarray(kinetics.equilibrium_f(eps, params, kinetics.SourceModel.WIEN))
    f_T = np.asarray(kinetics.planck_f(eps, params))
    bounded = bool(np.all(f_rj > f_T) and np.all(f_T > f_w))

    rate_worst = 0.0
    eps_probe = 1.3
    for model in (kinetics.SourceModel.WIEN, kinetics.SourceModel.WIEN_STIMULATED):
        f_star = float(kinetics.equilibrium_f(eps_probe, params, model))
        f0 = f_star + 0.4
        sol = solve_ivp(
            lambda t, y: np.atleast_1d(kinetics.kinetic_rhs(eps_probe, y[0], params, model)),
            (0.0, 2.0), [f0], rtol=1e-12, atol=1e-14, dense_output=True,
        )
        measured = -math.log((sol.sol(2.0)[0] - f_star) / (f0 - f_star)) / 2.0
        expected = float(kinetics.effective_rate(eps_probe, params, model))
        rate_worst = max(rate_worst, abs(measured - expected) / expected)

    rng = np.random.default_rng(3)
    p = np.linspace(0.4, 9.0, 64)
    state = kinetics.KineticState(p=p, f=rng.uniform(0.1, 1.0, size=64))
    t = 9.37
    later = kinetics.kinetic_step(state, params, t, kinetics.SourceModel.NONE)
    n0 = np.trapezoid(4.0 * math.pi * p**2 * state.f, p)
    n1 = np.trapezoid(4.0 * math.pi * p**2 * later.f, p)
    decay_err = abs(n1 / n0 - math.exp(-params.gamma * t)) / math.exp(-params.gamma * t)

    ok = bounded and rate_worst < 1e-8 and decay_err < 1e-10
    report(
        9, "equilibria-and-rates", ok,
        f"classical/quantum equilibria bound the thermal law pointwise: {bounded}; "
        f"measured decay rates off by {rate_worst:.2e} (tol 1e-8); damping-only "
        f"photon number follows exp(-gamma t) within {decay_err:.2e} (tol 1e-10)",
    )
