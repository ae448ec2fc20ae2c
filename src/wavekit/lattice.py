"""Periodic chain of coupled harmonic oscillators and its mode pictures.

Site variables are displacement u_n and momentum v_n on an even number of
sites with periodic wrap, governed by

    H = sum_n [ v_n^2/(2m) + m*omega0^2*u_n^2/2 + m*kappa*(u_n - u_{n-1})^2/2 ].

Mode amplitudes follow the asymmetric transform pair

    u'_k = sqrt(ell/2pi) * sum_n exp(+i*k*ell*n) * u_n
    v'_k = sqrt(ell/2pi) * sum_n exp(-i*k*ell*n) * v_n

with k = j*dk, j in {-n/2, ..., n/2-1}, dk = 2pi/(ell*n), and inverses

    u_n = sqrt(ell) * (dk/sqrt(2pi)) * sum_k exp(-i*k*ell*n) * u'_k
    v_n = sqrt(ell) * (dk/sqrt(2pi)) * sum_k exp(+i*k*ell*n) * v'_k.

Wavenumber integrals are dk-weighted sums over this grid, so for real
states (u'_k)* = u'_{-k}, (v'_k)* = v'_{-k} and

    H = sum_k dk * [ v'_k v'_{-k}/(2m) + m*omega_k^2 u'_k u'_{-k}/2 ],
    omega_k^2 = omega0^2 + 4*kappa*sin^2(k*ell/2).

The complex action amplitude per mode is

    psi'_k = sqrt(m*omega_k/2) * ((u'_k)* + i*v'_k/(m*omega_k)),

which rotates as psi'_k(t) = exp(-i*omega_k*t) * psi'_k(0); eta_k =
|psi'_k|^2 is an adiabatic invariant and the phase-space area carried by
the wave is A = 2pi * sum_k dk * eta_k.

Grid conventions: all public mode arrays are in monotonic k order
(fftshift of FFT order).  The k = 0 cell is dropped from the action
picture when omega0 = 0 because its frequency vanishes; a nonzero mean
displacement there carries no energy and is outside the action chart.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad

ZERO_MODE_ENERGY_TOL = 1e-12
REALITY_TOL = 1e-10


@dataclass(frozen=True)
class LatticeParams:
    """Chain constants: mass m, pinning omega0, coupling kappa, spacing ell."""

    m: float = 1.0
    omega0: float = 0.0
    kappa: float = 1.0
    ell: float = 1.0
    n_sites: int = 64

    def __post_init__(self) -> None:
        if self.m <= 0:
            raise ValueError("m must be positive")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.omega0 < 0:
            raise ValueError("omega0 must be nonnegative")
        if self.ell <= 0:
            raise ValueError("ell must be positive")
        if self.n_sites < 2 or self.n_sites % 2 != 0:
            raise ValueError("n_sites must be an even integer >= 2")

    @property
    def omega_max(self) -> float:
        return float(np.sqrt(self.omega0**2 + 4.0 * self.kappa))

    @property
    def v_ell(self) -> float:
        """Long-wavelength sound speed ell*sqrt(kappa) of the massless chain."""
        return self.ell * float(np.sqrt(self.kappa))

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / (self.ell * self.n_sites)

    @property
    def length(self) -> float:
        return self.ell * self.n_sites

    def k_grid(self) -> np.ndarray:
        j = np.arange(self.n_sites) - self.n_sites // 2
        return j * self.dk

    def x_grid(self) -> np.ndarray:
        return self.ell * np.arange(self.n_sites)


@dataclass(frozen=True)
class LatticeState:
    """Site displacements and momenta at time t."""

    u: np.ndarray
    v: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("u and v must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("state contains non-finite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class ModeSpectrum:
    """Mode amplitudes u'_k, v'_k on the monotonic k grid of params."""

    uk: np.ndarray
    vk: np.ndarray
    params: LatticeParams

    def __post_init__(self) -> None:
        uk = np.asarray(self.uk, dtype=complex)
        vk = np.asarray(self.vk, dtype=complex)
        if uk.shape != (self.params.n_sites,) or vk.shape != (self.params.n_sites,):
            raise ValueError("mode arrays must match params.n_sites")
        object.__setattr__(self, "uk", uk)
        object.__setattr__(self, "vk", vk)

    @property
    def k(self) -> np.ndarray:
        return self.params.k_grid()


@dataclass(frozen=True)
class ActionWave:
    """Action amplitudes psi'_k on a monotonic k grid.

    eta = |psi'_k|^2 and phi = arg psi'_k give the action-angle view; the
    spatial profile lives on sites x = ell*n.
    """

    psik: np.ndarray
    k: np.ndarray
    ell: float
    hbar: float

    def __post_init__(self) -> None:
        psik = np.asarray(self.psik, dtype=complex)
        k = np.asarray(self.k, dtype=float)
        if psik.shape != k.shape or psik.ndim != 1:
            raise ValueError("psik and k must be 1-D arrays of equal length")
        if self.hbar <= 0 or self.ell <= 0:
            raise ValueError("hbar and ell must be positive")
        object.__setattr__(self, "psik", psik)
        object.__setattr__(self, "k", k)

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / (self.ell * self.psik.size)

    @property
    def eta(self) -> np.ndarray:
        return np.abs(self.psik) ** 2

    @property
    def phi(self) -> np.ndarray:
        return np.angle(self.psik)


def _mode_reverse(a: np.ndarray) -> np.ndarray:
    """Map array indexed by k to the same array indexed by -k (grid-periodic)."""
    n = a.shape[-1]
    idx = (n - np.arange(n)) % n
    return a[..., idx]


def _accelerations(u: np.ndarray, params: LatticeParams) -> np.ndarray:
    lap = np.roll(u, -1) + np.roll(u, 1) - 2.0 * u
    return -params.omega0**2 * u + params.kappa * lap


def hamiltonian_energy(state: LatticeState, params: LatticeParams) -> float:
    """Total chain energy from site variables."""
    kin = np.sum(state.v**2) / (2.0 * params.m)
    pin = 0.5 * params.m * params.omega0**2 * np.sum(state.u**2)
    du = state.u - np.roll(state.u, 1)
    spring = 0.5 * params.m * params.kappa * np.sum(du**2)
    return float(kin + pin + spring)


def leapfrog_step(state: LatticeState, params: LatticeParams, dt: float) -> LatticeState:
    """One kick-drift-kick step; requires 0 < dt < 2/omega_max for stability."""
    if not 0.0 < dt < 2.0 / params.omega_max:
        raise ValueError(f"dt must lie in (0, {2.0 / params.omega_max:.6g}) for stability")
    # v is momentum: kick by m * du/dt-acceleration, drift by v/m
    a = _accelerations(state.u, params)
    v_half = state.v + 0.5 * dt * params.m * a
    u_new = state.u + dt * v_half / params.m
    v_new = v_half + 0.5 * dt * params.m * _accelerations(u_new, params)
    return LatticeState(u=u_new, v=v_new, t=state.t + dt)


def leapfrog_energy_series(
    state: LatticeState, params: LatticeParams, dt: float, n_steps: int, sample_every: int = 1
) -> tuple[np.ndarray, np.ndarray, LatticeState]:
    """Run n_steps of leapfrog, sampling energy; returns (times, energies, final state)."""
    if n_steps < 1 or sample_every < 1:
        raise ValueError("n_steps and sample_every must be positive")
    times = [state.t]
    energies = [hamiltonian_energy(state, params)]
    for i in range(n_steps):
        state = leapfrog_step(state, params, dt)
        if (i + 1) % sample_every == 0:
            times.append(state.t)
            energies.append(hamiltonian_energy(state, params))
    return np.asarray(times), np.asarray(energies), state


def dispersion(k: np.ndarray | float, params: LatticeParams) -> np.ndarray | float:
    """omega_k = sqrt(omega0^2 + 4*kappa*sin^2(k*ell/2))."""
    k = np.asarray(k, dtype=float)
    w = np.sqrt(params.omega0**2 + 4.0 * params.kappa * np.sin(k * params.ell / 2.0) ** 2)
    return w if w.ndim else float(w)


def group_velocity(k: np.ndarray | float, params: LatticeParams) -> np.ndarray | float:
    """d omega/dk; zero at k = 0 (massless chain included, by symmetry)."""
    k = np.asarray(k, dtype=float)
    w = np.asarray(dispersion(k, params))
    num = params.kappa * params.ell * np.sin(k * params.ell)
    out = np.divide(num, w, out=np.zeros_like(num), where=w > 0)
    return out if out.ndim else float(out)


def dft_to_modes(state: LatticeState, params: LatticeParams) -> ModeSpectrum:
    """Forward transform of (u, v) to mode amplitudes (u'_k, v'_k)."""
    n = params.n_sites
    if state.u.size != n:
        raise ValueError("state length does not match params.n_sites")
    scale = np.sqrt(params.ell / (2.0 * np.pi))
    uk = scale * n * np.fft.ifft(state.u)  # exp(+i k ell n) kernel
    vk = scale * np.fft.fft(state.v)  # exp(-i k ell n) kernel
    return ModeSpectrum(uk=np.fft.fftshift(uk), vk=np.fft.fftshift(vk), params=params)


def idft_from_modes(spec: ModeSpectrum, t: float = 0.0) -> LatticeState:
    """Inverse transform back to site variables (real parts; imaginary residue is round-off)."""
    p = spec.params
    scale = np.sqrt(p.ell) * p.dk / np.sqrt(2.0 * np.pi)
    u = scale * np.fft.fft(np.fft.ifftshift(spec.uk))  # exp(-i k ell n) kernel
    v = scale * p.n_sites * np.fft.ifft(np.fft.ifftshift(spec.vk))  # exp(+i k ell n) kernel
    return LatticeState(u=u.real, v=v.real, t=t)


def reality_residual(spec: ModeSpectrum) -> float:
    """Max deviation from (u'_k)* = u'_{-k}, (v'_k)* = v'_{-k}, relative to the spectrum scale."""
    scale = max(float(np.max(np.abs(spec.uk))), float(np.max(np.abs(spec.vk))), 1e-300)
    ru = np.max(np.abs(np.conj(spec.uk) - _mode_reverse(spec.uk)))
    rv = np.max(np.abs(np.conj(spec.vk) - _mode_reverse(spec.vk)))
    return float(max(ru, rv) / scale)


def mode_energy(spec: ModeSpectrum) -> np.ndarray:
    """Per-mode energy density H'_k; sum(dk * H'_k) is the total energy.

    Raises if the spectrum violates the reality constraint.
    """
    if reality_residual(spec) > REALITY_TOL:
        raise ValueError("mode spectrum violates the reality constraint")
    p = spec.params
    w = dispersion(spec.k, p)
    kin = (spec.vk * _mode_reverse(spec.vk)).real / (2.0 * p.m)
    pot = 0.5 * p.m * w**2 * (spec.uk * _mode_reverse(spec.uk)).real
    return kin + pot


def total_mode_energy(spec: ModeSpectrum) -> float:
    return float(spec.params.dk * np.sum(mode_energy(spec)))


def evolve_modes_exact(spec: ModeSpectrum, t: float) -> ModeSpectrum:
    """Exact evolution by time t: each (u'_k, v'_{-k}) pair rotates at omega_k.

    Zero-frequency cells drift freely: u'_k += t*v'_{-k}/m.
    """
    p = spec.params
    w = np.asarray(dispersion(spec.k, p))
    c = np.cos(w * t)
    # sin(w t)/w -> t as w -> 0
    s_over_w = np.where(w > 0, np.sin(w * t) / np.where(w > 0, w, 1.0), t)
    v_rev = _mode_reverse(spec.vk)
    uk_new = c * spec.uk + s_over_w * v_rev / p.m
    v_rev_new = c * v_rev - p.m * w * np.sin(w * t) * spec.uk
    return ModeSpectrum(uk=uk_new, vk=_mode_reverse(v_rev_new), params=p)


def traveling_wave_init(u0: np.ndarray, direction: int, params: LatticeParams) -> LatticeState:
    """Initial data for a uni-directional wave from a displacement profile.

    Sets v'_k = -i*direction*m*sigma_k*omega_k*u'_{-k} with sigma_k = sign(k),
    which cancels the counter-propagating branch exactly.  Requires omega0 = 0
    (only then is the motion pure transport at long wavelength).  The k = 0
    and Nyquist cells have no propagation direction and are left standing;
    keep the profile band-limited away from the zone edge.
    """
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    if params.omega0 != 0.0:
        raise ValueError("traveling-wave initial data requires omega0 = 0")
    u0 = np.asarray(u0, dtype=float)
    base = dft_to_modes(LatticeState(u=u0, v=np.zeros_like(u0)), params)
    k = base.k
    w = np.asarray(dispersion(k, params))
    sigma = np.sign(k)
    sigma[0] = 0.0  # Nyquist cell: self-conjugate, no direction
    vk = -1j * direction * params.m * sigma * w * _mode_reverse(base.uk)
    return idft_from_modes(ModeSpectrum(uk=base.uk, vk=vk, params=params))


def dalembert_solution(u0, du0, x: np.ndarray | float, t: float, v: float) -> np.ndarray:
    """Continuum transport solution for initial profile u0 and initial rate du0.

    u(x,t) = [u0(x-vt) + u0(x+vt)]/2 + (1/2v) * integral of du0 over [x-vt, x+vt].
    u0 and du0 are callables of a scalar position.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xs)
    for i, xi in enumerate(xs):
        integral, _ = quad(du0, xi - v * t, xi + v * t, limit=200)
        out[i] = 0.5 * (u0(xi - v * t) + u0(xi + v * t)) + integral / (2.0 * v)
    return out if np.ndim(x) else out[0]


def _zero_frequency_mask(params: LatticeParams) -> np.ndarray:
    k = params.k_grid()
    w = np.asarray(dispersion(k, params))
    return w == 0.0


def psi_from_modes(spec: ModeSpectrum, hbar: float) -> ActionWave:
    """Action amplitudes psi'_k = sqrt(m*omega_k/2) ((u'_k)* + i v'_k/(m*omega_k)).

    Zero-frequency cells are dropped (psi' = 0 there); raises if such a cell
    carries more than a 1e-12 fraction of the total energy.
    """
    p = spec.params
    w = np.asarray(dispersion(spec.k, p))
    dead = _zero_frequency_mask(p)
    if np.any(dead):
        total = total_mode_energy(spec)
        dead_energy = float(p.dk * np.sum(np.abs(spec.vk[dead]) ** 2) / (2.0 * p.m))
        if total > 0 and dead_energy > ZERO_MODE_ENERGY_TOL * total:
            raise ValueError("zero-frequency cell carries energy; not representable as an action wave")
    w_safe = np.where(dead, 1.0, w)
    psik = np.sqrt(p.m * w_safe / 2.0) * (np.conj(spec.uk) + 1j * spec.vk / (p.m * w_safe))
    psik = np.where(dead, 0.0, psik)
    return ActionWave(psik=psik, k=spec.k.copy(), ell=p.ell, hbar=hbar)


def modes_from_psi(wave: ActionWave, params: LatticeParams) -> ModeSpectrum:
    """Inverse of psi_from_modes; zero-frequency cells come back as zeros."""
    if wave.psik.size != params.n_sites:
        raise ValueError("wave length does not match params.n_sites")
    w = np.asarray(dispersion(wave.k, params))
    dead = _zero_frequency_mask(params)
    w_safe = np.where(dead, 1.0, w)
    psi_rev_conj = np.conj(_mode_reverse(wave.psik))
    uk = np.conj((wave.psik + psi_rev_conj) / np.sqrt(2.0 * params.m * w_safe))
    vk = -1j * np.sqrt(params.m * w_safe / 2.0) * (wave.psik - psi_rev_conj)
    uk = np.where(dead, 0.0, uk)
    vk = np.where(dead, 0.0, vk)
    return ModeSpectrum(uk=uk, vk=vk, params=params)


def evolve_psi(wave: ActionWave, t: float, params: LatticeParams | None = None, omega=None) -> ActionWave:
    """Rotate each action amplitude: psi'_k(t) = exp(-i*omega_k*t) psi'_k.

    omega may be an array on the wave's grid or a callable of k; defaults to
    the chain dispersion of params.
    """
    if omega is None:
        if params is None:
            raise ValueError("provide params or omega")
        w = np.asarray(dispersion(wave.k, params))
    elif callable(omega):
        w = np.asarray(omega(wave.k), dtype=float)
    else:
        w = np.asarray(omega, dtype=float)
    return replace(wave, psik=wave.psik * np.exp(-1j * w * t))


def action_area(wave: ActionWave) -> float:
    """Phase-space area A = 2pi * sum_k dk * eta_k."""
    return float(2.0 * np.pi * wave.dk * np.sum(wave.eta))


def psi_energy(wave: ActionWave, params: LatticeParams) -> float:
    """Total energy in the action picture: sum_k dk * omega_k * eta_k."""
    w = np.asarray(dispersion(wave.k, params))
    return float(wave.dk * np.sum(w * wave.eta))


def chirality_leakage(wave: ActionWave, direction: int) -> float:
    """Fraction of eta on the counter-propagating half-line (incl. undirected cells)."""
    if direction not in (-1, 1):
        raise ValueError("direction must be +1 or -1")
    eta = wave.eta
    total = float(np.sum(eta))
    if total == 0.0:
        return 0.0
    wrong = float(np.sum(eta[np.sign(wave.k) * direction <= 0]))
    return wrong / total
