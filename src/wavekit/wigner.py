"""Phase-space densities of action waves: 1-D chain picture and 3-D photon picture.

1-D.  For a wave with mode amplitudes psi'_k on n wavenumbers the number
density on phase space is

    f(x, p) = (1/(pi*hbar^2)) * integral dy exp(-2i p y / hbar)
              psi(x + y) psi*(x - y)

realized on a doubled spatial grid: x_m = m*ell/2 with m in {0..2n-1},
p_s = (hbar*dk/2)*s with s in {-n..n-1}.  Exact discrete identities:

    sum_{m,s} dx dp f       = A/h            (total number)
    sum_s dp f(x_m, p_s)    = |psi(x_m)|^2 / hbar      (every m)
    sum over a half window in x at even s = eta_j / hbar^2 per dp cell

and f inherits a checkerboard ghost from periodicity: f(x + L/2, p_s) =
(-1)^s f(x, p_s).  Pointwise comparisons against continuum closed forms
therefore live on a half window centered on the packet.

The lag product psi(x + y) psi*(x - y) is Hermitian in y, so each x row is
built from lags 0..n only and transformed with a Hermitian FFT (hfft) that
returns real numbers; rows are processed in fixed blocks written straight
into f, so the working memory stays near the size of the output.  Since f is
real, group-velocity transport uses rfft/irfft along x in column blocks.
WignerGrid.marginal_defect records how well the computed f satisfies the
marginal-x identity above, relative to the peak of |psi|^2/hbar.

3-D.  A photon mode set {psi'_a at k_a} on box measure w = (2pi)^3/V has

    f_N(x, p) = sum_{a,b} w^2 (psi'_a . psi'_b*) exp(i(k_a - k_b).x)
                delta^3(p - hbar(k_a + k_b)/2) / ((2pi)^3 hbar)

which is a finite set of delta columns in p, one per midpoint; each column
carries a smooth x profile.  Number and energy follow by summing columns
with exact Riemann quadrature in x.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import ActionWave

# Rows (transform) or momentum columns (transport) per FFT batch.
_CHUNK = 64


@dataclass(frozen=True)
class WignerGrid:
    """Sampled phase-space density on the doubled grid.

    x runs over 2n points spaced ell/2; p over 2n points spaced hbar*dk/2.
    f[i, j] is the density at (x[i], p[j]).  full_period marks whether x
    still covers the whole ring (half-window views set it False).
    marginal_defect is the max-norm error of dp * sum_s f = |psi(x_m)|^2/hbar
    (|Phi(x_m)|^2 in energy form) relative to its peak, measured when the
    transform built f.
    """

    x: np.ndarray
    p: np.ndarray
    f: np.ndarray
    hbar: float
    full_period: bool = True
    marginal_defect: float = 0.0

    def __post_init__(self) -> None:
        if self.f.shape != (self.x.size, self.p.size):
            raise ValueError("f must have shape (len(x), len(p))")

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dp(self) -> float:
        return float(self.p[1] - self.p[0])

    def total(self) -> float:
        return float(self.dx * self.dp * np.sum(self.f))

    def marginal_x(self) -> np.ndarray:
        """dp-sum over momentum; equals |psi(x)|^2/hbar (number form)."""
        return self.dp * np.sum(self.f, axis=1)

    def marginal_p(self) -> np.ndarray:
        """dx-sum over position, at even momentum rows only.

        Returns the density on the coarse momentum grid p_j = hbar*k_j
        (the odd rows alias between the two half windows and cancel in
        pairs; summing the full ring would double-count, so the full-period
        sum is halved).  Requires a full-period grid.
        """
        if not self.full_period:
            raise ValueError("marginal_p needs the full-period grid")
        even = self.f[:, ::2]
        return 0.5 * self.dx * np.sum(even, axis=0)

    def window(self, x_lo: float, x_hi: float) -> "WignerGrid":
        """Half-open window [x_lo, x_hi) in x; marks the grid as windowed.

        x is ascending, so the window is one contiguous row range and the
        result shares x and f with this grid instead of copying them.
        """
        mask = (self.x >= x_lo) & (self.x < x_hi)
        if not np.any(mask):
            raise ValueError("window contains no grid points")
        first, last = np.flatnonzero(mask)[[0, -1]]
        rows = slice(first, last + 1)
        return WignerGrid(
            x=self.x[rows], p=self.p, f=self.f[rows], hbar=self.hbar,
            full_period=False, marginal_defect=self.marginal_defect,
        )


def doubled_site_values(wave: ActionWave) -> np.ndarray:
    """psi interpolated to the half-spaced grid x_m = m*ell/2 (2n points)."""
    n = wave.psik.size
    two_n = 2 * n
    padded = np.zeros(two_n, dtype=complex)
    j = np.arange(n) - n // 2
    padded[np.mod(j, two_n)] = wave.psik
    return (wave.dk / np.sqrt(2.0 * np.pi)) * two_n * np.fft.ifft(padded)


def _doubled_grid_transform(wave: ActionWave, prefactor: float) -> WignerGrid:
    """Common core: half-spaced site values, then the Hermitian half-lag transform.

    Row m needs the lag product g[m, r] = psi(x_m + r*ell/2) psi*(x_m - r*ell/2)
    on the ring of 2n lags; g[m, -r] = conj(g[m, r]), so lags 0..n fix the row
    and hfft returns its transform as real numbers.  Rows go in blocks of
    _CHUNK written straight into f, which keeps temporaries at O(_CHUNK * n).
    """
    n = wave.psik.size
    two_n = 2 * n
    site = doubled_site_values(wave)
    # ahead[m, r] = site[(m + r) % 2n] and behind[m, r] = conj(site[(m - r) % 2n]),
    # both as strided views of two 3n-long copies of the ring.
    ahead = sliding_window_view(np.concatenate([site, site[:n]]), n + 1)
    behind = sliding_window_view(np.conj(np.concatenate([site[n:], site])), n + 1)[:, ::-1]
    f = np.empty((two_n, two_n))
    row_sums = np.empty(two_n)
    lags = np.empty((min(_CHUNK, two_n), n + 1), dtype=complex)
    for lo in range(0, two_n, _CHUNK):
        hi = min(lo + _CHUNK, two_n)
        g = np.multiply(ahead[lo:hi], behind[lo:hi], out=lags[: hi - lo])
        rows = np.fft.hfft(g, n=two_n, axis=1)
        # fftshift on the way into f: momentum index s = -n..n-1 is FFT bin s mod 2n
        np.multiply(rows[:, n:], prefactor, out=f[lo:hi, :n])
        np.multiply(rows[:, :n], prefactor, out=f[lo:hi, n:])
        row_sums[lo:hi] = np.sum(f[lo:hi], axis=1)
    # marginal-x identity: sum_s f[m, s] = 2n * prefactor * |site_m|^2
    density = two_n * prefactor * np.abs(site) ** 2
    defect = float(np.max(np.abs(row_sums - density)) / max(np.max(density), 1e-300))
    x = (wave.ell / 2.0) * np.arange(two_n)
    p = (wave.hbar * wave.dk / 2.0) * (np.arange(two_n) - n)
    return WignerGrid(x=x, p=p, f=f, hbar=wave.hbar, marginal_defect=defect)


def wigner_1d(wave: ActionWave) -> WignerGrid:
    """Number-form density of an action wave; integrates to A/h."""
    return _doubled_grid_transform(wave, (wave.ell / 2.0) / (np.pi * wave.hbar**2))


def quasi_energy_density(wave: ActionWave, omega) -> WignerGrid:
    """Energy-form density built from Phi'_k = sqrt(omega_k) psi'_k.

    omega is an array on the wave's grid or a callable of k; the result
    integrates to the total energy sum_k dk omega_k eta_k.
    """
    w = np.asarray(omega(wave.k) if callable(omega) else omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("omega must be nonnegative")
    phi = replace(wave, psik=np.sqrt(w) * wave.psik)
    return _doubled_grid_transform(phi, (wave.ell / 2.0) / (np.pi * wave.hbar))


@dataclass(frozen=True)
class GaussianEtaParams:
    """Gaussian action spectrum eta_k = N*hbar*sqrt(g/pi)*exp(-g (k-k0)^2)."""

    n_quanta: float
    g: float
    k0: float
    x0: float = 0.0

    def __post_init__(self) -> None:
        if self.n_quanta <= 0 or self.g <= 0:
            raise ValueError("n_quanta and g must be positive")


def gaussian_action_wave(
    gp: GaussianEtaParams, ell: float, n_modes: int, hbar: float
) -> ActionWave:
    """Sampled Gaussian packet: psi'_k = sqrt(eta_k) exp(-i k x0)."""
    dk = 2.0 * np.pi / (ell * n_modes)
    k = (np.arange(n_modes) - n_modes // 2) * dk
    eta = gp.n_quanta * hbar * np.sqrt(gp.g / np.pi) * np.exp(-gp.g * (k - gp.k0) ** 2)
    psik = np.sqrt(eta) * np.exp(-1j * k * gp.x0)
    return ActionWave(psik=psik, k=k, ell=ell, hbar=hbar)


def wigner_gaussian_closed(
    gp: GaussianEtaParams, x: np.ndarray, p: np.ndarray, hbar: float,
    t: float = 0.0, vg: float = 0.0,
) -> np.ndarray:
    """Continuum closed form for the Gaussian packet, rigidly translated at vg.

    f(x, p) = (N/(pi*hbar)) exp[-g (p - hbar k0)^2/hbar^2 - (x - x0 - vg t)^2/g].
    Returns an array of shape (len(x), len(p)), built as the outer product of
    its x and p factors.
    """
    xc = np.asarray(x, dtype=float) - gp.x0 - vg * t
    pc = np.asarray(p, dtype=float) - hbar * gp.k0
    amplitude = gp.n_quanta / (np.pi * hbar)
    return np.outer(amplitude * np.exp(-xc**2 / gp.g), np.exp(-gp.g * pc**2 / hbar**2))


def evolve_wigner_group_velocity(grid: WignerGrid, omega, t: float, vg=None) -> WignerGrid:
    """Transport each momentum row by its group velocity: f(x,p) -> f(x - vg(p) t, p).

    omega is a callable of wavenumber k = p/hbar; its derivative is taken
    by central differences at the step that balances truncation against
    round-off, or supplied exactly via vg (callable of k, or an array on
    the momentum grid).  The shift itself is an exact Fourier translation,
    so rigid transport incurs no smearing.  marginal_defect is carried over
    from the input grid.
    """
    if not grid.full_period:
        raise ValueError("evolution needs the full-period grid")
    n2 = grid.x.size
    q = 2.0 * np.pi * np.fft.rfftfreq(n2, d=grid.dx)
    k_of_p = grid.p / grid.hbar
    if vg is None:
        h = np.finfo(float).eps ** (1.0 / 3.0) * max(1.0, float(np.max(np.abs(k_of_p))))
        vg = (np.asarray(omega(k_of_p + h)) - np.asarray(omega(k_of_p - h))) / (2.0 * h)
    elif callable(vg):
        vg = np.asarray(vg(k_of_p), dtype=float)
    else:
        vg = np.broadcast_to(np.asarray(vg, dtype=float), grid.p.shape)
    f_new = np.empty_like(grid.f)
    for lo in range(0, grid.p.size, _CHUNK):
        cols = slice(lo, lo + _CHUNK)
        spectrum = np.fft.rfft(grid.f[:, cols], axis=0)
        spectrum *= np.exp(-1j * q[:, None] * vg[None, cols] * t)
        # irfft keeps only the real part of the Nyquist bin, as .real of a full ifft would
        f_new[:, cols] = np.fft.irfft(spectrum, n=n2, axis=0)
    return WignerGrid(x=grid.x, p=grid.p, f=f_new, hbar=grid.hbar,
                      marginal_defect=grid.marginal_defect)


# --- 3-D photon picture -----------------------------------------------------


@dataclass(frozen=True)
class WignerColumn:
    """One delta column of the 3-D density: momentum hbar*(k_a+k_b)/2 shared
    by every contributing pair; amplitude(x) is the smooth spatial profile
    multiplying delta^3(p - p_mid)."""

    p_mid: np.ndarray
    pairs: list = field(repr=False, default_factory=list)  # (weight, k_a - k_b) with complex weight

    def amplitude(self, x: np.ndarray) -> np.ndarray:
        """Profile at points x of shape (m, 3); complex before symmetrization."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape[0], dtype=complex)
        for w, dk in self.pairs:
            out += w * np.exp(1j * (x @ dk))
        return out


@dataclass(frozen=True)
class Wigner3D:
    """Sparse 3-D density: a list of delta columns plus the box geometry."""

    columns: list
    box_length: float
    hbar: float

    def column_momenta(self) -> np.ndarray:
        return np.asarray([c.p_mid for c in self.columns])


def wigner_3d(modes: "PhotonModeSet") -> Wigner3D:  # noqa: F821 - forward name, resolved in em
    """Number-form density of a photon mode set as delta columns in momentum."""
    from .em import PhotonModeSet  # local import to avoid a cycle

    if not isinstance(modes, PhotonModeSet):
        raise TypeError("wigner_3d expects a PhotonModeSet")
    L = modes.box_length
    w_box = (2.0 * np.pi) ** 3 / L**3
    hbar = modes.hbar
    pref = w_box**2 / ((2.0 * np.pi) ** 3 * hbar)
    groups: dict[tuple, list] = {}
    mids: dict[tuple, np.ndarray] = {}
    for a in range(modes.k.shape[0]):
        for b in range(modes.k.shape[0]):
            amp = pref * complex(np.dot(modes.psik[a], np.conj(modes.psik[b])))
            if amp == 0:
                continue
            mid = hbar * (modes.k[a] + modes.k[b]) / 2.0
            key = tuple(np.round(mid * L / (np.pi * hbar)).astype(int))
            groups.setdefault(key, []).append((amp, modes.k[a] - modes.k[b]))
            mids[key] = mid
    cols = [WignerColumn(p_mid=mids[key], pairs=pairs) for key, pairs in sorted(groups.items())]
    return Wigner3D(columns=cols, box_length=L, hbar=hbar)


def _x_quadrature(grid_points: int, L: float) -> tuple[np.ndarray, float]:
    """Tensor Riemann grid over the box; exact for the finite Fourier content."""
    s = np.arange(grid_points) * (L / grid_points)
    X, Y, Z = np.meshgrid(s, s, s, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    return pts, (L / grid_points) ** 3


def _columns_quadrature(w3: Wigner3D, weight) -> float:
    """sum over columns of weight(p_mid) * integral dx amplitude(x)."""
    max_c = 0
    for c in w3.columns:
        for _, dkv in c.pairs:
            max_c = max(max_c, int(np.max(np.abs(np.round(dkv * w3.box_length / (2.0 * np.pi))))))
    npts = max(2 * max_c + 1, 3)
    pts, dv = _x_quadrature(npts, w3.box_length)
    total = 0.0
    for c in w3.columns:
        total += weight(c.p_mid) * float(np.sum(c.amplitude(pts)).real) * dv
    return total


def wigner_3d_total(w3: Wigner3D) -> float:
    """Integral of f_N over all of phase space (the photon number)."""
    return _columns_quadrature(w3, lambda p: 1.0)


def wigner_3d_energy(w3: Wigner3D, v: float) -> float:
    """Integral of eps_p f_N with eps_p = v|p| (the field energy)."""
    return _columns_quadrature(w3, lambda p: v * float(np.linalg.norm(p)))
