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
carries a smooth x profile.  Every k lies on the reciprocal lattice 2 pi n/L,
so pairs are grouped by the integer key n_a + n_b in one vectorised pass and
each column holds a slice of flat pair arrays.  Number and energy follow by
summing columns with Riemann quadrature in x on a tensor grid of npts >=
2 max|n_a - n_b| + 1 points per axis.  That rule is exact: each integrand
exp(i dk.x) is a plane wave whose index per axis is below npts in modulus, so
the grid sum reproduces the box integral (L^3 on the diagonal, 0 elsewhere).
Because the grid and the integrand both factor over axes, the npts^3 sum is
the product of three 1-D sums T[n] read from one table; the off-diagonal T[n]
are summed, not set to zero, so this route stays independent of the k-space
energy sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lattice import ActionWave

# Rows (transform) or momentum columns (transport) per FFT batch.
_CHUNK = 64

# Size limits, checked before anything is allocated (README "Size limits").
MAX_GRID_CELLS = 2**26  # (2n)^2 cells of a 1-D grid: n <= 4096 modes, 512 MiB of float64
MAX_PAIRS = 2**20  # M^2 mode pairs of a 3-D density: M <= 1024 modes


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


def check_grid_size(n_modes: int) -> None:
    """Refuse a 1-D grid whose (2 n_modes)^2 cells exceed MAX_GRID_CELLS."""
    if (2 * n_modes) ** 2 > MAX_GRID_CELLS:
        raise ValueError(
            f"{n_modes} modes make a Wigner grid of {(2 * n_modes) ** 2} cells,"
            f" over MAX_GRID_CELLS = {MAX_GRID_CELLS}"
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
    check_grid_size(n)
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

# One record per mode pair (a, b): complex weight and dk = k_a - k_b.
_PAIR = np.dtype([("weight", complex), ("dk", float, (3,))])


@dataclass(frozen=True)
class WignerColumn:
    """One delta column of the 3-D density: momentum hbar*(k_a+k_b)/2 shared
    by every contributing pair; amplitude(x) is the smooth spatial profile
    multiplying delta^3(p - p_mid).  pairs holds the column's _PAIR records
    in (a, b) order."""

    p_mid: np.ndarray
    pairs: np.ndarray = field(repr=False)

    def amplitude(self, x: np.ndarray) -> np.ndarray:
        """Profile at points x of shape (m, 3); complex before symmetrization."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.exp(1j * (x @ self.pairs["dk"].T)) @ self.pairs["weight"]


@dataclass(frozen=True)
class Wigner3D:
    """Sparse 3-D density: flat pair records grouped into delta columns.

    Columns ascend by their integer midpoint key (k_a + k_b) L/(2 pi); column
    j sits at momentum p_mid[j] and owns pairs[offsets[j]:offsets[j + 1]].
    """

    p_mid: np.ndarray
    pairs: np.ndarray = field(repr=False)
    offsets: np.ndarray = field(repr=False)
    box_length: float
    hbar: float

    @cached_property
    def columns(self) -> list[WignerColumn]:
        """The columns, each holding views into the flat arrays."""
        bounds = zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())
        return [WignerColumn(p, self.pairs[lo:hi]) for p, (lo, hi) in zip(self.p_mid, bounds)]


def check_pair_count(n_modes: int) -> None:
    """Refuse a 3-D density whose n_modes^2 pairs exceed MAX_PAIRS."""
    if n_modes**2 > MAX_PAIRS:
        raise ValueError(
            f"{n_modes} photon modes make {n_modes**2} pairs, over MAX_PAIRS = {MAX_PAIRS}"
        )


def wigner_3d(modes: "PhotonModeSet") -> Wigner3D:  # noqa: F821 - forward name, resolved in em
    """Number-form density of a photon mode set as delta columns in momentum.

    Every pair (a, b) with a nonzero overlap psi'_a . psi'_b* joins the column
    keyed by ints_a + ints_b, where ints = k L/(2 pi); pairs stay in (a, b)
    order inside a column.
    """
    from .em import PhotonModeSet  # local import to avoid a cycle

    if not isinstance(modes, PhotonModeSet):
        raise TypeError("wigner_3d expects a PhotonModeSet")
    m = modes.k.shape[0]
    check_pair_count(m)
    L = modes.box_length
    w_box = (2.0 * np.pi) ** 3 / L**3
    hbar = modes.hbar
    pref = w_box**2 / ((2.0 * np.pi) ** 3 * hbar)
    amp = (pref * (modes.psik @ np.conj(modes.psik).T)).ravel()
    kept = np.flatnonzero(amp)
    a, b = np.divmod(kept, m)
    ints = np.round(modes.k * L / (2.0 * np.pi)).astype(int)
    # the key ints_a + ints_b as one integer that sorts like the key triple
    reach = 2 * int(np.max(np.abs(ints)))
    code = np.ravel_multi_index((ints[a] + ints[b] + reach).T, (2 * reach + 1,) * 3)
    order = np.argsort(code, kind="stable")
    code, a, b = code[order], a[order], b[order]
    offsets = np.append(np.flatnonzero(np.diff(code, prepend=-1)), code.size)
    pairs = np.empty(kept.size, dtype=_PAIR)
    pairs["weight"] = amp[kept[order]]
    pairs["dk"] = modes.k[a] - modes.k[b]
    # a column's pairs share p_mid up to rounding; take the last pair's value
    last = offsets[1:] - 1
    p_mid = hbar * (modes.k[a[last]] + modes.k[b[last]]) / 2.0
    return Wigner3D(p_mid=p_mid, pairs=pairs, offsets=offsets, box_length=L, hbar=hbar)


def _columns_quadrature(w3: Wigner3D, weight) -> float:
    """sum over columns of weight(p_mid) * integral dx amplitude(x).

    The Riemann rule on a tensor grid of npts points per axis integrates every
    pair's plane wave exp(i dk.x) exactly; its npts^3 sum factorises into the
    1-D sums T[n] of the three integer indices n = dk L/(2 pi).  weight maps
    the (C, 3) column momenta to C weights.
    """
    L = w3.box_length
    n = np.round(w3.pairs["dk"] * L / (2.0 * np.pi)).astype(int)
    max_c = int(np.max(np.abs(n), initial=0))
    npts = max(2 * max_c + 1, 3)
    s = np.arange(npts) * (L / npts)
    q = (2.0 * np.pi / L) * np.arange(-max_c, max_c + 1)
    # T[n] is summed, not assumed to vanish for n != 0, so the route stays an independent check
    table = np.sum(np.exp(1j * np.outer(q, s)), axis=1) * (L / npts)
    box = w3.pairs["weight"] * np.prod(table[n + max_c], axis=1)
    n_columns = w3.p_mid.shape[0]
    column = np.repeat(np.arange(n_columns), np.diff(w3.offsets))
    sums = np.bincount(column, weights=box.real, minlength=n_columns)
    return float(np.sum(weight(w3.p_mid) * sums))


def wigner_3d_total(w3: Wigner3D) -> float:
    """Integral of f_N over all of phase space (the photon number)."""
    return _columns_quadrature(w3, lambda p: 1.0)


def wigner_3d_energy(w3: Wigner3D, v: float) -> float:
    """Integral of eps_p f_N with eps_p = v|p| (the field energy)."""
    return _columns_quadrature(w3, lambda p: v * np.linalg.norm(p, axis=1))
