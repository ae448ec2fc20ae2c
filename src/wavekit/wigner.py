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
(-1)^s f(x, p_s).  So a full-period WignerGrid holds rows 0..n-1 only, and
row m >= n is made from row m - n as it is read.  Pointwise comparisons against
continuum closed forms live on a half window centered on the packet.

The lag product psi(x + y) psi*(x - y) is Hermitian in y, so each x row is
built from lags 0..n only and transformed to real numbers by one real inverse
FFT; row_blocks yields the rows of any contiguous range in blocks of at most
_ROW_BYTES, which doubled_grid_transform reduces as they come and writes into f
(wigner_1d) or hands to a consumer (the CLI runners).  The transform is translation
covariant, exactly on the doubled grid: psi(x - a), with modes psi'_k e^{-ika},
has f(x - a, p).  Transport of a stored grid is evolve_wigner_group_velocity
(rfft/irfft along x, one phase row per column).  WignerGrid.marginal_defect
records how well the computed f satisfies the marginal-x identity above,
relative to its peak.

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

from .em import PhotonModeSet
from .lattice import ActionWave

# Rows (transform) or momentum columns (transport) per FFT batch: at most _CHUNK, and at most
# _ROW_BYTES of the block's float64 values, so a pass holds O(_ROW_BYTES) of blocks at any n
_CHUNK = 64
_ROW_BYTES = 2**20

# Size limits of the checks below; config ranges end at them (README "Declared ranges").
# (2n)^2 cells of a 1-D grid: n <= 4096 modes; a full-period grid holds n rows, 256 MiB of float64
MAX_GRID_CELLS = 2**26
MAX_PAIRS = 2**20  # M^2 mode pairs of a 3-D density: M <= 1024 modes


@dataclass(frozen=True)
class WignerGrid:
    """Sampled phase-space density on the doubled grid.

    x runs over 2n points spaced ell/2, or a window of them; p over 2n points
    spaced hbar*dk/2.  f holds the rows the grid stores: a window stores each
    of its rows, and a full-period grid (x holds all 2n points) rows 0..n-1,
    row m >= n being the checkerboard ghost f[m - n] * (-1)^s.
    marginal_defect is the max-norm error of dp * sum_s f = |psi(x_m)|^2/hbar
    (|Phi(x_m)|^2 in energy form) relative to its peak, measured when the
    transform built f.
    """

    x: np.ndarray
    p: np.ndarray
    f: np.ndarray
    hbar: float
    marginal_defect: float = 0.0

    def __post_init__(self) -> None:
        if self.f.shape[1:] != self.p.shape or self.x.size not in (len(self.f), 2 * len(self.f)):
            raise ValueError("f must have len(p) columns and len(x) rows, or half as many")

    @property
    def full_period(self) -> bool:
        """Whether x covers the whole ring, so that f holds its first half."""
        return self.x.size == 2 * len(self.f)

    @property
    def dx(self) -> float:
        return _spacing(self.x)

    @property
    def dp(self) -> float:
        return _spacing(self.p)

    @cached_property
    def _sign(self) -> np.ndarray:
        """(-1)^s, s = -n..n-1: the ghost rows' factor per column."""
        return (-1.0) ** (np.arange(self.p.size) - self.p.size // 2)

    @cached_property
    def _row_sums(self) -> np.ndarray:
        """sum_s f for every row of x; a ghost row's sum is its held row's f @ sign."""
        sums = np.sum(self.f, axis=1)
        return np.concatenate([sums, self.f @ self._sign]) if self.full_period else sums

    def total(self) -> float:
        return float(self.dx * self.dp * np.sum(self._row_sums))

    def marginal_x(self) -> np.ndarray:
        """dp-sum over momentum; equals |psi(x)|^2/hbar (number form)."""
        return self.dp * self._row_sums

    def marginal_p(self) -> np.ndarray:
        """dx-sum over position, at even-s momentum columns only.

        Returns the density on the coarse momentum grid p_j = hbar*k_j: the
        odd-s columns cancel in pairs, and an even-s column's ghost rows repeat
        the held rows.  Column j holds s = j - n, so the even-s columns start at
        j = n mod 2.  Requires a full-period grid.
        """
        if not self.full_period:
            raise ValueError("marginal_p needs the full-period grid")
        n = self.f.shape[0]
        return self.dx * np.sum(self.f[:, n % 2 :: 2], axis=0)

    def blocks(self, rows: slice):
        """Yield (lo, block): f on the rows lo.. of x, block_rows(len(p)) rows at a time, over
        the row range rows; a block of held rows is a view of f, a ghost block a copy."""
        n, step = self.f.shape[0], block_rows(self.p.size)
        for part in (range(rows.start, min(rows.stop, n)), range(max(rows.start, n), rows.stop)):
            for lo in part[::step]:
                hi = min(lo + step, part.stop)
                yield lo, self.f[lo:hi] if hi <= n else self.f[lo - n : hi - n] * self._sign

    def window(self, x_lo: float, x_hi: float) -> "WignerGrid":
        """Half-open window [x_lo, x_hi) in x, one contiguous row range as x ascends.
        Inside the held rows it shares x and f with this grid; past them it holds a copy."""
        rows = window_rows(self.x, x_lo, x_hi)
        held = rows.stop <= len(self.f)
        f = self.f[rows] if held else np.concatenate([block for _, block in self.blocks(rows)])
        return replace(self, x=self.x[rows], f=f)


def block_rows(width: int) -> int:
    """Rows (or columns) of width float64 values per block: 64 up to n = 1024, then fewer."""
    return max(1, min(_CHUNK, _ROW_BYTES // (8 * width)))


def _spacing(axis: np.ndarray) -> float:
    """Spacing of an evenly spaced axis, from its two adjacent entries of least magnitude:
    on a full axis 0 and the spacing itself, so no bits go to the size of the far entries."""
    i = int(np.argmin(np.abs(axis[:-1]) + np.abs(axis[1:])))
    return float(axis[i + 1] - axis[i])


def window_rows(x: np.ndarray, x_lo: float, x_hi: float) -> slice:
    """The contiguous rows of ascending x in [x_lo, x_hi); refuses an empty window."""
    mask = (x >= x_lo) & (x < x_hi)
    if not np.any(mask):
        raise ValueError(
            f"window [{x_lo}, {x_hi}) contains none of the grid's x in [{x[0]}, {x[-1]}]"
        )
    first, last = np.flatnonzero(mask)[[0, -1]]
    return slice(first, last + 1)


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


def row_blocks(site: np.ndarray, prefactor: float, rows: slice, out=None):
    """Yield (lo, block): f at the doubled grid's rows lo.., block_rows(2n) rows at a time,
    over the row range rows, from the 2n half-spaced site values.

    Row m needs the lag product g[m, r] = psi(x_m + r*ell/2) psi*(x_m - r*ell/2) on the
    ring of 2n lags; g[m, -r] = conj(g[m, r]), so lags 0..n fix the row and its transform
    is real: hfft(g) = irfft(conj g) unscaled.  irfft writes a block in place, into a fresh
    array or a view of out (whose row 0 is rows.start); a row's numbers do not depend on
    the block it falls in.
    """
    two_n = site.size
    n = two_n // 2
    # conj g[m, r] = conj(site[(m + r) % 2n]) * site[(m - r) % 2n], from strided views of
    # two 3n-long copies of the ring
    ahead = sliding_window_view(np.conj(np.concatenate([site, site[:n]])), n + 1)
    behind = sliding_window_view(np.concatenate([site[n:], site]), n + 1)[:, ::-1]
    # (-1)^r on lag r shifts the transform by n bins, the fftshift to momenta s = -n..n-1
    sign = (-1.0) ** np.arange(n + 1)
    step = block_rows(two_n)
    lags = np.empty((min(step, two_n), n + 1), dtype=complex)
    for lo in range(rows.start, rows.stop, step):
        hi = min(lo + step, rows.stop)
        g = lags[: hi - lo]
        np.copyto(g, ahead[lo:hi])
        np.multiply(g, behind[lo:hi], out=g)
        g *= sign
        block = np.empty((hi - lo, two_n)) if out is None else out[lo - rows.start :][: hi - lo]
        np.fft.irfft(g, n=two_n, axis=1, norm="forward", out=block)
        block *= prefactor
        yield lo, block


def doubled_axes(wave: ActionWave) -> tuple[np.ndarray, np.ndarray]:
    """x_m = m*ell/2, m = 0..2n-1, and p_s = (hbar*dk/2)*s, s = -n..n-1."""
    m = np.arange(2 * wave.psik.size)
    return (wave.ell / 2.0) * m, (wave.hbar * wave.dk / 2.0) * (m - wave.psik.size)


def doubled_grid_transform(wave: ActionWave, prefactor: float, rows=None, consume=None):
    """f on the full period (rows None: rows 0..n-1 built) or the row slice rows, in blocks
    reduced as they go: sum_s f of every row (a ghost's from its held row), marginal_defect,
    and a full period's even-s columns summed over rows 0..n-1 in order, as np.sum(f, axis=0)
    does.  consume(lo, block) sees each built block, then on a full period its ghost rows n + lo..
    in a buffer the next ghost overwrites: every ring row once, as WignerGrid.blocks yields
    them.  Returns the built rows' WignerGrid, or with consume (row_sums, column_sums, defect)."""
    n = wave.psik.size
    check_grid_size(n)
    two_n = 2 * n
    x, p = doubled_axes(wave)
    full, rows = rows is None, rows or slice(0, n)
    f = None if consume else np.empty((rows.stop - rows.start, two_n))
    sign = (-1.0) ** (np.arange(two_n) - n)
    ghost = np.empty((min(block_rows(two_n), n), two_n)) if full and consume else None
    site = doubled_site_values(wave)
    row_sums = np.empty(two_n if full else rows.stop - rows.start)
    # -0.0 is the additive identity of IEEE floats, so the first row is taken as it is
    column_sums = np.full(n, -0.0)
    for lo, block in row_blocks(site, prefactor, rows, out=f):
        row_sums[lo - rows.start :][: len(block)] = np.sum(block, axis=1)
        if full:  # row lo's ghost is row n + lo; the even-s columns start at n mod 2
            row_sums[n + lo : n + lo + len(block)] = block @ sign
            for row in block[:, n % 2 :: 2]:
                column_sums += row
        if consume:
            consume(lo, block)
            if full:
                consume(n + lo, np.multiply(block, sign, out=ghost[: len(block)]))
    # marginal-x identity: sum_s f[m, s] = 2n * prefactor * |site_m|^2
    density = two_n * prefactor * np.abs(site if full else site[rows]) ** 2
    defect = float(np.max(np.abs(row_sums - density)) / max(np.max(density), 1e-300))
    if consume:
        return row_sums, column_sums, defect
    return WignerGrid(x=x if full else x[rows], p=p, f=f, hbar=wave.hbar, marginal_defect=defect)


def number_prefactor(wave: ActionWave) -> float:
    """The scale of the number-form density that wigner_1d builds."""
    return (wave.ell / 2.0) / (np.pi * wave.hbar**2)


def wigner_1d(wave: ActionWave) -> WignerGrid:
    """Number-form density of an action wave; integrates to A/h."""
    return doubled_grid_transform(wave, number_prefactor(wave))


def quasi_energy_density(wave: ActionWave, omega) -> WignerGrid:
    """Energy-form density built from Phi'_k = sqrt(omega_k) psi'_k.

    omega is an array on the wave's grid; the result integrates to the
    total energy sum_k dk omega_k eta_k.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ValueError("omega must be nonnegative")
    phi = replace(wave, psik=np.sqrt(w) * wave.psik)
    return doubled_grid_transform(phi, (wave.ell / 2.0) / (np.pi * wave.hbar))


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
    # an exponent that overflows belongs to a tail whose weight is 0
    with np.errstate(over="ignore"):
        exponent = -gp.g * (k - gp.k0) ** 2
    eta = gp.n_quanta * hbar * np.sqrt(gp.g / np.pi) * np.exp(exponent)
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
    # an exponent that overflows belongs to a tail whose weight is 0
    with np.errstate(over="ignore"):
        exponent = -gp.g * pc**2 / hbar**2
    return np.outer(amplitude * np.exp(-xc**2 / gp.g), np.exp(exponent))


def evolve_wigner_group_velocity(grid: WignerGrid, vg, t: float) -> WignerGrid:
    """Transport each momentum row by its group velocity: f(x,p) -> f(x - vg(p) t, p).

    vg is one speed for every row or an array on the momentum grid, such as
    lattice.group_velocity at the rows' wavenumbers p/hbar.  The shift itself
    is an exact Fourier translation, so rigid transport incurs no smearing.
    marginal_defect is carried over from the input grid.
    """
    if not grid.full_period:
        raise ValueError("evolution needs the full-period grid")
    n2 = grid.x.size
    q = 2.0 * np.pi * np.fft.rfftfreq(n2, d=grid.dx)
    vg = np.broadcast_to(np.asarray(vg, dtype=float), grid.p.shape)
    f_new = np.empty_like(grid.f)
    step = block_rows(n2)
    for lo in range(0, grid.p.size, step):
        cols = slice(lo, lo + step)
        # the columns' 2n rows; a translation keeps the ghost, so rows 0..n-1 are kept
        half = grid.f[:, cols]
        spectrum = np.fft.rfft(np.concatenate([half, half * grid._sign[cols]]), axis=0)
        spectrum *= np.exp(-1j * q[:, None] * vg[None, cols] * t)
        # irfft keeps only the real part of the Nyquist bin, as .real of a full ifft would
        f_new[:, cols] = np.fft.irfft(spectrum, n=n2, axis=0)[: len(half)]
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


def wigner_3d(modes: PhotonModeSet) -> Wigner3D:
    """Number-form density of a photon mode set as delta columns in momentum.

    Every pair (a, b) with a nonzero overlap psi'_a . psi'_b* joins the column
    keyed by ints_a + ints_b, where ints = k L/(2 pi); pairs stay in (a, b)
    order inside a column.
    """
    if not isinstance(modes, PhotonModeSet):
        raise TypeError("wigner_3d expects a PhotonModeSet")
    m = modes.k.shape[0]
    check_pair_count(m)
    L = modes.box_length
    hbar = modes.hbar
    pref = modes.box_measure**2 / ((2.0 * np.pi) ** 3 * hbar)
    amp = (pref * (modes.psik @ np.conj(modes.psik).T)).ravel()
    kept = np.flatnonzero(amp)
    a, b = np.divmod(kept, m)
    ints = modes.indices()
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
