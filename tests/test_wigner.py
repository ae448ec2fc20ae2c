"""Phase-space densities: direct-summation cross-check, closed forms, marginals,
transport, the runners' closed-form errors, and the 3-D photon column picture."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wavekit import cli, em, experiments, gridio, lattice, wigner
from wavekit.units import get_units


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


def whole_transform(wave, prefactor=None):
    """All 2n rows of the doubled grid, each transformed: the window path over the ring."""
    if prefactor is None:
        prefactor = wigner.number_prefactor(wave)
    return wigner.doubled_grid_transform(wave, prefactor, slice(0, 2 * wave.psik.size))


def all_rows(grid):
    """Every row of the grid's x: the held rows, then a full period's ghost rows."""
    return np.concatenate([block for _, block in grid.blocks(slice(0, grid.x.size))])


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
    assert np.max(np.abs(all_rows(grid) - f_ref)) / np.max(np.abs(f_ref)) < 1e-13


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
        assert 2 * n > wigner.block_rows(2 * n)  # the grid spans several row blocks
    wave = random_wave(n, seed=n)
    omega = np.abs(wave.k) + 0.5
    cases = (
        (wigner.wigner_1d(wave), wave.psik, 1.0 / wave.hbar**2),
        (wigner.quasi_energy_density(wave, omega), np.sqrt(omega) * wave.psik, 1.0 / wave.hbar),
    )
    for grid, coeffs, scale in cases:
        ref = full_matrix_transform(coeffs, wave.ell, (wave.ell / 2.0) / math.pi * scale)
        assert np.max(np.abs(all_rows(grid) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rfft_transport_matches_complex_fft():
    wave = random_wave(150, seed=5)
    grid = wigner.wigner_1d(wave)
    whole = whole_transform(wave)
    assert grid.p.size > wigner.block_rows(grid.p.size)  # the columns span several blocks
    k_of_p = grid.p / grid.hbar
    t = 3.7
    for vg, speeds in (
        (0.7, np.full(grid.p.size, 0.7)),
        (np.cos(k_of_p), np.cos(k_of_p)),
    ):
        moved = wigner.evolve_wigner_group_velocity(grid, vg, t)
        ref = complex_fft_transport(whole, speeds, t)
        assert np.max(np.abs(all_rows(moved) - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert moved.marginal_defect == grid.marginal_defect


def test_row_blocks_match_the_whole_transform():
    wave = random_wave(150, seed=7)
    grid = whole_transform(wave)
    step = wigner.block_rows(2 * 150)
    rows = slice(37, 37 + 2 * step + 11)  # starts off 0 and ends in a short block
    prefactor = wigner.number_prefactor(wave)
    blocks = list(wigner.row_blocks(wigner.doubled_site_values(wave), prefactor, rows))
    assert [lo for lo, _ in blocks] == list(range(rows.start, rows.stop, step))
    assert blocks[-1][1].shape[0] < step
    assert np.array_equal(np.concatenate([block for _, block in blocks]), grid.f[rows])
    # a row slice that starts and ends off the block bounds
    part = wigner.doubled_grid_transform(wave, prefactor, slice(37, 178))
    assert np.array_equal(part.f, grid.f[37:178]) and np.array_equal(part.x, grid.x[37:178])
    assert np.array_equal(part.p, grid.p) and not part.full_period


def test_blocks_are_sized_in_bytes_past_1024_modes(monkeypatch):
    # a 64-row block of 2n values would pass _ROW_BYTES at n = 2048, so there the byte rule binds
    assert [wigner.block_rows(2 * n) for n in (1, 512, 1024, 2048, 4096)] == [64, 64, 64, 32, 16]
    wave = random_wave(2048, seed=11)
    prefactor = wigner.number_prefactor(wave)
    seen = []
    wigner.doubled_grid_transform(wave, prefactor, consume=lambda lo, b: seen.append((lo, len(b))))
    assert seen == [(lo + half, 32) for lo in range(0, 2048, 32) for half in (0, 2048)]
    rows = slice(1000, 1000 + 3 * 32 + 5)  # off the block bounds, with a short last block
    site = wigner.doubled_site_values(wave)
    blocks = list(wigner.row_blocks(site, prefactor, rows))
    assert [(lo, len(block)) for lo, block in blocks] == [(1000, 32), (1032, 32), (1064, 32),
                                                          (1096, 5)]
    x, p = np.arange(101.0), np.arange(4096.0)
    window = wigner.WignerGrid(x=x, p=p, f=np.zeros((101, 4096)), hbar=1.0)
    assert [len(block) for _, block in window.blocks(slice(0, 101))] == [32, 32, 32, 5]
    # a row's numbers do not depend on the block it falls in
    monkeypatch.setattr(wigner, "_ROW_BYTES", 1)
    one_row = np.concatenate([block for _, block in wigner.row_blocks(site, prefactor, rows)])
    assert np.array_equal(np.concatenate([block for _, block in blocks]), one_row)


def test_transport_columns_do_not_depend_on_the_block(monkeypatch):
    grid = wigner.wigner_1d(random_wave(150, seed=9))
    vg = np.cos(grid.p / grid.hbar)
    moved = wigner.evolve_wigner_group_velocity(grid, vg, 3.7)
    monkeypatch.setattr(wigner, "_ROW_BYTES", 7 * 8 * grid.x.size)  # 7 columns a block
    assert np.array_equal(wigner.evolve_wigner_group_velocity(grid, vg, 3.7).f, moved.f)


def translated(wave, a):
    """The wave psi(x - a): modes psi'_k exp(-i k a)."""
    return replace(wave, psik=wave.psik * np.exp(-1j * wave.k * a))


def evolved(wave, vt):
    """The wave after time t under omega = v|k|: modes psi'_k exp(-i |k| v t)."""
    return replace(wave, psik=wave.psik * np.exp(-1j * np.abs(wave.k) * vt))


def translation_bound(grid, a):
    """Round-off allowed between the rows of a translated wave's transform and the grid
    transported by a: it grows with the phase k a, up to pi |a| / ell (ell = 2 dx)."""
    eps = np.finfo(float).eps
    return 16 * eps * (1.0 + math.pi * abs(a) / (2.0 * grid.dx)) * np.max(np.abs(grid.f))


# W[psi(. - a)](x, p) = W[psi](x - a, p), exactly on the doubled grid: each column of f is a
# trigonometric polynomial in x below the grid's Nyquist frequency, so the Fourier shift
# of evolve_wigner_group_velocity and the phase exp(-i k a) on the modes are one translation
@given(
    n=st.integers(1, 96),
    ell=st.floats(0.05, 5.0),
    hbar=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**31),
    turns=st.floats(-3.3, 3.3),
    first=st.floats(0.0, 1.0),
    span=st.floats(0.0, 1.0),
)
def test_translated_wave_rows_match_transport(n, ell, hbar, seed, turns, first, span):
    wave = random_wave(n, seed, ell=ell, hbar=hbar)
    a = turns * ell * n
    oracle = wigner.evolve_wigner_group_velocity(wigner.wigner_1d(wave), 1.0, a)
    lo = min(int(first * 2 * n), 2 * n - 1)
    rows = slice(lo, lo + 1 + int(span * (2 * n - lo - 1)))
    site = wigner.doubled_site_values(translated(wave, a))
    blocks = wigner.row_blocks(site, wigner.number_prefactor(wave), rows)
    f = np.concatenate([block for _, block in blocks])
    assert np.max(np.abs(f - all_rows(oracle)[rows])) <= translation_bound(oracle, a)


# omega = v|k| moves a wave's k >= 0 modes by +v t and its k < 0 modes by -v t.  A wave of
# k >= 0 modes only is translated, |k| = k, so its transform is the translated wave's bit
# for bit; with both signs W[psi_t](x, p) is W[psi](x - v t sign(p), p) but for the cross
# terms of its mixed pairs, each at most C |psi'_a| |psi'_b| with C = prefactor 2n dk^2/2pi
@given(
    n=st.integers(1, 96),
    ell=st.floats(0.05, 5.0),
    hbar=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**31),
    turns=st.floats(-3.3, 3.3),
)
def test_evolved_wave_moves_each_chirality(n, ell, hbar, seed, turns):
    wave = random_wave(n, seed, ell=ell, hbar=hbar)
    vt = turns * ell * n
    right = replace(wave, psik=np.where(wave.k >= 0, wave.psik, 0.0))
    assert np.array_equal(
        wigner.wigner_1d(evolved(right, vt)).f, wigner.wigner_1d(translated(right, vt)).f
    )
    grid = wigner.wigner_1d(wave)
    split = wigner.evolve_wigner_group_velocity(grid, np.sign(grid.p), vt)
    size = np.abs(wave.psik)
    mixed = 2.0 * np.sum(size[wave.k >= 0]) * np.sum(size[wave.k < 0])
    c = wigner.number_prefactor(wave) * 2 * n * wave.dk**2 / (2.0 * math.pi)
    difference = np.abs(wigner.wigner_1d(evolved(wave, vt)).f - split.f)
    assert np.max(difference) <= 2.0 * c * mixed + translation_bound(grid, vt)


def covariance_bound(f):
    """Round-off allowed between the transforms of two waves that an exact identity of
    the doubled grid relates: a few eps of the peak."""
    return 8 * np.finfo(float).eps * np.max(np.abs(f))


# a boost by one mode, psi'_k -> psi'_{k - dk}, moves f by hbar dk = two p columns; the top
# mode is zeroed first, so that no mode leaves the grid
@given(
    n=st.integers(2, 96),
    ell=st.floats(0.05, 5.0),
    hbar=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**31),
)
def test_boost_by_one_mode_shifts_two_p_columns(n, ell, hbar, seed):
    wave = random_wave(n, seed, ell=ell, hbar=hbar)
    psik = wave.psik.copy()
    psik[-1] = 0.0
    f = wigner.wigner_1d(replace(wave, psik=psik)).f
    boosted = wigner.wigner_1d(replace(wave, psik=np.concatenate([[0.0], psik[:-1]]))).f
    assert np.max(np.abs(boosted - np.roll(f, 2, axis=1))) <= covariance_bound(f)


# conjugation, psi'_k -> conj psi'_{-k}, is psi -> psi*, which reflects p: column s of the
# p_s = s dp grid (s = -n..n-1, periodic mod 2n) goes to column -s; for even n the bottom
# mode -n/2 has no partner on the grid and is zeroed first
@given(
    n=st.integers(1, 96),
    ell=st.floats(0.05, 5.0),
    hbar=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**31),
)
def test_conjugation_reflects_p(n, ell, hbar, seed):
    wave = random_wave(n, seed, ell=ell, hbar=hbar)
    psik = wave.psik.copy()
    if n % 2 == 0:
        psik[0] = 0.0
    f = wigner.wigner_1d(replace(wave, psik=psik)).f
    # k_j = (j - n // 2) dk, so -k_j is mode 2 (n // 2) - j
    partner = 2 * (n // 2) - np.arange(n)
    conjugate = np.zeros_like(psik)
    on_grid = partner < n
    conjugate[on_grid] = np.conj(psik[partner[on_grid]])
    reflected = wigner.wigner_1d(replace(wave, psik=conjugate)).f
    s = np.arange(-n, n)
    assert np.max(np.abs(reflected - f[:, (n - s) % (2 * n)])) <= covariance_bound(f)


@given(
    n=st.integers(1, 96),
    ell=st.floats(0.05, 5.0),
    hbar=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**31),
    phi=st.floats(-10.0, 10.0),
)
def test_global_phase_leaves_f_unchanged(n, ell, hbar, seed, phi):
    wave = random_wave(n, seed, ell=ell, hbar=hbar)
    f = wigner.wigner_1d(wave).f
    phased = wigner.wigner_1d(replace(wave, psik=wave.psik * np.exp(1j * phi))).f
    assert np.max(np.abs(phased - f)) <= covariance_bound(f)


# a full period holds rows 0..n-1 of the transform, and rows n..2n-1 come from the
# checkerboard ghost f(x + L/2, p_s) = (-1)^s f(x, p_s); the 2n-row transform is its oracle
@given(
    n=st.integers(1, 96),
    ell=st.floats(0.05, 5.0),
    hbar=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**31),
)
def test_half_ring_matches_the_whole_transform(n, ell, hbar, seed, tmp_path_factory):
    wave = random_wave(n, seed, ell=ell, hbar=hbar)
    oracle = whole_transform(wave)
    grid = wigner.wigner_1d(wave)
    assert grid.full_period and not oracle.full_period
    assert np.array_equal(grid.x, oracle.x) and np.array_equal(grid.p, oracle.p)
    assert np.array_equal(grid.f, oracle.f[:n])
    blocks = list(grid.blocks(slice(0, 2 * n)))
    assert all(len(block) <= wigner.block_rows(2 * n) for _, block in blocks)
    f = np.concatenate([block for _, block in blocks])
    assert np.array_equal(f[:n], oracle.f[:n])
    assert np.max(np.abs(f[n:] - oracle.f[n:])) <= covariance_bound(oracle.f)
    assert grid.total() == pytest.approx(oracle.total(), rel=1e-12)
    marginal_x = oracle.marginal_x()
    assert np.max(np.abs(grid.marginal_x() - marginal_x)) < 1e-13 * np.max(marginal_x)
    # the even-s columns of all 2n rows, halved: each half window carries them once
    marginal_p = 0.5 * oracle.dx * np.sum(oracle.f[:, n % 2 :: 2], axis=0)
    assert np.max(np.abs(grid.marginal_p() - marginal_p)) < 1e-13 * np.max(marginal_p)
    assert 0.0 <= grid.marginal_defect < 1e-12
    path = tmp_path_factory.mktemp("ring") / "grid.wgrd"
    gridio.write_wigner_grid(path, grid.x, grid.p, (grid.f,), grid.hbar, grid.marginal_defect)
    back = gridio.read_wigner_grid(path)
    assert back.full_period and back.marginal_defect == grid.marginal_defect
    assert np.array_equal(back.x, oracle.x) and np.array_equal(back.p, oracle.p)
    assert np.array_equal(back.f, grid.f) and np.array_equal(all_rows(back), f)


def test_half_ring_blocks_split_at_the_mirror():
    grid = wigner.wigner_1d(random_wave(100, seed=9))
    rows = slice(70, 170)  # crosses row n = 100 inside the first block
    starts = [lo for lo, _ in grid.blocks(rows)]
    assert starts == [70, 100, 164]
    f = np.concatenate([block for _, block in grid.blocks(rows)])
    sign = (-1.0) ** (np.arange(200) - 100)
    assert np.array_equal(f[:30], grid.f[70:]) and np.array_equal(f[30:], grid.f[:70] * sign)


# on a full period the consumer sees every ring row once: each held block as it is built,
# then its ghost rows n + lo.. in one buffer that the next ghost block overwrites, so each
# block is compared while the consumer runs
@given(n=st.integers(1, 200), seed=st.integers(0, 2**31))
@example(n=65, seed=0)  # a short ghost block; f @ sign differs from all of f's in last bits
def test_full_period_consumer_sees_every_ring_row(n, seed):
    wave = random_wave(n, seed)
    grid = wigner.wigner_1d(wave)
    rows = all_rows(grid)
    seen = np.zeros(2 * n, dtype=int)
    ghosts = []

    def consume(lo, block):
        assert np.array_equal(block, rows[lo : lo + len(block)])
        seen[lo : lo + len(block)] += 1
        if lo >= n:
            ghosts.append(block)

    prefactor = wigner.number_prefactor(wave)
    row_sums, column_sums, defect = wigner.doubled_grid_transform(wave, prefactor, None, consume)
    assert np.all(seen == 1)
    assert all(np.shares_memory(block, ghosts[0]) for block in ghosts)
    assert defect == grid.marginal_defect
    marginal_x = grid.marginal_x()  # the ghosts' f @ sign, taken per block or on all of f
    assert np.max(np.abs(grid.dp * row_sums - marginal_x)) <= covariance_bound(marginal_x)
    assert np.array_equal(grid.dx * column_sums, grid.marginal_p())


@given(
    n=st.integers(1, 150),
    seed=st.integers(0, 2**31),
    first=st.floats(0.0, 1.0),
    span=st.floats(0.0, 1.0),
)
def test_row_slice_transform_is_the_whole_transforms_rows(n, seed, first, span):
    wave = random_wave(n, seed)
    oracle = whole_transform(wave)
    lo = min(int(first * 2 * n), 2 * n - 1)
    rows = slice(lo, lo + 1 + int(span * (2 * n - lo - 1)))
    prefactor = wigner.number_prefactor(wave)
    part = wigner.doubled_grid_transform(wave, prefactor, rows)
    assert np.array_equal(part.f, oracle.f[rows]) and np.array_equal(part.x, oracle.x[rows])
    assert np.array_equal(part.p, oracle.p) and not part.full_period
    # a consumer of a row slice sees its rows once, in order, and no ghost rows
    seen = []

    def consume(lo, block):
        seen.append((lo, block.copy()))

    wigner.doubled_grid_transform(wave, prefactor, rows, consume)
    assert [lo for lo, _ in seen] == list(range(rows.start, rows.stop, wigner.block_rows(2 * n)))
    assert np.array_equal(np.concatenate([block for _, block in seen]), oracle.f[rows])


# ---------------------------------------------------------------------------
# exact discrete identities


@given(seed=st.integers(0, 2**31), n_exp=st.integers(3, 5))
def test_total_counts_quanta(seed, n_exp):
    wave = random_wave(2**n_exp, seed)
    grid = wigner.wigner_1d(wave)
    expected = wave.dk * float(np.sum(wave.eta)) / wave.hbar
    assert grid.total() == pytest.approx(expected, rel=1e-12)


# column j holds s = j - n, so the even-s columns that carry the p marginal start at
# j = n mod 2; at odd n the even-j columns are the odd-s ones, which cancel
@given(seed=st.integers(0, 2**31), n=st.integers(1, 40))
def test_marginals_are_exact(seed, n):
    wave = random_wave(n, seed)
    grid = wigner.wigner_1d(wave)
    density_x = np.abs(wigner.doubled_site_values(wave)) ** 2 / wave.hbar
    scale = np.max(density_x)
    assert np.max(np.abs(grid.marginal_x() - density_x)) < 1e-13 * scale
    density_p = wave.eta / wave.hbar**2
    assert np.max(np.abs(grid.marginal_p() - density_p)) < 1e-13 * np.max(density_p)


def test_full_axis_spacings_are_exact():
    # dx and dp come from the axis entries 0 and one spacing, so no bits are lost to the
    # magnitude of p[0] = -n hbar dk / 2
    wave = random_wave(96, seed=3)
    grid = wigner.wigner_1d(wave)
    assert grid.dx == wave.ell / 2.0 and grid.dp == wave.hbar * wave.dk / 2.0
    # a window keeps the difference of its first two rows
    win = grid.window(10.0, 20.0)
    assert win.dx == win.x[1] - win.x[0]


def test_marginal_defect_on_gaussian():
    # rounding-level but not identically zero, in number and energy form
    gp, wave = gaussian_wave()
    assert 0.0 < wigner.wigner_1d(wave).marginal_defect < 1e-12
    energy = wigner.quasi_energy_density(wave, np.abs(wave.k) + 1.0)
    assert 0.0 < energy.marginal_defect < 1e-12


def test_checkerboard_ghost():
    # periodic images half a ring away carry an alternating sign in p
    # (each of the 2n rows transformed, so rows n..2n-1 are computed, not mirrored)
    wave = random_wave(16, seed=12)
    grid = whole_transform(wave)
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
    assert np.array_equal(win.f, all_rows(grid)[mask])
    assert np.shares_memory(win.f, grid.f)  # held rows: a row view, not a copy
    assert win.marginal_defect == grid.marginal_defect and not win.full_period
    # x_m = 0.4 m, so [5, 8) holds rows 13..19, across the mirror at n = 16
    across = grid.window(5.0, 8.0)
    mask = (grid.x >= 5.0) & (grid.x < 8.0)
    assert np.array_equal(across.f, all_rows(grid)[mask])
    assert not np.shares_memory(across.f, grid.f) and not across.full_period
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
    moved = wigner.evolve_wigner_group_velocity(grid, 1.0, cells * grid.dx)
    rolled = np.roll(all_rows(grid), cells, axis=0)
    assert np.max(np.abs(all_rows(moved) - rolled)) < 1e-12 * np.max(grid.f)


def test_transport_closed_form_and_marginal_p():
    gp, wave = gaussian_wave()
    grid = wigner.wigner_1d(wave)
    t = 17.32  # non-integer number of cells
    moved = wigner.evolve_wigner_group_velocity(grid, 1.0, t)
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


def test_transport_requires_full_period():
    gp, wave = gaussian_wave(n=64, g=16.0)
    win = wigner.wigner_1d(wave).window(0.0, 10.0)
    with pytest.raises(ValueError):
        wigner.evolve_wigner_group_velocity(win, 1.0, 1.0)


# ---------------------------------------------------------------------------
# runner figures of merit: closed-form errors in row blocks


def closed_error(gp, grid, hbar, **motion):
    """(max|closed - f|, max closed, max f) of the closed form over all rows of a window,
    taken block by block as the runners take them."""
    rows = slice(0, grid.x.size)
    errors = experiments._closed_errors(gp, grid.x, grid.p, hbar, rows, grid.blocks(rows), **motion)
    return np.max(errors, axis=0)


def test_blocked_closed_error_matches_full_outer_product():
    gp, wave = gaussian_wave(n=400)
    grid = wigner.wigner_1d(wave)
    length = wave.ell * wave.psik.size
    t, vg = 17.32, 0.9
    moved = wigner.evolve_wigner_group_velocity(grid, vg, t)
    for source, motion, center in ((grid, {}, gp.x0), (moved, {"t": t, "vg": vg}, gp.x0 + vg * t)):
        half = source.window(center - length / 4.0, center + length / 4.0)
        assert half.x.size > 64 and half.x.size % 64  # a short last block
        closed = wigner.wigner_gaussian_closed(gp, half.x, half.p, wave.hbar, **motion)
        error, peak, top = closed_error(gp, half, wave.hbar, **motion)
        assert peak == np.max(closed) and top == np.max(half.f)
        assert experiments._rel(error, peak) == experiments._rel(closed - half.f, np.max(closed))
    # a row range that cuts blocks, over every ring row: held blocks and ghost blocks
    rows = slice(grid.x.size // 4 + 5, 3 * grid.x.size // 4 - 7)
    blocks = grid.blocks(slice(0, grid.x.size))
    error, peak, top = np.max(
        experiments._closed_errors(gp, grid.x, grid.p, wave.hbar, rows, blocks), axis=0
    )
    f = all_rows(grid)[rows]
    closed = wigner.wigner_gaussian_closed(gp, grid.x[rows], grid.p, wave.hbar)
    assert (error, peak, top) == (np.max(np.abs(closed - f)), np.max(closed), np.max(f))
    # a NaN in the last block only makes the error NaN, as in the full array
    broken = replace(half, f=half.f.copy())
    broken.f[-1, 5] = np.nan
    error, _, _ = closed_error(gp, broken, wave.hbar, **motion)
    assert np.isnan(error)


def whole_grid_error_t(cfg, hbar):
    """closed_form_error_t from wigner_1d of the evolved wave psi_t on the whole grid, its
    moved half window read through the checkerboard ghost, and the round-off allowed
    between that and the runner's transform of the window's rows, relative to the closed
    form's peak."""
    length = cfg.ell * cfg.n_modes
    x0 = (length / 2.0 if cfg.x0 is None else cfg.x0) % length
    xc = x0 + cfg.v * cfg.t_final
    moved = xc % length
    gp = wigner.GaussianEtaParams(cfg.n_quanta, cfg.g, cfg.k0_cells * 2.0 * math.pi / length, x0)
    wave = wigner.gaussian_action_wave(gp, cfg.ell, cfg.n_modes, hbar)
    grid = wigner.wigner_1d(wave)
    _, peak, _ = closed_error(gp, grid.window(x0 - length / 4.0, x0 + length / 4.0), hbar)
    grid_t = wigner.wigner_1d(evolved(wave, cfg.v * cfg.t_final))
    win_t = grid_t.window(moved - length / 4.0, moved + length / 4.0)
    gp_t = replace(gp, x0=x0 - (xc - moved))
    error, _, _ = closed_error(gp_t, win_t, hbar, t=cfg.t_final, vg=cfg.v)
    return experiments._rel(error, peak), covariance_bound(grid_t.f) / peak


# a centred packet, and one whose moved center 160 wraps to 10, so the ring's edge cuts
# the moved half window [-27.5, 47.5) to its rows from x = 0; at g = 30 and k0_cells 20
# the packet's weight near k = 0 mixes the chiralities, so its error reads about 4.9e-6
@pytest.mark.parametrize("x0, t_final", [(None, 17.32), (140.0, 20.0)], ids=["centred", "edge-cut"])
def test_streamed_closed_error_matches_whole_grid(tmp_path, x0, t_final):
    cfg = experiments.WignerGaussianConfig(n_modes=150, g=30.0, k0_cells=20, x0=x0, t_final=t_final)
    units = get_units("natural")
    summary, _ = experiments.run_wigner_gaussian(cfg, units, cli.Staging(tmp_path))
    oracle, bound = whole_grid_error_t(cfg, units.hbar)
    assert abs(summary["closed_form_error_t"] - oracle) <= bound


# whole ring turns carry no phase on the grid, so the moved check keeps its digits however
# many turns the packet makes (before v t was reduced mod ell n it read 4e-9 at 1e5 turns
# and 4e-5 at 1e9); the tenth of a turn leaves a motion that does not reduce to 0
@pytest.mark.parametrize("turns", [1e5, 1e9, 1e5 + 0.1, 1e9 + 0.1])
def test_moved_check_keeps_its_digits_over_many_turns(tmp_path, turns):
    cfg = experiments.WignerGaussianConfig(n_modes=512, t_final=turns * 512)
    summary, _ = experiments.run_wigner_gaussian(cfg, get_units("natural"), cli.Staging(tmp_path))
    assert summary["closed_form_error_t"] <= 10 * summary["closed_form_error_t0"]


def test_streamed_closed_error_keeps_a_nan_in_the_last_block(tmp_path, monkeypatch):
    row_blocks = wigner.row_blocks

    passes = []

    def nan_in_last_block(site, prefactor, rows, out=None):
        # only the second pass, the transform of the evolved wave, not the t = 0 pass
        passes.append(rows)
        for lo, block in row_blocks(site, prefactor, rows, out):
            if len(passes) == 2 and lo + wigner.block_rows(2 * 150) >= rows.stop:
                block[-1, -1] = np.nan
            yield lo, block

    monkeypatch.setattr(wigner, "row_blocks", nan_in_last_block)
    cfg = experiments.WignerGaussianConfig(n_modes=150, g=30.0, k0_cells=20)
    summary, _ = experiments.run_wigner_gaussian(cfg, get_units("natural"), cli.Staging(tmp_path))
    assert np.isnan(summary["closed_form_error_t"])
    assert not np.isnan(summary["closed_form_error_t0"])


def test_t0_check_reads_the_ghost_rows(tmp_path, monkeypatch):
    row_blocks = wigner.row_blocks

    passes = []

    def nan_in_row_0(site, prefactor, rows, out=None):
        # the first pass, the t = 0 transform, only: row 0 lies outside the centred t = 0
        # window [n/2, 3n/2), its ghost row n inside
        passes.append(rows)
        for lo, block in row_blocks(site, prefactor, rows, out):
            if len(passes) == 1 and lo == 0:
                block[0, 0] = np.nan
            yield lo, block

    monkeypatch.setattr(wigner, "row_blocks", nan_in_row_0)
    cfg = experiments.WignerGaussianConfig(n_modes=150, g=30.0, k0_cells=20)
    summary, _ = experiments.run_wigner_gaussian(cfg, get_units("natural"), cli.Staging(tmp_path))
    assert np.isnan(summary["closed_form_error_t0"])
    assert not np.isnan(summary["closed_form_error_t"])


# the grid spacings come from the axis entries about 0, so the figures they scale read
# round-off (with p[1] - p[0] they read 1.05e-13 at n_modes 2048), and the p marginal
# takes the even-s columns at odd n too (it read 1.0 at n_modes 63, 65 and 127)
@pytest.mark.parametrize("n_modes", [63, 64, 65, 127, 2048])
def test_runner_marginals_keep_their_digits(tmp_path, n_modes):
    cfg = experiments.WignerGaussianConfig(n_modes=n_modes, g=n_modes / 5.0,
                                           k0_cells=n_modes // 4, t_final=n_modes / 10.0)
    summary, _ = experiments.run_wigner_gaussian(cfg, get_units("natural"), cli.Staging(tmp_path))
    assert summary["marginal_p_error"] < 1e-14
    if n_modes == 2048:
        assert summary["total_error"] <= 1e-15 and summary["marginal_x_error"] <= 1e-15


def runner_peak(scenario, size, tmp_path):
    """tracemalloc peak of one run_config and its artifact writes, after a warm-up run."""
    command, block, _, _ = experiments.SCENARIOS[scenario]
    top = experiments.parse_config(
        {"schema_version": 1, "scenario": scenario, block: size}, command, str(tmp_path)
    )

    def run():
        summary, artifacts = experiments.run_config(top, cli.Staging(tmp_path))
        cli._write_artifacts(tmp_path, summary, artifacts, top)

    run()  # warm-up, so one-time caches are not counted
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "scenario, size, bound",
    [("wigner-gaussian", {"n_modes": 512}, 0.35), ("phonon-gaussian", {"n_sites": 512}, 0.35)],
)
def test_runner_peak_memory_per_grid(scenario, size, bound, tmp_path):
    # neither runner holds a grid: each consumes the blocks of its transforms as they come, at
    # most 64 rows and _ROW_BYTES of values each, keeps reductions and writes its .wgrd rows
    # as they go by; at 512 modes the 64 rows bind
    assert runner_peak(scenario, size, tmp_path) <= bound * (2 * 512) ** 2 * 8


@pytest.mark.parametrize(
    "scenario, size",
    [("wigner-gaussian", {"n_modes": 4096}), ("phonon-gaussian", {"n_sites": 4096})],
)
def test_runner_peak_memory_at_the_declared_end(scenario, size, tmp_path):
    # at 4096 modes _ROW_BYTES = 1 MiB binds: four block buffers (lags, rows, ghost rows, the
    # closed form) of 1 MiB and 48 float64 vectors of the 2n = 8192 grid points, 7.3 MB in all
    # (it reads 5.2-5.6 MB; 64-row blocks peaked at 14.6-18.2 MB)
    peak = runner_peak(scenario, size, tmp_path)
    assert peak <= 4 * 2**20 + 48 * 8 * 8192, peak


def test_wigner_1d_peak_memory_is_half_a_grid():
    # a full period holds rows 0..n-1, half the (2n)^2 grid, plus row blocks and the sites
    wave = random_wave(512, seed=1)
    wigner.wigner_1d(wave)  # warm-up, so one-time caches are not counted
    tracemalloc.start()
    try:
        wigner.wigner_1d(wave)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * (2 * 512) ** 2 * 8


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


# translating a mode set by a, psi'_a -> psi'_a exp(-i k_a . a), multiplies each pair weight
# by exp(-i (k_a - k_b) . a): every column's profile moves by a, and its integrals stay
@given(
    seed=st.integers(0, 2**31),
    shift=st.tuples(*[st.floats(-10.0, 10.0)] * 3),
    max_index=st.integers(1, 3),
)
def test_3d_translation_moves_every_column(seed, shift, max_index):
    rng = np.random.default_rng(seed)
    indices = random_indices(rng, 2 + 3 * max_index, max_index)
    modes = indexed_mode_set(indices, seed=seed % 1000, box_length=4.0, hbar=1.3)
    a = np.asarray(shift)
    moved = replace(modes, psik=modes.psik * np.exp(-1j * (modes.k @ a))[:, None])
    w3, w3_moved = wigner.wigner_3d(modes), wigner.wigner_3d(moved)
    assert np.array_equal(w3_moved.p_mid, w3.p_mid)
    assert np.array_equal(w3_moved.offsets, w3.offsets)
    x = rng.uniform(0.0, modes.box_length, size=(5, 3))
    for column, column_moved in zip(w3.columns, w3_moved.columns):
        bound = 1e-12 * np.sum(np.abs(column.pairs["weight"]))
        assert np.max(np.abs(column_moved.amplitude(x) - column.amplitude(x - a))) <= bound
    total = wigner.wigner_3d_total(w3)
    assert wigner.wigner_3d_total(w3_moved) == pytest.approx(total, rel=1e-12)
    v = modes.medium.v
    energy = wigner.wigner_3d_energy(w3, v)
    assert wigner.wigner_3d_energy(w3_moved, v) == pytest.approx(energy, rel=1e-12)


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
    em.check_grid_size(128)
    with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
        em.field_energy(modes, n_grid=129)
    lattice.check_series_size(2**26, 2)
    two_sites = lattice.LatticeParams(n_sites=2)
    state = lattice.LatticeState(u=np.zeros(2), v=np.ones(2))
    for n_steps, sample_every in ((2**26, 1), (2**27 + 1, 2)):
        with pytest.raises(ValueError, match="MAX_SERIES_CELLS"):
            lattice.leapfrog_energy_series(state, two_sites, 0.1, n_steps, sample_every)
