"""Free electromagnetic fields in a uniform medium and their photon-mode picture.

The complex field F = sqrt(eps)*E + i*sqrt(mu)*H packs energy density and
flow into one object:

    w = F.F*/2 = (eps E^2 + mu H^2)/2,      Y = (i v/2) F x F* = c E x H,

and the free-field equations collapse to dF/dt = -i v curl F with
v = c/sqrt(eps*mu).  Fields live on periodic boxes as component-first
arrays of shape (3, n, n, n); derivatives are spectral.

Photon modes.  With A(x) = ((2pi)^{3/2}/V) sum_k A'_k exp(-i k.x) in
radiation gauge (E = -Adot/c, B = curl A = mu H), each transverse mode
oscillates independently, Adot'_k'' = -omega_k^2 A'_k, omega = v|k|.  The
action amplitude

    psi'_k = sqrt(omega/(2 mu v^2)) * ((A'_k)* + i (Adot'_k)*/omega)

rotates as exp(-i omega t); with the box measure w_box = (2pi)^3/V the
field energy is sum_k w_box omega_k |psi'_k|^2 and the carried action is
A = 2pi sum_k w_box |psi'_k|^2, so the photon number is A/h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

TRANSVERSALITY_TOL = 1e-9
GRID_TOL = 1e-9
# Size limit of check_grid_size; a config range ends at it (README "Declared ranges").
MAX_GRID_POINTS = 2**21  # n_grid^3 points of a field grid: n_grid <= 128


@dataclass(frozen=True)
class MediumParams:
    """Uniform linear medium: permittivity eps, permeability mu, light speed c."""

    eps: float = 1.0
    mu: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        if self.eps <= 0 or self.mu <= 0 or self.c <= 0:
            raise ValueError("eps, mu, c must be positive")

    @property
    def v(self) -> float:
        return self.c / math.sqrt(self.eps * self.mu)

    @property
    def impedance(self) -> float:
        return math.sqrt(self.mu / self.eps)


def _component_first(a, name: str, ndim: int | None = None, dtype=None) -> np.ndarray:
    a = np.asarray(a, dtype=dtype)
    if a.ndim == 0 or a.shape[0] != 3 or (ndim is not None and a.ndim != ndim):
        shape = "(3, ...)" if ndim is None else "(3, nx, ny, nz)"
        raise ValueError(f"{name} must be component-first, shape {shape}")
    return a


def _spectrum(field: np.ndarray, length: float):
    """Per-component FFT of a field on the periodic n^3 box and its wavevector axes."""
    field = _component_first(field, "field", ndim=4)
    n = field.shape[1]
    q = 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)
    f = np.fft.fftn(field, axes=(1, 2, 3))
    return f, q[:, None, None], q[None, :, None], q[None, None, :]


def spectral_curl(field: np.ndarray, length: float) -> np.ndarray:
    """curl via FFT on the periodic box; exact for band-limited fields."""
    f, qx, qy, qz = _spectrum(field, length)
    out = np.empty_like(f)
    out[0] = 1j * (qy * f[2] - qz * f[1])
    out[1] = 1j * (qz * f[0] - qx * f[2])
    out[2] = 1j * (qx * f[1] - qy * f[0])
    out = np.fft.ifftn(out, axes=(1, 2, 3))
    return out if np.iscomplexobj(field) else out.real


def spectral_divergence(field: np.ndarray, length: float) -> np.ndarray:
    f, qx, qy, qz = _spectrum(field, length)
    div = 1j * (qx * f[0] + qy * f[1] + qz * f[2])
    div = np.fft.ifftn(div)
    return div if np.iscomplexobj(field) else div.real


def riemann_silberstein(E: np.ndarray, H: np.ndarray, medium: MediumParams) -> np.ndarray:
    """F = sqrt(eps) E + i sqrt(mu) H."""
    E = _component_first(E, "E", ndim=4)
    H = _component_first(H, "H", ndim=4)
    return math.sqrt(medium.eps) * E + 1j * math.sqrt(medium.mu) * H


def fields_from_rs(F: np.ndarray, medium: MediumParams) -> tuple[np.ndarray, np.ndarray]:
    """Recover (E, H) from F."""
    F = _component_first(F, "F", ndim=4)
    return F.real / math.sqrt(medium.eps), F.imag / math.sqrt(medium.mu)


def energy_and_poynting(F: np.ndarray, medium: MediumParams) -> tuple[np.ndarray, np.ndarray]:
    """Energy density w = F.F*/2 and flow Y = (i v / 2) F x F* (both real)."""
    F = _component_first(F, "F", ndim=4)
    w = 0.5 * np.sum(F * np.conj(F), axis=0).real
    Y = (0.5j * medium.v * np.cross(F, np.conj(F), axis=0)).real
    return w, Y


def curl_evolution_residual(
    F0: np.ndarray, F1: np.ndarray, dt: float, medium: MediumParams, length: float
) -> float:
    """Relative L-inf defect of dF/dt = -i v curl F between two snapshots.

    Central difference in time against the spectral curl of the midpoint
    field; O(dt^2) for exact field data.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    F0 = _component_first(F0, "F0", ndim=4)
    F1 = _component_first(F1, "F1", ndim=4)
    mid = 0.5 * (F0 + F1)
    lhs = (F1 - F0) / dt
    rhs = -1j * medium.v * spectral_curl(mid, length)
    scale = max(float(np.max(np.abs(rhs))), float(np.max(np.abs(lhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs)) / scale)


def energy_flow_residual(
    F0: np.ndarray,
    F1: np.ndarray,
    dt: float,
    medium: MediumParams,
    length: float,
) -> float:
    """Relative L-inf defect of dw/dt + div Y = 0 between two snapshots.

    The reference is the larger of max|div Y| and v * max(w) / length; the
    second keeps it nonzero for fields with uniform w and Y, where both
    terms vanish.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    w0, _ = energy_and_poynting(F0, medium)
    w1, _ = energy_and_poynting(F1, medium)
    _, Y_mid = energy_and_poynting(0.5 * (F0 + F1), medium)
    lhs = (w1 - w0) / dt
    rhs = spectral_divergence(Y_mid, length)
    scale = max(
        float(np.max(np.abs(rhs))),
        medium.v * float(np.max(np.abs(0.5 * (w0 + w1)))) / length,
        1e-300,
    )
    return float(np.max(np.abs(lhs + rhs)) / scale)


# --- plane-wave solutions ----------------------------------------------------


def circular_plane_wave(
    x: np.ndarray, A_perp: float, k: float, sigma: int, medium: MediumParams, t: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Circularly polarized wave along the third axis: returns (A, E, H).

    A = A_perp (cos phi, sigma sin phi, 0) with phi = k (x3 - sigma v t);
    sigma = +1 rotates one way and runs up the axis, -1 the mirror image.
    x is a component-first coordinate mesh (3, n, n, n) or any (3, ...).
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    if k <= 0:
        raise ValueError("k must be positive")
    x = _component_first(x, "x", dtype=float)
    phi = k * (x[2] - sigma * medium.v * t)
    zero = np.zeros_like(phi)
    A = A_perp * np.stack([np.cos(phi), sigma * np.sin(phi), zero])
    E = (A_perp * k * medium.v / medium.c) * np.stack([-sigma * np.sin(phi), np.cos(phi), zero])
    H = (-A_perp * k / medium.mu) * np.stack([sigma * np.cos(phi), np.sin(phi), zero])
    return A, E, H


def box_mesh(n: int, length: float) -> np.ndarray:
    """Coordinates of the n^3 periodic grid, component-first (3, n, n, n)."""
    s = np.arange(n) * (length / n)
    X, Y, Z = np.meshgrid(s, s, s, indexing="ij")
    return np.stack([X, Y, Z])


# --- photon modes ------------------------------------------------------------


@dataclass(frozen=True)
class PhotonModeSet:
    """Transverse modes of the box: wavevectors k (M, 3) and complex vector
    action amplitudes psik (M, 3), with the medium and hbar they refer to."""

    k: np.ndarray
    psik: np.ndarray
    box_length: float
    medium: MediumParams
    hbar: float

    def __post_init__(self) -> None:
        k = np.atleast_2d(np.asarray(self.k, dtype=float))
        psik = np.atleast_2d(np.asarray(self.psik, dtype=complex))
        if k.ndim != 2 or k.shape[1] != 3 or psik.shape != k.shape:
            raise ValueError("k and psik must both have shape (M, 3)")
        if self.box_length <= 0 or self.hbar <= 0:
            raise ValueError("box_length and hbar must be positive")
        ints = k * self.box_length / (2.0 * np.pi)
        if np.max(np.abs(ints - np.round(ints))) > GRID_TOL:
            raise ValueError("every k must be a reciprocal vector 2*pi*n/L of the box")
        if len({tuple(row) for row in np.round(ints).astype(int)}) != k.shape[0]:
            raise ValueError("duplicate wavevectors in the mode set")
        norms = np.linalg.norm(k, axis=1)
        if np.any(norms == 0):
            raise ValueError("k = 0 carries no transverse mode")
        amp = np.linalg.norm(psik, axis=1)
        long_part = np.abs(np.sum(k * psik, axis=1))
        bad = long_part > TRANSVERSALITY_TOL * norms * np.maximum(amp, 1e-300)
        if np.any(bad & (amp > 0)):
            raise ValueError("psik must be transverse to k")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "psik", psik)

    @property
    def box_measure(self) -> float:
        return (2.0 * np.pi) ** 3 / self.box_length**3

    def omega(self) -> np.ndarray:
        return self.medium.v * np.linalg.norm(self.k, axis=1)

    def eta(self) -> np.ndarray:
        return np.sum(np.abs(self.psik) ** 2, axis=1)

    def indices(self) -> np.ndarray:
        """Integer triples n of the wavevectors k = 2pi n/L, shape (M, 3)."""
        return np.round(self.k * self.box_length / (2.0 * np.pi)).astype(int)


def polarization_basis(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Right-handed transverse triad (e1, e2, khat) for one wavevector, or for each row of an
    (M, 3) stack, each of k's shape.

    e1 lies along k x zhat, falling back to k x xhat near the pole.
    """
    k = np.asarray(k, dtype=float)
    rows = k.reshape(-1, 3)

    def norms(a):
        # a stacked vector-vector matmul is the dot that np.linalg.norm takes of one vector
        return np.sqrt(a[:, None, :] @ a[:, :, None])[:, 0]

    norm = norms(rows)
    if not np.all(norm):
        raise ValueError("k must be nonzero")
    khat = rows / norm
    e1 = np.cross(rows, [0.0, 0.0, 1.0])
    pole = norms(e1)[:, 0] < 1e-9 * norm[:, 0]
    e1[pole] = np.cross(rows[pole], [1.0, 0.0, 0.0])
    e1 /= norms(e1)
    e2 = np.cross(khat, e1)
    return e1.reshape(k.shape), e2.reshape(k.shape), khat.reshape(k.shape)


def photon_action_wave(
    k: np.ndarray,
    A_modes: np.ndarray,
    Adot_modes: np.ndarray,
    box_length: float,
    medium: MediumParams,
    hbar: float,
) -> PhotonModeSet:
    """Action amplitudes from potential modes:
    psi'_k = sqrt(omega/(2 mu v^2)) ((A'_k)* + i (Adot'_k)*/omega)."""
    k = np.atleast_2d(np.asarray(k, dtype=float))
    A_modes = np.atleast_2d(np.asarray(A_modes, dtype=complex))
    Adot_modes = np.atleast_2d(np.asarray(Adot_modes, dtype=complex))
    if A_modes.shape != k.shape or Adot_modes.shape != k.shape:
        raise ValueError("A_modes and Adot_modes must match k in shape")
    omega = medium.v * np.linalg.norm(k, axis=1)
    if np.any(omega == 0):
        raise ValueError("k = 0 has no oscillating mode")
    root = np.sqrt(omega / (2.0 * medium.mu * medium.v**2))[:, None]
    psik = root * (np.conj(A_modes) + 1j * np.conj(Adot_modes) / omega[:, None])
    return PhotonModeSet(k=k, psik=psik, box_length=box_length, medium=medium, hbar=hbar)


def _partner_index(modes: PhotonModeSet) -> np.ndarray:
    """Index of the -k row for each mode, or -1 when absent."""
    ints = modes.indices()
    table = {tuple(row): i for i, row in enumerate(ints)}
    return np.asarray([table.get(tuple(-row), -1) for row in ints])


def potential_from_psi(modes: PhotonModeSet) -> tuple[np.ndarray, np.ndarray]:
    """Invert to potential modes (A'_k, Adot'_k), treating absent -k rows as empty.

    A'_k = c (2 eps omega)^{-1/2} ((psi'_k)* + psi'_{-k}),
    Adot'_k = -(i/2) sqrt(2 mu v^2 omega) (psi'_{-k} - (psi'_k)*).
    """
    m = modes.medium
    omega = modes.omega()
    partner = _partner_index(modes)
    psi_rev = np.where(
        (partner >= 0)[:, None], modes.psik[partner], np.zeros_like(modes.psik)
    )
    plus = np.conj(modes.psik) + psi_rev
    minus = psi_rev - np.conj(modes.psik)
    A_modes = (m.c / np.sqrt(2.0 * m.eps * omega))[:, None] * plus
    Adot_modes = -0.5j * np.sqrt(2.0 * m.mu * m.v**2 * omega)[:, None] * minus
    return A_modes, Adot_modes


def evolve_mode_set(modes: PhotonModeSet, t: float) -> PhotonModeSet:
    """psi'_k(t) = exp(-i omega_k t) psi'_k(0)."""
    phase = np.exp(-1j * modes.omega() * t)[:, None]
    return replace(modes, psik=modes.psik * phase)


def action_area_3d(modes: PhotonModeSet) -> float:
    """Carried action A = 2pi * sum_k w_box |psi'_k|^2."""
    return float(2.0 * np.pi * modes.box_measure * np.sum(modes.eta()))


def photon_number(modes: PhotonModeSet) -> float:
    return action_area_3d(modes) / (2.0 * np.pi * modes.hbar)


def mode_energy_3d(modes: PhotonModeSet) -> float:
    """Field energy in the mode picture: sum_k w_box omega_k |psi'_k|^2."""
    return float(modes.box_measure * np.sum(modes.omega() * modes.eta()))


def normalize_photons(modes: PhotonModeSet, n_quanta: float) -> PhotonModeSet:
    """Rescale amplitudes so the carried action equals n_quanta * h."""
    if n_quanta <= 0:
        raise ValueError("n_quanta must be positive")
    current = photon_number(modes)
    if current == 0:
        raise ValueError("cannot normalize an empty mode set")
    return replace(modes, psik=modes.psik * math.sqrt(n_quanta / current))


def default_grid(max_index: int) -> int:
    """Coarsest fast FFT length that integrates every mode product exactly:
    the squared real field has harmonics out to twice the largest index, so
    the grid is the smallest 11-smooth n >= 4 max_index + 1."""
    target = 4 * max_index + 1
    # every 2^a 3^b 5^c 7^d 11^e below 2 target; a power of two lies in [target, 2 target)
    lengths = [1]
    for p in (2, 3, 5, 7, 11):
        grown = []
        for n in lengths:
            while n < 2 * target:
                grown.append(n)
                n *= p
        lengths = grown
    return min(n for n in lengths if n >= target)


def check_grid_size(n_grid: int) -> None:
    """Refuse a field grid whose n_grid^3 points exceed MAX_GRID_POINTS."""
    if n_grid**3 > MAX_GRID_POINTS:
        raise ValueError(
            f"a field grid of {n_grid}^3 = {n_grid**3} points is over"
            f" MAX_GRID_POINTS = {MAX_GRID_POINTS}"
        )


def _grid_sums(modes: PhotonModeSet, coeffs: np.ndarray, n_grid: int) -> np.ndarray:
    """Real fields ((2pi)^{3/2}/V) sum_k c_k exp(-i k.x) on the n_grid^3 box.

    coeffs stacks the (3,)-vector coefficients of several fields per listed
    mode, shape (M, n_fields, 3); the result has shape (n_fields, 3, n, n, n).
    A real field carries c_{-k} = (c_k)* whether or not -k is listed, so an
    unpaired mode enters twice over before the real part is taken.  At
    x_j = j L/n the term of k = 2pi m/L is exp(-2pi i m.j/n): it sits in DFT
    bin -m mod n, and one unnormalised inverse FFT sums them all.  Bins that
    coincide on a coarse grid add up.
    """
    check_grid_size(n_grid)
    weight = np.where(_partner_index(modes) < 0, 2.0, 1.0)
    spectrum = np.zeros(coeffs.shape[1:] + (n_grid,) * 3, dtype=complex)
    bins = tuple((-modes.indices() % n_grid).T)
    np.add.at(spectrum, (Ellipsis,) + bins, np.moveaxis(weight[:, None, None] * coeffs, 0, -1))
    out = np.fft.ifftn(spectrum, axes=(-3, -2, -1), norm="forward")
    return (2.0 * np.pi) ** 1.5 / modes.box_length**3 * out.real


def potential_field_values(modes: PhotonModeSet, n_grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Real potential A and rate Adot on the n_grid^3 box from the mode set."""
    A_modes, Adot_modes = potential_from_psi(modes)
    A, Adot = _grid_sums(modes, np.stack([A_modes, Adot_modes], axis=1), n_grid)
    return A, Adot


def field_energy(modes: PhotonModeSet, n_grid: int | None = None) -> float:
    """Energy by dense quadrature of (eps E^2 + mu H^2)/2 over the box.

    The grid defaults to default_grid of the largest wavevector index.
    """
    m = modes.medium
    if n_grid is None:
        n_grid = default_grid(int(np.max(np.abs(modes.indices()))))
    A_modes, Adot_modes = potential_from_psi(modes)
    coeffs = np.stack([-Adot_modes / m.c, np.cross(-1j * modes.k, A_modes) / m.mu], axis=1)
    E, H = _grid_sums(modes, coeffs, n_grid)
    w = 0.5 * (m.eps * np.sum(E**2, axis=0) + m.mu * np.sum(H**2, axis=0))
    dv = (modes.box_length / n_grid) ** 3
    return float(np.sum(w) * dv)
