"""Helicity eigenfields of the complex vector potential.

The complex potential U carries the real transverse potential as
A = sqrt(mu) (U + U*)/2 and obeys the same curl equation as the field,

    dU/dt = -i v curl U,        F = i curl U.

Plane modes U = amp * e_sigma(k) exp(-i k.x) built on the circular basis
e_sigma = (e1 + i sigma e2)/sqrt(2) are helicity eigenvectors,

    k x U = -i sigma |k| U,     curl U = -sigma |k| U,

so sigma = +1 and -1 never mix under free evolution; time dependence is a
pure phase exp(+i sigma omega t), which equals a rigid precession of the
polarization about khat by angle -omega t.

A non-plane closed form on the axis of symmetry:

    U = exp(ik(z - vt)) * ( (x - iy)/sqrt(2), i(x - iy)/sqrt(2), i sqrt(2)/k )

is divergence-free and Beltrami, curl U = k U, hence F = i k U.

Gridded checks use plain centered differences (second order, no wraparound;
results live on the interior of the mesh) so that discretization error is
explicit and scales as (k h)^2 / 6.  Each check is a ratio of max-norms of
pointwise values, so a caller may reduce the max-norms slab by slab along one
axis and get the whole-mesh result bit for bit while holding one slab at a
time: the stencil checks take each slab with a one-point halo, the plane-mode
eigencheck takes it bare.  A private form of the axial solution takes three
broadcastable axes, so on an open mesh its envelope is evaluated once per z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .em import MediumParams, _component_first, polarization_basis

# Size limit, checked before anything is allocated (README "Size limits").
MAX_MESH_POINTS = 2**24  # n^3 points of a gridded check: n <= 256


def check_mesh_size(n: int) -> None:
    """Refuse a mesh whose n^3 points exceed MAX_MESH_POINTS."""
    if n**3 > MAX_MESH_POINTS:
        raise ValueError(
            f"a mesh of {n}^3 = {n**3} points is over MAX_MESH_POINTS = {MAX_MESH_POINTS}"
        )


@dataclass(frozen=True)
class ComplexPotentialMode:
    """Plane-wave helicity eigenmode: wavevector k, helicity sigma, amplitude."""

    k: np.ndarray
    sigma: int
    amplitude: complex = 1.0

    def __post_init__(self) -> None:
        k = np.asarray(self.k, dtype=float)
        if k.shape != (3,) or not np.linalg.norm(k) > 0:
            raise ValueError("k must be a nonzero 3-vector")
        if self.sigma not in (-1, 1):
            raise ValueError("sigma must be +1 or -1")
        object.__setattr__(self, "k", k)

    def polarization(self) -> np.ndarray:
        e1, e2, _ = polarization_basis(self.k)
        return (e1 + 1j * self.sigma * e2) / np.sqrt(2.0)

    def omega(self, v: float) -> float:
        return v * float(np.linalg.norm(self.k))

    def evaluate(self, x: np.ndarray, t: float = 0.0, v: float = 1.0) -> np.ndarray:
        """U on a component-first mesh x of shape (3, ...)."""
        x = _component_first(x, "x", dtype=float)
        phase = np.exp(-1j * np.tensordot(self.k, x, axes=(0, 0)) + 1j * self.sigma * self.omega(v) * t)
        pol = self.amplitude * self.polarization()
        return pol[(slice(None),) + (None,) * phase.ndim] * phase


def circular_complex_potential(A_perp: float, k: float, sigma: int, medium: MediumParams) -> ComplexPotentialMode:
    """Mode whose real potential sqrt(mu) Re U is the circular plane wave
    of amplitude A_perp running along the third axis."""
    if k <= 0:
        raise ValueError("k must be positive")
    amp = 1j * sigma * np.sqrt(2.0 / medium.mu) * A_perp
    return ComplexPotentialMode(k=np.array([0.0, 0.0, k]), sigma=sigma, amplitude=amp)


def _max_norm(U: np.ndarray) -> float:
    """Largest pointwise vector norm of a component-first field.

    sqrt is monotone and correctly rounded, so taking it after the max gives
    the max of the pointwise norms, NaN included.
    """
    squares = np.abs(U)
    np.square(squares, out=squares)
    return float(np.sqrt(np.max(np.sum(squares, axis=0))))


def _eigencheck_parts(U: np.ndarray, k: np.ndarray, sigma: int) -> tuple[float, float]:
    """Max-norms of the defect k x U + i sigma |k| U and of |k| U, the latter
    floored at 1e-300; their ratio is helicity_eigencheck.

    Both are maxima of pointwise values, so the parts of a mesh cut into slabs
    reduce to the whole mesh's parts.
    """
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    U = _component_first(U, "U")
    k = np.asarray(k, dtype=float)
    norm = float(np.linalg.norm(k))
    if norm == 0:
        raise ValueError("k must be nonzero")
    defect = np.cross(k, U, axisb=0, axisc=0) + 1j * sigma * norm * U
    return _max_norm(defect), max(norm * _max_norm(U), 1e-300)


def helicity_eigencheck(U: np.ndarray, k: np.ndarray, sigma: int) -> float:
    """Max relative defect of k x U = -i sigma |k| U over the sampled points.

    Zero (to round-off) for a sigma eigenfield; exactly 2 for the opposite
    helicity.
    """
    num, den = _eigencheck_parts(U, k, sigma)
    return num / den


def rotate_field(U: np.ndarray, axis: np.ndarray, theta: float) -> np.ndarray:
    """Rotate the vector value at every point about `axis` by angle theta."""
    U = _component_first(U, "U")
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    adotU = a[0] * U[0] + a[1] * U[1] + a[2] * U[2]
    return (
        U * np.cos(theta)
        + np.cross(a, U, axisb=0, axisc=0) * np.sin(theta)
        + a[(slice(None),) + (None,) * (U.ndim - 1)] * adotU * (1.0 - np.cos(theta))
    )


def cylindrical_solution(
    x: np.ndarray, k: float, v: float, t: float = 0.0, scale: float = 1.0
) -> np.ndarray:
    """Axial Beltrami solution: curl U = k U and dU/dt = -i v curl U."""
    x = _component_first(x, "x", dtype=float)
    return _cylindrical_on_axes(x[0], x[1], x[2], k, v, t, scale)


def _cylindrical_on_axes(x0, x1, x2, k, v, t=0.0, scale=1.0) -> np.ndarray:
    """cylindrical_solution on three broadcastable coordinate arrays.

    Each point's arithmetic is cylindrical_solution's; on open axes such as
    np.meshgrid(..., sparse=True) the envelope is evaluated once per z and
    x0 - i x1 once per (x, y).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    envelope = np.exp(1j * k * (x2 - v * t))
    u = np.empty((3, *np.broadcast_shapes(np.shape(x0), np.shape(x1), envelope.shape)), complex)
    np.divide(scale * (x0 - 1j * x1) * envelope, np.sqrt(2.0), out=u[0])
    np.multiply(1j, u[0], out=u[1])
    u[2] = 1j * (np.sqrt(2.0) / k) * scale * envelope
    return u


def stencil_curl(U: np.ndarray, spacing: float) -> np.ndarray:
    """Centered-difference curl on the interior of a uniform mesh.

    Input (3, nx, ny, nz); output (3, nx-2, ny-2, nz-2).  No periodic wrap,
    so non-periodic analytic samples are handled correctly.
    """
    U = _component_first(U, "U", ndim=4)
    if min(U.shape[1:]) < 3:
        raise ValueError("need at least 3 points per axis")
    if spacing <= 0:
        raise ValueError("spacing must be positive")

    step = 2.0 * spacing
    curl = np.empty((3,) + tuple(n - 2 for n in U.shape[1:]), dtype=np.result_type(U.dtype, step))
    scratch = np.empty_like(curl[0])

    def diff(comp: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
        hi = [slice(1, -1)] * 3
        lo = [slice(1, -1)] * 3
        hi[axis] = slice(2, None)
        lo[axis] = slice(0, -2)
        np.subtract(comp[tuple(hi)], comp[tuple(lo)], out=out)
        # numpy divides a complex array by a real s as by (s, 0), which multiplies by 1 / s
        return np.multiply(out, 1.0 / step, out=out)

    np.subtract(diff(U[2], 1, curl[0]), diff(U[1], 2, scratch), out=curl[0])
    np.subtract(diff(U[0], 2, curl[1]), diff(U[2], 0, scratch), out=curl[1])
    np.subtract(diff(U[1], 0, curl[2]), diff(U[0], 1, scratch), out=curl[2])
    return curl


def interior(U: np.ndarray) -> np.ndarray:
    """Trim the one-point margin that stencil_curl consumes."""
    return np.asarray(U)[:, 1:-1, 1:-1, 1:-1]


def _equation_parts(
    U0: np.ndarray, U1: np.ndarray, dt: float, spacing: float, v: float
) -> tuple[float, float]:
    """Max-norms of the defect of dU/dt = -i v curl U and of v curl U, the
    latter floored at 1e-300; their ratio is potential_equation_residual.

    Both are maxima of pointwise values, so the parts of a mesh cut into slabs
    along one axis (each with a one-point halo) reduce to the whole mesh's parts.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    U0 = np.asarray(U0)
    U1 = np.asarray(U1)
    if U0.shape != U1.shape:
        raise ValueError("snapshots must share a shape")
    lhs = (interior(U1) - interior(U0)) * (1.0 / dt)
    rhs = -1j * v * stencil_curl(0.5 * (U0 + U1), spacing)
    return _max_norm(lhs - rhs), max(_max_norm(rhs), 1e-300)


def potential_equation_residual(
    U0: np.ndarray, U1: np.ndarray, dt: float, spacing: float, v: float
) -> float:
    """Relative L-inf defect of dU/dt = -i v curl U between two snapshots.

    Centered in time and space; for exact samples the defect is the stencil
    truncation, of order (k dx)^2/6 + (omega dt)^2/24 relative to |curl U|.
    """
    num, den = _equation_parts(U0, U1, dt, spacing, v)
    return num / den
