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
pointwise values, so cylindrical_figures reduces the max-norms slab by slab
along one axis and gets the whole-mesh result bit for bit while holding one slab at a
time: the stencil checks take each slab with a one-point halo, the plane-mode
eigencheck takes it bare.  A plane mode's phase k.x is taken elementwise, so a
point's value does not depend on the mesh.  The plane mode and a private form of the
axial solution take three open axes too; the axial envelope then comes once per z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .em import MediumParams, _component_first, polarization_basis


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
        """U on a component-first mesh x, shape (3, ...), or on a tuple of its 3 open axes."""
        x0, x1, x2 = x if isinstance(x, tuple) else _component_first(x, "x", dtype=float)
        kx = self.k[0] * x0 + self.k[1] * x1 + self.k[2] * x2
        phase = np.exp(-1j * kx + 1j * self.sigma * self.omega(v) * t)
        pol = self.amplitude * self.polarization()
        return pol[(slice(None),) + (None,) * phase.ndim] * phase


def circular_complex_potential(A_perp: float, k: float, sigma: int, medium: MediumParams) -> ComplexPotentialMode:
    """Mode whose real potential sqrt(mu) Re U is the circular plane wave
    of amplitude A_perp running along the third axis."""
    if k <= 0:
        raise ValueError("k must be positive")
    amp = 1j * sigma * np.sqrt(2.0 / medium.mu) * A_perp
    return ComplexPotentialMode(k=np.array([0.0, 0.0, k]), sigma=sigma, amplitude=amp)


def _max_norm(U: np.ndarray, out: np.ndarray | None = None) -> float:
    """Largest pointwise vector norm of a component-first field, whose squared
    moduli go to out (a float array of U's shape) if given.

    sqrt is monotone and correctly rounded, so taking it after the max gives
    the max of the pointwise norms, NaN included.
    """
    squares = np.abs(U, out=out)
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


def cylindrical_solution(x: np.ndarray, k: float, v: float, t: float = 0.0) -> np.ndarray:
    """Axial Beltrami solution: curl U = k U and dU/dt = -i v curl U."""
    x = _component_first(x, "x", dtype=float)
    return _cylindrical_on_axes(x[0], x[1], x[2], k, v, t)


def _cylindrical_on_axes(x0, x1, x2, k, v, t=0.0, out=None) -> np.ndarray:
    """cylindrical_solution on three broadcastable coordinate arrays, into out if given.

    Each point's arithmetic is cylindrical_solution's; on open axes such as
    np.meshgrid(..., sparse=True) the envelope is evaluated once per z and
    x0 - i x1 once per (x, y).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    envelope = np.exp(1j * k * (x2 - v * t))
    if out is None:
        out = np.empty((3, *np.broadcast_shapes(np.shape(x0), np.shape(x1), envelope.shape)), complex)
    # as in stencil_curl's diff, a multiply by 1 / sqrt(2) is numpy's complex division by sqrt(2)
    np.multiply(np.multiply(x0 - 1j * x1, envelope, out=out[0]), 1.0 / np.sqrt(2.0), out=out[0])
    np.multiply(1j, out[0], out=out[1])
    out[2] = 1j * (np.sqrt(2.0) / k) * envelope
    return out


def stencil_curl(U: np.ndarray, spacing: float, out=None, scratch=None) -> np.ndarray:
    """Centered-difference curl on the interior of a uniform mesh.

    Input (3, nx, ny, nz); output (3, nx-2, ny-2, nz-2), into out if given, with
    scratch (one component's shape) if given.  No periodic wrap, so
    non-periodic analytic samples are handled correctly.
    """
    U = _component_first(U, "U", ndim=4)
    if min(U.shape[1:]) < 3:
        raise ValueError("need at least 3 points per axis")
    if spacing <= 0:
        raise ValueError("spacing must be positive")

    step = 2.0 * spacing
    shape = (3,) + tuple(n - 2 for n in U.shape[1:])
    curl = np.empty(shape, dtype=np.result_type(U.dtype, step)) if out is None else out
    scratch = np.empty_like(curl[0]) if scratch is None else scratch

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
    U0: np.ndarray, U1: np.ndarray, dt: float, spacing: float, v: float, take=lambda role, shape: None
) -> tuple[float, float]:
    """Max-norms of the defect of dU/dt = -i v curl U and of v curl U, the
    latter floored at 1e-300; their ratio is potential_equation_residual.
    take(role, shape) may hand out the arrays written, which numpy allocates on None.

    Both are maxima of pointwise values, so the parts of a mesh cut into slabs
    along one axis (each with a one-point halo) reduce to the whole mesh's parts.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    U0, U1 = np.asarray(U0), np.asarray(U1)
    if U0.shape != U1.shape:
        raise ValueError("snapshots must share a shape")
    lhs = np.subtract(interior(U1), interior(U0), out=take("inner", interior(U0).shape), dtype=complex)
    lhs *= 1.0 / dt
    mid = np.add(U0, U1, out=take("mid", U0.shape), dtype=complex)
    mid *= 0.5
    rhs = stencil_curl(mid, spacing, take("curl", lhs.shape), take("scratch", lhs.shape[1:]))
    rhs *= -1j * v
    lhs -= rhs
    norms = take("norms", lhs.shape)
    return _max_norm(lhs, norms), max(_max_norm(rhs, norms), 1e-300)


def potential_equation_residual(
    U0: np.ndarray, U1: np.ndarray, dt: float, spacing: float, v: float
) -> float:
    """Relative L-inf defect of dU/dt = -i v curl U between two snapshots.

    Centered in time and space; for exact samples the defect is the stencil
    truncation, of order (k dx)^2/6 + (omega dt)^2/24 relative to |curl U|.
    """
    num, den = _equation_parts(U0, U1, dt, spacing, v)
    return num / den


# bytes of a slab of cylindrical_figures: a slab of an n-plane mesh takes as many x-planes as
# this holds complex (3, n, n) planes of 48 n^2 bytes, and one at least
_SLAB_BYTES = 512 * 1024


def cylindrical_figures(plane_k, k, v, mesh_n, spacing, dt, center, precession=False) -> dict:
    """The stencil and eigenmode figures of the axial solution and a plane mode.

    The axial solution's figures: its Beltrami residual |curl U - k U| / |k U|
    at h and h/2 and their floored ratio, and its equation residual between
    U(0) and U(dt).  The plane mode's figures, for the sigma = +1 mode U of
    wavevector plane_k on the mesh_n^3 mesh (mesh_n >= 3) centered on center,
    built after the stencil slabs: its eigencheck for each helicity
    and, with precession, the defect of the free evolution over omega t = 0.7
    as a rigid precession of U about khat by -omega t, relative to max|U|.
    Every figure is a ratio of maxima reduced slab by slab (_SLAB_BYTES sets
    the x-planes; the stencil checks take as many interior planes with a
    one-plane halo); a max does not depend on the visiting order, so each
    equals its whole-mesh value bit for bit.  The axial
    solution is evaluated on open meshes, and the stencil slabs of a mesh write
    into one workspace: a flat buffer per role, reshaped for each slab.
    """
    def axes(n, h):
        s = (np.arange(n) - (n - 1) / 2.0) * h
        return [s + c for c in center]

    def slabs(n, h, halo=1):
        ax, planes = axes(n, h), max(1, _SLAB_BYTES // (48 * n * n))
        for i0 in range(halo, n - halo, planes):
            i1 = min(i0 + planes, n - halo)
            yield np.meshgrid(ax[0][i0 - halo : i1 + halo], ax[1], ax[2], indexing="ij", sparse=True)

    def take(role, shape):
        # a mesh's first slab is its largest, so a role's buffer allocated there fits every slab
        if role not in work:
            work[role] = np.empty(math.prod(shape), float if role == "norms" else complex)
        return work[role][: math.prod(shape)].reshape(shape)

    def solution(xs, t=0.0, role="U0"):
        return _cylindrical_on_axes(*xs, k, v, t, out=take(role, (3, *(x.size for x in xs))))

    def beltrami(U, h):
        inner = interior(U)
        defect = stencil_curl(U, h, take("curl", inner.shape), take("scratch", inner.shape[1:]))
        defect -= np.multiply(k, inner, out=take("inner", inner.shape))
        norms = take("norms", inner.shape)
        return _max_norm(defect, norms), _max_norm(inner, norms)

    def ratio(parts, scale=1.0):
        # np.max, unlike max(), keeps a NaN met in any one slab
        num, den = np.max(np.asarray(parts), axis=0)
        return float(num) / (scale * float(den))

    def coarse_parts(xs):
        U0, U1 = solution(xs), solution(xs, dt, "U1")
        return _equation_parts(U0, U1, dt, spacing, v, take), beltrami(U0, spacing)

    def plane_parts(xs):
        U = mode.evaluate(xs, v=v)
        parts = [_eigencheck_parts(U, mode.k, sigma) for sigma in (1, -1)]
        if precession:
            rotated = rotate_field(U, plane_k / np.linalg.norm(plane_k), -0.7)
            parts.append((np.max(np.abs(rotated - U * np.exp(0.7j))), np.max(np.abs(U))))
        return parts

    work = {}
    equation, coarse = zip(*(coarse_parts(xs) for xs in slabs(mesh_n, spacing)))
    # halve the spacing on the same physical cube to expose the stencil order; emptied, the
    # workspace is sized again by this mesh's first slab
    work.clear()
    fine = [beltrami(solution(xs), spacing / 2.0) for xs in slabs(2 * mesh_n - 1, spacing / 2.0)]
    r1, r2 = ratio(coarse, k), ratio(fine, k)
    mode = ComplexPotentialMode(k=plane_k, sigma=1)
    same, opposite, *precessed = zip(*(plane_parts(xs) for xs in slabs(mesh_n, spacing, halo=0)))
    figures = {
        "beltrami_residual": r1,
        "beltrami_residual_half_h": r2,
        "stencil_order_ratio": r1 / max(r2, 1e-300),
        "equation_residual": ratio(equation),
        "eigencheck_same": ratio(same),
        "eigencheck_opposite": ratio(opposite),
    }
    if precession:
        figures["precession_phase"] = ratio(precessed[0])
    return figures
