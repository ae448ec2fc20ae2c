"""Relaxation of an isotropic photon distribution toward the thermal law.

The distribution f(p, t) counts quanta per phase-space volume at momentum
magnitude p with energy eps = v p.  Emission and absorption against matter
at temperature T enter as a gain G(eps, f) and a loss gamma f:

    df/dt = G(eps, f) - gamma f.

Three gain models, by what the matter does:

  rayleigh-jeans   G = gamma * (2/h^3) (kT/eps)          classical exchange
  wien             G = gamma * (2/h^3) exp(-eps/kT)      spontaneous only
  wien-stimulated  G = gamma * (2/h^3) exp(-eps/kT) * (1 + (h^3/2) f)

Stimulated gain makes the loss effectively gamma*(1 - exp(-eps/kT)) and the
fixed point becomes

    f_T(eps) = (2/h^3) / (exp(eps/kT) - 1),

whose spectral energy density is (8 pi h v / lambda^5) / (exp(hv/(lambda kT)) - 1).
Each momentum cell relaxes independently and the gain is affine in f, so
the time step is exact: f(t+dt) = f* + (f(t) - f*) exp(-gamma_eff dt).

Spatial streaming is a separate first-order upwind step that conserves the
cell sum exactly; it is not mixed into the relaxation update.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .units import UnitSystem

# The spectral energy density in the reduced wavelength u = lambda k_B T/(h v)
# goes as u^-5 / (e^(1/u) - 1).  It peaks where x = 1/u solves x = 5 (1 - e^-x),
# at x* = 5 + W0(-5 e^-5) with W0 the principal branch of Lambert W.
WIEN_X = 4.965114231744276
ZETA_3 = 1.2020569031595942  # Riemann zeta(3)


class SourceModel(str, enum.Enum):
    RAYLEIGH_JEANS = "rayleigh-jeans"
    WIEN = "wien"
    WIEN_STIMULATED = "wien-stimulated"
    NONE = "none"  # damping only: pure photon loss at rate gamma


@dataclass(frozen=True)
class KineticParams:
    """Exchange rate gamma, matter temperature, wave speed, and unit constants."""

    gamma: float
    temperature: float
    v: float = 1.0
    h: float = 2.0 * math.pi
    k_B: float = 1.0

    def __post_init__(self) -> None:
        if min(self.gamma, self.temperature, self.v, self.h, self.k_B) <= 0:
            raise ValueError("all kinetic parameters must be positive")

    @classmethod
    def in_units(
        cls, units: UnitSystem, gamma: float, temperature: float, v: float | None = None
    ) -> "KineticParams":
        return cls(
            gamma=gamma,
            temperature=temperature,
            v=units.c if v is None else v,
            h=units.h,
            k_B=units.k_B,
        )

    @property
    def p_thermal(self) -> float:
        """Thermal momentum k_B T / v."""
        return self.k_B * self.temperature / self.v

    def x_of(self, eps: np.ndarray | float) -> np.ndarray | float:
        """Dimensionless energy eps / (k_B T)."""
        return np.asarray(eps, dtype=float) / (self.k_B * self.temperature)


@dataclass(frozen=True)
class KineticState:
    """f sampled on a grid of momentum magnitudes p > 0."""

    p: np.ndarray
    f: np.ndarray
    t: float = 0.0

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if p.shape != f.shape or p.ndim != 1:
            raise ValueError("p and f must be 1-D arrays of equal length")
        if np.any(p <= 0):
            raise ValueError("momentum grid must be strictly positive")
        if np.any(f < 0):
            raise ValueError("f must be nonnegative")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "f", f)

    def eps(self, params: KineticParams) -> np.ndarray:
        return params.v * self.p


def planck_f(eps: np.ndarray | float, params: KineticParams) -> np.ndarray | float:
    """Thermal law (2/h^3) / (exp(eps/kT) - 1)."""
    return equilibrium_f(eps, params, SourceModel.WIEN_STIMULATED)


def equilibrium_f(
    eps: np.ndarray | float, params: KineticParams, model: SourceModel
) -> np.ndarray | float:
    """Fixed point of the relaxation for the given gain model."""
    model = SourceModel(model)
    x = np.asarray(params.x_of(eps))
    pref = 2.0 / params.h**3
    if model is SourceModel.RAYLEIGH_JEANS:
        out = pref / x
    elif model is SourceModel.WIEN:
        out = pref * np.exp(-x)
    elif model is SourceModel.NONE:
        out = np.zeros_like(x)
    else:
        # expm1 overflows to inf past x ~ 709, and pref/inf = 0 is the exact limit
        with np.errstate(over="ignore"):
            out = pref / np.expm1(x)
    return out if out.ndim else float(out)


def effective_rate(
    eps: np.ndarray | float, params: KineticParams, model: SourceModel
) -> np.ndarray | float:
    """Linear relaxation rate toward the fixed point; gamma except when
    stimulated gain cancels part of the loss."""
    model = SourceModel(model)
    x = np.asarray(params.x_of(eps))
    if model is SourceModel.WIEN_STIMULATED:
        out = params.gamma * (-np.expm1(-x))
    else:
        out = params.gamma * np.ones_like(x)
    return out if out.ndim else float(out)


def kinetic_rhs(
    eps: np.ndarray | float, f: np.ndarray | float, params: KineticParams, model: SourceModel
) -> np.ndarray | float:
    """df/dt = G(eps, f) - gamma f, with the gain G of the model."""
    model = SourceModel(model)
    x = np.asarray(params.x_of(eps))
    f = np.asarray(f, dtype=float)
    pref = params.gamma * 2.0 / params.h**3
    if model is SourceModel.RAYLEIGH_JEANS:
        gain = pref / x
    elif model is SourceModel.WIEN:
        gain = pref * np.exp(-x)
    elif model is SourceModel.NONE:
        gain = np.zeros_like(x)
    else:
        gain = pref * np.exp(-x) * (1.0 + (params.h**3 / 2.0) * f)
    out = np.asarray(gain - params.gamma * f)
    return out if out.ndim else float(out)


def kinetic_step(
    state: KineticState, params: KineticParams, dt: float, model: SourceModel
) -> KineticState:
    """Exact relaxation over dt: f -> f* + (f - f*) exp(-gamma_eff dt)."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    eps = state.eps(params)
    f_star = np.asarray(equilibrium_f(eps, params, model))
    rate = np.asarray(effective_rate(eps, params, model))
    decay = np.exp(-rate * dt)
    f_new = f_star + (state.f - f_star) * decay
    return KineticState(p=state.p, f=f_new, t=state.t + dt)


def relax_to_equilibrium(
    state: KineticState, params: KineticParams, model: SourceModel, n_folds: float = 30.0
) -> tuple[KineticState, float]:
    """Step far enough that every cell has decayed by n_folds e-foldings.

    Uses the slowest cell's rate, so the residual is at most
    exp(-n_folds) * |f0 - f*| everywhere.  Returns (state, elapsed time).
    """
    if n_folds <= 0:
        raise ValueError("n_folds must be positive")
    eps = state.eps(params)
    rate = np.asarray(effective_rate(eps, params, model))
    t = n_folds / float(np.min(rate))
    return kinetic_step(state, params, t, model), t


def spectral_energy_density(lam: np.ndarray | float, params: KineticParams) -> np.ndarray | float:
    """Energy per volume per wavelength at equilibrium:
    (8 pi h v / lambda^5) / (exp(h v / (lambda k_B T)) - 1)."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("wavelength must be positive")
    x = params.h * params.v / (lam * params.k_B * params.temperature)
    # exp(-x)/(1 - exp(-x)) = 1/expm1(x) without overflow at large x
    out = (8.0 * np.pi * params.h * params.v / lam**5) * np.exp(-x) / (-np.expm1(-x))
    return out if out.ndim else float(out)


def wien_peak(params: KineticParams) -> tuple[float, float]:
    """Wavelength of peak spectral energy and the dimensionless product
    lambda_max * p_thermal / hbar, in closed form.

    The peak sits at the reduced wavelength u* = lambda k_B T/(h v) = 1/WIEN_X,
    so the product is 2 pi / WIEN_X independent of temperature.
    """
    u_star = 1.0 / WIEN_X
    lam_max = u_star * params.h * params.v / (params.k_B * params.temperature)
    hbar = params.h / (2.0 * math.pi)
    return lam_max, lam_max * params.p_thermal / hbar


def thermal_photon_count(params: KineticParams) -> float:
    """Quanta per volume at equilibrium: integral of 4 pi p^2 f_T dp.

    In x = v p/(k_B T) the integral of x^2/(e^x - 1) is Gamma(3) zeta(3), so
    the closed form is 16 pi zeta(3) (p_thermal / h)^3.
    """
    return 16.0 * np.pi * ZETA_3 * (params.p_thermal / params.h) ** 3


def evolve_with_transport(
    f_xp: np.ndarray, p: np.ndarray, params: KineticParams, model: SourceModel,
    dt: float, dx: float, n_steps: int,
) -> np.ndarray:
    """Split-step relaxation plus streaming for f(x, p) on a periodic slab.

    f_xp has shape (n_x, n_p); every momentum column streams toward +x at
    the one speed params.v (massless quanta) and relaxes locally at its own
    rate.
    """
    f = np.array(f_xp, dtype=float)
    if f.ndim != 2 or f.shape[1] != p.size:
        raise ValueError("f_xp must have shape (n_x, len(p))")
    if dt < 0 or dx <= 0:
        raise ValueError("dt must be nonnegative and dx positive")
    cfl = params.v * dt / dx  # Courant number of the upwind step, >= 0 as v > 0
    if cfl > 1.0 + 1e-12:
        raise ValueError("CFL violated: v dt must not exceed dx")
    eps = params.v * np.asarray(p, dtype=float)
    f_star = np.asarray(equilibrium_f(eps, params, model))
    rate = np.asarray(effective_rate(eps, params, model))
    decay = np.exp(-rate * dt)
    for _ in range(n_steps):
        f = f - cfl * (f - np.roll(f, 1, axis=0))
        f = f_star[None, :] + (f - f_star[None, :]) * decay[None, :]
    return f
