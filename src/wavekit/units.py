"""Unit presets: natural units for tests, a meV/ps/um/K system for physical runs."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class UnitSystem:
    """Base constants of a unit system.

    hbar : reduced action quantum (energy * time)
    c    : vacuum light speed (length / time)
    k_B  : Boltzmann constant (energy / temperature)
    """

    hbar: float
    c: float
    k_B: float

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


PRESETS = {
    # hbar = c = k_B = 1
    "natural": UnitSystem(hbar=1.0, c=1.0, k_B=1.0),
    # meV / ps / um / K: h = 4.1 meV ps, c in um per ps, k_B = 0.086 meV/K
    "mev-ps": UnitSystem(hbar=4.1 / (2.0 * math.pi), c=299.792458, k_B=0.086),
}


def get_units(name: str) -> UnitSystem:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown unit preset {name!r}; choose from {sorted(PRESETS)}") from None
