"""Physical constants profiles.

The default profile is natural units (hbar = m = 1), which keeps all the
desk-scale problems in O(1) numbers.  An SI profile built from the standard
values h = 6.6261e-34 J s, k = 1.3807e-23 J/K, c = 2.998e8 m/s is available
for dimensional work; it requires an explicit particle mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ParameterError, positive

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit profile: hbar, h = 2*pi*hbar, default particle mass, k_B, c."""

    hbar: float = 1.0
    mass: float = 1.0
    boltzmann_k: float = 1.0
    light_c: float = 1.0
    h: float = field(default=0.0)

    def __post_init__(self):
        if self.h == 0.0:
            object.__setattr__(self, "h", _TWO_PI * self.hbar)
        for name in ("hbar", "h", "mass", "boltzmann_k", "light_c"):
            positive(name, getattr(self, name))
        if abs(self.h - _TWO_PI * self.hbar) > 1e-15 * self.h:
            raise ParameterError("h and hbar are inconsistent: h must equal 2*pi*hbar")


NATURAL = PhysicalConstants()

_H_SI = 6.6261e-34
_K_SI = 1.3807e-23
_C_SI = 2.998e8


def si_constants(mass: float) -> PhysicalConstants:
    """SI profile for a particle of the given mass in kilograms."""
    return PhysicalConstants(
        hbar=_H_SI / _TWO_PI,
        mass=mass,
        boltzmann_k=_K_SI,
        light_c=_C_SI,
        h=_H_SI,
    )
