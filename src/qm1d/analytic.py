"""Closed-form results: wave packets, box and oscillator spectra, barrier
scattering, and the early phenomenology formulas.

These are the reference values the numerical modules are validated against,
and they are exposed to the CLI in their own right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import lgamma

import numpy as np

from .constants import NATURAL, PhysicalConstants
from .errors import ParameterError, positive

HERMITE_MAX_DEGREE = 64


# ---------------------------------------------------------------------------
# Gaussian wave packets


@dataclass(frozen=True)
class GaussianPacketParams:
    """Free Gaussian packet exp(i k0 x) * sqrt(pi/alpha) * exp(-x^2/(4 alpha)).

    alpha sets the spatial width, k0 the carrier wavenumber.  The derived
    quantities are the group velocity v_g = hbar k0 / m and the dispersion
    rate beta = hbar / (2 m).
    """

    alpha: float
    k0: float
    mass: float = 1.0
    constants: PhysicalConstants = NATURAL

    def __post_init__(self):
        positive("alpha", self.alpha)
        positive("mass", self.mass)

    @property
    def group_velocity(self) -> float:
        return self.constants.hbar * self.k0 / self.mass

    @property
    def dispersion_rate(self) -> float:
        return self.constants.hbar / (2.0 * self.mass)


def gaussian_packet_x(params: GaussianPacketParams, x):
    """Unnormalized packet at t = 0."""
    x = np.asarray(x, dtype=float)
    envelope = math.sqrt(math.pi / params.alpha) * np.exp(-(x**2) / (4.0 * params.alpha))
    return np.exp(1j * params.k0 * x) * envelope


def free_packet_xt(params: GaussianPacketParams, x, t: float):
    """Packet after free evolution: the width parameter becomes alpha + i beta t."""
    x = np.asarray(x, dtype=float)
    alpha_t = params.alpha + 1j * params.dispersion_rate * t
    omega0 = params.constants.hbar * params.k0**2 / (2.0 * params.mass)
    carrier = np.exp(1j * (params.k0 * x - omega0 * t))
    moving = x - params.group_velocity * t
    return carrier * np.sqrt(np.pi / alpha_t) * np.exp(-(moving**2) / (4.0 * alpha_t))


def packet_width(params: GaussianPacketParams, t: float) -> float:
    """1/e full width of |packet|^2 in x: 2 sqrt(2 alpha) sqrt(1 + beta^2 t^2 / alpha^2)."""
    beta = params.dispersion_rate
    return 2.0 * math.sqrt(2.0 * params.alpha) * math.sqrt(1.0 + (beta * t / params.alpha) ** 2)


def packet_spectral_width(params: GaussianPacketParams) -> float:
    """1/e full width of the k-space weight: 2 / sqrt(2 alpha)."""
    return 2.0 / math.sqrt(2.0 * params.alpha)


# ---------------------------------------------------------------------------
# Infinite well


def well_energy(n: int, a: float, constants: PhysicalConstants = NATURAL) -> float:
    """E_n = n^2 pi^2 hbar^2 / (2 m a^2), n = 1, 2, 3, ..."""
    if n < 1:
        raise ParameterError(f"well levels start at n = 1, got {n}")
    positive("well width", a)
    return (n * math.pi * constants.hbar) ** 2 / (2.0 * constants.mass * a**2)


def well_state(n: int, a: float, x):
    """Normalized eigenfunction sqrt(2/a) sin(n pi x / a); zero outside [0, a]."""
    if n < 1:
        raise ParameterError(f"well levels start at n = 1, got {n}")
    positive("well width", a)
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= a)
    out = np.zeros_like(x)
    out[inside] = math.sqrt(2.0 / a) * np.sin(n * math.pi * x[inside] / a)
    return out


# ---------------------------------------------------------------------------
# Rectangular barrier


@dataclass(frozen=True)
class ScatteringResult:
    """Reflection/transmission amplitudes for unit incidence from the left.

    c_plus and c_minus are the interior coefficients of exp(+beta x) and
    exp(-beta x) (below the barrier top), of exp(+i kB x) and exp(-i kB x)
    (above it), or the constant and slope of the linear interior solution at
    the E = V0 branch.  They are None when not applicable.
    """

    r: complex
    t: complex
    prob_r: float
    prob_t: float
    energy: float
    c_plus: complex | None = None
    c_minus: complex | None = None


_EQUAL_ENERGY_RTOL = 1e-12


def _equal_energies(E, V):
    """Elementwise E == V to _EQUAL_ENERGY_RTOL of the larger magnitude: where
    a constant-potential region takes its linear (E = V) solution."""
    return np.abs(E - V) <= _EQUAL_ENERGY_RTOL * np.maximum(np.abs(E), np.abs(V))


def barrier_scattering(
    E: float,
    v0: float,
    a: float,
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> ScatteringResult:
    """Closed-form R, T for the rectangular barrier of height v0 on [0, a].

    One code path covers both E < v0 (evanescent interior, real beta) and
    E > v0 (oscillatory interior) through the complex continuation
    beta = sqrt(2 m (v0 - E) + 0j) / hbar.  The degenerate E = v0 case uses
    the sinh(a beta)/beta -> a limit, where the interior solution is linear.
    """
    positive("energy", E)
    positive("barrier height and width", v0, a)
    positive("mass", mass)
    hbar = constants.hbar
    k = math.sqrt(2.0 * mass * E) / hbar

    if _equal_energies(E, v0):
        denom = 2.0j * k + k * k * a
        r = k * k * a / denom
        t = 2.0j * k * np.exp(-1j * k * a) / denom
        c_plus = 1.0 + r          # constant term of the linear interior solution
        c_minus = 1j * k * (1.0 - r)  # slope
    else:
        beta = np.sqrt(np.complex128(2.0 * mass * (v0 - E))) / hbar
        # Scale by exp(-a beta) so nothing overflows for thick barriers.
        e2 = np.exp(-2.0 * a * beta)
        denom = 0.5 * (k * k - beta * beta) * (1.0 - e2) + 1j * k * beta * (1.0 + e2)
        r = 0.5 * (k * k + beta * beta) * (1.0 - e2) / denom
        t = 2.0j * k * beta * np.exp(-1j * k * a) * np.exp(-a * beta) / denom
        c_plus = -k * (k - 1j * beta) * e2 / denom
        c_minus = k * (k + 1j * beta) / denom

    return ScatteringResult(
        r=complex(r),
        t=complex(t),
        prob_r=abs(complex(r)) ** 2,
        prob_t=abs(complex(t)) ** 2,
        energy=float(E),
        c_plus=complex(c_plus),
        c_minus=complex(c_minus),
    )


# ---------------------------------------------------------------------------
# Harmonic oscillator


def hermite(n: int, q):
    """Physicists' Hermite polynomial by the upward recurrence
    H_{k+1} = 2 q H_k - 2 k H_{k-1}.

    Capped at degree 64: coefficient growth would hit double-precision
    overflow well before degree 150, and 64 leaves ample headroom.
    """
    if n < 0:
        raise ParameterError(f"Hermite degree must be non-negative, got {n}")
    if n > HERMITE_MAX_DEGREE:
        raise ParameterError(
            f"Hermite degree {n} exceeds the supported maximum {HERMITE_MAX_DEGREE}"
        )
    q = np.asarray(q, dtype=float)
    h_prev = np.ones_like(q)
    if n == 0:
        return h_prev
    h = 2.0 * q
    for k in range(1, n):
        h, h_prev = 2.0 * q * h - 2.0 * k * h_prev, h
    return h


def oscillator_energy(n: int, omega: float, constants: PhysicalConstants = NATURAL) -> float:
    """E_n = (n + 1/2) hbar omega, n = 0, 1, 2, ..."""
    if n < 0:
        raise ParameterError(f"oscillator levels start at n = 0, got {n}")
    positive("omega", omega)
    return (n + 0.5) * constants.hbar * omega


def oscillator_state(
    n: int,
    mass: float,
    omega: float,
    constants: PhysicalConstants,
    x,
):
    """Normalized eigenfunction N_n exp(-q^2/2) H_n(q), q = x sqrt(m omega / hbar).

    N_n is evaluated through log-factorials so degrees beyond ~20 do not
    overflow.
    """
    positive("mass and omega", mass, omega)
    x = np.asarray(x, dtype=float)
    scale = math.sqrt(mass * omega / constants.hbar)
    q = np.atleast_1d(scale * x)
    log_norm = 0.25 * math.log(mass * omega / (constants.hbar * math.pi)) - 0.5 * (
        n * math.log(2.0) + lgamma(n + 1)
    )
    envelope = np.exp(log_norm - 0.5 * q * q)
    # Where the envelope underflows the state is zero; skip H_n there so its
    # polynomial growth cannot turn 0 * inf into nan.
    out = np.zeros_like(envelope)
    alive = envelope > 0.0
    out[alive] = envelope[alive] * hermite(n, q[alive])
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# Phenomenology


def blackbody_density(
    nu: float,
    temperature: float,
    model: str,
    constants: PhysicalConstants,
) -> float:
    """Spectral energy density u(nu, T) for the Planck or Rayleigh-Jeans law."""
    positive("frequency and temperature", nu, temperature)
    k_t = constants.boltzmann_k * temperature
    c3 = constants.light_c**3
    if model == "rayleigh_jeans":
        return 8.0 * math.pi * nu**2 * k_t / c3
    if model == "planck":
        return 8.0 * math.pi * constants.h * nu**3 / (c3 * math.expm1(constants.h * nu / k_t))
    raise ParameterError(f"unknown blackbody model {model!r}")


def photoelectric_kinetic(nu: float, work_function: float, constants: PhysicalConstants) -> float:
    """Kinetic energy h nu - W of an emitted electron; negative means no emission."""
    return constants.h * nu - work_function


def de_broglie_wavelength(p: float, constants: PhysicalConstants) -> float:
    """lambda = h / p."""
    positive("momentum", p)
    return constants.h / p


def bohr_frequency(energy: float, energy_final: float, constants: PhysicalConstants) -> float:
    """Transition frequency nu = (E - E') / h."""
    return (energy - energy_final) / constants.h


def sommerfeld_wilson_oscillator_energy(
    n: int, omega: float, constants: PhysicalConstants = NATURAL
) -> float:
    """Semiclassical oscillator level E = n hbar omega from the action rule
    (the orbit integral of p dq equals 2 pi E / omega = n h)."""
    if n < 1:
        raise ParameterError(f"the action rule starts at n = 1, got {n}")
    positive("omega", omega)
    return n * constants.hbar * omega
