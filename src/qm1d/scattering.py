"""Reflection and transmission for piecewise-constant potentials.

Each region carries a two-component amplitude for its forward and backward
basis solutions; 2x2 interface matrices chain them left to right by
matching the wavefunction and its derivative.  Amplitudes are referenced to
the left edge of each region, and evanescent regions have their exponential
growth factored into a separate log-domain scale, so thick barriers neither
overflow nor lose the transmitted amplitude to cancellation: with the total
chain M, the results are R = -M21/M22 and T = det(M)/M22, where det(M)
telescopes to k_left/k_right.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import _EQUAL_ENERGY_RTOL, ScatteringResult
from .constants import NATURAL, PhysicalConstants
from .errors import ParameterError, UnsupportedMethodError
from .potentials import Potential, segment_list

_SCALE_EXTRACT_THRESHOLD = 300.0


@dataclass(frozen=True)
class RegionWave:
    """Solution in one constant-potential region.

    kind "exp": psi = f * exp(i k (x - x_ref)) + b * exp(-i k (x - x_ref)),
    with k real above the local potential and i*beta below it.
    kind "linear": psi = f + b * (x - x_ref), the E = V degenerate branch.
    """

    wavenumber: complex
    forward: complex
    backward: complex
    x_ref: float
    x_start: float
    x_end: float
    kind: str

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.x_ref
        if self.kind == "linear":
            return self.forward + self.backward * d
        k = self.wavenumber
        return self.forward * np.exp(1j * k * d) + self.backward * np.exp(-1j * k * d)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.x_ref
        if self.kind == "linear":
            return np.full(d.shape, self.backward, dtype=np.complex128)
        k = self.wavenumber
        return 1j * k * (
            self.forward * np.exp(1j * k * d) - self.backward * np.exp(-1j * k * d)
        )


def _region_layout(potential: Potential) -> tuple[list[float], list[float]]:
    """Interface positions and the constant potential of every region.

    A potential with no finite interfaces (uniform everywhere) yields an
    empty interface list and a single region value.
    """
    segments = segment_list(potential)
    interfaces: list[float] = []
    for start, end, _ in segments:
        for bound in (start, end):
            if math.isfinite(bound) and (not interfaces or bound > interfaces[-1]):
                interfaces.append(bound)

    def value_at(x: float) -> float:
        for start, end, v in segments:
            if start <= x < end:
                return v
        return 0.0

    if not interfaces:
        return [], [value_at(0.0)]
    probes = [interfaces[0] - 1.0]
    for left, right in zip(interfaces[:-1], interfaces[1:]):
        probes.append(0.5 * (left + right))
    probes.append(interfaces[-1] + 1.0)
    return interfaces, [value_at(x) for x in probes]


def _basis_matrix(kind: str, k: complex, delta: float, shift: float = 0.0) -> np.ndarray:
    """Values and derivatives of the two basis solutions at offset delta.

    `shift` subtracts a real log-scale inside the exponent, so strongly
    evanescent regions never overflow; callers account for exp(shift)
    separately.
    """
    if kind == "linear":
        return np.array([[1.0, delta], [0.0, 1.0]], dtype=np.complex128)
    up = np.exp(1j * k * delta - shift)
    down = np.exp(-1j * k * delta - shift)
    return np.array([[up, down], [1j * k * up, -1j * k * down]], dtype=np.complex128)


def _wavenumbers(E: float, region_v: list[float], mass: float, hbar: float):
    kinds: list[str] = []
    ks: list[complex] = []
    for v in region_v:
        if abs(E - v) <= _EQUAL_ENERGY_RTOL * max(abs(E), abs(v)):
            kinds.append("linear")
            ks.append(0.0)
        else:
            kinds.append("exp")
            ks.append(complex(np.sqrt(np.complex128(2.0 * mass * (E - v))) / hbar))
    return kinds, ks


def _validated_layout(potential, E, mass, constants):
    if E <= 0.0:
        raise ParameterError(f"energy must be positive, got {E}")
    interfaces, region_v = _region_layout(potential)
    v_left, v_right = region_v[0], region_v[-1]
    if v_left != v_right:
        raise UnsupportedMethodError(
            f"asymptotic potentials differ ({v_left} vs {v_right}); "
            "flux-normalized transmission is not supported"
        )
    if E <= max(v_left, v_right):
        raise ParameterError(
            f"E={E} does not propagate in the asymptotic regions (V={v_left}); "
            "the incident channel is evanescent"
        )
    kinds, ks = _wavenumbers(E, region_v, mass, constants.hbar)
    # Region 0 is referenced to its right edge, every later region to its
    # left edge, so interface matrices only contain one region's width.
    refs = ([interfaces[0]] + interfaces) if interfaces else []
    return interfaces, region_v, kinds, ks, refs


def transfer_scattering(
    potential: Potential,
    E: float,
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> ScatteringResult:
    """R, T of a piecewise-constant stack for unit incidence from the left."""
    interfaces, region_v, kinds, ks, refs = _validated_layout(potential, E, mass, constants)
    if not interfaces:
        # Uniform potential: the incident wave is transmitted unchanged.
        return ScatteringResult(
            r=0.0 + 0.0j, t=1.0 + 0.0j, prob_r=0.0, prob_t=1.0, energy=float(E)
        )

    log_scale = 0.0
    m_total = np.eye(2, dtype=np.complex128)
    m_after_first = None
    for j, x_c in enumerate(interfaces):
        delta = x_c - refs[j]
        shift = 0.0
        if kinds[j] == "exp" and ks[j].real == 0.0:
            beta_w = ks[j].imag * delta
            if beta_w > _SCALE_EXTRACT_THRESHOLD:
                shift = beta_w
                log_scale += beta_w
        w_left = _basis_matrix(kinds[j], ks[j], delta, shift)
        w_right = _basis_matrix(kinds[j + 1], ks[j + 1], x_c - refs[j + 1])
        m_total = np.linalg.solve(w_right, w_left) @ m_total
        if j == 0:
            m_after_first = m_total.copy()

    k0, km = ks[0], ks[-1]
    x0, xm = interfaces[0], interfaces[-1]
    r = complex(-(m_total[1, 0] / m_total[1, 1]) * cmath.exp(2j * k0 * x0))
    # T from the determinant identity avoids the catastrophic cancellation of
    # M11 - M12 M21 / M22 for strongly evanescent stacks.
    det_total = (k0 / km) * math.exp(-log_scale)
    t = complex(cmath.exp(1j * k0 * (x0 - xm)) * det_total / m_total[1, 1])

    c_plus = c_minus = None
    if len(region_v) == 3 and x0 == 0.0:
        a0 = cmath.exp(1j * k0 * x0)
        b0 = r * cmath.exp(-1j * k0 * x0)
        pair = m_after_first @ np.array([a0, b0], dtype=np.complex128)
        f1, b1 = complex(pair[0]), complex(pair[1])
        if kinds[1] == "exp" and ks[1].real == 0.0:
            # Below the barrier top the forward basis decays, so the
            # exp(+beta x) coefficient is the backward amplitude.
            c_plus, c_minus = b1, f1
        else:
            c_plus, c_minus = f1, b1

    return ScatteringResult(
        r=r,
        t=t,
        prob_r=abs(r) ** 2,
        prob_t=abs(t) ** 2,
        energy=float(E),
        c_plus=c_plus,
        c_minus=c_minus,
    )


def region_waves(
    potential: Potential,
    E: float,
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> list[RegionWave]:
    """The fully assembled per-region solution, outermost regions included.

    Chains amplitudes without log-domain rescaling, so it is intended for
    inspection and plotting at moderate opacities.
    """
    interfaces, region_v, kinds, ks, refs = _validated_layout(potential, E, mass, constants)
    result = transfer_scattering(potential, E, mass, constants)
    if not interfaces:
        return [
            RegionWave(
                wavenumber=ks[0], forward=1.0 + 0.0j, backward=0.0j,
                x_ref=0.0, x_start=-math.inf, x_end=math.inf, kind=kinds[0],
            )
        ]

    bounds = [-math.inf] + list(interfaces) + [math.inf]
    k0, x0 = ks[0], interfaces[0]
    pair = np.array(
        [cmath.exp(1j * k0 * x0), result.r * cmath.exp(-1j * k0 * x0)],
        dtype=np.complex128,
    )
    waves = [
        RegionWave(
            wavenumber=ks[0],
            forward=complex(pair[0]),
            backward=complex(pair[1]),
            x_ref=refs[0],
            x_start=bounds[0],
            x_end=bounds[1],
            kind=kinds[0],
        )
    ]
    for j, x_c in enumerate(interfaces):
        w_left = _basis_matrix(kinds[j], ks[j], x_c - refs[j])
        w_right = _basis_matrix(kinds[j + 1], ks[j + 1], x_c - refs[j + 1])
        pair = np.linalg.solve(w_right, w_left) @ pair
        waves.append(
            RegionWave(
                wavenumber=ks[j + 1],
                forward=complex(pair[0]),
                backward=complex(pair[1]),
                x_ref=refs[j + 1],
                x_start=bounds[j + 1],
                x_end=bounds[j + 2],
                kind=kinds[j + 1],
            )
        )
    return waves


def transmission_sweep(
    potential: Potential,
    energies: Sequence[float],
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> list[ScatteringResult]:
    """transfer_scattering over a list of energies, in input order."""
    rows = []
    for i, E in enumerate(energies):
        try:
            rows.append(transfer_scattering(potential, float(E), mass, constants))
        except Exception as exc:
            raise type(exc)(f"sweep row {i} (E={E}): {exc}") from exc
    return rows
