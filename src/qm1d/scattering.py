"""Reflection and transmission for piecewise-constant potentials.

Each region carries a two-component amplitude for its forward and backward
basis solutions; 2x2 interface matrices chain them left to right by
matching the wavefunction and its derivative (Ando & Itoh, J. Appl. Phys.
61, 1497 (1987)).  One kernel does this for an array of energies at once:
``transmission_sweep`` is that kernel and ``transfer_scattering`` its
one-energy case.  Amplitudes are referenced to the left edge of each region,
and evanescent regions have their exponential growth factored into a
separate log-domain scale, so thick barriers neither overflow nor lose the
transmitted amplitude to cancellation: with the total chain M, the results
are R = -M21/M22 and T = det(M)/M22, where det(M) telescopes to
k_left/k_right.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import ScatteringResult, _equal_energies
from .constants import NATURAL, PhysicalConstants
from .errors import ParameterError, UnsupportedMethodError, positive
from .potentials import Potential, segment_list

_SCALE_EXTRACT_THRESHOLD = 300.0
# region_waves' incident-region amplitudes must reproduce unit incidence and
# the kernel's r to this absolute error.  Valid stacks give below 1e-13; an
# amplitude that underflowed or overflowed on the way gives O(1).
_ASSEMBLY_TOL = 1e-10


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
    interfaces: list[float] = []
    for start, end, _ in segment_list(potential):
        for bound in (start, end):
            if math.isfinite(bound) and (not interfaces or bound > interfaces[-1]):
                interfaces.append(bound)

    mids = [0.5 * (left + right) for left, right in zip(interfaces[:-1], interfaces[1:])]
    probes = [interfaces[0] - 1.0, *mids, interfaces[-1] + 1.0] if interfaces else [0.0]
    return interfaces, potential.value_array(np.array(probes)).tolist()


def _prepare(potential, energies, mass, constants, sweep=False):
    """Layout, energies, (nE, regions) wavenumbers and the E == V mask.

    Rows are checked in input order: sign, equal asymptotes, open incident
    channel.  A sweep converts each row with float() first and prefixes its
    errors with the row.
    """
    positive("mass", mass)
    interfaces, region_v = _region_layout(potential)
    v_left, v_right = region_v[0], region_v[-1]
    same_asymptotes = v_left == v_right
    checked = []
    for i, E in enumerate(energies):
        prefix = ""
        if sweep:
            prefix = f"sweep row {i} (E={E}): "
            try:
                E = float(E)
            except (TypeError, ValueError, OverflowError) as exc:
                exc.args = (prefix + str(exc),)
                raise
        positive(prefix + "energy", E)
        if not same_asymptotes:
            raise UnsupportedMethodError(
                f"{prefix}asymptotic potentials differ ({v_left} vs {v_right}); "
                "flux-normalized transmission is not supported"
            )
        if E <= v_left:
            raise ParameterError(
                f"{prefix}E={E} does not propagate in the asymptotic regions "
                f"(V={v_left}); the incident channel is evanescent"
            )
        checked.append(E)
    E = np.array(checked, dtype=float).reshape(-1, 1)
    v = np.array(region_v, dtype=float)
    linear = _equal_energies(E, v)
    k = (2.0 * mass * (E - v)).astype(np.complex128)
    np.sqrt(k, out=k)
    k /= constants.hbar
    k[linear] = 0.0
    return interfaces, E[:, 0], linear, k


def _basis_matrix(linear, k, delta: float, shift=0.0) -> np.ndarray:
    """(nE, 2, 2) values and derivatives of the two basis solutions at delta.

    `shift` subtracts a real log-scale inside the exponent, so evanescent
    regions never overflow; callers account for exp(shift) separately.
    """
    up = np.exp(1j * k * delta - shift)
    down = np.exp(-1j * k * delta - shift)
    w = np.empty(k.shape + (2, 2), dtype=np.complex128)
    w[:, 0, 0], w[:, 0, 1] = up, down
    w[:, 1, 0], w[:, 1, 1] = 1j * k * up, -1j * k * down
    w[linear] = ((1.0, delta), (0.0, 1.0))
    return w


def _interface_bases(interfaces, linear, k, extract: bool):
    """Yield (shift, w_left, w_right) for each interface, left to right.

    w_left and w_right (nE, 2, 2) are the basis matrices of regions j and
    j+1 at the interface, so solve(w_right, w_left) maps region j's
    amplitudes to region j+1's.  Region 0 is referenced to its right edge
    and every later region to its left edge, so only w_left contains a
    region's width.  With `extract`, an evanescent region wider than
    _SCALE_EXTRACT_THRESHOLD e-folds has its growth exp(shift) taken out of
    w_left.
    """
    refs = interfaces[:1] + interfaces
    for j, x_c in enumerate(interfaces):
        delta = x_c - refs[j]
        shift = 0.0
        if extract:
            # e-folds across region j; zero unless it is evanescent (k = i beta)
            beta_w = np.where(k[:, j].real == 0.0, k[:, j].imag * delta, 0.0)
            shift = np.where(beta_w > _SCALE_EXTRACT_THRESHOLD, beta_w, 0.0)
        w_left = _basis_matrix(linear[:, j], k[:, j], delta, shift)
        w_right = _basis_matrix(linear[:, j + 1], k[:, j + 1], x_c - refs[j + 1])
        yield shift, w_left, w_right


def _times(a, b):
    """a * b rounded as scalar complex math rounds it: numpy's array loop may
    fuse multiply-adds, which moves results by an ulp from one CPU to another."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _chain(interfaces, linear, k):
    """r, t, c_plus and c_minus per energy for unit incidence from the left."""
    n = k.shape[0]
    if not interfaces:  # uniform potential: the incident wave passes unchanged
        return np.zeros(n, np.complex128), np.ones(n, np.complex128), [None] * n, [None] * n
    log_scale = np.zeros(n)
    m_total = np.eye(2, dtype=np.complex128)
    bases = _interface_bases(interfaces, linear, k, extract=True)
    for j, (shift, w_left, w_right) in enumerate(bases):
        log_scale += shift
        m_total = np.linalg.solve(w_right, w_left) @ m_total
        if j == 0:
            m_after_first = m_total

    k0, x0, xm = k[:, 0], interfaces[0], interfaces[-1]
    r = _times(-(m_total[:, 1, 0] / m_total[:, 1, 1]), np.exp(2j * k0 * x0))
    # T from the determinant identity avoids the catastrophic cancellation of
    # M11 - M12 M21 / M22 for thick barriers; equal asymptotes make det(M) = 1
    # but for the scale.  The complex exp calls libm's exp, like math.exp
    # (numpy's real exp loop is vectorised per CPU, an ulp apart).
    det_total = np.exp(-log_scale + 0j).real
    t = np.exp(1j * k0 * (x0 - xm)) * det_total / m_total[:, 1, 1]

    c_plus = c_minus = [None] * n
    if len(interfaces) == 2 and x0 == 0.0:
        incoming = np.stack([np.exp(1j * k0 * x0), r * np.exp(-1j * k0 * x0)], axis=-1)
        f1, b1 = (m_after_first @ incoming[:, :, None])[:, :, 0].T
        # Below the barrier top the forward basis decays, so the exp(+beta x)
        # coefficient is the backward amplitude.
        decaying = ~linear[:, 1] & (k[:, 1].real == 0.0)
        c_plus = np.where(decaying, b1, f1).tolist()
        c_minus = np.where(decaying, f1, b1).tolist()
    return r, t, c_plus, c_minus


def _scatter(potential, energies, mass, constants, sweep):
    """The batched kernel: one ScatteringResult per energy, in input order."""
    interfaces, E, linear, k = _prepare(potential, energies, mass, constants, sweep)
    r, t, c_plus, c_minus = _chain(interfaces, linear, k)
    return [
        ScatteringResult(r=ri, t=ti, prob_r=abs(ri) ** 2, prob_t=abs(ti) ** 2,
                         energy=Ei, c_plus=cp, c_minus=cm)
        for Ei, ri, ti, cp, cm in zip(E.tolist(), r.tolist(), t.tolist(), c_plus, c_minus)
    ]


def transmission_sweep(
    potential: Potential,
    energies: Sequence[float],
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> list[ScatteringResult]:
    """R, T of a piecewise-constant stack at every energy, in input order."""
    return _scatter(potential, energies, mass, constants, sweep=True)


def transfer_scattering(
    potential: Potential,
    E: float,
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> ScatteringResult:
    """R, T of a piecewise-constant stack for unit incidence from the left."""
    return _scatter(potential, [E], mass, constants, sweep=False)[0]


def region_waves(
    potential: Potential,
    E: float,
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> list[RegionWave]:
    """The fully assembled per-region solution, outermost regions included.

    Starts from the kernel's transmitted wave (t, 0) and solves for each
    region's amplitudes right to left, so through an evanescent region the
    chain follows the growing solution and no error is amplified.  Raises
    ParameterError when t is below the smallest normal float, or when the
    incident region does not come back to unit incidence and the kernel's r
    within _ASSEMBLY_TOL: each region's amplitudes are referenced to its
    left edge, so one evanescent region wider than about 360 e-folds has a
    growing amplitude below the float range.
    """
    interfaces, _, linear, k = _prepare(potential, [E], mass, constants)
    r, t = (complex(c[0]) for c in _chain(interfaces, linear, k)[:2])
    if abs(t) < sys.float_info.min:
        raise ParameterError(
            f"E={E}: the transmitted amplitude |t| = {abs(t):.3g} underflows; "
            "the stack is too opaque to assemble region by region"
        )
    kinds = ["linear" if flag else "exp" for flag in linear[0]]
    ks = [0.0 if flag else complex(kj) for flag, kj in zip(linear[0], k[0])]
    refs = (interfaces[:1] or [0.0]) + interfaces
    pairs = [np.array([t * cmath.exp(1j * ks[-1] * refs[-1]), 0.0])]
    with np.errstate(all="ignore"):  # under- and overflow fail the check below
        for _, w_left, w_right in reversed(list(_interface_bases(interfaces, linear, k, False))):
            pairs.append(np.linalg.solve(w_left[0], w_right[0] @ pairs[-1]))
    pairs.reverse()
    k0, x0 = ks[0], refs[0]
    incident = np.array([cmath.exp(1j * k0 * x0), r * cmath.exp(-1j * k0 * x0)])
    off = np.max(np.abs(pairs[0] - incident))
    if not off <= _ASSEMBLY_TOL:  # also catches nan
        raise ParameterError(
            f"E={E}: the region amplitudes leave the float range (incident "
            f"amplitudes off by {off:.2g}); the stack is too opaque to assemble "
            "region by region"
        )
    bounds = [-math.inf] + interfaces + [math.inf]
    return [
        RegionWave(ks[j], complex(f), complex(b), refs[j], bounds[j], bounds[j + 1], kinds[j])
        for j, (f, b) in enumerate(pairs)
    ]
