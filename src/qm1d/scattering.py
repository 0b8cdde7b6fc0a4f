"""Reflection and transmission for piecewise-constant potentials.

The kernel carries (psi, psi'), continuous at every interface, across the
stack (Griffiths & Steinke, Am. J. Phys. 69, 137 (2001)).  Region j of width
delta maps it from its left edge to its right by P_j = [[c, s], [q, c]] with
c = cos K delta, s = sin(K delta)/K, q = -K sin K delta, K^2 = 2m(E - V_j)/hbar^2:
cosh, sinh/kappa and kappa sinh below the potential, and 1, delta and 0 at
E = V, the same formula's limit.  W = [[1, 1], [i k, -i k]] splits the outer
regions into waves, so M = W_N^-1 P_{N-1} ... P_1 W_0, and R = -M21/M22 and
T = (k_0/k_N)/M22 read its second row: ``_chain`` carries 2 k_N (0, 1) W_N^-1
= (k_N, i) right to left as two (nE,) arrays.  An evanescent P is e^{kappa delta}
[[1 + m/2, -m/(2 kappa)], [-kappa m/2, 1 + m/2]], m = expm1(-2 kappa delta), so
no exponentials cancel and thin, tall layers keep their digits; past the
threshold e^{kappa delta} goes into a log-domain scale, so thick barriers
neither overflow nor lose t.  E = V decides only an output's form
(`analytic._equal_energies`): a `RegionWave`'s kind and a single barrier's
constant and slope.

numpy's real exp, expm1, sin and cos loops are vectorised per CPU, an ulp
apart from libm, so a region's cos and sin, or e^{kappa delta}, come from one
complex np.exp and m from the complex np.expm1, both libm per element.  The
complex multiply loop may fuse multiply-adds, so the complex-by-complex
products that reach a result go through `_times`: r's phase and
c_plus/c_minus.  P is real; products by a real or by +-1j and the complex
divisions (M21/M22, T) give the same bits on any CPU and at any batch size.
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
        d = np.asarray(x, dtype=float) - self.x_ref
        if self.kind == "linear":
            return self.forward + self.backward * d
        k = self.wavenumber
        return self.forward * np.exp(1j * k * d) + self.backward * np.exp(-1j * k * d)

    def derivative(self, x):
        d = np.asarray(x, dtype=float) - self.x_ref
        if self.kind == "linear":
            return np.full(d.shape, self.backward, dtype=np.complex128)
        k = self.wavenumber
        return 1j * k * (self.forward * np.exp(1j * k * d) - self.backward * np.exp(-1j * k * d))


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
    """Layout, region potentials, energies and the (nE, regions) wavenumbers
    K = sqrt(K^2): k above the potential, i kappa below it and 0 at E = V.

    The rows are converted with float() and checked as one array, then the
    first bad one alone for its message: sign, equal asymptotes, open incident
    channel.  A sweep prefixes its errors with the row."""
    positive("mass", mass)
    interfaces, region_v = _region_layout(potential)
    v_left, v_right = region_v[0], region_v[-1]
    rows, failed = list(energies), None

    def check(i, E):
        prefix = f"sweep row {i} (E={rows[i]}): " if sweep else ""
        positive(prefix + "energy", E)
        if v_left != v_right:
            raise UnsupportedMethodError(
                f"{prefix}asymptotic potentials differ ({v_left} vs {v_right}); "
                "flux-normalized transmission is not supported")
        if E <= v_left:
            raise ParameterError(f"{prefix}E={E} does not propagate in the asymptotic regions "
                                 f"(V={v_left}); the incident channel is evanescent")

    values = []
    try:
        values.extend(map(float, rows))  # keeps the rows before one that fails
    except (TypeError, ValueError, OverflowError) as exc:
        failed = exc
    E = np.array(values)
    bad = (v_left != v_right) | ~(E > 0.0) | (E == math.inf) | (E <= v_left)
    if bad.any():
        check(int(bad.argmax()), values[bad.argmax()])
    if failed is not None:
        if sweep:  # a single energy keeps float()'s own message
            failed.args = (f"sweep row {len(values)} (E={rows[len(values)]}): {failed}",)
        raise failed
    k = (2.0 * mass * (E[:, None] - np.array(region_v, dtype=float))).astype(np.complex128)
    np.sqrt(k, out=k)
    k /= constants.hbar
    return interfaces, region_v, E, k


def _times(a, b):
    """a * b rounded as scalar complex math rounds it: numpy's array loop may
    fuse multiply-adds, which moves results by an ulp from one CPU to another."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _region(k, j, delta, extract=False):
    """c, s, q of region j's P = [[c, s], [q, c]] over its width delta on (nE,)
    rows, and the log-scale taken out (`extract`: e-folds past the threshold).
    z = e^{-i k delta} gives cos and -sin, or z = e^{kappa delta} and
    m = expm1(-2 kappa delta) give cosh = z (1 + m/2) and sinh = -z m/2.  At
    K = 0, s = sin(K delta)/K takes its limit, delta."""
    K, n = k[:, j], k.shape[0]
    kappa, shift = K.imag, 0.0  # kappa is 0 on propagating rows and at E = V
    if extract and kappa.max(initial=0.0) * delta > _SCALE_EXTRACT_THRESHOLD:
        shift = np.where(kappa * delta > _SCALE_EXTRACT_THRESHOLD, kappa * delta, 0.0)
    z = np.exp(K * (-1j * delta) - shift)
    m = np.expm1(K * (2j * delta), out=np.zeros(n, np.complex128), where=kappa > 0.0).real
    half = z.real * m * 0.5
    sine = -z.imag - half  # sin k delta, or sinh kappa delta with the shift out
    size = K.real + kappa
    s = np.divide(sine, size, out=np.full(n, delta), where=size != 0.0)
    return z.real + half, s, (kappa - K.real) * sine, shift


def _chain(interfaces, k):
    """r, t, and M22 and the log-scale that t takes apart, per energy, for
    unit incidence from the left."""
    if not interfaces:  # uniform potential: the incident wave passes unchanged
        one = np.ones(k.shape[0], np.complex128)
        return 0.0 * one, one, one, 0.0
    # regions 0 and N are referenced to x0 and xm, where W_0 and W_N act; k_N = k_0
    k0, x0, xm = k[:, 0].real, interfaces[0], interfaces[-1]
    a, b, log_scale = k[:, -1], np.full(k.shape[0], 1j), 0.0
    for j in reversed(range(1, len(interfaces))):
        c, s, q, shift = _region(k, j, interfaces[j] - interfaces[j - 1], extract=True)
        a, b, log_scale = a * c + b * q, a * s + b * c, log_scale + shift
    ikb = k0 * b * 1j
    m22 = (a - ikb) / (2.0 * k0)
    r = _times(-((a + ikb) / (a - ikb)), np.exp(2j * k0 * x0))
    # det(M) = 1 but for the scale, so T needs no M11; the complex exp is libm's
    t = np.exp(1j * k0 * (x0 - xm)) * np.exp(-log_scale + 0j).real / m22
    return r, t, m22, log_scale


def _barrier_pair(E, v0, a, k, m22, log_scale):
    """(c_plus, c_minus) of one region on [0, a), from the transmitted side:
    (psi, psi')(a) = t e^{ika} (1, ik) is (1, ik)/M22 with the scale out, so
    neither overflows where t underflows.  With K = conj(k_1) (e^{iKx} is
    e^{+beta x} below the top): (1 +- k/K) e^{-+iKa}/(2 M22); at E = V the
    linear solution's constant psi(a) - a psi'(a) and slope psi'(a)."""
    k0, K = k[:, 0].real, np.conj(k[:, 1])
    linear, psi = _equal_energies(E, v0), 1.0 / m22
    ratio = 0.5 * k0 / np.where(linear, 1.0, K)  # not 0 at E = V
    phase = K * (1j * a)
    c_plus = _times(psi, _times(0.5 + ratio, np.exp(-phase - log_scale)))
    c_minus = _times(psi, _times(0.5 - ratio, np.exp(phase - log_scale)))
    slope = k0 * psi * 1j
    return np.where(linear, psi - a * slope, c_plus), np.where(linear, slope, c_minus)


def _scatter(potential, energies, mass, constants, sweep):
    """The kernel, in input order: E; r, t, |r|^2 and |t|^2 as lists, by scalar abs
    (numpy's abs loop may round apart from libm's hypot); (c_plus, c_minus) of
    one region on [0, a), else None."""
    interfaces, region_v, E, k = _prepare(potential, energies, mass, constants, sweep)
    r, t, m22, log_scale = _chain(interfaces, k)
    pair = (_barrier_pair(E, region_v[1], interfaces[1], k, m22, log_scale)
            if len(interfaces) == 2 and interfaces[0] == 0.0 else None)
    r, t = r.tolist(), t.tolist()
    return E, r, t, [abs(c) ** 2 for c in r], [abs(c) ** 2 for c in t], pair


def _results(E, r, t, prob_r, prob_t, amplitudes) -> list[ScatteringResult]:
    c_pairs = zip(*(c.tolist() for c in amplitudes)) if amplitudes else [(None, None)] * len(r)
    return [ScatteringResult(r=ri, t=ti, prob_r=pr, prob_t=pt, energy=Ei, c_plus=cp, c_minus=cm)
            for Ei, ri, ti, pr, pt, (cp, cm) in zip(E.tolist(), r, t, prob_r, prob_t, c_pairs)]


def scattering_table(
    potential: Potential, energies: Sequence[float], mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> tuple[np.ndarray, ...]:
    """Energy, |r|^2, |t|^2 and the phases of r and t as float arrays, one entry
    per energy in input order: transmission_sweep's numbers without its objects."""
    E, r, t, prob_r, prob_t, _ = _scatter(potential, energies, mass, constants, sweep=True)
    return (E, *(np.array(cells, dtype=np.float64) for cells in (
        prob_r, prob_t, [cmath.phase(c) for c in r], [cmath.phase(c) for c in t])))


def transmission_sweep(
    potential: Potential, energies: Sequence[float], mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> list[ScatteringResult]:
    """R, T of a piecewise-constant stack at every energy, in input order."""
    return _results(*_scatter(potential, energies, mass, constants, sweep=True))


def transfer_scattering(
    potential: Potential, E: float, mass: float = 1.0, constants: PhysicalConstants = NATURAL,
) -> ScatteringResult:
    """R, T of a piecewise-constant stack for unit incidence from the left."""
    return _results(*_scatter(potential, [E], mass, constants, sweep=False))[0]


def region_waves(
    potential: Potential, E: float, mass: float = 1.0, constants: PhysicalConstants = NATURAL,
) -> list[RegionWave]:
    """The fully assembled per-region solution, outermost regions included.

    Carries (psi, psi') right to left from the transmitted wave through each
    inverse propagator [[c, -s], [-q, c]], so through an evanescent region it
    follows the growing solution and amplifies no error.  A region's forward
    amplitude is read at its left edge and its backward one at its right edge,
    where below the potential it does not cancel (psi and the slope at E = V).
    Raises ParameterError when t or an evanescent amplitude is below the
    smallest normal float (a growing one, referenced to its region's left
    edge, underflows past about 360 e-folds), or when the incident region
    misses unit incidence and the kernel's r by over _ASSEMBLY_TOL."""
    interfaces, region_v, energy, k = _prepare(potential, [E], mass, constants)
    r, t = (complex(c[0]) for c in _chain(interfaces, k)[:2])
    if abs(t) < sys.float_info.min:
        raise ParameterError(
            f"E={E}: the transmitted amplitude |t| = {abs(t):.3g} underflows; "
            "the stack is too opaque to assemble region by region")
    linear = _equal_energies(energy[0], np.array(region_v)).tolist()
    linear[0] = linear[-1] = False  # E > V in the outer regions
    ks = [0.0 if flag else kj for flag, kj in zip(linear, k[0].tolist())]
    refs = (interfaces[:1] or [0.0]) + interfaces
    psi = t * cmath.exp(1j * ks[-1] * refs[-1])
    pairs, dpsi = [(psi, 0j)], 1j * ks[-1] * psi
    with np.errstate(all="ignore"):  # under- and overflow fail the checks below
        for j in reversed(range(len(interfaces))):  # region 0's width is 0: P = 1
            delta, kj = interfaces[j] - refs[j], ks[j]
            back = dpsi if linear[j] else (psi - dpsi / (1j * kj)) / 2 * cmath.exp(1j * kj * delta)
            c, s, q = (float(p[0]) for p in _region(k, j, delta)[:3])
            psi, dpsi = c * psi - s * dpsi, c * dpsi - q * psi
            pairs.append((psi if linear[j] else (psi + dpsi / (1j * kj)) / 2, back))
    pairs.reverse()
    incident = np.array([cmath.exp(1j * ks[0] * refs[0]), r * cmath.exp(-1j * ks[0] * refs[0])])
    off = np.max(np.abs(np.array(pairs[0]) - incident))
    tiny = min((abs(c) for flag, kj, pair in zip(linear, ks, pairs)
                if not flag and kj.real == 0.0 for c in pair), default=math.inf)
    if not (off <= _ASSEMBLY_TOL and tiny >= sys.float_info.min):  # also catches nan
        raise ParameterError(
            f"E={E}: the region amplitudes leave the float range (incident amplitudes "
            f"off by {off:.2g}, smallest evanescent amplitude {tiny:.2g}); the stack "
            "is too opaque to assemble region by region")
    bounds = [-math.inf] + interfaces + [math.inf]
    return [
        RegionWave(ks[j], complex(f), complex(b), refs[j], bounds[j], bounds[j + 1],
                   "linear" if linear[j] else "exp")
        for j, (f, b) in enumerate(pairs)
    ]
