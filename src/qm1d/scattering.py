"""Reflection and transmission for piecewise-constant potentials.

Each region carries a two-component amplitude for its forward and backward
basis solutions; 2x2 interface matrices map them left to right by matching
the wavefunction and its derivative (Ando & Itoh, J. Appl. Phys. 61, 1497
(1987)), written out in closed form on (nE,) arrays.  Region 0 is referenced
to its right edge and every later region to its left edge, so interface j's
matrix W_{j+1}(0)^-1 W_j(delta_j) holds only region j's width.  Between
exponential regions it is [[u (1+q), d (1-q)], [u (1-q), d (1+q)]] / 2, with
q = k_j/k_{j+1} and u = 1/d = exp(i k_j delta_j); a region at E = V takes its
linear solution instead.  With the total chain M, R = -M21/M22 and
T = det(M)/M22, where det(M) telescopes to k_left/k_right, read only its
second row, so ``_chain`` carries (0, 1) times the matrices, last to first,
as two (nE,) arrays.  Evanescent regions have their growth factored into a
separate log-domain scale, so thick barriers neither overflow nor lose the
transmitted amplitude to cancellation.

numpy's complex multiply loop may fuse multiply-adds, an ulp apart from one CPU
to another, so every complex-by-complex product that reaches a result goes
through `_times`: q dl, u (s + q dl), d (s - q dl), i k v2 and the E = V rows'
products by u and d in `_advance`, r's phase and c_plus/c_minus.  Products by
+-1j or a real round each part once, and numpy's complex divisions (q,
dl/(i k), M21/M22, T) give the same bits at any batch size; they stay numpy.
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
_EYE = np.eye(2, dtype=np.complex128)[:, :, None]  # (v1, v2) of both rows: _advance gives columns


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
    """Layout, energies, (nE, regions) wavenumbers and the E == V mask.

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
    v = np.array(region_v, dtype=float)
    linear = _equal_energies(E[:, None], v)
    k = (2.0 * mass * (E[:, None] - v)).astype(np.complex128)
    np.sqrt(k, out=k)
    k /= constants.hbar
    k[linear] = 0.0
    return interfaces, E, linear, k


def _times(a, b):
    """a * b rounded as scalar complex math rounds it: numpy's array loop may
    fuse multiply-adds, which moves results by an ulp from one CPU to another."""
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _advance(k, linear, j, delta, v1, v2, extract=False):
    """(v1, v2) W_{j+1}(0)^-1 W_j(delta) on arrays (..., nE), and the log-scale
    taken out.  Region j's wave has value u f + d b and derivative
    i k_j (u f - d b) at the interface (f + delta b and b at E = V), which
    region j+1 splits as (value +- derivative / (i k_{j+1})) / 2, so with
    s = v1 + v2, dl = v1 - v2 the row is (u (s + q dl), d (s - q dl)) / 2,
    (s, delta s + dl / (i k_{j+1})) / 2 from E = V, (u (v1 + i k_j v2),
    d (v1 - i k_j v2)) into E = V and (v1, delta v1 + v2) between two.
    `extract` takes region j's e-folds past the threshold out of u and d as
    the shift.  Real k_j take d = conj(u) (libm's exp to the bit, but for the
    sign of a zero); only evanescent rows (k_j = i beta) take a second exp."""
    k_left, beta = k[:, j], k[:, j].imag  # beta is 0 on propagating and E = V rows
    arg, shift = 1j * k_left * delta, 0.0
    if extract and beta.max(initial=0.0) * delta > _SCALE_EXTRACT_THRESHOLD:
        shift = np.where(beta * delta > _SCALE_EXTRACT_THRESHOLD, beta * delta, 0.0)
        arg = arg - shift
    up = np.exp(arg)
    down = up.conj()
    if beta.any():
        np.exp(-1j * k_left * delta - shift, out=down, where=beta != 0.0)
    lin_left, lin_right = linear[:, j], linear[:, j + 1]
    plateau = lin_left.any() or lin_right.any()
    k_right = np.where(lin_right, 1.0, k[:, j + 1]) if plateau else k[:, j + 1]  # not 0 at E = V
    s, dl = v1 + v2, v1 - v2
    w = _times(k_left / k_right, dl)
    row = 0.5 * _times(up, s + w), 0.5 * _times(down, s - w)
    if not plateau:
        return *row, shift
    ikv, cases = _times(1j * k_left, v2), [lin_left & lin_right, lin_left, lin_right]
    return (np.select(cases, [v1, 0.5 * s, _times(up, v1 + ikv)], row[0]),
            np.select(cases, [delta * v1 + v2, 0.5 * (delta * s + dl / (1j * k_right)),
                              _times(down, v1 - ikv)], row[1]),
            shift)


def _chain(interfaces, linear, k):
    """r, t and (c_plus, c_minus) per energy for unit incidence from the left
    (the pair for one region on [0, a), else None)."""
    n = k.shape[0]
    if not interfaces:  # uniform potential: the incident wave passes unchanged
        return np.zeros(n, np.complex128), np.ones(n, np.complex128), None
    # (0, 1) times the matrices from the last interface back is (M21, M22);
    # region 0 is referenced to its right edge, so interface 0 has no width
    widths = [0.0] + [right - left for left, right in zip(interfaces, interfaces[1:])]
    v1, v2, log_scale = np.zeros(n, np.complex128), np.ones(n, np.complex128), 0.0
    for j in reversed(range(len(interfaces))):
        v1, v2, shift = _advance(k, linear, j, widths[j], v1, v2, extract=True)
        log_scale += shift
        if j == len(interfaces) - 1:
            m21, m22 = v1, v2  # the last interface's own second row
    k0, x0, xm = k[:, 0], interfaces[0], interfaces[-1]
    r = _times(-(v1 / v2), np.exp(2j * k0 * x0))
    # T from the determinant identity avoids the catastrophic cancellation of
    # M11 - M12 M21 / M22 for thick barriers; equal asymptotes make det(M) = 1
    # but for the scale.  The complex exp calls libm's exp, like math.exp
    # (numpy's real exp loop is vectorised per CPU, an ulp apart).
    det_total = np.exp(-log_scale + 0j).real
    t = np.exp(1j * k0 * (x0 - xm)) * det_total / v2
    if len(interfaces) != 2 or x0 != 0.0:
        return r, t, None
    # region 1's amplitudes from the transmitted side, as in region_waves: the
    # last interface's adjugate over the Wronskian ratio (k1/k0, or 1/(-2i k0)
    # for a linear region 1) applied to (t e^{i k0 a}, 0), i.e. (1/M22, 0) with
    # region 1's scale put back, which the row has out, so neither overflows
    # where t underflows.  Below the barrier top exp(+beta x) is the backward one
    over = _times(np.where(linear[:, 1], 0.5j, k[:, 1]) / k0, v2)
    f1, b1 = m22 / over, -m21 / over
    decaying = ~linear[:, 1] & (k[:, 1].real == 0.0)
    return r, t, (np.where(decaying, b1, f1), np.where(decaying, f1, b1))


def _scatter(potential, energies, mass, constants, sweep):
    """The kernel, in input order: E; r, t, |r|^2 and |t|^2 as lists, by scalar abs
    (numpy's abs loop may round apart from libm's hypot); (c_plus, c_minus) or None."""
    interfaces, E, linear, k = _prepare(potential, energies, mass, constants, sweep)
    r, t, pair = _chain(interfaces, linear, k)
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

    Applies each interface's inverse (adjugate over the ratio of the regions'
    Wronskians) right to left from the transmitted wave (t, 0), so through an
    evanescent region the chain follows the growing solution and amplifies no
    error.  Raises ParameterError when t or an evanescent amplitude is below
    the smallest normal float (a growing one, referenced to its region's left
    edge, underflows past about 360 e-folds), or when the incident region
    misses unit incidence and the kernel's r by over _ASSEMBLY_TOL."""
    interfaces, _, linear, k = _prepare(potential, [E], mass, constants)
    r, t = (complex(c[0]) for c in _chain(interfaces, linear, k)[:2])
    if abs(t) < sys.float_info.min:
        raise ParameterError(
            f"E={E}: the transmitted amplitude |t| = {abs(t):.3g} underflows; "
            "the stack is too opaque to assemble region by region")
    ks = [0.0 if flag else complex(kj) for flag, kj in zip(linear[0], k[0])]
    wronskian = [1.0 if flag else -2j * kj for flag, kj in zip(linear[0], ks)]
    refs = (interfaces[:1] or [0.0]) + interfaces
    pairs = [(t * cmath.exp(1j * ks[-1] * refs[-1]), 0j)]
    with np.errstate(all="ignore"):  # under- and overflow fail the checks below
        for j in reversed(range(len(interfaces))):
            columns = _advance(k, linear, j, interfaces[j] - refs[j], *_EYE)[:2]
            (m11, m21), (m12, m22) = (column[:, 0].tolist() for column in columns)
            det, (f, b) = wronskian[j] / wronskian[j + 1], pairs[-1]
            pairs.append(((m22 * f - m12 * b) / det, (m11 * b - m21 * f) / det))
    pairs.reverse()
    k0, x0 = ks[0], refs[0]
    incident = np.array([cmath.exp(1j * k0 * x0), r * cmath.exp(-1j * k0 * x0)])
    off = np.max(np.abs(np.array(pairs[0]) - incident))
    tiny = min((abs(c) for flag, kj, pair in zip(linear[0], ks, pairs)
                if not flag and kj.real == 0.0 for c in pair), default=math.inf)
    if not (off <= _ASSEMBLY_TOL and tiny >= sys.float_info.min):  # also catches nan
        raise ParameterError(
            f"E={E}: the region amplitudes leave the float range (incident amplitudes "
            f"off by {off:.2g}, smallest evanescent amplitude {tiny:.2g}); the stack "
            "is too opaque to assemble region by region")
    bounds = [-math.inf] + interfaces + [math.inf]
    return [
        RegionWave(ks[j], complex(f), complex(b), refs[j], bounds[j], bounds[j + 1],
                   "linear" if linear[0, j] else "exp")
        for j, (f, b) in enumerate(pairs)
    ]
