"""Expectation values, uncertainties, commutators, and the uncertainty bound.

Operators act on grid states under the uniform quadrature measure, so a
Hermitian matrix is Hermitian as an operator and the commutator and
variance identities hold to roundoff.  Each kind acts on plain amplitude
arrays through one table, _KINDS.  The momentum operator differentiates
spectrally, ifft(p * fft(psi)), which keeps commutator and uncertainty-bound
checks tight.  Position and momentum moments are those of the evolve series,
over |psi|^2 dx and over |phi(p)|^2 dp from one unshifted FFT; the
position-space derivative route of <p> stays as an independent cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .constants import NATURAL, PhysicalConstants
from .core import Grid, Space, WaveFunction, check_state, inner_product, norm_squared, peak_fraction
from .eigensolver import DiscreteHamiltonian
from .errors import GridMismatchError, NormalizationWarning, ParameterError, warn
from .spectral import EDGE_AMPLITUDE_TOL, EDGES, fft_momenta, warn_hot_edges

# Largest max |A - A^dagger| accepted, as a fraction of max |A|.
HERMITICITY_TOL = 1e-12
_NORM_WARN = 1e-8
_DOT_BLOCK = 8192  # points per BLAS dot in _dot; OpenBLAS threads a dot above 10^4


@dataclass(frozen=True, eq=False)
class Operator:
    """A Hermitian linear operator on position-space grid states."""

    kind: str
    grid: Grid
    constants: PhysicalConstants = NATURAL
    hamiltonian: DiscreteHamiltonian | None = None
    dense: np.ndarray | None = None

    def apply(self, psi: WaveFunction) -> WaveFunction:
        return psi.with_values(_KINDS[self.kind].act(self, *_amplitudes(psi, self)))

    def matrix(self) -> np.ndarray:
        """Dense n x n representation; intended for small grids."""
        if self.dense is not None:  # a custom operator is its matrix
            return self.dense.copy()
        act = _KINDS[self.kind].act
        basis = np.eye(self.grid.n, dtype=np.complex128)
        return np.column_stack([act(self, e, _forward(e, self)) for e in basis])


def position_operator(grid: Grid) -> Operator:
    return Operator(kind="position", grid=grid)


def momentum_operator(grid: Grid, constants: PhysicalConstants = NATURAL) -> Operator:
    return Operator(kind="momentum", grid=grid, constants=constants)


def hamiltonian_operator(h: DiscreteHamiltonian) -> Operator:
    return Operator(kind="hamiltonian", grid=h.grid, hamiltonian=h)


def custom_operator(matrix: np.ndarray, grid: Grid) -> Operator:
    """Wrap an explicit matrix; rejects non-finite and non-Hermitian input."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (grid.n, grid.n):
        raise GridMismatchError(f"matrix shape {m.shape} does not match grid size {grid.n}")
    if not np.isfinite(m).all():
        raise ParameterError("matrix holds a non-finite entry (nan or inf)")
    defect = np.max(np.abs(m - m.conj().T))
    if not (defect <= HERMITICITY_TOL * np.max(np.abs(m))):
        raise ParameterError(f"matrix is not Hermitian: max |A - A^dagger| = {defect:.2e}")
    return Operator(kind="custom", grid=grid, dense=m)


def _warn_if_unnormalized(n2: float):
    """NormalizationWarning when the norm-squared n2 is off 1 by more than
    _NORM_WARN.  A state's amplitudes are finite, so n2 is never nan, but it
    overflows to inf for amplitudes near 1e154; that fails the test and warns."""
    if not (abs(n2 - 1.0) <= _NORM_WARN):
        warn(f"state norm-squared is {n2:.6g}; expectation values assume a normalized state",
             NormalizationWarning)


def _density(values: np.ndarray) -> np.ndarray:
    """|values|^2 as re^2 + im^2, which skips the hypot of np.abs; the snapshot
    kernel forms the same sum in place."""
    return values.real**2 + values.imag**2


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) along the last axis, one value per row: numpy's matmul takes
    each (1, n) @ (n, 1) product as one BLAS dot, so a 1-D density and every
    row of a batch go through the same call.  A row is taken in blocks of
    _DOT_BLOCK points, whose sums are added left to right, so its bits do not
    depend on the BLAS thread count; up to _DOT_BLOCK points it is one call."""
    parts = [np.matmul(a[..., None, s:s + _DOT_BLOCK], b[..., s:s + _DOT_BLOCK, None])[..., 0, 0]
             for s in range(0, b.shape[-1], _DOT_BLOCK)]
    return functools.reduce(np.add, parts)


def _moments(coords: np.ndarray, density: np.ndarray, scale, variance: bool = True):
    """Mean and, when asked, variance of coords under the weights density * scale
    along the last axis, so a 2-D density gives one pair per row and stacked
    coords, densities and scales give one per stack and row.  The variance
    is None when not asked for, else the centred second moment (two passes).
    Each weighted sum is _dot's fixed sequence of BLAS dots, so its last bits
    follow the BLAS build but not its thread count."""
    mean = _dot(coords, density) * scale
    if not variance:
        return mean, None
    # Filled, then centred and squared in place: coords - mean would take a
    # second broadcast buffer of the batch's size.
    centred = np.empty(density.shape)
    centred[...] = coords
    centred -= mean[..., None]
    return mean, _dot(np.square(centred, out=centred), density) * scale


def _position_moments(op: Operator, values: np.ndarray, forward,
                      variance: bool = True) -> tuple[float, float | None]:
    return _moments(op.grid.points, _density(values), op.grid.dx, variance)


def _fourier_moments(op: Operator, values: np.ndarray, forward,
                     variance: bool = True) -> tuple[float, float | None]:
    """The moments of |phi(p)|^2 dp, with forward = fft(values)."""
    p, weight = fft_momenta(op.grid, op.constants)
    return _moments(p, _density(forward), weight, variance)


def _fourier_act(op: Operator, values: np.ndarray, forward) -> np.ndarray:
    return np.fft.ifft(fft_momenta(op.grid, op.constants)[0] * forward)


def _applied_moments(op: Operator, values: np.ndarray, forward,
                     variance: bool = True) -> tuple[complex, float | None]:
    """<psi|A psi>, complex, and the variance ||(A - <A>) psi||^2 when asked for."""
    applied = _KINDS[op.kind].act(op, values, forward)
    mean = complex(np.vdot(values, applied) * op.grid.dx)
    if not variance:
        return mean, None
    residual = applied - mean.real * values
    return mean, float(np.sum(np.abs(residual) ** 2) * op.grid.dx)


class _Kind(NamedTuple):
    """An Operator.kind on position-space amplitudes v: A v and (<A>, variance),
    each called as f(op, v, forward); forward is fft(v) if transforms, else None.
    moments(..., variance=False) returns (<A>, None), the mean alone."""

    act: Callable
    moments: Callable
    transforms: bool = False


_KINDS = {
    "position": _Kind(lambda op, v, forward: op.grid.points * v, _position_moments),
    "momentum": _Kind(_fourier_act, _fourier_moments, transforms=True),
    "hamiltonian": _Kind(lambda op, v, forward: op.hamiltonian.apply(v), _applied_moments),
    "custom": _Kind(lambda op, v, forward: op.dense @ v, _applied_moments),
}


def _forward(values: np.ndarray, *ops: Operator) -> np.ndarray | None:
    """fft(values) when one of ops transforms its state, else None."""
    return np.fft.fft(values) if any(_KINDS[op.kind].transforms for op in ops) else None


def _amplitudes(psi: WaveFunction, *ops: Operator) -> tuple[np.ndarray, np.ndarray | None]:
    """psi's values and their _forward for ops, after the grid and state checks
    and, when the values are transformed, one edge warning."""
    if any(op.grid != ops[0].grid for op in ops):
        raise GridMismatchError("operators live on different grids")
    check_state(f"the {ops[0].kind} operator", psi, Space.POSITION, ops[0].grid)
    forward = _forward(psi.values, *ops)
    if forward is not None:
        warn_hot_edges(peak_fraction(psi.values, EDGES, EDGE_AMPLITUDE_TOL))
    return psi.values, forward


def _spread(op: Operator, values: np.ndarray, forward) -> float:
    return math.sqrt(max(_KINDS[op.kind].moments(op, values, forward)[1], 0.0))


def expectation(op: Operator, psi: WaveFunction) -> complex:
    """<psi|A psi> under the uniform quadrature measure; for position and
    momentum, the mean of |psi|^2 dx or |phi(p)|^2 dp, as the evolve series take it."""
    _warn_if_unnormalized(norm_squared(psi))
    return complex(_KINDS[op.kind].moments(op, *_amplitudes(psi, op), variance=False)[0])


def momentum_expectation_x_route(
    psi: WaveFunction, constants: PhysicalConstants = NATURAL
) -> complex:
    """<p> as the position-space integral of conj(psi) (hbar/i) dpsi/dx.

    The derivative is spectral, so this agrees with the momentum-space
    moment to roundoff for states negligible at the edges.
    """
    op = momentum_operator(psi.grid, constants)
    return inner_product(psi, op.apply(psi))


def uncertainty(op: Operator, psi: WaveFunction) -> float:
    """Root of the variance <(A - <A>)^2>: the second moment for position and
    momentum, ||(A - <A>) psi|| for every other kind."""
    _warn_if_unnormalized(norm_squared(psi))
    return _spread(op, *_amplitudes(psi, op))


class _SnapshotObservables:
    """The six evolve series of position-space amplitudes on h's grid.

    Equal to norm_squared to roundoff and, bit for bit, to expectation and
    uncertainty of the position and momentum operators, whose formulas these
    are.  The evolution loop copies recorded states into the rows of a small
    batch and calls this once per batch: one unshifted FFT along the rows,
    |psi|^2 and |fft(psi)|^2 written in place into one (2, rows, n) array,
    and row-wise sums (a BLAS dot per row for each weighted one) give every
    series of every row, with the bits of its state observed alone.  One
    _moments call takes x over |psi|^2 dx and p over |fft(psi)|^2 w; one
    more takes the energy, the means of V and of kinetic, the Fourier symbol
    T(p) in FFT order of the propagator's kinetic operator.  Nothing here
    warns: the norm is a series, and the loop warns once its last step has
    succeeded, so a failed run warns of nothing.
    """

    def __init__(self, h: DiscreteHamiltonian, constants: PhysicalConstants,
                 kinetic: np.ndarray):
        self.dx = h.grid.dx
        p, p_weight = fft_momenta(h.grid, constants)
        # Row 0 of each stack is position space, row 1 momentum space.
        self.scale = np.array([[self.dx], [p_weight]])
        self.coords = np.stack([h.grid.points, p])[:, None, :]
        self.energy_coords = np.stack([h.potential_values, kinetic])[:, None, :]

    def __call__(self, batch: np.ndarray) -> tuple[np.ndarray, ...]:
        """norm, x_mean, p_mean, x_spread, p_spread and energy, in
        evolution.Trajectory's field order, as arrays over the rows of batch
        (one state per row)."""
        # The transform goes first, and is freed before |psi|^2 needs its
        # temporary; |fft(psi)|^2 uses the position slot for its im^2.
        forward = np.fft.fft(batch, axis=-1)
        density = np.empty((2,) + batch.shape)
        np.square(forward.real, out=density[1])
        density[1] += np.square(forward.imag, out=density[0])
        del forward
        np.square(batch.real, out=density[0])
        density[0] += np.square(batch.imag)
        norm = density[0].sum(axis=-1) * self.dx
        (x_mean, p_mean), var = _moments(self.coords, density, self.scale)
        x_spread, p_spread = np.sqrt(np.maximum(var, 0.0))
        energy = _moments(self.energy_coords, density, self.scale, variance=False)[0].sum(axis=0)
        return norm, x_mean, p_mean, x_spread, p_spread, energy


def _commutator(op_a: Operator, op_b: Operator, values: np.ndarray, forward) -> complex:
    a_psi, b_psi = (_KINDS[op.kind].act(op, values, forward) for op in (op_a, op_b))
    ab = complex(np.vdot(a_psi, b_psi) * op_a.grid.dx)
    return ab - ab.conjugate()


def commutator_expectation(op_a: Operator, op_b: Operator, psi: WaveFunction) -> complex:
    """<psi|[A, B] psi> for Hermitian A, B: equals <A psi|B psi> - <B psi|A psi>."""
    return _commutator(op_a, op_b, *_amplitudes(psi, op_a, op_b))


@dataclass(frozen=True)
class UncertaintyReport:
    """lhs = spread_a * spread_b, the uncertainties of the two operators."""

    lhs: float
    rhs: float
    satisfied: bool
    spread_a: float
    spread_b: float


# dA * dB may fall short of |<[A, B]>| / 2 by this fraction of the larger
# side, in any unit system: 2e-10 of hbar / 2 is the 1e-10 that the natural-
# unit x-p check has always allowed.
_BOUND_RTOL = 2e-10


def _bound_satisfied(lhs: float, rhs: float) -> bool:
    return bool(lhs + _BOUND_RTOL * max(lhs, rhs) >= rhs)


def uncertainty_bound_check(
    op_a: Operator, op_b: Operator, psi: WaveFunction
) -> UncertaintyReport:
    """Check dA * dB >= |<[A, B]>| / 2 up to a relative slack of _BOUND_RTOL.
    The spreads and the commutator share one transform of psi and its warnings."""
    _warn_if_unnormalized(norm_squared(psi))
    values, forward = _amplitudes(psi, op_a, op_b)
    spread_a, spread_b = _spread(op_a, values, forward), _spread(op_b, values, forward)
    lhs = spread_a * spread_b
    rhs = 0.5 * abs(_commutator(op_a, op_b, values, forward))
    return UncertaintyReport(lhs, rhs, _bound_satisfied(lhs, rhs), spread_a, spread_b)
