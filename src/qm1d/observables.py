"""Expectation values, uncertainties, commutators, and the uncertainty bound.

Operators act on grid states under the uniform quadrature measure, so a
Hermitian matrix is Hermitian as an operator and the commutator and
variance identities hold to roundoff.  The momentum operator differentiates
spectrally (a transform round trip), which keeps commutator and
uncertainty-bound checks tight; its expectation defaults to the
momentum-space moment, with the position-space derivative route available
as an independent cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import NATURAL, PhysicalConstants
from .core import Grid, Space, WaveFunction, check_state, inner_product, norm_squared
from .eigensolver import DiscreteHamiltonian
from .errors import (
    EdgeAmplitudeWarning,
    GridMismatchError,
    NormalizationWarning,
    ParameterError,
    warn,
)
from .spectral import fft_momenta, to_momentum_space, to_position_space

# Largest max |A - A^dagger| accepted, as a fraction of max |A|.
HERMITICITY_TOL = 1e-12
_NORM_WARN = 1e-8


@dataclass(frozen=True, eq=False)
class Operator:
    """A Hermitian linear operator on position-space grid states."""

    kind: str
    grid: Grid
    constants: PhysicalConstants = NATURAL
    hamiltonian: DiscreteHamiltonian | None = None
    dense: np.ndarray | None = None

    def apply(self, psi: WaveFunction) -> WaveFunction:
        check_state("Operator.apply", psi, Space.POSITION, self.grid)
        if self.kind == "position":
            return psi.with_values(self.grid.points * psi.values)
        if self.kind == "momentum":
            phi = to_momentum_space(psi, self.constants)
            return to_position_space(phi.with_values(phi.coordinates * phi.values), self.constants)
        if self.kind == "hamiltonian":
            return psi.with_values(self.hamiltonian.apply(psi.values))
        return psi.with_values(self.dense @ psi.values)

    def matrix(self) -> np.ndarray:
        """Dense n x n representation; intended for small grids."""
        if self.kind == "custom":
            return self.dense.copy()
        n = self.grid.n
        out = np.empty((n, n), dtype=np.complex128)
        basis = np.eye(n)
        with warnings.catch_warnings():
            # basis columns are not physical states; edge checks do not apply
            warnings.simplefilter("ignore", EdgeAmplitudeWarning)
            for j in range(n):
                out[:, j] = self.apply(WaveFunction(self.grid, basis[:, j])).values
        return out


def position_operator(grid: Grid) -> Operator:
    return Operator(kind="position", grid=grid)


def momentum_operator(grid: Grid, constants: PhysicalConstants = NATURAL) -> Operator:
    return Operator(kind="momentum", grid=grid, constants=constants)


def hamiltonian_operator(h: DiscreteHamiltonian) -> Operator:
    return Operator(kind="hamiltonian", grid=h.grid, hamiltonian=h)


def custom_operator(matrix: np.ndarray, grid: Grid) -> Operator:
    """Wrap an explicit matrix; rejects non-Hermitian input."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (grid.n, grid.n):
        raise GridMismatchError(f"matrix shape {m.shape} does not match grid size {grid.n}")
    defect = np.max(np.abs(m - m.conj().T))
    if defect > HERMITICITY_TOL * np.max(np.abs(m)):
        raise ParameterError(
            f"matrix is not Hermitian: max |A - A^dagger| = {defect:.2e}"
        )
    return Operator(kind="custom", grid=grid, dense=m)


def _warn_if_unnormalized(n2: float):
    """NormalizationWarning when the norm-squared n2 is off 1 by more than _NORM_WARN."""
    if abs(n2 - 1.0) > _NORM_WARN:
        warn(f"state norm-squared is {n2:.6g}; expectation values assume a normalized state",
             NormalizationWarning)


def _momentum_moments(op: Operator, psi: WaveFunction) -> tuple[float, float]:
    """Mean and variance of p under |phi(p)|^2 dp on the centered grid."""
    check_state("momentum operator", psi, Space.POSITION, op.grid)
    phi = to_momentum_space(psi, op.constants)
    p = phi.coordinates
    density = np.abs(phi.values) ** 2
    mean = np.sum(p * density) * phi.dp
    return mean, np.sum((p - mean) ** 2 * density) * phi.dp


def expectation(op: Operator, psi: WaveFunction) -> complex:
    """<psi|A psi> under the uniform quadrature measure.

    The momentum operator is special-cased to the momentum-space moment
    sum_j p_j |phi_j|^2 dp; all other kinds go through apply().
    """
    _warn_if_unnormalized(norm_squared(psi))
    if op.kind == "momentum":
        return complex(_momentum_moments(op, psi)[0])
    return inner_product(psi, op.apply(psi))


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
    """Root of the variance <(A - <A>)^2>, computed as ||(A - <A>) psi||."""
    _warn_if_unnormalized(norm_squared(psi))
    if op.kind == "momentum":
        _, var = _momentum_moments(op, psi)
    else:
        applied = op.apply(psi)
        mean = inner_product(psi, applied).real
        residual = applied.values - mean * psi.values
        var = np.sum(np.abs(residual) ** 2) * psi.spacing
    return float(np.sqrt(max(var, 0.0)))


def _moments(coords: np.ndarray, density: np.ndarray, scale: float) -> tuple[float, float]:
    """Mean and variance of coords under the weights density * scale, with
    one temporary folded in place."""
    work = coords * density
    mean = float(work.sum() * scale)
    np.subtract(coords, mean, out=work)
    work *= work
    work *= density
    return mean, float(work.sum() * scale)


class _SnapshotObservables:
    """The six evolve series of position-space amplitudes on h's grid.

    Equal to roundoff to norm_squared, expectation and uncertainty of the
    position, momentum and Hamiltonian operators, from one density, one
    unshifted FFT and the state's H psi, which the caller computes once for
    this and the next step.  A call issues no warning: the norm is a series,
    and the evolution loop takes the edge peak_fraction itself and warns
    of both once its last step has succeeded, so a failed run warns of nothing.
    """

    def __init__(self, h: DiscreteHamiltonian, constants: PhysicalConstants):
        self.x = h.grid.points
        self.dx = h.grid.dx
        self.p, self.p_weight = fft_momenta(h.grid, constants)

    def __call__(self, values: np.ndarray, h_values: np.ndarray) -> tuple[float, ...]:
        """The series in evolution.Trajectory's field order; h_values is
        h.apply(values)."""
        density = np.abs(values)
        density *= density
        norm = float(density.sum() * self.dx)
        x_mean, x_var = _moments(self.x, density, self.dx)
        p_density = np.abs(np.fft.fft(values))
        p_density *= p_density
        p_density *= self.p_weight
        p_mean, p_var = _moments(self.p, p_density, 1.0)
        energy = float(np.vdot(values, h_values).real * self.dx)
        return (norm, x_mean, p_mean, math.sqrt(max(x_var, 0.0)),
                math.sqrt(max(p_var, 0.0)), energy)


def commutator_expectation(op_a: Operator, op_b: Operator, psi: WaveFunction) -> complex:
    """<psi|[A, B] psi> for Hermitian A, B: equals <A psi|B psi> - <B psi|A psi>."""
    if op_a.grid != op_b.grid:
        raise GridMismatchError("operators live on different grids")
    a_psi = op_a.apply(psi)
    b_psi = op_b.apply(psi)
    ab = inner_product(a_psi, b_psi)
    return ab - ab.conjugate()


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
    """Check dA * dB >= |<[A, B]>| / 2 up to a relative slack of _BOUND_RTOL."""
    spread_a, spread_b = uncertainty(op_a, psi), uncertainty(op_b, psi)
    lhs = spread_a * spread_b
    rhs = 0.5 * abs(commutator_expectation(op_a, op_b, psi))
    return UncertaintyReport(lhs, rhs, _bound_satisfied(lhs, rhs), spread_a, spread_b)
