"""Bound states of the time-independent problem on a grid.

The default kinetic term is the symmetric 3-point stencil (second order,
relative level error (n pi dx)^2 / 12 in the infinite well), so the discrete
Hamiltonian is a real symmetric tridiagonal matrix over the active points
(those not excluded by hard walls or the Dirichlet box boundary).  Its
lowest eigenpairs come from bisection plus inverse iteration.

``build_hamiltonian(..., order=4)`` opts in to the 5-point central-difference
stencil (fourth order; Fornberg, Math. Comp. 51, 699 (1988)), a real
symmetric pentadiagonal matrix.  Its lowest eigenvalues come from banded
bisection and its eigenvectors from banded inverse iteration.  The default
stays second order; the time propagators accept only that default.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import flapack
from .constants import PhysicalConstants
from .core import Grid, WaveFunction, normalize, peak_fraction
from .errors import (ConfigurationError, NearDegeneracyWarning, ParameterError, SolverError,
                     positive, warn)
from .potentials import Potential, sample_on_grid

# Largest |psi| allowed just inside an artificial box edge, as a fraction of
# the state's own peak |psi| (amplitudes carry length^-1/2, so an absolute
# bound would depend on the unit of length).
EDGE_DECAY_TOL = 1e-12
# Gaps below this fraction of hbar^2 / (m dx^2), twice the largest stencil
# coupling, warn as near-degenerate (1e-10 at dx = 0.01 in natural units).
_GAP_WARN_RTOL = 1e-14
# Kinetic stencils by order, in units of c = hbar^2 / (2 m dx^2): the diagonal, its change
# per removed neighbour (odd reflection), and the coupling d = 1, 2, ... rows apart as
# (numerator, denominator), applied as numerator * c / denominator (-4c/3 rounds as written).
_STENCILS = {2: (2.0, 0.0, ((-1.0, 1.0),)), 4: (2.5, 1.0 / 12.0, ((-4.0, 3.0), (1.0, 12.0)))}
# Amplitudes below this fraction of the peak are tail and do not orient a
# 5-point state: the stencil's sign-alternating parasitic mode ripples its
# forbidden-region tails at ~1e-25.  3-point states keep orienting on every
# nonzero point, so their published outputs stay bit-for-bit the same.
_TAIL_FLOOR = 1e-12
# Inverse-iteration sweeps per eigenvalue; each shrinks the error by
# (shift error) / (gap to the next level), so two reach roundoff for any
# resolved gap and the third is margin.
_INVERSE_SWEEPS = 3


def band_product(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The symmetric matrix in lower band storage ``band``, as H.band holds H, times v."""
    y = band[0] * v
    for d in range(1, len(band)):
        coupling = band[d, :-d]
        y[:-d] += coupling * v[d:]
        y[d:] += coupling * v[:-d]
    return y


@dataclass(frozen=True, eq=False)
class DiscreteHamiltonian:
    """Banded symmetric H over the active grid points.

    band is H in LAPACK lower symmetric band storage, shape
    (order // 2 + 1, size): band[0] is the diagonal, band[d, i] couples rows
    i and i + d, and the last d entries of row d are zero; diagonal,
    off_diagonal and second_off_diagonal (None at order 2) are views of its
    rows.  mask marks all excluded points (hard walls plus the two Dirichlet
    endpoints); wall_mask marks only the hard walls.  active_indices are the
    grid indices of the matrix rows, in order.  Every coupling is zero across
    a removed interior point, which decouples the regions on either side of
    a wall.
    """

    grid: Grid
    band: np.ndarray
    mask: np.ndarray
    wall_mask: np.ndarray
    active_indices: np.ndarray
    potential_values: np.ndarray
    mass: float
    hbar: float

    @property
    def size(self) -> int:
        return self.band.shape[1]

    @property
    def order(self) -> int:
        """Accuracy order of the kinetic stencil: 2 (3-point) or 4 (5-point)."""
        return 2 * (len(self.band) - 1)

    @property
    def diagonal(self) -> np.ndarray:
        return self.band[0]

    @property
    def off_diagonal(self) -> np.ndarray:
        return self.band[1, :-1]

    @property
    def second_off_diagonal(self) -> np.ndarray | None:
        return self.band[2, :-2] if len(self.band) > 2 else None

    @cached_property
    def active(self) -> slice | np.ndarray:
        """active_indices as a slice when they are one run (no interior wall),
        so a full-grid vector's active part is read and written as a view."""
        idx = self.active_indices
        return slice(idx[0], idx[-1] + 1) if idx[-1] - idx[0] + 1 == idx.size else idx

    def apply(self, values: np.ndarray) -> np.ndarray:
        """H acting on a full-grid vector; excluded points map to zero."""
        out = np.zeros_like(values, dtype=np.complex128)
        out[self.active] = self.apply_active(values[self.active])
        return out

    def apply_active(self, v: np.ndarray) -> np.ndarray:
        """H acting on a vector already restricted to the active points."""
        return band_product(self.band, v)

    def kinetic_symbol(self) -> np.ndarray:
        """The Fourier symbol T(p) of the kinetic stencil, in numpy's FFT order:
        (hbar^2 / (m dx^2)) (1 - cos(p dx / hbar)) at order 2.  Each stencil's
        diagonal is -2 times its couplings' sum, so T = -4 c sum_d coupling_d
        sin^2(d p dx / 2 hbar), which keeps its accuracy at small p."""
        c = self.hbar**2 / (2.0 * self.mass * self.grid.dx * self.grid.dx)
        half_theta = np.pi * np.fft.fftfreq(self.grid.n)
        _, _, couplings = _STENCILS[self.order]
        return -4.0 * c * sum(numerator / denominator * np.sin(d * half_theta) ** 2
                              for d, (numerator, denominator) in enumerate(couplings, 1))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Ascending eigenvalues with orthonormal eigenstates and solve residuals."""

    energies: np.ndarray
    states: list[WaveFunction]
    residuals: np.ndarray


def build_hamiltonian(
    grid: Grid,
    potential: Potential,
    mass: float,
    constants: PhysicalConstants,
    order: int = 2,
) -> DiscreteHamiltonian:
    """Discretize -hbar^2/(2m) d2/dx2 + V with Dirichlet boundaries.

    With c = hbar^2 / (2 m dx^2), ``order=2`` (the default) is the 3-point
    stencil: diagonal 2c + V, off-diagonal -c.  ``order=4`` is the 5-point
    stencil: diagonal 5c/2 + V, first band -4c/3, second band c/12.  An
    active point next to a removed point w takes the odd reflection
    psi(w - d) = -psi(w + d) for its second-band term, which adds -c/12 to
    its diagonal once per removed neighbour.  Any other order raises
    ParameterError.
    """
    if order not in _STENCILS:
        raise ParameterError(
            f"stencil order must be one of {tuple(_STENCILS)}, got {order!r}"
        )
    positive("mass", mass)
    values, wall_mask = sample_on_grid(potential, grid)
    mask = wall_mask.copy()
    mask[0] = True
    mask[-1] = True
    active = np.flatnonzero(~mask)
    if active.size == 0:
        raise ConfigurationError("no active grid points remain after masking")
    dx = grid.dx
    c = constants.hbar**2 / (2.0 * mass * dx * dx)
    centre, reflected, couplings = _STENCILS[order]
    removed_neighbours = mask[active - 1].astype(float) + mask[active + 1]
    band = np.zeros((len(couplings) + 1, active.size))
    band[0] = (centre - removed_neighbours * reflected) * c + values[active]
    for d, (numerator, denominator) in enumerate(couplings, 1):
        # zero unless rows i and i + d are grid points d apart (no wall between)
        band[d, :-d] = np.where(active[d:] - active[:-d] == d, numerator * c / denominator, 0.0)
    return DiscreteHamiltonian(
        grid=grid,
        band=band,
        mask=mask,
        wall_mask=wall_mask,
        active_indices=active,
        potential_values=values,
        mass=mass,
        hbar=constants.hbar,
    )


def _fix_sign(full: np.ndarray, tail_floor: float) -> np.ndarray:
    """Deterministic orientation: first extremum of the body positive.

    The body runs from the first to the last point above tail_floor times
    the peak, plus one neighbour on each side so an extremum at its rim
    counts.  tail_floor = 0 makes every nonzero point body.
    """
    peak = np.max(np.abs(full))
    body = np.flatnonzero(np.abs(full) > tail_floor * peak)
    lo = max(body[0] - 1, 0)
    v = full[lo : body[-1] + 2]
    turning = np.flatnonzero((v[1:-1] - v[:-2]) * (v[2:] - v[1:-1]) < 0.0)
    pivot = turning[0] + 1 if turning.size else int(np.argmax(np.abs(v)))
    return -full if v[pivot] < 0.0 else full


def _check_box_truncation(h: DiscreteHamiltonian, states: list[WaveFunction]):
    """Artificial Dirichlet edges must not clip the returned states.

    A masked neighbour that is not a hard wall is a box-truncation edge;
    the state amplitude just inside it has to be negligible next to the
    state's peak.
    """
    first, last = h.active_indices[0], h.active_indices[-1]
    edges = tuple(i for i, outside in ((first, first - 1), (last, last + 1))
                  if not h.wall_mask[outside])
    for n, psi in enumerate(states):
        fraction = peak_fraction(psi.values, edges, EDGE_DECAY_TOL)
        if fraction:
            raise ConfigurationError(
                f"state {n} has {fraction:.2e} of its peak amplitude at the box "
                f"edge (tolerance {EDGE_DECAY_TOL:.0e}); enlarge the domain"
            )


def _check_info(routine: str, info: int, order: int):
    """A nonzero LAPACK info (an illegal argument or no convergence) is a SolverError."""
    if info:
        raise SolverError(f"order-{order} eigensolve failed: {routine} returned info={info}")


def _tridiagonal_eigenpairs(h: DiscreteHamiltonian, count: int):
    """Lowest eigenpairs of a tridiagonal H: bisection (dstebz), then inverse
    iteration (dstein), called as scipy's eigh_tridiagonal(select="i") calls
    them (scipy 1.10-1.17), so the results carry the same bits."""
    if h.size == 1:
        # dstein's wrapper rejects n = 1; eigh_tridiagonal returns this too
        return h.diagonal.copy(), np.ones((1, 1))
    lapack = flapack()
    d, e = h.diagonal, h.off_diagonal
    m, w, iblock, isplit, info = lapack.dstebz(d, e, 2, 0.0, 1.0, 1, count, 0.0, "B")
    _check_info("dstebz", info, 2)
    w = w[:m]
    vectors, info = lapack.dstein(d, e, w, iblock, isplit)
    _check_info("dstein", info, 2)
    # dstebz orders by split-off block ("B"), as dstein needs; sort by energy
    order = np.argsort(w)
    return w[order], vectors[:, order]


def _banded_eigenpairs(h: DiscreteHamiltonian, count: int):
    """Lowest eigenpairs of a banded H: banded bisection (dsbevx), then
    inverse iteration with a banded LU (dgbtrf once per eigenvalue, dgbtrs
    per sweep).

    Computing the vectors inside dsbevx reduces the whole matrix to
    tridiagonal form with an n x n transform, which costs seconds at a few
    thousand points; the solves here cost milliseconds.  The calls are those
    of scipy's eig_banded(select="i", eigvals_only=True) and solve_banded,
    whose dgbsv is dgbtrf followed by dgbtrs, so the bits are the same.
    """
    lapack = flapack()
    band = h.band
    width = len(band) - 1
    energies, _, m, _, info = lapack.dsbevx(
        band, 0.0, 1.0, 1, count, compute_v=0, mmax=1, range=2, lower=1,
        abstol=2 * lapack.dlamch("s"), overwrite_ab=0,
    )
    _check_info("dsbevx", info, h.order)
    energies = energies[:m]
    # General band storage for dgbtrf: width rows of room for the LU's
    # fill-in, then row width - d holds band[d] shifted right by d (its
    # trailing zeros roll to the front), then the diagonal and lower rows.
    ab = np.zeros((3 * width + 1, h.size))
    ab[width:2 * width] = [np.roll(band[d], d) for d in range(width, 0, -1)]
    ab[2 * width:] = band
    # Shift just off each eigenvalue so the banded LU never meets an exact
    # zero pivot (a 1 x 1 matrix would); the offset is 64 ulps of the
    # row-sum bound on |H|, about the accuracy of the eigenvalue itself.
    scale = sum((2.0 * np.max(np.abs(row)) for row in band[1:]), np.max(np.abs(band[0])))
    offset = 64.0 * np.finfo(float).eps * scale
    # fixed start: no symmetry of the problem can make it orthogonal to a state
    start = np.random.default_rng(0).standard_normal(h.size)
    vectors = np.empty((h.size, count))
    for j, energy in enumerate(energies):
        ab[2 * width] = band[0] - (energy - offset)
        lu, pivots, info = lapack.dgbtrf(ab, width, width)
        _check_info("dgbtrf", info, h.order)
        v = start
        for _ in range(_INVERSE_SWEEPS):
            v, info = lapack.dgbtrs(lu, width, width, v, pivots)
            _check_info("dgbtrs", info, h.order)
            # keep (near-)degenerate partners apart, as LAPACK's stein does
            v = v - vectors[:, :j] @ (vectors[:, :j].T @ v)
            v = v / np.linalg.norm(v)
        vectors[:, j] = v
    return energies, vectors


def solve_bound_states(h: DiscreteHamiltonian, count: int) -> Spectrum:
    """Lowest `count` eigenpairs, quadrature-normalized, sign-fixed.

    The solve follows the stencil of ``h`` (see the module docstring).
    Raises if the requested states do not fit the matrix or are clipped by
    an artificial box edge.
    """
    if count < 1:
        raise ParameterError(f"need at least one state, got count={count}")
    if count > h.size:
        raise ParameterError(
            f"requested {count} states but the operator has only {h.size} points"
        )
    if not np.isfinite(h.band).all():
        # LAPACK's results on inf or nan are undefined (scipy's wrappers refuse them)
        raise SolverError(f"order-{h.order} eigensolve failed: H has a non-finite entry")
    pairs = _tridiagonal_eigenpairs if h.order == 2 else _banded_eigenpairs
    energies, vectors = pairs(h, count)

    gaps = np.diff(energies)
    gap_warn = _GAP_WARN_RTOL * 2.0 * np.max(np.abs(h.off_diagonal), initial=0.0)
    if gaps.size and gaps.min() < gap_warn:
        warn(f"eigenvalue gap {gaps.min():.2e} is below {gap_warn:.2e}; near-degenerate pair "
             "returned as-is", NearDegeneracyWarning)

    tail_floor = 0.0 if h.order == 2 else _TAIL_FLOOR
    states = []
    residuals = np.empty(count)
    for j in range(count):
        v = vectors[:, j]
        hv = h.apply_active(v)
        residuals[j] = np.linalg.norm(hv - energies[j] * v) / np.linalg.norm(v)
        full = np.zeros(h.grid.n)
        full[h.active_indices] = v
        full = _fix_sign(full, tail_floor)
        states.append(normalize(WaveFunction(h.grid, full)))

    _check_box_truncation(h, states)
    return Spectrum(energies=energies, states=states, residuals=residuals)
