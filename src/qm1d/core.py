"""Grids, wavefunctions, and the elementary bilinear operations on them.

A state is a complex array sampled on a uniform grid, tagged with the
representation it lives in (position or momentum).  All integrals use the
uniform Riemann sum (spacing times the plain vector sum), which agrees with
the trapezoid rule whenever the state vanishes at the grid edges - true for
every Dirichlet or decay-guarded state this engine produces - and, unlike
endpoint-weighted rules, keeps the discrete inner product exactly
compatible with plain Hermitian matrix algebra.  Every operation returns a
new value; nothing mutates a wavefunction in place.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import PhysicalConstants
from .errors import (
    ConfigurationError,
    DegenerateStateError,
    GridMismatchError,
    ParameterError,
    SpaceTagError,
    positive,
)

_TINY = np.finfo(float).tiny


class Space(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


@dataclass(frozen=True)
class Grid:
    """Uniform 1D mesh with both endpoints included."""

    x_min: float
    x_max: float
    n: int

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @cached_property
    def points(self) -> np.ndarray:
        x = np.linspace(self.x_min, self.x_max, self.n)
        x.setflags(write=False)
        return x


def make_grid(x_min: float, x_max: float, n: int) -> Grid:
    """Build a uniform grid; rejects degenerate domains and n < 8."""
    if n < 8:
        raise ConfigurationError(f"grid needs at least 8 points, got {n}")
    if not x_max > x_min:
        raise ConfigurationError(f"empty domain: x_max={x_max} must exceed x_min={x_min}")
    return Grid(float(x_min), float(x_max), int(n))


@dataclass(frozen=True, eq=False)
class WaveFunction:
    """Finite complex amplitudes on a grid, in either x-space or p-space.

    For momentum-space states ``dp`` carries the mesh spacing of the
    conjugate grid; the sample coordinates are then ``dp * j`` for the
    centered integers j in [-n//2, n - n//2).
    """

    grid: Grid
    values: np.ndarray
    space: Space = Space.POSITION
    dp: float | None = field(default=None)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128)  # private copy
        if v.shape != (self.grid.n,):
            raise GridMismatchError(
                f"amplitude count {v.shape} does not match grid size {self.grid.n}"
            )
        if not np.isfinite(v).all():  # the one finiteness check of a state
            i = np.flatnonzero(~np.isfinite(v))[0]
            raise ParameterError(f"WaveFunction amplitudes must be finite; index {i} holds {v[i]}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.space is Space.MOMENTUM and self.dp is None:
            raise ConfigurationError("momentum-space wavefunction requires dp")

    @property
    def spacing(self) -> float:
        """Quadrature spacing of the representation this state lives in."""
        return self.grid.dx if self.space is Space.POSITION else self.dp

    @property
    def coordinates(self) -> np.ndarray:
        if self.space is Space.POSITION:
            return self.grid.points
        n = self.grid.n
        return self.dp * (np.arange(n) - n // 2)

    def with_values(self, values: np.ndarray) -> "WaveFunction":
        return WaveFunction(self.grid, values, self.space, self.dp)


def check_state(user: str, psi: WaveFunction, space: Space, grid: Grid | None = None):
    """Raise unless psi lives in `space`, and on `grid` when one is given."""
    if grid is not None and psi.grid != grid:
        raise GridMismatchError(f"{user} needs a state on {grid}, got one on {psi.grid}")
    if psi.space is not space:
        raise SpaceTagError(f"{user} acts on {space.value}-space states, got {psi.space.value}")


def peak_fraction(values: np.ndarray, points, tol: float) -> float:
    """max |values[points]| / max |values| when it exceeds tol, else 0.0.

    Every amplitude guard compares with the state's own peak, so it decides
    alike in any unit of length.  points is a tuple of indices, read as
    scalars, or an index array.  The peak is scanned only when the bound
    peak >= sqrt(mean |values|^2) leaves the verdict open; the bound is used
    unsquared and only from a normal mean, so no underflow or overflow decides.
    """
    if isinstance(points, tuple):
        watched = max([abs(values[i]) for i in points], default=0.0)
    else:
        watched = values[points]
        if not watched.any():  # exact zeros, as at every stepped state's walls
            return 0.0
        watched = np.max(np.abs(watched))
    if watched == 0.0:
        return 0.0
    mean = np.vdot(values, values).real / values.size
    if _TINY <= mean < math.inf and watched <= tol * math.sqrt(mean):
        return 0.0
    fraction = watched / np.max(np.abs(values))
    return float(fraction) if fraction > tol else 0.0


def norm_squared(psi: WaveFunction) -> float:
    """Quadrature value of the integral of |psi|^2 over the grid."""
    return float(np.sum(np.abs(psi.values) ** 2) * psi.spacing)


def normalize(psi: WaveFunction) -> WaveFunction:
    """Rescale so the probability integral equals 1.

    When the squared norm is inf, 0 or subnormal, it is taken again from the
    amplitudes divided by their peak |psi|, so any state that is not all
    zeros normalizes, without a numpy warning.
    """
    with np.errstate(over="ignore", under="ignore"):
        n2 = norm_squared(psi)
        if not _TINY <= n2 < math.inf:
            peak = np.max(np.abs(psi.values))
            if peak > 0.0:
                psi = psi.with_values(psi.values / peak)
                n2 = norm_squared(psi)
    if n2 <= 0.0:
        raise DegenerateStateError("cannot normalize a zero-norm state")
    return psi.with_values(psi.values / np.sqrt(n2))


def inner_product(psi: WaveFunction, phi: WaveFunction) -> complex:
    """<psi|phi> with the uniform quadrature measure; conjugate-linear in psi."""
    check_state("inner_product", phi, psi.space, psi.grid)
    return complex(np.vdot(psi.values, phi.values) * psi.spacing)


def probability_current(psi: WaveFunction, constants: PhysicalConstants) -> np.ndarray:
    """Probability flux j = (hbar/m) Im(conj(psi) dpsi/dx) on the grid.

    Central differences in the interior, second-order one-sided stencils
    at the two boundary points.
    """
    check_state("probability_current", psi, Space.POSITION)
    dpsi = np.gradient(psi.values, psi.grid.dx, edge_order=2)
    j = (constants.hbar / constants.mass) * np.imag(np.conj(psi.values) * dpsi)
    return j


def continuity_residual(
    psi_before: WaveFunction,
    psi_after: WaveFunction,
    dt: float,
    constants: PhysicalConstants,
) -> np.ndarray:
    """Pointwise residual of dP/dt + dj/dx across one evolution step.

    The current divergence is evaluated on the midpoint state
    (psi_before + psi_after)/2; the residual shrinks at O(dx^2 + dt)
    under refinement for consistent dynamics.
    """
    check_state("continuity_residual", psi_after, Space.POSITION, psi_before.grid)
    check_state("continuity_residual", psi_before, Space.POSITION)
    positive("dt", dt)
    p_before = np.abs(psi_before.values) ** 2
    p_after = np.abs(psi_after.values) ** 2
    midpoint = psi_before.with_values(0.5 * (psi_before.values + psi_after.values))
    j = probability_current(midpoint, constants)
    dj = np.gradient(j, psi_before.grid.dx, edge_order=2)
    return (p_after - p_before) / dt + dj
