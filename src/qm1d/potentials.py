"""Declarative potential models V(x).

Hard walls are represented by an infinite value and, on a grid, by a mask
of excluded points: the discrete Hamiltonian simply drops those rows, which
enforces psi = 0 there exactly.  Piecewise-constant intervals follow a
left-closed, right-open convention; the value at a single boundary point is
measure zero for every integral and scattering result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Grid
from .errors import ConfigurationError, ParameterError, positive


class Potential:
    """Base class; a piecewise-constant variant is its `segments`, others implement value_array."""

    def value_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        v = np.zeros_like(x)
        for start, end, val in segment_list(self):
            v[(x >= start) & (x < end)] = val
        return v


@dataclass(frozen=True)
class InfiniteWell(Potential):
    """Impenetrable box: V = 0 for 0 < x < a, infinite walls outside."""

    a: float

    def __post_init__(self):
        positive("well width", self.a)

    def value_array(self, x):
        x = np.asarray(x, dtype=float)
        v = np.zeros_like(x)
        v[(x <= 0.0) | (x >= self.a)] = math.inf
        return v


@dataclass(frozen=True)
class Barrier(Potential):
    """Rectangular barrier of height v0 on [0, a), zero elsewhere."""

    v0: float
    a: float

    def __post_init__(self):
        positive("barrier height", self.v0)
        positive("barrier width", self.a)

    @property
    def segments(self) -> tuple[tuple[float, float, float], ...]:
        return ((0.0, self.a, self.v0),)


@dataclass(frozen=True)
class Harmonic(Potential):
    """V = 0.5 * mass * omega^2 * x^2."""

    omega: float
    mass: float = 1.0

    def __post_init__(self):
        positive("omega", self.omega)
        positive("mass", self.mass)

    def value_array(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.mass * self.omega**2 * x**2


@dataclass(frozen=True)
class LinearRamp(Potential):
    """Hard wall at x = 0 with V = lam * x for x > 0."""

    lam: float

    def __post_init__(self):
        positive("ramp slope", self.lam)

    def value_array(self, x):
        x = np.asarray(x, dtype=float)
        v = self.lam * x
        v[x <= 0.0] = math.inf
        return v


@dataclass(frozen=True)
class PiecewiseConstant(Potential):
    """Ordered, non-overlapping [start, end) segments; V = 0 where uncovered.

    Segment ends may be -inf/+inf for half-infinite regions.  An empty
    segment list is the free particle, V = 0 everywhere.
    """

    segments: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        segs = tuple((float(a), float(b), float(v)) for a, b, v in self.segments)
        object.__setattr__(self, "segments", segs)
        prev_end = -math.inf
        for start, end, v in segs:
            if not end > start:
                raise ParameterError(f"segment [{start}, {end}) is empty")
            if start < prev_end:
                raise ParameterError("segments overlap or are out of order")
            if not math.isfinite(v):
                raise ParameterError("segment values must be finite")
            prev_end = end


@dataclass(frozen=True, eq=False)
class Sampled(Potential):
    """Values tabulated on a grid and read by linear interpolation, which returns
    each node's own value; an infinite value is a hard wall, nan is rejected."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise ParameterError(
                f"sampled potential has {v.shape} values for a {self.grid.n}-point grid"
            )
        if np.isnan(v).any():
            raise ParameterError("sampled potential values must not be nan")
        object.__setattr__(self, "values", v)

    def value_array(self, x):
        x = np.asarray(x, dtype=float)
        finite = np.where(np.isfinite(self.values), self.values, 0.0)
        out = np.interp(x, self.grid.points, finite)
        wall = np.interp(x, self.grid.points, np.isinf(self.values).astype(float))
        out[wall > 0.0] = math.inf
        return out


def evaluate(potential: Potential, x: float) -> float:
    """V(x); returns math.inf inside a hard wall."""
    return float(potential.value_array(np.array([x]))[0])


def sample_on_grid(potential: Potential, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Sample V on the grid.

    Returns (values, mask): mask is True at hard-wall points, where the
    value entry is zeroed and the point is excluded from any discrete
    operator built on this grid.
    """
    raw = potential.value_array(grid.points)
    mask = ~np.isfinite(raw)
    if mask.all():
        raise ConfigurationError("grid lies entirely inside a hard wall")
    values = np.where(mask, 0.0, raw)
    return values, mask


def segment_list(potential: Potential) -> Sequence[tuple[float, float, float]]:
    """The [start, end) segments of a piecewise-constant, scattering-capable potential."""
    segments = getattr(potential, "segments", None)
    if segments is None:
        raise ParameterError(
            f"{type(potential).__name__} is not a piecewise-constant potential"
        )
    return segments
