"""Time propagation of grid states.

Two deliberately independent propagators:

* Crank-Nicolson: the Cayley form (1 + i H dt / 2 hbar)^-1 (1 - i H dt / 2 hbar),
  exactly unitary for Hermitian H and happy with hard walls (Dirichlet).
* Split-step: half potential phase, kinetic phase in momentum space, half
  potential phase; spectrally accurate in space for smooth potentials but
  requires a periodic-safe state (negligible edge amplitude, no walls).

Each covers the other's blind spot and they cross-validate.  Accuracy note:
unconditional stability does not imply accuracy; keep dt well below
hbar / E_max of the occupied spectrum (a factor of ten is a good default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .constants import NATURAL, PhysicalConstants
from .core import Grid, Space, WaveFunction, norm_squared
from .eigensolver import DiscreteHamiltonian, build_hamiltonian
from .errors import (
    ConfigurationError,
    EdgeAmplitudeError,
    GridMismatchError,
    ParameterError,
    SpaceTagError,
    UnsupportedMethodError,
)
from .observables import (
    expectation,
    hamiltonian_operator,
    momentum_operator,
    position_operator,
    uncertainty,
)
from .potentials import Potential, sample_on_grid
from .spectral import (
    EDGE_AMPLITUDE_TOL,
    hot_edge_amplitude,
    momentum_grid,
    to_momentum_space,
    to_position_space,
)

METHOD_CRANK_NICOLSON = "crank_nicolson"
METHOD_SPLIT_STEP = "split_step"


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    method: str = METHOD_CRANK_NICOLSON
    observables_every: int = 1

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        if self.steps < 0:
            # steps = 0 is the degenerate single-snapshot trajectory
            raise ParameterError(f"steps must be non-negative, got {self.steps}")
        if self.method not in (METHOD_CRANK_NICOLSON, METHOD_SPLIT_STEP):
            raise ParameterError(f"unknown method {self.method!r}")
        if self.observables_every < 1:
            raise ParameterError("observables_every must be at least 1")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Snapshots plus the observable series sampled at the same times."""

    times: np.ndarray
    snapshots: list[WaveFunction]
    norm: np.ndarray
    x_mean: np.ndarray
    p_mean: np.ndarray
    x_spread: np.ndarray
    p_spread: np.ndarray
    energy: np.ndarray


class _CrankNicolson:
    """Reusable workspace for stepping one Hamiltonian at a fixed dt.

    The implicit side is a tridiagonal solve, so only the 3-point (order 2)
    Hamiltonian is accepted: with a 5-point H the two sides of the Cayley
    form would hold different operators and the step would not be unitary.
    """

    _WALL_TOL = 1e-12

    def __init__(self, h: DiscreteHamiltonian, dt: float, constants: PhysicalConstants):
        if h.order != 2:
            raise ConfigurationError(
                f"Crank-Nicolson steps the 3-point Hamiltonian only; got a stencil "
                f"of order {h.order} (build it with order=2)"
            )
        lam = 0.5 * dt / constants.hbar
        self.h = h
        self.lam = lam
        self.masked = np.flatnonzero(h.mask)
        size = h.size
        ab = np.zeros((3, size), dtype=np.complex128)
        ab[0, 1:] = 1j * lam * h.off_diagonal
        ab[1, :] = 1.0 + 1j * lam * h.diagonal
        ab[2, :-1] = 1j * lam * h.off_diagonal
        self.ab = ab

    def step_values(self, values: np.ndarray) -> np.ndarray:
        peak = np.max(np.abs(values))
        if peak > 0.0 and self.masked.size:
            inside = np.max(np.abs(values[self.masked]))
            if inside > self._WALL_TOL * peak:
                raise ParameterError(
                    f"state has amplitude {inside:.2e} at an excluded (hard-wall "
                    "or boundary) point; it does not represent an admissible state"
                )
        idx = self.h.active_indices
        v = values[idx]
        rhs = v - 1j * self.lam * self.h.apply_active(v)
        out = np.zeros_like(values, dtype=np.complex128)
        out[idx] = solve_banded((1, 1), self.ab, rhs)
        return out


def crank_nicolson_step(
    psi: WaveFunction,
    h: DiscreteHamiltonian,
    dt: float,
    constants: PhysicalConstants = NATURAL,
) -> WaveFunction:
    """One Cayley step; norm is preserved to solver roundoff.

    h must be the default 3-point (order 2) Hamiltonian; any other raises
    ConfigurationError.
    """
    if psi.grid != h.grid:
        raise GridMismatchError("state and Hamiltonian live on different grids")
    if psi.space is not Space.POSITION:
        raise SpaceTagError("time stepping acts on position-space states")
    stepper = _CrankNicolson(h, dt, constants)
    return psi.with_values(stepper.step_values(psi.values))


class _SplitStep:
    """Reusable phases for split-step propagation of one potential."""

    def __init__(self, grid: Grid, potential: Potential, dt: float, mass: float,
                 constants: PhysicalConstants):
        values, mask = sample_on_grid(potential, grid)
        if mask.any():
            raise UnsupportedMethodError(
                "split-step cannot handle hard walls; use crank_nicolson"
            )
        hbar = constants.hbar
        self.constants = constants
        self.half_potential = np.exp(-0.5j * values * dt / hbar)
        p = momentum_grid(grid, constants).p
        self.kinetic = np.exp(-0.5j * p**2 * dt / (mass * hbar))

    def step(self, psi: WaveFunction) -> WaveFunction:
        edge = hot_edge_amplitude(psi.values)
        if edge:
            raise EdgeAmplitudeError(
                f"edge amplitude {edge:.2e} exceeds the periodic-wrap guard "
                f"{EDGE_AMPLITUDE_TOL:.0e}; enlarge the domain or stop earlier"
            )
        half = psi.with_values(self.half_potential * psi.values)
        phi = to_momentum_space(half, self.constants)
        phi = phi.with_values(self.kinetic * phi.values)
        out = to_position_space(phi, self.constants)
        return out.with_values(self.half_potential * out.values)


def split_step(
    psi: WaveFunction,
    potential: Potential,
    dt: float,
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> WaveFunction:
    """One second-order split step: V/2, kinetic in p-space, V/2."""
    if psi.space is not Space.POSITION:
        raise SpaceTagError("time stepping acts on position-space states")
    stepper = _SplitStep(psi.grid, potential, dt, mass, constants)
    return stepper.step(psi)


def evolve(
    psi0: WaveFunction,
    potential: Potential,
    config: EvolutionConfig,
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> Trajectory:
    """Propagate and record snapshots every `observables_every` steps.

    The initial state and the final step are always recorded.  Step
    failures are re-raised with the step index attached.
    """
    grid = psi0.grid
    h = build_hamiltonian(grid, potential, mass, constants)
    if config.method == METHOD_CRANK_NICOLSON:
        stepper = _CrankNicolson(h, config.dt, constants)
        advance = stepper.step_values
    else:
        stepper = _SplitStep(grid, potential, config.dt, mass, constants)
        advance = lambda values: stepper.step(WaveFunction(grid, values)).values

    x_op = position_operator(grid)
    p_op = momentum_operator(grid, constants)
    h_op = hamiltonian_operator(h)

    times = [0.0]
    snapshots = [psi0]
    values = psi0.values
    for k in range(1, config.steps + 1):
        try:
            values = advance(values)
        except Exception as exc:
            raise type(exc)(f"step {k}: {exc}") from exc
        if k % config.observables_every == 0 or k == config.steps:
            times.append(k * config.dt)
            snapshots.append(WaveFunction(grid, values))

    series = {name: [] for name in ("norm", "x_mean", "p_mean", "x_spread", "p_spread", "energy")}
    for snap in snapshots:
        series["norm"].append(norm_squared(snap))
        series["x_mean"].append(expectation(x_op, snap).real)
        series["p_mean"].append(expectation(p_op, snap).real)
        series["x_spread"].append(uncertainty(x_op, snap))
        series["p_spread"].append(uncertainty(p_op, snap))
        series["energy"].append(expectation(h_op, snap).real)

    return Trajectory(
        times=np.asarray(times),
        snapshots=snapshots,
        norm=np.asarray(series["norm"]),
        x_mean=np.asarray(series["x_mean"]),
        p_mean=np.asarray(series["p_mean"]),
        x_spread=np.asarray(series["x_spread"]),
        p_spread=np.asarray(series["p_spread"]),
        energy=np.asarray(series["energy"]),
    )
