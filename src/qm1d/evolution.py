"""Time propagation of grid states.

Two deliberately independent propagators:

* Crank-Nicolson: the Cayley form (1 + i H dt / 2 hbar)^-1 (1 - i H dt / 2 hbar),
  exactly unitary for Hermitian H and happy with hard walls (Dirichlet).
* Split-step: half potential phase, kinetic phase in momentum space, half
  potential phase; spectrally accurate in space for smooth potentials but
  requires a periodic-safe state (negligible edge amplitude, no walls).

Each covers the other's blind spot and they cross-validate.  Each reports as
its energy the mean of the Fourier symbol T(p) of the kinetic operator it
applies, plus <V>.  Accuracy note: unconditional stability does not imply
accuracy; keep dt well below hbar / E_max of the occupied spectrum (a factor
of ten is a good default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ._lapack import flapack
from .constants import NATURAL, PhysicalConstants
from .core import Space, WaveFunction, check_state, peak_fraction
from .eigensolver import DiscreteHamiltonian, band_product, build_hamiltonian
from .errors import (
    ConfigurationError,
    EdgeAmplitudeError,
    ParameterError,
    SolverError,
    UnsupportedMethodError,
    positive,
)
from .observables import _SnapshotObservables, _warn_if_unnormalized
from .potentials import Potential
from .spectral import EDGE_AMPLITUDE_TOL, EDGES, fft_momenta, warn_hot_edges

METHOD_CRANK_NICOLSON = "crank_nicolson"
METHOD_SPLIT_STEP = "split_step"


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float
    steps: int
    method: str = METHOD_CRANK_NICOLSON
    observables_every: int = 1

    def __post_init__(self):
        positive("dt", self.dt)
        for name in ("steps", "observables_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
        if self.steps < 0:
            # steps = 0 is the degenerate single-snapshot trajectory
            raise ParameterError(f"steps must be non-negative, got {self.steps}")
        if self.method not in STEPPERS:
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


SERIES = tuple(f.name for f in fields(Trajectory)[2:])


def _check_step(h: DiscreteHamiltonian, dt: float, constants: PhysicalConstants):
    """dt is finite (a negative dt steps back), and H has the hbar of the phases."""
    if not math.isfinite(dt):
        raise ParameterError(f"dt must be finite, got {dt}")
    if h.hbar != constants.hbar:
        raise ConfigurationError(f"H was built with hbar = {h.hbar!r}, not {constants.hbar!r}")


class _CrankNicolson:
    """Stepper for one Hamiltonian at a fixed dt: (1 + i lam H) is LU-factored
    once (LAPACK zgttrf) and the band of (1 - i lam H) is kept, so each step
    is one eigensolver.band_product and one zgttrs solve.

    The implicit side is a tridiagonal solve, so only the 3-point (order 2)
    Hamiltonian is accepted: with a 5-point H the two sides of the Cayley
    form would hold different operators and the step would not be unitary.
    """

    # Largest |psi| allowed at an excluded (hard-wall or box-edge) point, as a
    # fraction of the state's own peak |psi|.
    _WALL_TOL = 1e-12

    def __init__(self, h: DiscreteHamiltonian, dt: float, constants: PhysicalConstants):
        if h.order != 2:
            raise ConfigurationError(
                f"Crank-Nicolson steps the 3-point Hamiltonian only; got a stencil "
                f"of order {h.order} (build it with order=2)"
            )
        _check_step(h, dt, constants)
        # scipy's LAPACK extension alone (qm1d._lapack), loaded on the first
        # stepper, not at module top; the step itself reuses the solver kept here.
        lapack = flapack()

        lam = 0.5 * dt / constants.hbar
        self.active = h.active
        self.zgttrs = lapack.zgttrs
        self.masked = np.flatnonzero(h.mask)
        # Its mean is <T> of the band for every state zero at the excluded points.
        self.kinetic_symbol = h.kinetic_symbol()
        # The explicit half (1 - i lam H), in the band storage of H.
        self.explicit = np.array([1.0 - 1j * lam * h.band[0], -1j * lam * h.band[1]])
        # Every eigenvalue 1 + i lam E has modulus >= 1: the LU cannot break down.
        off = 1j * lam * h.band[1, :-1]
        *self.lu, _ = lapack.zgttrf(off, 1.0 + 1j * lam * h.band[0], off)
        if not all(np.isfinite(factor).all() for factor in self.lu[:4]):
            raise SolverError(f"Crank-Nicolson at dt = {dt!r}: the LU factors of "
                              f"(1 + i dt H / 2 hbar) are not finite")

    def step_values(self, values: np.ndarray) -> np.ndarray:
        """The next state's values."""
        # The wall check runs every step; excluded points holding exactly
        # zero (every stepped state) pass without the peak.
        fraction = peak_fraction(values, self.masked, self._WALL_TOL)
        if fraction:
            raise ParameterError(
                f"state has {fraction:.2e} of its peak amplitude at an excluded "
                "(hard-wall or boundary) point; it does not represent an admissible state"
            )
        rhs = band_product(self.explicit, values[self.active])
        # The solution is always written back, whether zgttrs returned rhs or
        # a new buffer.
        out = np.zeros(values.shape, np.complex128)
        out[self.active], _ = self.zgttrs(*self.lu, rhs, overwrite_b=True)
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
    check_state("crank_nicolson_step", psi, Space.POSITION, h.grid)
    stepper = _CrankNicolson(h, dt, constants)
    return psi.with_values(stepper.step_values(psi.values))


class _SplitStep:
    """Reusable phases for split-step propagation under the V and mass of h.

    The kinetic factor is stored in numpy's unshifted FFT order, and the
    dx * n * dp / (2 pi hbar) = 1 scale of the continuum transforms cancels
    in a round trip, so a step is half * ifft(kinetic_phase * fft(half * psi)).
    """

    def __init__(self, h: DiscreteHamiltonian, dt: float, constants: PhysicalConstants):
        if h.wall_mask.any():
            raise UnsupportedMethodError(
                f"split-step cannot handle hard walls; use {METHOD_CRANK_NICOLSON}"
            )
        _check_step(h, dt, constants)
        self.half_potential = np.exp(-0.5j * h.potential_values * dt / constants.hbar)
        p, _ = fft_momenta(h.grid, constants)
        self.kinetic_phase = np.exp(-0.5j * p**2 * dt / (h.mass * constants.hbar))
        if not (np.isfinite(self.half_potential).all() and np.isfinite(self.kinetic_phase).all()):
            raise SolverError(f"split step at dt = {dt!r}: a kinetic or potential phase is nan")
        # The Fourier-grid T (Kosloff & Kosloff, J. Comput. Phys. 52, 35 (1983)):
        # its mean plus <V> is conserved exactly for V = 0, else to O(dt^2).
        self.kinetic_symbol = p**2 / (2.0 * h.mass)

    def step_values(self, values: np.ndarray) -> np.ndarray:
        """The next state's values."""
        fraction = peak_fraction(values, EDGES, EDGE_AMPLITUDE_TOL)
        if fraction:
            raise EdgeAmplitudeError(
                f"state has {fraction:.2e} of its peak amplitude at a grid edge (periodic-"
                f"wrap guard {EDGE_AMPLITUDE_TOL:.0e}); enlarge the domain or stop earlier"
            )
        # numpy's complex products are not bitwise commutative: keep this order.
        half = self.half_potential
        return half * np.fft.ifft(self.kinetic_phase * np.fft.fft(half * values))


def split_step(
    psi: WaveFunction,
    potential: Potential,
    dt: float,
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> WaveFunction:
    """One second-order split step: V/2, kinetic in p-space, V/2."""
    check_state("split_step", psi, Space.POSITION)
    h = build_hamiltonian(psi.grid, potential, mass, constants)
    stepper = _SplitStep(h, dt, constants)
    return psi.with_values(stepper.step_values(psi.values))


# Each EvolutionConfig.method (and CLI evolve method) with its stepper class.
STEPPERS = {METHOD_CRANK_NICOLSON: _CrankNicolson, METHOD_SPLIT_STEP: _SplitStep}


# Recorded states observed per call of _SnapshotObservables: one FFT and one
# set of row-wise sums per batch.  The (BATCH, n) buffer and the kernel's
# temporaries grow with it; at n = 2048 and BATCH = 4 a CLI evolve run peaks at
# about 1.4 MB of Python allocations, under the bounds of
# tests/test_cli.py::test_evolve_holds_one_state_at_a_time.
BATCH = 4


def _stream(psi0: WaveFunction, potential: Potential, config: EvolutionConfig, mass: float,
            constants: PhysicalConstants, keep: Callable[[np.ndarray], object]):
    """Step psi0 and observe the recorded states: the recorded times, the SERIES
    as arrays and keep(values) of each recorded state.  Recorded states are
    copied into the rows of a (BATCH, n) buffer, observed one full batch, and
    the partial last one, per call.  A step failure is re-raised with "step k: "
    prefixed.  Warnings come after the last step, so a failed run has none: the
    norm's, then the final state's edge.  No earlier state of a run that
    succeeds has a hot edge: the split guard refuses the same peak_fraction,
    Crank-Nicolson refuses edge amplitude in psi0 and zeroes both grid ends.
    A psi0 in momentum space raises SpaceTagError before any step."""
    check_state("evolve", psi0, Space.POSITION)
    h = build_hamiltonian(psi0.grid, potential, mass, constants)
    stepper = STEPPERS[config.method](h, config.dt, constants)
    observe = _SnapshotObservables(h, constants, stepper.kinetic_symbol)
    batch = np.empty((BATCH, psi0.grid.n), dtype=np.complex128)
    rows = 0
    times, kept, observed = [], [], []
    values = psi0.values
    for k in range(config.steps + 1):
        if k:
            try:
                values = stepper.step_values(values)
            except Exception as exc:
                exc.args = (f"step {k}: {exc}",)
                raise
        if k % config.observables_every == 0 or k == config.steps:
            times.append(k * config.dt)
            kept.append(keep(values))
            batch[rows] = values
            rows += 1
            if rows == BATCH or k == config.steps:
                observed.append(observe(batch[:rows]))
                rows = 0
    series = tuple(map(np.concatenate, zip(*observed)))
    for norm in series[0]:
        _warn_if_unnormalized(norm)
    warn_hot_edges(peak_fraction(values, EDGES, EDGE_AMPLITUDE_TOL))
    return np.asarray(times), series, kept


def evolve(
    psi0: WaveFunction,
    potential: Potential,
    config: EvolutionConfig,
    mass: float = 1.0,
    constants: PhysicalConstants = NATURAL,
) -> Trajectory:
    """Propagate and record snapshots every `observables_every` steps.

    The initial state (psi0 itself) and the final step are always recorded.
    Step failures are re-raised with "step k: " prefixed to their message.
    """
    def snapshot(values: np.ndarray) -> WaveFunction:
        return psi0 if values is psi0.values else WaveFunction(psi0.grid, values)

    times, series, snapshots = _stream(psi0, potential, config, mass, constants, snapshot)
    return Trajectory(times, snapshots, *series)
