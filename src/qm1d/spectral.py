"""Fourier transforms between x-space and p-space.

The discrete transform is scaled by dx/sqrt(2*pi*hbar) and phase-corrected
for the x_min offset, so it approximates the continuum integrals

    phi(p) = 1/sqrt(2 pi hbar) * integral dx psi(x) exp(-i p x / hbar)
    psi(x) = 1/sqrt(2 pi hbar) * integral dp phi(p) exp(+i p x / hbar)

for states that are negligible at the grid edges.  Momenta are stored
centered (negative to positive) so moment integrals read off directly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .core import Grid, Space, WaveFunction
from .errors import EdgeAmplitudeWarning, SpaceTagError

EDGE_AMPLITUDE_TOL = 1e-10


@dataclass(frozen=True)
class MomentumGrid:
    """Conjugate momenta of a position grid: p_j = 2*pi*hbar*j/(n*dx), j centered."""

    p: np.ndarray
    dp: float


def momentum_grid(grid: Grid, constants: PhysicalConstants) -> MomentumGrid:
    n = grid.n
    dp = 2.0 * np.pi * constants.hbar / (n * grid.dx)
    p = dp * (np.arange(n) - n // 2)
    p.setflags(write=False)
    return MomentumGrid(p=p, dp=dp)


def hot_edge_amplitude(values: np.ndarray) -> float:
    """The larger end-point modulus when it exceeds EDGE_AMPLITUDE_TOL *
    max(1, peak), else 0.0: a state that large at the edges wraps around
    in a periodic transform."""
    peak = np.max(np.abs(values))
    edge = max(abs(values[0]), abs(values[-1]))
    return edge if edge > EDGE_AMPLITUDE_TOL * max(1.0, peak) else 0.0


def to_momentum_space(psi: WaveFunction, constants: PhysicalConstants) -> WaveFunction:
    """Forward transform of a position-space state onto the conjugate grid."""
    if psi.space is not Space.POSITION:
        raise SpaceTagError("to_momentum_space expects a position-space state")
    edge = hot_edge_amplitude(psi.values)
    if edge:
        warnings.warn(
            f"position-space state has edge amplitude {edge:.2e}; the periodic "
            "transform will not approximate the continuum integral accurately",
            EdgeAmplitudeWarning,
            stacklevel=2,
        )
    grid = psi.grid
    mgrid = momentum_grid(grid, constants)
    raw = np.fft.fftshift(np.fft.fft(psi.values))
    phase = np.exp(-1j * mgrid.p * grid.x_min / constants.hbar)
    phi = raw * phase * grid.dx / np.sqrt(2.0 * np.pi * constants.hbar)
    return WaveFunction(grid, phi, Space.MOMENTUM, dp=mgrid.dp)


def to_position_space(phi: WaveFunction, constants: PhysicalConstants) -> WaveFunction:
    """Inverse transform; round trip with to_momentum_space is the identity."""
    if phi.space is not Space.MOMENTUM:
        raise SpaceTagError("to_position_space expects a momentum-space state")
    grid = phi.grid
    mgrid = momentum_grid(grid, constants)
    phase = np.exp(1j * mgrid.p * grid.x_min / constants.hbar)
    raw = np.fft.ifft(np.fft.ifftshift(phi.values * phase))
    psi = raw * grid.n * mgrid.dp / np.sqrt(2.0 * np.pi * constants.hbar)
    return WaveFunction(grid, psi, Space.POSITION)
