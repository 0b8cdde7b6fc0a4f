"""Fourier transforms between x-space and p-space.

The discrete transform is scaled by dx/sqrt(2*pi*hbar) and phase-corrected
for the x_min offset, so it approximates the continuum integrals

    phi(p) = 1/sqrt(2 pi hbar) * integral dx psi(x) exp(-i p x / hbar)
    psi(x) = 1/sqrt(2 pi hbar) * integral dp phi(p) exp(+i p x / hbar)

for states that are negligible at the grid edges.  Momenta are stored
centered (negative to positive) so moment integrals read off directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import PhysicalConstants
from .core import Grid, Space, WaveFunction, check_state, peak_fraction
from .errors import EdgeAmplitudeWarning, warn

# Largest |psi| at the end points (EDGES), as a fraction of the state's own
# peak |psi|, before it wraps around in a periodic transform.
EDGE_AMPLITUDE_TOL = 1e-10
EDGES = (0, -1)


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


def fft_momenta(grid: Grid, constants: PhysicalConstants) -> tuple[np.ndarray, float]:
    """Momenta in numpy's unshifted FFT order, and the weight w with
    |fft(psi)|^2 w = |phi(p)|^2 dp.  The x_min phase of to_momentum_space has
    unit modulus and the fftshift pair only reorders, so neither enters
    |phi|^2 nor a step that multiplies by a function of p between fft and ifft."""
    mgrid = momentum_grid(grid, constants)
    weight = grid.dx**2 * mgrid.dp / (2.0 * np.pi * constants.hbar)
    return np.fft.ifftshift(mgrid.p), weight


def warn_hot_edges(fraction: float):
    """EdgeAmplitudeWarning for a nonzero peak_fraction of a state at EDGES
    against EDGE_AMPLITUDE_TOL."""
    if fraction:
        warn(f"position-space state has {fraction:.2e} of its peak amplitude at a grid edge; "
             "the periodic transform will not approximate the continuum integral accurately",
             EdgeAmplitudeWarning)


def to_momentum_space(psi: WaveFunction, constants: PhysicalConstants) -> WaveFunction:
    """Forward transform of a position-space state onto the conjugate grid."""
    check_state("to_momentum_space", psi, Space.POSITION)
    warn_hot_edges(peak_fraction(psi.values, EDGES, EDGE_AMPLITUDE_TOL))
    grid = psi.grid
    mgrid = momentum_grid(grid, constants)
    raw = np.fft.fftshift(np.fft.fft(psi.values))
    phase = np.exp(-1j * mgrid.p * grid.x_min / constants.hbar)
    phi = raw * phase * grid.dx / np.sqrt(2.0 * np.pi * constants.hbar)
    return WaveFunction(grid, phi, Space.MOMENTUM, dp=mgrid.dp)


def to_position_space(phi: WaveFunction, constants: PhysicalConstants) -> WaveFunction:
    """Inverse transform; round trip with to_momentum_space is the identity."""
    check_state("to_position_space", phi, Space.MOMENTUM)
    grid = phi.grid
    mgrid = momentum_grid(grid, constants)
    phase = np.exp(1j * mgrid.p * grid.x_min / constants.hbar)
    raw = np.fft.ifft(np.fft.ifftshift(phi.values * phase))
    psi = raw * grid.n * mgrid.dp / np.sqrt(2.0 * np.pi * constants.hbar)
    return WaveFunction(grid, psi, Space.POSITION)
