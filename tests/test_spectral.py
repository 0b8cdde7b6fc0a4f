import numpy as np
import pytest

from qm1d import (
    NATURAL,
    GaussianPacketParams,
    Space,
    WaveFunction,
    gaussian_packet_x,
    make_grid,
    momentum_expectation_x_route,
    momentum_grid,
    momentum_operator,
    expectation,
    norm_squared,
    normalize,
    to_momentum_space,
    to_position_space,
)
from qm1d.errors import EdgeAmplitudeWarning, SpaceTagError


def gaussian_state(grid, alpha=1.0, k0=0.0):
    params = GaussianPacketParams(alpha=alpha, k0=k0)
    return normalize(WaveFunction(grid, gaussian_packet_x(params, grid.points)))


def band_limited_random(grid, rng, modes=12):
    # random smooth periodic-safe state: a few low-k envelope modes under a
    # Gaussian narrow enough that the edge amplitudes are dead (< 1e-10)
    x = grid.points
    values = np.zeros(grid.n, dtype=complex)
    width = (grid.x_max - grid.x_min) / 14
    for _ in range(modes):
        k = rng.uniform(-2.0, 2.0)
        values += (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(1j * k * x)
    values *= np.exp(-(x - 0.5 * (grid.x_min + grid.x_max)) ** 2 / (2 * width**2))
    return normalize(WaveFunction(grid, values))


def test_momentum_grid_layout():
    g = make_grid(-10, 10, 256)
    mg = momentum_grid(g, NATURAL)
    assert mg.dp == pytest.approx(2 * np.pi / (256 * g.dx))
    assert np.all(np.diff(mg.p) > 0)
    assert mg.p[128] == 0.0


def test_gaussian_transforms_to_gaussian():
    g = make_grid(-16, 16, 512)
    psi = gaussian_state(g, alpha=1.0)
    phi = to_momentum_space(psi, NATURAL)
    p = momentum_grid(g, NATURAL).p
    density = np.abs(phi.values) ** 2
    # |phi(p)|^2 proportional to exp(-2 alpha p^2) for alpha = 1, k0 = 0
    expected = density[256] * np.exp(-2.0 * p**2)
    assert np.max(np.abs(density - expected)) < 1e-12


def test_carrier_shifts_momentum_peak():
    g = make_grid(-16, 16, 1024)
    psi = gaussian_state(g, alpha=1.0, k0=5.0)
    phi = to_momentum_space(psi, NATURAL)
    mg = momentum_grid(g, NATURAL)
    peak = mg.p[np.argmax(np.abs(phi.values) ** 2)]
    assert abs(peak - 5.0) <= mg.dp


def test_transform_linearity_zero():
    g = make_grid(-4, 4, 64)
    phi = to_momentum_space(WaveFunction(g, np.zeros(64)), NATURAL)
    assert np.all(phi.values == 0.0)
    back = to_position_space(phi, NATURAL)
    assert np.all(back.values == 0.0)


def test_round_trip_identity():
    rng = np.random.default_rng(5)
    g = make_grid(-12, 20, 384)
    psi = band_limited_random(g, rng)
    back = to_position_space(to_momentum_space(psi, NATURAL), NATURAL)
    assert np.max(np.abs(back.values - psi.values)) < 1e-12


def test_momentum_spike_is_plane_wave():
    # oracle: the inverse transform of a unit coordinate vector, summed
    # directly from the definition
    g = make_grid(-7, 9, 128)
    mg = momentum_grid(g, NATURAL)
    j0 = 80
    spike = np.zeros(128, dtype=complex)
    spike[j0] = 1.0
    psi = to_position_space(WaveFunction(g, spike, Space.MOMENTUM, dp=mg.dp), NATURAL)
    expected = mg.dp / np.sqrt(2 * np.pi) * np.exp(1j * mg.p[j0] * g.points)
    assert np.max(np.abs(psi.values - expected)) < 1e-13


def test_space_tag_enforced():
    g = make_grid(-16, 16, 64)
    psi = WaveFunction(g, np.ones(64))
    with pytest.raises(SpaceTagError):
        to_position_space(psi, NATURAL)
    phi = to_momentum_space(gaussian_state(g), NATURAL)
    with pytest.raises(SpaceTagError):
        to_momentum_space(phi, NATURAL)


def test_parseval_band_limited_states():
    rng = np.random.default_rng(17)
    g = make_grid(-15, 15, 300)
    for _ in range(20):
        psi = band_limited_random(g, rng)
        phi = to_momentum_space(psi, NATURAL)
        assert abs(norm_squared(phi) - norm_squared(psi)) < 1e-12


def test_momentum_route_agreement():
    rng = np.random.default_rng(23)
    g = make_grid(-18, 18, 512)
    for _ in range(10):
        psi = band_limited_random(g, rng)
        p_route = expectation(momentum_operator(g, NATURAL), psi)
        x_route = momentum_expectation_x_route(psi, NATURAL)
        assert abs(p_route - x_route) < 1e-8


def test_hot_edges_warn():
    g = make_grid(-4, 4, 64)
    psi = WaveFunction(g, np.ones(64))
    with pytest.warns(EdgeAmplitudeWarning):
        to_momentum_space(psi, NATURAL)


def test_hbar_scaling():
    # with hbar = 2 the conjugate momenta double
    from qm1d import PhysicalConstants

    c2 = PhysicalConstants(hbar=2.0)
    g = make_grid(-16, 16, 512)
    psi = gaussian_state(g, alpha=1.0, k0=3.0)
    phi = to_momentum_space(psi, c2)
    mg = momentum_grid(g, c2)
    peak = mg.p[np.argmax(np.abs(phi.values) ** 2)]
    assert abs(peak - 6.0) <= mg.dp
    assert abs(norm_squared(phi) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [255, 256])
def test_momentum_state_coordinates_are_the_momentum_grid(n):
    g = make_grid(-10, 10, n)
    phi = to_momentum_space(gaussian_state(g, k0=1.0), NATURAL)
    assert np.array_equal(phi.coordinates, momentum_grid(g, NATURAL).p)
