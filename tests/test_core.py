import math
import re
import warnings

import numpy as np
import pytest

from qm1d import (
    NATURAL,
    Barrier,
    EvolutionConfig,
    GaussianPacketParams,
    InfiniteWell,
    PhysicalConstants,
    PiecewiseConstant,
    Space,
    WaveFunction,
    barrier_scattering,
    build_hamiltonian,
    continuity_residual,
    crank_nicolson_step,
    evolve,
    expectation,
    gaussian_packet_x,
    inner_product,
    make_grid,
    momentum_operator,
    norm_squared,
    normalize,
    position_operator,
    probability_current,
    region_waves,
    solve_bound_states,
    split_step,
    to_momentum_space,
    to_position_space,
    transfer_scattering,
    transmission_sweep,
)
from qm1d.core import peak_fraction
from qm1d.errors import (
    ConfigurationError,
    DegenerateStateError,
    GridMismatchError,
    ParameterError,
    SpaceTagError,
)


def random_state(grid, rng):
    values = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return WaveFunction(grid, values)


def test_make_grid_spacing():
    assert make_grid(0, 1, 11).dx == pytest.approx(0.1)
    assert make_grid(-10, 10, 2001).dx == pytest.approx(0.01)


def test_make_grid_rejects_degenerate_domain():
    with pytest.raises(ConfigurationError):
        make_grid(1, 1, 11)
    with pytest.raises(ConfigurationError):
        make_grid(0, 1, 7)


def test_norm_squared_zero_state():
    g = make_grid(0, 1, 64)
    assert norm_squared(WaveFunction(g, np.zeros(64))) == 0.0


def test_norm_squared_unnormalized_well_mode():
    # integral of sin^2(pi x) over [0, 1] is exactly 1/2; the trapezoid rule
    # is exact here because the cos(2 pi x) part sums to zero over a period
    g = make_grid(0, 1, 201)
    psi = WaveFunction(g, np.sin(np.pi * g.points))
    assert norm_squared(psi) == pytest.approx(0.5, abs=1e-12)


def test_norm_squared_solver_ground_state_is_one():
    g = make_grid(0, 1, 401)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    psi = solve_bound_states(h, 1).states[0]
    assert norm_squared(psi) == pytest.approx(1.0, abs=1e-12)


def test_normalize_matches_box_normalization_constant():
    g = make_grid(0, 1, 501)
    psi = normalize(WaveFunction(g, np.sin(np.pi * g.points)))
    assert psi.values[250].real == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_normalize_idempotent():
    g = make_grid(-5, 5, 256)
    rng = np.random.default_rng(7)
    once = normalize(random_state(g, rng))
    twice = normalize(once)
    assert np.max(np.abs(twice.values - once.values)) <= 1e-15 * np.max(np.abs(once.values))


def test_normalize_zero_state_raises():
    g = make_grid(0, 1, 64)
    with pytest.raises(DegenerateStateError):
        normalize(WaveFunction(g, np.zeros(64)))


# norm^2 overflows to inf, overflows only in the sum, underflows to 0, or is subnormal
@pytest.mark.parametrize("amplitude", [1e200, 1e154, 1e-200, 1e-160])
def test_normalize_survives_a_norm_beyond_the_float_range(amplitude):
    g = make_grid(-8, 8, 64)
    psi = WaveFunction(g, amplitude * np.exp(-g.points**2 / 2) * (1 + 0.5j))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        unit = normalize(psi)
    assert caught == []
    assert abs(norm_squared(unit) - 1.0) <= 1e-14


def test_normalize_of_a_normal_norm_keeps_its_bits():
    g = make_grid(-8, 8, 64)
    psi = WaveFunction(g, 1e150 * np.exp(-g.points**2 / 2))
    assert np.array_equal(normalize(psi).values, psi.values / np.sqrt(norm_squared(psi)))


def test_inner_product_of_normalized_state():
    g = make_grid(-8, 8, 512)
    psi = normalize(WaveFunction(g, gaussian_packet_x(GaussianPacketParams(1.0, 2.0), g.points)))
    assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_inner_product_well_modes_orthogonal():
    g = make_grid(0, 1, 801)
    x = g.points
    psi1 = normalize(WaveFunction(g, np.sin(np.pi * x)))
    psi2 = normalize(WaveFunction(g, np.sin(2 * np.pi * x)))
    assert abs(inner_product(psi1, psi2)) < 1e-12


def test_inner_product_linear_in_second_slot():
    g = make_grid(-4, 4, 128)
    rng = np.random.default_rng(3)
    psi = normalize(random_state(g, rng))
    phi = WaveFunction(g, 1j * psi.values)
    assert inner_product(psi, phi) == pytest.approx(1j, abs=1e-12)


def test_inner_product_conjugate_symmetry_random_states():
    rng = np.random.default_rng(11)
    g = make_grid(-3, 5, 200)
    for _ in range(25):
        psi, phi = random_state(g, rng), random_state(g, rng)
        lhs = inner_product(psi, phi)
        rhs = np.conj(inner_product(phi, psi))
        assert abs(lhs - rhs) <= 1e-15 * max(1.0, abs(lhs))


def test_cauchy_schwarz_random_states():
    rng = np.random.default_rng(13)
    g = make_grid(-3, 5, 200)
    for _ in range(25):
        psi, phi = random_state(g, rng), random_state(g, rng)
        lhs = abs(inner_product(psi, phi)) ** 2
        rhs = norm_squared(psi) * norm_squared(phi)
        assert lhs <= rhs * (1 + 1e-12)


def test_inner_product_grid_mismatch():
    a = make_grid(0, 1, 64)
    b = make_grid(0, 2, 64)
    with pytest.raises(GridMismatchError):
        inner_product(WaveFunction(a, np.ones(64)), WaveFunction(b, np.ones(64)))


def test_probability_current_real_state_vanishes():
    g = make_grid(0, 1, 101)
    j = probability_current(WaveFunction(g, np.sin(np.pi * g.points)), NATURAL)
    assert np.max(np.abs(j)) < 1e-14


def test_probability_current_zero_state():
    g = make_grid(0, 1, 101)
    assert np.all(probability_current(WaveFunction(g, np.zeros(101)), NATURAL) == 0.0)


def test_probability_current_plane_wave():
    # for exp(i k x) with hbar = m = 1 the current is k |psi|^2 = k pointwise;
    # central differences replace k by sin(k dx)/dx
    g = make_grid(-5, 5, 4001)
    k = 2.0
    psi = WaveFunction(g, np.exp(1j * k * g.points))
    j = probability_current(psi, NATURAL)
    expected = k * np.abs(psi.values[100:-100]) ** 2
    assert np.max(np.abs(j[100:-100] - expected)) < k**3 * g.dx**2 / 6 * 1.1


def test_probability_current_rejects_momentum_space():
    g = make_grid(0, 1, 64)
    phi = WaveFunction(g, np.ones(64), Space.MOMENTUM, dp=0.1)
    with pytest.raises(SpaceTagError):
        probability_current(phi, NATURAL)


def test_continuity_residual_stationary_real_state():
    g = make_grid(0, 1, 101)
    psi = WaveFunction(g, np.sin(np.pi * g.points))
    r = continuity_residual(psi, psi, 1e-3, NATURAL)
    assert np.max(np.abs(r)) < 1e-12


def test_continuity_residual_plane_wave_interior():
    g = make_grid(-5, 5, 801)
    psi = WaveFunction(g, np.exp(2j * g.points))
    r = continuity_residual(psi, psi, 1e-3, NATURAL)
    # uniform P and j: only derivative roundoff remains
    assert np.max(np.abs(r[3:-3])) < 1e-10


def test_continuity_residual_rejects_bad_dt():
    g = make_grid(0, 1, 64)
    psi = WaveFunction(g, np.ones(64))
    with pytest.raises(ParameterError):
        continuity_residual(psi, psi, 0.0, NATURAL)


def _free_gaussian_residual(n, dt):
    g = make_grid(-12, 12, n)
    params = GaussianPacketParams(alpha=1.0, k0=1.0)
    psi0 = normalize(WaveFunction(g, gaussian_packet_x(params, g.points)))
    h = build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL)
    psi1 = crank_nicolson_step(psi0, h, dt, NATURAL)
    r = continuity_residual(psi0, psi1, dt, NATURAL)
    margin = n // 16
    return np.max(np.abs(r[margin:-margin]))


def test_continuity_residual_shrinks_under_refinement():
    coarse = _free_gaussian_residual(512, 1e-3)
    fine = _free_gaussian_residual(1024, 5e-4)
    assert coarse / fine >= 2.0


def test_wavefunction_values_are_immutable():
    g = make_grid(0, 1, 16)
    source = np.ones(16, dtype=complex)
    psi = WaveFunction(g, source)
    with pytest.raises(ValueError):
        psi.values[0] = 0.0
    source[0] = 7.0  # the wavefunction holds a private copy
    assert psi.values[0] == 1.0 + 0.0j


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
@pytest.mark.parametrize("space", list(Space))
def test_wavefunction_amplitudes_are_finite(space, bad):
    # The one finiteness check of a state: no entry point sees nan or inf.
    g = make_grid(-8.0, 8.0, 64)
    values = np.exp(-0.5 * g.points**2).astype(complex)
    dp = 0.1 if space is Space.MOMENTUM else None
    psi = WaveFunction(g, values, space, dp)
    assert np.array_equal(psi.values, values)
    values[40] = bad
    message = re.escape(f"WaveFunction amplitudes must be finite; index 40 holds {values[40]}")
    with pytest.raises(ParameterError, match=f"^{message}$"):
        WaveFunction(g, values, space, dp)
    with pytest.raises(ParameterError, match=f"^{message}$"):
        psi.with_values(values)


def test_constants_validation():
    with pytest.raises(ParameterError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ParameterError):
        PhysicalConstants(mass=-1.0)
    with pytest.raises(ParameterError):
        PhysicalConstants(hbar=1.0, h=6.0)  # far from 2 pi hbar
    c = PhysicalConstants(hbar=2.0)
    assert c.h == pytest.approx(4.0 * np.pi, rel=1e-15)


_GRID = make_grid(-8.0, 8.0, 64)
_OTHER_GRID = make_grid(-9.0, 9.0, 64)


def _gaussian(grid, space):
    """A normalized Gaussian, negligible at the edges, in the given representation."""
    psi = normalize(WaveFunction(grid, np.exp(-0.5 * grid.points**2)))
    return psi if space is Space.POSITION else to_momentum_space(psi, NATURAL)


_REFERENCE = _gaussian(_GRID, Space.POSITION)
_H = build_hamiltonian(_GRID, PiecewiseConstant(), 1.0, NATURAL)

# Entry point: (its call on a state, the representation it takes, the class
# raised for a state of that representation on another grid, the class raised
# for a state on _GRID in the other representation).  None means no error:
# an entry point with no grid of its own accepts any grid.  The classes are
# those each entry point raised with its own inline check.
STATE_CHECKS = {
    "Operator.apply": (lambda psi: position_operator(_GRID).apply(psi),
                       Space.POSITION, GridMismatchError, SpaceTagError),
    "momentum_moments": (lambda psi: expectation(momentum_operator(_GRID), psi),
                         Space.POSITION, GridMismatchError, SpaceTagError),
    "crank_nicolson_step": (lambda psi: crank_nicolson_step(psi, _H, 1e-3, NATURAL),
                            Space.POSITION, GridMismatchError, SpaceTagError),
    "split_step": (lambda psi: split_step(psi, PiecewiseConstant(), 1e-3, 1.0, NATURAL),
                   Space.POSITION, None, SpaceTagError),
    "to_momentum_space": (lambda psi: to_momentum_space(psi, NATURAL),
                          Space.POSITION, None, SpaceTagError),
    "to_position_space": (lambda psi: to_position_space(psi, NATURAL),
                          Space.MOMENTUM, None, SpaceTagError),
    "probability_current": (lambda psi: probability_current(psi, NATURAL),
                            Space.POSITION, None, SpaceTagError),
    "continuity_residual": (lambda psi: continuity_residual(_REFERENCE, psi, 1e-3, NATURAL),
                            Space.POSITION, GridMismatchError, SpaceTagError),
    "inner_product": (lambda psi: inner_product(_REFERENCE, psi),
                      Space.POSITION, GridMismatchError, SpaceTagError),
    "evolve": (lambda psi: evolve(psi, PiecewiseConstant(), EvolutionConfig(1e-3, 1)),
               Space.POSITION, None, SpaceTagError),
}


@pytest.mark.parametrize("mismatch", ["other_grid", "other_space"])
@pytest.mark.parametrize("entry", sorted(STATE_CHECKS))
def test_state_check_at_every_entry_point(entry, mismatch):
    call, space, on_other_grid, in_other_space = STATE_CHECKS[entry]
    if mismatch == "other_grid":
        psi, expected = _gaussian(_OTHER_GRID, space), on_other_grid
    else:
        other = Space.MOMENTUM if space is Space.POSITION else Space.POSITION
        psi, expected = _gaussian(_GRID, other), in_other_space
    if expected is None:
        call(psi)
    else:
        with pytest.raises(expected):
            call(psi)


@pytest.mark.parametrize("scale", [1e-200, 1e-150, 1.0, 1e150, 1e200])
def test_peak_fraction_is_scale_free(scale):
    # edge/peak 1.5e-8; at 1e-200 the mean |psi|^2 underflows and at 1e200 it
    # overflows, so the verdict then comes from the peak scan alone
    x = np.linspace(-6.0, 6.0, 256)
    values = (scale * np.exp(-0.5 * x**2)).astype(complex)
    expected = abs(values[0]) / np.max(np.abs(values))
    for points in [(0, -1), np.array([0, 255])]:
        assert peak_fraction(values, points, 1e-10) == pytest.approx(expected, rel=1e-12)
        assert peak_fraction(values, points, 1e-6) == 0.0
    clipped = values.copy()
    clipped[[0, -1]] = 0.0
    assert peak_fraction(clipped, (0, -1), 0.0) == 0.0



def test_peak_fraction_of_an_index_array():
    # Exact zeros, of either sign, return before any reduction; a watched
    # value at half and at twice tol times the peak reads 0.0 and its
    # fraction; a nan, watched or at the peak, reads 0.0 as it always has.
    x = np.linspace(-6.0, 6.0, 256)
    values = np.exp(-0.5 * x**2).astype(complex)
    points = np.array([0, 100, 255])
    tol = 1e-6
    values[points] = [0.0, -0.0, complex(-0.0, -0.0)]
    assert peak_fraction(values, points, tol) == 0.0
    peak = np.max(np.abs(values))
    for factor, expected in ((0.5, 0.0), (2.0, 2.0 * tol)):
        hot = values.copy()
        hot[100] = factor * tol * peak
        assert peak_fraction(hot, points, tol) == pytest.approx(expected, rel=1e-12)
    for where, wall in ((100, 0.0), (128, 0.0), (128, 1e-3)):
        bad = values.copy()
        bad[100] = wall
        bad[where] = np.nan
        assert peak_fraction(bad, points, tol) == 0.0

_PSI = WaveFunction(_GRID, np.exp(-_GRID.points**2))
# (call, exception, message fragment): input checks no other test reaches.
INPUT_CHECKS = {
    "amplitude_count": (lambda: WaveFunction(make_grid(0.0, 1.0, 8), np.zeros(7)),
                        GridMismatchError, "amplitude count"),
    "momentum_without_dp": (
        lambda: WaveFunction(make_grid(0.0, 1.0, 8), np.zeros(8), Space.MOMENTUM),
        ConfigurationError, "requires dp",
    ),
    "hbar_nan": (lambda: PhysicalConstants(hbar=math.nan), ParameterError,
                 "^hbar must be positive, got nan$"),
    "hbar_inf": (lambda: PhysicalConstants(hbar=math.inf), ParameterError,
                 "^hbar must be finite, got inf$"),
    "constants_mass_nan": (lambda: PhysicalConstants(mass=math.nan), ParameterError,
                           "^mass must be positive, got nan$"),
    "constants_mass_inf": (lambda: PhysicalConstants(mass=math.inf), ParameterError,
                           "^mass must be finite, got inf$"),
    "config_dt_nan": (lambda: EvolutionConfig(dt=math.nan, steps=1), ParameterError,
                      "^dt must be positive, got nan$"),
    "continuity_dt_nan": (lambda: continuity_residual(_PSI, _PSI, math.nan, NATURAL),
                          ParameterError, "^dt must be positive, got nan$"),
}

# Every function a bare mass enters, each with a mass outside 0 < m < inf.
_MASS_ENTRIES = {
    "build_hamiltonian": lambda m: build_hamiltonian(_PSI.grid, PiecewiseConstant(), m, NATURAL),
    "evolve": lambda m: evolve(_PSI, PiecewiseConstant(), EvolutionConfig(0.01, 1), mass=m),
    "split_step": lambda m: split_step(_PSI, PiecewiseConstant(), 0.01, mass=m),
    "transfer_scattering": lambda m: transfer_scattering(Barrier(1.0, 1.0), 0.5, mass=m),
    "transmission_sweep": lambda m: transmission_sweep(Barrier(1.0, 1.0), [0.5], mass=m),
    "region_waves": lambda m: region_waves(Barrier(1.0, 1.0), 0.5, mass=m),
    "barrier_scattering": lambda m: barrier_scattering(0.5, 1.0, 1.0, mass=m),
}
_BAD_MASSES = {-1.0: "positive, got -1.0", 0.0: "positive, got 0.0",
               math.nan: "positive, got nan", math.inf: "finite, got inf"}
INPUT_CHECKS.update({
    f"mass_{m}_{name}": (lambda call=call, m=m: call(m), ParameterError, f"^mass must be {rule}$")
    for name, call in _MASS_ENTRIES.items() for m, rule in _BAD_MASSES.items()
})

# Both single steps, each with a dt that is not finite (a negative one steps back).
_STEP_ENTRIES = {
    "crank_nicolson_step": lambda dt: crank_nicolson_step(
        _PSI, build_hamiltonian(_PSI.grid, PiecewiseConstant(), 1.0, NATURAL), dt, NATURAL),
    "split_step": lambda dt: split_step(_PSI, PiecewiseConstant(), dt),
}
INPUT_CHECKS.update({
    f"dt_{dt}_{name}": (lambda call=call, dt=dt: call(dt), ParameterError,
                        f"^dt must be finite, got {dt}$")
    for name, call in _STEP_ENTRIES.items() for dt in (math.nan, math.inf, -math.inf)
})


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks(case):
    call, error, fragment = INPUT_CHECKS[case]
    with pytest.raises(error, match=fragment):
        call()


# Each positive physical parameter the guard checks, by where it enters.
_REAL_ENTRIES = {
    "config_dt": ("dt", lambda v: EvolutionConfig(dt=v, steps=3)),
    "hamiltonian_mass": ("mass", _MASS_ENTRIES["build_hamiltonian"]),
    "scattering_mass": ("mass", _MASS_ENTRIES["transfer_scattering"]),
}


@pytest.mark.parametrize("value", [True, "0.1", None, 1 + 0j, np.complex128(1.0)],
                         ids=["bool", "str", "none", "complex", "numpy_complex"])
@pytest.mark.parametrize("entry", sorted(_REAL_ENTRIES))
def test_positive_parameters_must_be_real_numbers(entry, value):
    # A bool is not taken as 1, and no other type reaches the comparisons.
    what, call = _REAL_ENTRIES[entry]
    with pytest.raises(ParameterError, match=f"^{what} must be a real number, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("value", [2, np.int64(2), np.float32(0.5), np.float64(0.5)],
                         ids=["int", "numpy_int", "float32", "float64"])
@pytest.mark.parametrize("entry", sorted(_REAL_ENTRIES))
def test_positive_parameters_accept_ints_and_numpy_reals(entry, value):
    _REAL_ENTRIES[entry][1](value)
