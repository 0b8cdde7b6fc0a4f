"""Natural units against SI: the same problem, rescaled, behaves the same.

A problem drawn in natural units (hbar = 1) is mapped to SI by a mass scale
M and a length scale L; with SI's hbar these fix the energy scale
E = hbar^2 / (M L^2) and the frequency scale E / hbar.  The SI answers,
divided by their scales, must match the natural ones, and every guard must
decide alike on both sides.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qm1d import (
    NATURAL,
    EvolutionConfig,
    Harmonic,
    InfiniteWell,
    PiecewiseConstant,
    Sampled,
    Barrier,
    WaveFunction,
    barrier_scattering,
    build_hamiltonian,
    crank_nicolson_step,
    custom_operator,
    evolve,
    expectation,
    make_grid,
    normalize,
    position_operator,
    si_constants,
    solve_bound_states,
    split_step,
    to_momentum_space,
    transfer_scattering,
    transmission_sweep,
)
from qm1d.errors import NearDegeneracyWarning, NormalizationWarning, QmError
from qm1d.evolution import SERIES, STEPPERS

ELECTRON_KG = 9.1093837015e-31
HBAR_SI = si_constants(ELECTRON_KG).hbar
# Electron with omega = 1e15 / s: the oscillator length in metres.
ELECTRON_OSC_LENGTH = math.sqrt(HBAR_SI / (ELECTRON_KG * 1e15))

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)

mass_scales = st.sampled_from([ELECTRON_KG, 0.067 * ELECTRON_KG, 1.67262192e-27])
length_scales = st.floats(min_value=1e-11, max_value=1e-8)

wells = st.tuples(
    st.just("well"),
    st.floats(min_value=0.5, max_value=3.0),  # width a
    st.just(1.0),
    st.integers(min_value=64, max_value=400),
    st.integers(min_value=1, max_value=6),
)
oscillators = st.tuples(
    st.just("oscillator"),
    st.floats(min_value=0.5, max_value=4.0),  # omega
    st.floats(min_value=3.0, max_value=12.0),  # box half-width in oscillator lengths
    st.integers(min_value=101, max_value=801),
    st.integers(min_value=1, max_value=8),
)


def _solve(problem, mass, length, constants, order):
    """(energies / energy scale, None) or (None, exception class)."""
    kind, param, half_width, n, count = problem
    energy = constants.hbar**2 / (mass * length**2)
    try:
        if kind == "well":
            grid = make_grid(0.0, param * length, n)
            potential = InfiniteWell(a=param * length)
        else:
            x_max = half_width / math.sqrt(param) * length
            grid = make_grid(-x_max, x_max, n)
            potential = Harmonic(omega=param * energy / constants.hbar, mass=mass)
        h = build_hamiltonian(grid, potential, mass, constants, order=order)
        return solve_bound_states(h, count).energies / energy, None
    except QmError as exc:
        return None, type(exc)


@SETTINGS
@given(
    problem=st.one_of(wells, oscillators),
    mass=mass_scales,
    length=length_scales,
    order=st.sampled_from([2, 4]),  # the 3-point and the 5-point stencil
)
# The oscillator on +-9 oscillator lengths that an absolute edge bound
# rejected in SI only.
@example(
    problem=("oscillator", 1.0, 9.0, 1601, 6), mass=ELECTRON_KG, length=ELECTRON_OSC_LENGTH, order=2
)
def test_spectrum_is_unit_free(problem, mass, length, order):
    natural, natural_error = _solve(problem, 1.0, 1.0, NATURAL, order)
    si, si_error = _solve(problem, mass, length, si_constants(mass), order)
    assert si_error is natural_error
    if natural is not None:
        np.testing.assert_allclose(si, natural, rtol=1e-10, atol=0.0)


@SETTINGS
@given(
    n=st.integers(min_value=8, max_value=16),
    seed=st.integers(min_value=0, max_value=2**16),
    # Defect relative to max |A|, kept off the 1e-12 threshold itself.
    defect=st.sampled_from([0.0, 5e-15, 5e-13, 2e-12, 2e-10, 1e-6]),
    mass=mass_scales,
    length=length_scales,
)
def test_hermiticity_check_is_unit_free(n, seed, defect, mass, length):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = 0.5 * (m + m.conj().T)
    a[0, -1] += defect * np.max(np.abs(a))
    energy = HBAR_SI**2 / (mass * length**2)

    def outcome(matrix, grid):
        try:
            custom_operator(matrix, grid)
        except QmError as exc:
            return type(exc)
        return None

    natural = outcome(a, make_grid(-1.0, 1.0, n))
    si = outcome(energy * a, make_grid(-length, length, n))
    assert si is natural
    assert (natural is None) == (defect < 1e-12)


# A Gaussian exp(-x^2 / 2 w^2) on +-4 to +-8 widths: its edge-to-peak ratio,
# 3e-4 down to 1e-14 and drawn evenly in the exponent, spans the split-step
# edge guard (1e-10) and the Crank-Nicolson excluded-point check (1e-12).
half_widths = st.floats(min_value=16.0, max_value=64.0).map(math.sqrt)
grid_sizes = st.integers(min_value=64, max_value=512)
# Widths from 1e-11 to 1e6 in SI metres, drawn evenly in the exponent.
wide_length_scales = st.floats(min_value=-11.0, max_value=6.0).map(lambda e: 10.0**e)


def _gaussian_twins(half_width, n, mass, length):
    """(state, mass, constants, time scale) of the natural-unit Gaussian of
    width 1 and of its SI twin of width `length`, both normalized."""
    twins = []
    for m, scale, constants in ((1.0, 1.0, NATURAL), (mass, length, si_constants(mass))):
        grid = make_grid(-half_width * scale, half_width * scale, n)
        psi = normalize(WaveFunction(grid, np.exp(-0.5 * (grid.points / scale) ** 2)))
        twins.append((psi, m, constants, m * scale**2 / constants.hbar))
    return twins


def _outcome(guarded):
    """The exception class a guarded call raises, or the warning classes it
    emits (an empty tuple when it neither raises nor warns)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            guarded()
        except QmError as exc:
            return type(exc)
    return tuple(w.category for w in caught)


def _twins_agree(guard, half_width, n, mass, length):
    natural, si = (
        _outcome(lambda: guard(psi, m, constants, 1e-3 * time))
        for psi, m, constants, time in _gaussian_twins(half_width, n, mass, length)
    )
    assert si == natural


# The Gaussian that an absolute 1e-10 edge floor passed at width 1e6 only
# (256 points on +-6 widths, edge/peak 1.5e-8).
FLOORED_EDGE = dict(half_width=6.0, n=256, mass=ELECTRON_KG, length=1e6)


@SETTINGS
@given(half_width=half_widths, n=grid_sizes, mass=mass_scales, length=wide_length_scales)
@example(**FLOORED_EDGE)
def test_split_step_edge_guard_is_unit_free(half_width, n, mass, length):
    def guard(psi, m, constants, dt):
        split_step(psi, PiecewiseConstant(), dt, m, constants)

    _twins_agree(guard, half_width, n, mass, length)


@SETTINGS
@given(half_width=half_widths, n=grid_sizes, mass=mass_scales, length=wide_length_scales)
@example(**FLOORED_EDGE)
def test_transform_edge_warning_is_unit_free(half_width, n, mass, length):
    def guard(psi, m, constants, dt):
        to_momentum_space(psi, constants)

    _twins_agree(guard, half_width, n, mass, length)


@SETTINGS
@given(half_width=half_widths, n=grid_sizes, mass=mass_scales, length=wide_length_scales)
def test_crank_nicolson_excluded_point_check_is_unit_free(half_width, n, mass, length):
    def guard(psi, m, constants, dt):
        h = build_hamiltonian(psi.grid, PiecewiseConstant(), m, constants)
        crank_nicolson_step(psi, h, dt, constants)

    _twins_agree(guard, half_width, n, mass, length)


# Stacks of 1-4 segments, each (gap before it, width, V), starting at x0.
stacks = st.tuples(
    st.floats(min_value=-2.0, max_value=2.0),
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.05, max_value=2.0),
            st.floats(min_value=-4.0, max_value=6.0),
        ),
        min_size=1,
        max_size=4,
    ),
)
# Masses from 0.1 to 1000 electron masses and lengths from 1e-11 to 1e2 m,
# both drawn evenly in the exponent.
stack_masses = st.floats(min_value=-1.0, max_value=3.0).map(lambda e: 10.0**e * ELECTRON_KG)
stack_lengths = st.floats(min_value=-11.0, max_value=2.0).map(lambda e: 10.0**e)


def _segments(stack, length, energy):
    """The stack as a PiecewiseConstant, lengths times `length` and V times `energy`."""
    x0, layers = stack
    segments, end = [], x0
    for gap, width, v in layers:
        start = end + gap
        end = start + width
        segments.append((start * length, end * length, v * energy))
    return PiecewiseConstant(tuple(segments))


@SETTINGS
@given(
    stack=stacks,
    energies=st.lists(st.floats(min_value=0.05, max_value=8.0), min_size=1, max_size=5),
    mass=stack_masses,
    length=stack_lengths,
)
def test_scattering_is_unit_free(stack, energies, mass, length):
    energy = HBAR_SI**2 / (mass * length**2)
    natural = transmission_sweep(_segments(stack, 1.0, 1.0), energies)
    si = transmission_sweep(
        _segments(stack, length, energy), [E * energy for E in energies], mass, si_constants(mass)
    )
    for nat, twin in zip(natural, si):
        assert abs(nat.r - twin.r) <= 1e-11
        assert abs(nat.t - twin.t) <= 1e-11 * abs(nat.t)


def test_thin_tall_barrier_in_si_keeps_the_delta_barrier_limit():
    # Barrier(v0=1e20, a=1e-20) at E = 1 in natural units, for an electron on
    # a 1 angstrom length scale: |T|^2 = 2/3 to double precision
    length = 1e-10
    energy = HBAR_SI**2 / (ELECTRON_KG * length**2)
    si = si_constants(ELECTRON_KG)
    barrier = Barrier(v0=1e20 * energy, a=1e-20 * length)
    kernel = transfer_scattering(barrier, energy, ELECTRON_KG, si)
    closed = barrier_scattering(energy, 1e20 * energy, 1e-20 * length, ELECTRON_KG, si)
    for result in (kernel, closed):
        assert abs(result.prob_t - 2.0 / 3.0) <= 1e-15


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    omega=st.floats(min_value=0.5, max_value=2.0),
    x0=st.floats(min_value=-1.0, max_value=1.0),
    k0=st.floats(min_value=-2.0, max_value=2.0),
    n=st.integers(min_value=128, max_value=512),
    mass=mass_scales,
    length=st.floats(min_value=-11.0, max_value=0.0).map(lambda e: 10.0**e),
)
def test_evolve_series_are_unit_free(omega, x0, k0, n, mass, length):
    """A coherent harmonic packet on +-12 oscillator lengths, 40 steps of
    1/50 of a period, observed every step by both methods."""
    half_width = 12.0 / math.sqrt(omega)
    time = mass * length**2 / HBAR_SI
    energy = HBAR_SI / time
    # (mass, length, time and energy scale, constants) of each side
    sides = ((1.0, 1.0, 1.0, 1.0, NATURAL), (mass, length, time, energy, si_constants(mass)))
    for method in STEPPERS:
        series = []
        for m, scale, t_scale, e_scale, constants in sides:
            grid = make_grid(-half_width * scale, half_width * scale, n)
            x = grid.points / scale
            values = np.exp(-0.5 * omega * (x - x0) ** 2 + 1j * k0 * x) / math.sqrt(scale)
            potential = Harmonic(omega=omega * e_scale / constants.hbar, mass=m)
            config = EvolutionConfig(dt=2.0 * math.pi / omega / 50.0 * t_scale, steps=40,
                                     method=method)
            trajectory = evolve(normalize(WaveFunction(grid, values)), potential, config,
                                m, constants)
            series.append([getattr(trajectory, name) for name in SERIES])
        # Each series in natural units, and its scale: 1, the domain for x,
        # hbar / dx for p, max |E| for the energy.
        natural = dict(zip(SERIES, series[0]))
        units = {"norm": 1.0, "x_mean": length, "x_spread": length,
                 "p_mean": HBAR_SI / length, "p_spread": HBAR_SI / length, "energy": energy}
        dx = 2.0 * half_width / (n - 1)
        bars = {"norm": 1.0, "x_mean": 2.0 * half_width, "x_spread": 2.0 * half_width,
                "p_mean": 1.0 / dx, "p_spread": 1.0 / dx,
                "energy": np.max(np.abs(natural["energy"]))}
        for name, twin in zip(SERIES, series[1]):
            np.testing.assert_allclose(twin / units[name], natural[name], rtol=0.0,
                                       atol=1e-10 * bars[name], err_msg=f"{method} {name}")


def _twin_well_outcome(walls, defect, mass, length, constants):
    """The warnings of solving the two lowest levels of a 101-point box with
    hard walls at the given indices, then of <x> in its ground state with
    norm-squared 1 + defect."""
    grid = make_grid(0.0, length, 101)
    values = np.where(np.isin(np.arange(grid.n), walls), math.inf, 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        h = build_hamiltonian(grid, Sampled(values=values, grid=grid), mass, constants)
        ground = solve_bound_states(h, 2).states[0]
        expectation(position_operator(grid), ground.with_values(
            math.sqrt(1.0 + defect) * ground.values))
    return [w.category for w in caught]


@SETTINGS
@given(
    walls=st.sampled_from([(0, 50, 100), (0, 40, 100)]),
    # Norm defects kept off the 1e-8 threshold itself.
    defect=st.sampled_from([0.0, 1e-12, 2e-9, 5e-8, 1e-4]),
    mass=st.sampled_from([ELECTRON_KG, 1.67262192e-27]),
    length=st.floats(min_value=-11.0, max_value=0.0).map(lambda e: 10.0**e),
)
def test_degeneracy_and_normalization_warnings_are_unit_free(walls, defect, mass, length):
    natural = _twin_well_outcome(walls, defect, 1.0, 1.0, NATURAL)
    si = _twin_well_outcome(walls, defect, mass, length, si_constants(mass))
    expected = [NearDegeneracyWarning] * (walls == (0, 50, 100))
    expected += [NormalizationWarning] * (defect > 1e-8)
    assert natural == expected
    assert si == natural
