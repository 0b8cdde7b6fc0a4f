import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qm1d import (
    NATURAL,
    Harmonic,
    InfiniteWell,
    LinearRamp,
    PiecewiseConstant,
    Sampled,
    build_hamiltonian,
    inner_product,
    make_grid,
    oscillator_state,
    si_constants,
    solve_bound_states,
    well_energy,
    well_state,
)
from qm1d import eigensolver
from qm1d.errors import ConfigurationError, NearDegeneracyWarning, ParameterError, SolverError


def orient_first_extremum_positive(values):
    v = np.asarray(values, dtype=float)
    turning = np.flatnonzero((v[1:-1] - v[:-2]) * (v[2:] - v[1:-1]) < 0.0)
    pivot = turning[0] + 1 if turning.size else int(np.argmax(np.abs(v)))
    return -v if v[pivot] < 0.0 else v

# First negative zeros of the Airy function, frozen from the bisection
# oracle below (mpmath, 30 digits); the linear-ramp levels are
# (hbar^2 lam^2 / 2 m)^(1/3) times these magnitudes.
AIRY_ZEROS = (-2.3381074104597670, -4.0879494441309706, -5.5205598280955511)


def airy_zero_oracle(lo, hi):
    """Bisection on the Airy function via its arbitrary-precision series."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    f_lo = mp.airyai(lo)
    while hi - lo > mp.mpf("1e-25"):
        mid = (lo + hi) / 2
        f_mid = mp.airyai(mid)
        if mp.sign(f_mid) == mp.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def test_airy_oracle_reproduces_frozen_zeros():
    brackets = ((-3.0, -2.0), (-4.5, -3.5), (-6.0, -5.0))
    for frozen, (lo, hi) in zip(AIRY_ZEROS, brackets):
        assert abs(airy_zero_oracle(lo, hi) - frozen) < 1e-14


def test_stencil_coefficients():
    g = make_grid(0.0, 1.0, 11)  # dx = 0.1
    h = build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL)
    assert np.allclose(h.diagonal, 100.0)
    assert np.allclose(h.off_diagonal, -50.0)


def assert_band_layout(h):
    """h.band is LAPACK lower symmetric band storage of the H apply_active applies."""
    assert h.band.shape == (h.order // 2 + 1, h.size)
    dense = np.diag(h.band[0])
    for d in range(1, len(h.band)):
        assert np.array_equal(h.band[d, -d:], np.zeros(d))
        dense += np.diag(h.band[d, :-d], d) + np.diag(h.band[d, :-d], -d)
    v = np.random.default_rng(0).standard_normal(h.size)
    bound = np.abs(dense).sum(axis=1).max() * np.abs(v).max()
    np.testing.assert_allclose(h.apply_active(v), dense @ v, rtol=0.0, atol=1e-14 * bound)


@pytest.mark.parametrize("wall", [None, 150])
@pytest.mark.parametrize("order", [2, 4])
def test_apply_of_a_complex_vector_is_the_real_band_product(order, wall):
    # h.apply of a complex vector has the bits of the real-band product, with
    # the active points one slice and, past an interior wall, an index array.
    g = make_grid(-10.0, 10.0, 401)
    raw = 0.5 * g.points**2
    if wall is not None:
        raw[wall] = math.inf
    h = build_hamiltonian(g, Sampled(values=raw, grid=g), 1.0, NATURAL, order=order)
    assert isinstance(h.active, slice) == (wall is None)
    rng = np.random.default_rng(order)
    values = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    v = values[h.active_indices]
    y = h.band[0] * v
    for d in range(1, len(h.band)):
        y[:-d] += h.band[d, :-d] * v[d:]
        y[d:] += h.band[d, :-d] * v[:-d]
    expected = np.zeros(g.n, dtype=np.complex128)
    expected[h.active_indices] = y
    assert np.array_equal(h.apply(values).view(float), expected.view(float))
    # real input, such as the solve residuals, stays real
    assert h.apply_active(v.real).dtype == np.float64


def test_default_stencil_arrays_unchanged():
    g = make_grid(-3.0, 3.0, 301)
    raw = 0.5 * g.points**2
    raw[150] = math.inf
    potential = Sampled(values=raw, grid=g)
    c = 1.0 / (2.0 * g.dx * g.dx)
    active = np.flatnonzero(np.isfinite(raw))[1:-1]
    for h in (
        build_hamiltonian(g, potential, 1.0, NATURAL),
        build_hamiltonian(g, potential, 1.0, NATURAL, order=2),
    ):
        assert h.order == 2 and h.second_off_diagonal is None
        assert np.array_equal(h.active_indices, active)
        assert np.array_equal(h.diagonal, 2.0 * c + raw[active])
        assert np.array_equal(h.off_diagonal, np.where(np.diff(active) == 1, -c, 0.0))
        assert_band_layout(h)


def test_stencil_order_validation():
    g = make_grid(0.0, 1.0, 64)
    with pytest.raises(ParameterError):
        build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL, order=3)


def test_fourth_order_stencil_coefficients():
    g = make_grid(0.0, 1.0, 11)  # dx = 0.1, c = 50
    raw = np.zeros(11)
    raw[0] = raw[5] = raw[10] = math.inf
    h = build_hamiltonian(g, Sampled(values=raw, grid=g), 1.0, NATURAL, order=4)
    assert h.order == 4
    assert np.array_equal(h.active_indices, [1, 2, 3, 4, 6, 7, 8, 9])
    # 5c/2 inside, minus c/12 from the odd reflection beside each removed point
    edge = 125.0 - 50.0 / 12.0
    assert np.allclose(h.diagonal, [edge, 125.0, 125.0, edge, edge, 125.0, 125.0, edge])
    assert np.allclose(h.off_diagonal, [-200.0 / 3.0] * 3 + [0.0] + [-200.0 / 3.0] * 3)
    # the second band is zero across the wall at grid index 5
    assert np.allclose(h.second_off_diagonal, [50.0 / 12.0] * 2 + [0.0] * 2 + [50.0 / 12.0] * 2)
    assert_band_layout(h)


def test_fourth_order_stencil_exact_on_quartic():
    g = make_grid(0.0, 1.0, 101)
    h = build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL, order=4)
    x = g.points
    out = h.apply((x**4).astype(complex))
    # -1/2 d2/dx2 x^4 = -6 x^2; the 5-point stencil is exact up to degree 5
    assert np.max(np.abs(out[3:-3] + 6.0 * x[3:-3] ** 2)) < 1e-8


def test_free_hamiltonian_annihilates_constant_interior():
    g = make_grid(0.0, 1.0, 101)
    h = build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL)
    out = h.apply(np.ones(101, dtype=complex))
    assert np.max(np.abs(out[10:-10])) == 0.0


def test_plane_wave_dispersion():
    g = make_grid(-10.0, 10.0, 801)
    h = build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL)
    k = 1.5
    psi = np.exp(1j * k * g.points)
    ratio = (h.apply(psi) / psi)[50:-50]
    dispersion = (1.0 - math.cos(k * g.dx)) / g.dx**2
    assert np.max(np.abs(ratio - dispersion)) < 1e-10
    assert dispersion == pytest.approx(0.5 * k**2, rel=(k * g.dx) ** 2 / 12 * 1.05)


def test_well_spectrum_against_closed_form():
    g = make_grid(0.0, 1.0, 2001)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    spectrum = solve_bound_states(h, 5)
    for i, energy in enumerate(spectrum.energies):
        exact = well_energy(i + 1, 1.0)
        # second-order stencil error is (n pi dx)^2 / 12 relative
        bound = ((i + 1) * math.pi * g.dx) ** 2 / 12 * 1.1 + 1e-12
        assert abs(energy - exact) / exact < bound


def test_well_ground_state_error_order():
    errors = []
    for n in (1001, 2001):
        g = make_grid(0.0, 1.0, n)
        h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
        energy = solve_bound_states(h, 1).energies[0]
        errors.append(abs(energy - well_energy(1, 1.0)))
    ratio = errors[0] / errors[1]
    assert 3.6 <= ratio <= 4.4


def test_fourth_order_well_error_order():
    errors = []
    for n in (101, 201, 401):
        g = make_grid(0.0, 1.0, n)
        h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL, order=4)
        energy = solve_bound_states(h, 5).energies[4]
        errors.append(abs(energy - well_energy(5, 1.0)))
    for coarse, fine in zip(errors, errors[1:]):
        assert 15.0 <= coarse / fine <= 17.0


def test_well_spacing_law():
    g = make_grid(0.0, 1.0, 2001)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    e = solve_bound_states(h, 4).energies
    for n in (1, 2, 3):
        expected = 2.0 / n + 1.0 / n**2
        assert (e[n] - e[n - 1]) / e[n - 1] == pytest.approx(expected, rel=1e-5)


def test_eigenstates_orthonormal():
    g = make_grid(0.0, 1.0, 1201)
    for order in (2, 4):
        h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL, order=order)
        states = solve_bound_states(h, 6).states
        for i in range(6):
            for j in range(6):
                overlap = inner_product(states[i], states[j])
                assert abs(overlap - (1.0 if i == j else 0.0)) < 1e-10


def test_residual_bound():
    g = make_grid(0.0, 1.0, 2001)
    for order in (2, 4):
        h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL, order=order)
        spectrum = solve_bound_states(h, 5)
        top = abs(spectrum.energies[-1])
        assert np.all(spectrum.residuals < 1e-9 * top)


def test_well_states_match_sine_modes():
    g = make_grid(0.0, 1.0, 2001)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    states = solve_bound_states(h, 3).states
    for n, psi in enumerate(states, start=1):
        reference = well_state(n, 1.0, g.points)
        assert np.max(np.abs(psi.values.real - reference)) < 5e-5


def test_sturm_node_counts():
    g = make_grid(-12.0, 12.0, 1501)
    h = build_hamiltonian(g, Harmonic(omega=1.0), 1.0, NATURAL)
    states = solve_bound_states(h, 6).states
    for n, psi in enumerate(states):
        interior = psi.values.real[1:-1]
        live = interior[np.abs(interior) > 1e-8]
        sign_changes = int(np.sum(np.abs(np.diff(np.sign(live))) > 1))
        assert sign_changes == n


def test_harmonic_levels_and_states():
    g = make_grid(-12.0, 12.0, 3001)
    h = build_hamiltonian(g, Harmonic(omega=1.0), 1.0, NATURAL)
    spectrum = solve_bound_states(h, 4)
    dx2 = g.dx**2
    for n, energy in enumerate(spectrum.energies):
        stencil_shift = dx2 / 32.0 * (2 * n**2 + 2 * n + 1)
        assert energy == pytest.approx(n + 0.5, abs=stencil_shift * 1.2 + 1e-10)
    reference = oscillator_state(0, 1.0, 1.0, NATURAL, g.points)
    assert np.max(np.abs(spectrum.states[0].values.real - reference)) < 1e-4


def test_fourth_order_orientation_ignores_tail_ripple():
    # the 5-point stencil ripples the forbidden-region tails at ~1e-35 here;
    # orientation must follow the body of each state, as for the references
    g = make_grid(-20.0, 20.0, 3001)
    h = build_hamiltonian(g, Harmonic(omega=0.5), 1.0, NATURAL, order=4)
    spectrum = solve_bound_states(h, 8)
    for n, psi in enumerate(spectrum.states):
        reference = orient_first_extremum_positive(
            oscillator_state(n, 0.5, 1.0, NATURAL, g.points)
        )
        assert np.max(np.abs(psi.values.real - reference)) < 1e-7


def test_eigenvalue_separation():
    g = make_grid(-12.0, 12.0, 1501)
    h = build_hamiltonian(g, Harmonic(omega=1.0), 1.0, NATURAL)
    energies = solve_bound_states(h, 8).energies
    assert np.min(np.diff(energies)) > 1e-8


def test_linear_ramp_ground_state_airy():
    g = make_grid(0.0, 60.0, 6001)
    h = build_hamiltonian(g, LinearRamp(lam=1.0), 1.0, NATURAL)
    energy = solve_bound_states(h, 1).energies[0]
    exact = 0.5 ** (1.0 / 3.0) * abs(AIRY_ZEROS[0])
    assert abs(energy - exact) / exact < 1e-5


def test_linear_ramp_first_three_levels():
    g = make_grid(0.0, 16.0, 4001)
    h = build_hamiltonian(g, LinearRamp(lam=1.0), 1.0, NATURAL)
    energies = solve_bound_states(h, 3).energies
    for energy, zero in zip(energies, AIRY_ZEROS):
        exact = 0.5 ** (1.0 / 3.0) * abs(zero)
        assert abs(energy - exact) / exact < 1e-5


def test_fourth_order_linear_ramp_levels():
    g = make_grid(0.0, 16.0, 2001)
    h = build_hamiltonian(g, LinearRamp(lam=1.0), 1.0, NATURAL, order=4)
    energies = solve_bound_states(h, 3).energies
    for energy, zero in zip(energies, AIRY_ZEROS):
        exact = 0.5 ** (1.0 / 3.0) * abs(zero)
        assert abs(energy - exact) / exact < 1e-9


def test_box_truncation_check_fires():
    g = make_grid(-3.0, 3.0, 601)
    h = build_hamiltonian(g, Harmonic(omega=1.0), 1.0, NATURAL)
    with pytest.raises(ConfigurationError):
        solve_bound_states(h, 6)


def test_count_validation():
    g = make_grid(0.0, 1.0, 64)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    with pytest.raises(ParameterError):
        solve_bound_states(h, 0)
    with pytest.raises(ParameterError):
        solve_bound_states(h, 1000)


def test_interior_wall_decouples_regions():
    g = make_grid(0.0, 1.0, 101)
    raw = np.zeros(101)
    raw[0] = raw[50] = raw[100] = math.inf
    h = build_hamiltonian(g, Sampled(values=raw, grid=g), 1.0, NATURAL)
    gap_position = np.searchsorted(h.active_indices, 50)
    assert h.off_diagonal[gap_position - 1] == 0.0
    # the two half-boxes of width ~0.5 give a doubly-degenerate-looking pair
    with pytest.warns(NearDegeneracyWarning):
        spectrum = solve_bound_states(h, 2)
    half_width = 0.5
    expected = well_energy(1, half_width)
    assert spectrum.energies[0] == pytest.approx(expected, rel=1e-3)
    assert spectrum.energies[1] == pytest.approx(expected, rel=1e-3)


def test_si_well_records_no_degeneracy_warning():
    # An electron in a 1 nm well: its gaps are ~1e-19 J, tiny in absolute
    # terms but far apart on the grid's kinetic scale hbar^2 / (m dx^2).
    m_e = 9.1093837015e-31
    si = si_constants(m_e)
    g = make_grid(-0.1e-9, 1.1e-9, 2001)
    h = build_hamiltonian(g, InfiniteWell(a=1e-9), m_e, si)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spectrum = solve_bound_states(h, 4)
    assert [str(w.message) for w in caught] == []
    expected = well_energy(1, 1e-9, si)
    assert spectrum.energies[0] == pytest.approx(expected, rel=1e-4)


def test_walls_that_leave_only_the_box_edges_are_refused():
    g = make_grid(0.0, 1.0, 8)
    walls = Sampled(values=[0.0] + [math.inf] * 6 + [0.0], grid=g)
    with pytest.raises(ConfigurationError, match="no active grid points remain after masking"):
        build_hamiltonian(g, walls, 1.0, NATURAL)


def test_non_finite_hamiltonian_is_a_solver_error():
    # hbar^2 / (2 m dx^2) overflows: LAPACK is never handed an inf.
    g = make_grid(-1e-10, 1e-10, 50)
    for order in (2, 4):
        h = build_hamiltonian(g, Harmonic(omega=1.0), 1e-300, NATURAL, order=order)
        with pytest.raises(SolverError, match="non-finite"):
            solve_bound_states(h, 2)


def _walled_harmonic(g):
    raw = 0.5 * g.points**2
    raw[g.n // 2 + 7] = math.inf
    return Sampled(values=raw, grid=g)


@pytest.mark.parametrize("potential", [lambda g: Harmonic(omega=1.0), _walled_harmonic],
                         ids=["harmonic", "walled"])
def test_three_point_spectrum_is_eigh_tridiagonal_bit_for_bit(monkeypatch, potential):
    # dstebz + dstein as called by the solver against scipy's own wrapper;
    # the wall splits H into two blocks, which dstebz orders block by block.
    from scipy.linalg import eigh_tridiagonal

    g = make_grid(-10.0, 10.0, 401)
    h = build_hamiltonian(g, potential(g), 1.0, NATURAL)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearDegeneracyWarning)
        spectrum = solve_bound_states(h, 8)
        monkeypatch.setattr(eigensolver, "_tridiagonal_eigenpairs", lambda h, count: (
            eigh_tridiagonal(h.diagonal, h.off_diagonal, select="i", select_range=(0, count - 1))))
        reference = solve_bound_states(h, 8)
    assert spectrum.energies.tobytes() == reference.energies.tobytes()
    assert spectrum.residuals.tobytes() == reference.residuals.tobytes()
    for state, expected in zip(spectrum.states, reference.states):
        assert state.values.tobytes() == expected.values.tobytes()


def test_one_point_tridiagonal_pair_is_eigh_tridiagonal():
    from scipy.linalg import eigh_tridiagonal

    g = make_grid(0.0, 1.0, 8)
    h = build_hamiltonian(g, Sampled(values=[0.0] + [math.inf] * 5 + [0.0, 0.0], grid=g),
                          1.0, NATURAL)
    assert h.size == 1
    energies, vectors = eigensolver._tridiagonal_eigenpairs(h, 1)
    expected = eigh_tridiagonal(h.diagonal, h.off_diagonal, select="i", select_range=(0, 0))
    assert energies.tobytes() == expected[0].tobytes()
    assert vectors.tobytes() == expected[1].tobytes()


def _child_stdout(tmp_path, code):
    import qm1d

    env = {**os.environ, "PYTHONPATH": str(Path(qm1d.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, cwd=tmp_path).stdout


# qm1d solves and builds a Crank-Nicolson stepper, then the child imports
# scipy.linalg: it must reuse the loaded extension and still solve.  Prints
# whether the package was loaded before, whether lapack.zgttrs is the
# stepper's routine and the eigh_tridiagonal energies.
_REIMPORT_CHILD = """
import sys
import numpy as np
from qm1d import NATURAL, Harmonic, build_hamiltonian, make_grid, solve_bound_states
from qm1d.evolution import _CrankNicolson
h = build_hamiltonian(make_grid(-10.0, 10.0, 101), Harmonic(omega=1.0), 1.0, NATURAL)
solve_bound_states(h, 2)
stepper = _CrankNicolson(h, 0.01, NATURAL)
before = "scipy.linalg" in sys.modules
import scipy.linalg
w = scipy.linalg.eigh_tridiagonal(np.full(3, 2.0), np.full(2, -1.0), select="i",
                                  select_range=(0, 0), eigvals_only=True)
print(before, scipy.linalg.lapack.zgttrs is stepper.zgttrs, w.round(12).tolist())
"""


def test_scipy_linalg_imported_later_reuses_the_loaded_extension(tmp_path):
    out = _child_stdout(tmp_path, _REIMPORT_CHILD)
    assert out.split(maxsplit=2) == ["False", "True", f"[{round(2.0 - 2.0**0.5, 12)}]\n"]


def test_loader_takes_the_extension_scipy_linalg_already_loaded(tmp_path):
    out = _child_stdout(tmp_path, "import scipy.linalg.lapack\nfrom qm1d._lapack import flapack\n"
                                  "print(flapack() is scipy.linalg.lapack._flapack)")
    assert out == "True\n"
