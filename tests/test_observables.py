import math
import warnings

import numpy as np
import pytest

from qm1d import (
    NATURAL,
    EvolutionConfig,
    GaussianPacketParams,
    Harmonic,
    InfiniteWell,
    PiecewiseConstant,
    WaveFunction,
    build_hamiltonian,
    commutator_expectation,
    custom_operator,
    evolve,
    expectation,
    gaussian_packet_x,
    hamiltonian_operator,
    make_grid,
    momentum_expectation_x_route,
    momentum_operator,
    normalize,
    position_operator,
    si_constants,
    solve_bound_states,
    uncertainty,
    uncertainty_bound_check,
)
from qm1d.errors import GridMismatchError, NormalizationWarning, ParameterError
from qm1d.observables import _SnapshotObservables, _bound_satisfied
from qm1d.spectral import fft_momenta


def gaussian_state(grid, alpha=1.0, k0=0.0, x0=0.0):
    params = GaussianPacketParams(alpha=alpha, k0=k0)
    return normalize(WaveFunction(grid, gaussian_packet_x(params, grid.points - x0)))


def random_hermitian(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (m + m.conj().T)


def random_normalized(grid, rng):
    v = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return normalize(WaveFunction(grid, v))


def test_position_expectation_of_centered_gaussian():
    g = make_grid(-16, 16, 512)
    psi = gaussian_state(g)
    assert abs(expectation(position_operator(g), psi)) < 1e-12


def test_momentum_expectation_of_boosted_gaussian():
    g = make_grid(-16, 16, 1024)
    psi = gaussian_state(g, alpha=1.0, k0=5.0)
    assert expectation(momentum_operator(g), psi).real == pytest.approx(5.0, abs=1e-8)


def test_hamiltonian_expectation_on_eigenstate():
    g = make_grid(0, 1, 101)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    spectrum = solve_bound_states(h, 1)
    value = expectation(hamiltonian_operator(h), spectrum.states[0])
    assert abs(value.real - spectrum.energies[0]) < 1e-12
    assert abs(value.imag) < 1e-12


@pytest.mark.parametrize("alpha, k0, x0", [(1.0, 0.0, 0.0), (0.7, 1.5, 0.5)])
def test_observables_equal_evolve_series_bit_for_bit(alpha, k0, x0):
    # one set of formulas: the series of the state evolve records at t = 0
    g = make_grid(-20, 20, 2048)
    psi = gaussian_state(g, alpha=alpha, k0=k0, x0=x0)
    free = PiecewiseConstant()
    trajectory = evolve(psi, free, EvolutionConfig(dt=0.01, steps=0))
    x_op, p_op = position_operator(g), momentum_operator(g)
    h = build_hamiltonian(g, free, 1.0, NATURAL)
    assert expectation(x_op, psi) == trajectory.x_mean[0]
    assert expectation(p_op, psi) == trajectory.p_mean[0]
    assert uncertainty(x_op, psi) == trajectory.x_spread[0]
    assert uncertainty(p_op, psi) == trajectory.p_spread[0]
    # Crank-Nicolson's energy: the 3-point symbol's mean over the one-row
    # batch, which is <H> of the band for a state zero at the box ends
    alone = _SnapshotObservables(h, NATURAL, h.kinetic_symbol())
    assert trajectory.energy[0] == alone(psi.values[np.newaxis])[-1][0]
    assert trajectory.energy[0] == pytest.approx(
        expectation(hamiltonian_operator(h), psi).real, rel=1e-12, abs=0)


# (alpha, k0, x0): packets off the origin in x and in p, where a one-pass
# variance <x^2> - <x>^2 loses digits to cancellation.
_OFF_ORIGIN_PACKETS = [(0.25, 8.0, 10.0), (0.5, -4.0, -8.0), (0.1, 3.0, 6.0), (1.0, 6.0, -3.0)]


def _long_double_moments(coords, values, weight):
    """Norm, mean and spread of coords under |values|^2 * weight, summed in
    long double from the float64 amplitudes."""
    re, im = values.real.astype(np.longdouble), values.imag.astype(np.longdouble)
    density = (re * re + im * im) * np.longdouble(weight)
    c = np.asarray(coords, dtype=np.longdouble)
    mean = (c * density).sum()
    return density.sum(), mean, np.sqrt(((c - mean) ** 2 * density).sum())


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 on this platform")
def test_moments_match_a_long_double_reference():
    # The batch kernel's series and expectation/uncertainty of X and P, each
    # within 1e-15 relative of the same moments summed in long double.
    g = make_grid(-20, 20, 2048)
    h = build_hamiltonian(g, Harmonic(omega=0.5), 1.0, NATURAL)
    states = [gaussian_state(g, alpha, k0, x0) for alpha, k0, x0 in _OFF_ORIGIN_PACKETS]
    kinetic = h.kinetic_symbol()
    series = _SnapshotObservables(h, NATURAL, kinetic)(np.array([s.values for s in states]))
    p, p_weight = fft_momenta(g, NATURAL)
    x_op, p_op = position_operator(g), momentum_operator(g)
    for row, psi in enumerate(states):
        forward = np.fft.fft(psi.values)
        norm, x_mean, x_spread = _long_double_moments(g.points, psi.values, g.dx)
        _, p_mean, p_spread = _long_double_moments(p, forward, p_weight)
        energy = (_long_double_moments(kinetic, forward, p_weight)[1]
                  + _long_double_moments(h.potential_values, psi.values, g.dx)[1])
        references = {
            "norm": (series[0][row], norm),
            "x_mean": (series[1][row], x_mean),
            "p_mean": (series[2][row], p_mean),
            "x_spread": (series[3][row], x_spread),
            "p_spread": (series[4][row], p_spread),
            "energy": (series[5][row], energy),
            "expectation x": (expectation(x_op, psi).real, x_mean),
            "expectation p": (expectation(p_op, psi).real, p_mean),
            "uncertainty x": (uncertainty(x_op, psi), x_spread),
            "uncertainty p": (uncertainty(p_op, psi), p_spread),
        }
        for name, (value, reference) in references.items():
            assert abs(value - reference) <= 1e-15 * abs(reference), (row, name)


def test_matrix_columns_are_the_action_of_each_kind():
    rng = np.random.default_rng(43)
    g = make_grid(-8, 8, 64)
    h = build_hamiltonian(g, InfiniteWell(a=6.0), 1.0, NATURAL)
    psi = gaussian_state(g, alpha=0.5, k0=1.0, x0=0.5)
    for op in (position_operator(g), momentum_operator(g), hamiltonian_operator(h),
               custom_operator(random_hermitian(64, rng), g)):
        applied = op.apply(psi).values
        assert np.max(np.abs(op.matrix() @ psi.values - applied)) <= 1e-12 * np.max(
            np.abs(applied)), op.kind


def test_momentum_routes_cross_check():
    g = make_grid(-18, 18, 768)
    psi = gaussian_state(g, alpha=1.3, k0=2.2)
    p_route = expectation(momentum_operator(g), psi)
    x_route = momentum_expectation_x_route(psi)
    assert abs(p_route - x_route) < 1e-8


def test_expectation_warns_on_unnormalized_state():
    g = make_grid(-16, 16, 256)
    psi = gaussian_state(g)
    doubled = psi.with_values(2.0 * psi.values)
    with pytest.warns(NormalizationWarning):
        expectation(position_operator(g), doubled)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_state_never_reaches_the_observables(bad):
    # The WaveFunction constructor refuses it.  Before, expectation and
    # uncertainty returned nan with only a NormalizationWarning each.
    g = make_grid(-16, 16, 256)
    psi = gaussian_state(g)
    values = psi.values.copy()
    values[128] = bad
    with pytest.raises(ParameterError, match="^WaveFunction amplitudes must be finite"):
        expectation(position_operator(g), psi.with_values(values))


def test_overflowing_norm_warns_unnormalized():
    # Finite amplitudes of 1e200 square past the float range: the norm reads
    # inf, which the fail-closed test warns of, once per call.
    g = make_grid(-16, 16, 256)
    psi = gaussian_state(g).with_values(1e200 * gaussian_state(g).values)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expectation(position_operator(g), psi)
        uncertainty(position_operator(g), psi)
    assert [w.category for w in caught if w.category is NormalizationWarning] == [
        NormalizationWarning] * 2
    assert all("norm-squared is inf" in str(w.message) for w in caught
               if w.category is NormalizationWarning)


def test_uncertainty_warns_once_on_unnormalized_state():
    g = make_grid(-16, 16, 256)
    psi = gaussian_state(g)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spread = uncertainty(position_operator(g), psi.with_values(2.0 * psi.values))
    assert [w.category for w in caught] == [NormalizationWarning]
    assert spread == pytest.approx(2.0 * uncertainty(position_operator(g), psi), rel=1e-12)


def test_gaussian_uncertainties():
    # |psi|^2 proportional to exp(-x^2 / (2 alpha)): position spread sqrt(alpha);
    # |phi|^2 proportional to exp(-2 alpha p^2): momentum spread 1/(2 sqrt(alpha))
    g = make_grid(-20, 20, 1024)
    for alpha in (0.5, 1.0, 2.0):
        psi = gaussian_state(g, alpha=alpha)
        assert uncertainty(position_operator(g), psi) == pytest.approx(
            math.sqrt(alpha), rel=1e-10
        )
        assert uncertainty(momentum_operator(g), psi) == pytest.approx(
            0.5 / math.sqrt(alpha), rel=1e-10
        )


def test_eigenstate_energy_dispersion_free():
    g = make_grid(0, 1, 401)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    psi = solve_bound_states(h, 1).states[0]
    assert uncertainty(hamiltonian_operator(h), psi) < 1e-10 * abs(
        expectation(hamiltonian_operator(h), psi)
    ) + 1e-10


def test_position_momentum_commutator():
    g = make_grid(-16, 16, 512)
    psi = gaussian_state(g, alpha=1.0, k0=1.0)
    value = commutator_expectation(position_operator(g), momentum_operator(g), psi)
    assert abs(value - 1j) < 1e-6
    assert value.real == 0.0  # constructed antisymmetric


def test_self_commutator_is_zero():
    g = make_grid(-16, 16, 256)
    psi = gaussian_state(g)
    x_op = position_operator(g)
    assert commutator_expectation(x_op, x_op, psi) == 0.0


def test_position_hamiltonian_commutator_free_particle():
    # for H = p^2 / 2m the commutator [x, H] has expectation i hbar <p> / m
    g = make_grid(-20, 20, 512)
    p_matrix = momentum_operator(g).matrix()
    kinetic = custom_operator(p_matrix @ p_matrix / 2.0, g)
    for k0 in (0.5, 1.0, 2.0):
        psi = gaussian_state(g, alpha=1.0, k0=k0)
        comm = commutator_expectation(position_operator(g), kinetic, psi)
        p_mean = expectation(momentum_operator(g), psi)
        assert abs(comm - 1j * p_mean) < 1e-6


def test_fd_hamiltonian_commutator_identity():
    # the 3-point stencil obeys [x, H] = i hbar p_fd / m exactly, where p_fd
    # is the central-difference momentum; the spectral route differs only by
    # the stencil dispersion error O(dx^2)
    g = make_grid(-20, 20, 2001)
    h = build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL)
    psi = gaussian_state(g, alpha=1.0, k0=1.0)
    comm = commutator_expectation(position_operator(g), hamiltonian_operator(h), psi)
    p_mean = expectation(momentum_operator(g), psi)
    k3 = 1.0 + 3 * 0.25  # <k^3> for this packet
    assert abs(comm - 1j * p_mean) < g.dx**2 / 6 * k3 * 1.2


def test_hermitian_expectation_real_random():
    rng = np.random.default_rng(31)
    g = make_grid(-2, 2, 48)
    for _ in range(30):
        op = custom_operator(random_hermitian(48, rng), g)
        psi = random_normalized(g, rng)
        assert abs(expectation(op, psi).imag) < 1e-12


def test_commutator_matrix_hermitian_lemma():
    # i [A, B] is Hermitian for Hermitian A, B: explicit dense check
    rng = np.random.default_rng(37)
    g = make_grid(-8, 8, 64)
    x_matrix = position_operator(g).matrix()
    p_matrix = momentum_operator(g).matrix()
    lemma = 1j * (x_matrix @ p_matrix - p_matrix @ x_matrix)
    assert np.max(np.abs(lemma - lemma.conj().T)) < 1e-12
    for _ in range(10):
        a = random_hermitian(64, rng)
        b = random_hermitian(64, rng)
        c = 1j * (a @ b - b @ a)
        assert np.max(np.abs(c - c.conj().T)) < 1e-12


def test_uncertainty_bound_random_dense_pairs():
    rng = np.random.default_rng(41)
    g = make_grid(-4, 4, 64)
    for _ in range(40):
        op_a = custom_operator(random_hermitian(64, rng), g)
        op_b = custom_operator(random_hermitian(64, rng), g)
        psi = random_normalized(g, rng)
        report = uncertainty_bound_check(op_a, op_b, psi)
        assert report.satisfied
        # brute-force oracle: moments straight from the matrices
        a, b, v = op_a.dense, op_b.dense, psi.values
        dx = g.dx
        mean_a = (np.vdot(v, a @ v) * dx).real
        mean_b = (np.vdot(v, b @ v) * dx).real
        var_a = np.sum(np.abs(a @ v - mean_a * v) ** 2) * dx
        var_b = np.sum(np.abs(b @ v - mean_b * v) ** 2) * dx
        lhs = math.sqrt(var_a * var_b)
        comm = np.vdot(v, (a @ b - b @ a) @ v) * dx
        rhs = 0.5 * abs(comm)
        assert lhs + 1e-10 >= rhs
        assert report.lhs == pytest.approx(lhs, rel=1e-10)
        assert report.rhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_gaussian_saturates_position_momentum_bound():
    g = make_grid(-20, 20, 1024)
    psi = gaussian_state(g, alpha=1.0)
    report = uncertainty_bound_check(position_operator(g), momentum_operator(g), psi)
    assert report.lhs == pytest.approx(0.5, abs=1e-6)
    assert report.rhs == pytest.approx(0.5, abs=1e-6)
    assert report.satisfied


def test_well_ground_state_exceeds_bound():
    g = make_grid(0, 1, 801)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    psi = solve_bound_states(h, 1).states[0]
    report = uncertainty_bound_check(position_operator(g), momentum_operator(g), psi)
    assert report.satisfied
    assert report.lhs > 0.5


def test_commuting_operators_trivial_bound():
    g = make_grid(-6, 6, 128)
    x_matrix = position_operator(g).matrix()
    x_squared = custom_operator(x_matrix @ x_matrix, g)
    psi = gaussian_state(g, alpha=0.5)
    report = uncertainty_bound_check(position_operator(g), x_squared, psi)
    assert report.rhs == pytest.approx(0.0, abs=1e-10)
    assert report.satisfied


def test_position_momentum_bound_same_in_natural_units_and_si():
    # the same Gaussian, sigma = 1 length unit, in natural units and as an
    # electron with sigma = 1 angstrom in SI, where dx * dp is ~5e-35 J s
    m_e, length = 9.1093837015e-31, 1e-10
    si = si_constants(m_e)
    reports = []
    for constants, unit, mass in ((NATURAL, 1.0, 1.0), (si, length, m_e)):
        g = make_grid(-20 * unit, 20 * unit, 1024)
        params = GaussianPacketParams(alpha=unit**2, k0=0.5 / unit, mass=mass,
                                      constants=constants)
        psi = normalize(WaveFunction(g, gaussian_packet_x(params, g.points)))
        report = uncertainty_bound_check(
            position_operator(g), momentum_operator(g, constants), psi
        )
        assert report.lhs == pytest.approx(0.5 * constants.hbar, rel=1e-6)
        assert report.rhs == pytest.approx(0.5 * constants.hbar, rel=1e-6)
        reports.append(report)
    natural, si_report = reports
    assert natural.satisfied and si_report.satisfied
    # a violation of one part in a million is found in both unit systems;
    # an absolute slack of 1e-10 would pass any SI state
    for report in reports:
        assert not _bound_satisfied(report.lhs, report.lhs * (1.0 + 1e-6))


def test_bound_slack_is_relative():
    # 2e-10 of the larger side: 1e-10 at hbar / 2 in natural units
    assert _bound_satisfied(0.5, 0.5 + 0.99e-10)
    assert not _bound_satisfied(0.5, 0.5 + 1.01e-10)
    half_hbar_si = 0.5 * si_constants(9.1093837015e-31).hbar
    assert _bound_satisfied(half_hbar_si, half_hbar_si * (1.0 + 1.98e-10))
    assert not _bound_satisfied(half_hbar_si, half_hbar_si * (1.0 + 2.02e-10))
    assert _bound_satisfied(0.0, 0.0)
    assert _bound_satisfied(2.0, 1.0)


def test_custom_operator_rejects_non_hermitian():
    g = make_grid(-1, 1, 16)
    m = np.zeros((16, 16), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ParameterError):
        custom_operator(m, g)
    with pytest.raises(GridMismatchError):
        custom_operator(np.eye(8), g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_custom_operator_rejects_non_finite(bad):
    # a Hermitian matrix but for one entry and its mirror: a nan defect would
    # pass a `defect > tol` test, so non-finite entries are refused first
    g = make_grid(-1, 1, 16)
    m = random_hermitian(16, np.random.default_rng(4))
    m[3, 5] = m[5, 3] = bad
    with pytest.raises(ParameterError, match="non-finite"):
        custom_operator(m, g)
    m = random_hermitian(16, np.random.default_rng(4))
    m[2, 2] = bad
    with pytest.raises(ParameterError, match="non-finite"):
        custom_operator(m, g)


@pytest.mark.parametrize("scale", [1e-19, 1e19])
def test_hermiticity_tolerance_is_relative(scale):
    g = make_grid(-1, 1, 8)
    with pytest.raises(ParameterError):
        custom_operator(scale * np.triu(np.ones((8, 8))), g)
    hermitian = scale * random_hermitian(8, np.random.default_rng(3))
    assert custom_operator(hermitian, g).kind == "custom"


def test_operator_grid_mismatch():
    g = make_grid(-1, 1, 16)
    other = make_grid(-2, 2, 16)
    psi = WaveFunction(other, np.ones(16))
    with pytest.raises(GridMismatchError):
        position_operator(g).apply(psi)


def test_commutator_refuses_operators_on_different_grids():
    g, other = make_grid(-4, 4, 64), make_grid(-4, 4, 65)
    with pytest.raises(GridMismatchError, match="operators live on different grids"):
        commutator_expectation(position_operator(g), position_operator(other), gaussian_state(g))
