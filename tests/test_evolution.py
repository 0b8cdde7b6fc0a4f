import math
import re
import warnings

import numpy as np
import pytest
from scipy.fft import dst

import qm1d
from qm1d import (
    NATURAL,
    DiscreteHamiltonian,
    EvolutionConfig,
    GaussianPacketParams,
    Harmonic,
    InfiniteWell,
    PiecewiseConstant,
    Sampled,
    WaveFunction,
    build_hamiltonian,
    crank_nicolson_step,
    evolve,
    expectation,
    gaussian_packet_x,
    hamiltonian_operator,
    make_grid,
    momentum_operator,
    norm_squared,
    normalize,
    packet_width,
    position_operator,
    si_constants,
    solve_bound_states,
    split_step,
    uncertainty,
)
from qm1d.errors import (
    ConfigurationError,
    EdgeAmplitudeError,
    EdgeAmplitudeWarning,
    GridMismatchError,
    NormalizationWarning,
    ParameterError,
    SolverError,
    UnsupportedMethodError,
)
from qm1d.core import peak_fraction
from qm1d.evolution import STEPPERS, _CrankNicolson, _SplitStep
from qm1d.observables import _SnapshotObservables
from qm1d.spectral import EDGES, fft_momenta


def gaussian_on(grid, alpha=1.0, k0=0.0, x0=0.0):
    params = GaussianPacketParams(alpha=alpha, k0=k0)
    return normalize(WaveFunction(grid, gaussian_packet_x(params, grid.points - x0)))


def classical_oscillation(x0, p0, omega, mass, t_final, steps=200000):
    """Oracle: integrate the classical equations dx/dt = p/m, dp/dt = -m w^2 x
    with fourth-order Runge-Kutta."""
    h = t_final / steps
    x, p = x0, p0

    def deriv(x, p):
        return p / mass, -mass * omega**2 * x

    for _ in range(steps):
        k1x, k1p = deriv(x, p)
        k2x, k2p = deriv(x + h / 2 * k1x, p + h / 2 * k1p)
        k3x, k3p = deriv(x + h / 2 * k2x, p + h / 2 * k2p)
        k4x, k4p = deriv(x + h * k3x, p + h * k3p)
        x += h / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        p += h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return x, p


def test_cn_eigenstate_evolves_by_pure_phase():
    g = make_grid(0, 1, 801)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    spectrum = solve_bound_states(h, 2)
    dt = 1e-3
    for energy, psi in zip(spectrum.energies, spectrum.states):
        stepped = crank_nicolson_step(psi, h, dt, NATURAL)
        lam = 0.5 * dt * energy
        phase = (1 - 1j * lam) / (1 + 1j * lam)
        assert np.max(np.abs(stepped.values - phase * psi.values)) < 1e-10


def test_cn_identity_at_vanishing_dt():
    g = make_grid(0, 1, 257)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    psi = gaussian_on(g, alpha=0.0015, x0=0.5)
    diffs = []
    for dt in (1e-7, 1e-8):
        stepped = crank_nicolson_step(psi, h, dt, NATURAL)
        diffs.append(np.max(np.abs(stepped.values - psi.values)))
    assert diffs[1] < 1e-5
    # the departure from the identity is first order in dt
    assert diffs[0] / diffs[1] == pytest.approx(10.0, rel=0.05)


def test_cn_refuses_a_dt_whose_factors_overflow():
    # lam H overflows at dt = 1e308: the stepper refuses it when it factors,
    # where before each step turned the state into nan.
    g = make_grid(-12, 12, 128)
    h = build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL)
    with np.errstate(all="ignore"), pytest.raises(SolverError, match=r"dt = 1e\+308"):
        crank_nicolson_step(gaussian_on(g), h, 1e308, NATURAL)


def test_cn_preserves_norm_per_step():
    g = make_grid(0, 1, 513)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    psi = gaussian_on(g, alpha=0.001, k0=20.0, x0=0.5)
    for _ in range(20):
        psi = crank_nicolson_step(psi, h, 5e-4, NATURAL)
        assert abs(norm_squared(psi) - 1.0) < 1e-13


def test_cn_time_reversal():
    g = make_grid(0, 1, 513)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    psi0 = gaussian_on(g, alpha=0.001, k0=15.0, x0=0.5)
    psi = psi0
    dt = 1e-3
    for _ in range(50):
        psi = crank_nicolson_step(psi, h, dt, NATURAL)
    for _ in range(50):
        psi = crank_nicolson_step(psi, h, -dt, NATURAL)
    assert np.max(np.abs(psi.values - psi0.values)) < 1e-10


def test_cn_grid_mismatch():
    g = make_grid(0, 1, 64)
    other = make_grid(0, 2, 64)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    with pytest.raises(GridMismatchError):
        crank_nicolson_step(WaveFunction(other, np.ones(64)), h, 1e-3, NATURAL)


def test_cn_rejects_fourth_order_hamiltonian():
    # the implicit solve is tridiagonal; a 5-point H would make the step
    # mix two operators and lose unitarity
    g = make_grid(0, 1, 201)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL, order=4)
    psi = solve_bound_states(h, 1).states[0]
    with pytest.raises(ConfigurationError):
        crank_nicolson_step(psi, h, 1e-3, NATURAL)
    with pytest.raises(ConfigurationError):
        _CrankNicolson(h, 1e-3, NATURAL)


@pytest.mark.parametrize("method", sorted(STEPPERS))
def test_stepper_rejects_constants_with_another_hbar(method):
    # A natural-unit H stepped with SI hbar would move the packet by 1.26 in
    # one step; with the hbar H was built with it moves by 0.004.
    g = make_grid(-20, 20, 512)
    psi = gaussian_on(g, k0=0.4)
    h = build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL)
    with pytest.raises(ConfigurationError, match="hbar"):
        STEPPERS[method](h, 0.01, si_constants(1.0))
    step = STEPPERS[method](h, 0.01, NATURAL).step_values(psi.values)
    moved = expectation(position_operator(g), psi.with_values(step)).real
    assert moved == pytest.approx(0.004, abs=1e-4)


def test_cn_step_rejects_constants_with_another_hbar():
    g = make_grid(-20, 20, 512)
    h = build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL)
    with pytest.raises(ConfigurationError, match="hbar"):
        crank_nicolson_step(gaussian_on(g), h, 0.01, si_constants(1.0))


def test_split_step_norm_preserved():
    g = make_grid(-20, 20, 1024)
    psi = gaussian_on(g, alpha=1.0, k0=2.0)
    for _ in range(25):
        psi = split_step(psi, Harmonic(omega=1.0), 0.01, 1.0, NATURAL)
        assert abs(norm_squared(psi) - 1.0) < 1e-12


def test_split_step_rejects_hard_walls():
    g = make_grid(0, 1, 128)
    psi = gaussian_on(g, alpha=0.005, x0=0.5)
    with pytest.raises(UnsupportedMethodError):
        split_step(psi, InfiniteWell(a=1.0), 1e-3, 1.0, NATURAL)


def test_split_step_edge_guard():
    g = make_grid(-4, 4, 128)
    psi = gaussian_on(g, alpha=4.0)  # wide packet, live edges
    with pytest.raises(EdgeAmplitudeError):
        split_step(psi, PiecewiseConstant(), 1e-3, 1.0, NATURAL)


def test_split_step_refuses_a_dt_whose_phases_are_not_finite():
    # p^2 dt overflows at dt = 1e308, so every kinetic phase is nan: both
    # entries refuse it when they build the stepper, before any step (evolve
    # prefixes a step's error with "step k: "); at 1e300 the phases are finite.
    g = make_grid(-12, 12, 128)
    psi = gaussian_on(g, k0=0.5)
    _SplitStep(build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL), 1e300, NATURAL)
    config = EvolutionConfig(dt=1e308, steps=4, method="split_step")
    with np.errstate(all="ignore"):
        with pytest.raises(SolverError, match=r"^split step at dt = 1e\+308"):
            split_step(psi, PiecewiseConstant(), 1e308)
        with pytest.raises(SolverError, match=r"^split step at dt = 1e\+308"):
            evolve(psi, PiecewiseConstant(), config)


# Scheme-exact oracles: with V = 0, 200 steps of 0.01 T (T = m L^2 / hbar) of
# a packet from x = -6 L with k0 = 3 / L on [-24 L, 42 L], n = 512, in
# natural units (L = 1) and for an electron on L = 1 nm.
ORACLE_UNITS = {"natural": (NATURAL, 1.0), "si": (si_constants(9.1093837015e-31), 1e-9)}


def _free_run(units, method):
    """psi0, the final evolve snapshot's values, the config and the constants."""
    constants, length = ORACLE_UNITS[units]
    g = make_grid(-24.0 * length, 42.0 * length, 512)
    x = g.points / length + 6.0
    psi0 = normalize(WaveFunction(g, np.exp(3j * x - x**2 / 4.0)))
    dt = 0.01 * constants.mass * length**2 / constants.hbar
    config = EvolutionConfig(dt=dt, steps=200, method=method, observables_every=200)
    final = evolve(psi0, PiecewiseConstant(), config, constants.mass, constants).snapshots[-1]
    return psi0, final.values, config, constants


@pytest.mark.parametrize("units", sorted(ORACLE_UNITS))
def test_crank_nicolson_is_its_sine_transform_solution(units):
    # The closed box's 3-point H is diagonal in the DST-I basis, with
    # eigenvalues 4c sin^2(k pi / 2(m + 1)) over its m interior points, so N
    # steps multiply mode k by ((1 - i lam eps_k) / (1 + i lam eps_k))^N.
    psi0, final, config, constants = _free_run(units, "crank_nicolson")
    g = psi0.grid
    m = g.n - 2
    c = constants.hbar**2 / (2.0 * constants.mass * g.dx**2)
    lam = config.dt / (2.0 * constants.hbar)
    eps = 4.0 * c * np.sin(np.arange(1, m + 1) * np.pi / (2.0 * (m + 1))) ** 2
    factor = ((1.0 - 1j * lam * eps) / (1.0 + 1j * lam * eps)) ** config.steps
    exact = np.zeros(g.n, dtype=np.complex128)
    exact[1:-1] = dst(factor * dst(psi0.values[1:-1], type=1, norm="ortho"), type=1, norm="ortho")
    assert np.max(np.abs(final - exact)) < 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("units", sorted(ORACLE_UNITS))
def test_split_step_is_the_free_fourier_solution(units):
    # With V = 0 each step is exact on the FFT grid: N steps are one kinetic
    # phase exp(-i p^2 t / 2 m hbar) at t = N dt.
    psi0, final, config, constants = _free_run(units, "split_step")
    p, _ = fft_momenta(psi0.grid, constants)
    t = config.steps * config.dt
    phase = np.exp(-1j * p**2 * t / (2.0 * constants.mass * constants.hbar))
    exact = np.fft.ifft(phase * np.fft.fft(psi0.values))
    assert np.max(np.abs(final - exact)) < 1e-12 * np.max(np.abs(exact))


def test_free_packet_width_and_transport():
    g = make_grid(-24, 42, 2048)
    params = GaussianPacketParams(alpha=1.0, k0=5.0)
    psi0 = gaussian_on(g, alpha=1.0, k0=5.0)
    t_end = 2.0 * math.sqrt(3.0)  # the width has doubled here
    steps = 300
    config = EvolutionConfig(dt=t_end / steps, steps=steps, method="split_step",
                             observables_every=30)
    trajectory = evolve(psi0, PiecewiseConstant(), config)
    for i, t in enumerate(trajectory.times):
        expected = packet_width(params, t) / (2.0 * math.sqrt(2.0))
        assert abs(trajectory.x_spread[i] - expected) / expected < 1e-3
        assert abs(trajectory.x_mean[i] - params.group_velocity * t) < 1e-6
    assert trajectory.x_spread[-1] >= 2.0 * trajectory.x_spread[0] * (1 - 1e-9)
    assert np.max(np.abs(trajectory.p_spread - trajectory.p_spread[0])) < 1e-8


def test_free_packet_energy_and_norm_conserved():
    g = make_grid(-24, 42, 1024)
    psi0 = gaussian_on(g, alpha=1.0, k0=5.0)
    config = EvolutionConfig(dt=0.01, steps=200, method="split_step", observables_every=20)
    trajectory = evolve(psi0, PiecewiseConstant(), config)
    assert np.max(np.abs(trajectory.norm - 1.0)) < 1e-10
    e0 = trajectory.energy[0]
    assert np.max(np.abs(trajectory.energy - e0)) / abs(e0) < 1e-8


def test_split_step_energy_is_the_free_packet_closed_form():
    # A free packet's energy is hbar^2 (k0^2 + 1/(4 alpha)) / 2m = 12.625, and
    # the split step's kinetic phase leaves |phi(p)|^2, and so <p^2>/2m,
    # unchanged.  Crank-Nicolson reports the mean of the 3-point symbol, which
    # is <H> of the 3-point H it steps.
    g = make_grid(-24, 42, 2048)
    psi0 = gaussian_on(g, alpha=1.0, k0=5.0)
    exact = (5.0**2 + 1.0 / 4.0) / 2.0
    runs = {method: evolve(psi0, PiecewiseConstant(), EvolutionConfig(
        dt=0.01, steps=300, method=method)) for method in STEPPERS}
    split = runs["split_step"].energy
    assert split.shape == (301,)
    assert np.max(np.abs(split - exact)) <= 1e-12 * exact
    h_op = hamiltonian_operator(build_hamiltonian(g, PiecewiseConstant(), 1.0, NATURAL))
    cn = runs["crank_nicolson"]
    for s, energy in zip(cn.snapshots, cn.energy):
        assert energy == pytest.approx(expectation(h_op, s).real, rel=1e-12, abs=0)
    assert cn.energy[0] == pytest.approx(12.59632258, rel=1e-9)


def test_crank_nicolson_energy_is_the_band_mean_across_a_wall():
    # At an interior wall the 3-point circulant couples the wall point, where
    # every stepped state is exactly zero, so its mean is still <H> of the band.
    g = make_grid(-10, 10, 401)
    raw = 0.5 * g.points**2
    raw[150] = math.inf
    walled = Sampled(values=raw, grid=g)
    psi0 = gaussian_on(g, alpha=0.5, k0=1.5, x0=-1.0)
    psi0 = normalize(psi0.with_values(np.where(np.arange(g.n) == 150, 0.0, psi0.values)))
    trajectory = evolve(psi0, walled, EvolutionConfig(dt=0.02, steps=40, observables_every=5))
    h_op = hamiltonian_operator(build_hamiltonian(g, walled, 1.0, NATURAL))
    assert len(trajectory.snapshots) == 9
    for s, energy in zip(trajectory.snapshots, trajectory.energy):
        assert energy == pytest.approx(expectation(h_op, s).real, rel=1e-12, abs=0)


def test_coherent_packet_follows_classical_trajectory():
    # displaced ground-state-width packet: alpha = hbar / (2 m w)
    omega, x0 = 1.0, 1.0
    g = make_grid(-10, 10, 512)
    psi0 = gaussian_on(g, alpha=0.5, x0=x0)
    period = 2.0 * math.pi / omega
    steps = 1256
    config = EvolutionConfig(dt=period / steps, steps=steps, method="split_step",
                             observables_every=157)
    trajectory = evolve(psi0, Harmonic(omega=omega), config)
    for i, t in enumerate(trajectory.times):
        x_cl, _ = classical_oscillation(x0, 0.0, omega, 1.0, t, steps=max(1, int(2e4 * t) or 1))
        assert abs(trajectory.x_mean[i] - x_cl) < 1e-4


def test_methods_cross_validate_on_free_packet():
    g = make_grid(-12, 16, 3501)
    psi0 = gaussian_on(g, alpha=1.0, k0=1.0)
    config_cn = EvolutionConfig(dt=2e-3, steps=500, method="crank_nicolson",
                                observables_every=500)
    config_ss = EvolutionConfig(dt=2e-3, steps=500, method="split_step",
                                observables_every=500)
    free = PiecewiseConstant()
    final_cn = evolve(psi0, free, config_cn).snapshots[-1]
    final_ss = evolve(psi0, free, config_ss).snapshots[-1]
    assert np.max(np.abs(final_cn.values - final_ss.values)) < 1e-5


def test_well_eigenstate_is_stationary():
    g = make_grid(0, 1, 801)
    h = build_hamiltonian(g, InfiniteWell(a=1.0), 1.0, NATURAL)
    psi = solve_bound_states(h, 1).states[0]
    config = EvolutionConfig(dt=1e-3, steps=1000, method="crank_nicolson",
                             observables_every=100)
    trajectory = evolve(psi, InfiniteWell(a=1.0), config)
    assert np.max(np.abs(trajectory.x_mean - trajectory.x_mean[0])) < 1e-8
    assert np.max(np.abs(trajectory.p_mean - trajectory.p_mean[0])) < 1e-8
    assert np.max(np.abs(trajectory.x_spread - trajectory.x_spread[0])) < 1e-8
    assert np.max(np.abs(trajectory.energy - trajectory.energy[0])) < 1e-8


def test_single_snapshot_trajectory():
    g = make_grid(-12, 12, 256)
    psi = gaussian_on(g)
    config = EvolutionConfig(dt=1e-3, steps=0, method="split_step")
    trajectory = evolve(psi, PiecewiseConstant(), config)
    assert len(trajectory.snapshots) == 1
    assert trajectory.times[0] == 0.0
    assert np.array_equal(trajectory.snapshots[0].values, psi.values)


def test_evolve_error_reports_step_index():
    g = make_grid(-6, 30, 512)
    psi = gaussian_on(g, alpha=1.0, k0=8.0, x0=0.0)
    config = EvolutionConfig(dt=0.01, steps=400, method="split_step")
    with pytest.raises(EdgeAmplitudeError, match="step "):
        evolve(psi, PiecewiseConstant(), config)


def test_config_validation():
    with pytest.raises(ParameterError):
        EvolutionConfig(dt=0.0, steps=10)
    with pytest.raises(ParameterError):
        EvolutionConfig(dt=0.1, steps=-1)
    with pytest.raises(ParameterError):
        EvolutionConfig(dt=0.1, steps=10, method="magic")
    with pytest.raises(ParameterError):
        EvolutionConfig(dt=0.1, steps=10, observables_every=0)


@pytest.mark.parametrize("field", ["steps", "observables_every"])
@pytest.mark.parametrize("value", [True, 2.5, 3.0, "3", None])
def test_config_counts_must_be_integers(field, value):
    with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
        EvolutionConfig(dt=0.1, **{"steps": 6, field: value})


def test_config_counts_accept_numpy_integers():
    g = make_grid(-12, 12, 128)
    config = EvolutionConfig(dt=0.01, steps=np.int64(6), observables_every=np.int32(3))
    trajectory = evolve(gaussian_on(g), PiecewiseConstant(), config)
    assert trajectory.times.tolist() == [0.0, 0.03, 0.06]


class _TwoArgError(RuntimeError):
    """A step failure whose constructor does not take a lone message."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")
        self.code = code


@pytest.mark.parametrize("method, stepper", [
    ("crank_nicolson", _CrankNicolson),
    ("split_step", _SplitStep),
])
def test_evolve_step_error_keeps_type_and_prefixes_step(monkeypatch, method, stepper):
    taken = []

    def failing_step(self, values):
        taken.append(1)
        if len(taken) == 3:
            raise _TwoArgError(7, "injected")
        return values

    monkeypatch.setattr(stepper, "step_values", failing_step)
    g = make_grid(-12, 12, 128)
    config = EvolutionConfig(dt=0.01, steps=5, method=method)
    with pytest.raises(_TwoArgError, match=r"^step 3: 7: injected$") as info:
        evolve(gaussian_on(g), PiecewiseConstant(), config)
    assert info.value.code == 7


# (method, potential, grid, initial state, dt): free, harmonic and hard-wall
# cases; split step cannot take the wall.
_CROSS_CASES = {
    "cn-free": ("crank_nicolson", PiecewiseConstant(), (-20, 30, 512), (1.0, 2.0, 0.0), 0.01),
    "ss-free": ("split_step", PiecewiseConstant(), (-20, 30, 512), (1.0, 2.0, 0.0), 0.01),
    "cn-harmonic": ("crank_nicolson", Harmonic(omega=1.0), (-10, 10, 401), (0.5, 0.0, 1.0), 0.01),
    "ss-harmonic": ("split_step", Harmonic(omega=1.0), (-10, 10, 401), (0.5, 0.0, 1.0), 0.01),
    "cn-well": ("crank_nicolson", InfiniteWell(a=1.0), (0, 1, 513), (0.001, 20.0, 0.5), 5e-4),
}


def _cross_run(case, every):
    method, potential, (x_min, x_max, n), (alpha, k0, x0), dt = _CROSS_CASES[case]
    g = make_grid(x_min, x_max, n)
    psi0 = gaussian_on(g, alpha=alpha, k0=k0, x0=x0)
    config = EvolutionConfig(dt=dt, steps=40, method=method, observables_every=every)
    return g, potential, psi0, config, evolve(psi0, potential, config)


@pytest.mark.parametrize("every", [1, 10])
@pytest.mark.parametrize("case", sorted(_CROSS_CASES))
def test_evolve_series_match_public_observables(case, every):
    g, potential, _, _, trajectory = _cross_run(case, every)
    assert len(trajectory.snapshots) == 40 // every + 1
    x_op = position_operator(g)
    p_op = momentum_operator(g)
    h = build_hamiltonian(g, potential, 1.0, NATURAL)
    snaps = trajectory.snapshots
    reference = {
        "norm": [norm_squared(s) for s in snaps],
        "x_mean": [expectation(x_op, s).real for s in snaps],
        "p_mean": [expectation(p_op, s).real for s in snaps],
        "x_spread": [uncertainty(x_op, s) for s in snaps],
        "p_spread": [uncertainty(p_op, s) for s in snaps],
    }
    if case.startswith("ss"):
        # the split step's energy: <p^2>/2m over |phi(p)|^2 plus <V> over |psi|^2
        reference["energy"] = [
            (uncertainty(p_op, s) ** 2 + expectation(p_op, s).real ** 2) / 2.0
            + np.sum(h.potential_values * np.abs(s.values) ** 2) * g.dx for s in snaps]
    else:
        reference["energy"] = [expectation(hamiltonian_operator(h), s).real for s in snaps]
    # each series against its own scale: the domain for x, hbar/dx for p
    x_scale = max(abs(g.x_min), abs(g.x_max))
    p_scale = NATURAL.hbar / g.dx
    scales = {"norm": 1.0, "x_mean": x_scale, "x_spread": x_scale, "p_mean": p_scale,
              "p_spread": p_scale, "energy": np.max(np.abs(reference["energy"]))}
    for name, expected in reference.items():
        got = getattr(trajectory, name)
        assert got.shape == (len(snaps),)
        assert np.max(np.abs(got - np.asarray(expected))) <= 1e-12 * scales[name], name


# Recorded-state counts on both sides of the snapshot kernel's batches: one
# state, full batches and partial last ones.
@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("states", [1, 5, 7, 10])
@pytest.mark.parametrize("method", sorted(STEPPERS))
def test_every_series_entry_is_its_snapshot_observed_alone(method, states, every):
    g = make_grid(-20, 30, 512)
    potential = Harmonic(omega=0.2)
    config = EvolutionConfig(dt=0.01, steps=(states - 1) * every, method=method,
                             observables_every=every)
    trajectory = evolve(gaussian_on(g, alpha=1.0, k0=2.0, x0=-3.0), potential, config)
    assert len(trajectory.snapshots) == states
    x_op, p_op = position_operator(g), momentum_operator(g)
    h = build_hamiltonian(g, potential, 1.0, NATURAL)
    symbol = STEPPERS[method](h, config.dt, NATURAL).kinetic_symbol
    alone = _SnapshotObservables(h, NATURAL, symbol)
    for i, snap in enumerate(trajectory.snapshots):
        assert trajectory.norm[i] == pytest.approx(norm_squared(snap), rel=0, abs=1e-12)
        assert trajectory.x_mean[i] == expectation(x_op, snap)
        assert trajectory.p_mean[i] == expectation(p_op, snap)
        assert trajectory.x_spread[i] == uncertainty(x_op, snap)
        assert trajectory.p_spread[i] == uncertainty(p_op, snap)
        assert trajectory.energy[i] == alone(snap.values[np.newaxis])[-1][0]


@pytest.mark.parametrize("case", sorted(_CROSS_CASES))
def test_evolve_matches_chained_single_steps(case):
    g, potential, psi0, config, trajectory = _cross_run(case, 10)
    h = build_hamiltonian(g, potential, 1.0, NATURAL)
    psi = psi0
    for k in range(1, config.steps + 1):
        if config.method == "crank_nicolson":
            psi = crank_nicolson_step(psi, h, config.dt, NATURAL)
        else:
            psi = split_step(psi, potential, config.dt, 1.0, NATURAL)
        if k % 10 == 0:
            snap = trajectory.snapshots[k // 10]
            assert np.max(np.abs(snap.values - psi.values)) <= 1e-12 * np.max(np.abs(psi.values))


def test_evolve_warns_on_unnormalized_initial_state():
    g = make_grid(-12, 12, 256)
    psi = gaussian_on(g)
    doubled = psi.with_values(2.0 * psi.values)
    config = EvolutionConfig(dt=0.01, steps=3, method="split_step")
    with pytest.warns(NormalizationWarning, match="expectation values assume a normalized state"):
        trajectory = evolve(doubled, PiecewiseConstant(), config)
    assert trajectory.norm[0] == pytest.approx(4.0, rel=1e-12)


def test_failed_evolve_warns_of_nothing():
    # Every snapshot has norm-squared 4 and would warn, but the packet reaches
    # the edge first: a run that raises has observed no snapshot.
    g = make_grid(-10, 10, 256)
    psi = gaussian_on(g, alpha=0.25, k0=10.0)
    doubled = psi.with_values(2.0 * psi.values)
    config = EvolutionConfig(dt=0.01, steps=200, method="split_step")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EdgeAmplitudeError) as info:
            evolve(doubled, PiecewiseConstant(), config)
    step = re.match(r"step (\d+): ", str(info.value))
    assert step and int(step.group(1)) > 1
    assert caught == []


def test_evolve_warns_on_hot_edge_crank_nicolson_state():
    g = make_grid(-4, 4, 128)
    psi = gaussian_on(g, alpha=4.0)  # wide packet, live edges
    config = EvolutionConfig(dt=1e-3, steps=0, method="crank_nicolson")
    with pytest.warns(EdgeAmplitudeWarning, match="periodic transform will not approximate"):
        evolve(psi, PiecewiseConstant(), config)


# (method, observables_every, H products for 10 steps)
@pytest.mark.parametrize("method, every, calls", [
    ("crank_nicolson", 1, 0), ("crank_nicolson", 3, 0), ("split_step", 1, 0), ("split_step", 3, 0),
])
def test_evolve_applies_h_at_most_once_per_state(monkeypatch, method, every, calls):
    # A Crank-Nicolson step forms its right-hand side from the stored band of
    # (1 - i lam H), not from H; every energy comes from the snapshot's FFT,
    # so no snapshot applies H.
    applied = []
    apply_active = DiscreteHamiltonian.apply_active

    def counted(self, v):
        applied.append(1)
        return apply_active(self, v)

    monkeypatch.setattr(DiscreteHamiltonian, "apply_active", counted)
    g = make_grid(-12, 12, 256)
    config = EvolutionConfig(dt=0.01, steps=10, method=method, observables_every=every)
    evolve(gaussian_on(g, k0=1.0), PiecewiseConstant(), config)
    assert len(applied) == calls


@pytest.mark.parametrize("every", [1, 3])
def test_split_step_evolve_takes_edge_fraction_once_per_state(monkeypatch, every):
    # Each split step's guard takes its state's fraction, and the final state's
    # edge warning takes one more: 11 for 10 steps.  Crank-Nicolson takes only
    # the final state's.
    calls = []

    def counted(values, points, tol):
        if isinstance(points, tuple) and points == EDGES:
            calls.append(1)
        return peak_fraction(values, points, tol)

    for module in vars(qm1d).values():
        if getattr(module, "peak_fraction", None) is peak_fraction and module is not qm1d:
            monkeypatch.setattr(module, "peak_fraction", counted)
    g = make_grid(-12, 12, 256)
    for method, fractions in (("split_step", 11), ("crank_nicolson", 1)):
        calls.clear()
        config = EvolutionConfig(dt=0.01, steps=10, method=method, observables_every=every)
        evolve(gaussian_on(g, k0=1.0), PiecewiseConstant(), config)
        assert len(calls) == fractions, method


@pytest.mark.parametrize("every", [1, 7])
def test_only_the_final_state_can_warn_of_its_edge(every):
    # This packet trips the split guard at step 37, so state 36 is the last
    # that steps: stopped there, the run succeeds and warns once, of state 36,
    # whether or not the states before it are recorded.
    g = make_grid(-12, 12, 256)
    psi0 = normalize(WaveFunction(g, np.exp(-(g.points - 4.0) ** 2 + 6j * g.points)))
    with pytest.raises(EdgeAmplitudeError, match=r"^step 37: "):
        evolve(psi0, PiecewiseConstant(), EvolutionConfig(dt=0.01, steps=60, method="split_step"))
    config = EvolutionConfig(dt=0.01, steps=36, method="split_step", observables_every=every)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        evolve(psi0, PiecewiseConstant(), config)
    assert [w.category for w in caught] == [EdgeAmplitudeWarning]


@pytest.mark.parametrize("every", [1, 3])
def test_split_step_guard_fires_at_a_state_the_snapshots_skip(every):
    # The packet reaches the edge at state 40, which observables_every=3 does
    # not record: its step still takes the fraction and refuses it.  Every
    # snapshot has norm-squared 4, yet the failed run issues no warning.
    g = make_grid(-10, 10, 256)
    psi0 = gaussian_on(g, alpha=0.25, k0=10.0)
    psi0 = psi0.with_values(2.0 * psi0.values)
    psi = psi0
    with pytest.raises(EdgeAmplitudeError), warnings.catch_warnings():
        warnings.simplefilter("ignore", NormalizationWarning)
        for hot in range(60):
            psi = split_step(psi, PiecewiseConstant(), 0.01)
    assert hot == 40 and hot % 3
    config = EvolutionConfig(dt=0.01, steps=60, method="split_step", observables_every=every)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EdgeAmplitudeError, match=r"^step 41: state has .* at a grid edge"):
            evolve(psi0, PiecewiseConstant(), config)
    assert caught == []


@pytest.mark.parametrize("wall", [None, 120])
def test_crank_nicolson_step_is_the_out_of_place_solve(wall):
    # The right-hand side (1 - i lam H) v from the stored diagonals, solved
    # and written back to the output's active points (a slice or, across an
    # interior wall, an index array), against the same arithmetic out of place.
    from scipy.linalg.lapack import zgttrf, zgttrs

    g = make_grid(-10, 10, 401)
    raw = 0.5 * g.points**2
    psi = gaussian_on(g, alpha=0.5, k0=1.5, x0=-1.0)
    if wall is not None:
        raw[wall] = math.inf
        psi = psi.with_values(np.where(np.arange(g.n) == wall, 0.0, psi.values))
    h = build_hamiltonian(g, Sampled(values=raw, grid=g), 1.0, NATURAL)
    assert isinstance(h.active, slice) == (wall is None)
    dt = 0.02
    lam = 0.5 * dt / NATURAL.hbar
    off = 1j * lam * h.band[1, :-1]
    *lu, _ = zgttrf(off, 1.0 + 1j * lam * h.band[0], off)
    v = psi.values[h.active_indices]
    coupling = -1j * lam * h.band[1, :-1]
    rhs = (1.0 - 1j * lam * h.band[0]) * v
    rhs[:-1] += coupling * v[1:]
    rhs[1:] += coupling * v[:-1]
    expected = np.zeros(g.n, dtype=np.complex128)
    expected[h.active_indices], _ = zgttrs(*lu, rhs)
    stepped = crank_nicolson_step(psi, h, dt, NATURAL).values
    assert np.array_equal(stepped.view(float), expected.view(float))
    assert np.max(np.abs(stepped)) > 0.5


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("place", ["edge", "wall"])
def test_crank_nicolson_refuses_amplitude_at_an_excluded_point(every, place):
    # psi0 is recorded, and the excluded-point check still runs on it before
    # step 1.  The wide packet has 0.37 of its peak at the box edges (and
    # would warn of them), the narrow one 4e-18 there and its peak on the
    # wall; a failed run issues no warning.
    g = make_grid(-4, 4, 128)
    if place == "edge":
        psi0, potential = gaussian_on(g, alpha=4.0), PiecewiseConstant()
    else:
        walled = np.zeros(g.n)
        walled[g.n // 2] = math.inf
        psi0, potential = gaussian_on(g, alpha=0.1), Sampled(values=walled, grid=g)
    config = EvolutionConfig(dt=1e-3, steps=5, observables_every=every)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match=r"^step 1: state has .* at an excluded"):
            evolve(psi0, potential, config)
    assert caught == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", list(STEPPERS))
def test_non_finite_initial_state_is_refused(method, bad):
    # The WaveFunction constructor refuses it, so no nan or inf reaches evolve
    # or a step.  Before, a nan evolved into all-nan series with only
    # NormalizationWarnings.
    g = make_grid(-12, 12, 256)
    psi = gaussian_on(g)
    values = psi.values.copy()
    values[128] = bad
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParameterError, match="^WaveFunction amplitudes must be finite; "
                                                 "index 128 holds"):
            evolve(psi.with_values(values), Harmonic(omega=0.5),
                   EvolutionConfig(dt=0.01, steps=3, method=method))
    assert caught == []
