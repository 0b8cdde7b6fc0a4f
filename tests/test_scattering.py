import cmath
import math

import numpy as np
import pytest

from qm1d import (
    Barrier,
    PiecewiseConstant,
    barrier_scattering,
    region_waves,
    si_constants,
    transfer_scattering,
    transmission_sweep,
)
from qm1d.errors import ParameterError, UnsupportedMethodError


def rk4_transmission(segments, E, x_left, x_right, steps_per_region=20000):
    """Independent oracle: integrate psi'' = 2 (V - E) psi (hbar = m = 1)
    backwards from a unit transmitted wave, region by region so every step
    sees a smooth right-hand side, then read the incident amplitude."""
    k = math.sqrt(2.0 * E)

    def v_of(x):
        for start, end, v in segments:
            if start <= x < end:
                return v
        return 0.0

    boundaries = sorted({x_left, x_right, *(s for s, _, _ in segments), *(e for _, e, _ in segments)})
    boundaries = [b for b in boundaries if x_left <= b <= x_right]

    psi = cmath.exp(1j * k * x_right)
    dpsi = 1j * k * psi

    def rhs(x, y):
        return np.array([y[1], 2.0 * (v_of(x) - E) * y[0]], dtype=complex)

    y = np.array([psi, dpsi], dtype=complex)
    for right, left in zip(reversed(boundaries), list(reversed(boundaries))[1:]):
        h = (left - right) / steps_per_region  # negative step
        x = right
        mid_v = v_of(0.5 * (left + right))
        for _ in range(steps_per_region):
            k1 = rhs(x, y)
            k2 = rhs(x + h / 2, y + h / 2 * k1)
            k3 = rhs(x + h / 2, y + h / 2 * k2)
            k4 = rhs(x + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            x += h
        assert v_of(x + h / 2) == mid_v or True

    psi0, dpsi0 = y
    incident = 0.5 * (psi0 + dpsi0 / (1j * k))
    return 1.0 / abs(incident) ** 2


def test_barrier_matches_closed_form_all_branches():
    for E in (0.4, 1.0, 3.9999, 4.0, 4.0001, 6.0, 11.0):
        closed = barrier_scattering(E, 4.0, 1.0)
        chained = transfer_scattering(Barrier(v0=4.0, a=1.0), E)
        assert abs(closed.r - chained.r) < 1e-12
        assert abs(closed.t - chained.t) < 1e-12
        assert abs(closed.c_plus - chained.c_plus) < 1e-12
        assert abs(closed.c_minus - chained.c_minus) < 1e-12
        assert abs(chained.prob_r + chained.prob_t - 1.0) < 1e-12


def test_free_potential_is_transparent():
    res = transfer_scattering(PiecewiseConstant(), 2.0)
    assert res.r == 0.0
    assert res.t == 1.0
    assert res.prob_t == 1.0


def test_two_region_well_plus_barrier_against_ode_oracle():
    # open stack: free on [0, 1), barrier of height 4 on [1, 2), free beyond
    segments = ((0.0, 1.0, 0.0), (1.0, 2.0, 4.0))
    E = 1.0
    res = transfer_scattering(PiecewiseConstant(segments=segments), E)
    oracle = rk4_transmission(segments, E, 0.0, 2.0)
    assert abs(res.prob_t - oracle) < 1e-6
    # translation invariance: same probabilities as the barrier at the origin
    shifted = barrier_scattering(E, 4.0, 1.0)
    assert res.prob_t == pytest.approx(shifted.prob_t, rel=1e-12)


def test_flux_conservation_random_stacks():
    rng = np.random.default_rng(99)
    for _ in range(50):
        boundaries = np.sort(rng.uniform(-3.0, 3.0, size=rng.integers(2, 6)))
        segments = tuple(
            (float(a), float(b), float(rng.uniform(-2.0, 5.0)))
            for a, b in zip(boundaries[:-1], boundaries[1:])
        )
        E = float(rng.uniform(0.2, 9.0))
        res = transfer_scattering(PiecewiseConstant(segments=segments), E)
        assert abs(res.prob_r + res.prob_t - 1.0) < 1e-12


def test_transmission_monotone_in_width():
    widths = np.linspace(0.2, 2.4, 12)
    probs = [transfer_scattering(Barrier(v0=3.0, a=float(a)), 1.0).prob_t for a in widths]
    assert all(p1 > p2 for p1, p2 in zip(probs, probs[1:]))


def test_left_right_reciprocity():
    segments = ((0.0, 0.7, 2.0), (0.7, 1.0, -1.0), (1.5, 2.2, 4.5))
    mirrored = tuple(sorted(((-e, -s, v) for s, e, v in segments)))
    for E in (0.8, 2.5, 5.5):
        forward = transfer_scattering(PiecewiseConstant(segments=segments), E)
        backward = transfer_scattering(PiecewiseConstant(segments=mirrored), E)
        assert forward.prob_t == pytest.approx(backward.prob_t, abs=1e-12)


def test_assembled_wave_continuity():
    segments = ((-0.5, 0.25, 1.5), (0.25, 0.9, 3.0), (0.9, 1.4, 0.5))
    for E in (0.7, 1.5, 3.0001, 6.0):
        waves = region_waves(PiecewiseConstant(segments=segments), E)
        for left, right in zip(waves[:-1], waves[1:]):
            x_c = left.x_end
            assert abs(left.evaluate(x_c) - right.evaluate(x_c)) < 1e-12
            assert abs(left.derivative(x_c) - right.derivative(x_c)) < 1e-12


def test_incident_convention():
    waves = region_waves(Barrier(v0=2.0, a=1.0), 1.0)
    res = transfer_scattering(Barrier(v0=2.0, a=1.0), 1.0)
    x = -3.7
    k = math.sqrt(2.0)
    expected = cmath.exp(1j * k * x) + res.r * cmath.exp(-1j * k * x)
    assert abs(waves[0].evaluate(x) - expected) < 1e-12
    x = 5.1
    expected = res.t * cmath.exp(1j * k * x)
    assert abs(waves[-1].evaluate(x) - expected) < 1e-12


def test_thick_barrier_log_domain():
    # a * beta approx 1200: the raw growth factor would overflow by far
    res = transfer_scattering(Barrier(v0=2.0, a=850.0), 1.0)
    assert math.isfinite(res.prob_t)
    assert res.prob_t >= 0.0
    assert res.prob_r == pytest.approx(1.0, abs=1e-12)


def test_interior_step_energy_branch():
    # E equal to an interior plateau exercises the linear-solution branch
    segments = ((0.0, 1.0, 2.0),)
    res = transfer_scattering(PiecewiseConstant(segments=segments), 2.0)
    closed = barrier_scattering(2.0, 2.0, 1.0)
    assert abs(res.r - closed.r) < 1e-12
    assert abs(res.t - closed.t) < 1e-12


def test_closed_form_and_kernel_share_the_equal_energy_branch():
    # Every ulp within 40 of each edge v0 (1 -+ 1e-12): the closed form's linear
    # branch sets c_plus = 1 + r exactly, and the kernel's shows as the kind of
    # the barrier region.  At v0 = 58.22... and E = 58.220381986017905 the
    # ratio test |1 - E/v0| < 1e-12 and the kernel's difference test round apart.
    for v0 in (58.22038198607613, 4.0, 0.37):
        for edge in (v0 * (1.0 - 1e-12), v0 * (1.0 + 1e-12)):
            energies = edge + np.spacing(edge) * np.arange(-40, 41)
            for E in energies.tolist():
                closed = barrier_scattering(E, v0, 1.0)
                kernel = region_waves(Barrier(v0=v0, a=1.0), E)[1]
                assert (closed.c_plus == 1.0 + closed.r) == (kernel.kind == "linear"), E


def test_sweep_matches_single_calls():
    energies = [0.5, 1.0, 1.5]
    rows = transmission_sweep(Barrier(v0=2.0, a=1.0), energies)
    assert len(rows) == 3
    for E, row in zip(energies, rows):
        single = transfer_scattering(Barrier(v0=2.0, a=1.0), E)
        assert row.r == single.r and row.t == single.t
        assert abs(row.prob_r + row.prob_t - 1.0) < 1e-12

    # one batch mixing the tunnelling, E == V and above-barrier branches
    mixed = [0.4, 1.0, 3.9999, 4.0, 4.0001, 6.0, 11.0]
    barrier = Barrier(v0=4.0, a=1.0)
    for E, row in zip(mixed, transmission_sweep(barrier, mixed)):
        single = transfer_scattering(barrier, E)
        closed = barrier_scattering(E, 4.0, 1.0)
        for name in ("r", "t", "c_plus", "c_minus"):
            assert getattr(row, name) == getattr(single, name)
            assert abs(getattr(row, name) - getattr(closed, name)) < 1e-12

    # a thick barrier whose batch crosses the log-domain threshold
    thick = np.linspace(0.02, 5.8, 300)
    rows = transmission_sweep(Barrier(v0=4.0, a=120.0), thick)
    for E, row in zip(thick, rows):
        closed = barrier_scattering(float(E), 4.0, 120.0)
        assert row.prob_t == pytest.approx(closed.prob_t, rel=1e-12, abs=0.0)


def test_sweep_below_barrier_monotone_in_energy():
    energies = np.linspace(0.1, 1.9, 19)
    rows = transmission_sweep(Barrier(v0=2.0, a=1.0), list(energies))
    probs = [r.prob_t for r in rows]
    assert all(p1 < p2 for p1, p2 in zip(probs, probs[1:]))


def test_sweep_error_carries_row_index():
    with pytest.raises(ParameterError, match="row 1"):
        transmission_sweep(Barrier(v0=2.0, a=1.0), [1.0, -3.0])
    # each row runs the single-call checks in order: sign, asymptotes, channel
    step = PiecewiseConstant(segments=((0.0, math.inf, 1.0),))
    raised = PiecewiseConstant(segments=((-math.inf, math.inf, 2.0),))
    cases = [
        (Barrier(v0=2.0, a=1.0), [1.0, 2.0, -3], ParameterError,
         "sweep row 2 (E=-3): energy must be positive, got -3.0"),
        (step, [-1.0, 5.0], ParameterError,
         "sweep row 0 (E=-1.0): energy must be positive, got -1.0"),
        (step, [5.0, -1.0], UnsupportedMethodError,
         "sweep row 0 (E=5.0): asymptotic potentials differ (0.0 vs 1.0)"),
        (raised, [3.0, 1.0], ParameterError,
         "sweep row 1 (E=1.0): E=1.0 does not propagate in the asymptotic regions (V=2.0)"),
        (Barrier(v0=2.0, a=1.0), [1.0, "x", -3.0], ValueError,
         "sweep row 1 (E=x): could not convert string to float: 'x'"),
    ]
    for potential, energies, error, message in cases:
        with pytest.raises(error) as info:
            transmission_sweep(potential, energies)
        assert str(info.value).startswith(message)


def test_unequal_asymptotes_rejected():
    step = PiecewiseConstant(segments=((0.0, math.inf, 1.0),))
    with pytest.raises(UnsupportedMethodError):
        transfer_scattering(step, 5.0)


def test_evanescent_channel_rejected():
    raised = PiecewiseConstant(segments=((-math.inf, math.inf, 2.0),))
    with pytest.raises(ParameterError):
        transfer_scattering(raised, 1.0)
    with pytest.raises(ParameterError):
        transfer_scattering(Barrier(v0=1.0, a=1.0), -0.5)
    # the sign check comes before the equal-asymptote check
    step = PiecewiseConstant(segments=((0.0, math.inf, 1.0),))
    with pytest.raises(ParameterError, match="^energy must be positive, got -1.0$"):
        transfer_scattering(step, -1.0)
    with pytest.raises(ParameterError, match="^energy must be positive, got -1.0$"):
        region_waves(step, -1.0)


def test_si_barrier_matches_closed_form():
    # 1 eV electron on a 4 eV, 1 angstrom barrier: every energy is ~1e-19 J,
    # so an E == V test with an absolute floor would call every region linear.
    m_e, ev = 9.1093837015e-31, 1.602176634e-19
    si = si_constants(m_e)
    numeric = transfer_scattering(Barrier(v0=4.0 * ev, a=1e-10), 1.0 * ev, m_e, si)
    closed = barrier_scattering(1.0 * ev, 4.0 * ev, 1e-10, m_e, si)
    assert numeric.prob_t == pytest.approx(closed.prob_t, rel=1e-12, abs=0.0)
    assert abs(numeric.t - closed.t) <= 1e-12 * abs(closed.t)
    assert abs(numeric.r - closed.r) <= 1e-12 * abs(closed.r)


@pytest.mark.parametrize("a", [5.0, 120.0])
def test_region_waves_stay_accurate_through_opaque_barriers(a):
    # beta * a is about 13 and 317 e-folds; a forward chain loses the
    # transmitted region to the ulp error of r well before either.
    barrier, E = Barrier(v0=4.0, a=a), 0.5
    waves = region_waves(barrier, E)
    res = transfer_scattering(barrier, E)
    k = math.sqrt(2.0 * E)
    incident, transmitted = waves[0], waves[-1]
    assert abs(incident.forward - cmath.exp(1j * k * incident.x_ref)) < 1e-12
    assert abs(incident.backward - res.r * cmath.exp(-1j * k * incident.x_ref)) < 1e-12
    assert transmitted.backward == 0.0
    expected_t = res.t * cmath.exp(1j * k * transmitted.x_ref)
    assert abs(transmitted.forward - expected_t) <= 1e-12 * abs(res.t)
    left, middle, right = waves
    for outer, x_c in ((left, middle.x_start), (right, middle.x_end)):
        scale = max(abs(outer.evaluate(x_c)), abs(outer.derivative(x_c)))
        assert abs(outer.evaluate(x_c) - middle.evaluate(x_c)) <= 1e-12 * scale
        assert abs(outer.derivative(x_c) - middle.derivative(x_c)) <= 1e-12 * scale


def test_region_waves_reject_what_floats_cannot_hold():
    # |t| is about exp(-1202): it underflows to exactly zero
    with pytest.raises(ParameterError, match="underflows"):
        region_waves(Barrier(v0=2.0, a=850.0), 1.0)
    # 424 e-folds: t is a normal float, but the growing amplitude of the
    # barrier region, about |t| exp(-424), is not
    assert transfer_scattering(Barrier(v0=2.0, a=300.0), 1.0).t != 0.0
    with pytest.raises(ParameterError, match="too opaque"):
        region_waves(Barrier(v0=2.0, a=300.0), 1.0)
