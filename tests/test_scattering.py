import cmath
import math

import numpy as np
import pytest

from qm1d import (
    NATURAL,
    Barrier,
    PiecewiseConstant,
    barrier_scattering,
    region_waves,
    si_constants,
    transfer_scattering,
    transmission_sweep,
)
from qm1d import scattering
from qm1d.analytic import _equal_energies
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
        for _ in range(steps_per_region):
            k1 = rhs(x, y)
            k2 = rhs(x + h / 2, y + h / 2 * k1)
            k3 = rhs(x + h / 2, y + h / 2 * k2)
            k4 = rhs(x + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            x += h

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


def _exact_barrier_transmission(E, v0, a):
    """|T|^2 of the barrier (hbar = m = 1) at 60 digits, from the binary inputs."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        E, v0, a = mp.mpf(E), mp.mpf(v0), mp.mpf(a)
        k2, q2 = 2 * E, 2 * (E - v0)
        q = mp.sqrt(q2)  # i kappa below the top
        return float(1 / (1 + (k2 - q2) ** 2 * abs(mp.sin(q * a)) ** 2 / (4 * k2 * abs(q2))))


def test_thin_tall_barrier_keeps_the_delta_barrier_limit():
    # strength v0 a = 1 at E = 1: |T|^2 = 1 / (1 + v0^2 a^2 / (2 E)) = 2/3 to
    # double precision; kappa a = 1.4e-10, so a difference of e^{+-kappa a}
    # would keep only about six digits
    kernel = transfer_scattering(Barrier(v0=1e20, a=1e-20), 1.0)
    closed = barrier_scattering(1.0, 1e20, 1e-20)
    for result in (kernel, closed):
        assert abs(result.prob_t - 2.0 / 3.0) <= 1e-15
        assert abs(result.prob_r + result.prob_t - 1.0) <= 1e-15


def test_thin_barrier_sweep_matches_mpmath():
    energies = np.linspace(0.01, 10.0, 300).tolist()
    rows = transmission_sweep(Barrier(v0=1e12, a=1e-12), energies)
    for E, row in zip(energies, rows):
        exact = _exact_barrier_transmission(E, 1e12, 1e-12)
        assert abs(row.prob_t - exact) <= 1e-14 * exact, E
        assert abs(barrier_scattering(E, 1e12, 1e-12).prob_t - exact) <= 1e-14 * exact, E


def test_energies_next_to_the_barrier_top_match_mpmath():
    # just outside and further outside E = V's 1e-12 band: no E = V mask
    # decides a number, so they keep every digit
    energies = [4.0 * (1.0 + f) for f in (-1.01e-12, 1.01e-12, -1e-11, 1e-11)]
    rows = transmission_sweep(Barrier(v0=4.0, a=1.0), energies)
    for E, row in zip(energies, rows):
        exact = _exact_barrier_transmission(E, 4.0, 1.0)
        assert abs(row.prob_t - exact) <= 1e-14 * exact, E
        assert abs(barrier_scattering(E, 4.0, 1.0).prob_t - exact) <= 1e-14 * exact, E


def test_energy_just_above_raised_asymptotes_is_a_wave():
    # E - V = 1e-13 of V outside: the outer regions still carry waves (the
    # E = V form is for inner regions), and the stack is the unit barrier of
    # height 2 shifted up by 1
    stack = PiecewiseConstant(((-math.inf, 0.0, 1.0), (0.0, 1.0, 3.0), (1.0, math.inf, 1.0)))
    E = 1.0 + 1e-13
    res = transfer_scattering(stack, E)
    assert res.prob_t == pytest.approx(barrier_scattering(E - 1.0, 2.0, 1.0).prob_t, rel=1e-12)
    assert abs(res.prob_r + res.prob_t - 1.0) < 1e-12
    assert [wave.kind for wave in region_waves(stack, E)] == ["exp", "exp", "exp"]


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
    # every 15th row, 3 of them below E = 0.875 where the scale is taken out
    for E, row in list(zip(thick.tolist(), rows))[::15]:
        single = transfer_scattering(Barrier(v0=4.0, a=120.0), E)
        for name in ("r", "t", "c_plus", "c_minus"):
            assert getattr(row, name) == getattr(single, name), (E, name)


def test_sweep_below_barrier_monotone_in_energy():
    energies = np.linspace(0.1, 1.9, 19)
    rows = transmission_sweep(Barrier(v0=2.0, a=1.0), list(energies))
    probs = [r.prob_t for r in rows]
    assert all(p1 < p2 for p1, p2 in zip(probs, probs[1:]))


def test_sweep_error_carries_row_index():
    with pytest.raises(ParameterError, match="row 1"):
        transmission_sweep(Barrier(v0=2.0, a=1.0), [1.0, -3.0])
    # the rows are checked as one array, but the first bad row in input order
    # runs the single-call checks in order: sign, asymptotes, channel
    barrier = Barrier(v0=2.0, a=1.0)
    step = PiecewiseConstant(segments=((0.0, math.inf, 1.0),))
    raised = PiecewiseConstant(segments=((-math.inf, math.inf, 2.0),))
    differ = ("asymptotic potentials differ (0.0 vs 1.0); flux-normalized transmission "
              "is not supported")
    closed = ("does not propagate in the asymptotic regions (V=2.0); the incident channel "
              "is evanescent")
    cases = [
        (barrier, [1.0, 2.0, -3], ParameterError,
         "sweep row 2 (E=-3): energy must be positive, got -3.0"),
        (step, [-1.0, 5.0], ParameterError,
         "sweep row 0 (E=-1.0): energy must be positive, got -1.0"),
        (step, [5.0, -1.0], UnsupportedMethodError, f"sweep row 0 (E=5.0): {differ}"),
        (raised, [3.0, 1.0], ParameterError, f"sweep row 1 (E=1.0): E=1.0 {closed}"),
        (barrier, [1.0, "x", -3.0], ValueError,
         "sweep row 1 (E=x): could not convert string to float: 'x'"),
        # nan, +-inf and zero first, in the middle and last
        (barrier, [math.nan, 1.0, 2.0], ParameterError,
         "sweep row 0 (E=nan): energy must be positive, got nan"),
        (barrier, [1.0, math.inf, 2.0], ParameterError,
         "sweep row 1 (E=inf): energy must be finite, got inf"),
        (barrier, [1.0, 2.0, -math.inf], ParameterError,
         "sweep row 2 (E=-inf): energy must be positive, got -inf"),
        (barrier, [1.0, 0], ParameterError, "sweep row 1 (E=0): energy must be positive, got 0.0"),
        (barrier, np.array([0.5, 1.0, np.nan]), ParameterError,
         "sweep row 2 (E=nan): energy must be positive, got nan"),
        (barrier, [1.0, None], TypeError,
         "sweep row 1 (E=None): float() argument must be a string or a real number, not "
         "'NoneType'"),
        (barrier, [1.0, 10**400], OverflowError,
         f"sweep row 1 (E={10**400}): int too large to convert to float"),
        # two bad rows: the first one names the sweep's error
        (barrier, [1.0, -1.0, math.nan], ParameterError,
         "sweep row 1 (E=-1.0): energy must be positive, got -1.0"),
        (barrier, [1.0, -2.0, "x"], ParameterError,
         "sweep row 1 (E=-2.0): energy must be positive, got -2.0"),
        (step, ["x", 3.0], ValueError, "sweep row 0 (E=x): could not convert string to float: 'x'"),
        (raised, [3.0, 1.5, math.nan], ParameterError, f"sweep row 1 (E=1.5): E=1.5 {closed}"),
        # a closed channel in the middle and exactly at the asymptote, last
        (raised, [3.0, 1.0, 2.0], ParameterError, f"sweep row 1 (E=1.0): E=1.0 {closed}"),
        (raised, [3.0, 4.0, 2.0], ParameterError, f"sweep row 2 (E=2.0): E=2.0 {closed}"),
    ]
    for potential, energies, error, message in cases:
        with pytest.raises(error) as info:
            transmission_sweep(potential, energies)
        assert str(info.value) == message


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


# --- The closed-form kernel against the LAPACK chain it replaced -------------
# The oracle below is the earlier kernel: each interface matrix solved from the
# two basis matrices with np.linalg.solve and chained with @.  It builds its own
# layout, E = V mask and wavenumbers from _region_layout and _equal_energies,
# taking the linear solution wherever E = V.


def _oracle_layout(potential, energies, mass, constants):
    """Interfaces, the (nE, regions) E = V mask and wavenumbers, 0 where E = V."""
    interfaces, region_v = scattering._region_layout(potential)
    E, v = np.array(energies, dtype=float)[:, None], np.array(region_v)
    linear = _equal_energies(E, v)
    k = np.sqrt((2.0 * mass * (E - v)).astype(np.complex128)) / constants.hbar
    k[linear] = 0.0
    return interfaces, linear, k


def _oracle_basis(linear, k, delta, shift=0.0):
    up = np.exp(1j * k * delta - shift)
    down = np.exp(-1j * k * delta - shift)
    w = np.empty(k.shape + (2, 2), dtype=np.complex128)
    w[:, 0, 0], w[:, 0, 1] = up, down
    w[:, 1, 0], w[:, 1, 1] = 1j * k * up, -1j * k * down
    w[linear] = ((1.0, delta), (0.0, 1.0))
    return w


def _oracle_bases(interfaces, linear, k, extract):
    refs = interfaces[:1] + interfaces
    for j, x_c in enumerate(interfaces):
        delta, shift = x_c - refs[j], 0.0
        if extract:
            beta_w = np.where(k[:, j].real == 0.0, k[:, j].imag * delta, 0.0)
            shift = np.where(beta_w > scattering._SCALE_EXTRACT_THRESHOLD, beta_w, 0.0)
        w_left = _oracle_basis(linear[:, j], k[:, j], delta, shift)
        w_right = _oracle_basis(linear[:, j + 1], k[:, j + 1], x_c - refs[j + 1])
        yield shift, w_left, w_right


def _oracle_chain(potential, energies, mass=1.0, constants=NATURAL):
    """r, t, c_plus, c_minus arrays of the solve-based chain."""
    interfaces, linear, k = _oracle_layout(potential, energies, mass, constants)
    log_scale = np.zeros(k.shape[0])
    m_total = np.eye(2, dtype=np.complex128)
    for j, (shift, w_left, w_right) in enumerate(_oracle_bases(interfaces, linear, k, True)):
        log_scale += shift
        m_total = np.linalg.solve(w_right, w_left) @ m_total
        if j == 0:
            m_after_first = m_total
    k0, x0, xm = k[:, 0], interfaces[0], interfaces[-1]
    r = -(m_total[:, 1, 0] / m_total[:, 1, 1]) * np.exp(2j * k0 * x0)
    t = np.exp(1j * k0 * (x0 - xm)) * np.exp(-log_scale) / m_total[:, 1, 1]
    incoming = np.stack([np.exp(1j * k0 * x0), r * np.exp(-1j * k0 * x0)], axis=-1)
    f1, b1 = (m_after_first @ incoming[:, :, None])[:, :, 0].T
    decaying = ~linear[:, 1] & (k[:, 1].real == 0.0)
    return r, t, np.where(decaying, b1, f1), np.where(decaying, f1, b1)


def _oracle_region_pairs(potential, E, mass=1.0, constants=NATURAL):
    """Region amplitudes solved right to left from the oracle's t."""
    interfaces, linear, k = _oracle_layout(potential, [E], mass, constants)
    t = complex(_oracle_chain(potential, [E], mass, constants)[1][0])
    refs = (interfaces[:1] or [0.0]) + interfaces
    pairs = [np.array([t * cmath.exp(1j * complex(k[0, -1]) * refs[-1]), 0.0])]
    for _, w_left, w_right in reversed(list(_oracle_bases(interfaces, linear, k, False))):
        pairs.append(np.linalg.solve(w_left[0], w_right[0] @ pairs[-1]))
    return pairs[::-1]


def _random_stack(rng, scale=1.0, height=1.0):
    edges = np.sort(rng.uniform(-3.0, 3.0, size=rng.integers(2, 8))) * scale
    return tuple((float(a), float(b), float(rng.uniform(-2.0, 5.0)) * height)
                 for a, b in zip(edges[:-1], edges[1:]))


def _assert_sweep_matches_oracle(potential, energies, mass=1.0, constants=NATURAL):
    rows = transmission_sweep(potential, energies, mass, constants)
    r0, t0, _, _ = _oracle_chain(potential, energies, mass, constants)
    r = np.array([row.r for row in rows])
    t = np.array([row.t for row in rows])
    assert np.all(np.abs(r - r0) <= 1e-13)
    assert np.all(np.abs(t - t0) <= 1e-13 * np.abs(t0))
    return rows


def test_closed_form_kernel_matches_solve_oracle_on_random_stacks():
    # each sweep mixes random energies with every positive plateau of the
    # stack, so E = V rows take the linear branch next to exponential ones
    rng = np.random.default_rng(2024)
    plateaus = 0
    for _ in range(60):
        segments = _random_stack(rng)
        energies = [*rng.uniform(0.05, 8.0, 25).tolist(), *(v for _, _, v in segments if v > 0)]
        rows = _assert_sweep_matches_oracle(PiecewiseConstant(segments=segments), energies)
        plateaus += sum(v > 0 for _, _, v in segments)
        assert len(rows) == len(energies)
    assert plateaus > 60


def test_closed_form_kernel_matches_solve_oracle_past_the_scale_threshold():
    # beta * a reaches about 330 e-folds: the log-domain scale is taken out
    energies = np.linspace(0.02, 5.8, 300)
    beta_a = np.sqrt(2.0 * np.clip(4.0 - energies, 0.0, None)) * 120.0
    assert (beta_a > scattering._SCALE_EXTRACT_THRESHOLD).sum() > 20
    _assert_sweep_matches_oracle(Barrier(v0=4.0, a=120.0), energies)
    stack = PiecewiseConstant(((0.0, 60.0, 4.0), (60.0, 61.0, 4.0), (62.0, 180.0, 5.0)))
    _assert_sweep_matches_oracle(stack, [0.3, 1.0, 3.9, 4.0, 4.5, 5.0, 7.0])


@pytest.mark.parametrize("segments", [
    ((0.0, 130.0, 4.0), (130.0, 131.0, 1.0)),  # past the threshold, then E = V
    ((0.0, 1.0, 1.0), (1.0, 131.0, 4.0)),  # E = V, then past the threshold
    ((0.0, 0.7, 1.0), (0.7, 2.5, 1.0), (2.5, 132.5, 4.0), (132.5, 133.0, 1.0)),
    ((0.0, 0.7, 2.0), (0.7, 2.5, 2.0), (2.5, 3.0, 0.5)),  # two plateaus at E = 2
])
def test_closed_form_kernel_matches_solve_oracle_next_to_plateaus(segments):
    # every branch of the row form with a region on either side at E = V; at
    # E = 1 the V = 4 regions hold sqrt(6) * 130 = 318 e-folds, so their scale
    # is taken out next to the plateau
    assert math.sqrt(6.0) * 130.0 > scattering._SCALE_EXTRACT_THRESHOLD
    plateaus = sorted({v for _, _, v in segments})
    _assert_sweep_matches_oracle(PiecewiseConstant(segments=segments),
                                 [0.3, *plateaus, 1.7, 3.9, 4.5, 6.0])


def test_closed_form_kernel_matches_solve_oracle_in_si_units():
    m_e, ev, angstrom = 9.1093837015e-31, 1.602176634e-19, 1e-10
    si = si_constants(m_e)
    rng = np.random.default_rng(7)
    for _ in range(20):
        segments = _random_stack(rng, scale=angstrom, height=ev)
        energies = [*(rng.uniform(0.05, 8.0, 10) * ev).tolist(),
                    *(v for _, _, v in segments if v > 0)]
        _assert_sweep_matches_oracle(PiecewiseConstant(segments=segments), energies, m_e, si)


@pytest.mark.parametrize("v0, a", [(4.0, 1.0), (2.0, 3.0), (4.0, 120.0)])
def test_closed_form_interior_coefficients_match_solve_oracle(v0, a):
    energies = [*np.linspace(0.05, 9.0, 61).tolist(), v0]
    rows = transmission_sweep(Barrier(v0=v0, a=a), energies)
    _, _, c_plus, c_minus = _oracle_chain(Barrier(v0=v0, a=a), energies)
    assert np.all(np.abs(np.array([row.c_plus for row in rows]) - c_plus) <= 1e-13)
    assert np.all(np.abs(np.array([row.c_minus for row in rows]) - c_minus) <= 1e-13)


@pytest.mark.parametrize("a", [1.0, 10.0, 30.0, 120.0, 500.0])
def test_interior_coefficients_match_the_closed_form_behind_opaque_barriers(a):
    # Below the top the growing coefficient, exp(+beta x)'s, is about
    # exp(-2 beta a): it must not read as roundoff of r.
    barrier, energies = Barrier(v0=4.0, a=a), (0.05, 1.0, 2.0, 3.9, 4.0, 6.0)
    for E, row in zip(energies, transmission_sweep(barrier, energies)):
        single = transfer_scattering(barrier, E)
        closed = barrier_scattering(E, 4.0, a)
        for name in ("c_plus", "c_minus"):
            assert getattr(row, name) == getattr(single, name)
            want = getattr(closed, name)
            assert abs(getattr(single, name) - want) <= 1e-12 * abs(want), (E, name)


@pytest.mark.parametrize("a", [10.0, 30.0, 120.0])
def test_interior_coefficients_continue_into_the_transmitted_wave(a):
    # At x = a the barrier region's wave must meet t exp(i k a), whose size is
    # |t|, down to 1e-128 here, not the roundoff of the incident side.
    for E in (0.05, 1.0, 2.0, 3.9, 4.0):
        res = transfer_scattering(Barrier(v0=4.0, a=a), E)
        k = math.sqrt(2.0 * E)
        if E == 4.0:  # the linear solution's constant term and slope
            value, slope = res.c_plus + res.c_minus * a, res.c_minus
        else:
            beta = cmath.sqrt(2.0 * (4.0 - E))
            grow, decay = res.c_plus * cmath.exp(beta * a), res.c_minus * cmath.exp(-beta * a)
            value, slope = grow + decay, beta * (grow - decay)
        transmitted = res.t * cmath.exp(1j * k * a)
        assert abs(value - transmitted) <= 1e-12 * abs(res.t), E
        assert abs(slope - 1j * k * transmitted) <= 1e-12 * k * abs(res.t), E


def test_interior_coefficients_of_a_barrier_too_thick_for_t():
    # beta * a is about 1225 e-folds: t and the growing coefficient underflow
    res = transfer_scattering(Barrier(v0=4.0, a=500.0), 1.0)
    closed = barrier_scattering(1.0, 4.0, 500.0)
    assert res.c_plus == 0.0
    assert abs(res.c_minus - closed.c_minus) <= 1e-12 * abs(closed.c_minus)
    assert all(math.isfinite(part) for c in (res.r, res.t, res.c_plus, res.c_minus)
               for part in (c.real, c.imag))


def test_closed_form_region_waves_match_solve_oracle():
    rng = np.random.default_rng(11)
    cases = [(Barrier(v0=4.0, a=a), 0.5) for a in (5.0, 120.0)]
    for _ in range(40):
        segments = _random_stack(rng)
        potential = PiecewiseConstant(segments=segments)
        cases += [(potential, float(E)) for E in rng.uniform(0.05, 8.0, 2)]
        cases += [(potential, v) for _, _, v in segments[:1] if v > 0]
    for potential, E in cases:
        waves = region_waves(potential, E)
        for wave, pair in zip(waves, _oracle_region_pairs(potential, E), strict=True):
            scale = np.max(np.abs(pair))
            assert abs(wave.forward - pair[0]) <= 1e-13 * scale
            assert abs(wave.backward - pair[1]) <= 1e-13 * scale


# --- Single energies keep the messages of the unprefixed checks --------------


def test_single_energy_errors_keep_their_messages():
    barrier = Barrier(v0=2.0, a=1.0)
    step = PiecewiseConstant(segments=((0.0, math.inf, 1.0),))
    raised = PiecewiseConstant(segments=((-math.inf, math.inf, 2.0),))
    cases = [
        (lambda: transfer_scattering(barrier, math.nan), ParameterError,
         "energy must be positive, got nan"),
        (lambda: transfer_scattering(barrier, math.inf), ParameterError,
         "energy must be finite, got inf"),
        (lambda: transfer_scattering(step, 2.0), UnsupportedMethodError,
         "asymptotic potentials differ (0.0 vs 1.0); flux-normalized transmission is not "
         "supported"),
        (lambda: region_waves(raised, 1.0), ParameterError,
         "E=1.0 does not propagate in the asymptotic regions (V=2.0); the incident channel "
         "is evanescent"),
        (lambda: transfer_scattering(barrier, 10**400), OverflowError,
         "int too large to convert to float"),
        (lambda: region_waves(barrier, 10**400), OverflowError,
         "int too large to convert to float"),
        (lambda: transfer_scattering(barrier, -1), ParameterError,
         "energy must be positive, got -1.0"),
        (lambda: region_waves(barrier, -1), ParameterError,
         "energy must be positive, got -1.0"),
    ]
    # An energy float() rejects raises float()'s own error, whose wording
    # depends on the Python version.
    for energy in ("x", None, 1 + 0j):
        with pytest.raises((TypeError, ValueError)) as expected:
            float(energy)
        for function in (transfer_scattering, region_waves):
            cases.append((lambda f=function, e=energy: f(barrier, e), expected.type,
                          str(expected.value)))
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


def test_scattering_table_holds_the_sweep_numbers():
    potential = PiecewiseConstant(segments=((0.0, 1.0, 2.0), (1.0, 1.5, 0.0), (1.5, 2.0, 3.0)))
    energies = [0.5, 2.0, 3.0, 4.5]
    rows = transmission_sweep(potential, energies)
    table = scattering.scattering_table(potential, energies)
    assert all(column.dtype == np.float64 for column in table)
    expected = [[row.energy for row in rows], [row.prob_r for row in rows],
                [row.prob_t for row in rows], [cmath.phase(row.r) for row in rows],
                [cmath.phase(row.t) for row in rows]]
    assert [column.tolist() for column in table] == expected


def test_region_waves_keep_refusing_424_e_folds():
    # Out of scope here: the growing amplitude of this barrier region, about
    # |t| exp(-424) ~ 1e-368, is below the float range, so the assembled wave
    # cannot be continuous at x = 300 and region_waves must refuse it.
    with pytest.raises(ParameterError, match=r"^E=1\.0: the region amplitudes leave the "
                       r"float range .* the stack is too opaque to assemble region by region$"):
        region_waves(Barrier(v0=2.0, a=300.0), 1.0)
