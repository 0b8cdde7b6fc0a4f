import math

import numpy as np
import pytest

from qm1d import (
    NATURAL,
    GaussianPacketParams,
    barrier_scattering,
    blackbody_density,
    bohr_frequency,
    de_broglie_wavelength,
    free_packet_xt,
    gaussian_packet_x,
    hermite,
    oscillator_energy,
    oscillator_state,
    packet_spectral_width,
    packet_width,
    photoelectric_kinetic,
    sommerfeld_wilson_oscillator_energy,
    well_energy,
    well_state,
)
from qm1d.errors import ParameterError

# numpy 2.0 renamed trapz to trapezoid; pyproject.toml still allows numpy 1.24
trapezoid = getattr(np, "trapezoid", None) or np.trapz

# explicit low-degree physicists' Hermite polynomials for the recurrence check
HERMITE_TABLE = {
    0: lambda q: 1.0,
    1: lambda q: 2 * q,
    2: lambda q: -2 + 4 * q**2,
    3: lambda q: -12 * q + 8 * q**3,
    4: lambda q: 12 - 48 * q**2 + 16 * q**4,
    5: lambda q: 120 * q - 160 * q**3 + 32 * q**5,
    6: lambda q: -120 + 720 * q**2 - 480 * q**4 + 64 * q**6,
    7: lambda q: -1680 * q + 3360 * q**3 - 1344 * q**5 + 128 * q**7,
    8: lambda q: 1680 - 13440 * q**2 + 13440 * q**4 - 3584 * q**6 + 256 * q**8,
    9: lambda q: 30240 * q - 80640 * q**3 + 48384 * q**5 - 9216 * q**7 + 512 * q**9,
}


# ---------------------------------------------------------------------------
# Wave packets


def test_packet_envelope_at_origin():
    params = GaussianPacketParams(alpha=1.0, k0=0.0)
    assert gaussian_packet_x(params, 0.0) == pytest.approx(math.sqrt(math.pi))


def test_packet_envelope_even():
    params = GaussianPacketParams(alpha=1.0, k0=0.0)
    x = np.linspace(0.1, 3.0, 13)
    assert np.allclose(gaussian_packet_x(params, x), gaussian_packet_x(params, -x))


def test_carrier_leaves_modulus_unchanged():
    flat = GaussianPacketParams(alpha=1.0, k0=0.0)
    boosted = GaussianPacketParams(alpha=1.0, k0=3.0)
    assert abs(gaussian_packet_x(boosted, 1.0)) == pytest.approx(
        abs(gaussian_packet_x(flat, 1.0))
    )


def test_packet_requires_positive_alpha():
    with pytest.raises(ParameterError):
        GaussianPacketParams(alpha=0.0, k0=0.0)


def test_free_packet_reduces_at_t0():
    params = GaussianPacketParams(alpha=0.7, k0=2.5)
    x = np.linspace(-4, 4, 41)
    assert np.allclose(free_packet_xt(params, x, 0.0), gaussian_packet_x(params, x))


def test_free_packet_peak_decay():
    params = GaussianPacketParams(alpha=1.0, k0=1.0)
    beta = params.dispersion_rate
    for t in (0.0, 1.0, 3.0):
        peak = abs(free_packet_xt(params, params.group_velocity * t, t)) ** 2
        assert peak == pytest.approx(math.pi / math.sqrt(1.0 + (beta * t) ** 2), rel=1e-12)


def test_free_packet_peak_travels_at_group_velocity():
    params = GaussianPacketParams(alpha=1.0, k0=1.0)  # v_g = 1
    t = 2.0
    x = np.linspace(-5, 9, 2801)
    density = np.abs(free_packet_xt(params, x, t)) ** 2
    assert abs(x[np.argmax(density)] - 2.0) <= x[1] - x[0]


def test_packet_width_at_t0():
    assert packet_width(GaussianPacketParams(alpha=1.0, k0=0.0), 0.0) == pytest.approx(
        2.0 * math.sqrt(2.0)
    )


def test_width_product_is_four_at_t0():
    for alpha in (0.25, 1.0, 4.0, 9.0):
        params = GaussianPacketParams(alpha=alpha, k0=0.0)
        assert packet_spectral_width(params) * packet_width(params, 0.0) == pytest.approx(4.0)


def test_width_product_grows_with_time():
    params = GaussianPacketParams(alpha=2.0, k0=0.0)
    beta = params.dispersion_rate
    for t in (0.5, 2.0, 10.0):
        product = packet_spectral_width(params) * packet_width(params, t)
        assert product == pytest.approx(4.0 * math.sqrt(1.0 + (beta * t / 2.0) ** 2), rel=1e-12)
        assert product >= 4.0


def test_width_linear_spreading_asymptote():
    params = GaussianPacketParams(alpha=1.5, k0=0.0)
    beta = params.dispersion_rate
    t = 1e8
    rate = packet_width(params, t) / t
    assert rate == pytest.approx(2.0 * math.sqrt(2.0) * beta / math.sqrt(params.alpha), rel=1e-9)


# ---------------------------------------------------------------------------
# Infinite well


def test_well_ground_energy():
    assert well_energy(1, 1.0) == pytest.approx(math.pi**2 / 2.0)


def test_well_energy_quadratic_scaling():
    assert well_energy(2, 1.0) / well_energy(1, 1.0) == pytest.approx(4.0)


def test_well_energy_relative_increment():
    e3, e4 = well_energy(3, 1.0), well_energy(4, 1.0)
    assert (e4 - e3) / e3 == pytest.approx(2.0 / 3.0 + 1.0 / 9.0)


def test_well_energy_rejects_bad_level():
    with pytest.raises(ParameterError):
        well_energy(0, 1.0)


def test_well_state_values():
    assert well_state(1, 1.0, 0.5) == pytest.approx(math.sqrt(2.0))
    assert well_state(2, 1.0, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert well_state(1, 1.0, -0.3) == 0.0
    assert well_state(1, 1.0, 1.3) == 0.0


def test_well_state_normalized_quadrature():
    x = np.linspace(0, 1, 20001)
    for n in (1, 2, 5):
        values = well_state(n, 1.0, x)
        assert trapezoid(values**2, x) == pytest.approx(1.0, abs=1e-9)


def test_well_states_orthogonal_quadrature():
    x = np.linspace(0, 1, 20001)
    for n in range(1, 5):
        for m in range(n + 1, 6):
            overlap = trapezoid(well_state(n, 1.0, x) * well_state(m, 1.0, x), x)
            assert abs(overlap) < 1e-10


# ---------------------------------------------------------------------------
# Barrier scattering


def test_barrier_flux_conservation_random_sweep():
    rng = np.random.default_rng(42)
    for _ in range(100):
        E = rng.uniform(0.05, 8.0)
        v0 = rng.uniform(0.05, 8.0)
        a = rng.uniform(0.05, 4.0)
        res = barrier_scattering(E, v0, a)
        assert abs(res.prob_r + res.prob_t - 1.0) < 1e-12
        assert res.prob_r == pytest.approx(abs(res.r) ** 2)
        assert res.prob_t == pytest.approx(abs(res.t) ** 2)


def test_barrier_transparent_at_zero_width():
    res = barrier_scattering(1.0, 2.0, 1e-12)
    assert res.prob_t == pytest.approx(1.0, abs=1e-10)


def test_barrier_equal_energy_limit():
    # at E = v0 with k = 1, a = 1 the transmission is 4 / (a^2 k^2 + 4)
    res = barrier_scattering(0.5, 0.5, 1.0)
    assert res.prob_t == pytest.approx(0.8, rel=1e-12)
    # approaching the limit from both sides agrees with the branch value
    above = barrier_scattering(0.5 * (1 + 1e-9), 0.5, 1.0)
    below = barrier_scattering(0.5 * (1 - 1e-9), 0.5, 1.0)
    assert above.prob_t == pytest.approx(0.8, rel=1e-8)
    assert below.prob_t == pytest.approx(0.8, rel=1e-8)


def test_barrier_transmission_decreases_with_width():
    widths = np.linspace(0.1, 3.0, 15)
    probs = [barrier_scattering(1.0, 2.0, a).prob_t for a in widths]
    assert all(p1 > p2 for p1, p2 in zip(probs, probs[1:]))


def test_barrier_tunnelling_probability_formula():
    # cross-check the amplitude result against the direct modulus formula
    # |T|^2 = 4 k^2 b^2 / ((k^2 + b^2)^2 sinh^2(a b) + 4 k^2 b^2) for E < v0
    E, v0, a = 1.0, 4.0, 1.0
    k = math.sqrt(2 * E)
    b = math.sqrt(2 * (v0 - E))
    expected = 4 * k**2 * b**2 / ((k**2 + b**2) ** 2 * math.sinh(a * b) ** 2 + 4 * k**2 * b**2)
    assert barrier_scattering(E, v0, a).prob_t == pytest.approx(expected, rel=1e-13)
    expected_r = (
        (k**2 + b**2) ** 2
        * math.sinh(a * b) ** 2
        / ((k**2 + b**2) ** 2 * math.sinh(a * b) ** 2 + 4 * k**2 * b**2)
    )
    assert barrier_scattering(E, v0, a).prob_r == pytest.approx(expected_r, rel=1e-13)


def test_barrier_oscillatory_branch_continuation():
    # above the barrier the same code path must reproduce the sin form:
    # |T|^2 = 4 k^2 kb^2 / ((k^2 - kb^2)^2 sin^2(a kb) + 4 k^2 kb^2)
    E, v0, a = 5.0, 2.0, 1.3
    k = math.sqrt(2 * E)
    kb = math.sqrt(2 * (E - v0))
    expected = 4 * k**2 * kb**2 / ((k**2 - kb**2) ** 2 * math.sin(a * kb) ** 2 + 4 * k**2 * kb**2)
    assert barrier_scattering(E, v0, a).prob_t == pytest.approx(expected, rel=1e-13)


def test_barrier_thick_does_not_overflow():
    res = barrier_scattering(1.0, 50.0, 60.0)  # a * beta approx 594
    assert res.prob_t >= 0.0
    assert res.prob_r == pytest.approx(1.0, abs=1e-12)
    assert math.isfinite(res.prob_t)


def test_barrier_interior_matching():
    # continuity at x = 0 and x = a ties the interior coefficients to R, T
    for E in (1.0, 3.0, 5.0):
        res = barrier_scattering(E, 4.0, 1.0)
        k = math.sqrt(2 * E)
        beta = complex(np.sqrt(np.complex128(2 * (4.0 - E))))
        left = 1 + res.r
        interior0 = res.c_plus + res.c_minus
        assert abs(left - interior0) < 1e-12
        interior_a = res.c_plus * np.exp(beta * 1.0) + res.c_minus * np.exp(-beta * 1.0)
        right_a = res.t * np.exp(1j * k * 1.0)
        assert abs(interior_a - right_a) < 1e-12


def test_barrier_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        barrier_scattering(-1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        barrier_scattering(1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        barrier_scattering(1.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# Hermite polynomials and the oscillator


def test_hermite_base_cases():
    assert hermite(0, 0.7) == 1.0
    assert hermite(1, 2.0) == 4.0


def test_hermite_explicit_value():
    assert hermite(4, 1.0) == -20.0  # 12 - 48 + 16


def test_hermite_recurrence_matches_table_exactly():
    # integer arithmetic is exact in doubles at these magnitudes
    for n, poly in HERMITE_TABLE.items():
        for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
            assert hermite(n, q) == poly(q)


def test_hermite_parity():
    q = np.linspace(0.1, 2.5, 9)
    assert np.array_equal(hermite(9, -q), -hermite(9, q))
    assert np.array_equal(hermite(8, -q), hermite(8, q))


def test_hermite_degree_cap():
    hermite(64, 0.5)
    with pytest.raises(ParameterError):
        hermite(65, 0.5)
    with pytest.raises(ParameterError):
        hermite(-1, 0.5)


def test_oscillator_energies():
    assert oscillator_energy(0, 1.0) == pytest.approx(0.5)
    assert oscillator_energy(3, 2.0) == pytest.approx(7.0)
    for n in range(6):
        assert oscillator_energy(n + 1, 1.0) - oscillator_energy(n, 1.0) == pytest.approx(1.0)
    with pytest.raises(ParameterError):
        oscillator_energy(-1, 1.0)


def test_oscillator_ground_state_prefactor():
    # normalization-consistent prefactor is the quarter power of m w / (hbar pi)
    value = oscillator_state(0, 1.0, 1.0, NATURAL, 0.0)
    assert value == pytest.approx((1.0 / math.pi) ** 0.25, rel=1e-14)


def test_oscillator_states_normalized_quadrature():
    x = np.linspace(-14, 14, 14001)
    for n in range(11):
        values = oscillator_state(n, 1.0, 1.0, NATURAL, x)
        assert trapezoid(values**2, x) == pytest.approx(1.0, abs=1e-10)


def test_oscillator_state_parity():
    x = np.linspace(0.1, 5.0, 23)
    for n in (0, 1, 4, 7):
        left = oscillator_state(n, 1.0, 1.0, NATURAL, -x)
        right = oscillator_state(n, 1.0, 1.0, NATURAL, x)
        assert np.allclose(left, (-1.0) ** n * right, rtol=1e-12)


def test_oscillator_state_scales_with_mass_omega():
    x = np.linspace(-6, 6, 6001)
    values = oscillator_state(2, 2.0, 3.0, NATURAL, x)
    assert trapezoid(values**2, x) == pytest.approx(1.0, abs=1e-10)


def test_oscillator_state_far_tail_is_zero_not_nan():
    out = oscillator_state(60, 1.0, 1.0, NATURAL, np.array([-1e6, 1e6]))
    assert np.all(out == 0.0)


# ---------------------------------------------------------------------------
# Phenomenology


def test_blackbody_low_frequency_agreement():
    c = NATURAL
    t = 1.0
    nu = 1e-6 * c.boltzmann_k * t / c.h
    ratio = blackbody_density(nu, t, "planck", c) / blackbody_density(nu, t, "rayleigh_jeans", c)
    assert abs(ratio - 1.0) < 1e-5


def test_blackbody_planck_integral_converges():
    c = NATURAL
    t = 1.0
    nu_scale = c.boltzmann_k * t / c.h

    def integral(ceiling_x, n=400001):
        nu = np.linspace(1e-9, ceiling_x * nu_scale, n)
        u = np.array([blackbody_density(v, t, "planck", c) for v in nu[:: n // 4001]])
        grid = nu[:: n // 4001]
        return trapezoid(u, grid)

    i40 = integral(40.0)
    i80 = integral(80.0)
    assert math.isfinite(i40)
    assert abs(i80 - i40) / i40 < 1e-9


def test_blackbody_rayleigh_jeans_quadratic_growth():
    c = NATURAL
    u1 = blackbody_density(1.0, 2.0, "rayleigh_jeans", c)
    u2 = blackbody_density(2.0, 2.0, "rayleigh_jeans", c)
    assert u2 / u1 == pytest.approx(4.0)


def test_blackbody_ratio_monotone():
    c = NATURAL
    t = 1.0
    nu = np.linspace(0.01, 10.0, 200) * c.boltzmann_k * t / c.h
    ratios = [
        blackbody_density(v, t, "planck", c) / blackbody_density(v, t, "rayleigh_jeans", c)
        for v in nu
    ]
    assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))


def test_blackbody_rejects_bad_input():
    with pytest.raises(ParameterError):
        blackbody_density(-1.0, 1.0, "planck", NATURAL)
    with pytest.raises(ParameterError):
        blackbody_density(1.0, 1.0, "wien", NATURAL)


def test_photoelectric_threshold():
    c = NATURAL
    w = 3.0
    assert photoelectric_kinetic(w / c.h, w, c) == pytest.approx(0.0, abs=1e-15)
    assert photoelectric_kinetic(2.0 * w / c.h, w, c) == pytest.approx(w)
    assert photoelectric_kinetic(0.5 * w / c.h, w, c) < 0.0


def test_de_broglie():
    c = NATURAL
    assert de_broglie_wavelength(c.h, c) == pytest.approx(1.0)
    assert de_broglie_wavelength(2.0, c) == pytest.approx(0.5 * de_broglie_wavelength(1.0, c))
    with pytest.raises(ParameterError):
        de_broglie_wavelength(0.0, c)


def test_bohr_frequency():
    c = NATURAL
    assert bohr_frequency(2.0, 2.0, c) == 0.0
    assert bohr_frequency(c.h + 1.0, 1.0, c) == pytest.approx(1.0)


def _action_integral(E, mass, omega, n_points=2_000_001):
    # orbit integral of p dq for p = sqrt(2 m E - m^2 w^2 x^2), evaluated by
    # quadrature between the turning points (doubled for the return leg)
    amplitude = math.sqrt(2.0 * E / (mass * omega**2))
    x = np.linspace(-amplitude, amplitude, n_points)
    p = np.sqrt(np.maximum(2.0 * mass * E - (mass * omega * x) ** 2, 0.0))
    return 2.0 * trapezoid(p, x)


def test_sommerfeld_wilson_levels_match_action_quadrature():
    c = NATURAL
    for n in (1, 2, 5):
        energy = sommerfeld_wilson_oscillator_energy(n, 1.0, c)
        assert _action_integral(energy, 1.0, 1.0) == pytest.approx(n * c.h, rel=1e-6)


def test_sommerfeld_wilson_offset_from_exact_levels():
    for omega in (1.0, 2.0):
        for n in (1, 2, 7):
            semiclassical = sommerfeld_wilson_oscillator_energy(n, omega)
            exact = oscillator_energy(n, omega)
            assert semiclassical - exact == -0.5 * omega


def test_sommerfeld_wilson_linear_in_omega():
    assert sommerfeld_wilson_oscillator_energy(3, 2.0) == pytest.approx(
        2.0 * sommerfeld_wilson_oscillator_energy(3, 1.0)
    )
    with pytest.raises(ParameterError):
        sommerfeld_wilson_oscillator_energy(0, 1.0)


def test_si_profile_consistency():
    from qm1d import si_constants

    si = si_constants(9.109e-31)
    assert si.h == pytest.approx(2.0 * math.pi * si.hbar, rel=1e-15)
    assert si.h == 6.6261e-34


# (call, exception, message fragment): input checks no other test reaches.
INPUT_CHECKS = {
    "packet_mass": (lambda: GaussianPacketParams(1.0, 0.0, mass=0.0), ParameterError,
                    "mass must be positive"),
    "well_energy_a": (lambda: well_energy(1, 0.0), ParameterError, "width must be positive"),
    "well_state_n": (lambda: well_state(0, 1.0, 0.5), ParameterError, "start at n = 1"),
    "well_state_a": (lambda: well_state(1, -1.0, 0.5), ParameterError, "width must be positive"),
    "oscillator_energy_omega": (lambda: oscillator_energy(0, 0.0), ParameterError,
                                "omega must be positive"),
    "oscillator_state_mass": (lambda: oscillator_state(0, 0.0, 1.0, NATURAL, 0.0),
                              ParameterError, "mass and omega must be positive"),
    "oscillator_state_omega": (lambda: oscillator_state(0, 1.0, -1.0, NATURAL, 0.0),
                               ParameterError, "mass and omega must be positive"),
    "sommerfeld_wilson_omega": (lambda: sommerfeld_wilson_oscillator_energy(1, 0.0),
                                ParameterError, "omega must be positive"),
    "packet_alpha_nan": (lambda: GaussianPacketParams(math.nan, 0.0), ParameterError,
                         "^alpha must be positive, got nan$"),
    "well_energy_a_inf": (lambda: well_energy(1, math.inf), ParameterError,
                          "^well width must be finite, got inf$"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks(case):
    call, error, fragment = INPUT_CHECKS[case]
    with pytest.raises(error, match=fragment):
        call()
