import math
import re

import numpy as np
import pytest

from qm1d import (
    Barrier,
    Harmonic,
    InfiniteWell,
    LinearRamp,
    PiecewiseConstant,
    Sampled,
    evaluate,
    make_grid,
    sample_on_grid,
    transmission_sweep,
)
from qm1d.errors import ConfigurationError, ParameterError
from qm1d.potentials import segment_list


def test_barrier_evaluate():
    v = Barrier(v0=2.0, a=1.0)
    assert evaluate(v, 0.5) == 2.0
    assert evaluate(v, -0.5) == 0.0
    assert evaluate(v, 1.5) == 0.0
    # left-closed, right-open at the interfaces
    assert evaluate(v, 0.0) == 2.0
    assert evaluate(v, 1.0) == 0.0
    # a barrier is its one segment, on a grid with points at 0 and a as well
    g = make_grid(-1.0, 2.0, 301)
    assert {0.0, 1.0} <= set(g.points.tolist())
    for got, want in zip(sample_on_grid(v, g),
                         sample_on_grid(PiecewiseConstant(((0.0, 1.0, 2.0),)), g)):
        assert np.array_equal(got, want)


def test_harmonic_evaluate():
    assert evaluate(Harmonic(omega=1.0, mass=1.0), 2.0) == 2.0
    assert evaluate(Harmonic(omega=2.0, mass=3.0), 1.0) == 6.0


def test_infinite_well_evaluate():
    v = InfiniteWell(a=1.0)
    assert evaluate(v, -0.1) == math.inf
    assert evaluate(v, 0.5) == 0.0
    assert evaluate(v, 1.1) == math.inf


def test_linear_ramp_evaluate():
    v = LinearRamp(lam=2.0)
    assert evaluate(v, 3.0) == 6.0
    assert evaluate(v, -1.0) == math.inf


def test_piecewise_convention_left_closed():
    v = PiecewiseConstant(segments=((0.0, 1.0, 5.0), (1.0, 2.0, -1.0)))
    assert evaluate(v, 0.0) == 5.0
    assert evaluate(v, 1.0) == -1.0
    assert evaluate(v, 2.0) == 0.0
    assert evaluate(v, 0.999) == 5.0


def test_piecewise_empty_is_free():
    v = PiecewiseConstant()
    assert evaluate(v, 12.3) == 0.0


def test_piecewise_rejects_bad_segments():
    with pytest.raises(ParameterError):
        PiecewiseConstant(segments=((0.0, 1.0, 1.0), (0.5, 2.0, 2.0)))
    with pytest.raises(ParameterError):
        PiecewiseConstant(segments=((1.0, 1.0, 1.0),))
    with pytest.raises(ParameterError):
        PiecewiseConstant(segments=((0.0, 1.0, math.inf),))


def test_parameter_validation():
    with pytest.raises(ParameterError):
        InfiniteWell(a=0.0)
    with pytest.raises(ParameterError):
        Barrier(v0=-1.0, a=1.0)
    with pytest.raises(ParameterError):
        Harmonic(omega=0.0)
    with pytest.raises(ParameterError):
        LinearRamp(lam=-2.0)


def test_sample_well_masks_endpoints():
    g = make_grid(0, 1, 11)
    values, mask = sample_on_grid(InfiniteWell(a=1.0), g)
    assert mask[0] and mask[-1]
    assert not mask[1:-1].any()
    assert np.all(values[1:-1] == 0.0)
    assert np.all(values[mask] == 0.0)


def test_sample_ramp_masks_origin():
    g = make_grid(0, 50, 101)
    values, mask = sample_on_grid(LinearRamp(lam=1.0), g)
    assert mask[0]
    assert not mask[1:].any()
    assert np.allclose(values[1:], g.points[1:])


def test_sampled_passthrough_on_own_grid():
    g = make_grid(-2, 2, 41)
    raw = np.cos(g.points)
    values, mask = sample_on_grid(Sampled(values=raw, grid=g), g)
    assert np.array_equal(values, raw)
    assert not mask.any()
    # every node reads its own value, on the grid and off it, at any magnitude;
    # an infinite node of either sign is a wall
    rng = np.random.default_rng(7)
    raw = rng.choice([-1.0, 1.0], g.n) * 10.0 ** rng.uniform(-300, 300, g.n)
    raw[[3, 17]] = math.inf, -math.inf
    sampled = Sampled(values=raw, grid=g)
    values, mask = sample_on_grid(sampled, g)
    assert np.flatnonzero(mask).tolist() == [3, 17]
    assert np.array_equal(values, np.where(mask, 0.0, raw))
    read = np.where(mask, math.inf, raw).tolist()
    assert sampled.value_array(g.points).tolist() == read
    assert [evaluate(sampled, x) for x in g.points] == read


def test_sampled_interpolates_elsewhere():
    g = make_grid(0, 1, 11)
    v = Sampled(values=g.points.copy(), grid=g)
    assert evaluate(v, 0.55) == pytest.approx(0.55)
    # a probe with the grid's length and end points is interpolated like any other
    squared = Sampled(values=g.points**2, grid=g)
    probe = np.array([0.0, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 1.0])
    expected = np.interp(probe, g.points, g.points**2)
    assert np.array_equal(squared.value_array(probe), expected)
    assert squared.value_array(probe)[1] == pytest.approx(0.905)


def test_fully_masked_grid_rejected():
    g = make_grid(2, 3, 11)  # entirely outside the unit well
    with pytest.raises(ConfigurationError):
        sample_on_grid(InfiniteWell(a=1.0), g)


def test_harmonic_carries_its_own_mass():
    g = make_grid(-1, 1, 9)
    values, _ = sample_on_grid(Harmonic(omega=2.0, mass=0.5), g)
    assert values[0] == pytest.approx(0.5 * 0.5 * 4.0 * 1.0)


_G8 = make_grid(0.0, 1.0, 8)
# (call, exception, message fragment): input checks no other test reaches.
INPUT_CHECKS = {
    "barrier_width": (lambda: Barrier(v0=1.0, a=0.0), ParameterError, "width must be positive"),
    "harmonic_mass": (lambda: Harmonic(omega=1.0, mass=-1.0), ParameterError,
                      "mass must be positive"),
    "sampled_length": (lambda: Sampled(values=np.zeros(7), grid=_G8), ParameterError,
                       "has (7,) values for a 8-point grid"),
    "segments_of_harmonic": (lambda: segment_list(Harmonic(omega=1.0)), ParameterError,
                             "Harmonic is not a piecewise-constant potential"),
    "sweep_of_harmonic": (lambda: transmission_sweep(Harmonic(omega=1.0), [1.0]),
                          ParameterError, "Harmonic is not a piecewise-constant potential"),
    "segments_of_sampled": (lambda: segment_list(Sampled(values=np.zeros(8), grid=_G8)),
                            ParameterError, "Sampled is not a piecewise-constant potential"),
    "sweep_of_sampled": (
        lambda: transmission_sweep(Sampled(values=np.zeros(8), grid=_G8), [1.0]),
        ParameterError, "Sampled is not a piecewise-constant potential",
    ),
    "barrier_height_nan": (lambda: Barrier(v0=math.nan, a=1.0), ParameterError,
                           "barrier height must be positive, got nan"),
    "harmonic_omega_inf": (lambda: Harmonic(omega=math.inf), ParameterError,
                           "omega must be finite, got inf"),
    "sweep_row_nan": (lambda: transmission_sweep(Barrier(v0=1.0, a=1.0), [0.5, math.nan]),
                      ParameterError, "sweep row 1 (E=nan): energy must be positive, got nan"),
    "sweep_row_inf": (lambda: transmission_sweep(Barrier(v0=1.0, a=1.0), [math.inf, 0.5]),
                      ParameterError, "sweep row 0 (E=inf): energy must be finite, got inf"),
    "sampled_nan": (lambda: Sampled(values=np.where(_G8.points > 0.5, math.nan, 0.0), grid=_G8),
                    ParameterError, "sampled potential values must not be nan"),
}


@pytest.mark.parametrize("case", sorted(INPUT_CHECKS))
def test_input_checks(case):
    call, error, fragment = INPUT_CHECKS[case]
    with pytest.raises(error, match=re.escape(fragment)):
        call()
