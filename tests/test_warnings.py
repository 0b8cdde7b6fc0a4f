"""Every qm1d warning comes from errors.warn and names the caller's line, and
every positivity guard is errors.positive."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import qm1d
from qm1d import (
    NATURAL,
    EvolutionConfig,
    PiecewiseConstant,
    Sampled,
    WaveFunction,
    build_hamiltonian,
    commutator_expectation,
    evolve,
    expectation,
    make_grid,
    momentum_operator,
    normalize,
    position_operator,
    solve_bound_states,
    to_momentum_space,
    uncertainty,
    uncertainty_bound_check,
)
from qm1d.errors import EdgeAmplitudeWarning, NearDegeneracyWarning, NormalizationWarning

EDGE, NORM = EdgeAmplitudeWarning, NormalizationWarning
GRID = make_grid(-4.0, 4.0, 128)
# Norm-squared 4 and live edges: each check below that sees it warns.
HOT = WaveFunction(GRID, np.full(GRID.n, 2.0 / math.sqrt(GRID.n * GRID.dx)))
# Norm-squared 4 with negligible edges, so a split step runs.
COLD = normalize(WaveFunction(GRID, np.exp(-2.0 * GRID.points**2)))
COLD = COLD.with_values(2.0 * COLD.values)
X, P = position_operator(GRID), momentum_operator(GRID)
FREE = PiecewiseConstant()
SPLIT = EvolutionConfig(dt=0.01, steps=3, method="split_step")
CRANK_NICOLSON = EvolutionConfig(dt=0.01, steps=3, method="crank_nicolson")
OBSERVE_ONLY = EvolutionConfig(dt=0.01, steps=0, method="split_step")
# A wall at the middle of a box splits it into two equal wells: a degenerate pair.
_BOX = make_grid(0.0, 1.0, 101)
_WALLS = np.where(np.isin(np.arange(101), (0, 50, 100)), math.inf, 0.0)
TWIN_WELLS = build_hamiltonian(_BOX, Sampled(values=_WALLS, grid=_BOX), 1.0, NATURAL)

# Each call on its own line, with the warnings it records under "always".
CASES = {
    "to_momentum_space": (lambda: to_momentum_space(HOT, NATURAL), [EDGE]),
    "expectation_p": (lambda: expectation(P, HOT), [NORM, EDGE]),
    "expectation_x": (lambda: expectation(X, HOT), [NORM]),
    "uncertainty_p": (lambda: uncertainty(P, HOT), [NORM, EDGE]),
    "uncertainty_x": (lambda: uncertainty(X, HOT), [NORM]),
    "apply_p": (lambda: P.apply(HOT), [EDGE]),
    "commutator_x_p": (lambda: commutator_expectation(X, P, HOT), [EDGE]),
    "bound_check": (lambda: uncertainty_bound_check(X, P, HOT), [NORM, EDGE]),
    "evolve_hot": (lambda: evolve(HOT, FREE, OBSERVE_ONLY), [NORM, EDGE]),
    "evolve_steps": (lambda: evolve(COLD, FREE, SPLIT), [NORM] * 4),
    "evolve_steps_cn": (lambda: evolve(COLD, FREE, CRANK_NICOLSON), [NORM] * 4),
    "near_degeneracy": (lambda: solve_bound_states(TWIN_WELLS, 2), [NearDegeneracyWarning]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_warning_names_the_calling_line(case):
    call, expected = CASES[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [w.category for w in caught] == expected
    assert {(w.filename, w.lineno) for w in caught} == {(__file__, call.__code__.co_firstlineno)}


def test_default_filter_prints_one_warning_of_a_bound_check():
    # the spreads and the commutator share one transform, which warns once
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        uncertainty_bound_check(X, P, HOT)
    assert [w.category for w in caught] == [NORM, EDGE]


def _sources():
    return {path.name: path.read_text() for path in Path(qm1d.__file__).parent.glob("*.py")}


def test_only_errors_module_warns():
    sources = _sources()
    assert "errors.py" in sources
    offenders = [name for name, text in sorted(sources.items())
                 if name != "errors.py" and ("warnings.warn(" in text or "stacklevel" in text)]
    assert offenders == []


def test_only_errors_module_guards_positivity():
    # cli.py's schema parser words its own SchemaError for scenario files
    holders = {name for name, text in _sources().items() if "must be positive" in text}
    assert holders == {"cli.py", "errors.py"}
