"""Exception and warning classes shared by all qm1d modules, positive() and warn()."""

import math
import numbers
import os
import sys
import warnings


class QmError(Exception):
    """Base class for all qm1d errors."""


class ConfigurationError(QmError):
    """Degenerate domain, fully masked grid, or otherwise unusable setup."""


class ParameterError(QmError, ValueError):
    """A physical parameter is outside its admissible range."""


class GridMismatchError(QmError):
    """Two states (or a state and an operator) live on different grids."""


class SpaceTagError(QmError):
    """An operation received a wavefunction in the wrong representation."""


class DegenerateStateError(QmError):
    """A zero-norm state where a normalizable one is required."""


class SolverError(QmError):
    """A numerical routine failed to converge or produced invalid output."""


class UnsupportedMethodError(QmError):
    """The requested method cannot handle this potential or configuration."""


class EdgeAmplitudeError(QmError):
    """Probability reached the grid edge; results would wrap or leak."""


class EdgeAmplitudeWarning(UserWarning):
    """A state is not negligible at the grid edges; accuracy degrades."""


class NormalizationWarning(UserWarning):
    """An expectation value was requested on a state with norm far from 1."""


class NearDegeneracyWarning(UserWarning):
    """Two eigenvalues are closer than the resolution of the solver."""


def positive(what: str, *values: float):
    """Raise ParameterError unless every value is a real number (int, float or
    a numpy one; not bool) in 0 < v < inf: "{what} must be a real number, got
    {v!r}" for any other type, "must be positive, got {v}" for zero, negative
    and nan, "must be finite" for +inf."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ParameterError(f"{what} must be a real number, got {v!r}")
        if v == math.inf:
            raise ParameterError(f"{what} must be finite, got {v}")
        if not v > 0.0:
            raise ParameterError(f"{what} must be positive, got {v}")


_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def warn(message: str, category: type[Warning]):
    """warnings.warn at the first frame whose file is outside this package:
    the caller's line.  Matched by path, as ``python -m qm1d.cli`` runs cli.py
    as __main__; skip_file_prefixes would do this but needs Python 3.12."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)
