"""scipy's compiled LAPACK routines, loaded without the scipy.linalg package.

The eigensolver and the Crank-Nicolson stepper call a handful of f2py
wrappers (``dstebz``, ``dstein``, ``dsbevx``, ``dgbtrf``, ``dgbtrs``,
``zgttrf``, ``zgttrs``).  Importing ``scipy.linalg`` to reach them runs its
whole ``__init__``, which doubled a solving command's cold start (about
0.25 s more, and 23 MB more peak RSS, on a 2-vCPU VM; ``tools/coldstart.py``);
the extension module ``scipy/linalg/_flapack`` alone loads in milliseconds.  It is loaded
here under its own full name and registered in ``sys.modules``, so a later
``import scipy.linalg`` reuses the same module and its routines are the
objects ``scipy.linalg.lapack`` exports.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys

_NAME = "scipy.linalg._flapack"


def flapack():
    """The ``scipy.linalg._flapack`` extension module, loaded on first use."""
    module = sys.modules.get(_NAME)
    if module is None:
        # scipy itself is imported here, not at module top, so that importing
        # qm1d (and the version and validate commands) loads no scipy module.
        import scipy

        linalg = [f"{path}/linalg" for path in scipy.__path__]
        spec = importlib.machinery.PathFinder.find_spec("_flapack", linalg)
        if spec is None:
            raise ImportError(f"scipy's LAPACK extension {linalg[0]}/_flapack.* was not found",
                              name=_NAME)
        spec = importlib.util.spec_from_file_location(_NAME, spec.origin)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[_NAME] = module
    return module
