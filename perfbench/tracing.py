"""Outside-in tracing: spans around the calls into each layer of qm1d.

The tracer replaces functions at the names their callers look up (for
example ``qm1d.evolution.norm_squared``, not ``qm1d.core.norm_squared``),
so it needs no change to the program.  A span is (name, parent, start,
end); the parent is the index of the enclosing span in the same list, or
-1 at the top.  Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
Calls run on one thread, so children never overlap and that covered time is
the sum of the children's durations.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# Wrapped names, grouped by the module whose global the caller looks up,
# with the layer (defining module) each belongs to.
WRAPPED = {
    "qm1d.cli": {
        "load_scenario": "cli",
        "run_scenario": "cli",
        "emit_plot_data": "cli",
        "build_hamiltonian": "eigensolver",
        "solve_bound_states": "eigensolver",
        "evolve": "evolution",
        "transmission_sweep": "scattering",
    },
    "qm1d.evolution": {
        "build_hamiltonian": "eigensolver",
        "expectation": "observables",
        "uncertainty": "observables",
        "norm_squared": "core",
        "to_momentum_space": "spectral",
        "to_position_space": "spectral",
    },
    "qm1d.observables": {
        "norm_squared": "core",
        "inner_product": "core",
        "to_momentum_space": "spectral",
        "to_position_space": "spectral",
    },
    "qm1d.scattering": {
        "transfer_scattering": "scattering",
    },
}

# Every WaveFunction construction runs __post_init__ (a private copy of the
# amplitudes), so a span there counts and times the allocations.
WAVEFUNCTION = "qm1d.core.WaveFunction"

# Spans the benchmark opens around its own calls.
OP = "bench.op"
CLI_MAIN = "qm1d.cli.main"

LAYER_OF = {f"{mod}.{attr}": layer for mod, names in WRAPPED.items() for attr, layer in names.items()}
LAYER_OF[WAVEFUNCTION] = "core"
LAYER_OF[CLI_MAIN] = "cli"
LAYER_OF[OP] = "bench"


class Tracer:
    """Installs span-recording wrappers and keeps every span in memory."""

    def __init__(self):
        self.spans: list = []
        self.op_bounds: list[tuple[int, int]] = []
        self.missing: list[str] = []
        self._stack = [-1]
        self._saved: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)

        return traced

    def install(self):
        for mod_name, names in WRAPPED.items():
            module = importlib.import_module(mod_name)
            for attr in names:
                name = f"{mod_name}.{attr}"
                fn = getattr(module, attr, None)
                if fn is None:
                    if name not in self.missing:
                        self.missing.append(name)
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn))
        wavefunction = importlib.import_module("qm1d.core").WaveFunction
        post_init = wavefunction.__dict__.get("__post_init__")
        if post_init is None:
            if WAVEFUNCTION not in self.missing:
                self.missing.append(WAVEFUNCTION)
            return
        self._saved.append((wavefunction, "__post_init__", post_init))
        wavefunction.__post_init__ = self._wrap(WAVEFUNCTION, post_init)

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        return self._wrap(name, fn)(*args)

    def traced_op(self, fn):
        """Run one op with the wrappers installed; returns fn's result."""
        lo = len(self.spans)
        self.install()
        try:
            return self.call(OP, fn)
        finally:
            self.uninstall()
            self.op_bounds.append((lo, len(self.spans)))

    def write(self, path: Path):
        """All spans as JSON lines [op, id, parent, name, start, end]."""
        with gzip.open(path, "wt") as fh:
            for op, (lo, hi) in enumerate(self.op_bounds):
                for sid in range(lo, hi):
                    name, parent, start, end = self.spans[sid]
                    fh.write(json.dumps([op, sid, parent, name, start, end]) + "\n")


def summarize(spans: list, lo: int, hi: int) -> dict:
    """Per-name and per-layer totals for the spans of one op.

    ``self_s`` is time in the layer's own code; ``entry_s`` is the inclusive
    time of the outermost spans of the layer, i.e. the layer with everything
    it calls.
    """
    child = defaultdict(float)
    for sid in range(lo, hi):
        name, parent, start, end = spans[sid]
        child[parent] += end - start
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    layer_self = defaultdict(float)
    layer_entry = defaultdict(float)
    for sid in range(lo, hi):
        name, parent, start, end = spans[sid]
        duration = end - start
        layer = LAYER_OF[name]
        calls[name] += 1
        inclusive[name] += duration
        layer_self[layer] += duration - child[sid]
        if parent < 0 or LAYER_OF[spans[parent][0]] != layer:
            layer_entry[layer] += duration
    return {
        "calls": dict(calls),
        "inclusive_s": dict(inclusive),
        "self_s": dict(layer_self),
        "entry_s": dict(layer_entry),
    }
