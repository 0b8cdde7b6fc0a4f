"""Byte-identity corpus: run a fixed set of CLI scenarios with this tree's
``src/`` and with another ``src/`` tree, and compare every data file.

    python tools/corpus.py --against OTHER_CHECKOUT/src

The corpus holds all six commands in csv and json (with ``emit_states``,
``emit_density``, an SI profile, a ``sampled`` potential and tables whose
blocks end at, just before and just after the writers' 1024-row chunks and
the 256-row chunks of earlier writers, one a five-column scatter table) plus
the perfbench scenarios of seeds 1-3 of every workload, in their own format.
Library results that no CLI scenario reaches are hashed as well: bound
states (energies, states, residuals) of both stencils, ``h.apply`` across a
hard wall, the complex snapshots and six series of a walled Crank-Nicolson
run and of a free split-step run through the public ``evolve`` (the CLI
streams its series without it) and of a walled Crank-Nicolson and a
harmonic split-step run whose step count is not a multiple of
``observables_every``, harmonic runs of both methods that record 5 and 10
states (a partial last batch of the evolve snapshot kernel), a barrier and a
segment stack sampled on a grid with points on their interfaces, and the
barrier's ``c_plus``/``c_minus``, the stack's ``region_waves`` amplitudes, a
sweep across one of its plateaus, a thick barrier's r, t, ``c_plus`` and
``c_minus`` on both sides of the log-scale threshold, a walled ``Sampled``
table read at its cell midpoints, one with walls of both signs sampled on its
grid, and the
observables no CLI scenario measures:
``expectation`` and ``uncertainty`` of a ``hamiltonian_operator`` and of a
``custom_operator``, ``momentum_expectation_x_route``, a small
``momentum_operator(...).matrix()`` and the position and momentum moments of
a 16,385-point packet, whose sums take three blocks of 8,192 points.  Each side
runs in its own interpreter with ``PYTHONPATH`` set to its source tree, so
the two never share imported modules.  Data files and library results are
compared by sha256; ``*.meta.json`` sidecars carry timestamps and are
skipped.  A library result of several arrays (the six evolve series, a
scattering result's r, t, c_plus and c_minus) hashes each array under its own
name.  Exit status 0 means every scenario exits alike on both sides and every
data file and library result exists on both sides with the same digests.
For a data file whose digest differs, the report gives its largest absolute
and relative numeric cell difference, its largest difference relative to the
column's largest |value|, and names the columns whose cells differ; for a
library result, it names the arrays whose digests differ and gives the same
three figures for each, relative to each array's largest |entry|, from the
arrays that each side's library child saves next to its digests.  A cell
near zero can move by a large fraction of itself in its last bits; the
figure against the column or array shows whether any move exceeds roundoff
of the values around it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
import workloads  # noqa: E402

NATURAL = {"profile": "natural"}
ELECTRON_KG = 9.1093837015e-31
SEEDS = (1, 2, 3)

# Runs each (scenario, out dir, format or None) of the manifest through
# qm1d.cli.main and prints the exit codes as one JSON list.
_CHILD = """
import contextlib, io, json, sys, warnings
warnings.simplefilter("ignore")
from qm1d.cli import main
codes = []
for scenario, out, fmt in json.load(open(sys.argv[1])):
    argv = ["run", scenario, "--out", out] + (["--format", fmt] if fmt else [])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps(codes))
"""

# Prints the sha256 of each public-API result below as one JSON object, by
# name (a result of several named arrays maps each name to its own sha256),
# and pickles the arrays of every result, by the same names, to argv[1]:
# "library/<stencil order>/<problem>/<result>" for bound states,
# "library/segments/<potential>/<result>[/<energy>]" for segment potentials,
# "library/sampled/<potential>/<result>" for sampled ones,
# "library/free/<method>[/series]" for a free packet through evolve,
# "library/off_cadence/<potential>/<method>[/series]" for evolve runs whose
# steps are not a multiple of observables_every,
# "library/batches/<states>/<method>[/series]" for evolve runs that record a
# number of states that is not a multiple of the snapshot batch and
# "library/observables/<operator>/<result>" for observables of operators that
# no CLI scenario measures, and "library/observables/blocks/moments" for moments
# summed in more than one block.
_LIBRARY = """
import hashlib, json, math, pickle, sys, warnings
import numpy as np
warnings.simplefilter("ignore")
from qm1d import (NATURAL, Barrier, EvolutionConfig, Harmonic, InfiniteWell, LinearRamp,
                  PiecewiseConstant, Sampled, WaveFunction, build_hamiltonian, custom_operator,
                  evolve, expectation, hamiltonian_operator, make_grid,
                  momentum_expectation_x_route, momentum_operator, normalize,
                  position_operator, region_waves,
                  sample_on_grid, solve_bound_states, transfer_scattering, transmission_sweep,
                  uncertainty)
from qm1d.evolution import SERIES

def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

# sums[key]: the sha256 of arrays, or of each named array under its name;
# saved[key] keeps the arrays, as a list or as one-array lists by name.
def record(key, *arrays, **named):
    if named:
        sums[key] = {name: sha(a) for name, a in named.items()}
        saved[key] = {name: [np.asarray(a)] for name, a in named.items()}
    else:
        sums[key] = sha(*arrays)
        saved[key] = [np.asarray(a) for a in arrays]

osc = make_grid(-10.0, 10.0, 401)
wall = 150  # x = -2.5
walled_values = 0.5 * osc.points**2
walled_values[wall] = math.inf
walled = Sampled(values=walled_values, grid=osc)
problems = {
    "oscillator": (osc, Harmonic(omega=1.0)),
    "well": (make_grid(0.0, 1.0, 801), InfiniteWell(a=1.0)),
    "ramp": (make_grid(-0.5, 20.0, 1026), LinearRamp(lam=1.0)),
    "walled": (osc, walled),
}
sums, saved = {}, {}
for order in (2, 4):
    for name, (grid, potential) in problems.items():
        h = build_hamiltonian(grid, potential, 1.0, NATURAL, order=order)
        spectrum = solve_bound_states(h, 4)
        key = f"library/{order}/{name}"
        record(f"{key}/energies", spectrum.energies)
        record(f"{key}/states", *(state.values for state in spectrum.states))
        record(f"{key}/residuals", spectrum.residuals)
    rng = np.random.default_rng(order)
    v = rng.standard_normal(osc.n) + 1j * rng.standard_normal(osc.n)
    h = build_hamiltonian(osc, walled, 1.0, NATURAL, order=order)
    record(f"library/{order}/walled/apply", h.apply(v))

# The snapshots and the series of the public evolve.
def run_evolve(key, psi0, potential, **config):
    trajectory = evolve(psi0, potential, EvolutionConfig(**config))
    record(key, *(s.values for s in trajectory.snapshots))
    record(f"{key}/series", **{n: getattr(trajectory, n) for n in SERIES})

values = np.exp(-((osc.points - 1.0) ** 2) + 1.5j * osc.points)
smooth_packet = normalize(WaveFunction(osc, values))  # a copy of values
values[wall] = 0.0
walled_packet = WaveFunction(osc, values)
run_evolve("library/2/walled/crank_nicolson", walled_packet, walled,
           dt=0.02, steps=40, observables_every=5)
free = make_grid(-20.0, 30.0, 512)
packet = normalize(WaveFunction(free, np.exp(-0.5 * free.points**2 + 2j * free.points)))
run_evolve("library/free/split_step", packet, PiecewiseConstant(),
           dt=0.01, steps=40, method="split_step", observables_every=4)
# Off cadence: the last state is recorded because it is the last, and Crank-
# Nicolson steps from states that no snapshot records.
run_evolve("library/off_cadence/walled/crank_nicolson", walled_packet, walled,
           dt=0.02, steps=37, observables_every=5)
run_evolve("library/off_cadence/harmonic/split_step", smooth_packet,
           Harmonic(omega=1.0), dt=0.02, steps=37, method="split_step", observables_every=4)
# 5 and 10 recorded states: full batches of the snapshot kernel and a partial
# last one, whose rows must read as if each state were observed alone.
for method in ("crank_nicolson", "split_step"):
    for states, every in ((5, 1), (10, 3)):
        run_evolve(f"library/batches/{states}/{method}", smooth_packet, Harmonic(omega=1.0),
                   dt=0.02, steps=(states - 1) * every, method=method, observables_every=every)

# Sampled potentials read between their nodes, and walls of both signs on the grid.
midpoints = 0.5 * (osc.points[:-1] + osc.points[1:])
record("library/sampled/walled/value_array", walled.value_array(midpoints))
two_walls = Sampled(values=np.where(osc.points < -5.0, -math.inf, walled_values), grid=osc)
record("library/sampled/two_walls/sample_on_grid", *sample_on_grid(two_walls, osc))

# Piecewise-constant potentials: sampling on a grid with points on every
# interface, and scattering amplitudes no CLI table holds.
stack = PiecewiseConstant(((0.0, 0.5, 2.0), (0.5, 1.0, -1.0), (1.0, 1.5, 1.0)))
interfaces = make_grid(-1.0, 2.0, 301)  # holds 0.0, 0.5, 1.0 and 1.5 exactly
for name, potential in (("barrier", Barrier(v0=2.0, a=1.0)), ("stack", stack)):
    record(f"library/segments/{name}/sample_on_grid", *sample_on_grid(potential, interfaces))
for E in (0.4, 1.0, 4.0, 6.0):  # tunnelling, E = V and above the barrier
    result = transfer_scattering(Barrier(v0=4.0, a=1.0), E)
    record(f"library/segments/barrier/transfer_scattering/{E}",
           **{n: np.array(getattr(result, n)) for n in ("r", "t", "c_plus", "c_minus")})
for E in (1.0, 2.5):
    waves = region_waves(stack, E)
    record(f"library/segments/stack/region_waves/{E}",
           np.array([(w.forward, w.backward) for w in waves]))
sweep = transmission_sweep(stack, np.linspace(0.25, 3.0, 12))  # crosses the V = 1 plateau
record("library/segments/stack/transmission_sweep", np.array([(s.r, s.t) for s in sweep]))
# a thick barrier's amplitudes: below E = 0.875 its e-folds pass the log-scale threshold
sweep = transmission_sweep(Barrier(v0=4.0, a=120.0), [0.05, 0.3, 0.6, 0.85, 1.5, 3.0, 4.0, 6.0])
record("library/segments/thick/transmission_sweep",
       **{n: np.array([getattr(s, n) for s in sweep]) for n in ("r", "t", "c_plus", "c_minus")})

# Observables that no CLI scenario measures: <A> and dA of the harmonic H and
# of a random Hermitian matrix, the position-space route of <p> and a small
# momentum matrix.
small = make_grid(-4.0, 4.0, 48)
small_packet = normalize(WaveFunction(small, np.exp(-small.points**2 + 1j * small.points)))
rng = np.random.default_rng(18)
dense = rng.standard_normal((small.n, small.n)) + 1j * rng.standard_normal((small.n, small.n))
operators = {
    "hamiltonian": (hamiltonian_operator(build_hamiltonian(osc, Harmonic(omega=1.0), 1.0,
                                                           NATURAL)), smooth_packet),
    "custom": (custom_operator(dense + dense.conj().T, small), small_packet),
}
for name, (op, psi) in operators.items():
    record(f"library/observables/{name}/expectation", np.array(expectation(op, psi)))
    record(f"library/observables/{name}/uncertainty", np.array(uncertainty(op, psi)))
record("library/observables/momentum/x_route",
       np.array(momentum_expectation_x_route(smooth_packet)))
record("library/observables/momentum/matrix", momentum_operator(small).matrix())
wide = make_grid(-40.0, 60.0, 16385)
wide_packet = normalize(WaveFunction(wide, np.exp(-0.25 * (wide.points - 5.0) ** 2
                                                   + 3j * wide.points)))
record("library/observables/blocks/moments", **{
    f"{name}/{result.__name__}": np.array(result(op, wide_packet))
    for name, op in (("x", position_operator(wide)), ("p", momentum_operator(wide)))
    for result in (expectation, uncertainty)})
with open(sys.argv[1], "wb") as out:
    pickle.dump(saved, out)
print(json.dumps(sums))
"""


def _harmonic_values(grid: dict, omega: float) -> list[float]:
    x = np.linspace(grid["x_min"], grid["x_max"], grid["n"])
    return (0.5 * omega**2 * x**2).tolist()


def _chunk_packet(n: int) -> dict:
    return {
        "command": "packet", "constants": NATURAL,
        "packet": {"alpha": 0.5, "k0": 1.0}, "times": [0.0, 1.0],
        "grid": {"x_min": -8.0, "x_max": 12.0, "n": n}, "emit_density": True,
    }


def _chunk_states(n: int) -> dict:
    return {
        "command": "spectrum", "constants": NATURAL,
        "grid": {"x_min": -10.0, "x_max": 10.0, "n": n},
        "potential": {"kind": "harmonic", "omega": 1.0}, "count": 3,
        "emit_states": True,
    }


def hand_written() -> dict[str, dict]:
    """Scenarios that run in both csv and json, by name."""
    well_grid = {"x_min": 0.0, "x_max": 1.0, "n": 801}
    osc_grid = {"x_min": -10.0, "x_max": 10.0, "n": 401}
    packet_grid = {"x_min": -30.0, "x_max": 30.0, "n": 512}
    bodies = {
        "well": {
            "command": "spectrum", "constants": NATURAL, "grid": well_grid,
            "potential": {"kind": "infinite_well", "a": 1.0}, "count": 4,
            "emit_states": True,
        },
        "harmonic": {
            "command": "spectrum", "constants": NATURAL, "grid": osc_grid,
            "potential": {"kind": "harmonic", "omega": 1.0}, "count": 5,
            "emit_states": True,
        },
        "si_well": {
            "command": "spectrum",
            "constants": {"profile": "si", "mass": ELECTRON_KG},
            "grid": {"x_min": 0.0, "x_max": 1e-9, "n": 2001},
            "potential": {"kind": "infinite_well", "a": 1e-9}, "count": 4,
        },
        "sampled": {
            "command": "spectrum", "constants": NATURAL, "grid": osc_grid,
            "potential": {"kind": "sampled", "values": _harmonic_values(osc_grid, 1.0)},
            "count": 5,
        },
        "ramp": {
            "command": "spectrum", "constants": NATURAL,
            "grid": {"x_min": -0.5, "x_max": 20.0, "n": 1026},
            "potential": {"kind": "linear_ramp", "lam": 1.0}, "count": 3,
        },
        "scatter": {
            "command": "scatter", "constants": NATURAL,
            "potential": {"kind": "piecewise_constant",
                          "segments": [[0.0, 1.0, 2.0], [1.5, 2.0, 1.0]]},
            "energies": {"start": 0.1, "stop": 4.0, "count": 40},
        },
        "evolve_cn": {
            "command": "evolve", "constants": NATURAL, "grid": packet_grid,
            "potential": {"kind": "harmonic", "omega": 0.2},
            "initial": {"alpha": 1.0, "k0": 1.5, "x0": -2.0},
            "method": "crank_nicolson", "dt": 0.02, "steps": 40,
            "observables_every": 5, "emit_density": True,
        },
        "evolve_split": {
            "command": "evolve", "constants": NATURAL, "grid": packet_grid,
            "potential": {"kind": "harmonic", "omega": 0.3},
            "initial": {"alpha": 0.6, "k0": 2.5, "x0": -4.0},
            "method": "split_step", "dt": 0.02, "steps": 40,
        },
        "packet": {
            "command": "packet", "constants": NATURAL,
            "packet": {"alpha": 0.7, "k0": 2.0}, "times": [0.0, 0.5, 1.5],
            "grid": {"x_min": -6.0, "x_max": 10.0, "n": 65}, "emit_density": True,
        },
        # Blocks of 255, 256 and 257 rows around the 256-row chunk of earlier
        # writers, and of 1023, 1024 and 1025 rows around the writers' chunk;
        # the density blocks of a packet share their x entry, and a scatter
        # table's five float columns share one call of the float kernel.
        "packet_256": _chunk_packet(256),
        "packet_257": _chunk_packet(257),
        "states_255": _chunk_states(255),
        "packet_1024": _chunk_packet(1024),
        "packet_1025": _chunk_packet(1025),
        "states_1023": _chunk_states(1023),
        "scatter_1025": {
            "command": "scatter", "constants": NATURAL,
            "potential": {"kind": "piecewise_constant",
                          "segments": [[0.0, 0.5, 1.5], [0.9, 1.3, 0.7]]},
            "energies": {"start": 0.01, "stop": 5.0, "count": 1025},
        },
        "blackbody": {
            "command": "blackbody", "constants": NATURAL, "temperature": 1.5,
            "frequencies": {"start": 0.05, "stop": 3.0, "count": 30},
        },
        "uncertainty_gaussian": {
            "command": "uncertainty", "constants": NATURAL,
            "grid": {"x_min": -16.0, "x_max": 16.0, "n": 512},
            "state": {"kind": "gaussian", "alpha": 0.8, "k0": 1.0, "x0": 0.5},
        },
        "uncertainty_eigenstate": {
            "command": "uncertainty", "constants": NATURAL, "grid": well_grid,
            "potential": {"kind": "infinite_well", "a": 1.0},
            "state": {"kind": "eigenstate", "n": 2},
        },
    }
    for name, body in bodies.items():
        body["output"] = {"format": "csv", "path": f"{name}.dat"}
    return bodies


def write_corpus(directory: Path) -> list[tuple[str, str, str | None]]:
    """Scenario files under ``directory``; returns the manifest of
    (scenario path, output subdirectory, format override)."""
    runs = []
    for name, body in hand_written().items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(body, indent=2) + "\n")
        for fmt in ("csv", "json"):
            runs.append((str(path), f"{name}.{fmt}", fmt))
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            tag = f"{workload}.{seed}"
            paths = workloads.write(workloads.generate(workload, seed), directory / tag, workload, seed)
            runs += [(str(path), f"{tag}/{path.stem}", None) for path in paths]
    return runs


def _child(src: Path, code: str, *args: str, cwd: Path | None = None):
    """Run ``code`` with qm1d imported from ``src``; returns its JSON stdout.
    A failing child ends the check with its own stderr."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, cwd=cwd
    )
    if result.returncode:
        sys.exit(f"child with PYTHONPATH={src} failed:\n{result.stderr}")
    return json.loads(result.stdout)


def run_side(src: Path, runs: list, scenarios: Path, out: Path) -> list[int]:
    """Run the manifest with qm1d imported from ``src``; returns exit codes."""
    manifest = out.with_name(f"{out.name}.manifest.json")
    manifest.write_text(json.dumps([(s, str(out / sub), fmt) for s, sub, fmt in runs]))
    return _child(src, _CHILD, str(manifest), cwd=scenarios)


def digests(out: Path) -> dict[str, str]:
    """sha256 of every data file below ``out``, by relative path."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.endswith(".meta.json")
    }


def _rows(path: Path) -> list[list]:
    """A data file's rows, the column names first: the lines of a CSV table or
    the "columns" and then the "rows" of a JSON table."""
    text = path.read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        return list(csv.reader(io.StringIO(text)))
    return [document["columns"], *document["rows"]]


def _number(cell) -> float | None:
    if isinstance(cell, bool):
        return None
    try:
        value = float(cell)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


def cell_difference(this: Path, against: Path) -> str:
    """The largest absolute and relative difference between the numeric cells
    of two data files of the same shape, the largest difference relative to
    its column's largest |value| on either side, and the columns whose cells
    differ; other differing cells are counted."""
    rows = _rows(this), _rows(against)
    header = rows[0][0]
    cells = [[(j, cell) for row in side for j, cell in enumerate(row)] for side in rows]
    if len(cells[0]) != len(cells[1]):
        return f"{len(cells[0])} vs {len(cells[1])} cells"
    peaks = {}
    for j, cell in cells[0] + cells[1]:
        value = _number(cell)
        if value is not None:
            peaks[j] = max(peaks.get(j, 0.0), abs(value))
    moved = other = 0
    worst = [0.0, 0.0, 0.0]
    columns = set()
    for (j, a), (_, b) in zip(*cells):
        if a == b:
            continue
        columns.add(j)
        x, y = _number(a), _number(b)
        if x is None or y is None:
            other += 1
            continue
        moved += 1
        gap = abs(x - y)
        worst = [max(w, d) for w, d in zip(worst, (
            gap, gap / (max(abs(x), abs(y)) or 1.0), gap / (peaks[j] or 1.0)))]
    names = ", ".join(header[j] for j in sorted(columns))
    text = f"{moved} numeric cells moved, " + _worst(worst, "column")
    return text + (f"; {other} other cells differ" if other else "") + f"; columns: {names}"


def _worst(worst, whole: str) -> str:
    """The largest absolute, relative and whole-relative differences, as text."""
    return "max abs {:.2g}, max rel {:.2g}, max rel to {} max {:.2g}".format(
        worst[0], worst[1], whole, worst[2])


def array_difference(this: list, against: list) -> str:
    """The largest absolute and relative difference between the entries of two
    lists of arrays of the same shapes, and the largest difference relative to
    its array's largest finite |entry| on either side; entries that differ but
    are not both finite are counted."""
    if [np.shape(a) for a in this] != [np.shape(a) for a in against]:
        return "shapes differ"
    other = 0
    worst = [0.0, 0.0, 0.0]
    for a, b in zip(this, against):
        x, y = (np.ravel(v).astype(np.complex128) for v in (a, b))
        both = np.isfinite(x) & np.isfinite(y)
        other += int(np.sum(~both & (x != y) & ~(np.isnan(x) & np.isnan(y))))
        gap = np.abs(x[both] - y[both])
        scale = np.maximum(np.abs(x[both]), np.abs(y[both]))
        peak = np.max(scale, initial=0.0) or 1.0
        rel = gap / np.where(scale == 0.0, 1.0, scale)
        worst = [max(w, float(np.max(d, initial=0.0)))
                 for w, d in zip(worst, (gap, rel, gap / peak))]
    return _worst(worst, "array") + (f"; {other} other entries differ" if other else "")


def moved_arrays(this, against, saved=None) -> str:
    """The names of the arrays whose digests differ between two library
    results of several named arrays; a result of one array has no names.
    With saved, the (this, against) arrays of the result as the library child
    keeps them, each moved array of a result on both sides gets its
    array_difference."""
    def moved(name=None):
        if saved is None or None in saved:
            return ""
        sides = saved if name is None else [side.get(name) for side in saved]
        return "" if None in sides else f" ({array_difference(*sides)})"

    if not (isinstance(this, dict) and isinstance(against, dict)):
        return "sha256 differs or missing on one side" + moved()
    names = sorted(n for n in this.keys() | against.keys() if this.get(n) != against.get(n))
    return "sha256 differs in " + ", ".join(name + moved(name) for name in names)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path,
                        help="the other src/ directory (holding qm1d/)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="qm1d-corpus-") as tmp:
        tmp = Path(tmp)
        scenarios = tmp / "scenarios"
        scenarios.mkdir()
        runs = write_corpus(scenarios)
        codes, sums, saved = {}, {}, {}
        for side, src in (("this", REPO / "src"), ("against", args.against)):
            codes[side] = run_side(src.resolve(), runs, scenarios, tmp / side)
            arrays = tmp / f"{side}.library.pickle"
            sums[side] = digests(tmp / side) | _child(src.resolve(), _LIBRARY, str(arrays))
            saved[side] = pickle.loads(arrays.read_bytes())
        moved = {
            name: cell_difference(tmp / "this" / name, tmp / "against" / name)
            for name in sums["this"].keys() & sums["against"].keys()
            if not name.startswith("library/") and sums["this"][name] != sums["against"][name]
        }
    failures = [
        f"exit codes differ for {sub}: {a} vs {b}"
        for (_, sub, _), a, b in zip(runs, codes["this"], codes["against"]) if a != b
    ]
    failures += [f"scenario {sub} exited {a}" for (_, sub, _), a in zip(runs, codes["this"]) if a]
    failures += [
        f"{name}: sha256 differs ({moved[name]})" if name in moved
        else f"{name}: " + moved_arrays(sums["this"].get(name), sums["against"].get(name),
                                        [saved[side].get(name) for side in ("this", "against")])
        for name in sorted(set(sums["this"]) | set(sums["against"]))
        if sums["this"].get(name) != sums["against"].get(name)
    ]
    counts = []
    for library in (False, True):
        names = [name for name in sums["this"] if name.startswith("library/") == library]
        counts += [len(names), sum(sums["against"].get(name) == sums["this"][name] for name in names)]
    print(f"{len(runs)} runs, {counts[0]} data files, {counts[1]} sha256-identical; "
          f"{counts[2]} library results, {counts[3]} sha256-identical")
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
