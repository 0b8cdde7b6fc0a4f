"""Batch front end: JSON scenarios in, CSV or JSON tables out.

The scenario file is validated against a strict schema (unknown keys are
rejected) before any computation runs.  Data outputs are byte-identical
across repeated runs: floats are serialized with their shortest round-trip
representation and row order is fixed.  Run metadata that legitimately
varies (timestamps, library versions) goes to a ``<output>.meta.json``
sidecar, never into the data files.  A run writes all of its files or none
of them, and never writes a non-finite value.

Exit codes: 0 success, 2 schema violation, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from . import _shortest as shortest
from .analytic import (
    GaussianPacketParams,
    blackbody_density,
    free_packet_xt,
    gaussian_packet_x,
    oscillator_energy,
    packet_width,
    well_energy,
)
from .constants import PhysicalConstants, si_constants
from .core import Grid, WaveFunction, make_grid, normalize
from .eigensolver import build_hamiltonian, solve_bound_states
from .errors import QmError, SolverError
from .evolution import SERIES, STEPPERS, EvolutionConfig, _stream
from .observables import (
    momentum_operator,
    position_operator,
    uncertainty_bound_check,
)
from .potentials import (
    Barrier,
    Harmonic,
    InfiniteWell,
    LinearRamp,
    PiecewiseConstant,
    Potential,
    Sampled,
)
from .scattering import scattering_table

OUTPUT_DIR_ENV = "QM1D_OUTPUT_DIR"


class SchemaError(Exception):
    """Scenario file violates the schema; nothing was computed."""


# ---------------------------------------------------------------------------
# Schema helpers


def _obj(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    return value


def _keys(obj, where: str, required: dict, optional: dict | None = None) -> dict:
    obj = _obj(obj, where)
    optional = optional or {}
    out = {}
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"unknown key {key!r} in {where}")
    for key, parse in required.items():
        if key not in obj:
            raise SchemaError(f"missing key {key!r} in {where}")
        out[key] = parse(obj[key], f"{where}.{key}")
    for key, parse in optional.items():
        if key in obj:
            out[key] = parse(obj[key], f"{where}.{key}")
    return out


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number")
    try:
        x = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise SchemaError(f"{where} must be finite")
    return x


def _positive(value, where: str) -> float:
    x = _number(value, where)
    if x <= 0.0:
        raise SchemaError(f"{where} must be positive")
    return x


def _positive_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer")
    if value < 1:
        raise SchemaError(f"{where} must be at least 1")
    return value


def _boolean(value, where: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{where} must be true or false")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string")
    return value


def _choice(options):
    def parse(value, where: str) -> str:
        s = _string(value, where)
        if s not in options:
            raise SchemaError(f"{where} must be one of {sorted(options)}, got {s!r}")
        return s

    return parse


def _raw(value, where: str):
    """For the blocks load_scenario parses after the rest: the constants,
    and the potential, which needs the grid and the mass."""
    return value


def _number_list(value, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where} must be a non-empty array of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _range_or_list(value, where: str) -> list[float]:
    """Either an explicit array or {start, stop, count} (endpoints included)."""
    if isinstance(value, list):
        return _number_list(value, where)
    spec = _keys(value, where, {"start": _number, "stop": _number, "count": _positive_int})
    if spec["count"] == 1:
        return [spec["start"]]
    return np.linspace(spec["start"], spec["stop"], spec["count"]).tolist()


def _relative_path(value, where: str) -> str:
    path = Path(_string(value, where))
    # "" and "." have no parts: they name the output directory, not a file in it
    if not path.parts or path.is_absolute() or ".." in path.parts:
        raise SchemaError(f"{where} must be a relative file path inside the output directory")
    return value


# ---------------------------------------------------------------------------
# Scenario blocks


def _parse_constants(obj, where: str) -> PhysicalConstants:
    """The constants profile; its mass is the particle mass."""
    spec = _keys(obj, where, {"profile": _choice({"natural", "si"})}, {"mass": _positive})
    if spec["profile"] == "si":
        if "mass" not in spec:
            raise SchemaError(f"{where}: the si profile requires an explicit mass")
        return si_constants(spec["mass"])
    return PhysicalConstants(mass=spec.get("mass", 1.0))


def _parse_grid(obj, where: str) -> Grid:
    spec = _keys(obj, where, {"x_min": _number, "x_max": _number, "n": _positive_int})
    return make_grid(spec["x_min"], spec["x_max"], spec["n"])


def _parse_segments(value, where: str) -> tuple:
    """Empty array means the free particle, V = 0 everywhere."""
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be an array of [start, end, value]")
    segs = []
    for i, seg in enumerate(value):
        if not isinstance(seg, list) or len(seg) != 3:
            raise SchemaError(f"{where}[{i}] must be [start, end, value]")
        start, end, v = (_number(x, f"{where}[{i}][{j}]") for j, x in enumerate(seg))
        segs.append((start, end, v))
    return tuple(segs)


def _kind(obj, where: str) -> tuple[dict, str]:
    """The keys of a block other than ``kind``, and the kind that selects their schema."""
    body = _obj(obj, where)
    if "kind" not in body:
        raise SchemaError(f"missing key 'kind' in {where}")
    rest = {key: value for key, value in body.items() if key != "kind"}
    return rest, _string(body["kind"], f"{where}.kind")


_POTENTIALS = {
    "infinite_well": (InfiniteWell, {"a": _positive}),
    "barrier": (Barrier, {"v0": _positive, "a": _positive}),
    "harmonic": (Harmonic, {"omega": _positive}),
    "linear_ramp": (LinearRamp, {"lam": _positive}),
    "piecewise_constant": (PiecewiseConstant, {"segments": _parse_segments}),
    "sampled": (Sampled, {"values": _number_list}),
}


def _parse_potential(obj, where: str, constants: PhysicalConstants,
                     grid: Grid | None) -> Potential:
    rest, kind = _kind(obj, where)
    if kind not in _POTENTIALS:
        raise SchemaError(f"{where}.kind: unknown potential kind {kind!r}")
    cls, keys = _POTENTIALS[kind]
    params = _keys(rest, where, keys)
    if cls is Harmonic:
        params["mass"] = constants.mass
    elif cls is Sampled:
        if grid is None:
            raise SchemaError(f"{where}: a sampled potential requires a grid block")
        params["grid"] = grid
    return cls(**params)


def _parse_state(obj, where: str) -> dict:
    rest, kind = _kind(obj, where)
    if kind == "gaussian":
        return {"kind": kind, **_parse_gaussian(rest, where)}
    if kind == "eigenstate":
        return {"kind": kind, **_keys(rest, where, {"n": _positive_int})}
    raise SchemaError(f"{where}.kind must be 'gaussian' or 'eigenstate'")


def _parse_output(obj, where: str) -> dict:
    return _keys(obj, where, {"format": _choice({"csv", "json"}), "path": _relative_path})


def _parse_gaussian(obj, where: str) -> dict:
    return _keys(obj, where, {"alpha": _positive, "k0": _number}, {"x0": _number})


# ---------------------------------------------------------------------------
# Columnar tables
#
# A table is (columns, blocks): the column names and a list of blocks of
# rows, each a tuple of one entry per column.  An entry is an ndarray or a
# list (one cell per row) or any other value (one cell repeated on every row
# of the block), and every block holds at least one ndarray or list.  The
# writers keep cells as bytes from formatting to the file: each ndarray or
# list becomes a matrix of padded UTF-8 cell rows, a float ndarray's from the
# vectorized shortest round-trip kernel (qm1d._shortest, the bytes of repr),
# and each block's rows are written in order through one row template,
# _CHUNK_ROWS at a time.

_PLOT_COLUMNS = ("series", "t", "x", "value")


# ---------------------------------------------------------------------------
# Commands: each executor turns a parsed spec into {output path: table}


def _derived_path(path: str, tag: str) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}_{tag}{p.suffix}"))


def _execute_spectrum(spec, constants):
    potential = spec["potential"]
    h = build_hamiltonian(spec["grid"], potential, constants.mass, constants)
    spectrum = solve_bound_states(h, spec["count"])

    energies = spectrum.energies
    levels = np.arange(1, len(energies) + 1)
    block = (levels, energies, "", "")
    if isinstance(potential, (InfiniteWell, Harmonic)):
        reference = np.array([
            well_energy(n, potential.a, constants) if isinstance(potential, InfiniteWell)
            else oscillator_energy(n - 1, potential.omega, constants)
            for n in levels.tolist()
        ])
        block = (levels, energies, reference, np.abs(energies - reference) / np.abs(reference))
    outputs = {spec["output"]["path"]: (["n", "E_numeric", "E_analytic", "rel_error"], [block])}
    if spec.get("emit_states"):
        outputs[_derived_path(spec["output"]["path"], "states")] = (_PLOT_COLUMNS, [
            (f"state_{i}", "", state.grid.points, state.values.real)
            for i, state in enumerate(spectrum.states)
        ])
    return outputs


def _execute_scatter(spec, constants):
    block = scattering_table(spec["potential"], spec["energies"], constants.mass, constants)
    columns = ["energy", "prob_R", "prob_T", "phase_R", "phase_T"]
    return {spec["output"]["path"]: (columns, [block])}


def _packet_params(gaussian: dict, constants: PhysicalConstants):
    """The closed-form packet of a block parsed by _parse_gaussian, x0 aside."""
    return GaussianPacketParams(gaussian["alpha"], gaussian["k0"], constants.mass, constants)


def _initial_packet(grid: Grid, init: dict, constants: PhysicalConstants) -> WaveFunction:
    params = _packet_params(init, constants)
    values = gaussian_packet_x(params, grid.points - init.get("x0", 0.0))
    return normalize(WaveFunction(grid, values))


def _execute_evolve(spec, constants):
    psi0 = _initial_packet(spec["grid"], spec["initial"], constants)
    config = EvolutionConfig(
        dt=spec["dt"],
        steps=spec["steps"],
        method=spec["method"],
        observables_every=spec.get("observables_every", 1),
    )
    keep = (lambda v: np.abs(v) ** 2) if spec.get("emit_density") else (lambda v: None)
    times, series, densities = _stream(psi0, spec["potential"], config, constants.mass,
                                       constants, keep)
    outputs = {spec["output"]["path"]: (["t", *SERIES], [(times, *series)])}
    if spec.get("emit_density"):
        outputs[_derived_path(spec["output"]["path"], "density")] = (_PLOT_COLUMNS, [
            ("density", t, psi0.grid.points, values)
            for t, values in zip(times.tolist(), densities)
        ])
    return outputs


def _execute_packet(spec, constants):
    params = _packet_params(spec["packet"], constants)
    times = spec["times"]
    blocks = [("width", times, "", [packet_width(params, t) for t in times])]
    if spec.get("emit_density"):
        xs = spec["grid"].points
        blocks += [("density", t, xs, np.abs(free_packet_xt(params, xs, t)) ** 2) for t in times]
    return {spec["output"]["path"]: (_PLOT_COLUMNS, blocks)}


def _execute_blackbody(spec, constants):
    columns = ["nu", "u_planck", "u_rayleigh_jeans", "ratio"]
    rows = []  # row by row, so the first failing cell raises as it always has
    for nu in spec["frequencies"]:
        planck = blackbody_density(nu, spec["temperature"], "planck", constants)
        rj = blackbody_density(nu, spec["temperature"], "rayleigh_jeans", constants)
        rows.append((nu, planck, rj, planck / rj))
    return {spec["output"]["path"]: (columns, [tuple(map(list, zip(*rows)))])}


def _execute_uncertainty(spec, constants):
    grid = spec["grid"]
    state = spec["state"]
    if state["kind"] == "gaussian":
        psi = _initial_packet(grid, state, constants)
    else:
        h = build_hamiltonian(grid, spec["potential"], constants.mass, constants)
        spectrum = solve_bound_states(h, state["n"])
        psi = spectrum.states[state["n"] - 1]

    r = uncertainty_bound_check(position_operator(grid), momentum_operator(grid, constants), psi)
    columns = ["x_spread", "p_spread", "product", "bound", "satisfied"]
    block = ([r.spread_a], [r.spread_b], [r.lhs], [r.rhs], [r.satisfied])
    return {spec["output"]["path"]: (columns, [block])}


def _density_needs_grid(spec: dict) -> str | None:
    if spec.get("emit_density") and "grid" not in spec:
        return "emit_density requires a grid block"
    return None


def _eigenstate_needs_potential(spec: dict) -> str | None:
    if spec["state"]["kind"] == "eigenstate" and "potential" not in spec:
        return "an eigenstate state requires a potential"
    return None


@dataclass(frozen=True)
class Command:
    """One scenario command.  ``required`` and ``optional`` map the keys it
    takes besides ``command``, ``constants`` and ``output`` to their parsers;
    ``rule`` returns what is wrong across keys, if anything."""

    required: dict
    optional: dict
    execute: Callable[[dict, PhysicalConstants], dict]
    rule: Callable[[dict], str | None] = lambda spec: None


COMMANDS = {
    "spectrum": Command(
        {"grid": _parse_grid, "potential": _raw, "count": _positive_int},
        {"emit_states": _boolean},
        _execute_spectrum,
    ),
    "scatter": Command(
        {"potential": _raw, "energies": _range_or_list},
        {},
        _execute_scatter,
    ),
    "evolve": Command(
        {
            "grid": _parse_grid,
            "potential": _raw,
            "initial": _parse_gaussian,
            "method": _choice(STEPPERS),
            "dt": _positive,
            "steps": _positive_int,
        },
        {"observables_every": _positive_int, "emit_density": _boolean},
        _execute_evolve,
    ),
    "packet": Command(
        {"packet": _parse_gaussian, "times": _number_list},
        {"grid": _parse_grid, "emit_density": _boolean},
        _execute_packet,
        _density_needs_grid,
    ),
    "blackbody": Command(
        {"temperature": _positive, "frequencies": _range_or_list},
        {},
        _execute_blackbody,
    ),
    "uncertainty": Command(
        {"grid": _parse_grid, "state": _parse_state},
        {"potential": _raw},
        _execute_uncertainty,
        _eigenstate_needs_potential,
    ),
}


# ---------------------------------------------------------------------------
# Serialization


# Rows per write.  A chunk of text stays below glibc's default 128 KiB mmap
# threshold (90 KiB for a JSON states chunk); writing whole 2,000-row blocks
# raised peak RSS by 0.5 MB.
_CHUNK_ROWS = 1024
_PAD = bytes([shortest.PAD])


def _check_finite(name: str, table):
    """Raise SolverError naming the first row, in file order, that holds a
    non-finite float cell, and its leftmost such cell."""
    offset = 0
    for block in table[1]:
        cells = np.broadcast_arrays(*map(np.asarray, block))  # one cell per row
        bad = [~np.isfinite(c) if c.dtype.kind == "f" else np.zeros(c.shape, bool) for c in cells]
        if np.any(bad):
            row, col = np.argwhere(np.transpose(bad))[0]
            value = float(cells[col][row])
            row += offset + 1
            raise SolverError(f"{name}: row {row} holds the non-finite value {value!r}")
        offset += len(cells[0])


def _csv_string(text: str) -> str:
    """A string cell as csv.writer(lineterminator="\\n") writes it in a row
    of more than one cell."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _cells(entry, string: Callable[[str], str]) -> np.ndarray:
    """(cells, width) uint8: the UTF-8 text of each cell of a list or an ndarray (the
    repr of a number, a numpy scalar's as its Python value, true/false, or ``string``
    of a string), padded with ``shortest.PAD``."""
    cells = entry.tolist() if isinstance(entry, np.ndarray) else entry
    texts = [(string(cell) if isinstance(cell, str) else json.dumps(cell)
              if isinstance(cell, bool) else repr(cell)).encode()
             for cell in (c.item() if isinstance(c, np.generic) else c for c in cells)]
    width = max(map(len, texts), default=0)
    padded = b"".join(text.ljust(width, _PAD) for text in texts)
    return np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), width)


def _write_table(fh, fmt: str, table):
    """Write a table _CHUNK_ROWS rows at a time, in the bytes of csv.writer
    (booleans as true/false) or of json.dump({"columns": ..., "rows": ...},
    indent=2).  A row is ``sep`` (dropped by the table's first row), ``pre``,
    its cells with ``mid`` between them, and ``post``.  A block is a row
    template: each run of literals (the repeated cells and the text around
    them) is filled once, and a chunk copies its rows of the varying
    entries' byte matrices into their columns and writes the template's rows
    without the padding.  A block's new float ndarrays are one kernel call;
    an entry that the next block holds too is formatted once."""
    columns, blocks = table
    if fmt == "json":
        names = json.dumps(columns, indent=2).replace("\n", "\n  ")
        fh.write(f'{{\n  "columns": {names},\n  "rows": [')
        string, sep, pre, mid, post = json.dumps, ",", "\n    [\n      ", ",\n      ", "\n    ]"
    else:
        # csv.writer quotes an empty field when it is the whole row
        string = _csv_string if len(columns) != 1 else lambda text: _csv_string(text) or '""'
        fh.write(",".join(map(string, columns)) + "\n")
        sep, pre, mid, post = "", "", ",", "\n"
    wrote, cells = False, {}  # cells: the matrices of the block's varying entries by id
    for block in blocks:
        # Release the last block's rows first; a kept matrix is copied to pin no kernel output.
        pieces = template = slots = slot = matrix = chunk = None
        varying = [entry for entry in block if isinstance(entry, (list, np.ndarray))]
        rows = len(varying[0])
        cells = {id(entry): cells[id(entry)].copy() for entry in varying if id(entry) in cells}
        floats = [entry for entry in varying if id(entry) not in cells
                  and isinstance(entry, np.ndarray) and entry.dtype.kind == "f"]
        if floats:
            cells.update(zip(map(id, floats), shortest.rows(floats)))
        cells.update({id(entry): _cells(entry, string) for entry in varying
                      if id(entry) not in cells})
        pieces = [(sep + pre).encode()]  # literal bytes and the varying entries' matrices
        for entry, text in zip(block, [mid] * (len(block) - 1) + [post]):
            if id(entry) in cells:
                pieces += [cells[id(entry)], text.encode()]
            else:  # a repeated cell: its one-cell matrix is its text
                pieces[-1] += _cells([entry], string).tobytes() + text.encode()
        edges = np.cumsum([0] + [len(p) if isinstance(p, bytes) else p.shape[1] for p in pieces])
        template = np.empty((min(rows, _CHUNK_ROWS), edges[-1]), dtype=np.uint8)
        slots = []  # (the template's columns, the matrix of their cells)
        for p, lo, hi in zip(pieces, edges, edges[1:]):
            if isinstance(p, bytes):
                template[:, lo:hi] = np.frombuffer(p, dtype=np.uint8)
            else:
                slots.append((template[:, lo:hi], p))
        for lo in range(0, rows, _CHUNK_ROWS):
            for slot, matrix in slots:
                slot[:rows - lo] = matrix[lo:lo + _CHUNK_ROWS]
            chunk = template[:rows - lo]
            fh.write(chunk[chunk != shortest.PAD][len(sep) * (not wrote):].tobytes().decode())
            wrote = True
    if fmt == "json":
        fh.write("\n  ]\n}\n" if wrote else "]\n}\n")


def _staged(final: Path, staged: list[tuple[Path, Path]]):
    """Open a temporary file beside ``final`` and record the pair."""
    tmp = final.with_name(f".{final.name}.{os.getpid()}.tmp")
    staged.append((tmp, final))
    return open(tmp, "w", newline="")


def _write_outputs(base: Path, fmt: str, outputs: dict, meta: dict) -> list[Path]:
    """Write every table and its sidecar under a temporary name in its
    target directory, then rename them all into place.  If any step fails,
    every file of the run is removed again and the error propagates."""
    staged: list[tuple[Path, Path]] = []
    placed: list[Path] = []
    try:
        for rel_path, table in outputs.items():
            target = base / rel_path
            target.parent.mkdir(parents=True, exist_ok=True)
            with _staged(target, staged) as fh:
                _write_table(fh, fmt, table)
            with _staged(target.with_name(target.name + ".meta.json"), staged) as fh:
                json.dump(meta, fh, indent=2)
                fh.write("\n")
        for tmp, final in staged:
            os.replace(tmp, final)
            placed.append(final)
    except BaseException:
        for path in [tmp for tmp, _ in staged] + placed:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        raise
    return [base / rel_path for rel_path in outputs]


def load_scenario(path: str) -> dict:
    """Read, JSON-parse, and fully schema-check a scenario; returns the
    parsed spec with constructed objects (grid, potential, ...)."""
    with open(path) as fh:
        text = fh.read()
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    name = _obj(body, "scenario").get("command")
    if not isinstance(name, str) or name not in COMMANDS:
        raise SchemaError(f"scenario.command must be one of {list(COMMANDS)}")
    command = COMMANDS[name]
    try:
        spec = _keys(
            body,
            "scenario",
            {"command": _string, "constants": _raw, **command.required,
             "output": _parse_output},
            command.optional,
        )
        spec["_constants"] = _parse_constants(spec["constants"], "scenario.constants")
        problem = command.rule(spec)
        if problem:
            raise SchemaError(f"scenario: {problem}")
        if "potential" in spec:
            spec["potential"] = _parse_potential(
                spec["potential"], "scenario.potential", spec["_constants"], spec.get("grid")
            )
    except QmError as exc:  # a grid or potential rejected its parameters
        raise SchemaError(f"scenario: {exc}") from exc
    return spec


def run_scenario(
    scenario_path: str,
    out_dir: str | None = None,
    format_override: str | None = None,
) -> list[Path]:
    """Validate, compute, and write the declared outputs.

    Returns the list of data files written (sidecars not included).  No
    file is touched unless the whole computation succeeded and every cell
    is finite, and either every output is written or none is.
    """
    spec = load_scenario(scenario_path)
    try:
        # Keep stderr to the JSON error: _check_finite rejects what numpy warns of.
        with np.errstate(all="ignore"):
            outputs = COMMANDS[spec["command"]].execute(spec, spec["_constants"])
    except ArithmeticError as exc:
        raise SolverError(f"{type(exc).__name__}: {exc}") from exc
    for rel_path, table in outputs.items():
        _check_finite(rel_path, table)

    import scipy  # for the sidecar only, so that version and validate never load it
    meta = {
        "tool": "qm1d",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "command": spec["command"],
        "scenario": str(scenario_path),
        "written_unix_time": time.time(),
    }
    base = Path(out_dir or os.environ.get(OUTPUT_DIR_ENV) or ".")
    fmt = format_override or spec["output"]["format"]
    return _write_outputs(base, fmt, outputs, meta)


# ---------------------------------------------------------------------------
# Entry point


class UsageError(Exception):
    """The command line does not parse (exit 2, like a schema violation)."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error raises UsageError, so main reports
    it as one JSON object on stderr instead of exiting with argparse's text.
    -h/--help still prints the help and exits 0.  Subparsers share this class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message} ({self.format_usage().strip()})")


def _fail(exit_code: int, exc: Exception, held=()) -> int:
    error = {"exit_code": exit_code, "type": type(exc).__name__, "message": str(exc),
             "warnings": [{"category": w.category.__name__, "message": str(w.message)}
                          for w in held]}
    print(json.dumps({"error": error}), file=sys.stderr)
    return exit_code


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on first use and kept for the process,
    so each further ``main`` call only parses."""
    parser = _Parser(
        prog="qm1d", description="1D quantum mechanics scenario runner"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file")
    run_p.add_argument("scenario", help="path to a JSON scenario")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="override the scenario output format")

    val_p = sub.add_parser("validate", help="schema-check a scenario file")
    val_p.add_argument("scenario", help="path to a JSON scenario")

    sub.add_parser("version", help="print the version")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        return _fail(2, exc)

    if args.subcommand == "version":
        print(__version__)
        return 0

    # A run's warnings are held until it succeeds: a failing run's stderr is
    # its JSON error alone, which lists them.
    with warnings.catch_warnings(record=True) as held:
        try:
            if args.subcommand == "validate":
                spec = load_scenario(args.scenario)
                lines = [f"{args.scenario}: valid {spec['command']} scenario"]
            else:
                lines = run_scenario(args.scenario, args.out, args.format)
        except SchemaError as exc:
            return _fail(2, exc, held)
        except QmError as exc:
            return _fail(3, exc, held)
        except OSError as exc:
            return _fail(4, exc, held)
    with warnings.catch_warnings():
        warnings.simplefilter("always")  # the filters passed each of them once already
        for w in held:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
