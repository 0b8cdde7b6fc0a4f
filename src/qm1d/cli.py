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
import cmath
import contextlib
import csv
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
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
from .eigensolver import Spectrum, build_hamiltonian, solve_bound_states
from .errors import QmError, SolverError
from .evolution import EvolutionConfig, Trajectory, evolve
from .observables import (
    momentum_operator,
    position_operator,
    uncertainty,
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
from .scattering import transmission_sweep

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
    return [float(v) for v in np.linspace(spec["start"], spec["stop"], spec["count"])]


def _relative_path(value, where: str) -> str:
    path = Path(_string(value, where))
    if path.is_absolute() or ".." in path.parts:
        raise SchemaError(f"{where} must be a relative path inside the output directory")
    return value


# ---------------------------------------------------------------------------
# Scenario blocks


def _parse_constants(obj, where: str) -> tuple[PhysicalConstants, float]:
    """Returns the constants profile and the particle mass."""
    spec = _keys(obj, where, {"profile": _choice({"natural", "si"})}, {"mass": _positive})
    if spec["profile"] == "si":
        if "mass" not in spec:
            raise SchemaError(f"{where}: the si profile requires an explicit mass")
        return si_constants(spec["mass"]), spec["mass"]
    mass = spec.get("mass", 1.0)
    return PhysicalConstants(mass=mass), mass


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
    """A block whose ``kind`` key selects the rest of its schema."""
    body = _obj(obj, where)
    if "kind" not in body:
        raise SchemaError(f"missing key 'kind' in {where}")
    return body, _string(body["kind"], f"{where}.kind")


_POTENTIALS = {
    "infinite_well": (InfiniteWell, {"a": _positive}),
    "barrier": (Barrier, {"v0": _positive, "a": _positive}),
    "harmonic": (Harmonic, {"omega": _positive}),
    "linear_ramp": (LinearRamp, {"lam": _positive}),
    "piecewise_constant": (PiecewiseConstant, {"segments": _parse_segments}),
    "sampled": (Sampled, {"values": _number_list}),
}


def _parse_potential(obj, where: str, mass: float, grid: Grid | None) -> Potential:
    body, kind = _kind(obj, where)
    if kind not in _POTENTIALS:
        raise SchemaError(f"{where}.kind: unknown potential kind {kind!r}")
    cls, keys = _POTENTIALS[kind]
    params = _keys(body, where, {"kind": _string, **keys})
    del params["kind"]
    if cls is Harmonic:
        params["mass"] = mass
    elif cls is Sampled:
        if grid is None:
            raise SchemaError(f"{where}: a sampled potential requires a grid block")
        params["grid"] = grid
    return cls(**params)


def _parse_state(obj, where: str) -> dict:
    body, kind = _kind(obj, where)
    if kind == "gaussian":
        return _keys(
            body, where, {"kind": _string, "alpha": _positive, "k0": _number}, {"x0": _number}
        )
    if kind == "eigenstate":
        return _keys(body, where, {"kind": _string, "n": _positive_int})
    raise SchemaError(f"{where}.kind must be 'gaussian' or 'eigenstate'")


def _parse_output(obj, where: str) -> dict:
    return _keys(obj, where, {"format": _choice({"csv", "json"}), "path": _relative_path})


def _parse_gaussian(obj, where: str) -> dict:
    return _keys(obj, where, {"alpha": _positive, "k0": _number}, {"x0": _number})


# ---------------------------------------------------------------------------
# Tidy plot rows


def _cells(column):
    """Native Python values of an array; a list as it is; any other value is
    one cell repeated on every row."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    return column if isinstance(column, list) else repeat(column)


def _long_rows(series: str, t, x, value) -> list[list]:
    """Rows [series, t, x, value] of one series; ``value`` is an array or a
    list, ``t`` and ``x`` are too or are one shared cell."""
    return [[series, ti, xi, vi] for ti, xi, vi in zip(_cells(t), _cells(x), _cells(value))]


def emit_plot_data(result) -> tuple[list[str], list[list]]:
    """Long-format (series, t, x, value) rows for spectra, trajectories,
    and transmission sweeps."""
    rows: list[list] = []
    if isinstance(result, Spectrum):
        for i, state in enumerate(result.states):
            rows += _long_rows(f"state_{i}", "", state.grid.points, state.values.real)
    elif isinstance(result, Trajectory):
        for name, series in (
            ("width", result.x_spread),
            ("x_mean", result.x_mean),
            ("p_mean", result.p_mean),
            ("norm", result.norm),
            ("energy", result.energy),
        ):
            rows += _long_rows(name, result.times, "", series)
    elif isinstance(result, list):  # transmission sweep
        energies = [float(r.energy) for r in result]
        rows += _long_rows("prob_T", "", energies, [float(r.prob_t) for r in result])
        rows += _long_rows("prob_R", "", energies, [float(r.prob_r) for r in result])
    else:
        raise QmError(f"no plot-data emitter for {type(result).__name__}")
    return ["series", "t", "x", "value"], rows


# ---------------------------------------------------------------------------
# Commands: each executor turns a parsed spec into {output path: table}


def _derived_path(path: str, tag: str) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}_{tag}{p.suffix}"))


def _execute_spectrum(spec, constants, mass):
    potential = spec["potential"]
    h = build_hamiltonian(spec["grid"], potential, mass, constants)
    spectrum = solve_bound_states(h, spec["count"])

    columns = ["n", "E_numeric", "E_analytic", "rel_error"]
    rows = []
    for level, energy in enumerate(spectrum.energies.tolist(), start=1):
        if isinstance(potential, InfiniteWell):
            reference = well_energy(level, potential.a, constants)
        elif isinstance(potential, Harmonic):
            reference = oscillator_energy(level - 1, potential.omega, constants)
        else:
            rows.append([level, energy, "", ""])
            continue
        rows.append([level, energy, reference, abs(energy - reference) / abs(reference)])
    outputs = {spec["output"]["path"]: (columns, rows)}
    if spec.get("emit_states"):
        outputs[_derived_path(spec["output"]["path"], "states")] = emit_plot_data(spectrum)
    return outputs


def _execute_scatter(spec, constants, mass):
    results = transmission_sweep(spec["potential"], spec["energies"], mass, constants)
    columns = ["energy", "prob_R", "prob_T", "phase_R", "phase_T"]
    rows = [
        [r.energy, r.prob_r, r.prob_t, cmath.phase(r.r), cmath.phase(r.t)]
        for r in results
    ]
    return {spec["output"]["path"]: (columns, rows)}


def _initial_packet(grid: Grid, init: dict, mass: float,
                    constants: PhysicalConstants) -> WaveFunction:
    params = GaussianPacketParams(
        alpha=init["alpha"], k0=init["k0"], mass=mass, constants=constants
    )
    x0 = init.get("x0", 0.0)
    values = gaussian_packet_x(params, grid.points - x0)
    return normalize(WaveFunction(grid, values))


def _execute_evolve(spec, constants, mass):
    psi0 = _initial_packet(spec["grid"], spec["initial"], mass, constants)
    config = EvolutionConfig(
        dt=spec["dt"],
        steps=spec["steps"],
        method=spec["method"],
        observables_every=spec.get("observables_every", 1),
    )
    trajectory = evolve(psi0, spec["potential"], config, mass, constants)
    columns = ["t", "norm", "x_mean", "p_mean", "x_spread", "p_spread", "energy"]
    rows = np.column_stack([
        trajectory.times, trajectory.norm, trajectory.x_mean, trajectory.p_mean,
        trajectory.x_spread, trajectory.p_spread, trajectory.energy,
    ]).tolist()
    outputs = {spec["output"]["path"]: (columns, rows)}
    if spec.get("emit_density"):
        density = []
        for t, snap in zip(trajectory.times.tolist(), trajectory.snapshots):
            density += _long_rows("density", t, snap.grid.points, np.abs(snap.values) ** 2)
        outputs[_derived_path(spec["output"]["path"], "density")] = (
            ["series", "t", "x", "value"], density
        )
    return outputs


def _execute_packet(spec, constants, mass):
    params = GaussianPacketParams(
        alpha=spec["packet"]["alpha"], k0=spec["packet"]["k0"],
        mass=mass, constants=constants,
    )
    times = spec["times"]
    rows = _long_rows("width", times, "", [packet_width(params, t) for t in times])
    if spec.get("emit_density"):
        xs = spec["grid"].points
        for t in times:
            rows += _long_rows("density", t, xs, np.abs(free_packet_xt(params, xs, t)) ** 2)
    return {spec["output"]["path"]: (["series", "t", "x", "value"], rows)}


def _execute_blackbody(spec, constants, mass):
    columns = ["nu", "u_planck", "u_rayleigh_jeans", "ratio"]
    rows = []
    for nu in spec["frequencies"]:
        planck = blackbody_density(nu, spec["temperature"], "planck", constants)
        rj = blackbody_density(nu, spec["temperature"], "rayleigh_jeans", constants)
        rows.append([nu, planck, rj, planck / rj])
    return {spec["output"]["path"]: (columns, rows)}


def _execute_uncertainty(spec, constants, mass):
    grid = spec["grid"]
    state = spec["state"]
    if state["kind"] == "gaussian":
        psi = _initial_packet(grid, state, mass, constants)
    else:
        h = build_hamiltonian(grid, spec["potential"], mass, constants)
        spectrum = solve_bound_states(h, state["n"])
        psi = spectrum.states[state["n"] - 1]

    x_op = position_operator(grid)
    p_op = momentum_operator(grid, constants)
    report = uncertainty_bound_check(x_op, p_op, psi)
    columns = ["x_spread", "p_spread", "product", "bound", "satisfied"]
    rows = [[
        uncertainty(x_op, psi),
        uncertainty(p_op, psi),
        report.lhs,
        report.rhs,
        report.satisfied,
    ]]
    return {spec["output"]["path"]: (columns, rows)}


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
    execute: Callable[[dict, PhysicalConstants, float], dict]
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
            "method": _choice({"crank_nicolson", "split_step"}),
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


def _check_finite(name: str, rows: list[list]):
    for i, row in enumerate(rows):
        for value in row:
            if isinstance(value, float) and not math.isfinite(value):
                raise SolverError(f"{name}: row {i + 1} holds the non-finite value {value!r}")


def _write_table(fh, fmt: str, columns: list[str], rows: list[list]):
    if fmt == "json":
        json.dump({"columns": columns, "rows": rows}, fh, indent=2)
        fh.write("\n")
        return
    if rows and any(isinstance(v, bool) for v in rows[0]):
        # csv would write True/False; spell booleans the way JSON does
        rows = [[json.dumps(v) if isinstance(v, bool) else v for v in row] for row in rows]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)


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
        for rel_path, (columns, rows) in outputs.items():
            target = base / rel_path
            target.parent.mkdir(parents=True, exist_ok=True)
            with _staged(target, staged) as fh:
                _write_table(fh, fmt, columns, rows)
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
        spec["_constants"], spec["_mass"] = _parse_constants(
            spec["constants"], "scenario.constants"
        )
        problem = command.rule(spec)
        if problem:
            raise SchemaError(f"scenario: {problem}")
        if "potential" in spec:
            spec["potential"] = _parse_potential(
                spec["potential"], "scenario.potential", spec["_mass"], spec.get("grid")
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
        outputs = COMMANDS[spec["command"]].execute(spec, spec["_constants"], spec["_mass"])
    except ArithmeticError as exc:
        raise SolverError(f"{type(exc).__name__}: {exc}") from exc
    for rel_path, (_, rows) in outputs.items():
        _check_finite(rel_path, rows)

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


def _fail(exit_code: int, exc: Exception) -> int:
    error = {"exit_code": exit_code, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps({"error": error}), file=sys.stderr)
    return exit_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
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

    args = parser.parse_args(argv)

    if args.subcommand == "version":
        print(__version__)
        return 0

    try:
        if args.subcommand == "validate":
            spec = load_scenario(args.scenario)
            lines = [f"{args.scenario}: valid {spec['command']} scenario"]
        else:
            lines = run_scenario(args.scenario, args.out, args.format)
    except SchemaError as exc:
        return _fail(2, exc)
    except QmError as exc:
        return _fail(3, exc)
    except OSError as exc:
        return _fail(4, exc)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
