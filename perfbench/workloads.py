"""Seeded scenario generator for the three benchmark workloads.

Every scenario the program reads is generated here from the workload seed,
so the same seed always gives byte-identical scenario files.  Parameter
ranges are chosen so that no operation fails:

* Gaussian packets: alpha in [0.5, 1.5], k0 in [3, 6], x0 in [-6, -2] on
  [-24, 42] for t <= 3.  The widest packet (alpha = 0.5) has variance
  alpha + t^2 / (4 alpha) = 5 at t = 3 and its centre sits at most 16 from
  the origin, so the edges stay more than 11 standard deviations away.
  Both the split-step edge guard (1e-10) and the Crank-Nicolson wall check
  (1e-12 of the peak) then hold with margins of about 1e3.  k0 * dx <= 0.2
  keeps the packet far below the grid's Nyquist momentum.
* Harmonic spectrum: omega in [0.8, 1.25] on [-12, 12].  The eighth state at
  omega = 0.8 is about 1e-16 at the box edge, far below the 1e-12
  truncation check.
* Barrier stack: ten barriers of height [0.5, 3] with widths and gaps in
  [0.2, 0.6]; energies from 6/2000 to 6 both tunnel and pass over the tops.
* Thick barrier (v0 = 4, a = 120): its opacity beta * a exceeds 300 for
  E < 0.875, so the low end of the sweep takes the log-domain rescale path.
  The lowest energy (>= 0.02) keeps |T|^2 above 1e-300, inside the normal
  double range.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

GRID_EVOLVE = {"x_min": -24.0, "x_max": 42.0, "n": 2048}
GRID_SPECTRUM = {"x_min": -12.0, "x_max": 12.0, "n": 4001}
DT = 0.01
STEPS = 300
QUICK_STEPS = 30
STACK_ENERGIES = 2000
THICK_ENERGIES = 300
QUICK_ENERGY_DIVISOR = 10
THICK_V0 = 4.0
THICK_A = 120.0

NATURAL = {"profile": "natural"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # Layers whose wrapped names this workload must reach; a layer listed
    # here that records no span is reported as "not observed".
    layers: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve_observe",
            "CN and split-step free packets with observables at every step: "
            "spectral, observables and core dominate, serialization is small",
            ("cli", "eigensolver", "evolution", "observables", "spectral", "core"),
        ),
        Workload(
            "scatter_sweep",
            "20-interface barrier stack over 2000 energies plus a thick barrier "
            "on the log-domain path: transfer matrices are almost the whole op",
            ("cli", "scattering"),
        ),
        Workload(
            "table_dump",
            "harmonic states as JSON and CN density as CSV: the CLI's row "
            "building and cell formatting dominate; cross-check for evolution",
            ("cli", "eigensolver", "evolution", "observables", "spectral", "core"),
        ),
    )
}


@dataclass
class Scenario:
    """One generated scenario file and what the checks need to know about it."""

    name: str
    body: dict
    # Closed-form parameters the accuracy checks compare against.
    reference: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.body["command"]

    def snapshots(self) -> int:
        """Observable rows an evolve scenario records, initial state included."""
        if self.command != "evolve":
            return 0
        steps, every = self.body["steps"], self.body.get("observables_every", 1)
        return 1 + steps // every + (1 if steps % every else 0)

    def steps(self) -> int:
        return self.body["steps"] if self.command == "evolve" else 0

    def energies(self) -> int:
        if self.command != "scatter":
            return 0
        energies = self.body["energies"]
        return energies["count"] if isinstance(energies, dict) else len(energies)


def _packet(rng: random.Random) -> dict:
    return {
        "alpha": rng.uniform(0.5, 1.5),
        "k0": rng.uniform(3.0, 6.0),
        "x0": rng.uniform(-6.0, -2.0),
    }


def _evolve(name, rng, method, steps, every, emit_density) -> Scenario:
    initial = _packet(rng)
    body = {
        "command": "evolve",
        "constants": NATURAL,
        "grid": GRID_EVOLVE,
        "potential": {"kind": "piecewise_constant", "segments": []},
        "initial": initial,
        "method": method,
        "dt": DT,
        "steps": steps,
        "observables_every": every,
        "output": {"format": "csv", "path": f"{name}.csv"},
    }
    if emit_density:
        body["emit_density"] = True
    return Scenario(name, body, {"packet": initial})


def _stack(rng: random.Random, count: int) -> Scenario:
    segments, x = [], 0.0
    for _ in range(10):
        width = rng.uniform(0.2, 0.6)
        segments.append([x, x + width, rng.uniform(0.5, 3.0)])
        x += width + rng.uniform(0.2, 0.6)
    body = {
        "command": "scatter",
        "constants": NATURAL,
        "potential": {"kind": "piecewise_constant", "segments": segments},
        "energies": {"start": 6.0 / count, "stop": 6.0, "count": count},
        "output": {"format": "csv", "path": "stack.csv"},
    }
    return Scenario("stack", body)


def _thick(rng: random.Random, count: int) -> Scenario:
    body = {
        "command": "scatter",
        "constants": NATURAL,
        "potential": {"kind": "barrier", "v0": THICK_V0, "a": THICK_A},
        "energies": {
            "start": rng.uniform(0.02, 0.1),
            "stop": rng.uniform(5.5, 6.0),
            "count": count,
        },
        "output": {"format": "csv", "path": "thick.csv"},
    }
    return Scenario("thick", body, {"barrier": {"v0": THICK_V0, "a": THICK_A}})


def _spectrum(rng: random.Random) -> Scenario:
    omega = rng.uniform(0.8, 1.25)
    body = {
        "command": "spectrum",
        "constants": NATURAL,
        "grid": GRID_SPECTRUM,
        "potential": {"kind": "harmonic", "omega": omega},
        "count": 8,
        "emit_states": True,
        "output": {"format": "json", "path": "levels.json"},
    }
    return Scenario("levels", body, {"omega": omega})


def generate(workload: str, seed: int, quick: bool = False) -> list[Scenario]:
    """The scenario list of one op; `quick` shrinks steps and energy counts
    but keeps grids, so the accuracy tolerances still apply."""
    rng = random.Random(f"{workload}:{seed}")
    steps = QUICK_STEPS if quick else STEPS
    divisor = QUICK_ENERGY_DIVISOR if quick else 1
    if workload == "evolve_observe":
        return [
            _evolve("evolve_cn", rng, "crank_nicolson", steps, 1, False),
            _evolve("evolve_split", rng, "split_step", steps, 1, False),
        ]
    if workload == "scatter_sweep":
        return [
            _stack(rng, STACK_ENERGIES // divisor),
            _thick(rng, THICK_ENERGIES // divisor),
        ]
    if workload == "table_dump":
        return [
            _spectrum(rng),
            _evolve("density", rng, "crank_nicolson", steps, 10, True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write(scenarios: list[Scenario], directory: Path, workload: str, seed: int) -> list[Path]:
    """Write the scenario files plus a manifest recording seed and reason."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for sc in scenarios:
        path = directory / f"{sc.name}.json"
        path.write_text(json.dumps(sc.body, indent=2) + "\n")
        paths.append(path)
    manifest = {
        "workload": workload,
        "seed": seed,
        "why": WORKLOADS[workload].why,
        "scenarios": [sc.name for sc in scenarios],
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return paths
