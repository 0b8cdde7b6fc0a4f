"""Output checks: finite cells, byte identity and accuracy against closed forms.

All of this runs outside the timed region.  Data files of every op are
hashed and compared with the run's first op; the first op's files are also
parsed, checked for non-finite cells and compared with the closed forms in
``qm1d.analytic``.  An op whose bytes match the first op's therefore shares
its finite-cell and accuracy verdict.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from qm1d.analytic import (
    GaussianPacketParams,
    barrier_scattering,
    oscillator_energy,
    packet_width,
)

SIDECAR_SUFFIX = ".meta.json"

# Stated tolerances.  Each accuracy figure is the worst case over the op.
TOLERANCES = {
    # CN is unitary to solver roundoff and split-step to FFT roundoff.
    "accuracy.norm_drift": 1e-10,
    # Checked per scenario against the scheme's own dispersion error (see
    # width_tolerance); this entry is only the outer ceiling.
    "accuracy.width_rel_err": 1e-1,
    "accuracy.unitarity_err": 1e-10,
    # The transfer-matrix log-domain path and the closed form agree to a few
    # ulps; 1e-12 is the margin the scattering tests use.
    "accuracy.thick_T_rel_err": 1e-12,
    # Checked per level against 1.5 times the leading 3-point stencil error
    # (see spectrum_tolerance); this entry is only the outer ceiling.
    "accuracy.spectrum_rel_err": 1e-3,
    "accuracy.density_norm_err": 1e-10,
}


def data_files(out_dir: Path) -> list[Path]:
    return sorted(
        p for p in out_dir.rglob("*") if p.is_file() and not p.name.endswith(SIDECAR_SUFFIX)
    )


def digest(out_dir: Path) -> dict[str, str]:
    """sha256 of every data file, keyed by its path under out_dir."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in data_files(out_dir)
    }


def read_table(path: Path) -> tuple[list[str], list[list]]:
    """Columns and rows with numeric cells as floats and labels kept as str."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        return payload["columns"], payload["rows"]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = next(reader)
        rows = [[_cell(v) for v in row] for row in reader]
    return columns, rows


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text  # a label such as "state_0" or an empty cell


def nonfinite_cells(rows: list[list]) -> int:
    return sum(
        1 for row in rows for v in row
        if isinstance(v, float) and not math.isfinite(v)
    )


def _dx(grid: dict) -> float:
    return (grid["x_max"] - grid["x_min"]) / (grid["n"] - 1)


def _column(columns, rows, name):
    j = columns.index(name)
    return [row[j] for row in rows]


def width_tolerance(method: str, alpha: float, k0: float, dx: float, dt: float,
                    times) -> float:
    """1.5 times the width error the propagator's dispersion predicts, plus 1e-9.

    Split-step is exact for a free packet (spectral kinetic term, no
    potential to split), so only roundoff remains.  Crank-Nicolson evolves
    with Omega(k) = (2/dt) atan(dt w(k) / 2), w(k) = (1 - cos(k dx)) / dx^2
    (hbar = m = 1), so the packet spreads with Omega''(k0) in place of 1:
    sigma^2 = alpha + (Omega'' t)^2 / (4 alpha).  At k0 = 6 that is 6% slower
    spreading and up to 5.5% in width at t = 3.
    """
    if method == "split_step":
        return 1e-9
    w = (1.0 - math.cos(k0 * dx)) / dx**2
    w1 = math.sin(k0 * dx) / dx
    u = 0.5 * dt * w
    curvature = math.cos(k0 * dx) / (1.0 + u * u) - dt * u * w1 * w1 / (1.0 + u * u) ** 2
    predicted = max(
        abs(math.sqrt((alpha + (curvature * t) ** 2 / (4 * alpha)) / (alpha + t * t / (4 * alpha))) - 1.0)
        for t in times
    )
    return 1.5 * predicted + 1e-9


def spectrum_tolerance(level: int, omega: float, dx: float) -> float:
    """1.5 times the leading relative error of the 3-point stencil.

    The stencil adds -(dx^2 / 24) d^4/dx^4 to the kinetic term, which shifts
    oscillator level m by -(dx^2 / 32) omega^2 (2 m^2 + 2 m + 1) (hbar = m = 1).
    """
    m = level - 1
    shift = dx * dx / 32.0 * omega * omega * (2 * m * m + 2 * m + 1)
    return 1.5 * shift / oscillator_energy(m, omega)


class Inspection:
    """Accuracy figures and problems found in one op's data files."""

    def __init__(self):
        self.accuracy: dict[str, float] = {}
        self.problems: list[str] = []
        self.rows = 0
        self.bytes = 0

    def record(self, name: str, value: float):
        self.accuracy[name] = max(value, self.accuracy.get(name, 0.0))

    def finish(self):
        for name, value in self.accuracy.items():
            if not value <= TOLERANCES[name]:
                self.problems.append(f"{name} = {value:.3e} exceeds {TOLERANCES[name]:.0e}")


def inspect(scenarios, out_dir: Path) -> Inspection:
    """Parse the data files of one op and compare them with the closed forms."""
    result = Inspection()
    tables = {}
    for path in data_files(out_dir):
        columns, rows = read_table(path)
        result.rows += len(rows)
        result.bytes += path.stat().st_size
        bad = nonfinite_cells(rows)
        if bad:
            result.problems.append(f"{path.name}: {bad} non-finite cells")
        tables[path.stem] = (columns, rows)

    for sc in scenarios:
        if sc.name not in tables:
            result.problems.append(f"{sc.name}: no data file written")
            continue
        columns, rows = tables[sc.name]
        if sc.command == "evolve":
            _check_evolve(sc, columns, rows, result)
            density = tables.get(f"{sc.name}_density")
            if sc.body.get("emit_density"):
                if density is None:
                    result.problems.append(f"{sc.name}: no density file written")
                else:
                    _check_density(sc, *density, result)
        elif sc.command == "scatter":
            _check_scatter(sc, columns, rows, result)
        elif sc.command == "spectrum":
            _check_spectrum(sc, columns, rows, result)
    result.finish()
    return result


def _check_evolve(sc, columns, rows, result):
    init = sc.reference["packet"]
    params = GaussianPacketParams(alpha=init["alpha"], k0=init["k0"])
    times = _column(columns, rows, "t")
    if round(times[-1] / sc.body["dt"]) != sc.steps():
        result.problems.append(f"{sc.name}: last time {times[-1]} is not step {sc.steps()}")
    if len(rows) != sc.snapshots():
        result.problems.append(f"{sc.name}: {len(rows)} rows, expected {sc.snapshots()}")
    result.record(
        "accuracy.norm_drift",
        max(abs(v - 1.0) for v in _column(columns, rows, "norm")),
    )
    # x_spread is the standard deviation; packet_width is 2 sqrt(2) times it.
    width_err = max(
        abs(s / (packet_width(params, t) / (2.0 * math.sqrt(2.0))) - 1.0)
        for t, s in zip(times, _column(columns, rows, "x_spread"))
    )
    tol = width_tolerance(
        sc.body["method"], init["alpha"], init["k0"], _dx(sc.body["grid"]), sc.body["dt"], times
    )
    if width_err > tol:
        result.problems.append(f"{sc.name}: width rel error {width_err:.3e} exceeds {tol:.3e}")
    result.record("accuracy.width_rel_err", width_err)


def _check_density(sc, columns, rows, result):
    dx = _dx(sc.body["grid"])
    totals: dict[float, float] = {}
    for t, v in zip(_column(columns, rows, "t"), _column(columns, rows, "value")):
        totals[t] = totals.get(t, 0.0) + v
    if len(totals) != sc.snapshots():
        result.problems.append(f"{sc.name}: density has {len(totals)} snapshots")
    result.record(
        "accuracy.density_norm_err",
        max(abs(total * dx - 1.0) for total in totals.values()),
    )


def _check_scatter(sc, columns, rows, result):
    if len(rows) != sc.energies():
        result.problems.append(f"{sc.name}: {len(rows)} rows, expected {sc.energies()}")
    prob_r = _column(columns, rows, "prob_R")
    prob_t = _column(columns, rows, "prob_T")
    result.record(
        "accuracy.unitarity_err",
        max(abs(r + t - 1.0) for r, t in zip(prob_r, prob_t)),
    )
    barrier = sc.reference.get("barrier")
    if barrier:
        errors = []
        for energy, t in zip(_column(columns, rows, "energy"), prob_t):
            ref = barrier_scattering(energy, barrier["v0"], barrier["a"]).prob_t
            errors.append(abs(t - ref) / ref)
        result.record("accuracy.thick_T_rel_err", max(errors))


def _check_spectrum(sc, columns, rows, result):
    omega = sc.reference["omega"]
    dx = _dx(sc.body["grid"])
    if len(rows) != sc.body["count"]:
        result.problems.append(f"{sc.name}: {len(rows)} levels, expected {sc.body['count']}")
    worst = 0.0
    for level, energy in zip(_column(columns, rows, "n"), _column(columns, rows, "E_numeric")):
        level = int(level)
        rel = abs(energy / oscillator_energy(level - 1, omega) - 1.0)
        if rel > spectrum_tolerance(level, omega, dx):
            result.problems.append(
                f"{sc.name}: level {level} rel error {rel:.3e} exceeds "
                f"{spectrum_tolerance(level, omega, dx):.3e}"
            )
        worst = max(worst, rel)
    result.record("accuracy.spectrum_rel_err", worst)
