import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qm1d
import qm1d.cli as cli
from qm1d import _shortest
from qm1d import (
    GaussianPacketParams,
    Harmonic,
    __version__,
    make_grid,
    packet_width,
    si_constants,
)
from qm1d.cli import (
    _CHUNK_ROWS,
    _PLOT_COLUMNS,
    _check_finite,
    _write_table,
    main,
    run_scenario,
)
from qm1d.errors import SolverError
from qm1d.evolution import STEPPERS


def write_scenario(tmp_path, body, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def spectrum_scenario(out_name="levels.csv", fmt="csv", **overrides):
    body = {
        "command": "spectrum",
        "constants": {"profile": "natural"},
        "grid": {"x_min": 0.0, "x_max": 1.0, "n": 6001},
        "potential": {"kind": "infinite_well", "a": 1.0},
        "count": 5,
        "output": {"format": fmt, "path": out_name},
    }
    body.update(overrides)
    return body


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_spectrum_scenario_csv(tmp_path):
    scenario = write_scenario(tmp_path, spectrum_scenario())
    written = run_scenario(scenario, out_dir=str(tmp_path))
    assert [p.name for p in written] == ["levels.csv"]
    header, rows = read_rows(written[0])
    assert header == ["n", "E_numeric", "E_analytic", "rel_error"]
    assert len(rows) == 5
    assert float(rows[0][1]) == pytest.approx(math.pi**2 / 2, rel=1e-6)
    for row in rows:
        assert float(row[3]) < 1e-6
    assert (tmp_path / "levels.csv.meta.json").exists()


def test_spectrum_emit_states(tmp_path):
    # three oscillator eigenfunctions as three plottable series
    body = spectrum_scenario(emit_states=True)
    body["grid"] = {"x_min": -12.0, "x_max": 12.0, "n": 1201}
    body["potential"] = {"kind": "harmonic", "omega": 1.0}
    body["count"] = 3
    scenario = write_scenario(tmp_path, body)
    written = run_scenario(scenario, out_dir=str(tmp_path))
    names = sorted(p.name for p in written)
    assert names == ["levels.csv", "levels_states.csv"]
    header, rows = read_rows(tmp_path / "levels_states.csv")
    assert header == ["series", "t", "x", "value"]
    assert {r[0] for r in rows} == {"state_0", "state_1", "state_2"}


def test_repeated_runs_byte_identical(tmp_path):
    scenario = write_scenario(tmp_path, spectrum_scenario())
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_scenario(scenario, out_dir=str(first))
    run_scenario(scenario, out_dir=str(second))
    assert (first / "levels.csv").read_bytes() == (second / "levels.csv").read_bytes()


def test_json_output_deterministic(tmp_path):
    scenario = write_scenario(tmp_path, spectrum_scenario(out_name="levels.json", fmt="json"))
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_scenario(scenario, out_dir=str(first))
    run_scenario(scenario, out_dir=str(second))
    blob = (first / "levels.json").read_bytes()
    assert blob == (second / "levels.json").read_bytes()
    payload = json.loads(blob)
    assert payload["columns"][0] == "n"
    assert len(payload["rows"]) == 5


def test_scatter_scenario_flux(tmp_path):
    body = {
        "command": "scatter",
        "constants": {"profile": "natural"},
        "potential": {"kind": "barrier", "v0": 2.0, "a": 1.0},
        "energies": {"start": 0.1, "stop": 1.9, "count": 10},
        "output": {"format": "csv", "path": "sweep.csv"},
    }
    scenario = write_scenario(tmp_path, body)
    written = run_scenario(scenario, out_dir=str(tmp_path))
    header, rows = read_rows(written[0])
    assert header == ["energy", "prob_R", "prob_T", "phase_R", "phase_T"]
    for row in rows:
        assert float(row[1]) + float(row[2]) == pytest.approx(1.0, abs=1e-12)


def test_scatter_range_of_one_energy_is_its_start(tmp_path):
    body = _schema_case("scatter", energies={"start": 0.5, "stop": 3.0, "count": 1})
    written = run_scenario(write_scenario(tmp_path, body), out_dir=str(tmp_path))
    _, rows = read_rows(written[0])
    assert [row[0] for row in rows] == ["0.5"]


def test_scatter_of_harmonic_exits_3_with_one_json_error(tmp_path, capsys):
    body = _schema_case("scatter", potential={"kind": "harmonic", "omega": 1.0})
    out = tmp_path / "out"
    assert main(["run", write_scenario(tmp_path, body), "--out", str(out)]) == 3
    assert not out.exists()
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert (error["exit_code"], error["type"]) == (3, "ParameterError")
    assert "Harmonic is not a piecewise-constant potential" in error["message"]


def test_evolve_scenario(tmp_path):
    body = {
        "command": "evolve",
        "constants": {"profile": "natural"},
        "grid": {"x_min": -20.0, "x_max": 28.0, "n": 1024},
        "potential": {"kind": "piecewise_constant", "segments": []},
        "initial": {"alpha": 1.0, "k0": 2.0, "x0": 0.0},
        "method": "split_step",
        "dt": 0.01,
        "steps": 100,
        "observables_every": 25,
        "output": {"format": "csv", "path": "run.csv"},
    }
    scenario = write_scenario(tmp_path, body)
    written = run_scenario(scenario, out_dir=str(tmp_path))
    header, rows = read_rows(written[0])
    assert header == ["t", "norm", "x_mean", "p_mean", "x_spread", "p_spread", "energy"]
    assert len(rows) == 5
    for row in rows:
        assert float(row[1]) == pytest.approx(1.0, abs=1e-10)
    final = rows[-1]
    assert float(final[2]) == pytest.approx(2.0 * float(final[0]), abs=1e-6)


def _warm_run_peak(tmp_path, body) -> int:
    """Peak traced bytes of the second CLI run of a scenario: imports and the
    LAPACK load of the first run are not traced."""
    argv = ["run", write_scenario(tmp_path, body), "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


# (emit_density, observables_every, bound in bytes): the series alone, and
# the density of every tenth state (31 float64 rows of 2048, 0.5 MB).  A complex
# snapshot of every recorded state would peak at 10.5 MB and 2.1 MB.  The
# Crank-Nicolson runs peak at about 1.0 MB and 1.4 MB while stepping, and
# their writes at about 0.27 MB (each series column is one call of the float
# kernel) and 0.92 MB.
@pytest.mark.parametrize("density, every, bound", [(False, 1, 2_000_000), (True, 10, 1_500_000)])
@pytest.mark.parametrize("method", sorted(STEPPERS))
def test_evolve_holds_one_state_at_a_time(tmp_path, method, density, every, bound):
    body = {
        "command": "evolve", "constants": {"profile": "natural"},
        "grid": {"x_min": -24.0, "x_max": 42.0, "n": 2048},
        "potential": {"kind": "piecewise_constant", "segments": []},
        "initial": {"alpha": 0.5, "k0": 6.0}, "method": method, "dt": 0.01, "steps": 300,
        "observables_every": every, "emit_density": density,
        "output": {"format": "csv", "path": "run.csv"},
    }
    assert _warm_run_peak(tmp_path, body) < bound


@pytest.mark.parametrize("method", sorted(STEPPERS))
def test_evolve_data_does_not_depend_on_the_blas_thread_count(tmp_path, method):
    # Every weighted sum of the series is a BLAS dot per block of 8192 points.
    # OpenBLAS splits a dot across threads above about 10^4 points, so one
    # thread and two write the same bytes at n = 2048, and at n = 16385 only
    # because no block is that long.
    small = {
        "grid": {"x_min": -24.0, "x_max": 42.0, "n": 2048},
        "potential": {"kind": "piecewise_constant", "segments": []},
        "initial": {"alpha": 0.5, "k0": 6.0}, "steps": 300,
    }
    large = {
        "grid": {"x_min": -40.0, "x_max": 60.0, "n": 16385},
        "potential": {"kind": "harmonic", "omega": 0.05},
        "initial": {"alpha": 0.5, "k0": 3.0}, "steps": 40,
    }
    for name, grid_body in (("small", small), ("large", large)):
        body = {
            "command": "evolve", "constants": {"profile": "natural"}, "method": method,
            "dt": 0.01, "output": {"format": "csv", "path": "run.csv"}, **grid_body,
        }
        scenario = write_scenario(tmp_path, body, f"{name}.json")
        written = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(Path(qm1d.__file__).parents[1]),
                   "OPENBLAS_NUM_THREADS": threads}
            out = tmp_path / f"{name}_threads_{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "qm1d.cli", "run", scenario, "--out", str(out)],
                capture_output=True, text=True, env=env, check=True,
            )
            written.append([Path(line).read_bytes() for line in result.stdout.splitlines()])
        assert len(written[0]) == 1 and written[0] == written[1], name


def test_spectrum_states_table_formats_a_chunk_at_a_time(tmp_path):
    # Eight states of 4001 points as JSON peak at about 1.14 MB in the
    # eigensolve, and their write at about 1.15 MB: a block's x and value
    # matrices (96 KB each), the kernel's temporaries and a 1,024-row template.
    # Kernel blocks of 2,048 to 4,095 cells, in place of 1,024 to 2,047, and
    # the write peaks at about 1.86 MB.
    body = {
        "command": "spectrum", "constants": {"profile": "natural"},
        "grid": {"x_min": -12.0, "x_max": 12.0, "n": 4001},
        "potential": {"kind": "harmonic", "omega": 1.0}, "count": 8, "emit_states": True,
        "output": {"format": "json", "path": "levels.json"},
    }
    assert _warm_run_peak(tmp_path, body) < 1_300_000


def test_spectrum_states_write_holds_a_bounded_increment(tmp_path, monkeypatch):
    # The run's peak above is the eigensolve's or the write's, whichever is
    # higher; this bounds the write's own, its peak above the memory traced
    # when it starts: about 0.60 MB.
    write, increments = cli._write_outputs, []

    def traced_write(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return write(*args)
        finally:
            increments.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(cli, "_write_outputs", traced_write)
    _warm_run_peak(tmp_path, {
        "command": "spectrum", "constants": {"profile": "natural"},
        "grid": {"x_min": -12.0, "x_max": 12.0, "n": 4001},
        "potential": {"kind": "harmonic", "omega": 1.0}, "count": 8, "emit_states": True,
        "output": {"format": "json", "path": "levels.json"},
    })
    assert 0 < increments[-1] < 800_000


def test_packet_scenario_width_series(tmp_path):
    body = {
        "command": "packet",
        "constants": {"profile": "natural"},
        "packet": {"alpha": 1.0, "k0": 0.0},
        "times": [0.0, 1.0, 2.0],
        "output": {"format": "csv", "path": "packet.csv"},
    }
    scenario = write_scenario(tmp_path, body)
    written = run_scenario(scenario, out_dir=str(tmp_path))
    header, rows = read_rows(written[0])
    params = GaussianPacketParams(alpha=1.0, k0=0.0)
    assert [r[0] for r in rows] == ["width"] * 3
    for row, t in zip(rows, (0.0, 1.0, 2.0)):
        assert float(row[3]) == pytest.approx(packet_width(params, t))


def test_blackbody_scenario(tmp_path):
    body = {
        "command": "blackbody",
        "constants": {"profile": "natural"},
        "temperature": 1.0,
        "frequencies": [1e-6 / (2 * math.pi), 0.5, 1.0],
        "output": {"format": "csv", "path": "bb.csv"},
    }
    scenario = write_scenario(tmp_path, body)
    written = run_scenario(scenario, out_dir=str(tmp_path))
    header, rows = read_rows(written[0])
    assert header == ["nu", "u_planck", "u_rayleigh_jeans", "ratio"]
    assert float(rows[0][3]) == pytest.approx(1.0, abs=1e-5)


def test_uncertainty_scenario(tmp_path):
    body = {
        "command": "uncertainty",
        "constants": {"profile": "natural"},
        "grid": {"x_min": -16.0, "x_max": 16.0, "n": 512},
        "state": {"kind": "gaussian", "alpha": 1.0, "k0": 0.0},
        "output": {"format": "csv", "path": "bound.csv"},
    }
    scenario = write_scenario(tmp_path, body)
    written = run_scenario(scenario, out_dir=str(tmp_path))
    header, rows = read_rows(written[0])
    assert header == ["x_spread", "p_spread", "product", "bound", "satisfied"]
    assert float(rows[0][2]) == pytest.approx(0.5, abs=1e-6)
    assert rows[0][4] == "true"


def test_uncertainty_scenario_transforms_each_spread_once(tmp_path, monkeypatch):
    # one forward FFT serves the momentum spread and p applied in the
    # commutator, and one inverse FFT brings p psi back to position space
    calls = []

    def counted(name):
        transform = getattr(np.fft, name)

        def call(*args, **kwargs):
            calls.append(name)
            return transform(*args, **kwargs)
        return call

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name))
    body = {
        "command": "uncertainty",
        "constants": {"profile": "natural"},
        "output": {"format": "csv", "path": "bound.csv"},
        **FORMAT_SCENARIOS["uncertainty"],
    }
    assert main(["run", write_scenario(tmp_path, body), "--out", str(tmp_path)]) == 0
    assert calls == ["fft", "ifft"]


def test_uncertainty_eigenstate_scenario(tmp_path):
    body = {
        "command": "uncertainty",
        "constants": {"profile": "natural"},
        "grid": {"x_min": 0.0, "x_max": 1.0, "n": 801},
        "potential": {"kind": "infinite_well", "a": 1.0},
        "state": {"kind": "eigenstate", "n": 1},
        "output": {"format": "csv", "path": "bound.csv"},
    }
    scenario = write_scenario(tmp_path, body)
    written = run_scenario(scenario, out_dir=str(tmp_path))
    _, rows = read_rows(written[0])
    assert float(rows[0][2]) > 0.5
    assert rows[0][4] == "true"


def test_missing_grid_exits_2_without_output(tmp_path, capsys):
    body = spectrum_scenario()
    del body["grid"]
    scenario = write_scenario(tmp_path, body)
    out = tmp_path / "out"
    code = main(["run", scenario, "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 2
    assert "grid" in err["error"]["message"]


def test_unknown_key_rejected(tmp_path):
    body = spectrum_scenario()
    body["extra"] = 1
    scenario = write_scenario(tmp_path, body)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 2


def test_unknown_nested_key_rejected(tmp_path):
    body = spectrum_scenario()
    body["potential"]["color"] = "red"
    scenario = write_scenario(tmp_path, body)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 2


def test_integer_beyond_float_range_rejected(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(spectrum_scenario()).replace('"a": 1.0', '"a": 1' + "0" * 400))
    assert main(["validate", str(scenario)]) == 2
    assert "finite" in json.loads(capsys.readouterr().err)["error"]["message"]


def test_si_profile_requires_mass(tmp_path):
    body = spectrum_scenario()
    body["constants"] = {"profile": "si"}
    scenario = write_scenario(tmp_path, body)
    assert main(["run", scenario, "--out", str(tmp_path)]) == 2


def test_numerical_failure_exits_3(tmp_path, capsys):
    body = spectrum_scenario()
    body["grid"] = {"x_min": -3.0, "x_max": 3.0, "n": 601}
    body["potential"] = {"kind": "harmonic", "omega": 1.0}
    body["count"] = 6  # the box clips the upper states
    scenario = write_scenario(tmp_path, body)
    code = main(["run", scenario, "--out", str(tmp_path / "out")])
    assert code == 3
    assert not (tmp_path / "out").exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 3


def test_io_failure_exits_4(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    scenario = write_scenario(tmp_path, spectrum_scenario(out_name="sub/levels.csv"))
    assert main(["run", scenario, "--out", str(blocker)]) == 4


def test_validate_subcommand(tmp_path, capsys):
    good = write_scenario(tmp_path, spectrum_scenario())
    assert main(["validate", good]) == 0
    assert "valid spectrum scenario" in capsys.readouterr().out
    bad = write_scenario(tmp_path, {"command": "spectrum"}, name="bad.json")
    assert main(["validate", bad]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["validate", missing]) == 4


def test_validate_does_not_write(tmp_path):
    scenario = write_scenario(tmp_path, spectrum_scenario())
    main(["validate", scenario])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_version_subcommand(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_output_dir_env_var(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("QM1D_OUTPUT_DIR", str(target))
    scenario = write_scenario(tmp_path, spectrum_scenario())
    assert main(["run", scenario]) == 0
    assert (target / "levels.csv").exists()


def test_format_override(tmp_path):
    scenario = write_scenario(tmp_path, spectrum_scenario())
    main(["run", scenario, "--out", str(tmp_path), "--format", "json"])
    payload = json.loads((tmp_path / "levels.csv").read_text())
    assert payload["columns"] == ["n", "E_numeric", "E_analytic", "rel_error"]


def test_installed_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "qm1d.cli", "version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == __version__


# Runs each [label, argv or None] of the JSON list in argv[1] in one fresh
# interpreter: None is the import named by the label, argv goes to main.
# Prints, per step, its label, exit code, whether scipy.linalg was loaded,
# whether any scipy module was and whether scipy's LAPACK extension was.
_COLD_CHILD = """
import contextlib, io, json, sys
log = []
for label, argv in json.loads(sys.argv[1]):
    code = 0
    if argv is None:
        exec(label, {})
    else:
        from qm1d.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    scipy = any(name.split(".")[0] == "scipy" for name in sys.modules)
    log.append([label, code, "scipy.linalg" in sys.modules, scipy,
                "scipy.linalg._flapack" in sys.modules])
print(json.dumps(log))
"""


def _cold_steps(tmp_path, steps):
    env = {**os.environ, "PYTHONPATH": str(Path(qm1d.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", _COLD_CHILD, json.dumps(steps)],
        capture_output=True, text=True, env=env, check=True, cwd=tmp_path,
    )
    return json.loads(result.stdout)


def test_cold_start_imports_scipy_linalg_only_where_called(tmp_path):
    natural = {"profile": "natural"}
    packet_grid = {"x_min": -20.0, "x_max": 20.0, "n": 256}
    bodies = {
        "scatter": {
            "command": "scatter", "constants": natural,
            "potential": {"kind": "barrier", "v0": 2.0, "a": 1.0}, "energies": [0.5, 1.5],
        },
        "packet": {
            "command": "packet", "constants": natural,
            "packet": {"alpha": 1.0, "k0": 0.0}, "times": [0.0, 1.0],
        },
        "blackbody": {
            "command": "blackbody", "constants": natural, "temperature": 1.0,
            "frequencies": [0.5, 1.0],
        },
        "uncertainty": {
            "command": "uncertainty", "constants": natural, "grid": packet_grid,
            "state": {"kind": "gaussian", "alpha": 1.0, "k0": 0.0},
        },
        "spectrum": spectrum_scenario(grid={"x_min": 0.0, "x_max": 1.0, "n": 101}),
    }
    for method in STEPPERS:
        bodies[method] = {
            "command": "evolve", "constants": natural, "grid": packet_grid,
            "potential": {"kind": "harmonic", "omega": 0.5},
            "initial": {"alpha": 1.0, "k0": 1.0, "x0": 0.0},
            "method": method, "dt": 0.01, "steps": 3,
        }
    paths = {}
    for name, body in bodies.items():
        body.setdefault("output", {"format": "csv", "path": f"{name}.csv"})
        paths[name] = write_scenario(tmp_path, body, name=f"{name}.json")
    out = str(tmp_path / "out")
    run = {name: ["run", path, "--out", out] for name, path in paths.items()}
    # Imports, version and validate load no scipy module at all; every run
    # loads scipy for the sidecar's version string.
    scipy_free = [
        ["import qm1d", None],
        ["from qm1d import *", None],
        ["version", ["version"]],
        ["validate", ["validate", paths["scatter"]]],
    ]
    light = [[name, run[name]] for name in
             ("scatter", "packet", "blackbody", "uncertainty", "split_step")]
    # No command loads the scipy.linalg package.  Each process runs the
    # commands that need no LAPACK, then one that loads scipy's LAPACK
    # extension alone, so the check cannot pass vacuously.
    log = _cold_steps(tmp_path, scipy_free + light + [["spectrum", run["spectrum"]]])
    log += _cold_steps(tmp_path, [["crank_nicolson", run["crank_nicolson"]]])
    expected = [[label, 0, False, False, False] for label, _ in scipy_free]
    expected += [[label, 0, False, True, False] for label, _ in light]
    expected += [["spectrum", 0, False, True, True], ["crank_nicolson", 0, False, True, True]]
    assert log == expected


@pytest.mark.parametrize(
    "body",
    [
        {
            "command": "scatter",
            "constants": {"profile": "natural"},
            "potential": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, -1e308]]},
            "energies": [1.0],
            "output": {"format": "csv", "path": "sweep.csv"},
        },
        {
            "command": "blackbody",
            "constants": {"profile": "natural"},
            "temperature": 1.0,
            "frequencies": [1e-320],  # nu**2 underflows to zero
            "output": {"format": "csv", "path": "bb.csv"},
        },
    ],
    ids=["nan_cells", "arithmetic_error"],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_result_exits_3_without_output(tmp_path, capsys, body):
    scenario = write_scenario(tmp_path, body)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out)]) == 3
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["exit_code"] == 3
    assert err["error"]["type"] == "SolverError"


def test_overflow_stderr_is_one_json_error(tmp_path):
    # -1e308 overflows the wavenumbers; numpy's RuntimeWarnings must not
    # reach stderr ahead of the error object.
    body = {
        "command": "scatter",
        "constants": {"profile": "natural"},
        "potential": {"kind": "piecewise_constant", "segments": [[0.0, 1.0, -1e308]]},
        "energies": [1.0],
        "output": {"format": "csv", "path": "sweep.csv"},
    }
    scenario = write_scenario(tmp_path, body)
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "qm1d.cli", "run", scenario,
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 3
    assert json.loads(result.stderr)["error"]["exit_code"] == 3


# Failing runs and the warnings they held.  At dt = 1e308 the split step
# refuses its nan kinetic phases and Crank-Nicolson its non-finite LU
# factors, each at construction, before any state is stepped or warns; a
# grid out to 1e300 has the packet at its edge (the transform warns) and
# overflows.
SPLIT_STEP_1E308 = {
    "command": "evolve", "grid": {"x_min": -12.0, "x_max": 12.0, "n": 128},
    "potential": {"kind": "piecewise_constant", "segments": []},
    "initial": {"alpha": 1.0, "k0": 0.5}, "method": "split_step", "dt": 1e308, "steps": 4,
}
FAILING_RUNS = [
    (SPLIT_STEP_1E308, "split step at dt = 1e+308", []),
    ({**SPLIT_STEP_1E308, "method": "crank_nicolson"}, "Crank-Nicolson at dt = 1e+308", []),
    ({"command": "uncertainty", "grid": {"x_min": -16.0, "x_max": 1e300, "n": 256},
      "state": {"kind": "gaussian", "alpha": 1.0, "k0": 0.0}}, "OverflowError",
     ["EdgeAmplitudeWarning"]),
]


@pytest.mark.parametrize("body, message, held", FAILING_RUNS,
                         ids=["split_step", "crank_nicolson", "uncertainty"])
def test_failing_run_is_one_json_error_listing_its_warnings(tmp_path, body, message, held):
    body = {"constants": {"profile": "natural"},
            "output": {"format": "csv", "path": "out.csv"}, **body}
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "qm1d.cli", "run", write_scenario(tmp_path, body),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert result.returncode == 3
    [line] = result.stderr.splitlines()
    error = json.loads(line)["error"]
    assert error["exit_code"] == 3 and message in error["message"]
    assert [w["category"] for w in error["warnings"]] == held
    assert not (tmp_path / "out").exists()


def test_uncertainty_stderr_is_one_edge_warning(tmp_path):
    # The README's scenario: both momentum transforms warn alike and name the
    # same caller line, so the default filter prints the warning once.
    body = _schema_case("uncertainty", grid={"x_min": -3.0, "x_max": 3.0, "n": 256})
    scenario = write_scenario(tmp_path, body)
    result = subprocess.run(
        [sys.executable, "-W", "default", "-m", "qm1d.cli", "run", scenario,
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    warned = [line for line in result.stderr.splitlines() if "EdgeAmplitudeWarning" in line]
    assert len(warned) == 1


def test_successful_run_reissues_its_warnings_at_the_callers_line(tmp_path):
    body = _schema_case("uncertainty", grid={"x_min": -3.0, "x_max": 3.0, "n": 256})
    argv = ["run", write_scenario(tmp_path, body), "--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("default")
        line = sys._getframe().f_lineno + 1
        assert main(argv) == 0
    assert [(w.category.__name__, w.filename, w.lineno) for w in caught] == [
        ("EdgeAmplitudeWarning", __file__, line)]


def test_failed_write_leaves_no_partial_outputs(tmp_path, capsys):
    body = spectrum_scenario(emit_states=True)
    body["grid"]["n"] = 201
    scenario = write_scenario(tmp_path, body)
    out = tmp_path / "out"
    (out / "levels_states.csv").mkdir(parents=True)
    assert main(["run", scenario, "--out", str(out)]) == 4
    assert json.loads(capsys.readouterr().err)["error"]["exit_code"] == 4
    assert sorted(p.name for p in out.iterdir()) == ["levels_states.csv"]
    assert list((out / "levels_states.csv").iterdir()) == []


@pytest.mark.parametrize(
    "path", ["{tmp}/escape.csv", "../escape.csv", "sub/../../escape.csv", "", "."]
)
def test_output_path_must_stay_inside_out(tmp_path, capsys, path):
    body = spectrum_scenario(out_name=path.format(tmp=tmp_path))
    scenario = write_scenario(tmp_path, body)
    out = tmp_path / "out"
    assert main(["run", scenario, "--out", str(out)]) == 2
    assert "output.path" in json.loads(capsys.readouterr().err)["error"]["message"]
    assert not out.exists()
    assert not (tmp_path / "escape.csv").exists()


FORMAT_SCENARIOS = {
    "spectrum": {
        "grid": {"x_min": -8.0, "x_max": 8.0, "n": 161},
        "potential": {"kind": "harmonic", "omega": 1.0},
        "count": 2,
        "emit_states": True,
    },
    "scatter": {
        "potential": {"kind": "barrier", "v0": 2.0, "a": 1.0},
        "energies": {"start": 0.5, "stop": 3.0, "count": 4},
    },
    "evolve": {
        "grid": {"x_min": -12.0, "x_max": 12.0, "n": 128},
        "potential": {"kind": "piecewise_constant", "segments": []},
        "initial": {"alpha": 1.0, "k0": 0.5},
        "method": "crank_nicolson",
        "dt": 0.05,
        "steps": 4,
        "observables_every": 2,
        "emit_density": True,
    },
    "packet": {
        "packet": {"alpha": 1.0, "k0": 1.0},
        "times": [0.0, 1.0],
        "grid": {"x_min": -4.0, "x_max": 4.0, "n": 9},
        "emit_density": True,
    },
    "blackbody": {"temperature": 1.0, "frequencies": [0.5, 1.0]},
    "uncertainty": {
        "grid": {"x_min": -16.0, "x_max": 16.0, "n": 256},
        "state": {"kind": "gaussian", "alpha": 1.0, "k0": 0.0},
    },
}


@pytest.mark.parametrize("command", sorted(FORMAT_SCENARIOS))
def test_csv_and_json_cells_agree(tmp_path, command):
    body = {
        "command": command,
        "constants": {"profile": "natural"},
        "output": {"format": "csv", "path": "table.dat"},
        **FORMAT_SCENARIOS[command],
    }
    scenario = write_scenario(tmp_path, body)
    csv_files = run_scenario(scenario, out_dir=str(tmp_path / "csv"))
    json_files = run_scenario(scenario, out_dir=str(tmp_path / "json"), format_override="json")
    assert [p.name for p in csv_files] == [p.name for p in json_files]
    for csv_path, json_path in zip(csv_files, json_files):
        header, rows = read_rows(csv_path)
        payload = json.loads(json_path.read_text())
        assert payload["columns"] == header
        assert len(payload["rows"]) == len(rows) > 0
        for csv_row, json_row in zip(rows, payload["rows"]):
            # JSON true/false and "" cells appear verbatim in the CSV; numbers
            # as their shortest round-trip text
            expected = [
                json.dumps(v) if isinstance(v, bool) else v if isinstance(v, str) else repr(v)
                for v in json_row
            ]
            assert csv_row == expected
    cells = [v for p in json_files for row in json.loads(p.read_text())["rows"] for v in row]
    if command == "uncertainty":
        assert any(v is True for v in cells)
    if command in ("spectrum", "packet"):
        assert "" in cells


def _schema_case(base, /, **changes):
    """The FORMAT_SCENARIOS body of command `base` with keys replaced (None deletes)."""
    body = {
        "command": base,
        "constants": {"profile": "natural"},
        "output": {"format": "csv", "path": "table.csv"},
        **json.loads(json.dumps(FORMAT_SCENARIOS[base])),
    }
    for key, value in changes.items():
        if value is None:
            del body[key]
        else:
            body[key] = value
    return body


# (scenario body or raw file text, a fragment of the error message): one case
# per SchemaError branch, and per library check that load_scenario turns into
# a SchemaError.
SCHEMA_ERRORS = {
    "block_not_object": (_schema_case("spectrum", grid=[0, 1, 9]), "grid must be an object"),
    "not_number": (_schema_case("evolve", dt="0.05"), "dt must be a number"),
    "not_positive": (_schema_case("evolve", dt=-0.05), "dt must be positive"),
    "not_integer": (_schema_case("evolve", steps=4.0), "steps must be an integer"),
    "integer_below_1": (_schema_case("spectrum", count=0), "count must be at least 1"),
    "not_bool": (_schema_case("spectrum", emit_states=1), "must be true or false"),
    "not_string": (
        _schema_case("spectrum", potential={"kind": 3, "omega": 1.0}),
        "potential.kind must be a string",
    ),
    "not_a_choice": (_schema_case("evolve", method="euler"), "method must be one of"),
    "empty_number_list": (_schema_case("packet", times=[]), "non-empty array of numbers"),
    "segments_not_array": (
        _schema_case("scatter", potential={"kind": "piecewise_constant", "segments": {}}),
        "segments must be an array of [start, end, value]",
    ),
    "malformed_segment": (
        _schema_case("scatter", potential={"kind": "piecewise_constant",
                                           "segments": [[0.0, 1.0]]}),
        "segments[0] must be [start, end, value]",
    ),
    "missing_kind": (
        _schema_case("spectrum", potential={"omega": 1.0}), "missing key 'kind'"
    ),
    "unknown_kind": (
        _schema_case("spectrum", potential={"kind": "square", "a": 1.0}),
        "unknown potential kind",
    ),
    "bad_state_kind": (
        _schema_case("uncertainty", state={"kind": "plane_wave"}),
        "must be 'gaussian' or 'eigenstate'",
    ),
    "sampled_without_grid": (
        _schema_case("scatter", potential={"kind": "sampled", "values": [0.0] * 9}),
        "sampled potential requires a grid",
    ),
    "invalid_json": ('{"command": "spectrum",', "not valid JSON"),
    "unknown_command": (_schema_case("spectrum", command="teleport"), "command must be one of"),
    "density_without_grid": (
        _schema_case("packet", grid=None), "emit_density requires a grid"
    ),
    "eigenstate_without_potential": (
        _schema_case("uncertainty", state={"kind": "eigenstate", "n": 1}),
        "eigenstate state requires a potential",
    ),
    # Blocks the schema accepts and the library's constructors reject.
    "grid_too_small": (
        _schema_case("spectrum", grid={"x_min": -8.0, "x_max": 8.0, "n": 4}),
        "scenario: grid needs at least 8 points",
    ),
    "grid_empty_domain": (
        _schema_case("spectrum", grid={"x_min": 1.0, "x_max": 1.0, "n": 161}),
        "scenario: empty domain",
    ),
    "sampled_length": (
        _schema_case("spectrum", grid={"x_min": -4.0, "x_max": 4.0, "n": 9},
                     potential={"kind": "sampled", "values": [0.0] * 8}),
        "scenario: sampled potential has (8,) values",
    ),
    "segments_overlap": (
        _schema_case("scatter", potential={"kind": "piecewise_constant",
                                           "segments": [[0.0, 1.0, 1.0], [0.5, 2.0, 2.0]]}),
        "scenario: segments overlap or are out of order",
    ),
    "segment_empty": (
        _schema_case("scatter", potential={"kind": "piecewise_constant",
                                           "segments": [[1.0, 1.0, 1.0]]}),
        "scenario: segment [1.0, 1.0) is empty",
    ),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_ERRORS))
def test_schema_error_exits_2_with_one_json_error(tmp_path, capsys, case):
    body, fragment = SCHEMA_ERRORS[case]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(body if isinstance(body, str) else json.dumps(body))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["exit_code"] == 2
    assert error["type"] == "SchemaError"
    assert fragment in error["message"]
    assert not out.exists()


# JSON values swapped in for any key or list entry of a valid scenario.
FUZZ_VALUES = [None, True, False, "text", 10**400, 1e308, -1e308, 0, -1, [], {}]
# Size keys (grid and eigenstate n, evolve steps, spectrum and energies count)
# take only invalid or small values, so that no example allocates much.
SIZE_LIMITS = {"n": 256, "steps": 20, "count": 50}
INVALID_SIZES = [v for v in FUZZ_VALUES if type(v) is not int or v < 1]
ESCAPING_PATHS = ["{tmp}/escape.csv", "../escape.csv", "sub/../../escape.csv", "", "."]


def _paths(node, prefix=()):
    """The path of every key and list entry below node, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(body, path):
    for key in path:
        body = body[key]
    return body


@st.composite
def mutated_scenarios(draw):
    """One valid FORMAT_SCENARIOS body with one mutation: a key or entry
    dropped, an unknown key added, a JSON value swapped in, or an output path
    outside the output directory or naming no file in it."""
    body = _schema_case(draw(st.sampled_from(sorted(FORMAT_SCENARIOS))))
    paths = list(_paths(body))
    mutation = draw(st.sampled_from(["drop", "unknown_key", "value", "output_path"]))
    if mutation == "output_path":
        body["output"]["path"] = draw(st.sampled_from(ESCAPING_PATHS))
    elif mutation == "unknown_key":
        objects = [()] + [path for path in paths if isinstance(_at(body, path), dict)]
        _at(body, draw(st.sampled_from(objects)))["unexpected"] = 1
    else:
        *owner, key = draw(st.sampled_from(paths))
        if mutation == "drop":
            del _at(body, owner)[key]
        elif key in SIZE_LIMITS:
            small = st.integers(min_value=1, max_value=SIZE_LIMITS[key])
            _at(body, owner)[key] = draw(st.one_of(st.sampled_from(INVALID_SIZES), small))
        else:
            _at(body, owner)[key] = draw(st.sampled_from(FUZZ_VALUES))
    return body


def _cells(path):
    """Every data cell of a written CSV or JSON table."""
    if path.suffix == ".json":
        return [cell for row in json.loads(path.read_text())["rows"] for cell in row]
    with path.open(newline="") as fh:
        return [cell for row in list(csv.reader(fh))[1:] for cell in row]


def _finite(cell) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:  # a series name or an empty cell
        return True


@settings(derandomize=True, max_examples=60, deadline=None)
@given(body=mutated_scenarios())
def test_cli_contract_holds_for_mutated_scenarios(body):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        scenario = root / "scenario.json"
        scenario.write_text(json.dumps(body).replace("{tmp}", tmp))
        out = root / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", str(scenario), "--out", str(out)])
        assert code in (0, 2, 3, 4)
        if code:
            error = json.loads(stderr.getvalue().splitlines()[-1])["error"]
            assert isinstance(error, dict) and error["exit_code"] == code
        else:
            for line in stdout.getvalue().splitlines():
                assert all(_finite(cell) for cell in _cells(Path(line)))
        assert not list(root.rglob(".*.tmp"))
        assert not (root / "escape.csv").exists()


# Numbers swapped into numeric fields: the overflow and underflow edges of a
# double, signed zeros and moderate values.
EXTREME_NUMBERS = [1e308, -1e308, 1e300, 1e154, 1e-154, 1e-300, 1e-308, 5e-324, 0.0, -0.0,
                   1e-12, 1e12, 0.5, -0.5, 2, 3.0, 1e6, -1e6, 1e-6]


@st.composite
def extreme_scenarios(draw):
    """A valid FORMAT_SCENARIOS body with 1-3 of its numeric fields replaced
    from EXTREME_NUMBERS; a size key takes only those within SIZE_LIMITS."""
    body = _schema_case(draw(st.sampled_from(sorted(FORMAT_SCENARIOS))))
    numeric = [path for path in _paths(body) if type(_at(body, path)) in (int, float)]
    for *owner, key in draw(st.lists(st.sampled_from(numeric), min_size=1, max_size=3,
                                     unique=True)):
        limit = SIZE_LIMITS.get(key, math.inf)
        _at(body, owner)[key] = draw(st.sampled_from([v for v in EXTREME_NUMBERS if v <= limit]))
    return body


@settings(derandomize=True, max_examples=100, deadline=None)
@given(body=extreme_scenarios())
def test_failing_run_on_extreme_numbers_is_one_json_line_and_no_warning(body):
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(body))
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(["run", str(scenario), "--out", str(Path(tmp) / "out")])
        assert code in (0, 2, 3, 4)
        if code:
            assert not caught
            [line] = stderr.getvalue().splitlines()
            assert json.loads(line)["error"]["exit_code"] == code
        else:
            for line in stdout.getvalue().splitlines():
                assert all(_finite(cell) for cell in _cells(Path(line)))


def _spectrum_levels(tmp_path, name, body):
    scenario = write_scenario(tmp_path, body, name=f"{name}.json")
    written = run_scenario(scenario, out_dir=str(tmp_path / name))
    _, rows = read_rows(written[0])
    return [row[1] for row in rows]


def test_si_well_levels_scale_with_natural_units(tmp_path):
    # a 1 nm electron well: E_SI = E_natural * hbar^2 / (m a^2), within the
    # bisection tolerance eps * ||H||_1 (about 1e-10 of each level)
    mass, width = 9.1093837015e-31, 1e-9
    natural = spectrum_scenario(grid={"x_min": 0.0, "x_max": 1.0, "n": 2001})
    si = spectrum_scenario(
        constants={"profile": "si", "mass": mass},
        grid={"x_min": 0.0, "x_max": width, "n": 2001},
        potential={"kind": "infinite_well", "a": width},
    )
    hbar = si_constants(mass).hbar
    scale = hbar**2 / (mass * width**2)
    levels_natural = _spectrum_levels(tmp_path, "natural", natural)
    levels_si = _spectrum_levels(tmp_path, "si", si)
    assert len(levels_si) == len(levels_natural) == 5
    for e_si, e_natural in zip(levels_si, levels_natural):
        assert float(e_si) == pytest.approx(float(e_natural) * scale, rel=1e-9)


def test_sampled_harmonic_values_give_harmonic_levels(tmp_path):
    grid = {"x_min": -10.0, "x_max": 10.0, "n": 401}
    values = Harmonic(omega=1.0).value_array(make_grid(**grid).points).tolist()
    harmonic = spectrum_scenario(grid=grid, potential={"kind": "harmonic", "omega": 1.0})
    sampled = spectrum_scenario(grid=grid, potential={"kind": "sampled", "values": values})
    levels = _spectrum_levels(tmp_path, "harmonic", harmonic)
    assert _spectrum_levels(tmp_path, "sampled", sampled) == levels
    assert len(levels) == 5


# A table of every cell kind the writers handle: floats at the edges of the
# shortest round-trip text, ints, booleans, "" and other strings, each as an
# ndarray, a list or one cell repeated, plus a block without rows and two
# blocks longer than one write that share their x entry.
MIXED_COLUMNS = ["label", "x", "n", "flag", "t"]
LONG_X = np.linspace(-3.0, 3.0, 601)
MIXED_BLOCKS = [
    ("edge", np.array([-0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308]),
     [0, -3, 7, 10**20, 1], [True, False, True, False, True], 0.1),
    ("", [2.5, -1e-300], np.array([4, 5]), np.array([False, True]), ""),
    ("empty", np.array([]), [], [], 2.0),
    ('say "hi", twice', 1.5, [1], False, [3.0]),
    ("long", LONG_X, np.arange(601), True, 0.5),
    ("again", LONG_X, list(range(601)), np.arange(601) % 3 == 0, 1.5),
]


def _reference_rows(blocks):
    """The rows of a columnar table, expanded cell by cell."""
    rows = []
    for block in blocks:
        n = max(len(e) for e in block if isinstance(e, (list, np.ndarray)))
        cells = [e.tolist() if isinstance(e, np.ndarray) else e if isinstance(e, list)
                 else [e] * n for e in block]
        rows += [list(row) for row in zip(*cells)]
    return rows


def _reference_text(fmt, columns, blocks):
    """A columnar table as csv.writer (booleans as true/false) or
    json.dump(indent=2) writes its expanded rows."""
    rows = _reference_rows(blocks)
    if fmt == "json":
        return json.dumps({"columns": columns, "rows": rows}, indent=2) + "\n"
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([[json.dumps(v) if isinstance(v, bool) else v for v in row] for row in rows])
    return expected.getvalue()


# The table's first row, which alone has no leading separator, after a block
# without rows and after two such blocks that share their entries.
@pytest.mark.parametrize("blocks", [
    MIXED_BLOCKS, [], MIXED_BLOCKS[2:3], [MIXED_BLOCKS[2], MIXED_BLOCKS[0]],
    [MIXED_BLOCKS[2], MIXED_BLOCKS[2], MIXED_BLOCKS[1]],
], ids=["mixed", "no_blocks", "no_rows", "rows_after_no_rows", "rows_after_shared_no_rows"])
def test_writers_match_csv_writer_and_json_dump(blocks):
    for fmt in ("csv", "json"):
        written = io.StringIO()
        _write_table(written, fmt, (MIXED_COLUMNS, blocks))
        assert written.getvalue() == _reference_text(fmt, MIXED_COLUMNS, blocks)


# Block lengths around the writers' chunk of 1024 rows (and the 256 rows of
# earlier writers), and the cells of the mixed lists: strings csv.writer
# quotes or json.dumps escapes, a NUL and U+00FF (UTF-8 C3 BF, beside the
# writers' 0xFF pad byte), booleans, ints beyond 64 bits and floats at the
# edges of the shortest round-trip text.
ROW_COUNTS = [0, 1, 255, 256, 257, 600, 1023, 1024, 1025]
ENTRY_KINDS = ["float", "int", "bool", "mixed", "cell"]
MIXED_CELLS = ["", "a", "x,y", 'say "hi"', "two\nlines", "cr\r", "tab\t", "\u00e9\u2603", " ",
               "nul\x00", "\u00ff",
               True, False, 0, -7, 10**20, -0.0, 0.1, 5e-324, 1e16, 1.7976931348623157e308]
CHUNK_X = np.linspace(-1.0, 1.0, 257)
CELLS = st.one_of(st.text(max_size=6), st.booleans(), st.integers(),
                  st.floats(allow_nan=False, allow_infinity=False))


def _entry(kind, rows, rng):
    """An ndarray or list entry of ``rows`` cells of one kind."""
    if kind == "float":  # random bit patterns reach every exponent
        bits = rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64)
        return np.where(np.isfinite(bits), bits, rng.standard_normal(rows))
    if kind == "int":
        return rng.integers(-2**63, 2**63, rows, dtype=np.int64)
    if kind == "bool":
        return rng.random(rows) < 0.5
    return [MIXED_CELLS[i] if i < len(MIXED_CELLS) else float(rng.standard_normal())
            for i in rng.integers(0, len(MIXED_CELLS) + 4, rows).tolist()]


@st.composite
def columnar_tables(draw):
    """(columns, blocks) with entries of every kind; a block may share one
    entry object, at the same column, with the block before it."""
    width = draw(st.integers(1, 5))
    columns = draw(st.lists(st.text(max_size=5), min_size=width, max_size=width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        kinds = draw(st.lists(st.sampled_from(ENTRY_KINDS), min_size=width, max_size=width))
        if set(kinds) == {"cell"}:
            kinds[draw(st.integers(0, width - 1))] = draw(st.sampled_from(ENTRY_KINDS[:-1]))
        shared = [j for j, e in enumerate(blocks[-1] if blocks else ())
                  if isinstance(e, (list, np.ndarray))]
        share = shared and draw(st.booleans())
        rows = len(blocks[-1][shared[0]]) if share else draw(st.sampled_from(ROW_COUNTS))
        block = [draw(CELLS) if kind == "cell" else _entry(kind, rows, rng) for kind in kinds]
        if share:
            j = draw(st.sampled_from(shared))
            block[j] = blocks[-1][j]
        blocks.append(tuple(block))
    return columns, blocks


@settings(derandomize=True, max_examples=60, deadline=None)
@given(table=columnar_tables())
@example(table=(["no blocks"], []))
@example(table=(["series", "t", "x", "n", "tag"], [
    ("first", 0.5, CHUNK_X, np.arange(257), "last"),
    ("second", -1.0, CHUNK_X, [True] * 257, "last"),
    (True, "middle", LONG_X[:256], np.zeros(256), 3),
]))
def test_writers_match_csv_writer_and_json_dump_property(table):
    columns, blocks = table
    for fmt in ("csv", "json"):
        written = io.StringIO()
        _write_table(written, fmt, table)
        assert written.getvalue() == _reference_text(fmt, columns, blocks)


class _RecordedWrites(io.StringIO):
    """A StringIO that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.lengths = []

    def write(self, text):
        self.lengths.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt,row_start", [("csv", "\n"), ("json", "\n    [")])
def test_writes_hold_at_most_one_chunk_of_rows(fmt, row_start):
    x = np.linspace(-40.0, 40.0, 10_000)
    blocks = [("density", t, x, np.exp(-x**2 / t)) for t in (0.5, 1.5)]
    written = _RecordedWrites()
    _write_table(written, fmt, (_PLOT_COLUMNS, blocks))
    # The header, then each row's text up to the next row (the last one
    # carries the footer).
    header, *rows = written.getvalue().split(row_start)
    assert len(rows) >= 20_000
    longest = max(map(len, rows)) + len(row_start)
    assert max(written.lengths) <= len(header) + _CHUNK_ROWS * longest
    assert len(written.lengths) > 20_000 / _CHUNK_ROWS


def test_a_block_formats_its_new_float_entries_in_one_kernel_call(monkeypatch):
    calls = []
    rows = _shortest.rows

    def counted(values):
        calls.append(len(values))
        return rows(values)

    monkeypatch.setattr(_shortest, "rows", counted)
    t = np.linspace(0.0, 3.0, 301)
    series = [t, *(np.sin(k * t) for k in range(1, 7))]
    _write_table(io.StringIO(), "csv", ([f"c{i}" for i in range(7)], [series]))
    assert calls == [7]
    # Shared entries are formatted once, and a block with no new float entry
    # makes no call.
    calls.clear()
    x, y = np.linspace(-1.0, 1.0, 50), np.linspace(2.0, 3.0, 50)
    blocks = [("a", 0.5, x, np.exp(-x**2)), ("b", 1.5, x, y), ("c", 2.5, x, y),
              ("d", 3.5, x.tolist(), np.arange(50))]
    for fmt in ("csv", "json"):
        written = io.StringIO()
        _write_table(written, fmt, (_PLOT_COLUMNS, blocks))
        assert written.getvalue() == _reference_text(fmt, _PLOT_COLUMNS, blocks)
    assert calls == [2, 1] * 2


# The 8 states of 4001 points as JSON, and 31 density blocks of 2048 points.
@pytest.mark.parametrize("body", [
    {"command": "spectrum", "constants": {"profile": "natural"},
     "grid": {"x_min": -12.0, "x_max": 12.0, "n": 4001},
     "potential": {"kind": "harmonic", "omega": 1.0}, "count": 8, "emit_states": True,
     "output": {"format": "json", "path": "levels.json"}},
    {"command": "evolve", "constants": {"profile": "natural"},
     "grid": {"x_min": -24.0, "x_max": 42.0, "n": 2048},
     "potential": {"kind": "piecewise_constant", "segments": []},
     "initial": {"alpha": 0.5, "k0": 6.0}, "method": "crank_nicolson", "dt": 0.01,
     "steps": 300, "observables_every": 10, "emit_density": True,
     "output": {"format": "csv", "path": "run.csv"}},
], ids=["states", "density"])
def test_a_block_releases_the_last_blocks_kernel_output(tmp_path, monkeypatch, body):
    # An entry kept for the next block is a copy, so by the next kernel call
    # nothing of the earlier outputs' memory may be held.
    rows, outputs = _shortest.rows, []

    def recorded(values):
        assert [ref() for ref in outputs] == [None] * len(outputs)
        out = rows(values)
        outputs.append(weakref.ref(out if out.base is None else out.base))
        return out

    monkeypatch.setattr(cli.shortest, "rows", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", write_scenario(tmp_path, body), "--out", str(tmp_path)]) == 0
    assert len(outputs) >= 8


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_numpy_scalar_cells_are_written_as_their_python_values(fmt):
    # In a list and as a repeated cell; a float32 as the double it widens to.
    scalars = [np.float64(1.0), np.float32(0.1), np.int64(2), np.bool_(True)]
    expected = ["1.0", "0.10000000149011612", "2", "true"]
    written = io.StringIO()
    _write_table(written, fmt, (["a", "b"], [(cell, scalars) for cell in scalars]))
    values = [cell.item() for cell in scalars]
    assert written.getvalue() == _reference_text(fmt, ["a", "b"],
                                                 [(cell, values) for cell in values])
    if fmt == "csv":
        assert written.getvalue().splitlines()[1:] == [f"{a},{b}" for a in expected
                                                       for b in expected]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
# (block, column, row) of the cell made non-finite: in an ndarray, in a list,
# a repeated cell, a one-cell list and a repeated cell of the fourth block
@pytest.mark.parametrize("where", [(0, 1, 3), (1, 1, 1), (0, 4, 0), (3, 4, 0), (3, 1, 0)])
def test_check_finite_names_first_bad_row(bad, where):
    block_index, column, row = where
    blocks = [list(block) for block in MIXED_BLOCKS]
    entry = blocks[block_index][column]
    if isinstance(entry, np.ndarray):
        entry = entry.copy()
        entry[row] = bad
    elif isinstance(entry, list):
        entry = entry[:row] + [bad] + entry[row + 1:]
    else:
        entry = bad
    blocks[block_index][column] = entry
    blocks = [tuple(block) for block in blocks]
    first = next(i for i, r in enumerate(_reference_rows(blocks))
                 if any(isinstance(v, float) and not math.isfinite(v) for v in r))
    with pytest.raises(SolverError) as err:
        _check_finite("t.csv", (MIXED_COLUMNS, blocks))
    assert str(err.value) == f"t.csv: row {first + 1} holds the non-finite value {bad!r}"


@pytest.mark.parametrize(
    "argv, says",
    [
        (["run"], "the following arguments are required: scenario"),
        (["run", "x.json", "--format", "xml"], "invalid choice: 'xml'"),
        ([], "the following arguments are required: subcommand"),
        (["frobnicate"], "invalid choice: 'frobnicate'"),
    ],
    ids=["run_without_scenario", "unknown_format", "bare", "unknown_command"],
)
def test_usage_error_exits_2_with_one_json_error(capsys, argv, says):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["exit_code"] == 2
    assert err["type"] == "UsageError"
    assert says in err["message"] and "usage: qm1d" in err["message"]


def test_usage_error_from_the_command_line_is_one_json_line():
    result = subprocess.run([sys.executable, "-m", "qm1d.cli", "frobnicate"],
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stdout == ""
    assert json.loads(result.stderr)["error"]["type"] == "UsageError"


@pytest.mark.parametrize("argv", [["-h"], ["run", "--help"]])
def test_help_still_prints_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: qm1d")
    assert captured.err == ""


def _outcome(argv, capsys):
    """(exit code, or ("SystemExit", code), stdout, stderr) of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exit_info:
        code = ("SystemExit", exit_info.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_called_repeatedly_behaves_as_each_call_alone(tmp_path, capsys):
    body = _schema_case("scatter", energies={"start": 0.5, "stop": 3.0, "count": 1})
    scenario = write_scenario(tmp_path, body)
    steps = [["frobnicate"], ["-h"], ["run", scenario, "--out", str(tmp_path)], ["version"]]
    together = [_outcome(argv, capsys) for argv in steps]
    alone = []
    for argv in steps:
        cli._parser.cache_clear()
        alone.append(_outcome(argv, capsys))
    assert together == alone
    (usage_code, usage_out, usage_err), (help_code, help_out, _), (run_code, _, _), version = together
    assert (usage_code, usage_out) == (2, "")
    assert json.loads(usage_err)["error"]["type"] == "UsageError"
    assert help_code == ("SystemExit", 0) and help_out.startswith("usage: qm1d")
    assert run_code == 0
    assert version == (0, f"{__version__}\n", "")


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._parser.cache_clear()
    for argv in (["version"], ["frobnicate"], ["version"], ["run"]):
        main(argv)
    # the parser and its three subparsers, which share its class
    assert built == ["qm1d", "qm1d run", "qm1d validate", "qm1d version"]


# Counts the argparse parsers that `import qm1d.cli` constructs, and prints
# that count and the size of the CLI's parser cache.
_IMPORT_CHILD = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import qm1d.cli
print(len(built), qm1d.cli._parser.cache_info().currsize)
"""


def test_importing_the_cli_builds_no_parser(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(qm1d.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], capture_output=True,
                            text=True, env=env, check=True, cwd=tmp_path)
    assert result.stdout.split() == ["0", "0"]
