import json
import math
import subprocess
import sys

import pytest

from qm1d import __version__, packet_width, GaussianPacketParams
from qm1d.cli import main, run_scenario


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


def test_emit_plot_data_empty_trajectory():
    import numpy as np

    from qm1d import Trajectory
    from qm1d.cli import emit_plot_data

    empty = Trajectory(
        times=np.array([]), snapshots=[], norm=np.array([]),
        x_mean=np.array([]), p_mean=np.array([]), x_spread=np.array([]),
        p_spread=np.array([]), energy=np.array([]),
    )
    columns, rows = emit_plot_data(empty)
    assert columns == ["series", "t", "x", "value"]
    assert rows == []


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


@pytest.mark.parametrize("path", ["{tmp}/escape.csv", "../escape.csv", "sub/../../escape.csv"])
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
