import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

def _tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs, corpus, repr_sample = _tool("pairs"), _tool("corpus"), _tool("repr_sample")

PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
# Quartile spread 1.0, wider than a bound of 0.25 of the median 1.5.
SWINGING = [1.0, 2.0] * 5


# (parent runs, change runs, better, verdict) with a bound of 0.25
@pytest.mark.parametrize("parent, change, better, expected", [
    (PARENT, [v * 0.5 for v in PARENT], "lower", "gain"),
    (PARENT, [v * 2.0 for v in PARENT], "higher", "gain"),
    (SWINGING, [v * 0.1 for v in SWINGING], "lower", "gain"),
    (PARENT, [v * 1.5 for v in PARENT], "lower", "worse"),
    (PARENT, [v * 0.5 for v in PARENT], "higher", "worse"),
    (SWINGING, SWINGING[::-1], "lower", "unresolved"),
    (SWINGING, [1.01] * 10, "lower", "unresolved"),
    # every change run beats every parent run, by less than the spread
    (SWINGING, [0.99] * 10, "lower", "no change"),
    (PARENT, PARENT[::-1], "lower", "no change"),
    (PARENT, [v * 1.1 for v in PARENT], "lower", "no change"),
    (PARENT, [v * 0.99 for v in PARENT], "lower", "no change"),
])
def test_verdict(parent, change, better, expected):
    assert pairs.verdict(parent, change, better, 0.25) == expected


def test_commit_of_a_git_checkout_and_of_a_plain_copy(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    copy = tmp_path / "copy"
    copy.mkdir()
    assert pairs.commit_of(copy) is None
    assert "not a git checkout" in capsys.readouterr().err

    checkout = tmp_path / "checkout"
    git = ["git", "-C", str(checkout), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(["git", "init", "-q", str(checkout)], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "empty"], check=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    assert pairs.commit_of(checkout) == head
    assert capsys.readouterr().err == ""


def _table(path, columns, rows):
    """A CLI data table of columns and rows, as CSV or JSON by path's suffix."""
    if path.suffix == ".csv":
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in [columns, *rows]))
    else:
        path.write_text(json.dumps({"columns": columns, "rows": rows}))
    return path


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_corpus_names_the_columns_whose_cells_moved(tmp_path, suffix):
    columns = ["t", "norm", "energy"]
    this = _table(tmp_path / f"this.{suffix}", columns, [[0.0, 1.0, 12.625], [0.5, 1.0, 12.625]])
    against = _table(tmp_path / f"against.{suffix}", columns, [[0.0, 1.0, 12.5], [0.5, 1.0, 12.5]])
    assert corpus.cell_difference(this, against) == (
        "2 numeric cells moved, max abs 0.12, max rel 0.0099, max rel to column max 0.0099; "
        "columns: energy")


@pytest.mark.parametrize("suffix", ["csv", "json"])
def test_corpus_measures_a_near_zero_move_against_its_column(tmp_path, suffix):
    # A mean near zero moves by 0.3 of itself but by 2.2e-16 of its column's
    # largest |value|, which the third figure shows.
    this = _table(tmp_path / f"this.{suffix}", ["t", "x_mean"], [[0.0, 0.5], [1.0, 3.7e-16]])
    against = _table(tmp_path / f"against.{suffix}", ["t", "x_mean"], [[0.0, 0.5], [1.0, 2.6e-16]])
    assert corpus.cell_difference(this, against) == (
        "1 numeric cells moved, max abs 1.1e-16, max rel 0.3, max rel to column max 2.2e-16; "
        "columns: x_mean")
    assert corpus.array_difference([np.array([0.5, 3.7e-16])], [np.array([0.5, 2.6e-16])]) == (
        "max abs 1.1e-16, max rel 0.3, max rel to array max 2.2e-16")


def test_corpus_names_the_library_arrays_that_moved():
    this = {"r": "a", "t": "b", "c_plus": "c", "c_minus": "d"}
    against = {"r": "a", "t": "b", "c_plus": "x", "c_minus": "y"}
    assert corpus.moved_arrays(this, against) == "sha256 differs in c_minus, c_plus"
    assert corpus.moved_arrays({"energy": "a"}, {}) == "sha256 differs in energy"
    assert corpus.moved_arrays("a", "b") == "sha256 differs or missing on one side"
    assert corpus.moved_arrays("a", None) == "sha256 differs or missing on one side"


def test_corpus_gives_the_largest_difference_of_each_moved_library_array():
    this = [np.array([1.0, 2.0, 4.0]), np.array([True, False])]
    against = [np.array([1.0, 2.0, 4.5]), np.array([True, False])]
    assert corpus.array_difference(this, against) == (
        "max abs 0.5, max rel 0.11, max rel to array max 0.11")
    assert corpus.array_difference([np.array([0.0, np.nan])], [np.array([0.0, 1.0])]) == (
        "max abs 0, max rel 0, max rel to array max 0; 1 other entries differ")
    assert corpus.array_difference([np.zeros(2)], [np.zeros(3)]) == "shapes differ"
    saved = ({"r": [np.array([1j])], "energy": [np.array([12.5])]},
             {"r": [np.array([1j])], "energy": [np.array([12.625])]})
    assert corpus.moved_arrays({"r": "a", "energy": "b"}, {"r": "a", "energy": "c"}, saved) == (
        "sha256 differs in energy (max abs 0.12, max rel 0.0099, max rel to array max 0.0099)")
    assert corpus.moved_arrays("a", "b", ([np.ones(2)], [np.ones(2) * 2])) == (
        "sha256 differs or missing on one side (max abs 1, max rel 0.5, max rel to array max 0.5)")


def test_coldstart_probe_reports_exit_code_scipy_linalg_and_peak_rss(monkeypatch):
    monkeypatch.setitem(sys.modules, "corpus", corpus)  # coldstart imports it by name
    coldstart = _tool("coldstart")
    code, loaded, rss_mb = coldstart.probe(coldstart.child_env(corpus.REPO / "src"), ["version"])
    assert (code, loaded) == (0, False)
    assert 1.0 < rss_mb < 1000.0


# (this side's spawns, the other side's, the ratio column)
@pytest.mark.parametrize("this, against, expected", [
    ([0.20, 0.21, 0.22, 0.23], [0.30, 0.31, 0.32, 0.33], "0.68"),
    ([0.30, 0.31, 0.32, 0.33], [0.20, 0.21, 0.22, 0.23], "1.47"),
    # validate's 0.340 against 0.214 s medians, from spreads that overlap
    ([0.20, 0.30, 0.34, 0.38, 0.45], [0.19, 0.20, 0.214, 0.31, 0.40], "unresolved"),
    ([0.1, 0.2, 0.3], [0.2, 0.3, 0.4], "unresolved"),  # quartiles meet at 0.25
])
def test_coldstart_ratio_is_unresolved_when_quartiles_overlap(monkeypatch, this, against,
                                                              expected):
    monkeypatch.setitem(sys.modules, "corpus", corpus)  # coldstart imports it by name
    assert _tool("coldstart").ratio(this, against) == expected


def test_coldstart_children_write_bytecode(monkeypatch, tmp_path):
    monkeypatch.setitem(sys.modules, "corpus", corpus)  # coldstart imports it by name
    coldstart = _tool("coldstart")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    shutil.copytree(corpus.REPO / "src" / "qm1d", tmp_path / "qm1d",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = coldstart.child_env(tmp_path)
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONPATH"] == str(tmp_path.resolve())
    assert env["PATH"] == os.environ["PATH"]
    assert os.environ["PYTHONDONTWRITEBYTECODE"] == "1"
    assert coldstart.probe(env, ["version"])[0] == 0
    assert list((tmp_path / "qm1d" / "__pycache__").glob("cli.*.pyc"))


def test_cellbench_times_every_case_against_its_own_src(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "corpus", corpus)  # coldstart imports it by name
    monkeypatch.setitem(sys.modules, "coldstart", _tool("coldstart"))  # cellbench does
    cellbench = _tool("cellbench")
    assert cellbench.main(["--against", str(corpus.REPO / "src"), "--repeat", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("### Serialization per call: median (quartiles) of 2 processes\n")
    cases = [line.split(" | ")[0] for line in out.splitlines() if line.startswith("| ")][1:]
    assert cases == ["| rows, 1 cell", "| rows, 1,024 cells", "| rows, 2,047 cells",
                     "| rows, 63,488 cells", "| write, states JSON", "| write, density CSV"]


def test_repr_sample_checks_the_finite_doubles_of_its_sample(capsys):
    assert repr_sample.main(["--seed", "7", "--count", "300000"]) == 0
    line = capsys.readouterr().out
    assert line.startswith("Float kernel against repr, seed 7: ")
    assert "of 300,000 random bit patterns, all equal to repr" in line


def test_repr_sample_reports_the_first_cell_that_differs(monkeypatch, capsys):
    def off_by_one_cell(x):
        out = [repr(v) for v in x.tolist()]
        out[5] += "0"
        return out

    monkeypatch.setattr(repr_sample, "texts", off_by_one_cell)
    assert repr_sample.main(["--seed", "7", "--count", "1000"]) == 1
    assert "DIFFERS at bits 0x" in capsys.readouterr().out
    checked, difference = repr_sample.first_difference(7, 1000)
    assert checked == 6 and "kernel '" in difference
