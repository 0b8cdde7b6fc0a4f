"""Cold-start wall time per CLI command: this tree's ``src/`` against another.

    python tools/coldstart.py --against OTHER_CHECKOUT/src [--repeat 7]

Each command is a fresh ``python -m qm1d.cli`` process: ``version``,
``validate`` and ``run`` of every hand-written scenario of
``tools/corpus.py``.  The two trees alternate spawn by spawn, each with
``PYTHONPATH`` set to its own source tree and ``PYTHONDONTWRITEBYTECODE``
removed, and two unmeasured spawns per tree and command come first: the
first compiles and writes bytecode, so compilation is neither timed nor
counted in memory, and the second reports whether the
command loaded ``scipy.linalg`` and its peak RSS (``ru_maxrss``, KiB on
Linux).  The output is a markdown table of each side's median and quartiles,
the ratio of the medians and the peak RSS of each side.  The ratio reads
``unresolved`` when the two sides' quartile ranges overlap: on a shared
2-vCPU VM a row's quartiles spread up to 0.1 s around a 0.25 s median, so a
ratio from such rows tells nothing.  Timing has no pass/fail
gate; the exit status is 1 only if a command fails on either side.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import corpus

# Runs qm1d.cli.main on argv[1:] and prints its exit code, whether
# scipy.linalg was imported and the process's peak RSS.
_PROBE = """
import contextlib, io, resource, sys
from qm1d.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "scipy.linalg" in sys.modules, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def commands(scenarios: Path, out: Path) -> dict[str, list[str]]:
    """CLI argv by label: version, validate and a run of each hand-written
    corpus scenario, written to ``scenarios``, with outputs under ``out``."""
    paths = {}
    for name, body in corpus.hand_written().items():
        paths[name] = scenarios / f"{name}.json"
        paths[name].write_text(json.dumps(body, indent=2) + "\n")
    argvs = {"version": ["version"], "validate": ["validate", str(paths["scatter"])]}
    argvs.update({name: ["run", str(path), "--out", str(out)] for name, path in paths.items()})
    return argvs


def child_env(src: Path) -> dict:
    """This process's environment with ``PYTHONPATH`` set to ``src`` and
    without ``PYTHONDONTWRITEBYTECODE``, so the spawns read cached bytecode."""
    env = {name: value for name, value in os.environ.items()
           if name != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(src.resolve())
    return env


def probe(env: dict, argv: list[str]) -> tuple[int, bool, float]:
    """(exit code, scipy.linalg loaded, peak RSS in MB) of one command."""
    result = subprocess.run(
        [sys.executable, "-c", _PROBE, *argv], env=env, capture_output=True, text=True
    )
    if result.returncode:
        return result.returncode, False, math.nan
    code, loaded, max_rss_kib = result.stdout.split()[-3:]
    return int(code), loaded == "True", int(max_rss_kib) / 1024


def spawn(env: dict, argv: list[str]) -> tuple[float, int]:
    """Wall time and exit code of one ``python -m qm1d.cli`` process."""
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "qm1d.cli", *argv], env=env, capture_output=True
    )
    return time.perf_counter() - start, result.returncode


def summary(samples: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return f"{median:.3f} s ({q1:.3f}-{q3:.3f})"


def ratio(this: list[float], against: list[float]) -> str:
    """The ratio of the medians, or ``unresolved`` when the quartile ranges
    of the two sides overlap."""
    (low, _, high), (other_low, _, other_high) = (
        statistics.quantiles(samples, n=4, method="inclusive") for samples in (this, against))
    if low <= other_high and other_low <= high:
        return "unresolved"
    return f"{statistics.median(this) / statistics.median(against):.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path,
                        help="the other src/ directory (holding qm1d/)")
    parser.add_argument("--repeat", type=int, default=7,
                        help="timed spawns per tree and command (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat needs at least 2 spawns for quartiles")
    sides = {"this": corpus.REPO / "src", "against": args.against}
    envs = {side: child_env(src) for side, src in sides.items()}
    rows, failures = [], []
    with tempfile.TemporaryDirectory(prefix="qm1d-coldstart-") as tmp:
        tmp = Path(tmp)
        for label, cli_argv in commands(tmp, tmp / "out").items():
            loaded, rss, times = {}, {}, {side: [] for side in sides}
            for side, env in envs.items():
                probe(env, cli_argv)  # compiles and writes bytecode
                code, loaded[side], rss[side] = probe(env, cli_argv)
                if code:
                    failures.append(f"{label} exited {code} on {side}")
            for i in range(args.repeat):
                # alternate which tree goes first
                for side in sorted(sides, reverse=bool(i % 2)):
                    elapsed, code = spawn(envs[side], cli_argv)
                    times[side].append(elapsed)
                    if code:
                        failures.append(f"{label} exited {code} on {side}")
            rows.append((label, times, loaded, rss))
    print(f"### Cold `python -m qm1d.cli` spawns: median (quartiles) of {args.repeat}\n")
    print("| command | this tree | against | this / against "
          "| peak RSS MB (this, against) | scipy.linalg loaded (this, against) |")
    print("|---|---:|---:|---:|---:|---|")
    for label, times, loaded, rss in rows:
        print(f"| {label} | {summary(times['this'])} | {summary(times['against'])} "
              f"| {ratio(times['this'], times['against'])} "
              f"| {rss['this']:.1f}, {rss['against']:.1f} "
              f"| {loaded['this']}, {loaded['against']} |")
    for line in sorted(set(failures)):
        print(f"\n- FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
