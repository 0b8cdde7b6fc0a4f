"""Serialization timing: the float kernel and the table writer of this tree's
``src/`` against another's.

    python tools/cellbench.py --against OTHER_CHECKOUT/src [--repeat 7]

Each sample is a child process with ``PYTHONPATH`` set to one tree's source.
It times ``qm1d._shortest.rows`` on 1, 1,024, 2,047 (the largest block) and
63,488 seeded random doubles, and ``qm1d.cli._write_table`` into a StringIO
on seeded stand-ins for the tables of perfbench's table_dump workload: 8
states of 4,001 points as JSON and 31 densities of 2,048 points as CSV (no
solve).  Every case is called once untimed, then timed as the median of 5
runs of a fixed number of calls.  The two trees alternate child by child,
and the output is a markdown table of each side's median and quartiles per
call and the ratio of the medians, ``unresolved`` when the quartile ranges
overlap.  Timing has no pass/fail gate; the exit status is 1 only if a child
fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import coldstart

REPO = Path(__file__).resolve().parent.parent

# Prints {case: median seconds per call} as JSON.
_CHILD = """
import io, json, statistics, time
import numpy as np
from qm1d import _shortest
from qm1d.cli import _PLOT_COLUMNS, _write_table

rng = np.random.default_rng(33)
x = np.linspace(-12.0, 12.0, 4001)
states = [(f"state_{i}", "", x, np.exp(-0.5 * x**2) * rng.standard_normal(len(x)))
          for i in range(8)]
x = np.linspace(-24.0, 42.0, 2048)
density = [("density", t, x, np.exp(-(x - 6.0 * t) ** 2 / (1.0 + t)) * rng.random(len(x)))
           for t in np.linspace(0.0, 3.0, 31).tolist()]


def write(fmt, blocks):
    return lambda: _write_table(io.StringIO(), fmt, (_PLOT_COLUMNS, blocks))


# (a call, the calls per timed run)
cases = {f"rows, {n:,} cell{'s' * (n > 1)}": (lambda v=rng.standard_normal(n): _shortest.rows(v),
                                             number)
         for n, number in ((1, 100), (1024, 20), (2047, 10), (63488, 1))}
cases["write, states JSON"] = write("json", states), 1
cases["write, density CSV"] = write("csv", density), 1
medians = {}
for case, (call, number) in cases.items():
    call()
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(number):
            call()
        times.append((time.perf_counter() - start) / number)
    medians[case] = statistics.median(times)
print(json.dumps(medians))
"""


def sample(src: Path) -> dict[str, float]:
    """Median seconds per call of each case, from one child process."""
    done = subprocess.run([sys.executable, "-c", _CHILD], env=coldstart.child_env(src),
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"the child on {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def summary(samples: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return f"{median * 1e3:.3f} ms ({q1 * 1e3:.3f}-{q3 * 1e3:.3f})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path,
                        help="the other src/ directory (holding qm1d/)")
    parser.add_argument("--repeat", type=int, default=7,
                        help="child processes per tree (default 7)")
    args = parser.parse_args(argv)
    if args.repeat < 2:
        parser.error("--repeat needs at least 2 children for quartiles")
    sides = {"this": REPO / "src", "against": args.against}
    times: dict[str, dict[str, list[float]]] = {}
    try:
        for i in range(args.repeat):
            # alternate which tree goes first
            for side in sorted(sides, reverse=bool(i % 2)):
                for case, seconds in sample(sides[side]).items():
                    times.setdefault(case, {s: [] for s in sides})[side].append(seconds)
    except RuntimeError as error:
        print(f"- FAILED {error}")
        return 1
    print(f"### Serialization per call: median (quartiles) of {args.repeat} processes\n")
    print("| case | this tree | against | this / against |")
    print("|---|---:|---:|---:|")
    for case, by_side in times.items():
        print(f"| {case} | {summary(by_side['this'])} | {summary(by_side['against'])} "
              f"| {coldstart.ratio(by_side['this'], by_side['against'])} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
