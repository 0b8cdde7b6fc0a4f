"""Alternated parent/change benchmark pairs, written as ``BENCH_<n>.json``.

    python tools/pairs.py --parent PARENT_CHECKOUT --change CHANGE_CHECKOUT \
        --title "what the change does" --out BENCH_16.json

For every workload of ``BENCHMARK.json``, pair i (1 to 10) runs
``perfbench/run.py --workload W --seed i --seconds N --trace 0`` once in each
checkout, each with its own ``perfbench/`` and ``src/``; N is the benchmark's
``run_seconds``.  The side that runs first alternates from pair to pair,
starting with the parent.  The output holds the change's title, the parent's
commit (null when the parent is not a git checkout), how the pairs were run,
the machine, every pair with both result objects as run.py printed them, and
per workload a summary: for each end-to-end metric the median and quartiles
of each side, the number of pairs in which the change reads lower and a
verdict, and the failed ops of each side.  The verdict reads the metric's
``better`` and ``bound`` (a fraction of the parent's median) from
``BENCHMARK.json``:

* ``gain``: the change is better in at least 9 of 10 pairs and the medians
  differ, in its favour, by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than the
  bound;
* ``unresolved``: the parent's interquartile range is wider than the bound,
  unless every run of the change is better than every run of the parent;
* ``no change``: anything else.

The file is rewritten after every pair, so an interrupted run keeps the pairs
it finished.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; returns the result object it prints."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{' '.join(argv[1:])} failed in {checkout}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            model = next((line.split(":", 1)[1].strip() for line in cpuinfo
                          if line.startswith("model name")), "")
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), **versions}


def commit_of(checkout: Path) -> str | None:
    """The HEAD commit of a git checkout, or None (said in one line on stderr)
    for a directory that is not one, such as a ``git archive`` copy."""
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True)
    if done.returncode:
        print(f"{checkout} is not a git checkout: parent_commit is recorded as null",
              file=sys.stderr)
        return None
    return done.stdout.strip()


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """gain, worse, unresolved or no change (see the module docstring) for the
    paired runs of one metric; better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (p - c) > 0: the change is better
    base = quartiles(parent)
    spread = base["q3"] - base["q1"]
    allowed = bound * abs(base["median"])
    ahead = sign * (base["median"] - quartiles(change)["median"])
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and ahead > spread:
        return "gain"
    if -ahead > allowed:
        return "worse"
    if spread > allowed and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "no change"


def summary(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per workload: each metric's quartiles per side, the change's wins and,
    for the metrics of ``metrics`` (BENCHMARK.json's end_to_end by name), a
    verdict."""
    out = {}
    for workload in dict.fromkeys(pair["workload"] for pair in pairs):
        mine = [pair for pair in pairs if pair["workload"] == workload]
        entry = {"pairs": len(mine)}
        for metric in mine[0]["parent"]["metrics"]:
            values = {side: [pair[side]["metrics"][metric]["value"] for pair in mine]
                      for side in SIDES}
            entry[metric] = {side: quartiles(values[side]) for side in SIDES}
            entry[metric]["change_lower_in"] = sum(
                c < p for p, c in zip(values["parent"], values["change"]))
            if metric in metrics:
                entry[metric]["verdict"] = verdict(
                    values["parent"], values["change"], metrics[metric]["better"],
                    metrics[metric]["bound"])
        entry["failed"] = {side: sum(pair[side]["failed"] for pair in mine) for side in SIDES}
        out[workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--title", required=True, help="one line on what the change does")
    parser.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "change": args.title,
        "parent_commit": commit_of(checkouts["parent"]),
        "how": f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0, run "
               "from a checkout of the parent commit and of the change in turn; the side "
               "that runs first alternates from pair to pair. Each entry holds both result "
               "objects as run.py printed them.",
        "machine": machine(),
        "pairs": [],
        "summary": {},
    }
    for workload in workloads:
        for seed in range(1, PAIRS + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], workload, seed, seconds)
            record["pairs"].append(pair)
            record["summary"] = summary(record["pairs"], metrics)
            args.out.write_text(json.dumps(record, indent=2) + "\n")
            p50 = {side: pair[side]["metrics"]["op_s.p50"]["value"] for side in SIDES}
            print(f"{workload} seed {seed}: op_s.p50 parent {p50['parent']:.4f} s, "
                  f"change {p50['change']:.4f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
