"""Closed-loop worker: runs one workload's ops in a single long-lived process.

One op is one pass over the workload's scenario list; each scenario goes
through ``qm1d.cli.main(["run", <scenario>, "--out", <fresh dir>])``, so
parse, compute, write and sidecar are all inside the timed region.  The
next op starts only after the previous one finished (one client, closed
loop).  Checks run between ops, outside the timed region.

Usage (run.py starts it with BLAS/OpenMP threads pinned to 1):

    python3 perfbench/worker.py --workload evolve_observe --seed 1 \
        --seconds 30 --trace 0 --warmup 2 --run-dir .perfbench_runs/x

The last line of standard output is one JSON object with the raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qm1d.cli  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 10


class Loop:
    """Runs ops, checks each one and keeps the samples."""

    def __init__(self, workload: str, seed: int, run_dir: Path, quick: bool):
        self.scenarios = workloads.generate(workload, seed, quick)
        self.paths = workloads.write(self.scenarios, run_dir / "scenarios", workload, seed)
        self.out_root = run_dir / "out"
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None
        self.inspection: checks.Inspection | None = None

    def _run_scenarios(self, out_dir: Path, call) -> tuple[list[int], str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        codes = []
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            # Each CLI call is a fresh process for a user, so every warning
            # would reach stderr; "always" defeats the once-per-location cache.
            warnings.simplefilter("always")
            for path in self.paths:
                try:
                    codes.append(call(["run", str(path), "--out", str(out_dir)]))
                except Exception as exc:  # the CLI would exit 1 with a traceback
                    codes.append(1)
                    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        text = stderr.getvalue() + "".join(
            f"{w.category.__name__}: {w.message}\n" for w in caught
        )
        return codes, text

    def op(self, tracer: tracing.Tracer | None = None) -> float:
        """One timed pass over the scenarios, then its checks; returns seconds."""
        out_dir = self.out_root / f"op{self.ops:05d}"
        self.ops += 1
        if tracer is None:
            start = time.perf_counter()
            codes, stderr = self._run_scenarios(out_dir, qm1d.cli.main)
            elapsed = time.perf_counter() - start
        else:
            main = lambda argv: tracer.call(tracing.CLI_MAIN, qm1d.cli.main, argv)  # noqa: E731
            start = time.perf_counter()
            codes, stderr = tracer.traced_op(lambda: self._run_scenarios(out_dir, main))
            elapsed = time.perf_counter() - start
        self._check(out_dir, codes, stderr)
        shutil.rmtree(out_dir, ignore_errors=True)
        return elapsed

    def _check(self, out_dir: Path, codes: list[int], stderr: str):
        problems = []
        if any(codes):
            problems.append(f"exit codes {codes}")
        if stderr:
            problems.append(f"stderr: {stderr.strip()[:300]}")
        files = checks.digest(out_dir)
        if self.reference is None:
            self.reference = files
            self.inspection = checks.inspect(self.scenarios, out_dir)
        elif files != self.reference:
            problems.append("data bytes differ from the first op")
        problems += self.inspection.problems
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"op {self.ops - 1}: " + "; ".join(problems))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    loop = Loop(args.workload, args.seed, args.run_dir, args.quick)
    warmup = [loop.op() for _ in range(args.warmup)]

    op_s, traced_s = [], []
    tracer = tracing.Tracer() if args.trace else None
    # Reference-kernel times: one before the first op and one after every
    # plain op, so op i lies between kernel_s[i] and kernel_s[i + 1].  The
    # traced run does not use them.
    kernel_s = []
    if not tracer:
        calibration.kernel()  # warm-up pass, not kept
        kernel_s.append(calibration.kernel())
    deadline = time.perf_counter() + args.seconds
    while not op_s or (tracer and not traced_s) or time.perf_counter() < deadline:
        op_s.append(loop.op())
        if tracer:
            # Alternate plain and traced ops so drift hits both alike.
            traced_s.append(loop.op(tracer))
        else:
            kernel_s.append(calibration.kernel())

    result = {
        "attempted": loop.ops,
        "failed": loop.failed,
        "failures": loop.failures,
        "warmup_s": warmup,
        "op_s": op_s,
        "traced_op_s": traced_s,
        "kernel_s": kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": loop.inspection.accuracy,
        "rows_per_op": loop.inspection.rows,
        "bytes_per_op": loop.inspection.bytes,
        "snapshots_per_op": sum(sc.snapshots() for sc in loop.scenarios),
        "steps_per_op": sum(sc.steps() for sc in loop.scenarios),
        "energies_per_op": sum(sc.energies() for sc in loop.scenarios),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        result["trace"] = {
            "ops": [tracing.summarize(tracer.spans, lo, hi) for lo, hi in tracer.op_bounds],
            "missing": tracer.missing,
        }
        tracer.write(args.run_dir / "spans.jsonl.gz")
    shutil.rmtree(loop.out_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
