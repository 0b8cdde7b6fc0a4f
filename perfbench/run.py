"""qm1d benchmark: seeded workloads through the CLI, end to end and per layer.

    python3 perfbench/run.py --workload evolve_observe --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: median wall time from spawning a fresh interpreter to
  ``python -m qm1d.cli version`` exiting (the import cost every CLI call
  pays), over several spawns, rescaled like the op times below;
* ``op_s.p50`` and ``op_s.tail``: median op time and the highest percentile
  with at least ten samples beyond it, after warm-up ops, each op's wall
  time rescaled to the reference machine's speed by the reference kernel
  timed around it (``calibration.py``; raw wall times are in the report);
* ``peak_rss_mb``: the worker process's peak resident memory.

With ``--trace 1`` it alternates plain and traced ops and reports the
per-layer metrics (self time, counts, accuracy, tracing overhead).  The
last line of standard output is the result object; the full record,
including machine details and raw samples, goes to
``.perfbench_runs/<run>/report.json``.  ``--self-check`` runs every
workload briefly at reduced size and validates the result objects against
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"

# One BLAS/OpenMP thread: the box has two cores and other tenants, and the
# program's kernels are small enough that threading only adds noise.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
WARMUP_OPS = 2
SETUP_SPAWNS = 7
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0

LAYERS = ("cli", "eigensolver", "evolution", "observables", "spectral", "core", "scattering")
ACCURACY = (
    "accuracy.norm_drift",
    "accuracy.width_rel_err",
    "accuracy.unitarity_err",
    "accuracy.thick_T_rel_err",
    "accuracy.spectrum_rel_err",
    "accuracy.density_norm_err",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict, spawns: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh `python -m qm1d.cli version` processes, and the
    reference-kernel times around them (one before the first measured spawn
    and one after each).

    One unmeasured spawn first, so bytecode compilation is not counted.
    """
    cmd = [sys.executable, "-m", "qm1d.cli", "version"]
    samples, kernel_s = [], []
    calibration.kernel()  # warm-up pass, not kept
    for i in range(spawns + 1):
        if i:
            kernel_s.append(calibration.kernel())
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or proc.stderr:
            raise BenchError(f"`qm1d version` failed ({proc.returncode}): {proc.stderr.strip()}")
        if i:
            samples.append(elapsed)
    kernel_s.append(calibration.kernel())
    return samples, kernel_s


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Nearest-rank value at the highest whole percentile that leaves at
    least TAIL_BEYOND samples above it; (value, percentile, samples beyond).
    With too few samples it falls back to the maximum (percentile 100)."""
    n = len(samples)
    ordered = sorted(samples)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, 0
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n - rank


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "threads_env": PINNED_ENV,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        info["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        info["cpu_model"] = platform.processor() or "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches or "unknown"
    return info


def run_worker(workload, seed, seconds, trace, warmup, run_dir, quick, env, deadline) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--warmup", str(warmup), "--run-dir", str(run_dir),
    ]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within the run limit: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_nominal_speed(wall_s: list[float], kernel_s: list[float]) -> list[float]:
    """Wall times rescaled to the reference machine's speed: each sample over
    the mean of the reference-kernel times on either side of it, times the
    kernel's nominal time (see calibration.py)."""
    if len(kernel_s) != len(wall_s) + 1:
        raise BenchError(f"{len(kernel_s)} reference-kernel times for {len(wall_s)} samples")
    return [
        wall * calibration.NOMINAL_S / ((before + after) / 2)
        for wall, before, after in zip(wall_s, kernel_s, kernel_s[1:])
    ]


def end_to_end_metrics(raw: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    op_s = at_nominal_speed(raw["op_s"], raw["kernel_s"])
    value, pct, beyond = tail(op_s)
    metrics = {
        "setup_s": (statistics.median(at_nominal_speed(*setup)), "s"),
        "op_s.p50": (statistics.median(op_s), "s"),
        "op_s.tail": (value, "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    detail = {
        "op_s.tail": {"percentile": pct, "samples": len(op_s), "beyond": beyond},
        "wall_setup_s.p50": statistics.median(setup[0]),
        "wall_op_s.p50": statistics.median(raw["op_s"]),
        "kernel_s.p50": statistics.median(raw["kernel_s"]),
    }
    return metrics, detail


def per_layer_metrics(raw: dict, layers_expected) -> tuple[dict, dict]:
    ops = raw["trace"]["ops"]

    def median(fn):
        return statistics.median(fn(op) for op in ops)

    def calls(*names):
        return statistics.median_low(sum(op["calls"].get(n, 0) for n in names) for op in ops)

    def inclusive(*names):
        return median(lambda op: sum(op["inclusive_s"].get(n, 0.0) for n in names))

    def self_s(layer):
        return median(lambda op: op["self_s"].get(layer, 0.0))

    def entry_s(layer):
        return median(lambda op: op["entry_s"].get(layer, 0.0))

    def per(value, count):
        return value / count if count else 0.0

    snapshots, steps, energies = (
        raw["snapshots_per_op"], raw["steps_per_op"], raw["energies_per_op"]
    )
    metrics = {
        "spectral.transforms": (calls(
            "qm1d.evolution.to_momentum_space", "qm1d.evolution.to_position_space",
            "qm1d.observables.to_momentum_space", "qm1d.observables.to_position_space",
        ), "count"),
        "spectral.self_s": (self_s("spectral"), "s"),
        "observables.calls": (calls(
            "qm1d.evolution.expectation", "qm1d.evolution.uncertainty"
        ), "count"),
        "observables.self_s": (self_s("observables"), "s"),
        "observables.per_snapshot_s": (per(entry_s("observables"), snapshots), "s"),
        "core.norm_squared_calls": (calls(
            "qm1d.evolution.norm_squared", "qm1d.observables.norm_squared"
        ), "count"),
        "core.wavefunction_allocs": (calls("qm1d.core.WaveFunction"), "count"),
        "core.self_s": (self_s("core"), "s"),
        "evolution.steps": (steps, "count"),
        "evolution.self_s": (self_s("evolution"), "s"),
        "evolution.self_per_step_s": (per(self_s("evolution"), steps), "s"),
        "scattering.transfer_scattering_calls": (
            calls("qm1d.scattering.transfer_scattering"), "count"
        ),
        "scattering.self_s": (self_s("scattering"), "s"),
        "scattering.per_energy_s": (per(entry_s("scattering"), energies), "s"),
        "eigensolver.build_hamiltonian_s": (inclusive(
            "qm1d.cli.build_hamiltonian", "qm1d.evolution.build_hamiltonian"
        ), "s"),
        "eigensolver.solve_bound_states_s": (inclusive("qm1d.cli.solve_bound_states"), "s"),
        "cli.load_scenario_s": (inclusive("qm1d.cli.load_scenario"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.rows_written": (raw["rows_per_op"], "count"),
        "cli.bytes_written": (raw["bytes_per_op"], "count"),
    }
    # Accuracy figures this workload's outputs do not carry read 0 and are
    # listed as not applicable in the report.
    for name in ACCURACY:
        metrics[name] = (raw["accuracy"].get(name, 0.0), "ratio")
    traced, plain = statistics.median(raw["traced_op_s"]), statistics.median(raw["op_s"])
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    metrics["error_rate"] = (raw["failed"] / raw["attempted"], "ratio")

    seen = {layer for op in ops for layer in op["self_s"]}
    status = {
        layer: "observed" if layer in seen
        else "not observed" if layer in layers_expected
        else "not exercised"
        for layer in LAYERS
    }
    called = {name for op in ops for name in op["calls"]}
    detail = {
        "layers": status,
        "accuracy_not_applicable": [n for n in ACCURACY if n not in raw["accuracy"]],
        "wrapped_names_missing": raw["trace"]["missing"],
        "wrapped_names_not_called": sorted(
            name for name, layer in tracing.LAYER_OF.items()
            if layer != "bench" and name not in called
        ),
        "traced_op_s.p50": traced,
        "share_of_traced_op": {
            layer: self_s(layer) / traced for layer in LAYERS + ("bench",)
        },
    }
    return metrics, detail


def run(workload: str, seed: int, seconds: float, trace: int, quick: bool = False,
        warmup: int = WARMUP_OPS, setup_spawns: int = SETUP_SPAWNS) -> dict:
    """One benchmark run; returns the result object and writes report.json."""
    if not (ROOT / "src" / "qm1d" / "cli.py").is_file():
        raise BenchError(f"no qm1d sources under {ROOT / 'src'}; run from a source checkout")
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    run_dir = RUNS_DIR / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)

    setup = ([], []) if trace else measure_setup(env, setup_spawns)
    raw = run_worker(workload, seed, seconds, trace, warmup, run_dir, quick, env, deadline)
    if trace:
        metrics, detail = per_layer_metrics(raw, workloads.WORKLOADS[workload].layers)
    else:
        metrics, detail = end_to_end_metrics(raw, setup)

    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    report = {
        "workload": workload,
        "why": workloads.WORKLOADS[workload].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "warmup_ops": warmup,
        "machine": machine_info() | {"versions": raw["versions"]},
        "setup_s_samples": setup[0],
        "setup_kernel_s": setup[1],
        "warmup_s": raw["warmup_s"],
        "op_s": raw["op_s"],
        "traced_op_s": raw["traced_op_s"],
        "kernel_s": raw["kernel_s"],
        "failures": raw["failures"],
        "accuracy": raw["accuracy"],
        "detail": detail,
        "result": result,
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"perfbench {workload} seed={seed} trace={trace}: {raw['attempted']} ops, "
          f"{raw['failed']} failed; report {run_dir.relative_to(ROOT) / 'report.json'}")
    for failure in raw["failures"]:
        print(f"  FAILED {failure}")
    print("  detail " + json.dumps(detail))
    return result


def self_check() -> int:
    """Every workload, both modes, a few ops at reduced size; validates the
    result objects against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = run(w["name"], seed=1, seconds=1, trace=trace, quick=True,
                         warmup=1, setup_spawns=2)
            where = f"{w['name']} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct ({result['failed']} of "
                                f"{result['attempted']} ops failed)")
            want = {m["name"]: m["unit"] for m in expected[trace]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if want != got:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if n in got and want[n] != got[n]]}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
                    problems.append(f"{where}: {name} = {m['value']!r}")
    for problem in problems:
        print(f"SELF-CHECK FAILED {problem}")
    print(json.dumps({"self_check": "failed" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qm1d benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly and validate the output")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
