"""Benchmark of the cola-forge engine: one workload, one process.

    python3 bench/run.py --workload spectral_scarcity --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Repeats the workload until ``--seconds`` are used, checks every row, and
prints each metric with its unit, the run's environment, and last a JSON line
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics that
BENCHMARK.json lists for the mode. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` alternates untraced and traced iterations and reports
the per-layer metrics and the tracing overhead. ``--workload all`` runs each
workload in its own process. README.md in this directory defines the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
DEFINITION = os.path.join(ROOT, "BENCHMARK.json")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
THREADS_ENV = "COLA_FORGE_THREADS"
IMPORT_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_BEYOND = 10
MAC_PARTS = ("base", "down", "up", "reverse", "grad_outer")
WORKLOAD_ORDER = ("spectral_scarcity", "strategy_grid", "wide_layer")


def unit_of(name: str) -> str:
    """Every metric's unit follows from its name."""
    fixed = {"cells_per_s": "1/s", "train_steps_per_s": "1/s", "peak_rss_mb": "MB",
             "eval_mse.mean": "mse"}
    if name in fixed:
        return fixed[name]
    if name.endswith(".calls") or ".model_macs." in name:
        return "count"
    if name.startswith("cell_ms.") or name.endswith("_ms.p50"):
        return "ms"
    if name.endswith(".us_per_step"):
        return "us"
    if name.endswith((".distinct_ratio", ".overlap")):
        return "ratio"
    return "s"


def pin_environment() -> None:
    """BLAS threads at 1 and the sweep pool at its default size; must run
    before numpy is imported."""
    os.environ.update(PINNED_ENV)
    os.environ.pop(THREADS_ENV, None)


def import_seconds() -> float:
    """Median wall time of fresh interpreters importing the engine: the
    process-start share of set-up, measured several times."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cola_forge"], env=env,
                       cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest of TAIL_PERCENTILES with at least
    TAIL_BEYOND samples beyond it, or None when there are too few samples."""
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            rank = pct / 100.0 * (len(ordered) - 1)
            low = int(rank)
            high = min(low + 1, len(ordered) - 1)
            return pct, ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
    return None


def environment(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    commit = "unknown"  # the benchmark may run from a tree without git metadata
    if os.path.exists(os.path.join(ROOT, ".git")):  # never a repository above ROOT
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                  capture_output=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
        "seed": seed,
        "commit": commit,
    }


@dataclass
class Iteration:
    """What one timed pass over a workload leaves behind. Rows are compared
    with the first pass's rows and then dropped, so the benchmark's own
    memory does not grow with the number of passes."""

    traced: bool
    wall: float
    setup: float  # iteration start to the first cell
    cell_s: list[float]
    completed: int  # cells that returned a row
    steps: int  # optimizer steps of those cells
    bad: set  # cells whose call raised or whose row is missing, non-finite or changed
    layers: tuple | None  # (per-layer metrics, per-function table) of a traced pass


def row_failures(calls, reference, reasons: set) -> set:
    """Cells of ``calls`` that fail: the call raised, the rows do not match
    the cells one for one, a loss or metric is not finite, or the row differs
    from the reference pass."""
    from workloads import is_finite_row

    bad = set()
    for call, ref in zip(calls, reference):
        if call.error is not None:
            bad.update(call.cells)
            reasons.add(f"call raised: {call.error}")
        elif sorted(call.rows) != sorted(call.cells):
            bad.update(call.cells)
            reasons.add("row count or keys differ from the cells attempted")
        else:
            for key, row in call.rows.items():
                if not is_finite_row(row):
                    bad.add(key)
                    reasons.add(f"non-finite loss or metric in {key}")
                elif ref.rows is None or ref.rows.get(key) != row:
                    bad.add(key)
                    reasons.add(f"row differs between iterations: {key}")
    return bad


def run_iteration(workload, plan, workdir: str, traced: bool, reference,
                  reasons: set) -> tuple[Iteration, list]:
    from tracing import Tracer

    # Untraced passes still time each cell, at the run_single boundary only.
    tracer = Tracer(None if traced else ["harness.run_single"])
    with tracer:
        start = time.perf_counter()
        result = workload.iterate(plan, workdir)
        end = time.perf_counter()
    cells = [s for s in tracer.spans if s[2] == "harness.run_single"]
    first = min((s[3] for s in cells), default=end)
    calls = workload.collect(plan, result, workdir)
    steps_of = {c.key: c.steps for c in plan.cells}
    done = [k for call in calls if call.rows for k in call.rows]
    return Iteration(
        traced=traced, wall=end - start, setup=first - start,
        cell_s=[s[4] - s[3] for s in cells], completed=len(done),
        steps=sum(steps_of.get(k, 0) for k in done),
        bad=row_failures(calls, reference or calls, reasons),
        layers=layer_metrics(plan, tracer) if traced else None), calls


def end_to_end(iterations: list[Iteration], reference, setup_import: float) -> dict:
    from workloads import eval_metric, is_finite_row

    cell_ms = [1000.0 * s for it in iterations for s in it.cell_s]
    evals = [eval_metric(row) for call in reference
             for row in (call.rows or {}).values() if is_finite_row(row)]
    return {
        "wall_s": statistics.median(it.wall for it in iterations),
        "setup_s": setup_import + statistics.median(it.setup for it in iterations),
        "cells_per_s": statistics.median(it.completed / it.wall for it in iterations),
        "train_steps_per_s": statistics.median(it.steps / it.wall for it in iterations),
        "cell_ms.mean": statistics.fmean(cell_ms) if cell_ms else None,
        "cell_ms.p50": statistics.median(cell_ms) if cell_ms else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_mse.mean": statistics.fmean(evals) if evals else None,
    }


def model_macs(plan) -> dict:
    """Analytic MACs of the planned cells: flop_breakdown(train_step) is per
    sample, so it is scaled by batch and steps (the row mac_count is not)."""
    from cola_forge import adapter

    totals = dict.fromkeys(MAC_PARTS, 0)
    for cell in plan.cells:
        parts = adapter.flop_breakdown(cell.config, "train_step")
        for part in MAC_PARTS:
            totals[part] += parts[part] * cell.batch * cell.steps
    return {f"adapter.model_macs.{p}": v for p, v in totals.items()}


def layer_metrics(plan, tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced iteration, and its per-function table."""
    from tracing import LAYERS, aggregate

    agg = aggregate(tracer.spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def get(name, field):
        return agg.get(name, zero)[field]

    svd_calls = get("linalg.svd", "calls")
    svd_ms = [1000.0 * d for d in tracer.durations("linalg.svd")]
    sweep_names = ("harness.scarcity_sweep", "harness.run_grid")
    sweep_ids = {s[0] for s in tracer.spans if s[2] in sweep_names}
    in_sweep = sum(s[4] - s[3] for s in tracer.spans
                   if s[2] == "harness.run_single" and s[1] in sweep_ids)
    sweep_s = sum(get(n, "s") for n in sweep_names)
    steps = sum(c.steps for c in plan.cells)
    out = {
        "linalg.svd.calls": svd_calls,
        "linalg.svd.distinct_ratio":
            len(set(tracer.digests["linalg.svd"])) / svd_calls if svd_calls else 0.0,
        "linalg.svd.s": get("linalg.svd", "s"),
        "linalg.svd.call_ms.p50": statistics.median(svd_ms) if svd_ms else 0.0,
        "initializers.pissa_extended.self_s": get("initializers.pissa_extended", "self_s"),
        "initializers.build_layer.calls": get("initializers.build_layer", "calls"),
        "initializers.build_layer.s": get("initializers.build_layer", "s"),
        "adapter.forward.calls": get("adapter.forward", "calls"),
        "adapter.forward.s": get("adapter.forward", "s"),
        "adapter.delta_weight_eval.s": get("adapter.delta_weight_eval", "s"),
        "training.backward.calls": get("training.backward", "calls"),
        "training.backward.s": get("training.backward", "s"),
        "training.optimizer_step.s": get("training.optimizer_step", "s"),
        "training.train_loop.self_s": get("training.train_loop", "self_s"),
        "training.train_loop.us_per_step":
            1e6 * get("training.train_loop", "s") / steps if steps else 0.0,
        "harness.run_single.calls": get("harness.run_single", "calls"),
        "harness.run_single.self_s": get("harness.run_single", "self_s"),
        "harness.sweep.s": sweep_s,
        "harness.sweep.overlap": in_sweep / sweep_s if sweep_s else 0.0,
        "harness.make_recovery_task.s": get("harness.make_recovery_task", "s"),
        "harness.write_rows.s":
            get("harness.write_rows_csv", "s") + get("harness.write_rows_json", "s"),
        "cli.load_config.s": get("cli.load_config", "s"),
        "cli.cmd_dispatch.self_s": get("cli.cmd_dispatch", "self_s"),
    }
    for layer in LAYERS:
        for field in ("calls", "s", "self_s"):
            out[f"{layer}.{field}"] = get(layer, field)
    return out, agg


def per_layer(plan, iterations: list[Iteration]) -> tuple[dict, dict]:
    """Median (an observed value) of each per-layer metric over the traced
    iterations, the analytic MACs, and the tracing overhead: median traced
    wall time minus median untraced wall time."""
    traced = [it for it in iterations if it.traced]
    per_it = [it.layers[0] for it in traced]
    metrics = {k: statistics.median_low(m[k] for m in per_it) for k in per_it[0]}
    metrics.update(model_macs(plan))
    metrics["trace.overhead_s"] = (
        statistics.median(it.wall for it in traced)
        - statistics.median(it.wall for it in iterations if not it.traced))
    return metrics, traced[0].layers[1]


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str,
            setup_import: float = 0.0) -> dict:
    """Run, check and summarize one workload; returns the result record.

    A cell fails in an iteration when its row fails :func:`row_failures` or
    the workload's checks, which run after the timed iterations on the first
    iteration's rows (later rows equal to them fail the same way)."""
    plan = workload.plan(seed)
    workload.prepare(plan, workdir)
    iterations: list[Iteration] = []
    reference = None
    reasons: set[str] = set()
    start = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 1
        it, calls = run_iteration(workload, plan, workdir, traced, reference, reasons)
        iterations.append(it)
        reference = reference or calls
        # Start another iteration only if it should end within the budget.
        expected = statistics.median(it.wall for it in iterations)
        enough = not trace or len(iterations) >= 2
        if enough and time.perf_counter() - start + expected > seconds:
            break
    checked = workload.checks(plan, reference)
    reasons.update(checked.values())
    attempted = len(plan.cells) * len(iterations)
    failed = sum(len(it.bad | set(checked)) for it in iterations)
    record = {"workload": workload.name, "iterations": len(iterations),
              "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted, "failures": sorted(reasons)}
    if trace:
        record["metrics"], record["functions"] = per_layer(plan, iterations)
    else:
        record["metrics"] = end_to_end(iterations, reference, setup_import)
        cell_ms = [1000.0 * s for it in iterations for s in it.cell_s]
        record["tail"] = tail(cell_ms)
        record["cells_timed"] = len(cell_ms)
    return record


def report(record: dict, env: dict, listed: list[str]) -> None:
    """Every metric by name with its unit, then the environment, then the
    result line with the metrics ``listed`` in BENCHMARK.json."""
    print(f"# {record['workload']}: {record['iterations']} iterations, seed {env['seed']}")
    for name, value in record["metrics"].items():
        print(f"{name:36s} {value!r:>24} {unit_of(name)}")
    if "tail" in record:
        found, n = record["tail"], record["cells_timed"]
        print(f"{'cell_ms.tail':36s} " + (
            f"omitted: {n} cells are too few" if found is None else
            f"{found[1]!r:>24} ms (p{found[0]:g} of {n} cells)"))
    print(f"{'failed_ratio':36s} {record['failed_ratio']!r:>24} ratio "
          f"({record['failed']} of {record['attempted']} cells)")
    for reason in record["failures"][:20]:
        print(f"failure: {reason}")
    for name, agg in sorted(record.get("functions", {}).items()):
        print(f"span {name:40s} calls {agg['calls']:>8} s {agg['s']:.6f} "
              f"self_s {agg['self_s']:.6f}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": record["metrics"][k], "unit": unit_of(k)}
                    for k in listed},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOAD_ORDER)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cola_forge", "__init__.py")):
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(DEFINITION, encoding="utf-8") as fh:
            definition = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {DEFINITION}: {exc}", file=sys.stderr)
        return 2
    pin_environment()
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_ORDER:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, check=False).returncode)
        return code
    if args.workload not in WORKLOAD_ORDER:
        parser.error(f"unknown workload {args.workload!r}")
    sys.path[:0] = [SRC, BENCH_DIR]
    import workloads

    setup_import = 0.0 if args.trace else import_seconds()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as workdir:
        record = measure(workloads.WORKLOADS[args.workload](), args.seed,
                         args.seconds, bool(args.trace), workdir, setup_import)
    listed = [m["name"] for m in definition["per_layer" if args.trace else "end_to_end"]]
    report(record, environment(args.seed), listed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
