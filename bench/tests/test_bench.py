"""Tests of the benchmark itself: failure accounting, traced counts, output
checks. Run with ``python3 -m pytest bench/tests``; each test uses shrunken
workloads so the file runs in seconds."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import workloads  # noqa: E402
from cola_forge import harness  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DEFINITION = json.load(_fh)


def small_wide():
    return workloads.WideLayer(n=16, rank=4, tasks=3, steps=5, batch=4)


def small_scarcity():
    return workloads.SpectralScarcity(n=8, rank=2, sizes=(10, 20), seeds=2, steps=3)


def small_grid():
    return workloads.StrategyGrid(n=8, rank=2, counts=(1, 2), seeds=1, steps=2)


def inject(monkeypatch, raise_seed=None, nan_seed=None):
    """Make run_single's training raise for one run seed and report a NaN
    final loss for another."""
    real = harness.train_loop

    def train_loop(task, layer, optimizer, steps, batch, rng, seed=0):
        if seed == raise_seed:
            raise RuntimeError("injected failure")
        report = real(task, layer, optimizer, steps, batch, rng, seed=seed)
        if seed == nan_seed:
            report = dataclasses.replace(report, final_loss=float("nan"))
        return report

    monkeypatch.setattr(harness, "train_loop", train_loop)


def test_failed_cells_are_counted_and_metrics_still_reported(monkeypatch, tmp_path):
    workload = small_wide()
    cells = workload.plan(3).cells
    inject(monkeypatch, raise_seed=cells[0].run_seed, nan_seed=cells[2].run_seed)
    record = run.measure(workload, 3, 0.0, False, str(tmp_path))
    assert record["attempted"] == len(cells)
    assert record["failed"] == 2
    assert record["failed_ratio"] == pytest.approx(2 / len(cells))
    assert any("injected failure" in r for r in record["failures"])
    assert any("non-finite" in r for r in record["failures"])
    for metric in DEFINITION["end_to_end"]:
        assert math.isfinite(record["metrics"][metric["name"]]), metric


def test_sweep_that_raises_fails_all_of_its_cells(monkeypatch, tmp_path):
    workload = small_scarcity()
    cells = workload.plan(5).cells
    inject(monkeypatch, raise_seed=cells[3].run_seed)
    record = run.measure(workload, 5, 0.0, False, str(tmp_path))
    assert record["attempted"] == record["failed"] == len(cells)


@pytest.mark.parametrize("make", [small_scarcity, small_grid, small_wide])
def test_workloads_pass_their_checks(make, tmp_path):
    record = run.measure(make(), 7, 0.0, False, str(tmp_path))
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] == len(make().plan(7).cells)


def test_check_catches_a_row_that_differs_from_its_rerun():
    workload = small_wide()
    plan = workload.plan(2)
    rerun = plan.cells[plan.rerun]
    calls = [workloads.Call(cells=[c.key], rows=None) for c in plan.cells]
    calls[rerun.call].rows = {rerun.key: ("0",) * len(harness.CSV_HEADER)}
    assert rerun.key in workload.checks(plan, calls)


def test_traced_counts_follow_the_workload_definitions(tmp_path):
    scarcity = run.measure(small_scarcity(), 1, 0.0, True, str(tmp_path))["metrics"]
    pissa_cells = 2 * 2 * 2  # sizes x configs x seeds
    assert scarcity["linalg.svd.calls"] == pissa_cells
    assert scarcity["linalg.svd.distinct_ratio"] == pytest.approx(1 / pissa_cells)
    assert scarcity["harness.run_single.calls"] == 16
    assert scarcity["harness.sweep.overlap"] > 0

    grid = run.measure(small_grid(), 1, 0.0, True, str(tmp_path))["metrics"]
    assert grid["linalg.svd.calls"] == 0
    assert grid["harness.run_single.calls"] == 15  # heuristic skips (2, 1)
    assert grid["cli.load_config.s"] > 0

    wide = run.measure(small_wide(), 1, 0.0, True, str(tmp_path))["metrics"]
    assert wide["linalg.svd.calls"] == 3
    assert wide["linalg.svd.distinct_ratio"] == 1.0
    assert wide["harness.sweep.s"] == 0
    assert wide["adapter.model_macs.base"] == 6 * 16 * 16 * 4 * 5


def test_pool_cells_are_children_of_their_sweep(tmp_path):
    from tracing import Tracer

    workload = small_scarcity()
    plan = workload.plan(1)
    original = harness.run_single
    with Tracer() as tracer:
        workload.iterate(plan, str(tmp_path))
    sweep = [s[0] for s in tracer.spans if s[2] == "harness.scarcity_sweep"]
    cells = [s for s in tracer.spans if s[2] == "harness.run_single"]
    assert len(sweep) == 1 and len(cells) == len(plan.cells)
    assert {s[1] for s in cells} == set(sweep)
    assert harness.run_single is original  # leaving the tracer restores names


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 99) is None
    pct, value = run.tail([float(i) for i in range(100)])
    assert pct == 90.0 and value == pytest.approx(89.1)
    assert run.tail([float(i) for i in range(1000)])[0] == 99.0


def test_definition_units_match_the_metric_names():
    for metric in DEFINITION["end_to_end"] + DEFINITION["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "wide_layer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
