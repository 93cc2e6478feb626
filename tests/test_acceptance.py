"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or in captured output) and
enforcing its stated tolerance and runtime budget."""

import time
from contextlib import contextmanager

import numpy as np

from cola_forge.checks import (
    criterion_1_param_percent,
    criterion_2_spectral_split,
    criterion_4_gradients,
    criterion_5_preset_forms,
    criterion_6_train_costs,
)
from cola_forge.cli import cmd_dispatch
from cola_forge.harness import (
    bundled_geometry,
    observation3_experiment,
    param_count,
    scarcity_experiment,
)
from cola_forge.initializers import eckart_young_error
from cola_forge.linalg import frobenius_norm, make_rng, svd


@contextmanager
def criterion(name: str, budget_s: float):
    """Print one pass/fail line per criterion and enforce its runtime cap."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    print(f"PASS {name} ({elapsed:.2f}s)")


def test_criterion_1_param_percent_reproduction():
    with criterion("criterion 1: %Param reproduction", budget_s=1.0):
        worst, case = criterion_1_param_percent()
        assert worst <= 0.005, case
        trainable, _ = param_count(bundled_geometry("llama31_8b"), 1, 1, 8)
        assert trainable == 20_971_520


def test_criterion_2_spectral_split_reconstruction():
    with criterion("criterion 2: principal-split reconstruction", budget_s=10.0):
        worst, case = criterion_2_spectral_split()
        assert worst <= 1e-10, f"{case}: {worst:.2e}"
        print(f"  worst relative reconstruction error: {worst:.2e}")


def test_criterion_3_optimal_rank_r_error():
    with criterion("criterion 3: truncation optimality", budget_s=30.0):
        rng = make_rng(654)
        for _ in range(10):
            n = int(rng.integers(6, 24))
            m = int(rng.integers(6, 24))
            rank = int(rng.integers(1, min(n, m)))
            w = rng.normal(size=(n, m))
            err = eckart_young_error(w, rank)
            tail = float(np.sqrt(np.sum(svd(w).s[rank:] ** 2)))
            assert abs(err - tail) <= 1e-10
            for _ in range(1000):
                cand = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m))
                assert err <= frobenius_norm(w - cand) + 1e-12


def test_criterion_4_gradient_suite():
    with criterion("criterion 4: gradient suite", budget_s=30.0):
        worst, case = criterion_4_gradients()
        assert worst <= 1e-6, f"{case}: {worst:.2e}"
        print(f"  worst relative gradient error: {worst:.2e}")


def test_criterion_5_preset_equivalences():
    with criterion("criterion 5: preset closed forms", budget_s=10.0):
        worst, case = criterion_5_preset_forms()
        assert worst <= 1e-12, f"{case}: {worst:.2e}"


def test_criterion_6_cost_ordering():
    with criterion("criterion 6: train-step cost ordering", budget_s=5.0):
        report = criterion_6_train_costs()
        for name, total in report.items():
            print(f"  {name}: {total} MACs per train step")
        assert report["random_ab"] < report["full"]
        assert report["random_ab"] <= report["heuristic"] <= report["full"]


def test_criterion_7_pool_count_suite_reported_with_ci():
    # Pilot-calibrated outcome: on this synthetic suite the (1,4)/(4,1)
    # ordering is not stable in the expected direction, so per the criterion's
    # own fallback the suite emits rows with a confidence interval and reports
    # the observed ordering instead of asserting it.
    with criterion("criterion 7: pool-count suite rows + CI + ordering report",
                   budget_s=300.0):
        result = observation3_experiment()
        rows = result["rows"]
        assert len(rows) == 10  # 2 cells x 5 seeds
        for row in rows:
            for name in ("step0_loss", "final_loss", "eval_metric"):
                assert np.isfinite(getattr(row, name))
        again = observation3_experiment()
        assert again["rows"] == rows  # reproducible
        mean = result["mean_eval_mse"]
        std = result["std_eval_mse"]
        print(f"  (M=1,N=4): eval MSE {mean['wide_up']:.4f} +/- {std['wide_up']:.4f}")
        print(f"  (M=4,N=1): eval MSE {mean['wide_down']:.4f} +/- {std['wide_down']:.4f}")
        direction = "<=" if result["wide_up_wins"] else ">"
        print(f"  observed ordering: (1,4) {direction} (4,1) "
              f"[reported, not asserted: pilot-calibrated fallback]")


def test_criterion_8_byte_identical_outputs(tmp_path):
    with criterion("criterion 8: grid/sweep byte determinism", budget_s=120.0):
        import json

        grid_config = tmp_path / "grid.json"
        grid_config.write_text(json.dumps({
            "command": "grid",
            "task": {"kind": "recovery", "n": 16, "m": 16, "base_seed": 4,
                     "components": 2, "noise_std": 0.05, "train_samples": 60,
                     "eval_samples": 60},
            "grid": {"rank": 4, "strategy": "full",
                     "a_counts": [1, 2], "b_counts": [1, 2]},
            "optimizer": {"kind": "adam", "lr": 0.01},
            "run": {"steps": 10, "batch": 8, "seeds": [42, 43]},
        }))
        sweep_config = tmp_path / "sweep.json"
        sweep_config.write_text(json.dumps({
            "command": "sweep",
            "task": {"kind": "recovery", "n": 16, "m": 16, "base_seed": 5,
                     "components": 2, "noise_std": 0.05, "train_samples": 80,
                     "eval_samples": 60, "source_noise_std": 0.01},
            "sweep": {"sizes": [20, 40], "init_kinds": ["pissa", "gaussian_zero"],
                      "configs": [{"rank": 4, "a_count": 1, "b_count": 3,
                                   "strategy": "full"}]},
            "optimizer": {"kind": "adam", "lr": 0.01},
            "run": {"steps": 10, "batch": 8, "seeds": [42, 43]},
        }))
        for name, config in [("grid", grid_config), ("sweep", sweep_config)]:
            out1 = tmp_path / f"{name}1.csv"
            out2 = tmp_path / f"{name}2.csv"
            assert cmd_dispatch([name, "--config", str(config),
                                 "--out", str(out1)]) == 0
            assert cmd_dispatch([name, "--config", str(config),
                                 "--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()
            assert (tmp_path / f"{name}1.json").read_bytes() == \
                (tmp_path / f"{name}2.json").read_bytes()


def test_criterion_9_spectral_init_step0_advantage():
    with criterion("criterion 9: spectral-init step-0 advantage", budget_s=300.0):
        result = scarcity_experiment()
        comparisons = result["comparisons"]
        assert len(comparisons) == 4 * 2 * 5  # sizes x configs x seeds
        for comp in comparisons:
            assert comp["pissa"] <= comp["gaussian_zero"], comp
        assert result["pissa_always_leq"]
        worst_gap = min(c["gaussian_zero"] - c["pissa"] for c in comparisons)
        print(f"  step-0 loss gap (gaussian_zero - pissa), minimum over "
              f"{len(comparisons)} cells: {worst_gap:.4f}")
