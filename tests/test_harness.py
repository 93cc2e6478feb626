import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cola_forge import cli, harness
from cola_forge.adapter import CoLAConfig, ConfigError, Strategy
from cola_forge.harness import (
    CSV_HEADER,
    ClassifyTaskSpec,
    ModelGeometry,
    ModuleDim,
    RecoveryTaskSpec,
    bundled_geometry,
    grid_cell_seed,
    load_geometry,
    make_classification_task,
    make_recovery_task,
    param_count,
    run_grid,
    run_single,
    scarcity_sweep,
    sweep_cell_seed,
    write_rows_csv,
    write_rows_json,
)
from cola_forge.initializers import GAUSSIAN_ZERO, INIT_KINDS, PISSA, eckart_young_error
from cola_forge.linalg import ShapeError, derive_seed, gaussian_matrix, make_rng, svd


class TestRecoveryTask:
    def spec(self, **kw):
        base = dict(n=12, m=10, base_seed=3, components=2, noise_std=0.0,
                    train_samples=50, eval_samples=40)
        base.update(kw)
        return RecoveryTaskSpec(**base)

    def test_exact_target_gives_zero_eval_mse(self):
        task = make_recovery_task(self.spec(), make_rng(1))
        w_true = task.w_base + task.delta_target
        pred = w_true @ task.x_eval
        assert np.mean((pred - task.y_eval) ** 2) == 0.0

    def test_single_component_is_rank_one(self):
        task = make_recovery_task(self.spec(components=1), make_rng(2))
        s = svd(task.delta_target).s
        assert s[1] / s[0] <= 1e-10

    def test_shared_downspace_collapses_row_space(self):
        task = make_recovery_task(self.spec(components=3, shared_downspace=True),
                                  make_rng(3))
        s = svd(task.delta_target).s
        assert s[0] > 0.0
        assert s[1] / s[0] <= 1e-10  # all v_k span one direction

    def test_distinct_components_have_higher_rank(self):
        task = make_recovery_task(self.spec(components=3), make_rng(3))
        s = svd(task.delta_target).s
        assert s[2] / s[0] > 1e-6

    def test_same_seed_identical(self):
        a = make_recovery_task(self.spec(noise_std=0.1), make_rng(5))
        b = make_recovery_task(self.spec(noise_std=0.1), make_rng(5))
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)
        assert np.array_equal(a.pissa_source, b.pissa_source)

    def test_noise_perturbs_targets(self):
        clean = make_recovery_task(self.spec(), make_rng(6))
        noisy = make_recovery_task(self.spec(noise_std=0.5), make_rng(6))
        w_true = noisy.w_base + noisy.delta_target
        residual = noisy.y_train - w_true @ noisy.x_train
        assert clean.y_train.shape == noisy.y_train.shape
        assert 0.3 <= residual.std() <= 0.7

    def test_subsample_prefix(self):
        task = make_recovery_task(self.spec(), make_rng(7))
        sub = task.subsample(10)
        assert sub.train_size == 10
        assert np.array_equal(sub.x_train, task.x_train[:, :10])
        assert np.array_equal(sub.y_train, task.y_train[:, :10])
        assert task.train_size == 50  # original untouched

    def test_subsample_size_is_at_most_the_training_set(self):
        task = make_recovery_task(self.spec(), make_rng(7))
        assert task.subsample(50) is task
        for size, bound in ((0, ">= 1"), (51, "<= 50")):
            with pytest.raises(ValueError, match=f"^subsample size must be {bound}, got {size}$"):
                task.subsample(size)


def linear_probe_accuracy(task):
    """Least-squares one-hot probe, an adapter-free reference classifier."""
    x, labels = task.x_train, task.y_train
    onehot = np.zeros((task.out_dim, labels.size))
    onehot[labels, np.arange(labels.size)] = 1.0
    w, *_ = np.linalg.lstsq(x.T, onehot.T, rcond=None)
    pred = np.argmax(w.T @ task.x_eval, axis=0)
    return float(np.mean(pred == task.y_eval))


class TestClassificationTask:
    def test_separated_clusters_probe_accuracy(self):
        spec = ClassifyTaskSpec(clusters=4, input_dim=16, samples_per_cluster=40,
                                backbone_seed=9, label_noise=0.0, separation=8.0)
        task = make_classification_task(spec, make_rng(11))
        assert linear_probe_accuracy(task) >= 0.99

    def test_balanced_two_clusters(self):
        spec = ClassifyTaskSpec(clusters=2, input_dim=8, samples_per_cluster=30,
                                backbone_seed=9)
        task = make_classification_task(spec, make_rng(12))
        counts = np.bincount(task.y_train, minlength=2)
        assert counts[0] == counts[1] == 30  # majority baseline is exactly 0.5

    def test_same_seed_identical(self):
        spec = ClassifyTaskSpec(clusters=3, input_dim=10, samples_per_cluster=20,
                                backbone_seed=9, label_noise=0.2)
        a = make_classification_task(spec, make_rng(13))
        b = make_classification_task(spec, make_rng(13))
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)

    def test_label_noise_flips_labels(self):
        spec = ClassifyTaskSpec(clusters=3, input_dim=10, samples_per_cluster=200,
                                backbone_seed=9, label_noise=0.3)
        task = make_classification_task(spec, make_rng(14))
        clean = np.repeat(np.arange(3), 200)
        rate = np.mean(task.y_train != clean)
        assert 0.2 <= rate <= 0.4

    def test_validation(self):
        with pytest.raises(ValueError, match="clusters"):
            ClassifyTaskSpec(clusters=1, input_dim=8, samples_per_cluster=5,
                             backbone_seed=0)
        with pytest.raises(ValueError, match="label_noise"):
            ClassifyTaskSpec(clusters=2, input_dim=8, samples_per_cluster=5,
                             backbone_seed=0, label_noise=1.5)

    @pytest.mark.parametrize("separation", [float("nan"), -6.0, 0.0])
    def test_separation_must_be_positive(self, separation):
        # a NaN separation would make NaN centers, which only training noticed
        with pytest.raises(ValueError, match="separation must be positive"):
            ClassifyTaskSpec(clusters=3, input_dim=8, samples_per_cluster=10,
                             backbone_seed=1, separation=separation)

    def test_adapter_training_improves_accuracy(self):
        spec = ClassifyTaskSpec(clusters=4, input_dim=16, samples_per_cluster=40,
                                backbone_seed=9, separation=8.0)
        task = make_classification_task(spec, make_rng(15))
        cfg = CoLAConfig(in_dim=16, out_dim=4, rank=3, a_count=1, b_count=2,
                         strategy=Strategy.FULL)
        row, _ = run_single(task, cfg, GAUSSIAN_ZERO, 42, steps=300, lr=1e-2)
        assert row.eval_metric >= 0.95  # accuracy for classify tasks


@pytest.mark.parametrize("spec, field, value, message", [
    (RecoveryTaskSpec, "n", 0, "n must be >= 1, got 0"),
    (RecoveryTaskSpec, "m", -3, "m must be >= 1, got -3"),
    (RecoveryTaskSpec, "components", True, "components must be an integer, got True"),
    (RecoveryTaskSpec, "train_samples", 2.5, "train_samples must be an integer, got 2.5"),
    (RecoveryTaskSpec, "eval_samples", 0, "eval_samples must be >= 1, got 0"),
    (ClassifyTaskSpec, "clusters", 2.5, "clusters must be an integer, got 2.5"),
    (ClassifyTaskSpec, "input_dim", True, "input_dim must be an integer, got True"),
    (ClassifyTaskSpec, "samples_per_cluster", 0, "samples_per_cluster must be >= 1, got 0"),
    (RecoveryTaskSpec, "n", math.inf, "n must be an integer, got inf"),
    (RecoveryTaskSpec, "m", "1", "m must be an integer, got '1'"),
    (RecoveryTaskSpec, "noise_std", True, "noise_std must be a real number, got True"),
    (RecoveryTaskSpec, "noise_std", math.inf,
     "noise_std must be a finite real in [0, inf], got inf"),
    (RecoveryTaskSpec, "noise_std", "1", "noise_std must be a real number, got '1'"),
    (RecoveryTaskSpec, "source_noise_std", True,
     "source_noise_std must be a real number, got True"),
    (RecoveryTaskSpec, "source_noise_std", math.inf,
     "source_noise_std must be a finite real in [0, inf], got inf"),
    (RecoveryTaskSpec, "source_noise_std", -0.5,
     "source_noise_std must be a finite real in [0, inf], got -0.5"),
    (ClassifyTaskSpec, "label_noise", 2.5, "label_noise must be a finite real in [0, 1], got 2.5"),
    (ClassifyTaskSpec, "label_noise", True, "label_noise must be a real number, got True"),
    (ClassifyTaskSpec, "label_noise", math.inf,
     "label_noise must be a finite real in [0, 1], got inf"),
    (ClassifyTaskSpec, "label_noise", math.nan,
     "label_noise must be a finite real in [0, 1], got nan"),
    (ClassifyTaskSpec, "label_noise", "1", "label_noise must be a real number, got '1'"),
    (ClassifyTaskSpec, "separation", True, "separation must be a real number, got True"),
    (ClassifyTaskSpec, "separation", math.inf, "separation must be finite, got inf"),
    (ClassifyTaskSpec, "separation", "1", "separation must be a real number, got '1'"),
    (RecoveryTaskSpec, "base_seed", 2.5, "base_seed must be an integer, got 2.5"),
    (RecoveryTaskSpec, "base_seed", True, "base_seed must be an integer, got True"),
    (RecoveryTaskSpec, "base_seed", -1, "base_seed must be >= 0, got -1"),
    (ClassifyTaskSpec, "backbone_seed", 2.5, "backbone_seed must be an integer, got 2.5"),
    (ClassifyTaskSpec, "backbone_seed", True, "backbone_seed must be an integer, got True"),
    (ClassifyTaskSpec, "backbone_seed", -1, "backbone_seed must be >= 0, got -1"),
    (ClassifyTaskSpec, "input_dim", 2, "input_dim must be >= 3, got 2"),
], ids=["n-zero", "m-negative", "components-bool", "train_samples-fractional",
        "eval_samples-zero", "clusters-fractional", "input_dim-bool", "samples_per_cluster-zero",
        "n-inf", "m-str", "noise_std-bool", "noise_std-inf", "noise_std-str",
        "source_noise_std-bool", "source_noise_std-inf", "source_noise_std-negative",
        "label_noise-above-one", "label_noise-bool", "label_noise-inf", "label_noise-nan",
        "label_noise-str", "separation-bool", "separation-inf", "separation-str",
        "base_seed-fractional", "base_seed-bool", "base_seed-negative",
        "backbone_seed-fractional", "backbone_seed-bool", "backbone_seed-negative",
        "input_dim-below-clusters"])
def test_a_task_spec_names_a_bad_count(spec, field, value, message):
    # n=0 once raised "ShapeError: invalid matrix shape (0, 4)", and
    # train_samples=2.5 or clusters=2.5 a bare TypeError; an infinite
    # noise_std or separation was accepted and training reported it as
    # a DivergenceError; a fractional, boolean or negative seed was accepted
    # until the task was built
    fields = (dict(n=4, m=4, base_seed=1) if spec is RecoveryTaskSpec else
              dict(clusters=3, input_dim=8, samples_per_cluster=10, backbone_seed=1))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
        spec(**{**fields, field: value})
    assert caught.type is ValueError


def test_a_task_spec_takes_each_bound_itself():
    assert ClassifyTaskSpec(clusters=3, input_dim=3, samples_per_cluster=1,
                            backbone_seed=0).input_dim == 3
    assert RecoveryTaskSpec(n=1, m=1, base_seed=0).base_seed == 0


ILLEGAL_COUNTS = (2.5, True, math.inf, math.nan, "1")


def integer_cases(entry, call, name, error=ValueError):
    """One case per illegal count: ``call(value)`` must raise exactly ``error``
    saying that ``name`` must be an integer."""
    return [pytest.param(call, value, error, f"{name} must be an integer, got {value!r}",
                         id=f"{entry}-{value!r}") for value in ILLEGAL_COUNTS]


def one_module_geometry(**fields):
    return ModelGeometry(**{"name": "tiny", "base_params": 1000, "layers": 2,
                            "modules": (ModuleDim("q_proj", 8, 16),), **fields})


@pytest.mark.parametrize("call, value, error, message", [
    *integer_cases("make_rng", make_rng, "seed"),
    *integer_cases("gaussian_matrix-rows", lambda v: gaussian_matrix(v, 2, 1.0, make_rng(0)),
                   "rows", ShapeError),
    *integer_cases("gaussian_matrix-cols", lambda v: gaussian_matrix(2, v, 1.0, make_rng(0)),
                   "cols", ShapeError),
    *integer_cases("derive_seed-seed", lambda v: derive_seed(v, 1), "seed"),
    *integer_cases("derive_seed-part", lambda v: derive_seed(1, 2, v), "seed part 1"),
    *integer_cases("ModuleDim-n", lambda v: ModuleDim("q_proj", v, 4), "n"),
    *integer_cases("ModuleDim-m", lambda v: ModuleDim("q_proj", 4, v), "m"),
    *integer_cases("ModelGeometry-base_params", lambda v: one_module_geometry(base_params=v),
                   "base_params"),
    *integer_cases("ModelGeometry-layers", lambda v: one_module_geometry(layers=v), "layers"),
    *integer_cases("eckart_young_error", lambda v: eckart_young_error(np.eye(3), v), "r"),
    *integer_cases("Task.subsample", lambda v: grid_task().subsample(v), "subsample size"),
    *integer_cases("run_grid-seeds", lambda v: run_grid(grid_task(), 4, Strategy.FULL, [1], [1],
                                                        seeds=[v], steps=5), "seed"),
    pytest.param(lambda v: gaussian_matrix(2, 2, v, make_rng(0)), True, ValueError,
                 "std must be a real number, got True", id="gaussian_matrix-std-True"),
    pytest.param(lambda v: gaussian_matrix(2, 2, v, make_rng(0)), math.inf, ValueError,
                 "std must be finite, got inf", id="gaussian_matrix-std-inf"),
    pytest.param(lambda v: gaussian_matrix(2, 2, v, make_rng(0)), "1", ValueError,
                 "std must be a real number, got '1'", id="gaussian_matrix-std-'1'"),
    pytest.param(lambda v: gaussian_matrix(v, 2, 1.0, make_rng(0)), 0, ShapeError,
                 "rows must be >= 1, got 0", id="gaussian_matrix-rows-0"),
    pytest.param(lambda v: ModuleDim("q_proj", v, 4), 0, ValueError,
                 "n must be >= 1, got 0", id="ModuleDim-n-0"),
    pytest.param(lambda v: one_module_geometry(base_params=v), -1, ValueError,
                 "base_params must be >= 1, got -1", id="ModelGeometry-base_params--1"),
    pytest.param(lambda v: eckart_young_error(np.eye(3), v), 4, ValueError,
                 "r must be <= 3, got 4", id="eckart_young_error-4"),
])
def test_an_illegal_value_is_named(monkeypatch, call, value, error, message):
    # make_rng(True) was seed 1, ModelGeometry(layers=2.5) made param_count
    # return 40.0, derive_seed(1, 2.5) equalled derive_seed(1, 2), and
    # eckart_young_error(w, 2.5), Task.subsample(2.5) and
    # run_grid(seeds=[2.5]) raised a bare TypeError
    forbid_training(monkeypatch)
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call(value)
    assert caught.type is error


class TestGeometry:
    def test_bundled_files_load(self):
        for name, layers in [("llama31_8b", 32), ("llama32_3b", 28)]:
            geo = bundled_geometry(name)
            assert geo.layers == layers
            assert len(geo.modules) == 7

    def test_module_names_validated(self):
        with pytest.raises(ValueError, match="^module name must be one of .*, got 'lm_head'$"):
            ModelGeometry(name="x", base_params=10, layers=1,
                          modules=(ModuleDim("lm_head", 4, 4),))

    def test_load_geometry_roundtrip(self, tmp_path):
        path = tmp_path / "geo.json"
        path.write_text(json.dumps({
            "name": "tiny", "base_params": 1000, "layers": 2,
            "modules": [{"name": "q_proj", "n": 8, "m": 8}],
        }))
        geo = load_geometry(str(path))
        assert geo.modules[0] == ModuleDim("q_proj", 8, 8)

    def test_load_geometry_missing_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "tiny", "layers": 2, "modules": []}))
        with pytest.raises(ValueError, match="base_params"):
            load_geometry(str(path))

    def test_param_count_brute_force_oracle(self):
        for name in ("llama31_8b", "llama32_3b"):
            geo = bundled_geometry(name)
            for a_count, b_count, rank in [(1, 1, 8), (1, 3, 8), (2, 3, 8), (1, 1, 64)]:
                expected = 0
                for _ in range(geo.layers):
                    for mod in geo.modules:
                        for _ in range(a_count):
                            expected += rank * mod.m
                        for _ in range(b_count):
                            expected += mod.n * rank
                trainable, percent = param_count(geo, a_count, b_count, rank)
                assert trainable == expected
                assert percent == pytest.approx(
                    100.0 * expected / (geo.base_params + expected), abs=0.0)

    @pytest.mark.parametrize("a_count, b_count, rank", [
        (True, 1, 8), (1, 2.5, 8), (1, 0, 8), (1, 1, 9),
    ], ids=["bool", "fractional", "zero", "rank-above-dims"])
    def test_param_count_refuses_what_colaconfig_refuses(self, a_count, b_count, rank):
        # a bool count was accepted, and rank=2.5 gave a fractional count
        geo = ModelGeometry(name="tiny", base_params=1000, layers=2,
                            modules=(ModuleDim("q_proj", 8, 16),))
        with pytest.raises(ConfigError):
            param_count(geo, a_count, b_count, rank)

    def test_known_trainable_count(self):
        geo = bundled_geometry("llama31_8b")
        trainable, _ = param_count(geo, 1, 1, 8)
        assert trainable == 20_971_520

    @pytest.mark.parametrize("name,a_count,b_count,rank,published", [
        ("llama31_8b", 1, 1, 16, 0.5196),
        ("llama31_8b", 1, 1, 24, 0.7774),
        ("llama31_8b", 1, 1, 32, 1.0338),
        ("llama31_8b", 1, 14, 8, 2.0026),
        ("llama31_8b", 4, 10, 8, 1.8330),
        ("llama32_3b", 1, 1, 16, 0.7511),
        ("llama32_3b", 1, 1, 24, 1.1224),
        ("llama32_3b", 1, 1, 32, 1.4910),
        ("llama32_3b", 1, 3, 8, 0.7581),
        ("llama32_3b", 2, 3, 8, 0.9406),
    ])
    def test_published_percentages(self, name, a_count, b_count, rank, published):
        _, percent = param_count(bundled_geometry(name), a_count, b_count, rank)
        assert round(percent, 4) == published


def forbid_training(monkeypatch):
    """Make any cell that starts training fail the test."""
    def train_loop(*args, **kwargs):
        raise AssertionError("a cell trained before every cell was checked")

    monkeypatch.setattr(harness, "train_loop", train_loop)


def grid_task():
    spec = RecoveryTaskSpec(n=16, m=16, base_seed=4, components=2, noise_std=0.05,
                            train_samples=60, eval_samples=60)
    return make_recovery_task(spec, make_rng(4))


UNKNOWN_INIT_RUNS = {
    "run_single": lambda task, config: run_single(task, config, "xavier", 42, 5),
    "run_grid": lambda task, config: run_grid(task, 4, Strategy.FULL, [1, 2], [1],
                                              seeds=(42,), steps=5, init_kind="xavier"),
    "scarcity_sweep": lambda task, config: scarcity_sweep(
        task, [20], [GAUSSIAN_ZERO, "xavier"], [config], seeds=(42,), steps=5),
}


@pytest.mark.parametrize("run", list(UNKNOWN_INIT_RUNS))
def test_unknown_init_kind_is_rejected_before_any_cell_trains(monkeypatch, run):
    forbid_training(monkeypatch)
    message = re.escape(f"init kind must be one of {INIT_KINDS}, got 'xavier'")
    with pytest.raises(ValueError, match=message):
        UNKNOWN_INIT_RUNS[run](grid_task(), CoLAConfig(in_dim=16, out_dim=16, rank=4))


def test_a_bad_run_seed_is_refused_before_any_cell_trains(monkeypatch, tmp_path, capsys):
    # `cola-forge train` trained seed 42 and only then refused -1
    forbid_training(monkeypatch)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "task": {"kind": "recovery", "n": 16, "m": 16, "base_seed": 4,
                 "train_samples": 20, "eval_samples": 20},
        "adapter": {"rank": 4}, "run": {"steps": 5, "seeds": [42, -1]}}))
    assert cli.cmd_dispatch(["train", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_a_negative_run_seed_is_named(monkeypatch):
    forbid_training(monkeypatch)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_single(grid_task(), CoLAConfig(in_dim=16, out_dim=16, rank=4), GAUSSIAN_ZERO,
                   -1, 5)


class TestRunGrid:
    def test_row_counting(self):
        result = run_grid(grid_task(), 4, Strategy.FULL, [1, 2], [1, 2],
                          seeds=(42, 43, 44), steps=5)
        assert len(result.rows) == 12
        assert result.skipped == []

    def test_cell_matches_standalone_run(self):
        task = grid_task()
        result = run_grid(task, 4, Strategy.FULL, [1, 2], [1, 2],
                          seeds=(42,), steps=10)
        cell = next(r for r in result.rows if (r.M, r.N) == (1, 1))
        cfg = CoLAConfig(in_dim=16, out_dim=16, rank=4, a_count=1, b_count=1,
                         strategy=Strategy.FULL)
        standalone, _ = run_single(task, cfg, GAUSSIAN_ZERO,
                                   grid_cell_seed(42, 1, 1), 10, echo_seed=42)
        assert standalone == cell  # bit-for-bit, dataclass equality

    def test_heuristic_skips_undefined_cells(self):
        result = run_grid(grid_task(), 4, Strategy.HEURISTIC, [1, 2, 3], [1, 2],
                          seeds=(42,), steps=2)
        assert set(result.skipped) == {(2, 1), (3, 1), (3, 2)}
        assert len(result.rows) == 3  # (1,1), (1,2), (2,2)

    def test_repeated_seed_is_rejected_before_any_cell_trains(self, monkeypatch):
        forbid_training(monkeypatch)
        with pytest.raises(ValueError, match="two cells share the row key .*'seed': 42"):
            run_grid(grid_task(), 4, Strategy.FULL, [1, 2], [1], seeds=(42, 42), steps=5)

    def test_rows_sorted_and_finite(self):
        result = run_grid(grid_task(), 4, Strategy.RANDOM_AB, [2, 1], [2, 1],
                          seeds=(43, 42), steps=5)
        keys = [(r.M, r.N, r.seed) for r in result.rows]
        assert keys == sorted(keys)
        for row in result.rows:
            for name in ("step0_loss", "final_loss", "eval_metric"):
                assert np.isfinite(getattr(row, name))


class TestScarcitySweep:
    def sweep_task(self):
        spec = RecoveryTaskSpec(n=16, m=16, base_seed=5, components=2,
                                noise_std=0.05, train_samples=80, eval_samples=60,
                                source_noise_std=0.01)
        return make_recovery_task(spec, make_rng(5))

    def configs(self):
        return [
            CoLAConfig(in_dim=16, out_dim=16, rank=4, a_count=1, b_count=3,
                       strategy=Strategy.FULL),
            CoLAConfig(in_dim=16, out_dim=16, rank=4, a_count=2, b_count=3,
                       strategy=Strategy.FULL),
        ]

    def test_row_counting(self):
        rows = scarcity_sweep(self.sweep_task(), [20, 40], [PISSA, GAUSSIAN_ZERO],
                              self.configs(), seeds=(42, 43), steps=5)
        assert len(rows) == 2 * 2 * 2 * 2

    @pytest.mark.parametrize("sizes, alphas", [([10, 10], [None]), ([10], [None, 8.0])])
    def test_repeated_row_key_is_rejected_before_any_cell_trains(self, monkeypatch,
                                                                 sizes, alphas):
        forbid_training(monkeypatch)
        configs = [CoLAConfig(in_dim=16, out_dim=16, rank=4, alpha=alpha) for alpha in alphas]
        with pytest.raises(ValueError, match="two cells share the row key .*'sample_size': 10"):
            scarcity_sweep(self.sweep_task(), sizes, [GAUSSIAN_ZERO], configs, seeds=(42,))

    def test_seed_column_unique_within_cell(self):
        rows = scarcity_sweep(self.sweep_task(), [20], [GAUSSIAN_ZERO],
                              self.configs(), seeds=(42, 43, 44), steps=2)
        cells = {}
        for row in rows:
            cells.setdefault((row.sample_size, row.init, row.M, row.N), []).append(row.seed)
        for seeds in cells.values():
            assert len(seeds) == len(set(seeds))

    def test_spectral_step0_never_worse(self):
        rows = scarcity_sweep(self.sweep_task(), [20, 40, 80],
                              [PISSA, GAUSSIAN_ZERO], self.configs(),
                              seeds=(42, 43), steps=2)
        by_cell = {}
        for row in rows:
            by_cell.setdefault((row.sample_size, row.M, row.N, row.seed),
                               {})[row.init] = row.step0_loss
        for losses in by_cell.values():
            assert losses[PISSA] <= losses[GAUSSIAN_ZERO]

    def test_row_reproducible_from_echoed_fields(self):
        task = self.sweep_task()
        rows = scarcity_sweep(task, [20], [PISSA], self.configs()[:1],
                              seeds=(42,), steps=8)
        row = rows[0]
        cfg = self.configs()[0]
        redone, _ = run_single(task, cfg, row.init,
                               sweep_cell_seed(row.seed, row.sample_size, row.init, cfg),
                               8, sample_size=row.sample_size, echo_seed=row.seed)
        assert redone == row

    def test_sample_subsets_nest(self):
        task = self.sweep_task()
        assert np.array_equal(task.subsample(20).x_train,
                              task.subsample(40).x_train[:, :20])


@st.composite
def small_runs(draw):
    """(task, command, arguments, training settings): a tiny recovery or
    classification task and a ``run_grid`` or ``scarcity_sweep`` call on it."""
    seed = draw(st.integers(0, 99))
    if draw(st.booleans()):
        task = make_recovery_task(RecoveryTaskSpec(
            n=draw(st.integers(2, 6)), m=draw(st.integers(2, 6)), base_seed=seed,
            components=draw(st.integers(1, 2)), noise_std=0.05,
            train_samples=draw(st.integers(2, 10)), eval_samples=4, source_noise_std=0.01),
            make_rng(seed))
    else:
        clusters = draw(st.integers(2, 3))
        task = make_classification_task(ClassifyTaskSpec(
            clusters=clusters, input_dim=draw(st.integers(clusters, 5)),
            samples_per_cluster=draw(st.integers(1, 4)), backbone_seed=seed,
            label_noise=0.1), make_rng(seed))
    train = {"steps": draw(st.integers(0, 6)), "batch": draw(st.integers(1, 5)),
             "optimizer": draw(st.sampled_from(["sgd", "adam"])),
             "lr": draw(st.sampled_from([1e-3, 1e-2]))}
    seeds = draw(st.lists(st.integers(0, 99), min_size=1, max_size=2, unique=True))
    ranks = st.integers(1, min(task.in_dim, task.out_dim))
    counts = st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True)
    if draw(st.booleans()):
        return task, "grid", {
            "rank": draw(ranks), "strategy": draw(st.sampled_from(list(Strategy))),
            "m_range": draw(counts), "n_range": draw(counts),
            "init_kind": draw(st.sampled_from(INIT_KINDS)), "seeds": seeds}, train

    @st.composite
    def shapes(draw):
        strategy = draw(st.sampled_from(list(Strategy)))
        a_count = draw(st.integers(1, 3))
        b_count = draw(st.integers(a_count if strategy is Strategy.HEURISTIC else 1, 3))
        return strategy, a_count, b_count, draw(ranks)

    configs = [CoLAConfig(in_dim=task.in_dim, out_dim=task.out_dim, rank=rank,
                          a_count=a_count, b_count=b_count, strategy=strategy)
               for strategy, a_count, b_count, rank in draw(st.lists(
                   shapes(), min_size=1, max_size=2, unique=True))]
    return task, "sweep", {
        "sizes": draw(st.lists(st.integers(1, task.train_size), min_size=1, max_size=2,
                               unique=True)),
        "init_kinds": draw(st.lists(st.sampled_from(INIT_KINDS), min_size=1, unique=True)),
        "configs": configs, "seeds": seeds}, train


class TestStandaloneRows:
    """Every grid and sweep row is the row of one standalone run_single."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(case=small_runs())
    def test_every_row_equals_its_standalone_rerun(self, case):
        task, command, args, train = case
        if command == "grid":
            rows = run_grid(task, **args, **train).rows
        else:
            rows = scarcity_sweep(task, **args, **train)
        for row in rows:
            cfg = CoLAConfig(in_dim=task.in_dim, out_dim=task.out_dim, rank=row.r,
                             a_count=row.M, b_count=row.N, strategy=row.strategy)
            run_seed = (grid_cell_seed(row.seed, row.M, row.N) if command == "grid" else
                        sweep_cell_seed(row.seed, row.sample_size, row.init, cfg))
            alone, _ = run_single(task, cfg, row.init, run_seed, sample_size=row.sample_size,
                                  echo_seed=row.seed, **train)
            assert [str(v) for v in alone.as_list()] == [str(v) for v in row.as_list()]


class TestRowWriters:
    def rows(self):
        task = grid_task()
        return run_grid(task, 4, Strategy.FULL, [1], [1, 2], seeds=(42,),
                        steps=5).rows

    def test_csv_header_and_shape(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(self.rows(), str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3

    def test_csv_byte_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rows_csv(self.rows(), str(p1))
        write_rows_csv(self.rows(), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_mirror_fields(self, tmp_path):
        path = tmp_path / "rows.json"
        write_rows_json(self.rows(), str(path))
        payload = json.loads(path.read_text())
        assert [list(entry.keys()) for entry in payload] == \
            [CSV_HEADER] * len(payload)

    def test_csv_roundtrips_floats_exactly(self, tmp_path):
        rows = self.rows()
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, str(path))
        lines = path.read_text().strip().split("\n")[1:]
        for line, row in zip(lines, rows):
            fields = line.split(",")
            assert float(fields[CSV_HEADER.index("step0_loss")]) == row.step0_loss
            assert float(fields[CSV_HEADER.index("eval_metric")]) == row.eval_metric

    def test_no_leftover_temp_files(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(self.rows(), str(path))
        assert os.listdir(tmp_path) == ["rows.csv"]

