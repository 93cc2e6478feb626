import json
import os

import numpy as np
import pytest

from cola_forge.adapter import CoLAConfig, Strategy
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
from cola_forge.initializers import GAUSSIAN_ZERO, PISSA
from cola_forge.linalg import make_rng, svd


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
        for size in (0, 51):
            with pytest.raises(ValueError, match=f"in \\[1, 50\\].*got {size}"):
                task.subsample(size)


def linear_probe_accuracy(task):
    """Least-squares one-hot probe, an adapter-free reference classifier."""
    x, labels = task.x_train, task.labels_train
    onehot = np.zeros((task.out_dim, labels.size))
    onehot[labels, np.arange(labels.size)] = 1.0
    w, *_ = np.linalg.lstsq(x.T, onehot.T, rcond=None)
    pred = np.argmax(w.T @ task.x_eval, axis=0)
    return float(np.mean(pred == task.labels_eval))


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
        counts = np.bincount(task.labels_train, minlength=2)
        assert counts[0] == counts[1] == 30  # majority baseline is exactly 0.5

    def test_same_seed_identical(self):
        spec = ClassifyTaskSpec(clusters=3, input_dim=10, samples_per_cluster=20,
                                backbone_seed=9, label_noise=0.2)
        a = make_classification_task(spec, make_rng(13))
        b = make_classification_task(spec, make_rng(13))
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.labels_train, b.labels_train)

    def test_label_noise_flips_labels(self):
        spec = ClassifyTaskSpec(clusters=3, input_dim=10, samples_per_cluster=200,
                                backbone_seed=9, label_noise=0.3)
        task = make_classification_task(spec, make_rng(14))
        clean = np.repeat(np.arange(3), 200)
        rate = np.mean(task.labels_train != clean)
        assert 0.2 <= rate <= 0.4

    def test_validation(self):
        with pytest.raises(ValueError, match="clusters"):
            ClassifyTaskSpec(clusters=1, input_dim=8, samples_per_cluster=5,
                             backbone_seed=0)
        with pytest.raises(ValueError, match="label_noise"):
            ClassifyTaskSpec(clusters=2, input_dim=8, samples_per_cluster=5,
                             backbone_seed=0, label_noise=1.5)

    def test_adapter_training_improves_accuracy(self):
        spec = ClassifyTaskSpec(clusters=4, input_dim=16, samples_per_cluster=40,
                                backbone_seed=9, separation=8.0)
        task = make_classification_task(spec, make_rng(15))
        cfg = CoLAConfig(in_dim=16, out_dim=4, rank=3, a_count=1, b_count=2,
                         strategy=Strategy.FULL)
        row, _ = run_single(task, cfg, GAUSSIAN_ZERO, 42, steps=300, lr=1e-2)
        assert row.eval_metric >= 0.95  # accuracy for classify tasks


class TestGeometry:
    def test_bundled_files_load(self):
        for name, layers in [("llama31_8b", 32), ("llama32_3b", 28)]:
            geo = bundled_geometry(name)
            assert geo.layers == layers
            assert len(geo.modules) == 7

    def test_module_names_validated(self):
        with pytest.raises(ValueError, match="unknown module"):
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


def grid_task():
    spec = RecoveryTaskSpec(n=16, m=16, base_seed=4, components=2, noise_std=0.05,
                            train_samples=60, eval_samples=60)
    return make_recovery_task(spec, make_rng(4))


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

