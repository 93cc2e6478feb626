import json
import subprocess
import sys

import pytest

from cola_forge.adapter import Strategy
from cola_forge.cli import ConfigFileError, cmd_dispatch, load_config
from cola_forge.harness import CSV_HEADER


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TRAIN_CONFIG = {
    "command": "train",
    "task": {"kind": "recovery", "n": 16, "m": 16, "base_seed": 4,
             "components": 2, "noise_std": 0.05, "train_samples": 60,
             "eval_samples": 60},
    "adapter": {"rank": 4, "a_count": 1, "b_count": 2, "strategy": "full"},
    "optimizer": {"kind": "adam", "lr": 0.01},
    "run": {"steps": 10, "batch": 8, "seeds": [42, 43]},
}

GRID_CONFIG = {
    "command": "grid",
    "task": TRAIN_CONFIG["task"],
    "grid": {"rank": 4, "strategy": "full", "a_counts": [1, 2], "b_counts": [1, 2]},
    "optimizer": {"kind": "adam", "lr": 0.01},
    "run": {"steps": 5, "batch": 8, "seeds": [42]},
}

SWEEP_CONFIG = {
    "command": "sweep",
    "task": {**TRAIN_CONFIG["task"], "train_samples": 80, "source_noise_std": 0.01},
    "sweep": {"sizes": [20, 40], "init_kinds": ["pissa", "gaussian_zero"],
              "configs": [{"rank": 4, "a_count": 1, "b_count": 3, "strategy": "full"}]},
    "optimizer": {"kind": "adam", "lr": 0.01},
    "run": {"steps": 5, "batch": 8, "seeds": [42]},
}


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "train",
            "task": {"kind": "recovery", "n": 8, "m": 8, "base_seed": 1},
            "adapter": {"rank": 2},
        })
        cfg = load_config(path)
        assert cfg.adapter.a_count == 1 and cfg.adapter.b_count == 1
        assert cfg.adapter.strategy is Strategy.FULL
        assert cfg.adapter.alpha is None  # resolved per init kind at build time
        assert cfg.optimizer.lr == 5e-5
        assert cfg.run.batch == 8
        assert cfg.init.kind == "gaussian_zero"

    def test_adapter_dims_default_to_task(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "train",
            "task": {"kind": "recovery", "n": 12, "m": 10, "base_seed": 1},
            "adapter": {"rank": 2},
        })
        cfg = load_config(path)
        assert (cfg.adapter.out_dim, cfg.adapter.in_dim) == (12, 10)

    def test_heuristic_violation_names_rule(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "train",
            "task": {"kind": "recovery", "n": 8, "m": 8, "base_seed": 1},
            "adapter": {"rank": 2, "a_count": 3, "b_count": 2,
                        "strategy": "heuristic"},
        })
        with pytest.raises(ConfigFileError, match="M <= N"):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "train",
            "task": {"kind": "recovery", "n": 8, "m": 8, "base_seed": 1},
            "adapter": {"rank": 2, "dropout": 0.1},
        })
        with pytest.raises(ConfigFileError, match="adapter.dropout"):
            load_config(path)

    def test_adapter_seed_rejected(self, tmp_path):
        # the adapter has no seed of its own: every stream comes from run.seeds
        path = write_config(tmp_path, {
            "command": "train",
            "task": {"kind": "recovery", "n": 8, "m": 8, "base_seed": 1},
            "adapter": {"rank": 2, "seed": 7},
        })
        with pytest.raises(ConfigFileError, match="unknown key 'adapter.seed'"):
            load_config(path)

    def test_bad_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigFileError, match="not valid JSON"):
            load_config(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigFileError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("payload", [TRAIN_CONFIG, GRID_CONFIG, SWEEP_CONFIG])
    def test_round_trip(self, tmp_path, payload):
        first = load_config(write_config(tmp_path, payload))
        dumped = tmp_path / "dumped.json"
        first.dump(str(dumped))
        second = load_config(str(dumped))
        assert first == second

    def test_command_block_consistency(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "grid",
            "task": {"kind": "recovery", "n": 8, "m": 8, "base_seed": 1},
        })
        with pytest.raises(ConfigFileError, match="'grid' block"):
            load_config(path)

    @pytest.mark.parametrize("block, key, value", [
        ("task", "shared_downspace", "false"),  # a truthy string, not a JSON boolean
        ("adapter", "rank", 2.9),
        ("adapter", "a_count", True),
        ("run", "steps", 2.5),
    ])
    def test_casts_are_strict(self, tmp_path, block, key, value):
        payload = {**TRAIN_CONFIG, block: {**TRAIN_CONFIG[block], key: value}}
        with pytest.raises(ConfigFileError, match=f"key '{block}.{key}'"):
            load_config(write_config(tmp_path, payload))

    def test_integral_numbers_load_as_ints(self, tmp_path):
        payload = {**TRAIN_CONFIG, "adapter": {**TRAIN_CONFIG["adapter"], "rank": 4.0}}
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.adapter.rank == 4 and type(cfg.adapter.rank) is int

    def test_top_level_task_kind_rejected(self, tmp_path):
        # the task kind lives inside the task block only
        payload = {**TRAIN_CONFIG, "task_kind": "recovery"}
        with pytest.raises(ConfigFileError, match="unknown key 'task_kind'"):
            load_config(write_config(tmp_path, payload))


class TestParamsCommand:
    def test_prints_published_percentage(self, capsys):
        code = cmd_dispatch(["params", "--geometry", "llama31_8b.json",
                             "--M", "1", "--N", "3", "--r", "8"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.5325"

    def test_lora_baseline_percentage(self, capsys):
        code = cmd_dispatch(["params", "--geometry", "llama31_8b.json",
                             "--M", "1", "--N", "1", "--r", "8"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.2605"

    def test_unknown_geometry_fails(self, capsys):
        code = cmd_dispatch(["params", "--geometry", "missing.json",
                             "--M", "1", "--N", "1", "--r", "8"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "missing.json" in err


class TestFlopsCommand:
    def test_prints_strategy_totals(self, capsys):
        code = cmd_dispatch(["flops", "--in-dim", "64", "--out-dim", "64",
                             "--r", "8", "--M", "2", "--N", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        totals = dict(line.split() for line in lines)
        assert int(totals["random_ab"]) < int(totals["full"])
        assert int(totals["random_ab"]) <= int(totals["heuristic"]) <= int(totals["full"])


class TestSelfcheck:
    def test_exits_zero_and_reports_each_property(self, capsys):
        code = cmd_dispatch(["selfcheck"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.strip().split("\n") if line]
        assert len(lines) >= 7
        assert all(line.startswith("PASS") for line in lines)


class TestRunCommands:
    def test_train_writes_rows(self, tmp_path, capsys):
        config = write_config(tmp_path, TRAIN_CONFIG)
        out = tmp_path / "rows.csv"
        code = cmd_dispatch(["train", "--config", config, "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 3  # two seeds
        assert (tmp_path / "rows.json").exists()

    def test_grid_byte_identical_across_invocations(self, tmp_path, capsys):
        config = write_config(tmp_path, GRID_CONFIG)
        out1, out2 = tmp_path / "rows1.csv", tmp_path / "rows2.csv"
        assert cmd_dispatch(["grid", "--config", config, "--out", str(out1)]) == 0
        assert cmd_dispatch(["grid", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep_byte_identical_across_invocations(self, tmp_path, capsys):
        config = write_config(tmp_path, SWEEP_CONFIG)
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert cmd_dispatch(["sweep", "--config", config, "--out", str(out1)]) == 0
        assert cmd_dispatch(["sweep", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().strip().split("\n")) == 1 + 2 * 2 * 1 * 1

    def test_train_on_classification_task(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "command": "train",
            "task": {"kind": "classify", "clusters": 4, "input_dim": 16,
                     "samples_per_cluster": 30, "backbone_seed": 9,
                     "separation": 8.0},
            "adapter": {"rank": 3, "a_count": 1, "b_count": 2},
            "optimizer": {"kind": "adam", "lr": 0.01},
            "run": {"steps": 200, "batch": 8, "seeds": [42]},
        })
        out = tmp_path / "cls.csv"
        assert cmd_dispatch(["train", "--config", config, "--out", str(out)]) == 0
        line = out.read_text().strip().split("\n")[1].split(",")
        accuracy = float(line[CSV_HEADER.index("eval_metric")])
        assert accuracy >= 0.9

    def test_invalid_config_diagnostic_on_stderr(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "command": "train",
            "task": {"kind": "recovery", "n": 8, "m": 8, "base_seed": 1},
            "adapter": {"rank": 99},
        })
        code = cmd_dispatch(["train", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert "rank" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("payload", [GRID_CONFIG, SWEEP_CONFIG])
    def test_subcommand_names_the_command(self, tmp_path, capsys, payload):
        command = payload["command"]
        body = {k: v for k, v in payload.items() if k != "command"}
        with_key, without_key = tmp_path / "with.csv", tmp_path / "without.csv"
        assert cmd_dispatch([command, "--config", write_config(tmp_path, payload),
                             "--out", str(with_key)]) == 0
        assert cmd_dispatch([command, "--config",
                             write_config(tmp_path, body, name="bare.json"),
                             "--out", str(without_key)]) == 0
        assert with_key.read_bytes() == without_key.read_bytes()

    def test_command_key_must_match_subcommand(self, tmp_path, capsys):
        config = write_config(tmp_path, {**TRAIN_CONFIG, "command": "grid",
                                         "grid": GRID_CONFIG["grid"]})
        code = cmd_dispatch(["train", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: key 'command'" in captured.err
        assert captured.out == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow
    def test_divergence_is_an_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {**TRAIN_CONFIG,
                                         "optimizer": {"kind": "sgd", "lr": 50.0},
                                         "run": {"steps": 50, "batch": 8, "seeds": [42]}})
        code = cmd_dispatch(["train", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: training diverged" in captured.err
        assert "(seed " in captured.err

    def test_unknown_command_nonzero(self, capsys):
        assert cmd_dispatch(["frobnicate"]) != 0


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cola_forge.cli", "params", "--geometry",
             "llama32_3b.json", "--M", "1", "--N", "1", "--r", "8"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.3770"
