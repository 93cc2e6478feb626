import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import typing

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cola_forge import checks, cli, harness, training
from cola_forge.adapter import CoLAConfig, Strategy
from cola_forge.cli import ConfigFileError, cmd_dispatch, load_config
from cola_forge.harness import (CSV_HEADER, ClassifyTaskSpec, RecoveryTaskSpec,
                                make_recovery_task)
from cola_forge.initializers import GAUSSIAN_ZERO, INIT_KINDS

ROOT = pathlib.Path(__file__).resolve().parents[1]


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

CLASSIFY_CONFIG = {
    **TRAIN_CONFIG,
    "task": {"kind": "classify", "clusters": 4, "input_dim": 16, "samples_per_cluster": 30,
             "backbone_seed": 9},
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
    def test_fixed_configs_load(self, tmp_path, payload):
        cfg = load_config(write_config(tmp_path, payload), payload["command"])
        assert cfg.command == payload["command"]

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

    @pytest.mark.parametrize("block, key, value", [
        ("optimizer", "lr", True),
        ("adapter", "alpha", True),
        ("task", "noise_std", "0.1"),  # a numeric string, not a JSON number
    ])
    def test_float_keys_take_numbers_only(self, tmp_path, block, key, value):
        payload = {**TRAIN_CONFIG, block: {**TRAIN_CONFIG[block], key: value}}
        with pytest.raises(ConfigFileError, match=f"key '{block}.{key}': expected a number"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400"])
    @pytest.mark.parametrize("block, key", [("optimizer", "lr"), ("task", "noise_std")])
    def test_non_finite_constants_are_rejected_and_write_nothing(self, tmp_path, capsys,
                                                                block, key, constant):
        # JSON has no such numbers; Python's reader would load them as floats,
        # a number that overflows (1e400) as an infinity, which its key names
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**TRAIN_CONFIG, block: {**TRAIN_CONFIG[block], key: 0.5}})
                        .replace("0.5", constant))
        named = (f"key '{block}.{key}': expected a number, got {float(constant)}"
                 if constant.endswith("e400")
                 else f"config file {path} holds {constant}, which is not a JSON number")
        with pytest.raises(ConfigFileError, match=re.escape(named)):
            load_config(str(path))
        out = tmp_path / "rows.csv"
        assert cmd_dispatch(["train", "--config", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {named}\n"
        assert not out.exists() and not (tmp_path / "rows.json").exists()

    def test_a_key_stated_twice_in_one_object_is_rejected(self, tmp_path):
        text = json.dumps(TRAIN_CONFIG).replace('"rank": 4', '"rank": 2, "rank": 4')
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigFileError, match="key 'rank' is stated twice in one object"):
            load_config(str(path))

    def test_integers_load_as_floats(self, tmp_path):
        payload = {**TRAIN_CONFIG, "optimizer": {"kind": "adam", "lr": 1}}
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.optimizer.lr == 1.0 and type(cfg.optimizer.lr) is float

    def test_integral_numbers_load_as_ints(self, tmp_path):
        payload = {**TRAIN_CONFIG, "adapter": {**TRAIN_CONFIG["adapter"], "rank": 4.0}}
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.adapter.rank == 4 and type(cfg.adapter.rank) is int

    def test_top_level_task_kind_rejected(self, tmp_path):
        # the task kind lives inside the task block only
        payload = {**TRAIN_CONFIG, "task_kind": "recovery"}
        with pytest.raises(ConfigFileError, match="unknown key 'task_kind'"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("key, block", [
        ("adapter", TRAIN_CONFIG["adapter"]),
        ("grid", GRID_CONFIG["grid"]),
        ("init.kind", {"kind": "pissa"}),  # a sweep's kinds are sweep.init_kinds
    ])
    def test_sweep_rejects_blocks_it_does_not_read(self, tmp_path, key, block):
        payload = {**SWEEP_CONFIG, key.split(".")[0]: block}
        with pytest.raises(ConfigFileError, match=f"key '{key}' is not read by command 'sweep'"):
            load_config(write_config(tmp_path, payload), "sweep")

    @pytest.mark.parametrize("output", [5, True, ["rows.csv"]])
    def test_a_non_string_output_is_rejected_and_writes_nothing(self, tmp_path, capsys,
                                                               monkeypatch, output):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, {**TRAIN_CONFIG, "output": output})
        with pytest.raises(ConfigFileError, match="key 'output': expected a string"):
            load_config(config)
        assert cmd_dispatch(["train", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: key 'output': expected a string")
        assert captured.out == "" and os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("block, payload", [
        ("task", TRAIN_CONFIG), ("adapter", TRAIN_CONFIG), ("init", TRAIN_CONFIG),
        ("optimizer", TRAIN_CONFIG), ("run", TRAIN_CONFIG), ("grid", GRID_CONFIG),
        ("sweep", SWEEP_CONFIG),
    ])
    def test_a_block_that_is_not_an_object_is_named(self, tmp_path, block, payload):
        with pytest.raises(ConfigFileError, match=f"key '{block}' must be an object"):
            load_config(write_config(tmp_path, {**payload, block: 5}))

    @pytest.mark.parametrize("block, key, payload", [
        ("task", "n", TRAIN_CONFIG),
        ("task", "backbone_seed", CLASSIFY_CONFIG),
        ("adapter", "rank", TRAIN_CONFIG),
        ("grid", "rank", GRID_CONFIG),
        ("grid", "a_counts", GRID_CONFIG),
        ("sweep.configs[0]", "rank", SWEEP_CONFIG),
        ("task", "kind", TRAIN_CONFIG),
    ])
    def test_a_missing_required_key_is_named(self, tmp_path, block, key, payload):
        if block == "sweep.configs[0]":
            sweep = payload["sweep"]
            entry = {k: v for k, v in sweep["configs"][0].items() if k != key}
            payload = {**payload, "sweep": {**sweep, "configs": [entry]}}
        else:
            payload = {**payload, block: {k: v for k, v in payload[block].items() if k != key}}
        named = f"missing key '{block}.{key}'"
        with pytest.raises(ConfigFileError, match=f"^{re.escape(named)}$"):
            load_config(write_config(tmp_path, payload))

    @pytest.mark.parametrize("key, value, payload, named", [
        ("sweep.configs", [{"rank": 2}, {"rank": "x"}], SWEEP_CONFIG,
         "key 'sweep.configs[1].rank': expected an integer, got 'x'"),
        ("sweep.configs", [{"rank": 2}, 5], SWEEP_CONFIG,
         "key 'sweep.configs[1]' must be an object"),
        ("sweep.configs", [{"rank": 2}, {"rank": 2, "a_count": 3, "strategy": "heuristic"}],
         SWEEP_CONFIG, "block 'sweep.configs[1]': heuristic strategy requires M <= N, "
                       "got M=3 > N=1"),
        ("sweep.sizes", [20, 40.5], SWEEP_CONFIG,
         "key 'sweep.sizes[1]': expected an integer, got 40.5"),
        ("run.seeds", [42, 43, "44"], SWEEP_CONFIG,
         "key 'run.seeds[2]': expected an integer, got '44'"),
        ("run.seeds", [], SWEEP_CONFIG, "key 'run.seeds' must be a nonempty list"),
        ("grid.b_counts", [], GRID_CONFIG, "key 'grid.b_counts' must be a nonempty list"),
        ("sweep.init_kinds", [], SWEEP_CONFIG, "key 'sweep.init_kinds' must be a nonempty list"),
        ("init.std", 0.1, {**TRAIN_CONFIG, "init": {"kind": "pissa"}},
         "key 'init.std' is not read without a gaussian_zero cell"),
    ], ids=["configs-entry-key", "configs-entry-type", "configs-entry-rule", "sizes-entry",
            "seeds-entry", "seeds-empty", "grid-counts-empty", "init_kinds-empty",
            "init.std-unread"])
    def test_a_bad_list_or_entry_is_named(self, tmp_path, key, value, payload, named):
        # the reader refuses an empty list, and the run config an init.std
        # that no cell reads, before the task is built or any cell trains
        payload, _ = with_key(payload, *key.split("."), value)
        with pytest.raises(ConfigFileError, match=f"^{re.escape(named)}$"):
            load_config(write_config(tmp_path, payload))


# Each config dataclass a run config reaches: (block, class, a config holding the block).
CONFIG_BLOCKS = [
    ("task", RecoveryTaskSpec, TRAIN_CONFIG),
    ("task", ClassifyTaskSpec, CLASSIFY_CONFIG),
    ("adapter", CoLAConfig, TRAIN_CONFIG),
    ("sweep.configs", CoLAConfig, SWEEP_CONFIG),
    ("init", cli.InitBlock, TRAIN_CONFIG),
    ("optimizer", training.Optimizer, TRAIN_CONFIG),
    ("run", cli.RunBlock, TRAIN_CONFIG),
    ("grid", cli.GridBlock, GRID_CONFIG),
    ("sweep", cli.SweepBlock, SWEEP_CONFIG),
]

# A JSON value of another type than each field type reads.
WRONG_JSON = {int: "1", float: "1", str: 1, bool: 1, Strategy: 1}


def wrong_json(hint):
    """A scalar for a list; for ``X | None`` the wrong value of X."""
    if typing.get_origin(hint) is tuple:
        return 1
    (hint,) = set(typing.get_args(hint) or (hint,)) - {type(None)}
    return WRONG_JSON[hint]


def with_key(payload, block, key, value):
    """(``payload`` with ``block.key`` set, the key an error names); a
    ``sweep.configs`` key is set in a second config, entry 1."""
    if block == "sweep.configs":
        sweep = payload["sweep"]
        configs = [sweep["configs"][0], {**sweep["configs"][0], key: value}]
        return {**payload, "sweep": {**sweep, "configs": configs}}, f"{block}[1].{key}"
    return {**payload, block: {**payload.get(block, {}), key: value}}, f"{block}.{key}"


@pytest.mark.parametrize("block, key, payload, value", [
    pytest.param(block, field.name, payload,
                 wrong_json(typing.get_type_hints(cls)[field.name]),
                 id=f"{block}.{field.name}-{cls.__name__}")
    for block, cls, payload in CONFIG_BLOCKS for field in dataclasses.fields(cls)
])
def test_every_field_rejects_a_value_of_another_json_type(tmp_path, block, key, payload,
                                                          value):
    payload, named = with_key(payload, block, key, value)
    with pytest.raises(ConfigFileError, match=re.escape(f"key '{named}'")):
        load_config(write_config(tmp_path, payload))


@pytest.mark.parametrize("key, value, payload, message", [
    ("optimizer.kind", "adamw", TRAIN_CONFIG,
     "optimizer kind must be one of ('sgd', 'adam'), got 'adamw'"),
    ("optimizer.lr", 0, TRAIN_CONFIG, "learning rate must be positive, got 0.0"),
    ("init.kind", "xavier", TRAIN_CONFIG, f"init kind must be one of {INIT_KINDS}, got 'xavier'"),
    ("init.std", 0, TRAIN_CONFIG, "gaussian init std must be positive, got 0.0"),
    ("run.steps", -1, TRAIN_CONFIG, "steps must be >= 0, got -1"),
    ("run.batch", 0, TRAIN_CONFIG, "batch must be >= 1, got 0"),
    ("sweep.init_kinds", ["xavier"], SWEEP_CONFIG,
     f"init kind must be one of {INIT_KINDS}, got 'xavier'"),
    ("task.base_seed", -1, TRAIN_CONFIG, "base_seed must be >= 0, got -1"),
], ids=["optimizer.kind", "optimizer.lr", "init.kind", "init.std", "run.steps", "run.batch",
        "sweep.init_kinds", "task.base_seed"])
def test_an_engine_rule_rejects_a_value_at_load_naming_its_block(tmp_path, capsys,
                                                                  monkeypatch, key, value,
                                                                  payload, message):
    # each block calls the engine's own check, and the reader names the block;
    # a negative base_seed once failed only when the task was built, naming no block
    def unreachable(*args, **kwargs):
        raise AssertionError("a rejected value reached the task or a cell")

    monkeypatch.setattr(cli, "make_recovery_task", unreachable)
    monkeypatch.setattr(harness, "train_loop", unreachable)
    block, _, name = key.partition(".")
    payload, _ = with_key(payload, block, name, value)
    config, out = write_config(tmp_path, payload), tmp_path / "rows.csv"
    named = f"block '{block}': {message}"
    with pytest.raises(ConfigFileError, match=f"^{re.escape(named)}$"):
        load_config(config, payload["command"])
    assert cmd_dispatch([payload["command"], "--config", config, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {named}\n"
    assert not out.exists() and not (tmp_path / "rows.json").exists()


CONFIG_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
POSITIVE = st.floats(0.01, 10.0)


def optional(**keys):
    """A dict holding any subset of ``keys``, each value drawn from its strategy."""
    return st.fixed_dictionaries({}, optional=keys)


@st.composite
def adapter_blocks(draw, dims):
    strategy = draw(st.sampled_from(list(Strategy)))
    a_count = draw(st.integers(1, 3))
    b_count = draw(st.integers(a_count if strategy is Strategy.HEURISTIC else 1, 3))
    return {"rank": draw(st.integers(1, min(dims))), "a_count": a_count,
            "b_count": b_count, "strategy": strategy.value, **draw(optional(alpha=POSITIVE))}


def command_blocks(dims):
    """The block each command reads, as a strategy per block name."""
    counts = st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True)
    return {
        "adapter": adapter_blocks(dims),
        "grid": st.fixed_dictionaries({
            "rank": st.integers(1, min(dims)), "a_counts": counts, "b_counts": counts,
            "strategy": st.sampled_from([s.value for s in Strategy])}),
        "sweep": st.fixed_dictionaries({
            "sizes": st.lists(st.integers(1, 50), min_size=1, max_size=3, unique=True),
            "init_kinds": st.lists(st.sampled_from(INIT_KINDS), min_size=1, unique=True),
            "configs": st.lists(adapter_blocks(dims), min_size=1, max_size=2,
                                unique_by=lambda block: tuple(sorted(block.items())))}),
    }


@st.composite
def run_configs(draw):
    """(command, payload, block strategies): a config its command accepts."""
    command = draw(st.sampled_from(sorted(cli._COMMAND_BLOCKS)))
    if draw(st.booleans()):
        n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        task = {"kind": "recovery", "n": n, "m": m, "base_seed": draw(st.integers(0, 99)),
                **draw(optional(components=st.integers(1, 3), shared_downspace=st.booleans(),
                                noise_std=st.floats(0.0, 1.0),
                                source_noise_std=st.floats(0.0, 1.0),
                                train_samples=st.integers(1, 50),
                                eval_samples=st.integers(1, 50)))}
        dims = (n, m)
    else:
        clusters = draw(st.integers(2, 4))
        input_dim = draw(st.integers(clusters, 6))
        task = {"kind": "classify", "clusters": clusters, "input_dim": input_dim,
                "samples_per_cluster": draw(st.integers(1, 20)),
                "backbone_seed": draw(st.integers(0, 99)),
                **draw(optional(label_noise=st.floats(0.0, 1.0), separation=POSITIVE))}
        dims = (clusters, input_dim)
    init = {"std": POSITIVE} if command == "sweep" else {
        "kind": st.sampled_from(INIT_KINDS), "std": POSITIVE}
    blocks = command_blocks(dims)
    block = cli._COMMAND_BLOCKS[command]
    payload = {"task": task, block: draw(blocks[block]), **draw(optional(
        command=st.just(command),
        init=optional(**init),
        optimizer=optional(kind=st.sampled_from(["sgd", "adam"]), lr=POSITIVE),
        run=optional(steps=st.integers(0, 50), batch=st.integers(1, 16),
                     seeds=st.lists(st.integers(0, 99), min_size=1, max_size=3, unique=True)),
        output=st.just("rows.csv")))}
    kinds = (payload[block]["init_kinds"] if command == "sweep"
             else [payload.get("init", {}).get("kind", GAUSSIAN_ZERO)])
    if GAUSSIAN_ZERO not in kinds and "init" in payload:  # only its cells read init.std
        payload["init"] = {k: v for k, v in payload["init"].items() if k != "std"}
    return command, payload, blocks


class TestConfigProperties:
    """Every drawn config loads under its command, and holds only what its
    command reads."""

    @CONFIG_SETTINGS
    @given(case=run_configs())
    def test_accepted_configs_load(self, tmp_path_factory, case):
        command, payload, _ = case
        cfg = load_config(write_config(tmp_path_factory.mktemp("load"), payload), command)
        assert cfg.command == command

    @CONFIG_SETTINGS
    @given(case=run_configs(), data=st.data())
    def test_keys_the_command_does_not_read_are_rejected(self, tmp_path_factory, case,
                                                         data):
        command, payload, blocks = case
        block = cli._COMMAND_BLOCKS[command]
        unread = [other for other in blocks if other != block]
        unread += ["extra"] + [f"{name}.extra" for name in
                               ("task", block, "init", "optimizer", "run")]
        unread.append("init.std")  # with no gaussian_zero cell, nothing reads it
        if command == "sweep":
            unread.append("init.kind")
        key = data.draw(st.sampled_from(unread))
        if key in blocks:
            payload = {**payload, key: data.draw(blocks[key])}
        elif key == "init.std":
            if command == "sweep":
                payload = {**payload, "sweep": {**payload["sweep"], "init_kinds": ["pissa"]}}
            else:
                payload = {**payload, "init": {**payload.get("init", {}), "kind": "pissa"}}
            payload = {**payload, "init": {**payload.get("init", {}), "std": 1.0}}
        else:
            name, _, inner = key.rpartition(".")
            if name:  # a valid init kind, so only the read rule can reject init.kind
                payload = {**payload, name: {**payload.get(name, {}), inner: "gaussian_zero"}}
            else:
                payload = {**payload, key: 1}
        with pytest.raises(ConfigFileError, match=f"key '{key}'"):
            load_config(write_config(tmp_path_factory.mktemp("unread"), payload), command)

    @CONFIG_SETTINGS
    @given(case=run_configs(), data=st.data())
    def test_a_repeated_list_entry_is_rejected(self, tmp_path_factory, case, data):
        command, payload, _ = case
        block = cli._COMMAND_BLOCKS[command]
        keys = [("run", "seeds")] + [(block, key) for key in {
            "grid": ("a_counts", "b_counts"), "sweep": ("sizes", "init_kinds", "configs"),
        }.get(block, ())]
        name, key = data.draw(st.sampled_from(keys))
        entries = payload.get(name, {}).get(key, [42])
        entries = entries + [data.draw(st.sampled_from(entries))]
        payload = {**payload, name: {**payload.get(name, {}), key: entries}}
        with pytest.raises(ConfigFileError, match=f"key '{name}.{key}' repeats an entry"):
            load_config(write_config(tmp_path_factory.mktemp("repeat"), payload), command)


def found_sweep(configs):
    """A one-cell-shape sweep whose configs differ only in alpha."""
    return {"task": {"kind": "recovery", "n": 4, "m": 4, "base_seed": 1},
            "sweep": {"sizes": [10], "init_kinds": ["gaussian_zero"], "configs": configs}}


def expected_row_count(command, payload):
    seeds = len(payload.get("run", {}).get("seeds", [42]))
    if command == "train":
        return seeds
    if command == "grid":
        grid = payload["grid"]
        return seeds * sum(grid["strategy"] != "heuristic" or a <= b
                           for a in grid["a_counts"] for b in grid["b_counts"])
    sweep = payload["sweep"]
    return seeds * len(sweep["sizes"]) * len(sweep["init_kinds"]) * len(sweep["configs"])


class TestConfigRuns:
    """Every accepted config runs to distinct, finite rows or to one error line."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=run_configs())
    @example(case=("sweep", found_sweep([{"rank": 2}, {"rank": 2, "alpha": 4}]), None))
    @example(case=("sweep", found_sweep([{"rank": 2, "alpha": 4}, {"rank": 2, "alpha": 8}]),
                   None))
    def test_a_run_ends_in_rows_or_one_error_line(self, tmp_path_factory, case):
        command, payload, _ = case
        run = payload.get("run", {})
        payload = {**payload, "run": {**run, "steps": min(run.get("steps", 100), 5)}}
        tmp_path = tmp_path_factory.mktemp("run")
        out = tmp_path / "rows.csv"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cmd_dispatch([command, "--config", write_config(tmp_path, payload),
                                 "--out", str(out)])
        if code == 1:
            assert re.fullmatch(r"error: [^\n]+\n", stderr.getvalue()), stderr.getvalue()
            assert not out.exists() and not (tmp_path / "rows.json").exists()
            return
        assert code == 0 and stderr.getvalue() == ""
        with open(out, encoding="utf-8", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == CSV_HEADER
        assert len(rows) == expected_row_count(command, payload)
        keys = [tuple(row[:CSV_HEADER.index("step0_loss")]) for row in rows]
        assert len(set(keys)) == len(keys)
        for name in ("step0_loss", "final_loss", "eval_metric"):
            assert all(math.isfinite(float(row[CSV_HEADER.index(name)])) for row in rows)
        mirror = json.loads((tmp_path / "rows.json").read_text())
        assert [[str(entry[name]) for name in CSV_HEADER] for entry in mirror] == rows


GEOMETRY = {"name": "tiny", "base_params": 1000, "layers": 2,
            "modules": [{"name": "q_proj", "n": 8, "m": 8}]}
MODULE = GEOMETRY["modules"][0]


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
        assert capsys.readouterr().err == (
            "error: no geometry file 'missing.json', and bundled geometry must be one of "
            "('llama31_8b', 'llama32_3b'), got 'missing'\n")

    @pytest.mark.parametrize("geometry, named", [
        ([GEOMETRY], "config root must be a JSON object"),
        ({**GEOMETRY, "modules": 5}, "key 'modules': expected a list, got 5"),
        ({**GEOMETRY, "modules": [MODULE, ["k_proj", 8, 8]]},
         "key 'modules[1]' must be an object"),
        ({**GEOMETRY, "layers": 2.9}, "key 'layers': expected an integer, got 2.9"),
        ({**GEOMETRY, "layers": 0}, "layers must be >= 1, got 0"),
        ({**GEOMETRY, "name": 5}, "key 'name': expected a string, got 5"),
        ({**GEOMETRY, "modules": [MODULE, {**MODULE, "name": "k_proj", "n": True}]},
         "key 'modules[1].n': expected an integer, got True"),
        ({**GEOMETRY, "modules": [{**MODULE, "m": "4"}]},
         "key 'modules[0].m': expected an integer, got '4'"),
        ({**GEOMETRY, "modules": [{**MODULE, "name": 5}]},
         "key 'modules[0].name': expected a string, got 5"),
        ({**GEOMETRY, "heads": 8}, "unknown key 'heads'"),
        ({**GEOMETRY, "modules": [{**MODULE, "bias": True}]}, "unknown key 'modules[0].bias'"),
        ({k: v for k, v in GEOMETRY.items() if k != "base_params"},
         "missing key 'base_params'"),
        ({**GEOMETRY, "modules": [MODULE, {"name": "k_proj", "n": 8}]},
         "missing key 'modules[1].m'"),
        ({**GEOMETRY, "modules": [{**MODULE, "name": "lm_head"}]},
         "block 'modules[0]': module name must be one of ('down_proj', 'gate_proj', "
         "'k_proj', 'o_proj', 'q_proj', 'up_proj', 'v_proj'), got 'lm_head'"),
        ({**GEOMETRY, "modules": [MODULE, MODULE]}, "key 'modules' repeats an entry"),
        ({**GEOMETRY, "modules": []}, "key 'modules' must be a nonempty list"),
    ])
    def test_a_malformed_geometry_file_is_one_named_error(self, tmp_path, capsys, geometry,
                                                         named):
        path = write_config(tmp_path, geometry, "geometry.json")
        code = cmd_dispatch(["params", "--geometry", path, "--M", "1", "--N", "1", "--r", "8"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {named}")
        assert captured.err.count("\n") == 1


    def test_a_key_stated_twice_in_a_geometry_file_is_one_named_error(self, tmp_path, capsys):
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(GEOMETRY).replace('"layers": 2', '"layers": 1, "layers": 2'))
        code = cmd_dispatch(["params", "--geometry", str(path), "--M", "1", "--N", "1",
                             "--r", "8"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: key 'layers' is stated twice in one object\n"


class TestFlopsCommand:
    def test_prints_strategy_totals(self, capsys):
        code = cmd_dispatch(["flops", "--in-dim", "64", "--out-dim", "64",
                             "--r", "8", "--M", "2", "--N", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        totals = dict(line.split() for line in lines)
        assert int(totals["random_ab"]) < int(totals["full"])
        assert int(totals["random_ab"]) <= int(totals["heuristic"]) <= int(totals["full"])

    def test_negative_steps_is_an_error(self, capsys):
        code = cmd_dispatch(["flops", "--steps", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: steps must be >= 0" in captured.err
        assert captured.out == ""


class TestSelfcheck:
    def test_exits_zero_and_reports_each_property(self, capsys):
        code = cmd_dispatch(["selfcheck"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert code == 0
        assert [line.split(":")[0] for line in lines] == \
            [f"PASS criterion {k}" for k in (1, 2, 4, 5, 6)]
        for line in lines[:4]:  # each names its worst value and case
            assert re.search(r": worst \S+ at .+ \(tol [^)]+\)$", line), line
        assert re.search(r": random_ab=\d+ heuristic=\d+ full=\d+$", lines[4])

    @pytest.mark.parametrize("worst", [2e-6, float("nan")])
    def test_a_measure_above_its_tolerance_fails(self, capsys, monkeypatch, worst):
        monkeypatch.setattr(checks, "criterion_4_gradients", lambda: (worst, "planted case"))
        code = cmd_dispatch(["selfcheck"])
        lines = capsys.readouterr().out.strip().split("\n")
        assert code == 1
        assert [line.split(" ")[0] for line in lines] == ["PASS", "PASS", "FAIL", "PASS", "PASS"]
        assert lines[2].startswith("FAIL criterion 4: gradient suite: worst ")
        assert "at planted case (tol 1e-06)" in lines[2]


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

    def test_sweep_size_above_the_training_set_is_an_error(self, tmp_path, capsys):
        payload = {**SWEEP_CONFIG, "sweep": {**SWEEP_CONFIG["sweep"], "sizes": [20, 81]}}
        out = tmp_path / "rows.csv"
        code = cmd_dispatch(["sweep", "--config", write_config(tmp_path, payload),
                             "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: subsample size must be <= 80, got 81\n"
        assert captured.out == "" and not out.exists()

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

    def test_divergence_is_an_error(self, tmp_path, capsys):
        config = write_config(tmp_path, {**TRAIN_CONFIG,
                                         "optimizer": {"kind": "sgd", "lr": 50.0},
                                         "run": {"steps": 50, "batch": 8, "seeds": [42]}})
        code = cmd_dispatch(["train", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: training diverged")
        assert "(seed " in captured.err
        assert captured.err.count("\n") == 1  # numpy's overflow warnings are not shown

    @pytest.mark.parametrize("configs", [
        [{"rank": 2}, {"rank": 2, "alpha": 4}],  # an unset alpha resolves to 2 * rank = 4
        [{"rank": 2, "alpha": 4}, {"rank": 2, "alpha": 8}],
    ])
    def test_sweep_configs_differing_only_in_alpha_are_an_error(self, tmp_path, capsys,
                                                                configs):
        payload = {**SWEEP_CONFIG, "sweep": {"sizes": [20], "init_kinds": ["gaussian_zero"],
                                             "configs": configs}}
        out = tmp_path / "rows.csv"
        code = cmd_dispatch(["sweep", "--config", write_config(tmp_path, payload),
                             "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert re.fullmatch(r"error: two cells share the row key \{'strategy': 'full', "
                            r"'init': 'gaussian_zero', 'M': 1, 'N': 1, 'r': 2, "
                            r"'sample_size': 20, 'seed': 42\}\n", captured.err)
        assert captured.out == ""
        assert not out.exists() and not (tmp_path / "rows.json").exists()

    @pytest.mark.parametrize("block", ["adapter", "sweep.configs"])
    @pytest.mark.parametrize("key, value", [("in_dim", 5), ("out_dim", 16)])
    def test_adapter_dims_are_the_task_and_not_keys(self, tmp_path, capsys, monkeypatch,
                                                    block, key, value):
        # the task is 16 x 16, so out_dim 16 restates it and in_dim 5 contradicts
        # it; either is an unknown key, named before any cell trains
        def no_training(*args, **kwargs):
            raise AssertionError("a cell trained")

        monkeypatch.setattr(harness, "train_loop", no_training)
        payload, named = with_key(TRAIN_CONFIG if block == "adapter" else SWEEP_CONFIG,
                                  block, key, value)
        out = tmp_path / "rows.csv"
        code = cmd_dispatch([payload["command"], "--config", write_config(tmp_path, payload),
                             "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: unknown key '{named}'\n"
        assert captured.out == ""
        assert not out.exists() and not (tmp_path / "rows.json").exists()

    @pytest.mark.parametrize("separation", [0.0, -6.0])
    def test_a_separation_that_is_not_positive_is_an_error(self, tmp_path, capsys,
                                                           separation):
        payload = {**CLASSIFY_CONFIG,
                   "task": {**CLASSIFY_CONFIG["task"], "separation": separation}}
        out = tmp_path / "rows.csv"
        code = cmd_dispatch(["train", "--config", write_config(tmp_path, payload),
                             "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: block 'task': separation must be positive, "
                                f"got {separation}\n")
        assert captured.out == "" and not out.exists()

    def test_rank_deficient_spectral_source_is_an_error(self, tmp_path, capsys,
                                                        monkeypatch):
        def rank_two_source(spec, rng):
            task = make_recovery_task(spec, rng)
            task.pissa_source = rng.normal(size=(spec.n, 2)) @ rng.normal(size=(2, spec.m))
            return task

        monkeypatch.setattr(cli, "make_recovery_task", rank_two_source)
        config = write_config(tmp_path, {**TRAIN_CONFIG, "init": {"kind": "pissa"}})
        code = cmd_dispatch(["train", "--config", config])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: spectral init at rank r=4" in captured.err
        assert "got rank 2" in captured.err

    def test_unknown_command_nonzero(self, capsys):
        assert cmd_dispatch(["frobnicate"]) != 0


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "cola_forge.cli", "params", "--geometry",
             "llama32_3b.json", "--M", "1", "--N", "1", "--r", "8"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.3770"
