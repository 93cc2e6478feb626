"""Command-line entry point.

Subcommands:

* ``train``     one configuration on one synthetic task, one row per seed
* ``grid``      pool-count grid sweep (one row per M x N x seed)
* ``sweep``     sample-scarcity x initialization sweep
* ``params``    trainable-parameter percentage for a model geometry
* ``flops``     per-strategy train-step MAC totals at a given shape
* ``selfcheck`` run the built-in invariant suite

Run configuration is a single strictly validated JSON file; row outputs are
written atomically as CSV plus a JSON mirror with identical fields.
Diagnostics go to stderr and the exit code is nonzero exactly when an error
was emitted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

from .adapter import CoLAConfig, ConfigError, Strategy
from .checks import run_selfcheck
from .harness import (
    ClassifyTaskSpec,
    GridResult,
    RecoveryTaskSpec,
    SweepRow,
    Task,
    bundled_geometry,
    load_geometry,
    make_classification_task,
    make_recovery_task,
    param_count,
    run_grid,
    run_single,
    scarcity_sweep,
    strategy_cost_report,
    write_rows_csv,
    write_rows_json,
)
from .initializers import GAUSSIAN_ZERO, INIT_KINDS
from .linalg import make_rng

__all__ = ["RunConfig", "load_config", "cmd_dispatch", "main"]


class ConfigFileError(ValueError):
    """A run-config file failed validation; the message names the key."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerBlock:
    kind: str = "adam"
    lr: float = 5e-5


@dataclass(frozen=True)
class InitBlock:
    kind: str = GAUSSIAN_ZERO
    std: float | None = None


@dataclass(frozen=True)
class RunBlock:
    steps: int = 100
    batch: int = 8
    seeds: tuple[int, ...] = (42,)


@dataclass(frozen=True)
class GridBlock:
    rank: int
    strategy: str
    a_counts: tuple[int, ...]
    b_counts: tuple[int, ...]


@dataclass(frozen=True)
class SweepBlock:
    sizes: tuple[int, ...]
    init_kinds: tuple[str, ...]
    configs: tuple[CoLAConfig, ...]


@dataclass(frozen=True)
class RunConfig:
    command: str
    task: RecoveryTaskSpec | ClassifyTaskSpec
    adapter: CoLAConfig | None = None
    init: InitBlock = field(default_factory=InitBlock)
    optimizer: OptimizerBlock = field(default_factory=OptimizerBlock)
    run: RunBlock = field(default_factory=RunBlock)
    grid: GridBlock | None = None
    sweep: SweepBlock | None = None
    output: str | None = None

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)

        def clean(value):
            if isinstance(value, dict):
                return {k: clean(v) for k, v in value.items() if v is not None}
            if isinstance(value, (list, tuple)):
                return [clean(v) for v in value]
            if isinstance(value, Strategy):
                return value.value
            return value

        payload = clean(out)
        payload["task_kind"] = "recovery" if isinstance(self.task, RecoveryTaskSpec) \
            else "classify"
        return payload

    def dump(self, path: str) -> None:
        import tempfile

        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-config-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self.to_dict(), fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigFileError(f"missing key '{context}{key}'")
    return mapping[key]


def _build(cls, mapping: dict, context: str, casts: dict):
    """Construct a dataclass from a dict with per-key casting and naming."""
    if not isinstance(mapping, dict):
        raise ConfigFileError(f"key '{context.rstrip('.')}' must be an object")
    kwargs = {}
    names = {f.name for f in dataclasses.fields(cls)}
    for key in mapping:
        if key not in names:
            raise ConfigFileError(f"unknown key '{context}{key}'")
    for key, value in mapping.items():
        cast = casts.get(key)
        try:
            kwargs[key] = cast(value) if cast else value
        except (TypeError, ValueError) as exc:
            raise ConfigFileError(f"key '{context}{key}': {exc}") from exc
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigFileError(f"block '{context.rstrip('.')}': {exc}") from exc


def _parse_task(raw: dict) -> RecoveryTaskSpec | ClassifyTaskSpec:
    kind = _require(raw, "kind", "task.")
    body = {k: v for k, v in raw.items() if k != "kind"}
    if kind == "recovery":
        return _build(RecoveryTaskSpec, body, "task.",
                      {"n": int, "m": int, "base_seed": int, "components": int,
                       "noise_std": float, "train_samples": int,
                       "eval_samples": int, "source_noise_std": float,
                       "shared_downspace": bool})
    if kind == "classify":
        return _build(ClassifyTaskSpec, body, "task.",
                      {"clusters": int, "input_dim": int,
                       "samples_per_cluster": int, "backbone_seed": int,
                       "label_noise": float, "separation": float})
    raise ConfigFileError(f"key 'task.kind' must be 'recovery' or 'classify', got {kind!r}")


def _parse_adapter(raw: dict, task) -> CoLAConfig:
    body = dict(raw)
    # dims default to the task's shape so configs stay minimal
    body.setdefault("in_dim", task.m if isinstance(task, RecoveryTaskSpec) else task.input_dim)
    body.setdefault("out_dim", task.n if isinstance(task, RecoveryTaskSpec) else task.clusters)
    try:
        return _build(CoLAConfig, body, "adapter.",
                      {"in_dim": int, "out_dim": int, "rank": int, "a_count": int,
                       "b_count": int, "alpha": float, "strategy": Strategy})
    except ConfigError as exc:
        raise ConfigFileError(f"block 'adapter': {exc}") from exc


def load_config(path: str) -> RunConfig:
    """Parse and fully validate a run-config JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigFileError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigFileError("config root must be a JSON object")

    known = {"command", "task", "adapter", "init", "optimizer", "run",
             "grid", "sweep", "output", "task_kind"}
    for key in raw:
        if key not in known:
            raise ConfigFileError(f"unknown key '{key}'")

    command = str(raw.get("command", "train"))
    if command not in ("train", "grid", "sweep"):
        raise ConfigFileError(
            f"key 'command' must be 'train', 'grid' or 'sweep', got {command!r}")

    task_raw = _require(raw, "task", "")
    if "task_kind" in raw and "kind" not in task_raw:
        task_raw = {"kind": raw["task_kind"], **task_raw}
    task = _parse_task(task_raw)

    init = _build(InitBlock, raw.get("init", {}), "init.", {"std": float})
    if init.kind not in INIT_KINDS:
        raise ConfigFileError(f"key 'init.kind' must be one of {INIT_KINDS}, "
                              f"got {init.kind!r}")
    if init.std is not None and init.std <= 0:
        raise ConfigFileError(f"key 'init.std' must be positive, got {init.std}")

    optimizer = _build(OptimizerBlock, raw.get("optimizer", {}), "optimizer.",
                       {"lr": float})
    if optimizer.kind not in ("sgd", "adam"):
        raise ConfigFileError(f"key 'optimizer.kind' must be 'sgd' or 'adam', "
                              f"got {optimizer.kind!r}")
    if optimizer.lr <= 0:
        raise ConfigFileError(f"key 'optimizer.lr' must be positive, got {optimizer.lr}")

    run = _build(RunBlock, raw.get("run", {}), "run.",
                 {"steps": int, "batch": int, "seeds": lambda v: tuple(int(s) for s in v)})
    if run.steps < 0:
        raise ConfigFileError(f"key 'run.steps' must be >= 0, got {run.steps}")
    if run.batch < 1:
        raise ConfigFileError(f"key 'run.batch' must be >= 1, got {run.batch}")
    if not run.seeds:
        raise ConfigFileError("key 'run.seeds' must be a nonempty list")

    adapter_cfg = None
    if "adapter" in raw:
        adapter_cfg = _parse_adapter(raw["adapter"], task)

    grid = None
    if "grid" in raw:
        grid = _build(GridBlock, raw["grid"], "grid.",
                      {"rank": int, "strategy": lambda s: Strategy(s).value,
                       "a_counts": lambda v: tuple(int(x) for x in v),
                       "b_counts": lambda v: tuple(int(x) for x in v)})
        if not grid.a_counts or not grid.b_counts:
            raise ConfigFileError("keys 'grid.a_counts'/'grid.b_counts' must be nonempty")

    sweep = None
    if "sweep" in raw:
        body = dict(raw["sweep"])
        for key in body:
            if key not in ("sizes", "init_kinds", "configs"):
                raise ConfigFileError(f"unknown key 'sweep.{key}'")
        configs_raw = body.get("configs")
        if not configs_raw:
            raise ConfigFileError("key 'sweep.configs' must be a nonempty list")
        configs = tuple(_parse_adapter(c, task) for c in configs_raw)
        try:
            sizes = tuple(int(x) for x in body.get("sizes", ()))
            init_kinds = tuple(str(x) for x in body.get("init_kinds", ()))
        except (TypeError, ValueError) as exc:
            raise ConfigFileError(f"block 'sweep': {exc}") from exc
        for kind in init_kinds:
            if kind not in INIT_KINDS:
                raise ConfigFileError(f"key 'sweep.init_kinds' contains unknown "
                                      f"kind {kind!r}")
        if not sizes:
            raise ConfigFileError("key 'sweep.sizes' must be nonempty")
        if not init_kinds:
            raise ConfigFileError("key 'sweep.init_kinds' must be nonempty")
        sweep = SweepBlock(sizes=sizes, init_kinds=init_kinds, configs=configs)

    output = raw.get("output")
    if output is not None:
        output = str(output)

    if command == "train" and adapter_cfg is None:
        raise ConfigFileError("command 'train' requires an 'adapter' block")
    if command == "grid" and grid is None:
        raise ConfigFileError("command 'grid' requires a 'grid' block")
    if command == "sweep" and sweep is None:
        raise ConfigFileError("command 'sweep' requires a 'sweep' block")

    return RunConfig(command=command, task=task, adapter=adapter_cfg, init=init,
                     optimizer=optimizer, run=run, grid=grid, sweep=sweep,
                     output=output)


def _materialize_task(cfg: RunConfig) -> Task:
    spec = cfg.task
    if isinstance(spec, RecoveryTaskSpec):
        return make_recovery_task(spec, make_rng(spec.base_seed))
    return make_classification_task(spec, make_rng(spec.backbone_seed))


def _emit_rows(rows: list[SweepRow], out: str | None) -> None:
    if out is None:
        return
    write_rows_csv(rows, out)
    stem, _ = os.path.splitext(out)
    write_rows_json(rows, stem + ".json")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    if cfg.adapter is None:
        raise ConfigFileError("command 'train' requires an 'adapter' block")
    task = _materialize_task(cfg)
    rows = []
    for seed in cfg.run.seeds:
        row, report = run_single(
            task, cfg.adapter, cfg.init.kind, seed, cfg.run.steps,
            batch=cfg.run.batch, optimizer=cfg.optimizer.kind,
            lr=cfg.optimizer.lr, std=cfg.init.std,
        )
        rows.append(row)
        print(f"seed {seed}: step0_loss={row.step0_loss:.6g} "
              f"final_loss={row.final_loss:.6g} eval_metric={row.eval_metric:.6g} "
              f"macs={row.mac_count}")
    _emit_rows(rows, args.out or cfg.output)
    return 0


def _cmd_grid(args) -> int:
    cfg = load_config(args.config)
    if cfg.grid is None:
        raise ConfigFileError("command 'grid' requires a 'grid' block")
    task = _materialize_task(cfg)
    result: GridResult = run_grid(
        task, cfg.grid.rank, Strategy(cfg.grid.strategy),
        cfg.grid.a_counts, cfg.grid.b_counts, seeds=cfg.run.seeds,
        steps=cfg.run.steps, batch=cfg.run.batch,
        optimizer=cfg.optimizer.kind, lr=cfg.optimizer.lr,
        init_kind=cfg.init.kind, std=cfg.init.std,
    )
    _emit_rows(result.rows, args.out or cfg.output)
    print(f"{len(result.rows)} rows", end="")
    if result.skipped:
        print(f"; skipped undefined heuristic cells: {result.skipped}", end="")
    print()
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if cfg.sweep is None:
        raise ConfigFileError("command 'sweep' requires a 'sweep' block")
    task = _materialize_task(cfg)
    rows = scarcity_sweep(
        task, cfg.sweep.sizes, list(cfg.sweep.init_kinds),
        list(cfg.sweep.configs), seeds=cfg.run.seeds, steps=cfg.run.steps,
        batch=cfg.run.batch, optimizer=cfg.optimizer.kind, lr=cfg.optimizer.lr,
        std=cfg.init.std,
    )
    _emit_rows(rows, args.out or cfg.output)
    print(f"{len(rows)} rows")
    return 0


def _resolve_geometry(path_or_name: str):
    if os.path.exists(path_or_name):
        return load_geometry(path_or_name)
    stem = os.path.splitext(os.path.basename(path_or_name))[0]
    try:
        return bundled_geometry(stem)
    except FileNotFoundError:
        raise ConfigFileError(f"geometry file {path_or_name!r} not found (and no "
                              f"bundled geometry named {stem!r})") from None


def _cmd_params(args) -> int:
    geometry = _resolve_geometry(args.geometry)
    trainable, percent = param_count(geometry, args.M, args.N, args.r)
    if args.verbose:
        print(f"{geometry.name}: trainable={trainable} percent={percent:.4f}")
    else:
        print(f"{percent:.4f}")
    return 0


def _cmd_flops(args) -> int:
    for strategy in (Strategy.FULL, Strategy.RANDOM_AB, Strategy.RANDOM_BA,
                     Strategy.HEURISTIC):
        if strategy is Strategy.HEURISTIC and args.M > args.N:
            continue
        config = CoLAConfig(in_dim=args.in_dim, out_dim=args.out_dim, rank=args.r,
                            a_count=args.M, b_count=args.N, strategy=strategy,
                            alpha=float(args.r))
        (name, macs), = strategy_cost_report([config], args.steps)
        print(f"{name} {macs}")
    return 0


def _cmd_selfcheck(args) -> int:
    results = run_selfcheck()
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cola-forge",
        description="Flexible collaborative low-rank adapter engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one configuration per seed")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None, help="row CSV path (JSON mirror "
                         "written alongside)")
    p_train.set_defaults(fn=_cmd_train)

    p_grid = sub.add_parser("grid", help="pool-count grid sweep")
    p_grid.add_argument("--config", required=True)
    p_grid.add_argument("--out", default=None)
    p_grid.set_defaults(fn=_cmd_grid)

    p_sweep = sub.add_parser("sweep", help="sample-scarcity / init sweep")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_params = sub.add_parser("params", help="trainable-parameter percentage")
    p_params.add_argument("--geometry", required=True)
    p_params.add_argument("--M", type=int, required=True)
    p_params.add_argument("--N", type=int, required=True)
    p_params.add_argument("--r", type=int, required=True)
    p_params.add_argument("--verbose", action="store_true")
    p_params.set_defaults(fn=_cmd_params)

    p_flops = sub.add_parser("flops", help="per-strategy train-step MAC totals")
    p_flops.add_argument("--in-dim", type=int, default=64)
    p_flops.add_argument("--out-dim", type=int, default=64)
    p_flops.add_argument("--r", type=int, default=8)
    p_flops.add_argument("--M", type=int, default=2)
    p_flops.add_argument("--N", type=int, default=3)
    p_flops.add_argument("--steps", type=int, default=1)
    p_flops.set_defaults(fn=_cmd_flops)

    p_check = sub.add_parser("selfcheck", help="run the built-in invariant suite")
    p_check.set_defaults(fn=_cmd_selfcheck)

    return parser


def cmd_dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run the chosen subcommand, returning the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own diagnostics
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ConfigFileError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cmd_dispatch())


if __name__ == "__main__":
    main()
