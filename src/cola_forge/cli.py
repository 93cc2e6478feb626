"""Command-line entry point.

Subcommands:

* ``train``     one configuration on one synthetic task, one row per seed
* ``grid``      pool-count grid sweep (one row per M x N x seed)
* ``sweep``     sample-scarcity x initialization sweep
* ``params``    trainable-parameter percentage for a model geometry
* ``flops``     per-strategy train-step MAC totals at a given shape
* ``selfcheck`` measure acceptance criteria 1, 2, 4, 5 and 6 (``checks``)

``train``, ``grid`` and ``sweep`` share one body and read a single strictly
validated JSON run config, whose blocks check their own fields. The
subcommand names the command; the file's ``command`` key is optional and
must agree with it. A file holds only what its command reads: ``adapter``
for ``train``, ``grid`` for ``grid`` and ``sweep`` for ``sweep``, and a
sweep takes its init kinds from ``sweep.init_kinds``, not ``init.kind``.
Row outputs are written atomically as CSV plus a JSON mirror with identical
fields. Diagnostics go to stderr and the exit code is nonzero exactly when
an error was emitted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

from .adapter import CoLAConfig, ConfigError, Strategy, flop_count
from .checks import run_selfcheck
from .harness import (
    ClassifyTaskSpec,
    RecoveryTaskSpec,
    Task,
    _atomic_write,
    bundled_geometry,
    load_geometry,
    make_classification_task,
    make_recovery_task,
    param_count,
    run_grid,
    run_single,
    scarcity_sweep,
    write_rows_csv,
    write_rows_json,
)
from .initializers import GAUSSIAN_ZERO, INIT_KINDS
from .linalg import make_rng
from .training import DivergenceError

__all__ = ["RunConfig", "load_config", "cmd_dispatch", "main"]


class ConfigFileError(ValueError):
    """A run-config file failed validation; the message names the key."""


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def _distinct(key: str, values: tuple) -> None:
    """A list key names each entry once: a repeat would run, and count, twice."""
    if len(set(values)) != len(values):
        raise ConfigFileError(f"key '{key}' repeats an entry")


@dataclass(frozen=True)
class OptimizerBlock:
    kind: str = "adam"
    lr: float = 5e-5

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ConfigFileError(f"key 'optimizer.kind' must be 'sgd' or 'adam', "
                                  f"got {self.kind!r}")
        if self.lr <= 0:
            raise ConfigFileError(f"key 'optimizer.lr' must be positive, got {self.lr}")


@dataclass(frozen=True)
class InitBlock:
    kind: str = GAUSSIAN_ZERO
    std: float | None = None

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ConfigFileError(f"key 'init.kind' must be one of {INIT_KINDS}, "
                                  f"got {self.kind!r}")
        if self.std is not None and self.std <= 0:
            raise ConfigFileError(f"key 'init.std' must be positive, got {self.std}")


@dataclass(frozen=True)
class RunBlock:
    steps: int = 100
    batch: int = 8
    seeds: tuple[int, ...] = (42,)

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigFileError(f"key 'run.steps' must be >= 0, got {self.steps}")
        if self.batch < 1:
            raise ConfigFileError(f"key 'run.batch' must be >= 1, got {self.batch}")
        if not self.seeds:
            raise ConfigFileError("key 'run.seeds' must be a nonempty list")
        _distinct("run.seeds", self.seeds)


@dataclass(frozen=True)
class GridBlock:
    rank: int
    strategy: Strategy
    a_counts: tuple[int, ...]
    b_counts: tuple[int, ...]

    def __post_init__(self):
        if not self.a_counts or not self.b_counts:
            raise ConfigFileError("keys 'grid.a_counts'/'grid.b_counts' must be nonempty")
        _distinct("grid.a_counts", self.a_counts)
        _distinct("grid.b_counts", self.b_counts)


@dataclass(frozen=True)
class SweepBlock:
    sizes: tuple[int, ...] = ()
    init_kinds: tuple[str, ...] = ()
    configs: tuple[CoLAConfig, ...] = ()

    def __post_init__(self):
        if not self.configs:
            raise ConfigFileError("key 'sweep.configs' must be a nonempty list")
        for kind in self.init_kinds:
            if kind not in INIT_KINDS:
                raise ConfigFileError(f"key 'sweep.init_kinds' contains unknown "
                                      f"kind {kind!r}")
        if not self.sizes:
            raise ConfigFileError("key 'sweep.sizes' must be nonempty")
        if not self.init_kinds:
            raise ConfigFileError("key 'sweep.init_kinds' must be nonempty")
        for name in ("sizes", "init_kinds", "configs"):
            _distinct(f"sweep.{name}", getattr(self, name))


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
        def clean(value):
            if isinstance(value, dict):
                return {k: clean(v) for k, v in value.items() if v is not None}
            if isinstance(value, (list, tuple)):
                return [clean(v) for v in value]
            if isinstance(value, Strategy):
                return value.value
            return value

        payload = clean(dataclasses.asdict(self))
        kind = "recovery" if isinstance(self.task, RecoveryTaskSpec) else "classify"
        payload["task"] = {"kind": kind, **payload["task"]}
        if self.command == "sweep":
            del payload["init"]["kind"]  # a sweep's kinds are sweep.init_kinds
        return payload

    def dump(self, path: str) -> None:
        _atomic_write(path, json.dumps(self.to_dict(), indent=2) + "\n")


# The block each run command reads; a config run under it must have that
# block and none of the others.
_COMMAND_BLOCKS = {"train": "adapter", "grid": "grid", "sweep": "sweep"}


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigFileError(f"missing key '{context}{key}'")
    return mapping[key]


def _int(value) -> int:
    """A JSON integer; a boolean, a string or a non-integral number fails."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A JSON number; a boolean or a string fails."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _ints(values) -> tuple[int, ...]:
    return tuple(_int(v) for v in values)


def _build(cls, mapping: dict, context: str, casts: dict):
    """Construct a dataclass from a dict with per-key casting and naming.

    A cast or constructor that raises ConfigFileError has already named the
    key; any other TypeError/ValueError is re-raised naming the key or block.
    """
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
        except ConfigFileError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigFileError(f"key '{context}{key}': {exc}") from exc
    try:
        return cls(**kwargs)
    except ConfigFileError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigFileError(f"block '{context.rstrip('.')}': {exc}") from exc


def _parse_task(raw: dict) -> RecoveryTaskSpec | ClassifyTaskSpec:
    kind = _require(raw, "kind", "task.")
    body = {k: v for k, v in raw.items() if k != "kind"}
    if kind == "recovery":
        return _build(RecoveryTaskSpec, body, "task.",
                      {"n": _int, "m": _int, "base_seed": _int, "components": _int,
                       "noise_std": _float, "train_samples": _int,
                       "eval_samples": _int, "source_noise_std": _float,
                       "shared_downspace": _bool})
    if kind == "classify":
        return _build(ClassifyTaskSpec, body, "task.",
                      {"clusters": _int, "input_dim": _int,
                       "samples_per_cluster": _int, "backbone_seed": _int,
                       "label_noise": _float, "separation": _float})
    raise ConfigFileError(f"key 'task.kind' must be 'recovery' or 'classify', got {kind!r}")


def _parse_adapter(raw: dict, dims: dict) -> CoLAConfig:
    # dims default to the task's shape so configs stay minimal
    return _build(CoLAConfig, {**dims, **raw} if isinstance(raw, dict) else raw, "adapter.",
                  {"in_dim": _int, "out_dim": _int, "rank": _int, "a_count": _int,
                   "b_count": _int, "alpha": _float, "strategy": Strategy})


def load_config(path: str, command: str | None = None) -> RunConfig:
    """Parse and fully validate a run-config JSON file.

    ``command`` is the subcommand the file runs under. The file's own
    ``command`` key is optional and must agree with it when both are given;
    with neither, the command is ``train``.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigFileError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigFileError("config root must be a JSON object")

    known = {f.name for f in dataclasses.fields(RunConfig)}
    for key in raw:
        if key not in known:
            raise ConfigFileError(f"unknown key '{key}'")

    stated = str(raw.get("command", command or "train"))
    if stated not in _COMMAND_BLOCKS:
        raise ConfigFileError(
            f"key 'command' must be 'train', 'grid' or 'sweep', got {stated!r}")
    if command is not None and stated != command:
        raise ConfigFileError(
            f"key 'command' is {stated!r} but the subcommand is {command!r}")
    block = _COMMAND_BLOCKS[stated]
    if block not in raw:
        article = "an" if block == "adapter" else "a"
        raise ConfigFileError(f"command '{stated}' requires {article} '{block}' block")
    for other in _COMMAND_BLOCKS.values():
        if other != block and other in raw:
            raise ConfigFileError(f"key '{other}' is not read by command '{stated}'")
    if stated == "sweep" and isinstance(raw.get("init"), dict) and "kind" in raw["init"]:
        raise ConfigFileError("key 'init.kind' is not read by command 'sweep' "
                              "(its kinds come from 'sweep.init_kinds')")

    task = _parse_task(_require(raw, "task", ""))
    dims = ({"in_dim": task.m, "out_dim": task.n} if isinstance(task, RecoveryTaskSpec)
            else {"in_dim": task.input_dim, "out_dim": task.clusters})
    return RunConfig(
        command=stated,
        task=task,
        init=_build(InitBlock, raw.get("init", {}), "init.", {"std": _float}),
        optimizer=_build(OptimizerBlock, raw.get("optimizer", {}), "optimizer.",
                         {"lr": _float}),
        run=_build(RunBlock, raw.get("run", {}), "run.",
                   {"steps": _int, "batch": _int, "seeds": _ints}),
        adapter=_parse_adapter(raw["adapter"], dims) if "adapter" in raw else None,
        grid=_build(GridBlock, raw["grid"], "grid.",
                    {"rank": _int, "strategy": Strategy,
                     "a_counts": _ints, "b_counts": _ints})
        if "grid" in raw else None,
        sweep=_build(SweepBlock, raw["sweep"], "sweep.",
                     {"sizes": _ints, "init_kinds": lambda v: tuple(str(x) for x in v),
                      "configs": lambda v: tuple(_parse_adapter(c, dims) for c in v)})
        if "sweep" in raw else None,
        output=None if raw.get("output") is None else str(raw["output"]),
    )


def _materialize_task(cfg: RunConfig) -> Task:
    spec = cfg.task
    if isinstance(spec, RecoveryTaskSpec):
        return make_recovery_task(spec, make_rng(spec.base_seed))
    return make_classification_task(spec, make_rng(spec.backbone_seed))


def _emit_rows(rows, out: str | None) -> None:
    if out is None:
        return
    write_rows_csv(rows, out)
    write_rows_json(rows, os.path.splitext(out)[0] + ".json")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _run_train(cfg: RunConfig, task: Task, **loop):
    rows = [run_single(task, cfg.adapter, cfg.init.kind, seed, **loop)[0]
            for seed in cfg.run.seeds]
    return rows, "\n".join(
        f"seed {row.seed}: step0_loss={row.step0_loss:.6g} "
        f"final_loss={row.final_loss:.6g} eval_metric={row.eval_metric:.6g} "
        f"macs={row.mac_count}" for row in rows)


def _run_grid(cfg: RunConfig, task: Task, **loop):
    result = run_grid(task, cfg.grid.rank, cfg.grid.strategy, cfg.grid.a_counts,
                      cfg.grid.b_counts, seeds=cfg.run.seeds, init_kind=cfg.init.kind,
                      **loop)
    skipped = (f"; skipped undefined heuristic cells: {result.skipped}"
               if result.skipped else "")
    return result.rows, f"{len(result.rows)} rows{skipped}"


def _run_sweep(cfg: RunConfig, task: Task, **loop):
    rows = scarcity_sweep(task, cfg.sweep.sizes, list(cfg.sweep.init_kinds),
                          list(cfg.sweep.configs), seeds=cfg.run.seeds, **loop)
    return rows, f"{len(rows)} rows"


def _cmd_run(args) -> int:
    """``train``, ``grid`` and ``sweep``: the subcommand picks the harness call."""
    cfg = load_config(args.config, args.command)
    rows, summary = args.run(cfg, _materialize_task(cfg), steps=cfg.run.steps,
                             batch=cfg.run.batch, optimizer=cfg.optimizer.kind,
                             lr=cfg.optimizer.lr, std=cfg.init.std)
    _emit_rows(rows, args.out or cfg.output)
    print(summary)
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
    if args.steps < 0:
        raise ValueError(f"steps must be >= 0, got {args.steps}")
    for strategy in (Strategy.FULL, Strategy.RANDOM_AB, Strategy.RANDOM_BA,
                     Strategy.HEURISTIC):
        if strategy is Strategy.HEURISTIC and args.M > args.N:
            continue
        config = CoLAConfig(in_dim=args.in_dim, out_dim=args.out_dim, rank=args.r,
                            a_count=args.M, b_count=args.N, strategy=strategy,
                            alpha=float(args.r))
        print(f"{strategy.value} {flop_count(config, 'train_step') * args.steps}")
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

    for name, run, text in (
            ("train", _run_train, "train one configuration per seed"),
            ("grid", _run_grid, "pool-count grid sweep"),
            ("sweep", _run_sweep, "sample-scarcity / init sweep")):
        p_run = sub.add_parser(name, help=text)
        p_run.add_argument("--config", required=True)
        p_run.add_argument("--out", default=None, help="row CSV path (JSON mirror "
                           "written alongside)")
        p_run.set_defaults(fn=_cmd_run, run=run)

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

    p_check = sub.add_parser("selfcheck", help="measure acceptance criteria 1, 2, 4, 5, 6")
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
    except (ConfigFileError, ConfigError, DivergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cmd_dispatch())


if __name__ == "__main__":
    main()
