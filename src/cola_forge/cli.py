"""Command-line entry point.

Subcommands:

* ``train``     one configuration on one synthetic task, one row per seed
* ``grid``      pool-count grid sweep (one row per M x N x seed)
* ``sweep``     sample-scarcity x initialization sweep
* ``params``    trainable-parameter percentage for a model geometry
* ``flops``     per-strategy train-step MAC totals at a given shape
* ``selfcheck`` measure acceptance criteria 1, 2, 4, 5 and 6 (``checks``)

``train``, ``grid`` and ``sweep`` share one body and read a single strictly
validated JSON run config with ``harness``'s reader, which also reads the
geometry files of ``params``. Each key is read as its field's annotation
states, so a field's JSON type is stated once, in its dataclass, and the
blocks check their own values. The subcommand names the command; the
file's ``command`` key is optional and must agree with it. A file holds
only what its command reads: ``adapter`` for ``train``, ``grid`` for
``grid`` and ``sweep`` for ``sweep``, and a sweep takes its init kinds
from ``sweep.init_kinds``, not ``init.kind``. Row outputs are written
atomically as CSV plus a JSON mirror with identical fields. Diagnostics go
to stderr and the exit code is nonzero exactly when an error was emitted.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from .adapter import CoLAConfig, ConfigError, Strategy, flop_count
from .checks import run_selfcheck
from .harness import (
    ClassifyTaskSpec,
    ConfigFileError,
    RecoveryTaskSpec,
    Task,
    _build,
    _hints,
    _read_object,
    _run_cells,
    bundled_geometry,
    load_geometry,
    make_classification_task,
    make_recovery_task,
    param_count,
    run_grid,
    scarcity_sweep,
    write_rows_csv,
    write_rows_json,
)
from .initializers import GAUSSIAN_ZERO, INIT_KINDS
from .linalg import make_rng
from .training import DivergenceError

__all__ = ["RunConfig", "load_config", "cmd_dispatch", "main"]


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class GridBlock:
    rank: int
    strategy: Strategy
    a_counts: tuple[int, ...]
    b_counts: tuple[int, ...]

    def __post_init__(self):
        if not self.a_counts or not self.b_counts:
            raise ConfigFileError("keys 'grid.a_counts'/'grid.b_counts' must be nonempty")


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

    def __post_init__(self):
        kinds = self.sweep.init_kinds if self.sweep else (self.init.kind,)
        if self.init.std is not None and GAUSSIAN_ZERO not in kinds:
            raise ConfigFileError("key 'init.std' is not read without a gaussian_zero cell")


# The block each run command reads; a config run under it must have that
# block and none of the others.
_COMMAND_BLOCKS = {"train": "adapter", "grid": "grid", "sweep": "sweep"}


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ConfigFileError(f"missing key '{context}{key}'")
    return mapping[key]


def load_config(path: str, command: str | None = None) -> RunConfig:
    """Parse and fully validate a run-config JSON file.

    ``command`` is the subcommand the file runs under. The file's own
    ``command`` key is optional and must agree with it when both are given;
    with neither, the command is ``train``.
    """
    raw = _read_object(path)
    for key in raw:
        if key not in _hints(RunConfig):
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

    body = _require(raw, "task", "")
    if not isinstance(body, dict):
        raise ConfigFileError("key 'task' must be an object")
    kind = _require(body, "kind", "task.")
    if kind not in ("recovery", "classify"):
        raise ConfigFileError(f"key 'task.kind' must be 'recovery' or 'classify', got {kind!r}")
    spec = RecoveryTaskSpec if kind == "recovery" else ClassifyTaskSpec
    task = _build(spec, {k: v for k, v in body.items() if k != "kind"}, "task.", {})
    dims = ({"in_dim": task.m, "out_dim": task.n} if spec is RecoveryTaskSpec
            else {"in_dim": task.input_dim, "out_dim": task.clusters})
    blocks = {k: v for k, v in raw.items() if k not in ("command", "task")}
    return _build(RunConfig, blocks, "", dims, command=stated, task=task)


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
    rows = _run_cells(task, [(cfg.adapter, cfg.init.kind, seed, seed, None)
                             for seed in cfg.run.seeds], **loop)
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
    for strategy in Strategy:
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
