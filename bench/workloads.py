"""The benchmark's workloads: what each one runs and how its rows are checked.

Every workload reaches the engine only through public functions
(``harness.scarcity_sweep``, ``harness.run_single``, ``cli.cmd_dispatch``),
always as module attributes so that a tracer can rebind them. Inputs come
from the seed alone: :meth:`plan` turns a seed into task specs and cells,
:meth:`iterate` runs them (this is what the benchmark times), and
:meth:`collect` turns the outputs into rows. A row is the tuple of its CSV
fields as text (the engine writes floats as their shortest round-trip form,
so text equality is bit equality).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import random
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from cola_forge import adapter, cli, harness, initializers, linalg
from cola_forge.adapter import CoLAConfig, Strategy
from cola_forge.harness import RecoveryTaskSpec
from cola_forge.initializers import GAUSSIAN_ZERO, PISSA

LR = 1e-2
SPLIT_TOL = 1e-10
KEY_FIELDS = 7  # strategy, init, M, N, r, sample_size, seed identify a row
LOSS_FIELDS = ("step0_loss", "final_loss", "eval_metric")


@dataclass(frozen=True)
class Cell:
    """One run_single call a workload makes, directly or through a sweep."""

    call: int  # index of the engine call that produces the row
    task: int  # index into Plan.tasks
    config: CoLAConfig
    init: str
    seed: int  # echoed in the row's seed column
    run_seed: int  # stream run_single trains on
    steps: int
    batch: int
    sample_size: int

    @property
    def key(self) -> tuple:
        cfg = self.config
        return (self.call, cfg.strategy.value, self.init, str(cfg.a_count),
                str(cfg.b_count), str(cfg.rank), str(self.sample_size), str(self.seed))


@dataclass
class Call:
    """Outcome of one engine call: rows keyed like Cell.key, or the error."""

    cells: list[tuple]
    rows: dict[tuple, tuple[str, ...]] | None = None
    error: str | None = None


@dataclass
class Plan:
    tasks: list[RecoveryTaskSpec]
    cells: list[Cell]
    calls: int
    rerun: int  # index of the cell re-run alone as a check
    extra: dict = field(default_factory=dict)


def make_task(spec: RecoveryTaskSpec) -> harness.Task:
    """The task the CLI would build from ``spec`` (rng seeded by base_seed)."""
    return harness.make_recovery_task(spec, linalg.make_rng(spec.base_seed))


def _recovery_spec(n: int, base_seed: int) -> RecoveryTaskSpec:
    return RecoveryTaskSpec(n=n, m=n, base_seed=base_seed, components=3,
                            noise_std=0.05, train_samples=400, eval_samples=400,
                            source_noise_std=0.01)


def _seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(2 ** 31) for _ in range(count)]


def _row_text(row: harness.SweepRow) -> tuple[str, ...]:
    return tuple(str(v) for v in row.as_list())


def _call(cells: list[tuple], call: int, rows: list[tuple[str, ...]]) -> Call:
    keyed = {(call,) + r[:KEY_FIELDS]: r for r in rows}
    if len(keyed) != len(rows):
        return Call(cells=cells, error="more than one row for a cell")
    return Call(cells=cells, rows=keyed)


def _run_single(task, cell: Cell) -> harness.SweepRow:
    row, _ = harness.run_single(task, cell.config, cell.init, cell.run_seed,
                                cell.steps, batch=cell.batch, optimizer="adam",
                                lr=LR, sample_size=cell.sample_size,
                                echo_seed=cell.seed)
    return row


class Workload:
    """Base class; subclasses define plan, iterate, collect and extra checks."""

    name = ""

    def plan(self, seed: int) -> Plan:
        raise NotImplementedError

    def prepare(self, plan: Plan, workdir: str) -> None:
        """Write any input files; runs once, before the timed iterations."""

    def iterate(self, plan: Plan, workdir: str):
        raise NotImplementedError

    def collect(self, plan: Plan, result, workdir: str) -> list[Call]:
        raise NotImplementedError

    def extra_checks(self, plan: Plan, calls: list[Call]) -> dict[tuple, str]:
        return {}

    def checks(self, plan: Plan, calls: list[Call]) -> dict[tuple, str]:
        """Failed cell keys with a reason, from the checks that re-run engine
        code: one seed-chosen cell re-run alone must match its row bit for
        bit, and every PiSSA split must merge back to its source."""
        failed = self.extra_checks(plan, calls)

        @functools.cache
        def task(index: int) -> harness.Task:
            return make_task(plan.tasks[index])

        cell = plan.cells[plan.rerun]
        rows = calls[cell.call].rows
        if rows is not None and cell.key in rows:
            try:
                again = _row_text(_run_single(task(cell.task), cell))
            except Exception as exc:  # a raising re-run is a failed check
                again = (f"raised {exc!r}",)
            if again != rows[cell.key]:
                failed[cell.key] = "standalone re-run differs from its sweep row"

        splits = defaultdict(list)
        for c in plan.cells:
            if c.init == PISSA:
                splits[(c.task, c.config)].append(c.key)
        for (index, config), keys in splits.items():
            src = task(index).pissa_source
            full = replace(config, strategy=Strategy.FULL, alpha=float(config.rank))
            try:
                layer = initializers.build_layer(
                    full, initializers.InitSpec(PISSA, source_w=src), linalg.make_rng(0))
                err = np.linalg.norm(adapter.merge(layer) - src) / np.linalg.norm(src)
            except Exception as exc:  # a raising split is a failed check
                err = exc
            if not (isinstance(err, float) and err <= SPLIT_TOL):
                for key in keys:
                    failed.setdefault(key, f"PiSSA split does not merge back: {err}")
        return failed


class SpectralScarcity(Workload):
    """harness.scarcity_sweep in the shape of scarcity_experiment: sizes x
    {pissa, gaussian_zero} x FULL (1,3), (2,3) x seeds on one 32x32 task.
    Every PiSSA cell splits the same source, so it is SVD-bound with one
    distinct SVD input."""

    name = "spectral_scarcity"

    def __init__(self, n=32, rank=8, sizes=(50, 100, 200, 400), seeds=5, steps=60,
                 batch=8):
        self.n, self.rank, self.sizes = n, rank, tuple(sizes)
        self.seeds, self.steps, self.batch = seeds, steps, batch

    def plan(self, seed: int) -> Plan:
        rng = random.Random(f"{self.name}:{seed}")
        spec = _recovery_spec(self.n, rng.randrange(2 ** 31))
        seeds = _seeds(rng, self.seeds)
        configs = [CoLAConfig(in_dim=self.n, out_dim=self.n, rank=self.rank,
                              a_count=a, b_count=3, strategy=Strategy.FULL)
                   for a in (1, 2)]
        cells = [Cell(call=0, task=0, config=cfg, init=kind, seed=s,
                      run_seed=harness.sweep_cell_seed(s, size, kind, cfg),
                      steps=self.steps, batch=self.batch, sample_size=size)
                 for size in self.sizes for kind in (PISSA, GAUSSIAN_ZERO)
                 for cfg in configs for s in seeds]
        return Plan(tasks=[spec], cells=cells, calls=1,
                    rerun=rng.randrange(len(cells)),
                    extra={"configs": configs, "seeds": seeds})

    def iterate(self, plan, workdir):
        try:
            task = make_task(plan.tasks[0])
            return harness.scarcity_sweep(
                task, self.sizes, [PISSA, GAUSSIAN_ZERO], plan.extra["configs"],
                seeds=plan.extra["seeds"], steps=self.steps, batch=self.batch,
                optimizer="adam", lr=LR)
        except Exception as exc:  # a raising sweep fails all of its cells
            return exc

    def collect(self, plan, result, workdir):
        cells = [c.key for c in plan.cells]
        if isinstance(result, Exception):
            return [Call(cells=cells, error=repr(result))]
        return [_call(cells, 0, [_row_text(r) for r in result])]

    def extra_checks(self, plan, calls):
        rows = calls[0].rows or {}
        step0 = harness.CSV_HEADER.index("step0_loss")
        failed = {}
        for key, row in rows.items():
            if key[2] != PISSA:
                continue
            twin = rows.get(key[:2] + (GAUSSIAN_ZERO,) + key[3:])
            if twin is None or not float(row[step0]) <= float(twin[step0]):
                failed[key] = "pissa step0_loss above gaussian_zero step0_loss"
        return failed


class StrategyGrid(Workload):
    """Four ``cola-forge grid`` runs through cli.cmd_dispatch, one per
    strategy, gaussian_zero over (M, N) in counts^2; no SVD, so the time is
    per-step overhead in forward, backward and the optimizer step."""

    name = "strategy_grid"

    def __init__(self, n=32, rank=8, counts=(1, 2, 4), seeds=3, steps=100, batch=8):
        self.n, self.rank, self.counts = n, rank, tuple(counts)
        self.seeds, self.steps, self.batch = seeds, steps, batch

    def plan(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        spec = _recovery_spec(self.n, rng.randrange(2 ** 31))
        seeds = _seeds(rng, self.seeds)
        cells = []
        for call, strategy in enumerate(Strategy):
            for a in self.counts:
                for b in self.counts:
                    if strategy is Strategy.HEURISTIC and a > b:
                        continue
                    cfg = CoLAConfig(in_dim=self.n, out_dim=self.n, rank=self.rank,
                                     a_count=a, b_count=b, strategy=strategy)
                    cells += [Cell(call=call, task=0, config=cfg, init=GAUSSIAN_ZERO,
                                   seed=s, run_seed=harness.grid_cell_seed(s, a, b),
                                   steps=self.steps, batch=self.batch,
                                   sample_size=spec.train_samples) for s in seeds]
        configs = []
        for strategy in Strategy:
            configs.append({
                "command": "grid",
                "task": {"kind": "recovery", **asdict(spec)},
                "init": {"kind": GAUSSIAN_ZERO},
                "optimizer": {"kind": "adam", "lr": LR},
                "run": {"steps": self.steps, "batch": self.batch, "seeds": seeds},
                "grid": {"rank": self.rank, "strategy": strategy.value,
                         "a_counts": list(self.counts), "b_counts": list(self.counts)},
            })
        return Plan(tasks=[spec], cells=cells, calls=len(configs),
                    rerun=rng.randrange(len(cells)), extra={"configs": configs})

    @staticmethod
    def _paths(workdir, call):
        stem = os.path.join(workdir, f"grid{call}")
        return stem + ".config.json", stem + ".csv", stem + ".json"

    def prepare(self, plan, workdir):
        """Write the config files the CLI reads (the user's side of the run)."""
        for call, config in enumerate(plan.extra["configs"]):
            with open(self._paths(workdir, call)[0], "w", encoding="utf-8") as fh:
                json.dump(config, fh)

    def iterate(self, plan, workdir):
        outcomes = []
        for call in range(plan.calls):
            config_path, csv_path, _ = self._paths(workdir, call)
            try:
                with contextlib.redirect_stdout(io.StringIO()):  # "N rows" lines
                    code = cli.cmd_dispatch(["grid", "--config", config_path,
                                             "--out", csv_path])
                outcomes.append(None if code == 0 else f"exit code {code}")
            except Exception as exc:  # a raising call fails all of its cells
                outcomes.append(repr(exc))
        return outcomes

    def collect(self, plan, result, workdir):
        calls = []
        for call, error in enumerate(result):
            cells = [c.key for c in plan.cells if c.call == call]
            _, csv_path, json_path = self._paths(workdir, call)
            if error is None:
                error, rows = self._read(csv_path, json_path)
            calls.append(Call(cells=cells, error=error) if error is not None
                         else _call(cells, call, rows))
            for path in (csv_path, json_path):
                if os.path.exists(path):
                    os.unlink(path)
        return calls

    @staticmethod
    def _read(csv_path, json_path):
        """(error, rows): the CSV header must equal CSV_HEADER and the JSON
        mirror must hold the same fields as the CSV."""
        try:
            with open(csv_path, encoding="utf-8", newline="") as fh:
                table = list(csv.reader(fh))
            with open(json_path, encoding="utf-8") as fh:
                mirror = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc!r}", None
        if not table or table[0] != harness.CSV_HEADER:
            return "CSV header differs from harness.CSV_HEADER", None
        rows = [tuple(r) for r in table[1:]]
        as_text = [tuple(str(d.get(k)) for k in harness.CSV_HEADER) for d in mirror]
        if as_text != rows:
            return "JSON mirror differs from the CSV", None
        return None, rows


class WideLayer(Workload):
    """Three 128x128 tasks, each with one pissa and one gaussian_zero FULL
    (2,3) cell run through harness.run_single: every SVD input is distinct
    and large, and training matmuls are big enough to be BLAS-bound."""

    name = "wide_layer"

    def __init__(self, n=128, rank=16, tasks=3, steps=100, batch=32):
        self.n, self.rank, self.tasks = n, rank, tasks
        self.steps, self.batch = steps, batch

    def plan(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        specs = [_recovery_spec(self.n, rng.randrange(2 ** 31)) for _ in range(self.tasks)]
        cfg = CoLAConfig(in_dim=self.n, out_dim=self.n, rank=self.rank,
                         a_count=2, b_count=3, strategy=Strategy.FULL)
        cells = []
        for index, spec in enumerate(specs):
            for kind, s in zip((PISSA, GAUSSIAN_ZERO), _seeds(rng, 2)):
                cells.append(Cell(call=len(cells), task=index, config=cfg, init=kind,
                                  seed=s, run_seed=s, steps=self.steps,
                                  batch=self.batch, sample_size=spec.train_samples))
        return Plan(tasks=specs, cells=cells, calls=len(cells),
                    rerun=rng.randrange(len(cells)))

    def iterate(self, plan, workdir):
        tasks = [make_task(spec) for spec in plan.tasks]
        out = []
        for cell in plan.cells:
            try:
                out.append(_run_single(tasks[cell.task], cell))
            except Exception as exc:  # fails this cell only
                out.append(exc)
        return out

    def collect(self, plan, result, workdir):
        calls = []
        for cell, outcome in zip(plan.cells, result):
            if isinstance(outcome, Exception):
                calls.append(Call(cells=[cell.key], error=repr(outcome)))
            else:
                calls.append(_call([cell.key], cell.call, [_row_text(outcome)]))
        return calls


WORKLOADS = {w.name: w for w in (SpectralScarcity, StrategyGrid, WideLayer)}


def is_finite_row(row: tuple[str, ...]) -> bool:
    return all(math.isfinite(float(row[harness.CSV_HEADER.index(f)]))
               for f in LOSS_FIELDS)


def eval_metric(row: tuple[str, ...]) -> float:
    return float(row[harness.CSV_HEADER.index("eval_metric")])
