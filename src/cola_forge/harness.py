"""Desk-scale experiment harness.

Provides the synthetic tasks (matrix recovery and cluster classification),
the grid / scarcity sweeps over adapter shapes, and parameter accounting
against published model geometries. All runs are pure functions of
(spec, seeds): cells derive disjoint RNG streams from their coordinates, so
execution order never changes results.

It also holds the one reader of JSON input files, shared by geometry files
and the CLI's run configs: ``_read_object`` loads a file's root object and
``_build`` turns it into a dataclass, reading each key as its field's
annotation states. An unknown key, a missing required key, a key stated
twice in one object and a value of another JSON type raise
``ConfigFileError`` naming the key, with the index of a list entry
(``modules[2].m``), and so does ``NaN`` or ``Infinity``, which JSON does not
have; each dataclass checks its own values.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import tempfile
import typing
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .adapter import CoLAConfig, Strategy, _undefined, forward, trainable_params
from .initializers import GAUSSIAN_ZERO, INIT_KINDS, PISSA, InitSpec, build_layer
from .linalg import (_check_choice, _check_count, _check_positive, _check_range, _is_real,
                     derive_seed, gaussian_matrix, make_rng)
from .training import TrainReport, make_optimizer, train_loop

__all__ = [
    "RecoveryTaskSpec",
    "ClassifyTaskSpec",
    "Task",
    "make_recovery_task",
    "make_classification_task",
    "ModuleDim",
    "ModelGeometry",
    "load_geometry",
    "bundled_geometry",
    "param_count",
    "SweepRow",
    "CSV_HEADER",
    "run_single",
    "grid_cell_seed",
    "sweep_cell_seed",
    "GridResult",
    "run_grid",
    "scarcity_sweep",
    "write_rows_csv",
    "write_rows_json",
    "observation3_experiment",
    "scarcity_experiment",
    "DEFAULT_SEEDS",
]

DEFAULT_SEEDS = (42, 43, 44, 45, 46)


# ---------------------------------------------------------------------------
# Synthetic tasks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecoveryTaskSpec:
    """Linear-map recovery: learn y = (w_base + delta_target) x from samples.

    ``delta_target`` is a sum of ``components`` rank-one terms u_k v_k^T with
    unit factors; ``shared_downspace`` forces every v_k into one shared
    direction (the regime where a common down-projection suffices and output
    diversity lives entirely on the up side). ``source_noise_std`` controls
    the perturbed copy of the true map exposed to spectral initialization:
    the task's principal structure is retained up to that noise.
    """

    n: int
    m: int
    base_seed: int
    components: int = 1
    shared_downspace: bool = False
    noise_std: float = 0.0
    train_samples: int = 200
    eval_samples: int = 200
    source_noise_std: float = 0.0

    def __post_init__(self):
        for name in ("n", "m", "components", "train_samples", "eval_samples"):
            _check_count(name, getattr(self, name))
        _check_count("base_seed", self.base_seed, 0)
        for name in ("noise_std", "source_noise_std"):
            _check_range(name, getattr(self, name), 0)


@dataclass(frozen=True)
class ClassifyTaskSpec:
    """Gaussian clusters classified through an adapted frozen backbone.

    Cluster centers sit pairwise exactly ``separation`` apart (in units of
    the within-cluster std, which is 1); labels are cluster ids, flipped to a
    uniformly random other id with probability ``label_noise``. The frozen
    backbone (clusters x input_dim) is drawn from its own seed. Eval draws a
    fresh set with the same per-cluster count.
    """

    clusters: int
    input_dim: int
    samples_per_cluster: int
    backbone_seed: int
    label_noise: float = 0.0
    separation: float = 6.0

    def __post_init__(self):
        # clusters is checked before it bounds input_dim (separated centers)
        for name, low in (("clusters", 2), ("input_dim", self.clusters),
                          ("samples_per_cluster", 1), ("backbone_seed", 0)):
            _check_count(name, getattr(self, name), low)
        _check_range("label_noise", self.label_noise, 0, 1)
        _check_positive("separation", self.separation)


@dataclass
class Task:
    """Materialized dataset plus the matrices models build on.

    Samples are the last axis; ``y_*`` hold output columns (recovery) or
    integer labels (classify). ``w_base`` is the frozen base a Gaussian/zero
    layer adapts; ``pissa_source`` is what the spectral initializer splits
    (for recovery tasks: the true map plus spec.source_noise_std
    perturbation; for classification: the backbone itself).
    """

    kind: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_eval: np.ndarray
    y_eval: np.ndarray
    w_base: np.ndarray
    pissa_source: np.ndarray
    delta_target: np.ndarray | None = None

    @property
    def in_dim(self) -> int:
        return self.x_train.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w_base.shape[0]

    @property
    def train_size(self) -> int:
        return self.x_train.shape[1]

    def subsample(self, size: int | None) -> "Task":
        """First ``size`` training columns (deterministic); eval untouched."""
        if size is None:
            return self
        _check_count("subsample size", size, 1, high=self.train_size)
        return self if size == self.train_size else dataclasses.replace(
            self, x_train=self.x_train[..., :size], y_train=self.y_train[..., :size])


def make_recovery_task(spec: RecoveryTaskSpec, rng: np.random.Generator) -> Task:
    """Sample a recovery task; consumption order is fixed for determinism:
    components, train inputs, train noise, eval inputs, eval noise, source
    perturbation. The base matrix comes from spec.base_seed, not ``rng``."""
    n, m = spec.n, spec.m
    w_base = gaussian_matrix(n, m, 1.0 / np.sqrt(m), make_rng(spec.base_seed))

    def unit(vec: np.ndarray) -> np.ndarray:
        return vec / np.linalg.norm(vec)

    shared_v = unit(rng.normal(size=m)) if spec.shared_downspace else None
    delta = np.zeros((n, m))
    for _ in range(spec.components):
        u = unit(rng.normal(size=n))
        v = shared_v if shared_v is not None else unit(rng.normal(size=m))
        delta += np.outer(u, v)
    w_true = w_base + delta

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        x = rng.normal(size=(m, count))
        y = w_true @ x
        if spec.noise_std > 0:
            y = y + rng.normal(0.0, spec.noise_std, size=y.shape)
        return x, y

    x_train, y_train = draw(spec.train_samples)
    x_eval, y_eval = draw(spec.eval_samples)
    source = w_true.copy()
    if spec.source_noise_std > 0:
        source = source + rng.normal(0.0, spec.source_noise_std, size=source.shape)
    return Task(kind="recovery", x_train=x_train, y_train=y_train,
                x_eval=x_eval, y_eval=y_eval, w_base=w_base,
                pissa_source=source, delta_target=delta)


def make_classification_task(spec: ClassifyTaskSpec, rng: np.random.Generator) -> Task:
    """Sample a classification task; centers from ``rng``, backbone from its
    own seed so the frozen map is shared across sample redraws."""
    c, d = spec.clusters, spec.input_dim
    raw = rng.normal(size=(d, c))
    q, _ = np.linalg.qr(raw)
    centers = (spec.separation / np.sqrt(2.0)) * q[:, :c]  # pairwise dist = separation

    def draw() -> tuple[np.ndarray, np.ndarray]:
        per = spec.samples_per_cluster
        labels = np.repeat(np.arange(c), per)
        x = centers[:, labels] + rng.normal(size=(d, c * per))
        if spec.label_noise > 0:
            flip = rng.random(labels.shape) < spec.label_noise
            shift = rng.integers(1, c, size=labels.shape)
            labels = np.where(flip, (labels + shift) % c, labels)
        return x, labels.astype(np.int64)

    x_train, y_train = draw()
    x_eval, y_eval = draw()
    backbone = gaussian_matrix(c, d, 1.0 / np.sqrt(d), make_rng(spec.backbone_seed))
    return Task(kind="classify", x_train=x_train, y_train=y_train,
                x_eval=x_eval, y_eval=y_eval, w_base=backbone,
                pissa_source=backbone)


# ---------------------------------------------------------------------------
# JSON input files
# ---------------------------------------------------------------------------

class ConfigFileError(ValueError):
    """A JSON input file failed validation; the message names the key."""


def _int(value) -> int:
    """A JSON integer; a boolean, a string or a non-integral number fails."""
    if not _is_real(value) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """A finite JSON number; a boolean, a string or an overflow (1e400) fails."""
    if not _is_real(value) or not abs(value) <= np.finfo(float).max:
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _exact(kind: type, expected: str):
    """The cast that takes only a JSON value of type ``kind``, as it is."""
    def cast(value):
        if not isinstance(value, kind):
            raise ValueError(f"expected {expected}, got {value!r}")
        return value
    return cast


# The cast of each scalar field type; ``_cast`` composes them by annotation.
_CASTS = {int: _int, float: _float, bool: _exact(bool, "true or false"),
          str: _exact(str, "a string"), Strategy: Strategy}
_hints = functools.cache(typing.get_type_hints)  # a dataclass's field types


def _cast(hint, value, key: str, dims: dict):
    """``value`` read from JSON as the annotation ``hint`` states: a dataclass
    is an object, ``X | None`` is X, and ``tuple[X, ...]`` a list of X that
    names each entry once (a repeat would run, and count, twice). A value of
    another type raises ConfigFileError naming ``key``; a list entry's key
    carries its index."""
    if hint in _CASTS:
        try:
            return _CASTS[hint](value)
        except ValueError as exc:
            raise ConfigFileError(f"key '{key}': {exc}") from exc
    if dataclasses.is_dataclass(hint):
        return _build(hint, value, f"{key}.", dims)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigFileError(f"key '{key}': expected a list, got {value!r}")
        entries = tuple(_cast(typing.get_args(hint)[0], entry, f"{key}[{index}]", dims)
                        for index, entry in enumerate(value))
        if len(set(entries)) != len(entries):
            raise ConfigFileError(f"key '{key}' repeats an entry")
        return entries
    (hint,) = set(typing.get_args(hint)) - {type(None)}
    return _cast(hint, value, key, dims)


def _build(cls, mapping: dict, context: str, dims: dict, **given):
    """Construct a dataclass from a JSON object, casting each key by its
    annotation; ``given`` fields pass as they are, and an adapter's dims are
    the task's ``dims``. A key naming a given field is unknown. ``context``
    prefixes every key an error names. A ValueError the class raises is
    re-raised naming the block (a root object's as it is), unless it is a
    ConfigFileError, which already names its key."""
    if not isinstance(mapping, dict):
        raise ConfigFileError(f"key '{context.rstrip('.')}' must be an object")
    if cls is CoLAConfig:
        given.update(dims)
    hints = _hints(cls)
    for key in mapping:
        if key not in hints or key in given:
            raise ConfigFileError(f"unknown key '{context}{key}'")
    for key, value in mapping.items():
        given[key] = _cast(hints[key], value, f"{context}{key}", dims)
    for declared in dataclasses.fields(cls):
        if (declared.name not in given and declared.default is dataclasses.MISSING
                and declared.default_factory is dataclasses.MISSING):
            raise ConfigFileError(f"missing key '{context}{declared.name}'")
    try:
        return cls(**given)
    except ConfigFileError:
        raise
    except ValueError as exc:
        block = context.rstrip(".")
        raise ConfigFileError(f"block '{block}': {exc}" if block else str(exc)) from exc


def _read_object(path: str) -> dict:
    """The root object of the JSON file at ``path``. JSON has no NaN or
    infinity, and an object names each key once, so the constants
    ``NaN``/``Infinity``/``-Infinity`` and a repeated key, which Python's
    reader would accept, raise ConfigFileError naming them."""
    def constant(name: str):
        raise ConfigFileError(f"config file {path} holds {name}, which is not a JSON number")

    def unique(pairs: list[tuple[str, object]]) -> dict:
        obj: dict = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigFileError(f"key '{key}' is stated twice in one object")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=constant, object_pairs_hook=unique)
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigFileError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigFileError("config root must be a JSON object")
    return raw


# ---------------------------------------------------------------------------
# Model geometry and parameter accounting
# ---------------------------------------------------------------------------

ALLOWED_MODULES = ("down_proj", "gate_proj", "k_proj", "o_proj", "q_proj", "up_proj", "v_proj")


@dataclass(frozen=True)
class ModuleDim:
    name: str
    n: int  # output dim
    m: int  # input dim

    def __post_init__(self):
        _check_choice("module name", self.name, ALLOWED_MODULES)
        _check_count("n", self.n)
        _check_count("m", self.m)


@dataclass(frozen=True)
class ModelGeometry:
    name: str
    base_params: int
    layers: int
    modules: tuple[ModuleDim, ...]

    def __post_init__(self):
        _check_count("base_params", self.base_params)
        _check_count("layers", self.layers)
        if not self.modules:
            raise ValueError("modules must be a nonempty list")


def load_geometry(path: str) -> ModelGeometry:
    """Parse and validate a geometry JSON file."""
    return _build(ModelGeometry, _read_object(path), "", {})


def bundled_geometry(name: str) -> ModelGeometry:
    """Load one of the geometry files shipped with the package."""
    ref = resources.files("cola_forge").joinpath(f"geometries/{name}.json")
    with resources.as_file(ref) as path:
        return load_geometry(str(path))


def param_count(geometry: ModelGeometry, a_count: int, b_count: int,
                rank: int) -> tuple[int, float]:
    """(trainable parameter count, percentage of base + trainable).

    Every adapted module contributes one (M, N, r) adapter's trainable_params
    per layer, so a count or rank CoLAConfig refuses raises ConfigError. The
    percentage denominator includes the adapter itself, which is the
    convention reproducing the published tables.
    """
    per_layer = sum(trainable_params(CoLAConfig(in_dim=mod.m, out_dim=mod.n, rank=rank,
                                                a_count=a_count, b_count=b_count))
                    for mod in geometry.modules)
    trainable = geometry.layers * per_layer
    percent = 100.0 * trainable / (geometry.base_params + trainable)
    return trainable, percent


# ---------------------------------------------------------------------------
# Sweep rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    strategy: str
    init: str
    M: int
    N: int
    r: int
    sample_size: int
    seed: int
    step0_loss: float
    final_loss: float
    eval_metric: float
    trainable_params: int
    mac_count: int

    def as_list(self) -> list:
        return [getattr(self, name) for name in CSV_HEADER]

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_HEADER}


CSV_HEADER = [f.name for f in dataclasses.fields(SweepRow)]


def _eval_metric(layer, task: Task) -> float:
    pred = forward(layer, task.x_eval, mode="eval")
    if task.kind == "recovery":
        return float(np.mean((pred - task.y_eval) ** 2))
    return float(np.mean(np.argmax(pred, axis=0) == task.y_eval))


def run_single(
    task: Task,
    config: CoLAConfig,
    init_kind: str,
    run_seed: int,
    steps: int,
    batch: int = 8,
    optimizer: str = "adam",
    lr: float = 1e-2,
    std: float | None = None,
    sample_size: int | None = None,
    echo_seed: int | None = None,
) -> tuple[SweepRow, TrainReport]:
    """Train one configuration on one task; fully determined by run_seed.

    ``echo_seed`` is what lands in the row's seed column (sweeps echo the
    user-facing seed while running on a derived stream).
    """
    init = InitSpec(init_kind, std=std, source_w=task.pissa_source)
    view = task.subsample(sample_size)
    rng = make_rng(run_seed)
    layer = build_layer(config, init, rng, base_w0=task.w_base)
    opt = make_optimizer(optimizer, lr)
    report = train_loop(view, layer, opt, steps, batch, rng, seed=run_seed)
    row = SweepRow(
        strategy=config.strategy.value,
        init=init_kind,
        M=config.a_count,
        N=config.b_count,
        r=config.rank,
        sample_size=view.train_size,
        seed=run_seed if echo_seed is None else echo_seed,
        step0_loss=report.initial_loss,
        final_loss=report.final_loss,
        eval_metric=_eval_metric(layer, task),
        trainable_params=trainable_params(config),
        mac_count=report.mac_total,
    )
    return row, report


def grid_cell_seed(seed: int, a_count: int, b_count: int) -> int:
    """Derived stream for one grid cell; public so a standalone run can
    reproduce a grid row bit for bit."""
    return derive_seed(seed, a_count, b_count)


_STRATEGY_CODE = {s: i for i, s in enumerate(Strategy)}


def sweep_cell_seed(seed: int, size: int, init_kind: str, config: CoLAConfig) -> int:
    """Derived stream for one scarcity-sweep cell."""
    InitSpec(init_kind)  # checks the kind
    return derive_seed(seed, size, INIT_KINDS.index(init_kind),
                       config.a_count, config.b_count,
                       _STRATEGY_CODE[config.strategy], config.rank)


def _run_cells(task: Task, cells: list, steps: int, batch: int, optimizer: str,
               lr: float, std: float | None) -> list[SweepRow]:
    """One :func:`run_single` row per cell, in cell order.

    A cell is (config, init kind, run seed, echoed seed, sample size); a
    sample size of None is the whole training set. Every cell is checked
    before the first one trains, by InitSpec (init kind, ``std``), make_rng
    (run seed) and Task.subsample (size), and no two cells may share the row
    key fields (strategy, init, M, N, r, sample_size, seed).
    """
    keys = set()
    for config, init_kind, run_seed, echo_seed, size in cells:
        InitSpec(init_kind, std)
        make_rng(run_seed)
        key = (config.strategy.value, init_kind, config.a_count, config.b_count,
               config.rank, task.subsample(size).train_size, echo_seed)
        if key in keys:
            raise ValueError(f"two cells share the row key {dict(zip(CSV_HEADER, key))}")
        keys.add(key)
    return [run_single(task, config, init_kind, run_seed, steps, batch=batch,
                       optimizer=optimizer, lr=lr, std=std, sample_size=size,
                       echo_seed=echo_seed)[0]
            for config, init_kind, run_seed, echo_seed, size in cells]


@dataclass
class GridResult:
    rows: list[SweepRow]
    skipped: list[tuple[int, int]] = field(default_factory=list)


def run_grid(
    task: Task,
    rank: int,
    strategy: Strategy,
    m_range,
    n_range,
    seeds=DEFAULT_SEEDS,
    steps: int = 200,
    batch: int = 8,
    optimizer: str = "adam",
    lr: float = 1e-2,
    init_kind: str = GAUSSIAN_ZERO,
    std: float | None = None,
) -> GridResult:
    """One row per (M, N, seed) over the pool-count grid, in (M, N, seed) order.

    Heuristic cells with M > N are structurally undefined and reported in
    ``skipped`` instead of producing rows. Every cell is checked before the
    first one trains, so a repeated M, N or seed raises ValueError.
    """
    strategy = Strategy(strategy)
    skipped = [(a_count, b_count) for a_count in m_range for b_count in n_range
               if _undefined(strategy, a_count, b_count)]
    cells = [(CoLAConfig(in_dim=task.in_dim, out_dim=task.out_dim, rank=rank,
                         a_count=a_count, b_count=b_count, strategy=strategy),
              init_kind, grid_cell_seed(seed, a_count, b_count), seed, None)
             for a_count in sorted(m_range) for b_count in sorted(n_range)
             if (a_count, b_count) not in skipped for seed in sorted(seeds)]
    return GridResult(_run_cells(task, cells, steps, batch, optimizer, lr, std), skipped)


def scarcity_sweep(
    task: Task,
    sizes,
    init_kinds,
    configs,
    seeds=DEFAULT_SEEDS,
    steps: int = 100,
    batch: int = 8,
    optimizer: str = "adam",
    lr: float = 1e-2,
    std: float | None = None,
) -> list[SweepRow]:
    """One row per (sample size x init kind x config x seed).

    Each run trains on the first ``size`` training samples of the task. Rows
    come in (sample_size, init, M, N, seed) order. Every cell is checked
    before the first one trains, so a size above the training set, or two
    configs that differ only in alpha, raise ValueError.
    """
    cells = [(config, kind, sweep_cell_seed(seed, size, kind, config), seed, size)
             for size in sizes for kind in init_kinds for config in configs
             for seed in seeds]
    cells.sort(key=lambda c: (c[4], c[1], c[0].a_count, c[0].b_count, c[3]))
    return _run_cells(task, cells, steps, batch, optimizer, lr, std)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _atomic_write(path: str, payload: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-rows-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rows_csv(rows, path: str) -> None:
    lines = [",".join(CSV_HEADER)]
    # str() of a float is its shortest round-trip representation, which keeps
    # repeated runs byte-identical.
    lines.extend(",".join(map(str, row.as_list())) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_rows_json(rows, path: str) -> None:
    payload = json.dumps([row.as_dict() for row in rows], indent=2)
    _atomic_write(path, payload + "\n")


# ---------------------------------------------------------------------------
# Fixed experiment suites
# ---------------------------------------------------------------------------

OBS3_TASK_SPEC = RecoveryTaskSpec(
    n=48, m=48, base_seed=7, components=4, shared_downspace=True,
    noise_std=0.1, train_samples=40, eval_samples=400,
)

SCARCITY_TASK_SPEC = RecoveryTaskSpec(
    n=32, m=32, base_seed=11, components=3, shared_downspace=False,
    noise_std=0.05, train_samples=400, eval_samples=400,
    source_noise_std=0.01,
)


def observation3_experiment(seeds=DEFAULT_SEEDS, steps: int = 400,
                            rank: int = 8, lr: float = 1e-2) -> dict:
    """Equal-budget comparison of (M=1, N=4) against (M=4, N=1).

    The task is square (so r*m + 4*n*r = 4*r*m + n*r holds exactly), built
    from 4 rank-one components sharing one down-direction, trained from
    Gaussian/zero under the fully collaborative strategy on scarce noisy
    samples. Returns the rows, per-cell mean eval MSE, and whether the
    wide-up cell (more up-projections than down) won.

    A FULL (M, N) layer trains as a (1, 1) adapter of its pool sums at
    lr_A = M * lr, lr_B = N * lr: ``wide_up`` trains B, ``wide_down`` A (from
    a sum of four draws) at 4 * lr. The cells differ in one side's learning
    rate, the effect LoRA+ (arXiv 2402.12354) studies.
    """
    task = make_recovery_task(OBS3_TASK_SPEC, make_rng(OBS3_TASK_SPEC.base_seed))
    grids = {label: run_grid(task, rank, Strategy.FULL, [a_count], [b_count],
                             seeds=seeds, steps=steps, lr=lr).rows
             for label, (a_count, b_count) in (("wide_up", (1, 4)), ("wide_down", (4, 1)))}
    metrics = {label: [row.eval_metric for row in rows] for label, rows in grids.items()}
    means = {label: float(np.mean(values)) for label, values in metrics.items()}
    return {
        "rows": grids["wide_up"] + grids["wide_down"],
        "mean_eval_mse": means,
        "std_eval_mse": {label: float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
                         for label, values in metrics.items()},
        "wide_up_wins": means["wide_up"] <= means["wide_down"],
    }


def scarcity_experiment(seeds=DEFAULT_SEEDS, sizes=(50, 100, 200, 400),
                        steps: int = 60, rank: int = 8) -> dict:
    """Initialization sweep on a recovery task with principal structure.

    The spectral cells split a lightly perturbed copy of the true map (the
    task retains its principal structure up to source_noise_std), so their
    step-0 loss is bounded by the perturbation while Gaussian/zero cells
    start a full target update away. Full-strategy configurations only.
    Returns rows plus the per-cell (size, config, seed) step-0 comparison.
    """
    task = make_recovery_task(SCARCITY_TASK_SPEC, make_rng(SCARCITY_TASK_SPEC.base_seed))
    configs = [
        CoLAConfig(in_dim=task.in_dim, out_dim=task.out_dim, rank=rank,
                   a_count=1, b_count=3, strategy=Strategy.FULL),
        CoLAConfig(in_dim=task.in_dim, out_dim=task.out_dim, rank=rank,
                   a_count=2, b_count=3, strategy=Strategy.FULL),
    ]
    rows = scarcity_sweep(task, sizes, [PISSA, GAUSSIAN_ZERO], configs,
                          seeds=seeds, steps=steps)
    by_cell: dict[tuple, dict[str, float]] = {}
    for row in rows:
        key = (row.sample_size, row.M, row.N, row.seed)
        by_cell.setdefault(key, {})[row.init] = row.step0_loss
    comparisons = [
        {"cell": key, "pissa": losses[PISSA], "gaussian_zero": losses[GAUSSIAN_ZERO],
         "pissa_leq": losses[PISSA] <= losses[GAUSSIAN_ZERO]}
        for key, losses in sorted(by_cell.items())
    ]
    return {
        "rows": rows,
        "comparisons": comparisons,
        "pissa_always_leq": all(c["pissa_leq"] for c in comparisons),
    }
