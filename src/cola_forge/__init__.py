"""Flexible collaborative low-rank adapters at desk scale.

A self-contained numpy engine for adapted linear maps y = W0 x + (a/r) DW x,
where DW is assembled from pools of M down- and N up-projections under one of
four composition strategies, with spectral (principal-split) initialization,
exact hand-derived gradients, an analytic MAC cost model, and a synthetic
benchmark harness producing deterministic CSV/JSON sweeps.
"""

from .adapter import (
    CoLAConfig,
    CoLALayer,
    ConfigError,
    Pairing,
    Strategy,
    delta_weight,
    delta_weight_eval,
    flop_breakdown,
    flop_count,
    forward,
    hydra_preset,
    lora_preset,
    make_layer,
    merge,
    moe_preset,
    sample_pairing,
    trainable_params,
)
from .checks import CheckResult, run_selfcheck
from .harness import (
    ClassifyTaskSpec,
    GridResult,
    ModelGeometry,
    ModuleDim,
    RecoveryTaskSpec,
    SweepRow,
    Task,
    bundled_geometry,
    load_geometry,
    make_classification_task,
    make_recovery_task,
    observation3_experiment,
    param_count,
    run_grid,
    run_single,
    scarcity_experiment,
    scarcity_sweep,
    write_rows_csv,
    write_rows_json,
)
from .initializers import (
    GAUSSIAN_ZERO,
    PISSA,
    InitSpec,
    RankDeficientSourceError,
    build_layer,
    default_alpha,
    eckart_young_error,
    init_gaussian_zero,
    pissa_extended,
)
from .linalg import (
    ConvergenceError,
    ShapeError,
    SvdResult,
    derive_seed,
    frobenius_norm,
    gaussian_matrix,
    make_rng,
    svd,
)
from .training import (
    DivergenceError,
    Grads,
    Optimizer,
    OptimizerState,
    TrainReport,
    backward,
    cross_entropy_grad,
    finite_diff_check,
    make_optimizer,
    optimizer_step,
    squared_error_grad,
    train_loop,
)

__version__ = "0.1.0"
