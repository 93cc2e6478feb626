"""Acceptance criteria 1, 2, 4, 5 and 6, each measured once.

Each ``criterion_*`` function measures its criterion over the release cases
and seeds, returning the worst value and the case that produced it (criterion
6: the three train-step totals). ``tests/test_acceptance.py`` asserts these
values; ``run_selfcheck`` (``cola-forge selfcheck``) judges them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .adapter import (
    CoLAConfig,
    Strategy,
    delta_weight,
    flop_count,
    forward,
    hydra_preset,
    lora_preset,
    make_layer,
    merge,
    moe_preset,
)
from .harness import bundled_geometry, param_count
from .initializers import GAUSSIAN_ZERO, PISSA, InitSpec, build_layer
from .linalg import frobenius_norm, make_rng
from .training import finite_diff_check

__all__ = ["CheckResult", "criterion_1_param_percent", "criterion_2_spectral_split",
           "criterion_4_gradients", "criterion_5_preset_forms",
           "criterion_6_train_costs", "run_selfcheck"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _worst_case(measure):
    """Make a generator of (value, case) pairs return its largest pair instead;
    a NaN value counts as the largest."""
    @functools.wraps(measure)
    def worst() -> tuple[float, str]:
        return max(measure(), key=lambda pair: math.inf if math.isnan(pair[0]) else pair[0])
    return worst


@_worst_case
def criterion_1_param_percent():
    """Largest |%Param - published| over the paper's parameter tables."""
    geo8 = bundled_geometry("llama31_8b")
    geo3 = bundled_geometry("llama32_3b")
    for geo, a_count, b_count, rank, published in [
            (geo8, 1, 1, 8, 0.2605), (geo8, 1, 3, 8, 0.5325), (geo8, 2, 3, 8, 0.6551),
            (geo8, 1, 1, 64, 2.0465), (geo3, 1, 1, 8, 0.3770)]:
        _, percent = param_count(geo, a_count, b_count, rank)
        yield (abs(percent - published), f"{geo.name} M={a_count} N={b_count} "
               f"r={rank}: {percent:.4f} vs {published:.4f}")


@_worst_case
def criterion_2_spectral_split():
    """Largest relative error of a merged principal split against its source."""
    rng = make_rng(321)
    for _ in range(20):
        n = int(rng.integers(8, 129))
        m = int(rng.integers(8, 97))
        rank = min(int(rng.choice([4, 8])), n, m)
        a_count = int(rng.choice([1, 2, 3]))
        b_count = int(rng.choice([1, 2, 3]))
        w = rng.normal(size=(n, m))
        config = CoLAConfig(in_dim=m, out_dim=n, rank=rank, a_count=a_count,
                            b_count=b_count, strategy=Strategy.FULL, alpha=float(rank))
        layer = build_layer(config, InitSpec(PISSA, source_w=w), make_rng(0))
        yield (frobenius_norm(merge(layer) - w) / frobenius_norm(w),
               f"{n}x{m} r={rank} M={a_count} N={b_count}")


@_worst_case
def criterion_4_gradients():
    """Largest relative error of the analytic gradients against the finite-
    difference oracle, over every strategy, pool shape, init kind and seed."""
    for strategy in Strategy:
        for a_count, b_count in [(2, 3), (3, 3)]:
            for init_kind in (GAUSSIAN_ZERO, PISSA):
                for seed in (42, 43, 44, 45, 46):
                    rng = make_rng(seed)
                    config = CoLAConfig(in_dim=12, out_dim=16, rank=4, a_count=a_count,
                                        b_count=b_count, strategy=strategy)
                    if init_kind == GAUSSIAN_ZERO:
                        layer = build_layer(config, InitSpec(GAUSSIAN_ZERO, std=0.3),
                                            rng, base_w0=rng.normal(size=(16, 12)))
                        for b in layer.b_list:  # move off the zero point
                            b += rng.normal(0.0, 0.3, size=b.shape)
                    else:
                        layer = build_layer(
                            config, InitSpec(PISSA, source_w=rng.normal(size=(16, 12))), rng)
                    yield (finite_diff_check(layer, rng.normal(size=12), rng.normal(size=16)),
                           f"{strategy.value} M={a_count} N={b_count} {init_kind} seed {seed}")


@_worst_case
def criterion_5_preset_forms():
    """Largest absolute deviation of each preset from its closed form."""
    rng = make_rng(987)
    n, m, rank = 20, 14, 4

    def pools(config):
        w0 = rng.normal(size=(n, m))
        a_list = [rng.normal(size=(rank, m)) for _ in range(config.a_count)]
        b_list = [rng.normal(size=(n, rank)) for _ in range(config.b_count)]
        return make_layer(w0, a_list, b_list, config, rng=rng)

    layer = pools(lora_preset(m, n, rank, alpha=float(rank)))
    yield (np.abs(delta_weight(layer) - layer.b_list[0] @ layer.a_list[0]).max(),
           "single pair: DeltaW = B A")
    x = rng.normal(size=m)
    reference = layer.w0 @ x + layer.b_list[0] @ (layer.a_list[0] @ x)
    yield np.abs(forward(layer, x) - reference).max(), "single pair: y = W0 x + B A x"
    layer = pools(hydra_preset(m, n, rank, b_count=3, alpha=float(rank)))
    yield (np.abs(delta_weight(layer) - sum(layer.b_list) @ layer.a_list[0]).max(),
           "shared down: DeltaW = (sum B_j) A")
    layer = pools(moe_preset(m, n, rank, experts=4, alpha=float(rank)))
    experts = sum(b @ a for a, b in zip(layer.a_list, layer.b_list))
    yield np.abs(delta_weight(layer) - experts).max(), "paired experts: DeltaW = sum B_i A_i"


def criterion_6_train_costs() -> dict[str, int]:
    """Per-sample train-step MACs of random_ab, heuristic and full at 64x64,
    r=8, M=2, N=3."""
    return {strategy.value: flop_count(
                CoLAConfig(in_dim=64, out_dim=64, rank=8, a_count=2, b_count=3,
                           strategy=strategy, alpha=16.0), "train_step")
            for strategy in (Strategy.RANDOM_AB, Strategy.HEURISTIC, Strategy.FULL)}


def run_selfcheck() -> list[CheckResult]:
    """Measure criteria 1, 2, 4, 5 and 6 and judge each against its tolerance."""
    results = []
    for name, measure, tol in [
        ("criterion 1: %Param reproduction", criterion_1_param_percent, 0.005),
        ("criterion 2: principal-split reconstruction", criterion_2_spectral_split, 1e-10),
        ("criterion 4: gradient suite", criterion_4_gradients, 1e-6),
        ("criterion 5: preset closed forms", criterion_5_preset_forms, 1e-12),
    ]:
        worst, case = measure()
        results.append(CheckResult(name, worst <= tol,
                                   f"worst {worst:.3e} at {case} (tol {tol:g})"))
    costs = criterion_6_train_costs()
    ab, heur, full = costs["random_ab"], costs["heuristic"], costs["full"]
    results.append(CheckResult("criterion 6: train-step cost ordering",
                               ab < full and ab <= heur <= full,
                               f"random_ab={ab} heuristic={heur} full={full}"))
    return results
