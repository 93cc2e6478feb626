"""Calls and cost per step of ``train_loop``, for each strategy and pool shape.

Prints one line per (strategy, M, N), with M and N in {1, 2, 3, 4} (M <= N
under HEURISTIC), at 32x32, rank 8, batch 8 and Adam on a 400-sample
recovery task, then one line at the benchmark's ``wide_layer`` cell shape:
128x128, rank 16, FULL (2, 3), batch 32, on a 400-sample recovery task.
Each line gives

* ``calls``: the numpy calls a step replays, counted by wrapping
  ``training._replay`` over a 400-step and a 0-step run, whose difference
  is divided by 400;
* ``us``: the microseconds per step, as a 400-step run minus a 0-step run,
  each the min of 7 runs from a fresh layer;
* ``setup_us``: the microseconds of that 0-step run, the per-run setup
  (run sums, workspace, recorded calls, the tables of samples, W0 x and
  targets, and the two dataset losses).

The script is not a test (pytest collects only ``test_*.py``). Run it from
the repository root, naming the tree to measure by its ``src``, with one
BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/step_calls.py
"""

import time

from cola_forge import training
from cola_forge.adapter import CoLAConfig, Strategy
from cola_forge.harness import RecoveryTaskSpec, make_recovery_task
from cola_forge.initializers import GAUSSIAN_ZERO, InitSpec, build_layer
from cola_forge.linalg import make_rng

STEPS, REPEATS = 400, 7
COUNTS = (1, 2, 3, 4)


def run(task, cfg, steps, batch) -> float:
    """Seconds of one train_loop of ``steps`` steps, from a fresh layer."""
    layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(1), base_w0=task.w_base)
    optimizer = training.make_optimizer("adam", 1e-2)
    start = time.perf_counter()
    training.train_loop(task, layer, optimizer, steps=steps, batch=batch, rng=make_rng(2))
    return time.perf_counter() - start


def calls_per_step(task, cfg, batch) -> float:
    replay, counted = training._replay, [0]

    def counting(calls):
        counted[0] += len(calls)
        replay(calls)

    training._replay = counting
    try:
        totals = []
        for steps in (STEPS, 0):
            counted[0] = 0
            run(task, cfg, steps, batch)
            totals.append(counted[0])
    finally:
        training._replay = replay
    return (totals[0] - totals[1]) / STEPS


def us_per_step_and_setup(task, cfg, batch) -> tuple[float, float]:
    long = min(run(task, cfg, STEPS, batch) for _ in range(REPEATS))
    short = min(run(task, cfg, 0, batch) for _ in range(REPEATS))
    return (long - short) / STEPS * 1e6, short * 1e6


def report(label, task, cfg, batch) -> None:
    us, setup_us = us_per_step_and_setup(task, cfg, batch)
    print(f"{label} {calls_per_step(task, cfg, batch):6.2f} {us:6.1f} {setup_us:8.1f}",
          flush=True)


def recovery_task(dim, seed):
    return make_recovery_task(RecoveryTaskSpec(n=dim, m=dim, base_seed=seed, components=3,
                                               noise_std=0.05, train_samples=400,
                                               eval_samples=400), make_rng(seed))


def main() -> None:
    task = recovery_task(32, 1)
    print(f"{'strategy':10s} {'M':>2s} {'N':>2s} {'calls':>6s} {'us':>6s} {'setup_us':>8s}")
    for strategy in Strategy:
        for m_count in COUNTS:
            for n_count in COUNTS:
                if strategy is Strategy.HEURISTIC and m_count > n_count:
                    continue
                cfg = CoLAConfig(in_dim=32, out_dim=32, rank=8, a_count=m_count,
                                 b_count=n_count, strategy=strategy)
                report(f"{strategy.value:10s} {m_count:2d} {n_count:2d}", task, cfg, 8)
    cfg = CoLAConfig(in_dim=128, out_dim=128, rank=16, a_count=2, b_count=3)
    report(f"{'wide full':10s} {2:2d} {3:2d}", recovery_task(128, 3), cfg, 32)


if __name__ == "__main__":
    main()
