"""Exact gradients and a full training run on a synthetic recovery task.

Gradients for every strategy are hand-derived from the factored forward
pass; the finite-difference check compares them against perturb-and-evaluate
estimates. The training run then recovers a hidden low-rank update of a
frozen base map from noisy samples.
"""

import numpy as np

from cola_forge import (
    CoLAConfig,
    GAUSSIAN_ZERO,
    InitSpec,
    RecoveryTaskSpec,
    Strategy,
    build_layer,
    finite_diff_check,
    make_optimizer,
    make_recovery_task,
    make_rng,
    train_loop,
)

# --- gradient check across strategies ---------------------------------------
print("finite-difference agreement (max relative error):")
for strategy in Strategy:
    rng = make_rng(3)
    cfg = CoLAConfig(in_dim=12, out_dim=16, rank=4, a_count=2, b_count=3,
                     strategy=strategy)
    layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO, std=0.3), rng,
                        base_w0=rng.normal(size=(16, 12)))
    for b in layer.b_list:  # move the up pools off zero so nothing is trivial
        b += rng.normal(0.0, 0.3, size=b.shape)
    err = finite_diff_check(layer, rng.normal(size=12), rng.normal(size=16))
    print(f"  {strategy.value:12s} {err:.2e}")

# --- train on a matrix-recovery task ----------------------------------------
spec = RecoveryTaskSpec(n=24, m=20, base_seed=3, components=2, noise_std=0.02,
                        train_samples=200, eval_samples=200)
task = make_recovery_task(spec, make_rng(3))
print(f"\nrecovery task: learn a {spec.components}-component update of a "
      f"{spec.n}x{spec.m} frozen map from {spec.train_samples} noisy samples")

cfg = CoLAConfig(in_dim=20, out_dim=24, rank=8, a_count=1, b_count=2,
                 strategy=Strategy.FULL)
layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(42),
                    base_w0=task.w_base)
optimizer = make_optimizer("adam", 1e-2)
report = train_loop(task, layer, optimizer, steps=500, batch=8,
                    rng=make_rng(42), seed=42)

print(f"\nstep-0 loss: {report.initial_loss:.4f}")
for step in (0, 99, 199, 299, 399, 499):
    print(f"  step {step + 1:>3}: batch loss {report.losses[step]:.5f}")
print(f"final loss:  {report.final_loss:.5f}  "
      f"({report.final_loss / report.initial_loss:.1%} of start)")
print(f"train-step cost: {report.mac_per_step} MACs per batch of 8, "
      f"{report.mac_total} total over {report.steps} steps")

eval_pred = (layer.w0 + layer.config.scale
             * (sum(layer.b_list) @ sum(layer.a_list))) @ task.x_eval
print(f"eval MSE: {np.mean((eval_pred - task.y_eval) ** 2):.5f} "
      f"(noise floor {spec.noise_std ** 2:.5f})")
