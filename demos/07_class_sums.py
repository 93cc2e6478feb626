"""A fixed composition trains as a smaller adapter with per-class learning rates.

Under FULL every A_i sits in the one term, and so does every B_j, so all
A_i get the same gradient at every step, and so do all B_j. DeltaW depends
only on the sums (B_1 + ... + B_N)(A_1 + ... + A_M), so FULL (M, N) trains
exactly like a single-pair adapter whose A is the sum of the A_i, trained at
lr_A = M * lr, and whose B is the sum of the B_j, at lr_B = N * lr. This is
how ``train_loop`` trains every composition: one matrix per run of members
that the terms use whole (a pool, the HEURISTIC tail or one member), written
back to the members after the last step.

Here FULL (2, 3) trains through ``train_loop``, and its (1, 1) class-sum
adapter through a hand loop over the public forward, backward and
optimizer_step at lr_A = 2 lr and lr_B = 3 lr, with the same minibatches.
"""

import numpy as np

from cola_forge import (
    CoLAConfig,
    GAUSSIAN_ZERO,
    InitSpec,
    RecoveryTaskSpec,
    Strategy,
    backward,
    build_layer,
    forward,
    lora_preset,
    make_layer,
    make_optimizer,
    make_recovery_task,
    make_rng,
    optimizer_step,
    squared_error_grad,
    train_loop,
)

task = make_recovery_task(RecoveryTaskSpec(n=24, m=20, base_seed=3, components=2,
                                           noise_std=0.02, train_samples=200,
                                           eval_samples=200), make_rng(3))
lr, steps, batch = 1e-2, 60, 8
cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                 strategy=Strategy.FULL)
layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(42), base_w0=task.w_base)

# the (1, 1) adapter of the class sums, built before the layer trains
small = make_layer(layer.w0, [layer.a_list[0] + layer.a_list[1]],
                   [layer.b_list[0] + layer.b_list[1] + layer.b_list[2]],
                   lora_preset(20, 24, 4, alpha=layer.config.alpha))

report = train_loop(task, layer, make_optimizer("adam", lr), steps, batch, make_rng(7))

rng = make_rng(7)  # train_loop's draws: one set of batch indices per step
split = small.a_list[0].size
opt_a, opt_b = make_optimizer("adam", 2 * lr), make_optimizer("adam", 3 * lr)
losses = []
for _ in range(steps):
    idx = rng.integers(0, task.train_size, size=batch)
    xb = task.x_train[:, idx]
    loss, g = squared_error_grad(forward(small, xb, mode="train"), task.y_train[:, idx])
    grads = backward(small, xb, g).flat
    optimizer_step(opt_a, small.params[:split], grads[:split])
    optimizer_step(opt_b, small.params[split:], grads[split:])
    losses.append(loss)

print(f"FULL (2, 3) via train_loop, lr = {lr}, against its (1, 1) class-sum adapter")
print(f"at lr_A = {2 * lr} and lr_B = {3 * lr}, {steps} Adam steps of batch {batch}:")
for step in (0, 9, 29, 59):
    print(f"  step {step + 1:>2}: {report.losses[step]:.12f}  {losses[step]:.12f}")
print(f"loss traces equal: {report.losses == losses}")
drift = max(np.abs(sum(layer.a_list) - small.a_list[0]).max(),
            np.abs(sum(layer.b_list) - small.b_list[0]).max())
print(f"trained members' sums against the adapter's pools: max difference {drift:.1e}")
print("(each member moved by 1/M or 1/N of its class sum's change, which rounds)")
