"""Gradients, optimizers and the training loop.

Gradients are hand-derived from the factored forward pass. ``backward`` reads
the same term list as ``adapter.forward`` (see the ``adapter`` module), so it
is one generic loop: a term's B_j receive g (sum_i A_i x)^T and its A_i
receive ((sum_j B_j)^T g) x^T, and each pool member sums over the terms it
appears in. :func:`finite_diff_check` keeps its own, deliberately
independent, extended-precision statement of the rules: it is the oracle the
term list is tested against. The conventions:

* The base w0 is frozen: it never receives a gradient and training never
  writes to it.
* For the random strategies the gradient is taken through the *sampled*
  composition (straight-through, like dropout): pool members the active
  pairing never touches get exactly zero gradient.
* Pool members feeding several branches (all of them under FULL, the tail of
  HEURISTIC) accumulate over those branches, as the chain rule requires.
* ``g_out`` is dL/dy; the alpha/r scale is part of the layer and therefore
  part of the gradient.

Everything accepts a single sample (x of length m, g_out of length n) or a
batch as columns (m x B and n x B), in which case gradients sum over the
batch, matching a loss that is itself summed (or averaged, if g_out already
carries the 1/B factor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapter import (
    CoLALayer,
    Pairing,
    Strategy,
    _composition,
    _pool_sum,
    _train_pairing,
    delta_weight_eval,
    flop_count,
    forward,
)
from .linalg import ShapeError, frobenius_norm

__all__ = [
    "Grads",
    "backward",
    "finite_diff_check",
    "OptimizerState",
    "make_optimizer",
    "optimizer_step",
    "TrainReport",
    "squared_error_grad",
    "cross_entropy_grad",
    "train_loop",
]


@dataclass
class Grads:
    """dL/dA_i and dL/dB_j, shaped exactly like the layer's pools."""

    da_list: list[np.ndarray]
    db_list: list[np.ndarray]

    def flat(self) -> list[np.ndarray]:
        return self.da_list + self.db_list


def _as_columns(v: np.ndarray, dim: int, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[0] != dim:
        raise ShapeError(f"{name} must have leading dim {dim}, got shape {v.shape}")
    return v


def backward(layer: CoLALayer, x: np.ndarray, g_out: np.ndarray,
             pairing: Pairing | None = None) -> Grads:
    """Exact pool gradients for dL/dy = g_out at input x."""
    cfg = layer.config
    x2 = _as_columns(x, cfg.in_dim, "x")
    g2 = _as_columns(g_out, cfg.out_dim, "g_out")
    if x2.shape[1] != g2.shape[1]:
        raise ShapeError(f"x batch {x2.shape[1]} != g_out batch {g2.shape[1]}")
    terms, scale = _composition(cfg, pairing)
    # Both scales multiply every term, so they are folded into g_out once.
    g2 = (cfg.scale * scale) * g2
    da = [np.zeros_like(a) for a in layer.a_list]
    db = [np.zeros_like(b) for b in layer.b_list]
    for b_idx, a_idx in terms:
        t = layer.a_list[a_idx[0]] @ x2
        for i in a_idx[1:]:
            t += layer.a_list[i] @ x2
        db_term = g2 @ t.T
        da_term = (_pool_sum(layer.b_list, b_idx).T @ g2) @ x2.T
        for j in b_idx:
            db[j] += db_term
        for i in a_idx:
            da[i] += da_term
    return Grads(da_list=da, db_list=db)


def finite_diff_check(layer: CoLALayer, x: np.ndarray, target: np.ndarray,
                      eps: float = 1e-5) -> float:
    """Max relative disagreement between backward() and central differences.

    The probe loss is L = 0.5 * ||y - target||^2 with the layer's current
    pairing held fixed. Relative error uses
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12), so all-zero
    gradients (e.g. zero input and zero target) report 0.

    The reference side is evaluated in extended precision (longdouble) with
    its own composition code: at eps ~ 1e-5 a float64 central difference
    carries ~|y| * machine-eps / eps of roundoff, which would swamp small
    gradient entries and report false disagreement. The oracle stays a pure
    perturb-and-evaluate procedure, independent of backward().
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    cfg = layer.config
    pairing = layer.pairing if cfg.strategy in (
        Strategy.RANDOM_AB, Strategy.RANDOM_BA) else None

    y0 = forward(layer, x, mode="train", pairing=pairing)
    analytic = backward(layer, x, y0 - np.asarray(target, dtype=np.float64), pairing)

    ld = np.longdouble
    w0x = layer.w0.astype(ld) @ np.asarray(x, dtype=ld)
    x_ld = np.asarray(x, dtype=ld)
    t_ld = np.asarray(target, dtype=ld)
    a_pools = [a.astype(ld) for a in layer.a_list]
    b_pools = [b.astype(ld) for b in layer.b_list]
    scale = ld(cfg.alpha) / ld(cfg.rank)

    def loss() -> np.longdouble:
        # independent statement of the composition rules
        if cfg.strategy is Strategy.FULL:
            delta = sum(b_pools) @ (sum(a_pools) @ x_ld)
        elif cfg.strategy is Strategy.HEURISTIC:
            m_count = cfg.a_count
            delta = sum(b_pools[m_count - 1:]) @ (a_pools[m_count - 1] @ x_ld)
            for i in range(m_count - 1):
                delta = delta + b_pools[i] @ (a_pools[i] @ x_ld)
        elif cfg.strategy is Strategy.RANDOM_AB:
            delta = np.zeros_like(w0x)
            for i, target_j in enumerate(pairing.map):
                delta = delta + b_pools[target_j] @ (a_pools[i] @ x_ld)
        else:
            delta = np.zeros_like(w0x)
            for j, target_i in enumerate(pairing.map):
                delta = delta + b_pools[j] @ (a_pools[target_i] @ x_ld)
        diff = w0x + scale * delta - t_ld
        return ld(0.5) * np.sum(diff * diff)

    worst = 0.0
    pools = a_pools + b_pools
    grads = analytic.flat()
    eps_ld = ld(eps)
    for mat, grad in zip(pools, grads):
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = mat[idx]
            mat[idx] = orig + eps_ld
            f_plus = loss()
            mat[idx] = orig - eps_ld
            f_minus = loss()
            mat[idx] = orig
            numeric = float((f_plus - f_minus) / (2.0 * eps_ld))
            denom = max(abs(grad[idx]), abs(numeric), 1e-12)
            worst = max(worst, abs(grad[idx] - numeric) / denom)
    return worst


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

@dataclass
class OptimizerState:
    """SGD or Adam (decoupled weight decay fixed at 0) over a parameter list."""

    kind: str
    lr: float
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)


def make_optimizer(kind: str, lr: float, params: list[np.ndarray]) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"optimizer kind must be 'sgd' or 'adam', got {kind!r}")
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    state = OptimizerState(kind=kind, lr=lr)
    if kind == "adam":
        state.m = [np.zeros_like(p) for p in params]
        state.v = [np.zeros_like(p) for p in params]
    return state


def optimizer_step(state: OptimizerState, params: list[np.ndarray],
                   grads: list[np.ndarray]) -> list[np.ndarray]:
    """One in-place update; returns the (mutated) parameter list."""
    if len(params) != len(grads):
        raise ShapeError(f"{len(params)} params vs {len(grads)} grads")
    state.step += 1
    if state.kind == "sgd":
        for p, g in zip(params, grads):
            p -= state.lr * g
        return params
    b1, b2 = state.betas
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * g * g
        m_hat = state.m[i] / bc1
        v_hat = state.v[i] / bc2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


# ---------------------------------------------------------------------------
# Losses and the loop
# ---------------------------------------------------------------------------

def squared_error_grad(y: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """L = mean over batch of 0.5 ||y_b - t_b||^2; returns (L, dL/dy)."""
    diff = y - targets
    batch = y.shape[1] if y.ndim == 2 else 1
    loss = 0.5 * float(np.sum(diff * diff)) / batch
    return loss, diff / batch


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over class-by-batch logits; returns (L, dL/dlogits)."""
    z = logits - logits.max(axis=0, keepdims=True)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=0, keepdims=True)
    batch = logits.shape[1]
    picked = probs[labels, np.arange(batch)]
    loss = -float(np.mean(np.log(np.maximum(picked, 1e-300))))
    grad = probs.copy()
    grad[labels, np.arange(batch)] -= 1.0
    return loss, grad / batch


@dataclass
class TrainReport:
    """Outcome of one training run.

    ``losses`` holds the minibatch loss at each executed step (length equals
    the step count); ``initial_loss`` / ``final_loss`` are full-training-set
    losses under the deterministic eval composition, before and after.
    ``mac_per_step`` is the analytic train-step model times the batch size,
    so ``mac_total`` counts every sample the run pushed through the layer.
    """

    seed: int
    steps: int
    initial_loss: float
    losses: list[float]
    final_loss: float
    mac_per_step: int
    mac_total: int
    param_summary: dict[str, float]


def _dataset_loss(layer: CoLALayer, task) -> float:
    y = forward(layer, task.x_train, mode="eval")
    if task.kind == "recovery":
        loss, _ = squared_error_grad(y, task.y_train)
    else:
        loss, _ = cross_entropy_grad(y, task.labels_train)
    return loss


def train_loop(task, layer: CoLALayer, optimizer: OptimizerState, steps: int,
               batch: int, rng: np.random.Generator, seed: int = 0) -> TrainReport:
    """Minibatch training of a layer's pools on a synthetic task.

    Deterministic per rng stream: each step first draws the batch indices,
    then (for random strategies with an unfrozen pairing) the fresh pairing.
    The frozen base is never written.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    cfg = layer.config
    params = layer.a_list + layer.b_list
    n_train = task.x_train.shape[1]

    initial_loss = _dataset_loss(layer, task)
    losses: list[float] = []
    for _ in range(steps):
        idx = rng.integers(0, n_train, size=batch)
        xb = task.x_train[:, idx]
        pairing = _train_pairing(layer, None, rng)
        y = forward(layer, xb, mode="train", pairing=pairing)
        if task.kind == "recovery":
            loss, g = squared_error_grad(y, task.y_train[:, idx])
        else:
            loss, g = cross_entropy_grad(y, task.labels_train[idx])
        grads = backward(layer, xb, g, pairing)
        optimizer_step(optimizer, params, grads.flat())
        losses.append(loss)

    final_loss = _dataset_loss(layer, task)
    mac_per_step = flop_count(cfg, "train_step") * batch
    return TrainReport(
        seed=seed,
        steps=steps,
        initial_loss=initial_loss,
        losses=losses,
        final_loss=final_loss,
        mac_per_step=mac_per_step,
        mac_total=mac_per_step * steps,
        param_summary={
            "delta_norm": frobenius_norm(delta_weight_eval(layer)),
            "a_norm": float(np.sqrt(sum(np.sum(a * a) for a in layer.a_list))),
            "b_norm": float(np.sqrt(sum(np.sum(b * b) for b in layer.b_list))),
        },
    )
