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

A :func:`train_loop` run whose pairing cannot change composes once and draws
the batch indices of 64 steps per rng call; one that resamples its pairing
draws them, then the pairing, each step. The stacked forward pass keeps each
term's hidden state sum_i A_i x; the backward pass reuses it, adding every pool
gradient into ``Grads.flat``, one zeroed buffer laid out like ``params``, and
:func:`optimizer_step` updates ``params`` from it as one array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adapter import (
    CoLALayer,
    Pairing,
    Strategy,
    _PAIRING_KIND,
    _apply,
    _check_pairing,
    _composition,
    _pairing_range,
    _pool_sum,
    _pool_views,
    flop_count,
    forward,
)
from .linalg import ShapeError

__all__ = [
    "DivergenceError",
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


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss."""


class Grads:
    """dL/dA_i and dL/dB_j in one zeroed buffer, ``flat``, laid out like the
    layer's ``params``; ``da_list`` and ``db_list`` are its pool stacks."""

    def __init__(self, layer: CoLALayer):
        self.flat = np.zeros_like(layer.params)
        self.da_list, self.db_list = _pool_views(self.flat, layer.config)


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
    terms, scale = _composition(cfg, _check_pairing(cfg, pairing))
    grads = Grads(layer)
    _backward(layer, x2, g2, terms, scale, _apply(layer, x2, terms, scale)[1], grads)
    return grads


def _backward(layer: CoLALayer, x2: np.ndarray, g2: np.ndarray, terms, scale: float,
              hidden: list[np.ndarray], grads: Grads) -> None:
    """Add the pool gradients into the zeroed ``grads``, given each term's
    hidden state from the forward pass."""
    # Both scales multiply every term, so they are folded into g_out once.
    if (total := layer.config.scale * scale) != 1.0:
        g2 = total * g2
    # add through a view: ``stack[j] += ...`` would copy it back onto itself
    b_stack, da_stack, db_stack = layer.b_list, grads.da_list, grads.db_list
    for (b_idx, a_idx), t in zip(terms, hidden):
        db_term = g2 @ t.T
        da_term = (_pool_sum(b_stack, b_idx).T @ g2) @ x2.T
        for j in b_idx:
            db = db_stack[j]
            db += db_term
        for i in a_idx:
            da = da_stack[i]
            da += da_term


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
    pairing = layer.pairing if cfg.strategy in _PAIRING_KIND else None

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
    grads = [*analytic.da_list, *analytic.db_list]
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
    """SGD or Adam (decoupled weight decay fixed at 0) over one parameter
    array; the first Adam step allocates ``m``, ``v`` and a two-slot
    ``scratch`` shaped like it, so later steps allocate no temporaries."""

    kind: str
    lr: float
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = None


def make_optimizer(kind: str, lr: float) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"optimizer kind must be 'sgd' or 'adam', got {kind!r}")
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    return OptimizerState(kind=kind, lr=lr)


def optimizer_step(state: OptimizerState, params: np.ndarray,
                   grads: np.ndarray) -> np.ndarray:
    """One in-place update; returns the (mutated) parameter array."""
    if params.shape != grads.shape:
        raise ShapeError(f"params of shape {params.shape} vs grads of shape {grads.shape}")
    state.step += 1
    if state.kind == "sgd":
        params -= state.lr * grads
        return params
    if state.m is None:
        state.m, state.v = np.zeros_like(params), np.zeros_like(params)
        state.scratch = np.empty((2,) + params.shape, params.dtype)
    elif state.m.shape != params.shape:
        raise ShapeError("Adam state was allocated for other parameters")
    b1, b2 = state.betas
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time
    # into the scratch buffers t and u, passed by position (parsed faster)
    m, v, (t, u) = state.m, state.v, state.scratch
    m *= b1
    m += np.multiply(grads, 1.0 - b1, t)
    v *= b2
    v += np.multiply(np.multiply(grads, 1.0 - b2, t), grads, t)
    np.sqrt(np.divide(v, bc2, t), t)
    t += state.eps
    np.multiply(np.divide(m, bc1, u), state.lr, u)
    params -= np.divide(u, t, u)
    return params


# ---------------------------------------------------------------------------
# Losses and the loop
# ---------------------------------------------------------------------------

def squared_error_grad(y: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """L = mean over batch of 0.5 ||y_b - t_b||^2; returns (L, dL/dy)."""
    diff = y - targets
    batch = y.shape[1] if y.ndim == 2 else 1
    loss = 0.5 * float((diff * diff).sum()) / batch
    return loss, diff / batch


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over class-by-batch logits; returns (L, dL/dlogits)."""
    z = logits - logits.max(axis=0, keepdims=True)
    expz = np.exp(z)
    probs = expz / expz.sum(axis=0, keepdims=True)
    batch = logits.shape[1]
    picked = probs[labels, np.arange(batch)]
    loss = -float(np.mean(np.log(np.maximum(picked, 1e-300))))
    probs[labels, np.arange(batch)] -= 1.0
    return loss, np.divide(probs, batch, probs)


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


def _task_loss(task, y: np.ndarray, idx=slice(None)) -> tuple[float, np.ndarray]:
    """Loss and dL/dy of outputs y on the training samples ``idx``."""
    if task.kind == "recovery":
        return squared_error_grad(y, task.y_train[:, idx])
    return cross_entropy_grad(y, task.labels_train[idx])


def _dataset_loss(layer: CoLALayer, task) -> float:
    return _task_loss(task, forward(layer, task.x_train, mode="eval"))[0]


def train_loop(task, layer: CoLALayer, optimizer: OptimizerState, steps: int,
               batch: int, rng: np.random.Generator, seed: int = 0) -> TrainReport:
    """Minibatch training of a layer's pools on a synthetic task.

    Deterministic per rng stream: each step first draws the batch indices,
    then (for random strategies with an unfrozen pairing) the fresh pairing.
    The frozen base is never written. Raises :class:`DivergenceError` at the
    first non-finite minibatch loss, or if the final loss is not finite.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    cfg, grads = layer.config, Grads(layer)
    kind = _PAIRING_KIND.get(cfg.strategy)
    frozen = layer.pairing is not None and layer.pairing.frozen
    draw = None if kind is None or frozen else _pairing_range(kind, cfg.a_count, cfg.b_count)
    if draw is None:  # no pairing is drawn per step
        terms, scale = _composition(cfg, _check_pairing(cfg, layer.pairing))
    block = 64 if draw is None else 1  # steps whose batch indices one rng call draws
    indices = (idx for start in range(0, steps, block) for idx in rng.integers(
        0, task.x_train.shape[1], size=(min(block, steps - start), batch)))

    # A diverging run overflows before its loss turns non-finite; the
    # DivergenceError below reports it, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        initial_loss = _dataset_loss(layer, task)
        losses: list[float] = []
        for step, idx in enumerate(indices, 1):
            if draw is not None:
                terms, scale = _composition(cfg, rng.integers(0, draw[0], size=draw[1]).tolist())
            xb = task.x_train[:, idx]
            y, hidden = _apply(layer, xb, terms, scale)
            loss, g = _task_loss(task, y, idx)
            if not math.isfinite(loss):
                raise DivergenceError(f"training diverged: minibatch loss {loss} at step "
                                      f"{step} of {steps} (seed {seed})")
            grads.flat.fill(0.0)
            _backward(layer, xb, g, terms, scale, hidden, grads)
            optimizer_step(optimizer, layer.params, grads.flat)
            losses.append(loss)

        final_loss = _dataset_loss(layer, task)
    if not math.isfinite(final_loss):
        raise DivergenceError(f"training diverged: final loss {final_loss} after "
                              f"{steps} steps (seed {seed})")
    mac_per_step = flop_count(cfg, "train_step") * batch
    return TrainReport(
        seed=seed,
        steps=steps,
        initial_loss=initial_loss,
        losses=losses,
        final_loss=final_loss,
        mac_per_step=mac_per_step,
        mac_total=mac_per_step * steps,
    )
