"""Gradients, optimizers and the training loop.

Gradients are hand-derived from the factored forward pass over the terms of
``adapter._composition``: B_terms gets g (A_terms x)^T and A_terms gets
(B_terms^T g) x^T, each one product per side; a random composition sums
each partner's terms, and each member takes its run's gradient.
:func:`finite_diff_check` keeps its own, deliberately independent,
extended-precision statement of the rules as the oracle. The conventions:

* The base w0 is frozen: it never receives a gradient and training never
  writes to it.
* For the random strategies the gradient is taken through the *sampled*
  composition (straight-through, like dropout): pool members the active
  pairing never touches get exactly zero gradient.
* Pool members feeding several branches (all of them under FULL, the tail of
  HEURISTIC) accumulate over those branches, as the chain rule requires.
* ``g_out`` is dL/dy; the alpha/r scale is part of the layer and therefore
  part of the gradient.
* x and g_out are a single sample or a batch as columns, whose gradients sum.

:func:`train_loop` records a step once per run, over buffers it allocates
once: the forward pass (``adapter._apply``), the loss (``_loss``, the one
statement of its arithmetic), the backward pass (:func:`_backward`) and the
optimizer (``_update``, the one statement of SGD and Adam, whose scalars are
0-d arrays). A step takes its x, and its W0 x and targets from tables the run
multiplies once, into fixed buffers and is two replays around the loss
readout; a step that resamples first copies its drawn map into the
workspace's pairing and sets P with one take from an identity. A run draws a
block of steps in one rng call. It trains the run sums at lr times the run
length and writes the members once, after its last step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adapter import (
    CoLALayer,
    Pairing,
    Strategy,
    _apply,
    _check_pairing,
    _composition,
    _pairing_range,
    _pool_views,
    _replay,
    _run_sums,
    _run_views,
    _RunSums,
    _Workspace,
    flop_count,
    forward,
)
from .linalg import ShapeError, _as_real

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
    """dL/dA_i and dL/dB_j in one buffer, ``flat`` (allocated zeroed unless
    given), laid out like the layer's ``params``; ``da_list`` and
    ``db_list`` are its stacks."""

    def __init__(self, layer: CoLALayer, flat: np.ndarray | None = None):
        self.flat = np.zeros_like(layer.params) if flat is None else flat
        self.da_list, self.db_list = _pool_views(self.flat, layer.config)


def _as_columns(v: np.ndarray, dim: int, name: str) -> np.ndarray:
    v = _as_real(v, name)
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
    runs, pairing_map, scale = _composition(cfg, _check_pairing(cfg, pairing))
    sums = _run_sums(layer, runs)
    ws = _StepWorkspace(sums, pairing_map, x2.shape[1:])
    _replay(_apply(ws, x2, scale) + _backward(ws, x2, g2, scale))
    # each member takes its run's gradient; where every run is one member,
    # the workspace's gradient becomes the result, reordered in place (numpy
    # copies an overlapping source first)
    grads = Grads(layer, ws.grad if ws.grad.size == layer.params.size else None)
    for pool, run_grad, side in zip((grads.da_list, grads.db_list),
                                    _run_views(ws.grad, sums.config)[2:], runs):
        pool[...] = (run_grad if len(side) == len(pool)
                     else np.repeat(run_grad, [hi - lo for lo, hi in side], axis=0))
    return grads


class _StepWorkspace(_Workspace):
    """An :func:`_apply` workspace plus the buffers of the loss and of
    :func:`_backward`: g, sq and gs (n x cols), B_terms^T g (``rev``), a
    random composition's per-partner sums (``summed``), and the run sums'
    gradient ``grad``, laid out like their ``params``, with ``grad_a`` and
    ``grad_b`` its A_cat and B_cat."""

    def __init__(self, sums: _RunSums, pairing_map: tuple[int, ...] | None,
                 cols: tuple[int, ...]):
        super().__init__(sums, pairing_map, cols)
        cfg = sums.config
        self.g, self.sq, self.gs = (np.empty((cfg.out_dim,) + cols) for _ in range(3))
        self.rev = np.empty(self.hidden.shape)
        if pairing_map is not None:
            self.summed = np.empty((len(self.partner_sum) * cfg.rank,) + cols)
        self.grad = np.empty_like(sums.params)
        self.grad_a, self.grad_b = _run_views(self.grad, cfg)[:2]


def _backward(ws: _StepWorkspace, x2: np.ndarray, g2: np.ndarray,
              scale: float) -> list[tuple]:
    """The calls that write the run sums' gradient into ``ws.grad``, given
    the hidden state of the forward pass in ``ws``: both scales folded into
    g_out, then dB_cat = g (A_terms x)^T and dA_cat = B_terms^T g x^T, each
    one product that writes its side whole. On a random composition's
    partner side, the product reads its operand (A_terms x for B, B_terms^T
    g for A) with each partner's terms summed by ``ws.partner_sum``, so a
    partner no term draws gets an exact zero."""
    calls = []
    if (total := ws.layer_scale * scale) != 1.0:
        calls.append((np.multiply, (g2, np.array(total), ws.gs)))
        g2 = ws.gs
    hidden, rev, summing = ws.hidden, ws.rev, []
    if ws.pairing is not None:
        s = ws.partner_sum
        summing = [(np.dot, (s, (hidden if ws.partner else rev).reshape(s.shape[1], -1),
                             ws.summed.reshape(len(s), -1)))]
        hidden, rev = (ws.summed, rev) if ws.partner else (hidden, ws.summed)
    b_side = [(np.dot, (g2, hidden.T, ws.grad_b)), (np.dot, (ws.b_terms.T, g2, ws.rev))]
    a_side = [(np.dot, (rev, x2.T, ws.grad_a))]
    return calls + (summing + b_side + a_side if ws.partner else b_side + summing + a_side)


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
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    cfg = layer.config
    pairing = None if _pairing_range(cfg) is None else layer.pairing

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
    """SGD or Adam (decoupled weight decay fixed at 0). The first recorded Adam
    update allocates the moments ``m`` and ``v`` and a ``scratch`` buffer like
    the update it writes (the parameters under :func:`optimizer_step`, the
    run sums inside :func:`train_loop`), so later steps allocate none; an
    update of another shape raises :class:`ShapeError`."""

    kind: str
    lr: float
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("sgd", "adam"):
            raise ValueError(f"optimizer kind must be 'sgd' or 'adam', got {self.kind!r}")
        if not self.lr > 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")


def make_optimizer(kind: str, lr: float) -> OptimizerState:
    return OptimizerState(kind=kind, lr=lr)


def optimizer_step(state: OptimizerState, params: np.ndarray,
                   grads: np.ndarray) -> np.ndarray:
    """One in-place update; returns the (mutated) parameter array."""
    if params.shape != grads.shape:
        raise ShapeError(f"params of shape {params.shape} vs grads of shape {grads.shape}")
    update = np.empty(grads.shape, np.result_type(grads, 1.0))
    if not np.can_cast(update.dtype, params.dtype, "same_kind"):
        raise ValueError(f"params of dtype {params.dtype} cannot take a {update.dtype} update")
    calls, advance = _update(state, grads, update)
    advance()
    _replay(calls)
    params -= update
    return params


def _update(state: OptimizerState, grads: np.ndarray, out: np.ndarray,
            lr: np.ndarray | None = None) -> tuple[list[tuple], Callable[[], None]]:
    """The calls that write a step's update u for ``grads`` (applied as
    params -= u) into ``out``, which may be ``grads``, and the advance that
    counts the step and sets Adam's bias corrections before each replay; each
    scalar is a 0-d array of ``out``'s dtype (read faster, rounded alike).
    ``lr``, laid out like ``grads``, replaces ``state.lr`` per element."""
    lr = np.array(state.lr if lr is None else lr, out.dtype)
    if state.kind == "sgd":
        def advance():
            state.step += 1
        return [(np.multiply, (grads, lr, out))], advance
    if state.m is None:
        state.m, state.v, state.scratch = (np.zeros_like(out) for _ in range(3))
    elif state.m.shape != grads.shape:
        raise ShapeError("Adam state was allocated for other parameters")
    b1, b2 = state.betas
    c1, k1, c2, k2, eps, bc1, bc2 = (np.array(value, out.dtype) for value in (
        b1, 1.0 - b1, b2, 1.0 - b2, state.eps, 1.0, 1.0))

    def advance():
        state.step += 1
        bc1[()] = 1.0 - b1 ** state.step
        bc2[()] = 1.0 - b2 ** state.step
    # u = lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time
    m, v, t = state.m, state.v, state.scratch
    return [(np.multiply, (m, c1, m)), (np.multiply, (grads, k1, t)), (np.add, (m, t, m)),
            (np.multiply, (v, c2, v)), (np.multiply, (grads, k2, t)),
            (np.multiply, (t, grads, t)), (np.add, (v, t, v)), (np.divide, (v, bc2, t)),
            (np.sqrt, (t, t)), (np.add, (t, eps, t)), (np.divide, (m, bc1, out)),
            (np.multiply, (out, lr, out)), (np.divide, (out, t, out))], advance


# ---------------------------------------------------------------------------
# Losses and the loop
# ---------------------------------------------------------------------------

def _loss(kind: str, y: np.ndarray, targets: np.ndarray, g: np.ndarray,
          sq: np.ndarray) -> tuple[list[tuple], Callable[[], float], list[tuple]]:
    """The loss of outputs ``y`` against ``targets`` as ``(calls, readout,
    divide)``: the calls that write dL/dy, times the batch size, into ``g``
    (which may be ``y``), the readout that returns the loss once they ran,
    and the call that then divides ``g`` by the batch. For ``recovery`` the
    loss is the batch mean of 0.5 ||y_b - t_b||^2, summed through the squares
    in ``sq`` (which may be ``g`` if the gradient is not read), else the
    softmax cross-entropy of class-by-batch logits against integer labels."""
    batch = y.shape[1] if y.ndim == 2 else 1
    if kind == "recovery":
        calls = [(np.subtract, (y, targets, g)), (np.multiply, (g, g, sq))]
        def readout() -> float:
            return 0.5 * float(np.add.reduce(sq, None)) / batch
    else:
        peak, total = np.empty((2, 1, batch))
        cols = np.arange(batch)
        calls = [(np.maximum.reduce, (y, 0, None, peak, True)), (np.subtract, (y, peak, g)),
                 (np.exp, (g, g)), (np.add.reduce, (g, 0, None, total, True)),
                 (np.divide, (g, total, g))]
        def readout() -> float:
            loss = -float(np.mean(np.log(np.maximum(g[targets, cols], 1e-300))))
            g[targets, cols] -= 1.0
            return loss
    return calls, readout, [(np.divide, (g, np.array(batch, g.dtype), g))]


def _loss_grad(kind: str, y: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """(L, dL/dy) by :func:`_loss`, the gradient a new array."""
    g = np.empty(y.shape)
    calls, readout, divide = _loss(kind, y, targets, g, np.empty(y.shape))
    _replay(calls)
    loss = readout()
    _replay(divide)
    return loss, g


def squared_error_grad(y: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """L = mean over batch of 0.5 ||y_b - t_b||^2; returns (L, dL/dy), the
    gradient a new array. ``targets`` must have the shape of ``y``."""
    y, targets = np.asarray(y), np.asarray(targets)
    if targets.shape != y.shape:
        raise ShapeError(f"targets of shape {targets.shape} vs outputs of shape {y.shape}")
    return _loss_grad("recovery", y, targets)


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax cross-entropy over class-by-batch logits; returns (L,
    dL/dlogits), the gradient a new array. ``labels`` holds one integer class
    in [0, classes) per column."""
    logits, labels = np.asarray(logits), np.asarray(labels)
    if logits.ndim != 2 or labels.shape != logits.shape[1:]:
        raise ShapeError(f"need class-by-batch logits and one label per column, got "
                         f"logits of shape {logits.shape} and labels of shape {labels.shape}")
    if labels.dtype.kind not in "iu" or not np.all((labels >= 0) & (labels < logits.shape[0])):
        raise ValueError(f"labels must be integers in [0, {logits.shape[0]}), got {labels}")
    return _loss_grad("classify", logits, labels)


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


def _dataset_loss(layer: CoLALayer, task) -> float:
    """The loss over the whole training set, under the eval composition; its
    gradient and squares overwrite forward's output, which nothing else
    reads, so the gradient is never divided by the batch."""
    y = forward(layer, task.x_train, mode="eval")
    calls, readout, _ = _loss(task.kind, y, task.y_train, y, y)
    _replay(calls)
    return readout()


def _sample_tables(w0: np.ndarray, x_train: np.ndarray,
                   batch: int) -> tuple[np.ndarray, np.ndarray]:
    """The samples of ``x_train`` (m x size) as rows, copied row-major and
    zero-padded to whole batches, and W0 x of each as a column of an n x
    (padded size) table. The table is one batch-sized product per chunk of
    rows, written in place, so each column rounds as a step's own product
    ``np.dot(w0, x_rows.T, out)`` would round it (one product over all the
    samples rounds otherwise)."""
    size = x_train.shape[1]
    chunks = -(-size // batch)
    rows = np.zeros((chunks * batch, x_train.shape[0]), x_train.dtype)
    rows[:size] = x_train.T
    table = np.empty((w0.shape[0], chunks * batch))
    np.matmul(w0, rows.reshape(chunks, batch, -1).transpose(0, 2, 1),
              out=table.reshape(-1, chunks, batch).transpose(1, 0, 2))
    return rows, table


def train_loop(task, layer: CoLALayer, optimizer: OptimizerState, steps: int,
               batch: int, rng: np.random.Generator, seed: int = 0) -> TrainReport:
    """Minibatch training of a layer's pools on a synthetic task.

    Deterministic per rng stream: each step first draws the batch indices,
    then (for random strategies with an unfrozen pairing) the fresh pairing;
    a block of steps makes these draws in one call. The run trains the run
    sums of its composition (``adapter._composition``) at ``optimizer.lr``
    times the run length (an Adam state laid out otherwise raises
    :class:`ShapeError`), and writes the members after the last step: a
    member alone in its run becomes its trained sum, and a member of a run
    of k moves by (trained sum - starting sum) / k. The frozen base is
    never written. Raises :class:`DivergenceError` at the first non-finite
    minibatch loss, which leaves the members as they were, or, once they are
    written, if the final loss is not finite.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    cfg = layer.config
    frozen = layer.pairing is not None and layer.pairing.frozen
    draw = None if frozen else _pairing_range(cfg)
    # every pairing of a random strategy composes one run per member, so a
    # run that resamples composes any one and resets it at each step
    runs, pairing_map, scale = _composition(cfg, _check_pairing(cfg, layer.pairing)
                                            if draw is None else (0,) * draw[1])
    sums = _run_sums(layer, runs)
    sums_start = sums.params.copy()
    (a_len, b_len), r = ([hi - lo for lo, hi in side] for side in runs), cfg.rank
    lr = optimizer.lr * np.concatenate([np.repeat(a_len, r * cfg.in_dim),
                                        np.tile(np.repeat(b_len, r), cfg.out_dim)])
    ws = _StepWorkspace(sums, pairing_map, (batch,))
    grad = ws.grad

    # A block of steps draws, per step, its batch indices and then (if it
    # resamples) its pairing, all in one rng call with per-element bounds; a
    # block holds at most 64 steps and no more indices than the training set
    # has samples. A step takes its samples into fixed buffers: x as rows
    # into ``x_rows``, whose transpose is laid out like ``x_train[:, idx]``,
    # and W0 x and the targets as columns, from per-run tables, into
    # ``w0x_cols`` and ``t_cols`` (C-ordered like the outputs they meet). A
    # step that resamples copies its pairing into ``ws.pairing`` and sets P
    # with one take of the partners' unit vectors from an identity.
    size = task.x_train.shape[1]
    block = max(1, min(64, size // batch))
    highs = [size] * batch + ([] if draw is None else [draw[0]] * draw[1])
    block_highs = np.tile(highs, block)
    x_rows = np.empty((batch, cfg.in_dim), task.x_train.dtype)
    w0x_cols = np.empty((cfg.out_dim, batch))
    t_cols = np.empty(task.y_train.shape[:-1] + (batch,), task.y_train.dtype)
    identity = None if draw is None else np.eye(draw[0])
    xb = x_rows.T

    # A step is two replays around the loss readout, over the workspace and
    # those buffers. Outside this run, Adam's moments are laid out like the
    # run sums' members (as optimizer_step lays out a layer's); inside, like
    # the run sums' params, whose B side sets the runs side by side.
    loss_calls, readout, divide = _loss(task.kind, ws.out, t_cols, ws.g, ws.sq)
    first = _apply(ws, xb, scale, w0x_cols) + loss_calls
    _relayout_moments(optimizer, sums, into_run_sums=True)
    optimizer_calls, advance = _update(optimizer, grad, grad, lr)
    second = (divide + _backward(ws, xb, ws.g, scale) + optimizer_calls
              + [(np.subtract, (sums.params, grad, sums.params))])

    # A diverging run overflows before its loss turns non-finite; the
    # DivergenceError below reports it, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        initial_loss = _dataset_loss(layer, task)
        losses: list[float] = []
        try:
            if steps:
                # the tables the steps take from, which live while the steps
                # run (a dataset loss, which peaks higher, never runs beside them)
                x_samples, w0x_samples = _sample_tables(layer.w0, task.x_train, batch)
                t_samples = np.ascontiguousarray(task.y_train)
            for start in range(0, steps, block):
                count = min(block, steps - start)
                drawn = rng.integers(0, block_highs[:count * len(highs)]).reshape(count, -1)
                for idx, pairing_map in zip(drawn[:, :batch], drawn[:, batch:]):
                    # every index is in range, so "wrap" changes none; unlike the
                    # default "raise", it lets take write straight into the buffer
                    x_samples.take(idx, 0, x_rows, "wrap")
                    w0x_samples.take(idx, 1, w0x_cols, "wrap")
                    t_samples.take(idx, -1, t_cols, "wrap")
                    if draw is not None:
                        ws.pairing[...] = pairing_map
                        identity.take(pairing_map, 1, ws.partner_sum, "wrap")
                    _replay(first)
                    loss = readout()
                    if not math.isfinite(loss):
                        raise DivergenceError(f"training diverged: minibatch loss {loss} at "
                                              f"step {len(losses) + 1} of {steps} (seed {seed})")
                    advance()
                    _replay(second)
                    losses.append(loss)
        finally:
            _relayout_moments(optimizer, sums, into_run_sums=False)
        if steps:
            del x_samples, w0x_samples, t_samples

        # a member alone in its run becomes its trained sum; a member of a
        # run of k moves by (sum_end - sum_start) / k, written as a
        # subtraction, which leaves it untouched, signed zeros included, when
        # its run sum never moved
        for pool, trained, began, side in zip((layer.a_list, layer.b_list), (
                sums.a_list, sums.b_list), _run_views(sums_start, sums.config)[2:], runs):
            for end, start, (lo, hi) in zip(trained, began, side):
                pool[lo:hi] = end if hi - lo == 1 else pool[lo:hi] - (start - end) / (hi - lo)
        final_loss = _dataset_loss(layer, task)
    if not math.isfinite(final_loss):
        raise DivergenceError(f"training diverged: final loss {final_loss} after "
                              f"{steps} steps (seed {seed})")
    mac_per_step = flop_count(cfg, "train_step") * batch
    return TrainReport(seed=seed, steps=steps, initial_loss=initial_loss, losses=losses,
                       final_loss=final_loss, mac_per_step=mac_per_step,
                       mac_total=mac_per_step * steps)


def _relayout_moments(state: OptimizerState, sums: _RunSums, into_run_sums: bool) -> None:
    """Move Adam's moments for ``sums`` in place between the layout of the
    run sums' members, (K_a, r, m) then (K_b, n, r), and that of their
    ``params``, where B_cat sets the runs side by side; moments of another
    shape are left for :func:`_update` to refuse."""
    if state.m is None or state.m.shape != sums.params.shape or sums.config.b_count == 1:
        return
    for moment in (state.m, state.v):
        views = _pool_views(moment, sums.config)[1], _run_views(moment, sums.config)[3]
        target, source = views[::-1] if into_run_sums else views
        target[...] = source  # numpy copies an overlapping source first
