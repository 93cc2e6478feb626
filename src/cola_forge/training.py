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

:func:`train_loop` records a step once per run, each recorder the one
statement of its calls: the forward pass (``adapter._apply``, over a
``_Workspace``), the loss (``_loss``), the backward pass (:func:`_backward`,
which allocates its own scratch) and the optimizer (``_update``, SGD or Adam
with 0-d array scalars, Adam's moments kept over their EMA weights, so that
its step is 10 calls); the run allocates the loss buffers and the gradient
these share. A step takes its x, W0 x and targets from tables the run builds
once into fixed buffers, and is two replays around the loss readout; a step
that resamples first copies its drawn map into the workspace's pairing and
sets P with one take from an identity. A run draws a block of steps in one
rng call, trains the run sums at lr times the run length and writes the
members once, after its last step.
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
    _replay,
    _run_sums,
    _run_views,
    _Workspace,
    flop_count,
    forward,
)
from .linalg import (ShapeError, _as_real, _check_choice, _check_count, _check_positive,
                     _check_shape, _is_real)

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
    given), laid out like the layer's ``params`` (dA_cat, then dB_cat);
    ``da_list`` and ``db_list`` are its member views."""

    def __init__(self, layer: CoLALayer, flat: np.ndarray | None = None):
        self.flat = np.zeros_like(layer.params) if flat is None else flat
        self.da_list, self.db_list = _run_views(self.flat, layer.config)[2:]


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
    ws, grad = _Workspace(sums, pairing_map, x2.shape[1:]), np.empty_like(sums.params)
    _replay(_apply(ws, x2, scale) + _backward(ws, x2, g2, scale, grad))
    if grad.size == layer.params.size:  # one member a run: the members' gradient
        return Grads(layer, grad)
    grads = Grads(layer)  # each member takes its run's gradient
    for pool, run_grad, side in zip((grads.da_list, grads.db_list),
                                    _run_views(grad, sums.config)[2:], runs):
        pool[...] = (run_grad if len(side) == len(pool)
                     else np.repeat(run_grad, [hi - lo for lo, hi in side], axis=0))
    return grads


def _backward(ws: _Workspace, x2: np.ndarray, g2: np.ndarray, scale: float,
              grad: np.ndarray) -> list[tuple]:
    """The calls that write the run sums' gradient into ``grad``, laid out
    like their ``params``, given the forward pass's hidden state in ``ws``:
    both scales folded into g_out, B_terms^T g, a random composition's
    per-partner sum, then dB_cat = g (A_terms x)^T and dA_cat = B_terms^T g
    x^T, each one product that writes its side whole; it allocates their
    scratch. The partner side's product reads its operand (A_terms x for B,
    B_terms^T g for A) with each partner's terms summed by ``ws.partner_sum``,
    so a partner no term draws gets an exact zero."""
    calls, cfg = [], ws.config
    if (total := cfg.scale * scale) != 1.0:
        gs = np.empty(g2.shape)
        calls.append((np.multiply, (g2, np.array(total), gs)))
        g2 = gs
    hidden, rev = ws.hidden, np.empty(ws.hidden.shape)
    calls.append((np.dot, (ws.b_terms.T, g2, rev)))
    if ws.pairing is not None:
        s = ws.partner_sum
        summed = np.empty((len(s) * cfg.rank,) + hidden.shape[1:])
        calls.append((np.dot, (s, (hidden if ws.partner else rev).reshape(s.shape[1], -1),
                               summed.reshape(len(s), -1))))
        hidden, rev = (summed, rev) if ws.partner else (hidden, summed)
    grad_a, grad_b = _run_views(grad, cfg)[:2]
    return calls + [(np.dot, (g2, hidden.T, grad_b)), (np.dot, (rev, x2.T, grad_a))]


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
    _check_positive("eps", eps)
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
    run sums inside :func:`train_loop`, laid out alike where every run is one
    member), so later steps allocate none; an update of another shape raises
    :class:`ShapeError`. ``m`` and ``v`` hold the moments over their EMA
    weights, m / (1 - beta1) and v / (1 - beta2) (see ``_update``)."""

    kind: str
    lr: float
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    scratch: np.ndarray | None = None

    def __post_init__(self):  # ``_update`` runs it again: a field can be reassigned
        _check_choice("optimizer kind", self.kind, ("sgd", "adam"))
        _check_positive("learning rate", self.lr)
        _check_positive("eps", self.eps)
        if not (isinstance(self.betas, (tuple, list)) and len(self.betas) == 2
                and all(_is_real(b) and 0 <= b < 1 for b in self.betas)):
            raise ValueError(f"betas must be two reals in [0, 1), got {self.betas!r}")
        _check_count("step", self.step, 0)


def make_optimizer(kind: str, lr: float) -> OptimizerState:
    return OptimizerState(kind=kind, lr=lr)


def optimizer_step(state: OptimizerState, params: np.ndarray,
                   grads: np.ndarray) -> np.ndarray:
    """One in-place update; returns the (mutated) parameter array."""
    _check_shape("grads", grads, params.shape)
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
    counts the step and sets Adam's step scalars before each replay; each
    scalar is a 0-d array of ``out``'s dtype (read faster, rounded alike).
    ``lr``, laid out like ``grads``, replaces ``state.lr`` per element.

    Adam keeps its moments over their EMA weights, m~ = m / (1 - b1) and
    v~ = v / (1 - b2), and folds its bias corrections into two step scalars
    (Kingma and Ba, arXiv 1412.6980, section 2, before 2.1): u = lr m~ /
    (sqrt(v~) + eps root) * s_t, with root = sqrt((1 - b2^t) / (1 - b2)) and
    s_t = (1 - b1) / (1 - b1^t) * root, the textbook update reordered. The
    state's fields are checked first, so a bad assignment records nothing."""
    state.__post_init__()
    lr = np.array(state.lr if lr is None else lr, out.dtype)
    if state.kind == "sgd":
        def advance():
            state.step += 1
        return [(np.multiply, (grads, lr, out))], advance
    if state.m is None:
        state.m, state.v, state.scratch = (np.zeros_like(out) for _ in range(3))
    elif state.m.shape != grads.shape:
        raise ShapeError("Adam state was allocated for other parameters")
    (b1, b2), e = state.betas, state.eps
    k1, k2 = 1.0 - b1, 1.0 - b2
    c1, c2, eps, s = (np.array(value, out.dtype) for value in (b1, b2, e, 1.0))

    def advance():
        state.step += 1
        root = math.sqrt((1.0 - b2 ** state.step) / k2)
        eps[()] = e * root
        s[()] = k1 / (1.0 - b1 ** state.step) * root
    m, v, t = state.m, state.v, state.scratch
    return [(np.multiply, (m, c1, m)), (np.add, (m, grads, m)), (np.multiply, (v, c2, v)),
            (np.multiply, (grads, grads, t)), (np.add, (v, t, v)), (np.sqrt, (v, t)),
            (np.add, (t, eps, t)), (np.multiply, (m, lr, out)), (np.divide, (out, t, out)),
            (np.multiply, (out, s, out))], advance


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
    _check_shape("targets", targets, y.shape)
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


def _check_run(steps, batch=1) -> None:
    """The one check of a run: ``steps`` an integer >= 0, ``batch`` one >= 1."""
    _check_count("steps", steps, 0)
    _check_count("batch", batch, 1)


def train_loop(task, layer: CoLALayer, optimizer: OptimizerState, steps: int,
               batch: int, rng: np.random.Generator, seed: int = 0) -> TrainReport:
    """Minibatch training of a layer's pools on a synthetic task.

    Deterministic per rng stream: each step first draws the batch indices,
    then (for random strategies with an unfrozen pairing) the fresh pairing;
    a block of steps makes these draws in one call. The run trains the run
    sums of its composition (``adapter._composition``) at ``optimizer.lr``
    times the run length (an Adam state laid out otherwise, unlike a layer's
    ``params`` where every run is one member, raises :class:`ShapeError`),
    and writes the members after the last step: a member alone in its run
    becomes its trained sum, and a member of a run of k moves by (trained
    sum - starting sum) / k. The frozen base is never written, and a 0-step
    run allocates no buffer of a step. Raises :class:`DivergenceError` at
    the first non-finite minibatch loss, which leaves the members as they
    were, or, once they are written, if the final loss is not finite.
    """
    _check_run(steps, batch)
    cfg = layer.config
    frozen = layer.pairing is not None and layer.pairing.frozen
    draw = None if frozen else _pairing_range(cfg)
    # every pairing of a random strategy composes one run per member, so a
    # run that resamples composes any one and resets it at each step
    composition = _composition(cfg, _check_pairing(cfg, layer.pairing)
                               if draw is None else (0,) * draw[1])
    # A diverging run overflows before its loss turns non-finite; the
    # DivergenceError below reports it, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        initial_loss = _dataset_loss(layer, task)
        losses = _train_steps(task, layer, optimizer, steps, batch, rng, seed, draw,
                              *composition) if steps else []
        final_loss = _dataset_loss(layer, task)
    if not math.isfinite(final_loss):
        raise DivergenceError(f"training diverged: final loss {final_loss} after "
                              f"{steps} steps (seed {seed})")
    mac_per_step = flop_count(cfg, "train_step") * batch
    return TrainReport(seed=seed, steps=steps, initial_loss=initial_loss, losses=losses,
                       final_loss=final_loss, mac_per_step=mac_per_step,
                       mac_total=mac_per_step * steps)


def _train_steps(task, layer: CoLALayer, optimizer: OptimizerState, steps: int, batch: int,
                 rng: np.random.Generator, seed: int, draw: tuple[int, int] | None,
                 runs, pairing_map: tuple[int, ...] | None, scale: float) -> list[float]:
    """The steps of :func:`train_loop` over the run sums of its composition
    and the write of the members after them; returns the minibatch losses.
    Every buffer of the steps is a local of this call, so none of them is
    alive while a dataset loss runs."""
    cfg, r = layer.config, layer.config.rank
    sums = _run_sums(layer, runs)
    sums_start = sums.params.copy()
    a_len, b_len = ([hi - lo for lo, hi in side] for side in runs)
    lr = optimizer.lr * np.concatenate([np.repeat(a_len, r * cfg.in_dim),
                                        np.tile(np.repeat(b_len, r), cfg.out_dim)])
    ws = _Workspace(sums, pairing_map, (batch,))
    g, sq, grad = np.empty(ws.out.shape), np.empty(ws.out.shape), np.empty_like(sums.params)

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
    x_samples, w0x_samples = _sample_tables(layer.w0, task.x_train, batch)
    t_samples = np.ascontiguousarray(task.y_train)

    # A step is two replays around the loss readout, over the workspace and
    # those buffers; Adam's moments are laid out like the run sums' params.
    loss_calls, readout, divide = _loss(task.kind, ws.out, t_cols, g, sq)
    first = _apply(ws, xb, scale, w0x_cols) + loss_calls
    optimizer_calls, advance = _update(optimizer, grad, grad, lr)
    second = (divide + _backward(ws, xb, g, scale, grad) + optimizer_calls
              + [(np.subtract, (sums.params, grad, sums.params))])
    losses: list[float] = []
    for start in range(0, steps, block):
        count = min(block, steps - start)
        drawn = rng.integers(0, block_highs[:count * len(highs)]).reshape(count, -1)
        for idx, partners in zip(drawn[:, :batch], drawn[:, batch:]):
            # every index is in range, so "wrap" changes none; unlike the
            # default "raise", it lets take write straight into the buffer
            x_samples.take(idx, 0, x_rows, "wrap")
            w0x_samples.take(idx, 1, w0x_cols, "wrap")
            t_samples.take(idx, -1, t_cols, "wrap")
            if draw is not None:
                ws.pairing[...] = partners
                identity.take(partners, 1, ws.partner_sum, "wrap")
            _replay(first)
            loss = readout()
            if not math.isfinite(loss):
                raise DivergenceError(f"training diverged: minibatch loss {loss} at "
                                      f"step {len(losses) + 1} of {steps} (seed {seed})")
            advance()
            _replay(second)
            losses.append(loss)

    # a member alone in its run becomes its trained sum; a member of a run
    # of k moves by (sum_end - sum_start) / k, written as a subtraction,
    # which leaves it untouched, signed zeros included, when its run sum
    # never moved
    for pool, trained, began, side in zip((layer.a_list, layer.b_list), (
            sums.a_list, sums.b_list), _run_views(sums_start, sums.config)[2:], runs):
        for end, start, (lo, hi) in zip(trained, began, side):
            pool[lo:hi] = end if hi - lo == 1 else pool[lo:hi] - (start - end) / (hi - lo)
    return losses
