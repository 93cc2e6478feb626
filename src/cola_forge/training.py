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

:func:`train_loop` allocates its buffers once per run, in a workspace that
every product and elementwise operation of a step writes into. A run whose
pairing cannot change (a deterministic strategy, a frozen pairing, or a
random strategy whose pool of partners has one member, so that drawing the
pairing consumes no rng state) composes once, draws the batch indices of a
block of steps per rng call and gathers the block's inputs and targets in
one fancy index each (a block holds at most 64 steps and no more columns
than the training set); one that resamples its pairing draws them, then the
pairing, each step. The forward pass keeps each term's hidden state
sum_i A_i x and the backward pass reuses it. Under a fixed composition, pool
members that appear in exactly the same terms (all A_i and all B_j under
FULL, the tail B_M..B_N under HEURISTIC) get the same gradient at every
step, hence the same Adam moments and the same update: they form a class,
the step keeps one gradient slot per class, updates that buffer and
subtracts each class's update from its members, which equals one gradient
and one update per member bit for bit. A run that resamples its pairing
keeps one class per member. :func:`backward` runs the same gradient routine
with one class per member, into ``Grads.flat``, laid out like ``params``.
:func:`optimizer_step` and :func:`train_loop` both compute their update with
``_update``, the one statement of the SGD and Adam arithmetic.
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
    _Workspace,
    _apply,
    _run_sum,
    _check_pairing,
    _composition,
    _pairing_range,
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
    ws = _StepWorkspace(layer, x2.shape[1:], grads.flat, cfg.a_count, cfg.b_count)
    _apply(layer, x2, terms, scale, ws)
    _backward(ws, x2, g2, terms, terms, scale)
    return grads


class _StepWorkspace(_Workspace):
    """An :func:`_apply` workspace with its buffers allocated, for inputs of
    trailing shape ``cols`` and compositions of at most max(M, N) terms, plus
    the buffers of the loss and of :func:`_backward`, and ``ga``/``gb``: the
    A- and B-class slots of the gradient buffer ``grad`` (``a_count`` and
    ``b_count`` classes)."""

    def __init__(self, layer: CoLALayer, cols: tuple[int, ...], grad: np.ndarray,
                 a_count: int, b_count: int):
        cfg = layer.config
        n, m, r = cfg.out_dim, cfg.in_dim, cfg.rank
        super().__init__(layer, max(cfg.a_count, cfg.b_count))
        self.out, self.base = np.empty((2, n) + cols)
        self.hidden = list(np.empty((len(self.hidden), r) + cols))
        self.tmp = (np.empty((r,) + cols), np.empty((n,) + cols))
        self.hidden_t = [t.T for t in self.hidden]
        self.g, self.sq, self.gs = (np.empty((n,) + cols) for _ in range(3))
        self.rev = np.empty((r,) + cols)
        self.db, self.bsum, self.da = np.empty((n, r)), np.empty((n, r)), np.empty((r, m))
        split = a_count * r * m
        self.ga = list(grad[:split].reshape(a_count, r, m))
        self.gb = list(grad[split:].reshape(b_count, n, r))


def _backward(ws: _StepWorkspace, x2: np.ndarray, g2: np.ndarray, terms,
              class_terms, scale: float) -> None:
    """Add the pool gradients into the zeroed class slots ``ws.ga`` and
    ``ws.gb``, given each term's hidden state from the forward pass in
    ``ws``. ``class_terms`` names each
    term's B and A classes, each once: a class slot receives the term's
    gradient once for all of its members."""
    # Both scales multiply every term, so they are folded into g_out once.
    if (total := ws.layer_scale * scale) != 1.0:
        g2 = np.multiply(g2, total, ws.gs)
    b_runs, ga, gb, x_t = ws.runs[1], ws.ga, ws.gb, x2.T
    for (b_idx, _), (b_cls, a_cls), t_t in zip(terms, class_terms, ws.hidden_t):
        db_term = np.dot(g2, t_t, ws.db)
        b_sum = _run_sum(b_runs[b_idx], None, ws.bsum)  # the forward built each run
        da_term = np.dot(np.dot(b_sum.T, g2, ws.rev), x_t, ws.da)
        for c in b_cls:
            gb[c] += db_term
        for c in a_cls:
            ga[c] += da_term


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
    """SGD or Adam (decoupled weight decay fixed at 0). The first Adam step
    allocates the moments ``m`` and ``v`` and a ``scratch`` buffer shaped like
    its gradient: the parameters under :func:`optimizer_step`, one slot per
    class of pool members inside :func:`train_loop` (whose moments are
    therefore per class), so later steps allocate no temporaries."""

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
    params -= _update(state, grads)
    return params


def _update(state: OptimizerState, grads: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """One step's update u for ``grads`` (applied as params -= u), written
    into ``out``, which may be ``grads`` itself, or into a new array."""
    if state.kind == "sgd":
        state.step += 1
        return np.multiply(grads, state.lr, out)
    if state.m is None:
        state.m, state.v, state.scratch = (np.zeros_like(grads) for _ in range(3))
    elif state.m.shape != grads.shape:
        raise ShapeError("Adam state was allocated for other parameters")
    state.step += 1
    b1, b2 = state.betas
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    # u = lr * (m / bc1) / (sqrt(v / bc2) + eps), one operation at a time
    # into the scratch buffer t and out, passed by position (parsed faster)
    m, v, t = state.m, state.v, state.scratch
    m *= b1
    m += np.multiply(grads, 1.0 - b1, t)
    v *= b2
    v += np.multiply(np.multiply(grads, 1.0 - b2, t), grads, t)
    np.sqrt(np.divide(v, bc2, t), t)
    t += state.eps
    out = np.divide(m, bc1, out)
    np.multiply(out, state.lr, out)
    return np.divide(out, t, out)


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


def _dataset_loss(layer: CoLALayer, task) -> float:
    """The loss over the whole training set, under the eval composition."""
    y = forward(layer, task.x_train, mode="eval")
    if task.kind == "recovery":
        return squared_error_grad(y, task.y_train)[0]
    return cross_entropy_grad(y, task.labels_train)[0]


def _classes(terms, a_count: int, b_count: int) -> tuple[list[int], list[int]]:
    """Each A and each B member's class, numbered in member order: members of
    one pool that appear in exactly the same terms form one class. Under a
    fixed composition they get the same gradient at every step, so the same
    Adam moments and the same update."""
    a_seen: dict = {}
    b_seen: dict = {}
    a_class = [a_seen.setdefault(tuple(k for k, (_, a_idx) in enumerate(terms) if i in a_idx),
                                 len(a_seen)) for i in range(a_count)]
    b_class = [b_seen.setdefault(tuple(k for k, (b_idx, _) in enumerate(terms) if j in b_idx),
                                 len(b_seen)) for j in range(b_count)]
    return a_class, b_class


def _class_updates(layer: CoLALayer, grad: np.ndarray, a_class: list[int],
                   b_class: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(members, update) view pairs that apply the class updates in ``grad``
    (laid out A classes, then B classes) to ``layer.params`` as ``members -=
    update``: a span of members whose classes follow each other in ``grad``
    is one slice of each, and a span of members of one class is a (count,
    size) view and the class's slot, broadcast."""
    cfg, params = layer.config, layer.params
    rm, nr = cfg.rank * cfg.in_dim, cfg.out_dim * cfg.rank
    split = (max(a_class) + 1) * rm
    members = ([(i * rm, c * rm, rm) for i, c in enumerate(a_class)]
               + [(len(a_class) * rm + j * nr, split + c * nr, nr) for j, c in enumerate(b_class)])
    spans: list[tuple[int, int, int, int]] = []  # params start and length, grad start and length
    for p, g, size in members:
        if spans:
            p0, p_len, g0, g_len = spans[-1]
            if p_len == g_len and g == g0 + g_len:  # the next slot of grad
                spans[-1] = (p0, p_len + size, g0, g_len + size)
                continue
            if g == g0 and size == g_len:  # the span's one class again
                spans[-1] = (p0, p_len + size, g0, g_len)
                continue
        spans.append((p, size, g, size))
    return [(params[p0:p0 + p_len].reshape(-1, g_len), grad[g0:g0 + g_len])
            for p0, p_len, g0, g_len in spans]


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
    cfg = layer.config
    kind = _PAIRING_KIND.get(cfg.strategy)
    frozen = layer.pairing is not None and layer.pairing.frozen
    draw = None if kind is None or frozen else _pairing_range(kind, cfg.a_count, cfg.b_count)
    fixed = None  # a random strategy's only pairing: drawing it consumes no rng state
    if draw is not None and draw[0] == 1:
        draw, fixed = None, (0,) * draw[1]
    # One gradient slot, one pair of Adam moments and one update per class;
    # a run that resamples its pairing, or an Adam state that already holds
    # per-member moments, keeps one class per member.
    a_class, b_class = list(range(cfg.a_count)), list(range(cfg.b_count))
    if draw is None:  # no pairing is drawn per step
        terms, scale = _composition(cfg, fixed or _check_pairing(cfg, layer.pairing))
        if optimizer.m is None or optimizer.m.shape != layer.params.shape:
            a_class, b_class = _classes(terms, cfg.a_count, cfg.b_count)
        class_terms = [(tuple(dict.fromkeys(b_class[j] for j in b_idx)),
                        tuple(dict.fromkeys(a_class[i] for i in a_idx)))
                       for b_idx, a_idx in terms]
    a_count, b_count = max(a_class) + 1, max(b_class) + 1
    grad = np.zeros(a_count * cfg.rank * cfg.in_dim + b_count * cfg.out_dim * cfg.rank)
    ws = _StepWorkspace(layer, (batch,), grad, a_count, b_count)
    updates = _class_updates(layer, grad, a_class, b_class)

    # A block of steps draws its batch indices in one rng call and gathers
    # its samples, as rows, in one fancy index per array, holding at most
    # the training set's size; a step reads the transpose of its rows, laid
    # out like ``x_train[:, idx]``. A run that resamples its pairing draws
    # them, then the pairing, each step.
    size = task.x_train.shape[1]
    block = 1 if draw is not None else max(1, min(64, size // batch))
    recovery = task.kind == "recovery"
    samples = (task.x_train.T, task.y_train.T if recovery else task.labels_train)

    # A diverging run overflows before its loss turns non-finite; the
    # DivergenceError below reports it, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        initial_loss = _dataset_loss(layer, task)
        losses: list[float] = []
        for start in range(0, steps, block):
            count = min(block, steps - start)
            idx = rng.integers(0, size, size=(count, batch))
            x_block, t_block = (rows[idx] for rows in samples)
            for x_rows, t_rows in zip(x_block, t_block):
                xb, tb = x_rows.T, t_rows.T
                if draw is not None:
                    terms, scale = _composition(
                        cfg, rng.integers(0, draw[0], size=draw[1]).tolist())
                    class_terms = terms
                y = _apply(layer, xb, terms, scale, ws)[0]
                if recovery:  # squared_error_grad, into the workspace
                    g = np.subtract(y, tb, ws.g)
                    loss = 0.5 * float(np.add.reduce(np.multiply(g, g, ws.sq), None)) / batch
                    np.divide(g, batch, g)
                else:
                    loss, g = cross_entropy_grad(y, tb)
                if not math.isfinite(loss):
                    raise DivergenceError(f"training diverged: minibatch loss {loss} at step "
                                          f"{len(losses) + 1} of {steps} (seed {seed})")
                grad.fill(0.0)
                _backward(ws, xb, g, terms, class_terms, scale)
                _update(optimizer, grad, grad)
                for members, update in updates:
                    members -= update
                losses.append(loss)
            # the last step's views hold the block too; free it before the next
            del x_block, t_block, x_rows, t_rows, xb, tb

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
