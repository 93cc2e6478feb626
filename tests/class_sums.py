"""The class-sum reference for training a fixed composition.

Pool members that appear in exactly the same terms get the same gradient at
every step, so each such class trains as one matrix, its members' sum, whose
learning rate is the class size times lr: one Adam update per member adds up
to one update of size * lr on the sum. FULL (M, N) trains as FULL (1, 1),
HEURISTIC (M, N) as HEURISTIC (M, M) with its tail summed, and a frozen
pairing as the same strategy over its drawing members and the classes of
partners that the same members draw (partners no member draws form one
class, which never trains).

:func:`class_sum_run` trains that smaller adapter by the public ``forward``,
``backward`` and ``optimizer_step`` and then writes the members back by the
rule ``train_loop`` follows, so it states the arithmetic of ``train_loop``
independently of the engine's class tables.
"""

import dataclasses
import functools

import numpy as np

from cola_forge.adapter import CoLAConfig, Pairing, Strategy, forward, make_layer
from cola_forge.linalg import make_rng
from cola_forge.training import (
    backward,
    cross_entropy_grad,
    make_optimizer,
    optimizer_step,
    squared_error_grad,
)


def class_sum_adapter(layer):
    """(adapter, a_class, b_class): the smaller layer whose members are the
    class sums of ``layer``'s members, each summed left to right, and each
    A and B member's class, numbered in member order."""
    cfg, pairing = layer.config, layer.pairing
    if cfg.strategy is Strategy.FULL:
        a_class, b_class = [0] * cfg.a_count, [0] * cfg.b_count
    elif cfg.strategy is Strategy.HEURISTIC:
        a_class = list(range(cfg.a_count))
        b_class = [min(j, cfg.a_count - 1) for j in range(cfg.b_count)]
    else:
        ab = cfg.strategy is Strategy.RANDOM_AB
        drawing, partners = (cfg.a_count, cfg.b_count) if ab else (cfg.b_count, cfg.a_count)
        drawn_by: dict = {}
        partner_class = [drawn_by.setdefault(tuple(k for k, p in enumerate(pairing.map)
                                                   if p == partner), len(drawn_by))
                         for partner in range(partners)]
        own = list(range(drawing))
        a_class, b_class = (own, partner_class) if ab else (partner_class, own)
        pairing = Pairing([partner_class[p] for p in pairing.map], frozen=True)
    a_sums, b_sums = ([functools.reduce(np.add, [p for p, c in zip(pool, classes) if c == k])
                       for k in range(max(classes) + 1)]
                      for pool, classes in ((layer.a_list, a_class), (layer.b_list, b_class)))
    small = CoLAConfig(in_dim=cfg.in_dim, out_dim=cfg.out_dim, rank=cfg.rank,
                       a_count=len(a_sums), b_count=len(b_sums), strategy=cfg.strategy,
                       alpha=cfg.alpha)
    adapter = dataclasses.replace(make_layer(layer.w0, a_sums, b_sums, small, make_rng(0)),
                                  pairing=pairing)
    return adapter, a_class, b_class


def class_sum_loop(task, layer, states, steps, batch, rng):
    """Train ``layer`` by the public forward, backward and optimizer_step:
    one optimizer per member from ``states``, each stepping that member's
    view by its gradient; one draw of batch indices per step, as train_loop
    draws. Returns the losses."""
    members = [*layer.a_list, *layer.b_list]
    losses = []
    for _ in range(steps):
        idx = rng.integers(0, task.train_size, size=batch)
        xb = task.x_train[:, idx]
        y = forward(layer, xb, mode="train")
        if task.kind == "recovery":
            loss, g = squared_error_grad(y, task.y_train[:, idx])
        else:
            loss, g = cross_entropy_grad(y, task.y_train[idx])
        grads = backward(layer, xb, g, layer.pairing)
        for member, grad, state in zip(members, [*grads.da_list, *grads.db_list], states):
            optimizer_step(state, member, grad)
        losses.append(loss)
    return losses


def class_sum_run(task, layer, kind, lr, steps, batch, rng, states=None):
    """Train ``layer`` as ``train_loop`` does, by :func:`class_sum_loop` on
    its class-sum adapter, then write its members: a member alone in its
    class becomes its trained sum, and each member of a class of k moves by
    (trained sum - starting sum) / k, as ``member - (start - trained) / k``.
    ``states`` holds one optimizer per class from an earlier run (None makes
    them). Returns (losses, trained adapter, states)."""
    adapter, a_class, b_class = class_sum_adapter(layer)
    start = adapter.params.copy()
    sizes = [a_class.count(k) for k in range(max(a_class) + 1)] + [
        b_class.count(k) for k in range(max(b_class) + 1)]
    if states is None:
        states = [make_optimizer(kind, lr * size) for size in sizes]
    losses = class_sum_loop(task, adapter, states, steps, batch, rng)
    began = dataclasses.replace(adapter, params=start)
    for members, classes, trained, starts in (
            (layer.a_list, a_class, adapter.a_list, began.a_list),
            (layer.b_list, b_class, adapter.b_list, began.b_list)):
        for member, c in zip(members, classes):
            if classes.count(c) == 1:
                member[...] = trained[c]
            else:
                member -= (starts[c] - trained[c]) / classes.count(c)
    return losses, adapter, states
