"""Property tests over the whole (M, N, strategy, pairing, batch) space.

Each example draws pool counts M, N in 1..4, a strategy, an explicit pairing
(repeated targets allowed) for the random strategies, and a batch of 1 (a
vector input) or 3 (a column matrix), on small random shapes. The properties
tie the factored paths to the materialized ones and the gradients to the
finite-difference oracle, so any composition rule stated differently in two
places shows up as a counterexample.
"""

import dataclasses
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cola_forge.adapter import (
    CoLAConfig,
    Pairing,
    Strategy,
    delta_weight,
    delta_weight_eval,
    forward,
    make_layer,
    merge,
)
from cola_forge.harness import RecoveryTaskSpec, make_recovery_task
from cola_forge.initializers import GAUSSIAN_ZERO, PISSA, InitSpec, build_layer
from cola_forge.linalg import make_rng
from cola_forge.training import (
    backward,
    finite_diff_check,
    make_optimizer,
    optimizer_step,
    squared_error_grad,
    train_loop,
)

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def layer_cases(draw):
    """(layer, pairing, x, target): the layer carries ``pairing`` as its own."""
    strategy = draw(st.sampled_from(list(Strategy)))
    a_count = draw(st.integers(1, 4))
    b_count = draw(st.integers(a_count if strategy is Strategy.HEURISTIC else 1, 4))
    rank = draw(st.integers(1, 2))
    in_dim = draw(st.integers(rank, 4))
    out_dim = draw(st.integers(rank, 4))
    alpha = draw(st.sampled_from([1.0, 3.0, 2.0 * rank]))
    pairing = None
    if strategy is Strategy.RANDOM_AB:
        pairing = Pairing(draw(st.lists(st.integers(0, b_count - 1),
                                        min_size=a_count, max_size=a_count)))
    elif strategy is Strategy.RANDOM_BA:
        pairing = Pairing(draw(st.lists(st.integers(0, a_count - 1),
                                        min_size=b_count, max_size=b_count)))
    batch = draw(st.sampled_from([1, 3]))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = CoLAConfig(in_dim=in_dim, out_dim=out_dim, rank=rank, a_count=a_count,
                     b_count=b_count, strategy=strategy, alpha=alpha)
    layer = dataclasses.replace(make_layer(
        rng.normal(size=(out_dim, in_dim)),
        [rng.normal(size=(rank, in_dim)) for _ in range(a_count)],
        [rng.normal(size=(out_dim, rank)) for _ in range(b_count)], cfg, rng=rng),
        pairing=pairing)
    shape = (in_dim,) if batch == 1 else (in_dim, batch)
    x = rng.normal(size=shape)
    target = rng.normal(size=(out_dim,) + shape[1:])
    return layer, pairing, x, target


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1.0)


@PROPERTY_SETTINGS
@given(layer_cases())
def test_train_forward_matches_materialized(case):
    layer, pairing, x, _ = case
    got = forward(layer, x, mode="train", pairing=pairing)
    want = (layer.w0 + layer.config.scale * delta_weight(layer, pairing)) @ x
    assert rel_err(got, want) <= 1e-10


@PROPERTY_SETTINGS
@given(layer_cases())
def test_merge_matches_eval_forward(case):
    layer, _, x, _ = case
    assert rel_err(merge(layer) @ x, forward(layer, x, mode="eval")) <= 1e-10


@PROPERTY_SETTINGS
@given(layer_cases())
def test_eval_delta_is_mean_over_every_pairing(case):
    layer, pairing, _, _ = case
    cfg = layer.config
    if pairing is None:
        assert np.array_equal(delta_weight_eval(layer), delta_weight(layer))
        return
    length, limit = ((cfg.a_count, cfg.b_count) if cfg.strategy is Strategy.RANDOM_AB
                     else (cfg.b_count, cfg.a_count))
    maps = list(itertools.product(range(limit), repeat=length))
    mean = sum(delta_weight(layer, Pairing(m)) for m in maps) / len(maps)
    assert rel_err(delta_weight_eval(layer), mean) <= 1e-12


@PROPERTY_SETTINGS
@given(layer_cases())
def test_backward_matches_finite_differences(case):
    layer, _, x, target = case
    assert finite_diff_check(layer, x, target) <= 1e-6


# A fixed composition is a smaller adapter in disguise. Pool members that
# appear in exactly the same terms get the same gradient at every step, so
# each such class trains as one matrix, its members' sum, whose learning
# rate is the class size times lr: one Adam update per member adds up to
# one update of size * lr on the sum. FULL (M, N) trains as FULL (1, 1),
# HEURISTIC (M, N) as HEURISTIC (M, M) with its tail summed, and a frozen
# pairing as the same strategy over its drawing members and the classes of
# partners that the same members draw (partners no member draws form one
# class, which never trains).

CLASS_TASK = make_recovery_task(RecoveryTaskSpec(
    n=5, m=6, base_seed=1, components=2, noise_std=0.1, train_samples=24,
    eval_samples=4), make_rng(1))


@st.composite
def fixed_compositions(draw):
    """(layer, optimizer kind): a FULL or HEURISTIC layer, or a random one
    whose drawn pairing is frozen, on ``CLASS_TASK`` under either init."""
    strategy = draw(st.sampled_from(list(Strategy)))
    a_count = draw(st.integers(1, 4))
    b_count = draw(st.integers(a_count if strategy is Strategy.HEURISTIC else 1, 4))
    cfg = CoLAConfig(in_dim=CLASS_TASK.in_dim, out_dim=CLASS_TASK.out_dim,
                     rank=draw(st.integers(1, 3)), a_count=a_count, b_count=b_count,
                     strategy=strategy)
    init = InitSpec(draw(st.sampled_from([GAUSSIAN_ZERO, PISSA])),
                    source_w=CLASS_TASK.pissa_source)
    layer = build_layer(cfg, init, make_rng(draw(st.integers(0, 99))),
                        base_w0=CLASS_TASK.w_base)
    if layer.pairing is not None:
        high, length = (b_count, a_count) if strategy is Strategy.RANDOM_AB else (a_count,
                                                                                  b_count)
        layer = dataclasses.replace(layer, pairing=Pairing(draw(st.lists(
            st.integers(0, high - 1), min_size=length, max_size=length)), frozen=True))
    return layer, draw(st.sampled_from(["sgd", "adam"]))


def class_sum_adapter(layer):
    """(adapter, class sizes): the smaller layer whose members are the class
    sums of ``layer``'s members, A classes then B classes, and each class's
    member count, in the same order."""
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
    a_sums = [sum(a for a, c in zip(layer.a_list, a_class) if c == k)
              for k in range(max(a_class) + 1)]
    b_sums = [sum(b for b, c in zip(layer.b_list, b_class) if c == k)
              for k in range(max(b_class) + 1)]
    small = CoLAConfig(in_dim=cfg.in_dim, out_dim=cfg.out_dim, rank=cfg.rank,
                       a_count=len(a_sums), b_count=len(b_sums), strategy=cfg.strategy,
                       alpha=cfg.alpha)
    adapter = dataclasses.replace(make_layer(layer.w0, a_sums, b_sums, small, make_rng(0)),
                                  pairing=pairing)
    sizes = ([a_class.count(k) for k in range(len(a_sums))]
             + [b_class.count(k) for k in range(len(b_sums))])
    return adapter, sizes


def class_sum_loop(task, layer, sizes, kind, lr, steps, batch, rng):
    """Train ``layer`` by the public forward, backward and optimizer_step:
    one optimizer, at lr times the class size, per class slice of
    ``params``; one draw of batch indices per step, as train_loop draws."""
    cfg = layer.config
    widths = [cfg.rank * cfg.in_dim] * cfg.a_count + [cfg.out_dim * cfg.rank] * cfg.b_count
    bounds = list(itertools.accumulate(widths, initial=0))
    slices = [slice(lo, hi) for lo, hi in itertools.pairwise(bounds)]
    states = [make_optimizer(kind, lr * size) for size in sizes]
    losses = []
    for _ in range(steps):
        idx = rng.integers(0, task.train_size, size=batch)
        xb = task.x_train[:, idx]
        loss, g = squared_error_grad(forward(layer, xb, mode="train"), task.y_train[:, idx])
        grads = backward(layer, xb, g, layer.pairing).flat
        for part, state in zip(slices, states):
            optimizer_step(state, layer.params[part], grads[part])
        losses.append(loss)
    return losses


def merged(layer):
    """merge(layer), except that a frozen pairing merges the composition it
    trained (merge's mean over pairings depends on the pool sizes)."""
    if layer.pairing is None:
        return merge(layer)
    return layer.w0 + layer.config.scale * delta_weight(layer, layer.pairing)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fixed_compositions())
def test_a_fixed_composition_trains_as_its_class_sum_adapter(case):
    layer, kind = case
    lr, steps, batch = (0.01 if kind == "adam" else 0.02), 12, 4
    adapter, sizes = class_sum_adapter(layer)
    report = train_loop(CLASS_TASK, layer, make_optimizer(kind, lr), steps, batch,
                        make_rng(7))
    losses = class_sum_loop(CLASS_TASK, adapter, sizes, kind, lr, steps, batch, make_rng(7))
    assert np.allclose(report.losses, losses, rtol=1e-12, atol=0.0)
    assert rel_err(merged(layer), merged(adapter)) <= 1e-12
