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
from class_sums import class_sum_run
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
    finite_diff_check,
    make_optimizer,
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


# A fixed composition is a smaller adapter in disguise (see class_sums.py),
# and train_loop trains it as that adapter.

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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(fixed_compositions())
def test_a_fixed_composition_trains_as_its_class_sum_adapter(case):
    layer, kind = case
    lr, steps, batch = (0.01 if kind == "adam" else 0.02), 12, 4
    hand = dataclasses.replace(layer, params=layer.params.copy())
    report = train_loop(CLASS_TASK, layer, make_optimizer(kind, lr), steps, batch,
                        make_rng(7))
    losses, adapter, _ = class_sum_run(CLASS_TASK, hand, kind, lr, steps, batch, make_rng(7))
    assert report.losses == losses
    assert layer.params.tobytes() == hand.params.tobytes()
    # a frozen pairing merges the composition it trained, so the layer and
    # its class-sum adapter merge alike whatever their pool sizes
    assert rel_err(merge(layer), merge(adapter)) <= 1e-12


@PROPERTY_SETTINGS
@given(layer_cases())
def test_a_frozen_pairing_evaluates_the_composition_it_trains(case):
    layer, pairing, x, _ = case
    if pairing is None:
        return
    frozen = dataclasses.replace(layer, pairing=dataclasses.replace(pairing, frozen=True))
    assert np.array_equal(delta_weight_eval(frozen), delta_weight(layer, pairing))
    assert np.array_equal(merge(frozen), layer.w0 + layer.config.scale * delta_weight(
        layer, pairing))
    assert (forward(frozen, x, mode="eval").tobytes()
            == forward(layer, x, mode="train", pairing=pairing).tobytes())
