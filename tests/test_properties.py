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
from cola_forge.adapter import _composition, _replay, _run_sums, _Workspace
from cola_forge.harness import RecoveryTaskSpec, make_recovery_task
from cola_forge.initializers import GAUSSIAN_ZERO, PISSA, InitSpec, build_layer
from cola_forge.linalg import make_rng
from cola_forge.training import (
    Grads,
    backward,
    finite_diff_check,
    make_optimizer,
    optimizer_step,
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


def pool_layout(a_members, b_members):
    """The A members' rows, then the B members side by side, row-major."""
    return np.concatenate([np.vstack(a_members).ravel(), np.hstack(b_members).ravel()])


@PROPERTY_SETTINGS
@given(layer_cases())
def test_params_grads_and_adam_share_one_pool_layout(case):
    # params, backward's gradient and an Adam state that optimizer_step
    # allocates over params all hold A_cat then B_cat, the layout of the run
    # sums; a member is a view, so writing one writes params
    layer, pairing, x, target = case
    assert layer.params.tobytes() == pool_layout(layer.a_list, layer.b_list).tobytes()
    grads = backward(layer, x, target, pairing)
    assert grads.flat.tobytes() == pool_layout(grads.da_list, grads.db_list).tobytes()
    whole = make_optimizer("adam", 1e-2)
    optimizer_step(whole, layer.params.copy(), grads.flat)
    m_views, v_views = ([*views.da_list, *views.db_list]
                        for views in (Grads(layer, whole.m), Grads(layer, whole.v)))
    for grad, m, v in zip([*grads.da_list, *grads.db_list], m_views, v_views):
        own = make_optimizer("adam", 1e-2)  # one member's state
        optimizer_step(own, np.zeros(grad.shape), grad)
        assert own.m.tobytes() == m.tobytes() and own.v.tobytes() == v.tobytes()
    a_members, b_members = list(layer.a_list.copy()), list(layer.b_list.copy())
    b_members[-1] = np.arange(b_members[-1].size, dtype=float).reshape(b_members[-1].shape)
    layer.b_list[-1] = b_members[-1]
    assert layer.params.tobytes() == pool_layout(a_members, b_members).tobytes()


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


# The pairing product. A random composition multiplies over its terms, one
# per drawing member: it copies each member's partner into term order (the
# B run sums times P kron I_r under RANDOM_AB, P kron I_r times the A run
# sums under RANDOM_BA), and its backward pass sums the terms of each
# partner through the 0/1 matrix of partners by terms.

@st.composite
def random_pairings(draw):
    """(layer, batch, rng): a random-strategy layer, M and N in 1..4, whose
    pairing map (repeated partners allowed) is its own."""
    strategy = draw(st.sampled_from([Strategy.RANDOM_AB, Strategy.RANDOM_BA]))
    a_count, b_count, rank = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(
        st.integers(1, 3))
    in_dim, out_dim = draw(st.integers(rank, 5)), draw(st.integers(rank, 5))
    high, length = ((b_count, a_count) if strategy is Strategy.RANDOM_AB
                    else (a_count, b_count))
    pairing = Pairing(draw(st.lists(st.integers(0, high - 1), min_size=length,
                                    max_size=length)))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    cfg = CoLAConfig(in_dim=in_dim, out_dim=out_dim, rank=rank, a_count=a_count,
                     b_count=b_count, strategy=strategy, alpha=draw(st.sampled_from([1.0, 3.0])))
    layer = dataclasses.replace(make_layer(
        rng.normal(size=(out_dim, in_dim)),
        [rng.normal(size=(rank, in_dim)) for _ in range(a_count)],
        [rng.normal(size=(out_dim, rank)) for _ in range(b_count)], cfg, rng=rng),
        pairing=pairing)
    return layer, draw(st.sampled_from([1, 2, 3, 8])), rng


@PROPERTY_SETTINGS
@given(random_pairings())
def test_the_pairing_copies_partners_and_sums_their_terms(case):
    layer, batch, rng = case
    cfg, pairing_map = layer.config, layer.pairing.map
    n, m, r, terms = cfg.out_dim, cfg.in_dim, cfg.rank, len(layer.pairing.map)
    runs, _, _ = _composition(cfg, pairing_map)
    ws = _Workspace(_run_sums(layer, runs), pairing_map, (batch,))
    _replay([ws.gather])
    if cfg.strategy is Strategy.RANDOM_AB:
        partners, gathered = layer.b_list, ws.b_terms.reshape(n, terms, r).transpose(1, 0, 2)
    else:
        partners, gathered = layer.a_list, ws.a_terms.reshape(terms, r, m)
    for block, partner in zip(gathered, pairing_map):
        assert block.tobytes() == partners[partner].tobytes()
    # each partner's terms summed, as the backward pass sums r x batch blocks;
    # a partner no term draws gets exact zeros, one or two terms sum exactly
    # as any order does, and BLAS may order three or more otherwise than left
    # to right (it does at widths below 4), which moves the sum by rounding
    blocks = rng.normal(size=(terms, r * batch))
    summed = np.dot(ws.partner_sum, blocks)
    assert ws.partner_sum.shape == (len(partners), terms)
    for partner, got in enumerate(summed):
        drawn = [blocks[t] for t, p in enumerate(pairing_map) if p == partner]
        want = np.zeros(r * batch)
        for block in drawn:
            want = want + block  # left to right
        if len(drawn) <= 2:
            assert got.tobytes() == want.tobytes()
        else:
            bound = 4 * np.finfo(float).eps * np.sum(np.abs(drawn), axis=0)
            assert np.all(np.abs(got - want) <= bound)


@PROPERTY_SETTINGS
@given(random_pairings())
def test_a_random_layer_matches_a_loop_over_its_terms(case):
    layer, batch, rng = case
    cfg, pairing = layer.config, layer.pairing
    x, g = rng.normal(size=(cfg.in_dim, batch)), rng.normal(size=(cfg.out_dim, batch))
    ab = cfg.strategy is Strategy.RANDOM_AB
    terms = [(p, k) if ab else (k, p) for k, p in enumerate(pairing.map)]  # (b, a)
    scale = cfg.scale
    delta = sum(layer.b_list[b] @ layer.a_list[a] for b, a in terms)
    da, db = np.zeros_like(layer.a_list), np.zeros_like(layer.b_list)
    for b, a in terms:
        da[a] += scale * layer.b_list[b].T @ g @ x.T
        db[b] += scale * g @ (layer.a_list[a] @ x).T
    grads = backward(layer, x, g, pairing)
    assert rel_err(delta_weight(layer, pairing), delta) <= 1e-12
    assert rel_err(forward(layer, x, mode="train"), layer.w0 @ x + scale * delta @ x) <= 1e-12
    assert rel_err(grads.da_list, da) <= 1e-12
    assert rel_err(grads.db_list, db) <= 1e-12
