"""Property tests over the whole (M, N, strategy, pairing, batch) space.

Each example draws pool counts M, N in 1..4, a strategy, an explicit pairing
(repeated targets allowed) for the random strategies, and a batch of 1 (a
vector input) or 3 (a column matrix), on small random shapes. The properties
tie the factored paths to the materialized ones and the gradients to the
finite-difference oracle, so any composition rule stated differently in two
places shows up as a counterexample. The last property feeds every public
array argument hostile arrays, and each must give a correct result or an
error that names it.
"""

import dataclasses
import inspect
import itertools
import re

import numpy as np
import pytest
from class_sums import class_sum_run
from hypothesis import given, settings
from hypothesis import strategies as st

from cola_forge import adapter, harness, initializers, linalg, training
from cola_forge.adapter import (
    CoLAConfig,
    CoLALayer,
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
from cola_forge.initializers import (
    GAUSSIAN_ZERO,
    PISSA,
    InitSpec,
    build_layer,
    eckart_young_error,
    init_gaussian_zero,
    pissa_extended,
)
from cola_forge.linalg import SvdResult, as_matrix, frobenius_norm, make_rng, svd
from cola_forge.training import (
    Grads,
    backward,
    cross_entropy_grad,
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


# Hostile arguments. Each public array argument, given its valid array in
# another form, must give a correct result or raise a ValueError (the
# package's ShapeError and ConfigError are ones) whose message starts with
# the argument's name. Integer entries give the float64 result bit for bit,
# except in an array updated in place, which cannot hold it (INT_REFUSED);
# bool, complex, object and string entries are refused by name; a 0-size
# array, or one with an axis more, gives a result or a named error; a
# non-contiguous array gives the result of its C-ordered copy bit for bit,
# and so does a Fortran-ordered one, except where a batch of samples goes
# uncopied into BLAS products. There a Fortran-ordered batch is the layout
# a training step computes on (``x[:, idx]``, which train_loop matches bit
# for bit), and BLAS may round it otherwise than a C-ordered one, so its
# result is the C-ordered one to rounding.

HOSTILE_CFG = CoLAConfig(in_dim=3, out_dim=4, rank=2, a_count=2, b_count=3,
                         strategy=Strategy.RANDOM_AB, alpha=3.0)
_rng = make_rng(5)
HOSTILE_W0 = _rng.normal(size=(4, 3))
HOSTILE_A, HOSTILE_B = _rng.normal(size=(2, 2, 3)), _rng.normal(size=(3, 4, 2))
HOSTILE_LAYER = make_layer(HOSTILE_W0, HOSTILE_A, HOSTILE_B, HOSTILE_CFG, make_rng(0))
HOSTILE_X, HOSTILE_Y = _rng.normal(size=(3, 2)), _rng.normal(size=(4, 2))


def trailing(a, dim):
    """An array of ``dim`` rows and the columns of ``a``, to pair with it."""
    return np.ones((dim,) + np.shape(a)[1:])


# (function, argument, the name its errors use, a valid shape, the call,
# whether a Fortran-ordered array reaches BLAS uncopied)
HOSTILE_ENTRIES = [
    ("as_matrix", "w", "w", (4, 3), lambda a: as_matrix(a, "w"), False),
    ("svd", "w", "w", (4, 3), svd, False),
    ("frobenius_norm", "w", "w", (4, 3), frobenius_norm, False),
    ("eckart_young_error", "w", "w", (4, 3), lambda a: eckart_young_error(a, 1), False),
    ("make_layer", "w0", "w0", (4, 3),
     lambda a: make_layer(a, HOSTILE_A, HOSTILE_B, HOSTILE_CFG, make_rng(0)), False),
    ("make_layer", "a_list", "a_list", (2, 2, 3),
     lambda a: make_layer(HOSTILE_W0, a, HOSTILE_B, HOSTILE_CFG, make_rng(0)), False),
    ("make_layer", "b_list", "b_list", (3, 4, 2),
     lambda a: make_layer(HOSTILE_W0, HOSTILE_A, a, HOSTILE_CFG, make_rng(0)), False),
    ("init_gaussian_zero", "w0", "w0", (4, 3),
     lambda a: init_gaussian_zero(a, HOSTILE_CFG, make_rng(0)), False),
    ("build_layer", "base_w0", "w0", (4, 3),
     lambda a: build_layer(HOSTILE_CFG, InitSpec(GAUSSIAN_ZERO), make_rng(0), a), False),
    ("pissa_extended", "w", "w", (4, 3), lambda a: pissa_extended(a, HOSTILE_CFG), False),
    ("forward", "x", "x", (3, 2), lambda a: forward(HOSTILE_LAYER, a), True),
    ("backward", "x", "x", (3, 2),
     lambda a: backward(HOSTILE_LAYER, a, trailing(a, 4), HOSTILE_LAYER.pairing), True),
    ("backward", "g_out", "g_out", (4, 2),
     lambda a: backward(HOSTILE_LAYER, HOSTILE_X, a, HOSTILE_LAYER.pairing), True),
    ("finite_diff_check", "x", "x", (3, 2),
     lambda a: finite_diff_check(HOSTILE_LAYER, a, trailing(a, 4)), True),
    ("finite_diff_check", "target", "target", (4, 2),
     lambda a: finite_diff_check(HOSTILE_LAYER, HOSTILE_X, a), False),
    ("optimizer_step", "params", "params", (5,),
     lambda a: optimizer_step(make_optimizer("adam", 0.1), a, np.ones(np.shape(a))), False),
    ("optimizer_step", "grads", "grads", (5,),
     lambda a: optimizer_step(make_optimizer("adam", 0.1), np.zeros(5), a), False),
    ("squared_error_grad", "y", "y", (4, 2),
     lambda a: squared_error_grad(a, np.zeros(np.shape(a))), False),
    ("squared_error_grad", "targets", "targets", (4, 2),
     lambda a: squared_error_grad(HOSTILE_Y, a), False),
    ("cross_entropy_grad", "logits", "logits", (4, 2),
     lambda a: cross_entropy_grad(a, np.zeros(np.shape(a)[-1], int)), False),
]
# array arguments with a rule of their own, and where it is tested
HOSTILE_EXEMPT = {
    ("cross_entropy_grad", "labels"): "class indices: test_cross_entropy_grad_rejects_labels_*",
}
# the error of integer entries in an array updated in place, by (function, argument)
INT_REFUSED = {("optimizer_step", "params"): "params of dtype int64 cannot take a float64 update"}
NOT_REAL = {"bool": "bool", "complex": "complex", "object": "object", "str": "string"}


def hostile_forms(base):
    """``base`` in each hostile form, by the form's name, none sharing its memory."""
    strided = np.zeros(base.shape[:-1] + (2 * base.shape[-1],))
    strided[..., ::2] = base
    return {"int": base.astype(np.int64), **{k: base.astype(k) for k in NOT_REAL},
            "0-size": base[..., :0], "an axis more": base[..., None].copy(),
            "fortran": np.array(base, order="F"), "strided": strided[..., ::2]}


def outcome(call, a):
    """The arrays ``call(a)`` returns, flattened, or its ValueError's (type, message)."""
    try:
        result = call(a)
    except ValueError as exc:
        return type(exc), str(exc)

    def arrays(value):
        if isinstance(value, (tuple, list)):
            return [part for item in value for part in arrays(item)]
        if isinstance(value, SvdResult):
            return [value.u, value.s, value.v]
        if isinstance(value, CoLALayer):
            return [value.w0, value.params, np.array(value.pairing.map)]
        if isinstance(value, Grads):
            return [value.flat]
        return [np.asarray(value)]
    return arrays(result)


def same_bits(got, want):
    return (isinstance(got, list) and len(got) == len(want)
            and all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
                    for g, w in zip(got, want)))


def test_every_public_array_argument_faces_the_hostile_property():
    public = {(name, arg) for module in (linalg, adapter, initializers, training, harness)
              for name in module.__all__ if inspect.isfunction(function := getattr(module, name))
              for arg, p in inspect.signature(function).parameters.items()
              if "ndarray" in str(p.annotation)}
    tested = {entry[:2] for entry in HOSTILE_ENTRIES}
    assert public == tested | set(HOSTILE_EXEMPT)
    assert not tested & set(HOSTILE_EXEMPT)


@pytest.mark.parametrize("entry", HOSTILE_ENTRIES, ids=lambda e: f"{e[0]}-{e[1]}")
@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_hostile_array_gives_a_correct_result_or_a_named_error(entry, seed):
    function, argument, name, shape, call, keeps_order = entry
    base = make_rng(seed).integers(-3, 4, size=shape).astype(np.float64)
    want = outcome(call, base.copy())  # a call may update its argument in place
    assert isinstance(want, list), want
    for form, a in hostile_forms(base).items():
        got = outcome(call, a)
        if form == "int" and (function, argument) in INT_REFUSED:
            assert got == (ValueError, INT_REFUSED[function, argument])
        elif form in NOT_REAL:
            assert got == (ValueError, f"{name} must be real, got {NOT_REAL[form]} entries")
        elif form in ("0-size", "an axis more"):
            assert isinstance(got, list) or (
                issubclass(got[0], ValueError) and re.match(rf"{name}\b", got[1])), (form, got)
        elif form == "fortran" and keeps_order:
            assert isinstance(got, list) and len(got) == len(want) and all(
                np.allclose(g, w, rtol=1e-12, atol=1e-12) for g, w in zip(got, want)), form
        else:
            assert same_bits(got, want), (form, got)
