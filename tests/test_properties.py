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
from cola_forge.linalg import make_rng
from cola_forge.training import finite_diff_check

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
        pairing = Pairing("ab", draw(st.lists(st.integers(0, b_count - 1),
                                              min_size=a_count, max_size=a_count)))
    elif strategy is Strategy.RANDOM_BA:
        pairing = Pairing("ba", draw(st.lists(st.integers(0, a_count - 1),
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
    length, limit = ((cfg.a_count, cfg.b_count) if pairing.kind == "ab"
                     else (cfg.b_count, cfg.a_count))
    maps = list(itertools.product(range(limit), repeat=length))
    mean = sum(delta_weight(layer, Pairing(pairing.kind, m)) for m in maps) / len(maps)
    assert rel_err(delta_weight_eval(layer), mean) <= 1e-12


@PROPERTY_SETTINGS
@given(layer_cases())
def test_backward_matches_finite_differences(case):
    layer, _, x, target = case
    assert finite_diff_check(layer, x, target) <= 1e-6
