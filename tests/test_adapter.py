import dataclasses
import re

import numpy as np
import pytest

from cola_forge.adapter import (
    CoLAConfig,
    ConfigError,
    Pairing,
    Strategy,
    delta_weight,
    delta_weight_eval,
    flop_breakdown,
    flop_count,
    forward,
    hydra_preset,
    lora_preset,
    make_layer,
    merge,
    moe_preset,
    sample_pairing,
    trainable_params,
)
from cola_forge.linalg import ShapeError, make_rng


def random_layer(config, seed=0):
    rng = make_rng(seed)
    w0 = rng.normal(size=(config.out_dim, config.in_dim))
    a_list = [rng.normal(size=(config.rank, config.in_dim)) for _ in range(config.a_count)]
    b_list = [rng.normal(size=(config.out_dim, config.rank)) for _ in range(config.b_count)]
    return make_layer(w0, a_list, b_list, config, rng=rng)


class TestConfigValidation:
    def test_rank_bounds(self):
        with pytest.raises(ConfigError, match="rank"):
            CoLAConfig(in_dim=4, out_dim=6, rank=5)
        with pytest.raises(ConfigError, match="rank"):
            CoLAConfig(in_dim=4, out_dim=6, rank=0)

    def test_rank_is_at_most_the_smaller_dim(self):
        CoLAConfig(in_dim=4, out_dim=6, rank=4)
        with pytest.raises(ConfigError, match="^rank must be <= 4, got 5$"):
            CoLAConfig(in_dim=4, out_dim=6, rank=5)

    def test_counts(self):
        with pytest.raises(ConfigError, match="a_count must be >= 1, got 0"):
            CoLAConfig(in_dim=4, out_dim=4, rank=2, a_count=0)

    def test_heuristic_requires_m_le_n(self):
        with pytest.raises(ConfigError, match="M <= N"):
            CoLAConfig(in_dim=8, out_dim=8, rank=2, a_count=3, b_count=2,
                       strategy=Strategy.HEURISTIC)

    def test_alpha_positive(self):
        with pytest.raises(ConfigError, match="alpha"):
            CoLAConfig(in_dim=4, out_dim=4, rank=2, alpha=0.0)

    @pytest.mark.parametrize("field, value", [
        ("in_dim", 4.0), ("out_dim", True), ("rank", 2.5), ("a_count", np.float64(2.0)),
        ("b_count", np.True_), ("alpha", float("inf"))])
    def test_a_non_integral_or_infinite_field_is_refused_by_name(self, field, value):
        # rank=2.5 once gave fractional parameter and MAC counts and then a
        # bare TypeError from build_layer; alpha=inf an infinite scale
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            CoLAConfig(**{"in_dim": 4, "out_dim": 4, "rank": 2, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("alpha", "2", "alpha must be a real number, got '2'"),
        ("alpha", 1j, "alpha must be a real number, got 1j"),
        ("alpha", True, "alpha must be a real number, got True"),
        ("alpha", np.True_, "alpha must be a real number, got np.True_"),
        ("strategy", "nope", "strategy must be one of ('full', 'random_ab', 'random_ba', "
                             "'heuristic'), got 'nope'"),
    ], ids=["alpha-str", "alpha-complex", "alpha-bool", "alpha-numpy-bool", "strategy"])
    def test_a_non_real_alpha_or_unknown_strategy_is_refused_by_name(self, field, value,
                                                                     message):
        # alpha="2" and 1j once raised a bare TypeError, alpha=True gave a
        # scale of 0.5 at rank 2, and an unknown strategy the enum's error
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            CoLAConfig(**{"in_dim": 4, "out_dim": 4, "rank": 2, field: value})

    def test_numpy_real_alpha_is_accepted(self):
        for alpha in (np.float32(3.0), np.int64(3)):
            assert CoLAConfig(in_dim=4, out_dim=4, rank=2, alpha=alpha).scale == 1.5

    def test_numpy_integer_fields_are_accepted(self):
        cfg = CoLAConfig(*(np.int64(k) for k in (4, 6, 2, 2, 3)))
        assert trainable_params(cfg) == 2 * 2 * 4 + 3 * 6 * 2

    def test_scale_needs_resolved_alpha(self):
        cfg = CoLAConfig(in_dim=4, out_dim=4, rank=2)
        with pytest.raises(ConfigError, match="alpha"):
            _ = cfg.scale


class TestForward:
    def test_hand_product(self):
        # w0 = 0, alpha = r, A = [[1,2]], B = [[3],[4]], x = (1,0) -> BA x = (3,4)
        cfg = CoLAConfig(in_dim=2, out_dim=2, rank=1, alpha=1.0)
        layer = make_layer(np.zeros((2, 2)), [np.array([[1.0, 2.0]])],
                           [np.array([[3.0], [4.0]])], cfg)
        assert np.array_equal(forward(layer, np.array([1.0, 0.0])), np.array([3.0, 4.0]))

    def test_zero_up_pools_pass_base_through(self):
        cfg = CoLAConfig(in_dim=5, out_dim=4, rank=2, a_count=2, b_count=3, alpha=4.0)
        rng = make_rng(1)
        layer = make_layer(rng.normal(size=(4, 5)),
                           [rng.normal(size=(2, 5)) for _ in range(2)],
                           [np.zeros((4, 2)) for _ in range(3)], cfg)
        x = rng.normal(size=5)
        assert np.array_equal(forward(layer, x), layer.w0 @ x)

    def test_split_pools_match_single_pair(self):
        # A_i = A/2, B_j = B/2 under FULL reproduces the (1,1) layer exactly
        rng = make_rng(2)
        a = rng.normal(size=(3, 6))
        b = rng.normal(size=(5, 3))
        w0 = rng.normal(size=(5, 6))
        x = rng.normal(size=6)
        single = make_layer(w0, [a], [b],
                            CoLAConfig(in_dim=6, out_dim=5, rank=3, alpha=3.0))
        split = make_layer(w0, [a / 2, a / 2], [b / 2, b / 2],
                           CoLAConfig(in_dim=6, out_dim=5, rank=3, a_count=2,
                                      b_count=2, alpha=3.0))
        assert np.abs(forward(single, x) - forward(split, x)).max() <= 1e-12

    def test_batched_columns(self):
        cfg = CoLAConfig(in_dim=6, out_dim=5, rank=2, a_count=2, b_count=2, alpha=4.0)
        layer = random_layer(cfg, seed=3)
        xs = make_rng(4).normal(size=(6, 10))
        batched = forward(layer, xs)
        for col in range(10):
            assert np.abs(batched[:, col] - forward(layer, xs[:, col])).max() <= 1e-12

    def test_shape_error(self):
        layer = random_layer(CoLAConfig(in_dim=6, out_dim=5, rank=2, alpha=2.0))
        with pytest.raises(ShapeError, match="expects 6"):
            forward(layer, np.zeros(7))

    @pytest.mark.parametrize("shape", [(), (6, 2, 3)])
    def test_x_of_zero_or_three_dims_is_a_shape_error(self, shape):
        layer = random_layer(CoLAConfig(in_dim=6, out_dim=5, rank=2, alpha=2.0))
        with pytest.raises(ShapeError, match=re.escape(f"x has shape {shape}")):
            forward(layer, np.zeros(shape))

    @pytest.mark.parametrize("w0, a_shapes, b_shapes, match", [
        ((4, 6), [(2, 6)], [(5, 2)], "w0 must have shape (5, 6), got (4, 6)"),
        ((5, 6), [(2, 6)] * 2, [(5, 2)], "a_list must have shape (1, 2, 6), got (2, 2, 6)"),
        ((5, 6), [(2, 6)], [], "b_list must have shape (1, 5, 2), got (0,)"),
        ((5, 6), [(2, 5)], [(5, 2)], "a_list[0] must have shape (2, 6), got (2, 5)"),
        ((5, 6), [(2, 6)], [(5, 3)], "b_list[0] must have shape (5, 2), got (5, 3)"),
    ])
    def test_make_layer_checks_every_shape(self, w0, a_shapes, b_shapes, match):
        cfg = CoLAConfig(in_dim=6, out_dim=5, rank=2, alpha=2.0)
        with pytest.raises(ShapeError, match=f"^{re.escape(match)}$"):
            make_layer(np.zeros(w0), [np.zeros(s) for s in a_shapes],
                       [np.zeros(s) for s in b_shapes], cfg)

    def test_train_mode_requires_pairing_source(self):
        cfg = CoLAConfig(in_dim=4, out_dim=4, rank=2, a_count=2, b_count=2,
                         strategy=Strategy.RANDOM_AB, alpha=2.0)
        layer = dataclasses.replace(random_layer(cfg, seed=5), pairing=None)
        with pytest.raises(ConfigError, match="pairing"):
            forward(layer, np.zeros(4), mode="train")

    @pytest.mark.parametrize("pairing", [Pairing((9, 9, 9)), Pairing((0, 1))])
    def test_eval_mode_rejects_explicit_pairing(self, pairing):
        # eval mode composes the layer's own frozen pairing or the mean, so a
        # pairing passed to it, valid or not, would be accepted and ignored
        cfg = CoLAConfig(in_dim=4, out_dim=4, rank=2, a_count=2, b_count=3,
                         strategy=Strategy.RANDOM_AB, alpha=2.0)
        layer = random_layer(cfg, seed=5)
        with pytest.raises(ConfigError, match="eval-mode"):
            forward(layer, np.zeros(4), mode="eval", pairing=pairing)

    def test_scale_linearity(self):
        cfg = CoLAConfig(in_dim=6, out_dim=5, rank=2, a_count=2, b_count=3, alpha=2.0)
        layer = random_layer(cfg, seed=6)
        x = make_rng(7).normal(size=6)
        base = layer.w0 @ x
        delta1 = forward(layer, x) - base
        layer2 = random_layer(
            CoLAConfig(in_dim=6, out_dim=5, rank=2, a_count=2, b_count=3, alpha=4.0),
            seed=6)
        delta2 = forward(layer2, x) - base
        assert np.abs(delta2 - 2.0 * delta1).max() <= 1e-12


class TestDeltaWeight:
    def test_full_distributivity(self):
        cfg = CoLAConfig(in_dim=7, out_dim=6, rank=2, a_count=1, b_count=3, alpha=2.0)
        layer = random_layer(cfg, seed=8)
        separate = sum(b @ layer.a_list[0] for b in layer.b_list)
        assert np.abs(delta_weight(layer) - separate).max() <= 1e-12

    def test_heuristic_equal_counts_is_expert_sum(self):
        cfg = CoLAConfig(in_dim=7, out_dim=6, rank=2, a_count=3, b_count=3,
                         strategy=Strategy.HEURISTIC, alpha=2.0)
        layer = random_layer(cfg, seed=9)
        experts = sum(b @ a for a, b in zip(layer.a_list, layer.b_list))
        assert np.abs(delta_weight(layer) - experts).max() <= 1e-12

    def test_random_ab_single_up_equals_full(self):
        cfg_ab = CoLAConfig(in_dim=7, out_dim=6, rank=2, a_count=3, b_count=1,
                            strategy=Strategy.RANDOM_AB, alpha=2.0)
        layer = random_layer(cfg_ab, seed=10)
        forced = Pairing(map=(0, 0, 0))
        full_like = sum(layer.b_list) @ sum(layer.a_list)
        assert np.abs(delta_weight(layer, forced) - full_like).max() <= 1e-12

    def test_pairing_strategy_mismatch(self):
        det = random_layer(CoLAConfig(in_dim=4, out_dim=4, rank=2, alpha=2.0))
        with pytest.raises(ConfigError, match="deterministic"):
            delta_weight(det, Pairing(map=(0,)))
        rnd = random_layer(CoLAConfig(in_dim=4, out_dim=4, rank=2, a_count=2,
                                      b_count=2, strategy=Strategy.RANDOM_AB,
                                      alpha=2.0), seed=11)
        with pytest.raises(ConfigError, match="requires a pairing"):
            delta_weight(rnd, None)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_factored_matches_materialized(self, strategy):
        cfg = CoLAConfig(in_dim=9, out_dim=8, rank=3, a_count=2, b_count=3,
                         strategy=strategy, alpha=6.0)
        layer = random_layer(cfg, seed=12)
        x = make_rng(13).normal(size=9)
        pairing = layer.pairing
        y = forward(layer, x, mode="train", pairing=pairing)
        dense = layer.w0 + cfg.scale * delta_weight(layer, pairing)
        assert np.abs(y - dense @ x).max() <= 1e-10


class TestMergeAndEval:
    def test_zero_up_merge_is_base(self):
        cfg = CoLAConfig(in_dim=5, out_dim=4, rank=2, a_count=2, b_count=2, alpha=4.0)
        rng = make_rng(14)
        layer = make_layer(rng.normal(size=(4, 5)),
                           [rng.normal(size=(2, 5)) for _ in range(2)],
                           [np.zeros((4, 2)) for _ in range(2)], cfg)
        assert np.array_equal(merge(layer), layer.w0)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_merged_matches_eval_forward(self, strategy):
        cfg = CoLAConfig(in_dim=10, out_dim=8, rank=3, a_count=2, b_count=3,
                         strategy=strategy, alpha=6.0)
        layer = random_layer(cfg, seed=15)
        merged = merge(layer)
        xs = make_rng(16).normal(size=(10, 100))
        assert np.abs(merged @ xs - forward(layer, xs, mode="eval")).max() <= 1e-10

    def test_random_eval_composition_is_pool_mean(self):
        cfg = CoLAConfig(in_dim=6, out_dim=5, rank=2, a_count=2, b_count=4,
                         strategy=Strategy.RANDOM_AB, alpha=2.0)
        layer = random_layer(cfg, seed=17)
        expected = (sum(layer.b_list) / 4) @ sum(layer.a_list)
        assert np.abs(delta_weight_eval(layer) - expected).max() <= 1e-12


def random_config(a_count, b_count, strategy=Strategy.RANDOM_AB):
    return CoLAConfig(in_dim=4, out_dim=4, rank=1, a_count=a_count, b_count=b_count,
                      strategy=strategy)


class TestSamplePairing:
    def test_single_choice(self):
        pairing = sample_pairing(random_config(3, 1), make_rng(0))
        assert pairing.map == (0, 0, 0)

    def test_deterministic(self):
        assert sample_pairing(random_config(4, 5), make_rng(42)) == \
            sample_pairing(random_config(4, 5), make_rng(42))

    def test_uniform_frequencies(self):
        # 1e5 draws over 4 targets: 5-sigma binomial bound ~ 0.0068 < 0.01
        rng = make_rng(21)
        counts = np.zeros(4)
        draws = 100_000
        cfg = random_config(1, 4)
        for _ in range(draws):
            counts[sample_pairing(cfg, rng).map[0]] += 1
        assert np.abs(counts / draws - 0.25).max() <= 0.01

    def test_ba_kind_ranges(self):
        pairing = sample_pairing(random_config(3, 5, Strategy.RANDOM_BA), make_rng(1))
        assert len(pairing.map) == 5
        assert all(0 <= t < 3 for t in pairing.map)

    @pytest.mark.parametrize("strategy", [Strategy.FULL, Strategy.HEURISTIC])
    def test_a_deterministic_strategy_samples_no_pairing(self, strategy):
        rng = make_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ConfigError, match=f"strategy {strategy.value} is deterministic"):
            sample_pairing(random_config(2, 3, strategy), rng)
        assert rng.bit_generator.state == state  # nothing was drawn

    @pytest.mark.parametrize("entries", [(0.7, 2.9), (True, False), np.array([1.0, 0.0])])
    def test_a_non_integral_pairing_entry_is_refused(self, entries):
        # int() would truncate these into another, valid-looking pairing
        with pytest.raises(ConfigError, match="pairing map entries must be integers"):
            Pairing(entries)

    def test_numpy_integer_pairing_entries_are_accepted(self):
        assert Pairing(np.array([1, 0])).map == (1, 0)


class TestPresets:
    def test_lora(self):
        cfg = lora_preset(16, 16, 8)
        assert (cfg.a_count, cfg.b_count, cfg.strategy, cfg.rank) == \
            (1, 1, Strategy.FULL, 8)

    def test_hydra(self):
        cfg = hydra_preset(16, 16, 8, b_count=3)
        assert (cfg.a_count, cfg.b_count, cfg.strategy) == (1, 3, Strategy.FULL)

    def test_moe(self):
        cfg = moe_preset(16, 16, 8, experts=8)
        assert (cfg.a_count, cfg.b_count, cfg.strategy) == (8, 8, Strategy.HEURISTIC)

    def test_lora_preset_matches_vanilla_reference(self):
        # hand-written vanilla single-pair adapter as the reference
        cfg = lora_preset(10, 12, 4, alpha=8.0)
        layer = random_layer(cfg, seed=22)
        x = make_rng(23).normal(size=10)
        reference = layer.w0 @ x + (8.0 / 4) * (layer.b_list[0] @ (layer.a_list[0] @ x))
        assert np.abs(forward(layer, x) - reference).max() <= 1e-12

    def test_trainable_params(self):
        cfg = CoLAConfig(in_dim=10, out_dim=12, rank=4, a_count=2, b_count=3, alpha=4.0)
        assert trainable_params(cfg) == 2 * 4 * 10 + 3 * 12 * 4


class TestFlopModel:
    def cfg(self, strategy, a_count=2, b_count=3, n=64, m=64, r=8):
        return CoLAConfig(in_dim=m, out_dim=n, rank=r, a_count=a_count,
                          b_count=b_count, strategy=strategy, alpha=float(r))

    def test_single_pair_adapter_forward(self):
        train_steps = set()
        for strategy in (Strategy.FULL, Strategy.RANDOM_AB, Strategy.RANDOM_BA,
                         Strategy.HEURISTIC):
            cfg = self.cfg(strategy, a_count=1, b_count=1)
            parts = flop_breakdown(cfg, "forward")
            assert parts["down"] + parts["up"] == 8 * 64 + 64 * 8
            train_steps.add(flop_count(cfg, "train_step"))
        assert len(train_steps) == 1  # at M = N = 1 every strategy is one graph

    def test_random_ab_cheaper_than_full_train_step(self):
        assert flop_count(self.cfg(Strategy.RANDOM_AB), "train_step") < \
            flop_count(self.cfg(Strategy.FULL), "train_step")

    def test_ordering_chain(self):
        ab = flop_count(self.cfg(Strategy.RANDOM_AB), "train_step")
        heur = flop_count(self.cfg(Strategy.HEURISTIC), "train_step")
        full = flop_count(self.cfg(Strategy.FULL), "train_step")
        assert ab <= heur <= full

    def test_full_forward_affine_in_up_count(self):
        # fixed M: slope in N must be exactly n*r
        counts = [flop_count(self.cfg(Strategy.FULL, b_count=b), "forward")
                  for b in (1, 2, 3, 4)]
        diffs = np.diff(counts)
        assert np.all(diffs == 64 * 8)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_graph_count_oracle(self, strategy):
        # closed-form (down, up) applications of the factored graph: FULL and
        # HEURISTIC apply every pool member once, RANDOM_AB one B per down
        # branch, RANDOM_BA one A per up branch
        cfg = self.cfg(strategy)
        n, m, r = 64, 64, 8
        M, N = cfg.a_count, cfg.b_count
        down_apps, up_apps = {Strategy.FULL: (M, N), Strategy.RANDOM_AB: (M, M),
                              Strategy.RANDOM_BA: (N, N),
                              Strategy.HEURISTIC: (M, N)}[strategy]
        fwd = n * m + down_apps * r * m + up_apps * n * r
        back = up_apps * n * r * 2 + down_apps * r * m
        assert flop_count(cfg, "forward") == fwd
        assert flop_count(cfg, "train_step") == fwd + back

    def test_bad_pass_kind(self):
        with pytest.raises(ValueError, match="pass kind"):
            flop_count(self.cfg(Strategy.FULL), "inference")
