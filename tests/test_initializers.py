import re

import numpy as np
import pytest

from cola_forge.adapter import (
    CoLAConfig,
    Strategy,
    delta_weight,
    delta_weight_eval,
    forward,
    make_layer,
    merge,
)
from cola_forge.initializers import (
    GAUSSIAN_ZERO,
    PISSA,
    InitSpec,
    RankDeficientSourceError,
    build_layer,
    default_alpha,
    eckart_young_error,
    init_gaussian_zero,
    pissa_extended,
)
from cola_forge.linalg import ShapeError, frobenius_norm, make_rng, svd


class TestGaussianZero:
    def cfg(self, a_count=2, b_count=3):
        return CoLAConfig(in_dim=10, out_dim=8, rank=3, a_count=a_count,
                          b_count=b_count)

    def test_delta_is_exactly_zero(self):
        cfg = self.cfg()
        layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO, std=0.2), make_rng(42),
                            base_w0=make_rng(0).normal(size=(8, 10)))
        assert np.all(delta_weight_eval(layer) == 0.0)

    def test_forward_equals_base_at_step_zero(self):
        base = make_rng(0).normal(size=(8, 10))
        layer = build_layer(self.cfg(), InitSpec(GAUSSIAN_ZERO, std=0.2),
                            make_rng(42), base_w0=base)
        x = make_rng(1).normal(size=10)
        assert np.array_equal(forward(layer, x), base @ x)

    def test_seed_contract(self):
        base = make_rng(0).normal(size=(8, 10))
        w0_a, a42, b42 = init_gaussian_zero(base, self.cfg(), make_rng(42), std=0.2)
        _, a43, b43 = init_gaussian_zero(base, self.cfg(), make_rng(43), std=0.2)
        assert not any(np.array_equal(x, y) for x, y in zip(a42, a43))
        assert all(np.array_equal(x, y) for x, y in zip(b42, b43))
        assert all(np.all(b == 0.0) for b in b42)
        assert w0_a is not None and np.array_equal(w0_a, base)

    def test_default_std_rule(self):
        base = np.zeros((8, 10))
        _, a_list, _ = init_gaussian_zero(base, self.cfg(), make_rng(7))
        # std defaults to 1/sqrt(in_dim); 3x10 entries per pool member
        pooled = np.concatenate([a.ravel() for a in a_list])
        assert abs(pooled.std() - 1 / np.sqrt(10)) < 0.1 / np.sqrt(10) * 3

    def test_alpha_defaults(self):
        assert default_alpha(GAUSSIAN_ZERO, 8) == 16.0
        assert default_alpha(PISSA, 8) == 8.0
        base = np.zeros((8, 10))
        layer = build_layer(self.cfg(), InitSpec(GAUSSIAN_ZERO, std=0.2),
                            make_rng(42), base_w0=base)
        assert layer.config.alpha == 2 * layer.config.rank


class TestPissaExtended:
    def test_hand_diagonal_split(self):
        cfg = CoLAConfig(in_dim=2, out_dim=2, rank=1, alpha=1.0)
        w0, a_list, b_list = pissa_extended(np.diag([3.0, 1.0]), cfg)
        assert np.abs(w0 - np.array([[0.0, 0.0], [0.0, 1.0]])).max() <= 1e-12
        principal = b_list[0] @ a_list[0]
        assert np.abs(principal - np.array([[3.0, 0.0], [0.0, 0.0]])).max() <= 1e-12

    def test_even_division(self):
        w = make_rng(1).normal(size=(12, 9))
        cfg1 = CoLAConfig(in_dim=9, out_dim=12, rank=3, a_count=1, b_count=1, alpha=3.0)
        cfg2 = CoLAConfig(in_dim=9, out_dim=12, rank=3, a_count=2, b_count=1, alpha=3.0)
        _, single, _ = pissa_extended(w, cfg1)
        _, halves, _ = pissa_extended(w, cfg2)
        for half in halves:
            assert np.array_equal(half, single[0] / 2)

    def test_reconstruction_identity(self):
        w = make_rng(2).normal(size=(64, 48))
        cfg = CoLAConfig(in_dim=48, out_dim=64, rank=8, a_count=2, b_count=3,
                         strategy=Strategy.FULL, alpha=8.0)
        layer = build_layer(cfg, InitSpec(PISSA, source_w=w), make_rng(0))
        err = frobenius_norm(merge(layer) - w) / frobenius_norm(w)
        assert err <= 1e-10

    @pytest.mark.parametrize("a_count", [1, 2, 3])
    @pytest.mark.parametrize("b_count", [1, 2, 3])
    def test_reconstruction_all_pool_counts(self, a_count, b_count):
        w = make_rng(3).normal(size=(20, 16))
        cfg = CoLAConfig(in_dim=16, out_dim=20, rank=4, a_count=a_count,
                         b_count=b_count, strategy=Strategy.FULL, alpha=4.0)
        layer = build_layer(cfg, InitSpec(PISSA, source_w=w), make_rng(0))
        assert frobenius_norm(merge(layer) - w) <= 1e-10 * frobenius_norm(w)

    def test_strategy_dependent_init_magnitude(self):
        # even division makes non-FULL compositions start at a scaled principal
        w = make_rng(4).normal(size=(20, 15))
        r, a_count, b_count = 4, 2, 3
        fac = svd(w)
        up_down = (fac.u[:, :r] * fac.s[:r]) @ fac.v[:, :r].T
        expect = {
            Strategy.FULL: 1.0,
            Strategy.HEURISTIC: 1.0 / a_count,
            Strategy.RANDOM_AB: 1.0 / b_count,
            Strategy.RANDOM_BA: 1.0 / a_count,
        }
        for strategy, factor in expect.items():
            cfg = CoLAConfig(in_dim=15, out_dim=20, rank=r, a_count=a_count,
                             b_count=b_count, strategy=strategy, alpha=float(r))
            layer = build_layer(cfg, InitSpec(PISSA, source_w=w), make_rng(5))
            pairing = layer.pairing
            delta = delta_weight(layer, pairing) if pairing is not None \
                else delta_weight(layer)
            # exact on any fixed pairing: all pool members are equal at init
            assert np.abs(delta - factor * up_down).max() <= 1e-12

    def test_principal_residual_orthogonality(self):
        w = make_rng(6).normal(size=(24, 18))
        cfg = CoLAConfig(in_dim=18, out_dim=24, rank=5, alpha=5.0)
        w0, a_list, b_list = pissa_extended(w, cfg)
        principal = b_list[0] @ a_list[0]
        inner = float(np.sum(principal * w0))
        assert abs(inner) <= 1e-8 * frobenius_norm(w) ** 2

    def test_rank_deficient_source_is_a_named_error(self):
        # a rank-2 source leaves 6 of 8 principal directions at exactly zero,
        # where both factors vanish and would never receive a gradient
        rng = make_rng(31)
        w = rng.normal(size=(32, 2)) @ rng.normal(size=(2, 32))
        cfg = CoLAConfig(in_dim=32, out_dim=32, rank=8, a_count=2, b_count=3)
        with pytest.raises(RankDeficientSourceError, match=r"rank r=8 .* got rank 2"):
            pissa_extended(w, cfg)
        with pytest.raises(ValueError, match="got rank 2"):
            build_layer(cfg, InitSpec(PISSA, source_w=w), rng)
        _, a_list, _ = pissa_extended(w, CoLAConfig(in_dim=32, out_dim=32, rank=2))
        assert np.all(np.linalg.svd(a_list[0], compute_uv=False) > 0.0)

    def test_rank_too_large(self):
        cfg = CoLAConfig(in_dim=4, out_dim=6, rank=4, alpha=4.0)
        with pytest.raises(ShapeError, match=re.escape("w must have shape (6, 4), got (3, 3)")):
            pissa_extended(np.zeros((3, 3)), cfg)


@pytest.mark.parametrize("build, name", [
    (lambda cfg, w: init_gaussian_zero(w, cfg, make_rng(0)), "w0"),
    (lambda cfg, w: pissa_extended(w, cfg), "w"),
    (lambda cfg, w: make_layer(w, [np.zeros((2, 6))], [np.zeros((5, 2))], cfg), "w0"),
    (lambda cfg, w: build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(0), base_w0=w), "w0"),
    (lambda cfg, w: build_layer(cfg, InitSpec(PISSA, source_w=w), make_rng(0)), "w"),
], ids=["init_gaussian_zero", "pissa_extended", "make_layer", "build_layer-gaussian_zero",
        "build_layer-pissa"])
def test_a_matrix_of_another_shape_is_one_shape_error_everywhere(build, name):
    # init_gaussian_zero and pissa_extended once raised a plain ValueError
    # where make_layer raised ShapeError for the same rule
    cfg = CoLAConfig(in_dim=6, out_dim=5, rank=2, alpha=2.0)
    message = f"{name} must have shape (5, 6), got (6, 5)"
    with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
        build(cfg, np.ones((6, 5)))


class TestEckartYoung:
    def test_diagonal_tail(self):
        assert abs(eckart_young_error(np.diag([3.0, 1.0]), 1) - 1.0) <= 1e-12

    def test_full_rank_zero_error(self):
        w = make_rng(7).normal(size=(5, 4))
        assert eckart_young_error(w, 4) <= 1e-10

    def test_matches_tail_formula(self):
        for seed in (1, 2, 3):
            w = make_rng(seed).normal(size=(10, 8))
            s = svd(w).s
            for r in (1, 3, 5):
                tail = float(np.sqrt(np.sum(s[r:] ** 2)))
                assert abs(eckart_young_error(w, r) - tail) <= 1e-10

    def test_beats_random_candidates(self):
        # optimality against 1000 random rank-3 factor products
        rng = make_rng(8)
        w = rng.normal(size=(10, 8))
        best = eckart_young_error(w, 3)
        for _ in range(1000):
            cand = rng.normal(size=(10, 3)) @ rng.normal(size=(3, 8))
            assert best <= frobenius_norm(w - cand) + 1e-12
