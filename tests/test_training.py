import numpy as np
import pytest

from cola_forge.adapter import (
    CoLAConfig,
    ConfigError,
    Pairing,
    Strategy,
    flop_count,
    forward,
    lora_preset,
    make_layer,
    sample_pairing,
)
from cola_forge.harness import RecoveryTaskSpec, make_recovery_task, run_single
from cola_forge.initializers import GAUSSIAN_ZERO, PISSA, InitSpec, build_layer
from cola_forge.linalg import make_rng
from cola_forge.training import (
    DivergenceError,
    backward,
    cross_entropy_grad,
    finite_diff_check,
    make_optimizer,
    optimizer_step,
    squared_error_grad,
    train_loop,
)


def random_layer(config, seed=0, noisy_up=True):
    """Gaussian pools on both sides so gradients are nowhere trivially zero."""
    rng = make_rng(seed)
    layer = build_layer(config, InitSpec(GAUSSIAN_ZERO, std=0.3), rng,
                        base_w0=rng.normal(size=(config.out_dim, config.in_dim)))
    if noisy_up:
        for b in layer.b_list:
            b += rng.normal(0.0, 0.3, size=b.shape)
    return layer


class TestBackward:
    def test_zero_cotangent_gives_zero_grads(self):
        cfg = CoLAConfig(in_dim=6, out_dim=5, rank=2, a_count=2, b_count=3, alpha=4.0)
        layer = random_layer(cfg, seed=1)
        grads = backward(layer, make_rng(2).normal(size=6), np.zeros(5))
        assert all(np.all(g == 0.0) for g in grads.flat())

    def test_single_pair_closed_form(self):
        # dB = (alpha/r) g (A x)^T, dA = (alpha/r) (B^T g) x^T on a 2x2 hand case
        cfg = CoLAConfig(in_dim=2, out_dim=2, rank=1, alpha=2.0)
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0], [4.0]])
        layer = make_layer(np.zeros((2, 2)), [a], [b], cfg)
        x = np.array([1.0, -1.0])
        g = np.array([0.5, 2.0])
        scale = 2.0 / 1
        grads = backward(layer, x, g)
        t = a @ x  # = [-1]
        assert np.abs(grads.db_list[0] - scale * np.outer(g, t)).max() <= 1e-12
        assert np.abs(grads.da_list[0] - scale * np.outer(b.T @ g, x)).max() <= 1e-12

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_finite_difference_agreement(self, strategy):
        cfg = CoLAConfig(in_dim=12, out_dim=16, rank=4, a_count=2, b_count=3,
                         strategy=strategy)
        layer = random_layer(cfg, seed=3)
        rng = make_rng(4)
        err = finite_diff_check(layer, rng.normal(size=12), rng.normal(size=16))
        assert err <= 1e-6

    def test_pairing_gradient_sparsity(self):
        # an up pool member the pairing never selects gets exactly zero grad
        cfg = CoLAConfig(in_dim=6, out_dim=5, rank=2, a_count=2, b_count=3,
                         strategy=Strategy.RANDOM_AB, alpha=4.0)
        layer = random_layer(cfg, seed=5)
        pairing = Pairing(kind="ab", map=(0, 0))
        rng = make_rng(6)
        grads = backward(layer, rng.normal(size=6), rng.normal(size=5), pairing)
        assert np.all(grads.db_list[1] == 0.0)
        assert np.all(grads.db_list[2] == 0.0)
        assert np.any(grads.db_list[0] != 0.0)

    def test_batch_equals_sample_sum(self):
        cfg = CoLAConfig(in_dim=6, out_dim=5, rank=2, a_count=2, b_count=2, alpha=4.0)
        layer = random_layer(cfg, seed=7)
        rng = make_rng(8)
        xs = rng.normal(size=(6, 4))
        gs = rng.normal(size=(5, 4))
        batched = backward(layer, xs, gs)
        summed = [np.zeros_like(g) for g in batched.flat()]
        for col in range(4):
            single = backward(layer, xs[:, col], gs[:, col])
            for acc, g in zip(summed, single.flat()):
                acc += g
        for got, want in zip(batched.flat(), summed):
            assert np.abs(got - want).max() <= 1e-12


class TestFiniteDiffCheck:
    def test_tight_at_default_eps(self):
        layer = random_layer(lora_preset(10, 8, 3), seed=9)
        rng = make_rng(10)
        assert finite_diff_check(layer, rng.normal(size=10), rng.normal(size=8)) <= 1e-6

    def test_coarse_eps_stays_bounded(self):
        # the probe loss is quadratic per entry, so even a coarse step keeps
        # the reported error far below the 1e-3 bound
        layer = random_layer(lora_preset(10, 8, 3), seed=11)
        rng = make_rng(12)
        x, t = rng.normal(size=10), rng.normal(size=8)
        coarse = finite_diff_check(layer, x, t, eps=1e-3)
        assert coarse <= 1e-3

    def test_degenerate_zero_case(self):
        cfg = lora_preset(4, 4, 2, alpha=2.0)
        layer = make_layer(np.zeros((4, 4)), [np.zeros((2, 4))], [np.zeros((4, 2))], cfg)
        assert finite_diff_check(layer, np.zeros(4), np.zeros(4)) == 0.0

    def test_rejects_bad_eps(self):
        layer = random_layer(lora_preset(4, 4, 2), seed=13)
        with pytest.raises(ValueError, match="eps"):
            finite_diff_check(layer, np.zeros(4), np.zeros(4), eps=0.0)


class TestOptimizers:
    def test_sgd_arithmetic(self):
        p = [np.array([[1.0]])]
        state = make_optimizer("sgd", 0.1)
        optimizer_step(state, p, [np.array([[2.0]])])
        assert p[0][0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_gradient_fixed_point(self):
        for kind in ("sgd", "adam"):
            p = [np.full((2, 2), 3.0)]
            state = make_optimizer(kind, 0.1)
            optimizer_step(state, p, [np.zeros((2, 2))])
            assert np.array_equal(p[0], np.full((2, 2), 3.0))

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first step ~ lr * sign(g)
        p = [np.zeros((1, 1))]
        state = make_optimizer("adam", 1e-3)
        optimizer_step(state, p, [np.full((1, 1), 0.5)])
        assert abs(abs(p[0][0, 0]) - 1e-3) <= 1e-6
        assert p[0][0, 0] < 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_adam_matches_the_textbook_expressions_bitwise(self, dtype):
        # the scratch-buffer update must round exactly like the plain formula
        rng = make_rng(5)
        params = [rng.normal(size=(3, 4)).astype(dtype), rng.normal(size=7).astype(dtype)]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        state = make_optimizer("adam", 1e-2)
        b1, b2 = state.betas
        for step in range(1, 6):
            grads = [rng.normal(size=p.shape).astype(dtype) for p in params]
            optimizer_step(state, params, grads)
            for p, g, mk, vk in zip(ref, grads, m, v):
                mk *= b1
                mk += (1.0 - b1) * g
                vk *= b2
                vk += (1.0 - b2) * g * g
                p -= state.lr * (mk / (1.0 - b1 ** step)) / (
                    np.sqrt(vk / (1.0 - b2 ** step)) + state.eps)
            for p, r in zip(params, ref):
                assert p.dtype == dtype and np.array_equal(p, r)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            make_optimizer("rmsprop", 0.1)


class TestLosses:
    def test_squared_error_grad_matches_fd(self):
        rng = make_rng(14)
        y = rng.normal(size=(5, 3))
        t = rng.normal(size=(5, 3))
        loss, grad = squared_error_grad(y, t)
        eps = 1e-6
        y2 = y.copy()
        y2[2, 1] += eps
        lp, _ = squared_error_grad(y2, t)
        assert abs((lp - loss) / eps - grad[2, 1]) <= 1e-5

    def test_cross_entropy_grad_matches_fd(self):
        rng = make_rng(15)
        z = rng.normal(size=(4, 6))
        labels = rng.integers(0, 4, size=6)
        loss, grad = cross_entropy_grad(z, labels)
        eps = 1e-6
        z2 = z.copy()
        z2[1, 3] += eps
        lp, _ = cross_entropy_grad(z2, labels)
        assert abs((lp - loss) / eps - grad[1, 3]) <= 1e-5
        assert loss > 0.0


def small_task(noise=0.0, seed=3):
    spec = RecoveryTaskSpec(n=24, m=20, base_seed=seed, components=2,
                            noise_std=noise, train_samples=200, eval_samples=100)
    return make_recovery_task(spec, make_rng(seed))


class TestTrainLoop:
    def test_zero_steps_only_initial_loss(self):
        task = small_task()
        layer = build_layer(lora_preset(20, 24, 4), InitSpec(GAUSSIAN_ZERO),
                            make_rng(42), base_w0=task.w_base)
        opt = make_optimizer("sgd", 1e-2)
        report = train_loop(task, layer, opt, steps=0, batch=8, rng=make_rng(42))
        assert report.losses == []
        assert report.initial_loss == report.final_loss
        assert report.mac_total == 0

    def test_row_mac_count_includes_batch(self):
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3)
        row, report = run_single(small_task(), cfg, GAUSSIAN_ZERO, 42, steps=10, batch=8)
        assert row.mac_count == report.mac_total == flop_count(cfg, "train_step") * 8 * 10

    def test_recovery_halves_loss(self):
        # pilot-calibrated: 500 Adam steps cut the loss far below half
        task = small_task()
        for seed in (42, 43, 44, 45, 46):
            row, report = run_single(task, lora_preset(20, 24, 8), GAUSSIAN_ZERO,
                                     seed, steps=500, optimizer="adam", lr=1e-2)
            assert report.final_loss < 0.5 * report.initial_loss

    def test_same_seed_bitwise_identical_traces(self):
        task = small_task(noise=0.05)
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=Strategy.RANDOM_AB)
        runs = []
        for _ in range(2):
            layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(42),
                                base_w0=task.w_base)
            opt = make_optimizer("adam", 1e-2)
            runs.append(train_loop(task, layer, opt, steps=50, batch=8,
                                   rng=make_rng(42)))
        assert runs[0].losses == runs[1].losses
        assert runs[0].final_loss == runs[1].final_loss

    def test_base_is_bitwise_frozen(self):
        task = small_task()
        for strategy in Strategy:
            cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                             strategy=strategy)
            layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(42),
                                base_w0=task.w_base)
            before = layer.w0.tobytes()
            opt = make_optimizer("adam", 1e-2)
            train_loop(task, layer, opt, steps=60, batch=8, rng=make_rng(42))
            assert layer.w0.tobytes() == before

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_sgd_monotone_trend(self, strategy):
        # loss after 100 small SGD steps sits below the starting loss
        task = small_task()
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=strategy)
        for seed in (42, 43, 44, 45, 46):
            layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(seed),
                                base_w0=task.w_base)
            opt = make_optimizer("sgd", 1e-2)
            report = train_loop(task, layer, opt, steps=100, batch=8,
                                rng=make_rng(seed))
            assert report.final_loss < report.initial_loss

    def test_frozen_pairing_is_honored(self):
        task = small_task()
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=Strategy.RANDOM_AB)
        layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(42),
                            base_w0=task.w_base)
        layer.pairing = Pairing(kind="ab", map=(1, 1), frozen=True)
        opt = make_optimizer("adam", 1e-2)
        train_loop(task, layer, opt, steps=40, batch=8, rng=make_rng(42))
        # up members 0 and 2 were never selected, so they never moved from 0
        assert np.all(layer.b_list[0] == 0.0)
        assert np.all(layer.b_list[2] == 0.0)
        assert np.any(layer.b_list[1] != 0.0)


class TestGradientSuiteAcrossInits:
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("init_kind", [GAUSSIAN_ZERO, PISSA])
    def test_fd_agreement(self, strategy, init_kind):
        rng = make_rng(77)
        cfg = CoLAConfig(in_dim=12, out_dim=16, rank=4, a_count=3, b_count=3,
                         strategy=strategy)
        if init_kind == GAUSSIAN_ZERO:
            layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO, std=0.3), rng,
                                base_w0=rng.normal(size=(16, 12)))
            for b in layer.b_list:
                b += rng.normal(0.0, 0.3, size=b.shape)
        else:
            layer = build_layer(cfg, InitSpec(PISSA, source_w=rng.normal(size=(16, 12))),
                                rng)
        err = finite_diff_check(layer, rng.normal(size=12), rng.normal(size=16))
        assert err <= 1e-6


class TestFusedStep:
    """``train_loop`` fuses each step; a hand loop over the public forward,
    backward and per-pool optimizer_step, making the same rng draws, is the
    reference it must match bit for bit."""

    @staticmethod
    def hand_loop(task, layer, kind, steps, batch, rng):
        state = make_optimizer(kind, 1e-2)
        pools = layer.a_list + layer.b_list
        random_kind = {Strategy.RANDOM_AB: "ab", Strategy.RANDOM_BA: "ba"}.get(
            layer.config.strategy)
        losses = []
        for _ in range(steps):
            idx = rng.integers(0, task.x_train.shape[1], size=batch)
            xb = task.x_train[:, idx]
            pairing = None
            if random_kind is not None:
                pairing = layer.pairing if layer.pairing.frozen else sample_pairing(
                    layer.config.a_count, layer.config.b_count, random_kind, rng)
            y = forward(layer, xb, mode="train", pairing=pairing)
            loss, g = squared_error_grad(y, task.y_train[:, idx])
            optimizer_step(state, pools, backward(layer, xb, g, pairing).flat())
            losses.append(loss)
        return losses

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("strategy, frozen", [
        (Strategy.FULL, False), (Strategy.HEURISTIC, False),
        (Strategy.RANDOM_AB, False), (Strategy.RANDOM_AB, True),
        (Strategy.RANDOM_BA, False), (Strategy.RANDOM_BA, True),
    ])
    def test_matches_hand_loop_bitwise(self, strategy, frozen, kind, batch):
        task = small_task(noise=0.05)
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=strategy)
        fused, hand = (build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(5),
                                   base_w0=task.w_base) for _ in range(2))
        if frozen:
            for layer in (fused, hand):
                layer.pairing = Pairing(layer.pairing.kind, layer.pairing.map, frozen=True)
        report = train_loop(task, fused, make_optimizer(kind, 1e-2), steps=30,
                            batch=batch, rng=make_rng(9))
        losses = self.hand_loop(task, hand, kind, 30, batch, make_rng(9))
        assert report.losses == losses
        assert fused.params.tobytes() == hand.params.tobytes()
        assert np.any(np.hstack(fused.b_list) != 0.0)  # training moved the pools

    def test_pools_are_views_of_one_buffer(self):
        layer = random_layer(CoLAConfig(in_dim=6, out_dim=5, rank=2, a_count=2, b_count=3))
        layer.params[:] = 0.0
        assert all(np.all(p == 0.0) for p in layer.a_list + layer.b_list)
        assert layer.params.size == 2 * 2 * 6 + 3 * 5 * 2

    @pytest.mark.parametrize("side", ["a_list", "b_list"])
    @pytest.mark.parametrize("source", ["copy", "other pool"])
    def test_rebound_pool_is_rejected(self, side, source):
        task = small_task()
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3)
        layer = random_layer(cfg, seed=5)
        pools = getattr(layer, side)
        # a copy would never train; an alias of pool 0 would train twice
        pools[1] = pools[1].copy() if source == "copy" else pools[0]
        with pytest.raises(ConfigError, match="not its view"):
            train_loop(task, layer, make_optimizer("adam", 1e-2), steps=5, batch=8,
                       rng=make_rng(9))

    def test_adam_state_is_tied_to_its_parameters(self):
        state = make_optimizer("adam", 1e-2)
        optimizer_step(state, [np.zeros(3)], [np.ones(3)])
        with pytest.raises(ValueError, match="other parameters"):
            optimizer_step(state, [np.zeros(4)], [np.ones(4)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow
class TestDivergence:
    DIVERGENT = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3)

    def test_first_non_finite_minibatch_loss_is_named(self):
        # SGD at lr=50 overflows the minibatch loss at step 6
        with pytest.raises(DivergenceError, match=r"minibatch loss .* step 6 of 50 \(seed 42\)"):
            run_single(small_task(), self.DIVERGENT, GAUSSIAN_ZERO, 42, steps=50,
                       optimizer="sgd", lr=50.0)

    def test_non_finite_final_loss_is_named(self):
        # five finite minibatch losses, then the last update overflows
        with pytest.raises(DivergenceError, match=r"final loss .* after 5 steps \(seed 42\)"):
            run_single(small_task(), self.DIVERGENT, GAUSSIAN_ZERO, 42, steps=5,
                       optimizer="sgd", lr=50.0)
