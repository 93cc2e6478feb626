import dataclasses
import tracemalloc

import numpy as np
import pytest

from cola_forge.adapter import (
    CoLAConfig,
    Pairing,
    Strategy,
    flop_count,
    forward,
    lora_preset,
    make_layer,
    sample_pairing,
)
from cola_forge.adapter import _pool_sum
from cola_forge.harness import (
    ClassifyTaskSpec,
    RecoveryTaskSpec,
    make_classification_task,
    make_recovery_task,
    run_single,
)
from cola_forge.initializers import GAUSSIAN_ZERO, PISSA, InitSpec, build_layer
from cola_forge.linalg import ShapeError, make_rng
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
        assert np.all(grads.flat == 0.0)

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
        summed = sum(backward(layer, xs[:, col], gs[:, col]).flat for col in range(4))
        assert np.abs(batched.flat - summed).max() <= 1e-12


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
        p = np.array([[1.0]])
        state = make_optimizer("sgd", 0.1)
        optimizer_step(state, p, np.array([[2.0]]))
        assert p[0, 0] == pytest.approx(0.8, abs=1e-15)

    def test_zero_gradient_fixed_point(self):
        for kind in ("sgd", "adam"):
            p = np.full((2, 2), 3.0)
            state = make_optimizer(kind, 0.1)
            optimizer_step(state, p, np.zeros((2, 2)))
            assert np.array_equal(p, np.full((2, 2), 3.0))

    def test_adam_first_step_magnitude(self):
        # bias correction makes the first step ~ lr * sign(g)
        p = np.zeros((1, 1))
        state = make_optimizer("adam", 1e-3)
        optimizer_step(state, p, np.full((1, 1), 0.5))
        assert abs(abs(p[0, 0]) - 1e-3) <= 1e-6
        assert p[0, 0] < 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_adam_matches_the_textbook_expressions_bitwise(self, dtype):
        # the scratch-buffer update must round exactly like the plain formula
        rng = make_rng(5)
        params = rng.normal(size=(3, 4)).astype(dtype)
        ref = params.copy()
        m, v = np.zeros_like(params), np.zeros_like(params)
        state = make_optimizer("adam", 1e-2)
        b1, b2 = state.betas
        for step in range(1, 6):
            g = rng.normal(size=params.shape).astype(dtype)
            optimizer_step(state, params, g)
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            ref -= state.lr * (m / (1.0 - b1 ** step)) / (
                np.sqrt(v / (1.0 - b2 ** step)) + state.eps)
            assert params.dtype == dtype and np.array_equal(params, ref)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_rejects_grads_of_another_shape(self, kind):
        state = make_optimizer(kind, 0.1)
        with pytest.raises(ShapeError, match="grads"):
            optimizer_step(state, np.zeros(3), np.ones(1))
        assert state.step == 0
        # a rejected call after a good one leaves the step count, and with it
        # every later bias correction, as it was
        optimizer_step(state, np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError, match="grads"):
            optimizer_step(state, np.zeros(3), np.ones(1))
        if kind == "adam":
            with pytest.raises(ShapeError, match="other parameters"):
                optimizer_step(state, np.zeros(4), np.ones(4))
        assert state.step == 1

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

    def test_gathered_blocks_cost_at_most_one_training_set_of_memory(self):
        # the benchmark's wide_layer cell shape; 1759197 bytes is the traced
        # peak of this run when each step gathered only its own minibatch
        task = make_recovery_task(RecoveryTaskSpec(
            n=128, m=128, base_seed=3, components=3, noise_std=0.05,
            train_samples=400, eval_samples=400), make_rng(3))
        cfg = CoLAConfig(in_dim=128, out_dim=128, rank=16, a_count=2, b_count=3)
        layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(1), base_w0=task.w_base)
        tracemalloc.start()
        try:
            train_loop(task, layer, make_optimizer("adam", 1e-2), steps=100, batch=32,
                       rng=make_rng(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1759197 + task.x_train.nbytes + task.y_train.nbytes

    def test_eval_forward_allocates_only_what_its_composition_uses(self):
        # 872880 bytes is the traced peak of this forward while pool sums had
        # a stacked-matmul branch; a workspace that allocated every buffer of
        # a training step up front would peak at ~1.43 MB
        rng = make_rng(3)
        cfg = CoLAConfig(in_dim=128, out_dim=128, rank=16, a_count=2, b_count=3)
        layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(1),
                            base_w0=rng.normal(size=(128, 128)))
        x = rng.normal(size=(128, 400))
        tracemalloc.start()
        try:
            forward(layer, x, mode="eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 872880

    def test_frozen_pairing_is_honored(self):
        task = small_task()
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=Strategy.RANDOM_AB)
        layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(42),
                            base_w0=task.w_base)
        layer = dataclasses.replace(layer, pairing=Pairing(kind="ab", map=(1, 1), frozen=True))
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
    backward and optimizer_step over ``params``, making the same rng draws, is the
    reference it must match bit for bit."""

    STRATEGIES = [
        (Strategy.FULL, False), (Strategy.HEURISTIC, False),
        (Strategy.RANDOM_AB, False), (Strategy.RANDOM_AB, True),
        (Strategy.RANDOM_BA, False), (Strategy.RANDOM_BA, True),
    ]

    @staticmethod
    def hand_loop(task, layer, kind, steps, batch, rng, lr=1e-2):
        """One rng draw of batch indices per step, then the pairing draw."""
        state = make_optimizer(kind, lr)
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
            if task.kind == "recovery":
                loss, g = squared_error_grad(y, task.y_train[:, idx])
            else:
                loss, g = cross_entropy_grad(y, task.labels_train[idx])
            optimizer_step(state, layer.params, backward(layer, xb, g, pairing).flat)
            losses.append(loss)
        return losses

    def check_against_hand_loop(self, task, cfg, frozen, kind, batch, steps=30, lr=1e-2):
        fused, hand = (build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(5),
                                   base_w0=task.w_base) for _ in range(2))
        if frozen:
            fused, hand = (dataclasses.replace(layer, pairing=dataclasses.replace(
                layer.pairing, frozen=True)) for layer in (fused, hand))
        report = train_loop(task, fused, make_optimizer(kind, lr), steps=steps,
                            batch=batch, rng=make_rng(9))
        losses = self.hand_loop(task, hand, kind, steps, batch, make_rng(9), lr)
        assert report.losses == losses
        assert fused.params.tobytes() == hand.params.tobytes()
        assert np.any(fused.b_list != 0.0)  # training moved the pools

    @pytest.mark.parametrize("batch", [1, 8])
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("strategy, frozen", STRATEGIES)
    def test_matches_hand_loop_bitwise(self, strategy, frozen, kind, batch):
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=strategy)
        self.check_against_hand_loop(small_task(noise=0.05), cfg, frozen, kind, batch)

    # rank 1, batch 1 and 8 members make every product of a pool sum one
    # element, where numpy's own reductions would sum pairwise; 150 steps span
    # three blocks of batch indices, the last one short
    # a 20-sample training set holds two steps of batch 8, so a block of steps
    # is capped at two; the (1, 1) pairing of a frozen RANDOM_AB (2, 3) layer
    # leaves B_0 and B_2 in no term (one class, never updated); the HEURISTIC
    # (2, 4) tail B_1..B_3 is one class of three members; M = 1 leaves a
    # RANDOM_BA pairing one choice, which train_loop composes once while the
    # hand loop draws it every step, and a RANDOM_AB pairing three
    EDGES = {
        "rank1-batch1-8x8": (dict(rank=1, a_count=8, b_count=8), 1, 30),
        "out-dim-1": (dict(rank=1, a_count=8, b_count=9), 1, 30),
        "three-index-blocks": (dict(rank=4, a_count=2, b_count=3), 8, 150),
        "classification": (dict(rank=2, a_count=2, b_count=3), 8, 30),
        "training-set-below-one-block": (dict(rank=4, a_count=2, b_count=3), 8, 30),
        "pairing-all-to-member-1": (dict(rank=4, a_count=2, b_count=3), 8, 30),
        "heuristic-tail-of-three": (dict(rank=4, a_count=2, b_count=4), 8, 30),
        "one-choice-pairing": (dict(rank=4, a_count=1, b_count=3), 8, 30),
    }

    @pytest.mark.parametrize("edge", list(EDGES))
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("strategy, frozen", STRATEGIES)
    def test_matches_hand_loop_bitwise_at_edges(self, strategy, frozen, kind, edge,
                                                monkeypatch):
        shape, batch, steps = self.EDGES[edge]
        if edge == "pairing-all-to-member-1":  # every random layer starts from it
            monkeypatch.setattr("cola_forge.adapter.sample_pairing", lambda a_count, b_count,
                                kind, rng: Pairing(kind, [1] * (a_count if kind == "ab"
                                                                else b_count)))
        if edge == "training-set-below-one-block":
            task = make_recovery_task(RecoveryTaskSpec(
                n=24, m=20, base_seed=3, components=2, noise_std=0.05,
                train_samples=20, eval_samples=50), make_rng(3))
        elif edge == "out-dim-1":
            task = make_recovery_task(RecoveryTaskSpec(
                n=1, m=20, base_seed=3, components=1, noise_std=0.05,
                train_samples=200, eval_samples=50), make_rng(3))
        elif edge == "classification":
            task = make_classification_task(ClassifyTaskSpec(
                clusters=4, input_dim=16, samples_per_cluster=30, backbone_seed=3,
                label_noise=0.1), make_rng(3))
        else:
            task = small_task(noise=0.05)
        cfg = CoLAConfig(in_dim=task.in_dim, out_dim=task.out_dim, strategy=strategy,
                         **shape)
        self.check_against_hand_loop(task, cfg, frozen, kind, batch, steps, lr=2e-3)

    @pytest.mark.parametrize("high", [1, 2, 7, 400, 2 ** 31 - 1, 2 ** 32, 2 ** 32 + 1,
                                      2 ** 40])
    def test_block_draw_equals_per_step_draws(self, high):
        # train_loop draws the batch indices of a block of steps in one call,
        # also where a one-choice pairing is drawn between them in the
        # reference (the draw consumes nothing)
        for seed in range(12):
            for batch in (1, 3, 8, 32):
                for steps in (1, 7):
                    block, single, one_choice = make_rng(seed), make_rng(seed), make_rng(seed)
                    drawn = block.integers(0, high, size=(steps, batch))
                    for row in drawn:
                        assert np.array_equal(row, single.integers(0, high, size=batch))
                        assert np.array_equal(row, one_choice.integers(0, high, size=batch))
                        assert not one_choice.integers(0, 1, size=3).any()
                    assert (block.bit_generator.state == single.bit_generator.state
                            == one_choice.bit_generator.state)

    @pytest.mark.parametrize("count, rows, inner, cols", [
        (3, 24, 4, 8), (8, 1, 1, 1), (8, 8, 32, 1), (2, 128, 16, 32), (3, 32, 8, 400),
        (4, 16, 20, None),  # a vector input
    ])
    def test_stacked_matmul_slices_equal_2d_products(self, count, rows, inner, cols):
        rng = make_rng(rows + inner)
        stack = rng.normal(size=count * rows * inner).reshape(count, rows, inner)
        v = rng.normal(size=inner if cols is None else (inner, cols))
        for part, member in zip(stack @ v, stack):
            assert part.tobytes() == (member @ v).tobytes()

    @pytest.mark.parametrize("count, rows, cols", [
        (1, 24, 8), (2, 24, 8), (3, 32, 8), (8, 1, 1), (9, 1, 1), (16, 1, 1),
        (3, 128, 32), (4, 16, None),
    ])
    def test_pool_sum_adds_left_to_right(self, count, rows, cols):
        # one product at a time, added in index order, must round as a plain
        # loop (numpy's reductions sum pairwise over 8 or more one-element
        # slices)
        idx = tuple(range(1, count + 1))
        for seed in range(10):
            rng = make_rng(seed)
            stack = rng.normal(size=(count + 2, rows, 5)) * 10.0 ** rng.integers(
                -6, 6, size=(count + 2, rows, 5))
            v = rng.normal(size=5 if cols is None else (5, cols))
            product_sum, plain_sum = stack[1] @ v, stack[1].copy()
            for k in idx[1:]:
                product_sum += stack[k] @ v
                plain_sum += stack[k]
            assert _pool_sum(stack, idx, v).tobytes() == product_sum.tobytes()
            assert _pool_sum(stack, idx).tobytes() == plain_sum.tobytes()

    # each product of a train step as (rows, inner, cols) of n, m, r and the
    # batch, and the layout of its operands: C-contiguous, or F, the
    # transpose of one member of a C stack (a step reads its batch as the
    # transpose of a gathered block's rows)
    PRODUCTS = {
        "A_i @ xb": (lambda n, m, r, b: (r, m, b), "CF"),
        "B_j @ t": (lambda n, m, r, b: (n, r, b), "CC"),
        "w0 @ x": (lambda n, m, r, b: (n, m, b), "CC"),
        "g @ t.T": (lambda n, m, r, b: (n, b, r), "CF"),
        "b_sum.T @ g": (lambda n, m, r, b: (r, n, b), "FC"),
        "rev @ x_rows": (lambda n, m, r, b: (r, b, m), "CC"),
        "rev @ x.T": (lambda n, m, r, b: (r, b, m), "CF"),
    }

    @pytest.mark.parametrize("shape", [(24, 20, 4, 8), (24, 20, 4, 1), (1, 20, 1, 8),
                                       (128, 128, 16, 32)],
                             ids=["step", "batch-1", "out-dim-1", "wide"])
    @pytest.mark.parametrize("product", list(PRODUCTS))
    def test_dot_into_buffer_equals_matmul(self, product, shape):
        # every product of a step is np.dot(a, b, out) and must round as a @ b
        dims, layout = self.PRODUCTS[product]
        rows, inner, cols = dims(*shape)

        def operand(rng, shape, order):
            if order == "C":
                return rng.normal(size=shape)
            return rng.normal(size=(3,) + shape[::-1])[1].T

        for seed in range(20):
            rng = make_rng(seed)
            a, b = operand(rng, (rows, inner), layout[0]), operand(rng, (inner, cols), layout[1])
            assert np.dot(a, b, np.empty((rows, cols))).tobytes() == (a @ b).tobytes()

    def test_pools_are_views_of_one_buffer(self):
        layer = random_layer(CoLAConfig(in_dim=6, out_dim=5, rank=2, a_count=2, b_count=3))
        layer.params[:] = 0.0
        assert np.all(layer.a_list == 0.0) and np.all(layer.b_list == 0.0)
        assert layer.params.size == 2 * 2 * 6 + 3 * 5 * 2

    def test_pool_writes_reach_params_and_no_attribute_rebinds(self):
        task = small_task()
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3)
        layer = random_layer(cfg, seed=5)
        layer.a_list[1] = 0.0
        layer.b_list[2] = 0.0
        assert not layer.params[4 * 20:2 * 4 * 20].any() and not layer.params[-24 * 4:].any()
        train_loop(task, layer, make_optimizer("adam", 1e-2), steps=5, batch=8,
                   rng=make_rng(9))
        assert layer.a_list[1].any() and layer.b_list[2].any()  # the members trained
        for name in ("w0", "config", "params", "pairing", "a_list", "b_list"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(layer, name, getattr(layer, name))

    @pytest.mark.parametrize("side", ["a_list", "b_list"])
    @pytest.mark.parametrize("source", ["copy", "other pool"])
    def test_rebound_pool_is_rejected(self, side, source):
        task = small_task()
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3)
        layer = random_layer(cfg, seed=5)
        pools = list(getattr(layer, side))
        # a copy would never train; an alias of pool 0 would train twice
        pools[1] = pools[1].copy() if source == "copy" else pools[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(layer, side, pools)
        stack = getattr(layer, side)
        assert np.shares_memory(stack, layer.params)
        before = stack.copy()
        train_loop(task, layer, make_optimizer("adam", 1e-2), steps=5, batch=8,
                   rng=make_rng(9))
        # both members still train, each on its own slice of params
        assert not np.array_equal(stack[0], before[0])
        assert not np.array_equal(stack[1], before[1])
        assert not np.array_equal(stack[1] - before[1], stack[0] - before[0])

    def test_adam_state_is_tied_to_its_parameters(self):
        state = make_optimizer("adam", 1e-2)
        optimizer_step(state, np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError, match="other parameters"):
            optimizer_step(state, np.zeros(4), np.ones(4))


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
