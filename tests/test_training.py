import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from class_sums import class_sum_adapter, class_sum_loop, class_sum_run

from cola_forge import training
from cola_forge.adapter import (
    CoLAConfig,
    ConfigError,
    Pairing,
    Strategy,
    delta_weight,
    flop_count,
    forward,
    lora_preset,
    make_layer,
    sample_pairing,
)
from cola_forge.adapter import (
    _apply,
    _check_pairing,
    _composition,
    _replay,
    _run_sums,
    _run_views,
    _Workspace,
)
from cola_forge.harness import (
    ClassifyTaskSpec,
    RecoveryTaskSpec,
    make_classification_task,
    make_recovery_task,
    run_single,
)
from cola_forge.initializers import GAUSSIAN_ZERO, PISSA, InitSpec, build_layer
from cola_forge.linalg import ShapeError, gaussian_matrix, make_rng, svd
from cola_forge.training import (
    DivergenceError,
    OptimizerState,
    _backward,
    _sample_tables,
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
        pairing = Pairing(map=(0, 0))
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

    @pytest.mark.parametrize("strategy, a_count, b_count", [
        (Strategy.FULL, 2, 3), (Strategy.HEURISTIC, 2, 4)])
    def test_every_member_of_a_run_takes_the_run_gradient(self, strategy, a_count, b_count):
        # the members of FULL (2, 3)'s two runs and of the HEURISTIC (2, 4)
        # tail B_1..B_3 each get their run's gradient, bit for bit: the
        # gradient of the class-sum adapter's member for that run
        cfg = CoLAConfig(in_dim=12, out_dim=16, rank=4, a_count=a_count, b_count=b_count,
                         strategy=strategy)
        layer = random_layer(cfg, seed=3)
        sums, a_class, b_class = class_sum_adapter(layer)
        rng = make_rng(4)
        x, g = rng.normal(size=(12, 5)), rng.normal(size=(16, 5))
        grads, run_grads = backward(layer, x, g), backward(sums, x, g)
        assert len(set(a_class + b_class)) < a_count + b_count  # a run of several
        for members, runs, classes in ((grads.da_list, run_grads.da_list, a_class),
                                       (grads.db_list, run_grads.db_list, b_class)):
            for member, c in zip(members, classes):
                assert member.tobytes() == runs[c].tobytes()


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

    def test_an_error_in_a_small_gradient_entry_is_reported(self, monkeypatch):
        # x[4] = 1e-6 makes dA[0, 4] about 1e-6; a 50 % error planted there
        # reads 1/3 relative, where a denominator floor far above the entry
        # (1e-3 in place of 1e-12) would read it below 1e-3
        layer = random_layer(lora_preset(10, 8, 3), seed=9)
        rng = make_rng(10)
        x, t = rng.normal(size=10), rng.normal(size=8)
        x[4] = 1e-6
        exact = training.backward

        def planted(*args):
            grads = exact(*args)
            assert 1e-12 < abs(grads.da_list[0][0, 4]) < 1e-4
            grads.da_list[0][0, 4] *= 1.5
            return grads
        assert finite_diff_check(layer, x, t) <= 1e-6
        monkeypatch.setattr(training, "backward", planted)
        assert finite_diff_check(layer, x, t) >= 0.1

    def test_degenerate_zero_case(self):
        cfg = lora_preset(4, 4, 2, alpha=2.0)
        layer = make_layer(np.zeros((4, 4)), [np.zeros((2, 4))], [np.zeros((4, 2))], cfg)
        assert finite_diff_check(layer, np.zeros(4), np.zeros(4)) == 0.0

    def test_rejects_bad_eps(self):
        layer = random_layer(lora_preset(4, 4, 2), seed=13)
        with pytest.raises(ValueError, match="eps"):
            finite_diff_check(layer, np.zeros(4), np.zeros(4), eps=0.0)

    @pytest.mark.parametrize("eps, message", [
        (float("inf"), "eps must be finite, got inf"),
        (float("nan"), "eps must be positive, got nan"),
    ], ids=["inf", "nan"])
    def test_a_non_finite_eps_is_refused_before_any_arithmetic(self, eps, message):
        # eps=inf once reported 0.0, perfect agreement for any gradient: every
        # central difference was NaN, and max(0.0, nan) keeps 0.0. Warnings
        # are errors here, so arithmetic ahead of the check would fail first.
        layer = random_layer(lora_preset(4, 4, 2), seed=13)
        with pytest.raises(ValueError, match=f"^{message}$"):
            finite_diff_check(layer, np.ones(4), np.ones(4), eps=eps)


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
    def test_adam_matches_the_scaled_moment_recurrence_bitwise(self, dtype):
        # the moments are kept over their EMA weights, m / (1 - b1) and
        # v / (1 - b2), and the bias corrections fold into two step scalars;
        # the recorded update must round exactly like this plain statement
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
            m += g
            v *= b2
            v += g * g
            root = math.sqrt((1.0 - b2 ** step) / (1.0 - b2))
            ref -= state.lr * m / (np.sqrt(v) + state.eps * root) * (
                (1.0 - b1) / (1.0 - b1 ** step) * root)
            assert params.dtype == dtype and np.array_equal(params, ref)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-13), (np.float32, 1e-5)])
    @pytest.mark.parametrize("scale", [1e3, 1.0, 1e-6, 1e-9, 1e-12])
    def test_adam_matches_the_textbook_formula(self, dtype, tol, scale):
        # u = lr m^ / (sqrt(v^) + eps) with m^ = m / (1 - b1^t) and
        # v^ = v / (1 - b2^t) (Kingma and Ba, Algorithm 1), over 300 steps
        # and gradients from far above eps to far below it; u is read off
        # zero parameters, so params -= u writes -u exactly
        rng = make_rng(6)
        m, v = np.zeros((3, 4), dtype), np.zeros((3, 4), dtype)
        state = make_optimizer("adam", 1e-2)
        b1, b2 = state.betas
        for step in range(1, 301):
            g = (scale * rng.normal(size=m.shape)).astype(dtype)
            u = -optimizer_step(state, np.zeros_like(m), g)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            textbook = state.lr * (m / (1.0 - b1 ** step)) / (
                np.sqrt(v / (1.0 - b2 ** step)) + state.eps)
            assert u.dtype == dtype
            assert np.abs(u - textbook).max() <= tol * np.abs(u).max(), step
            assert np.abs(state.m * (1.0 - b1) - m).max() <= tol * np.abs(m).max(), step
            assert np.abs(state.v * (1.0 - b2) - v).max() <= tol * np.abs(v).max(), step

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

    @pytest.mark.parametrize("fields, message", [
        (dict(kind="adamw", lr=0.1), "optimizer kind must be one of ('sgd', 'adam'), got 'adamw'"),
        (dict(kind="adam", lr=0.0), "learning rate must be positive, got 0.0"),
    ])
    def test_a_state_built_directly_is_checked(self, fields, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            OptimizerState(**fields)

    @pytest.mark.parametrize("fields, message", [
        (dict(lr=float("inf")), "learning rate must be finite, got inf"),
        (dict(lr=True), "learning rate must be a real number, got True"),
        (dict(lr="0.1"), "learning rate must be a real number, got '0.1'"),
        (dict(lr=1j), "learning rate must be a real number, got 1j"),
        (dict(eps=-1.0), "eps must be positive, got -1.0"),
        (dict(eps=float("inf")), "eps must be finite, got inf"),
        (dict(eps=np.True_), "eps must be a real number, got np.True_"),
        (dict(betas=(0.9, 1.0)), "betas must be two reals in [0, 1), got (0.9, 1.0)"),
        (dict(betas=(1.0, 0.999)), "betas must be two reals in [0, 1), got (1.0, 0.999)"),
        (dict(betas=(-0.1, 0.999)), "betas must be two reals in [0, 1), got (-0.1, 0.999)"),
        (dict(betas=(0.9, float("nan"))), "betas must be two reals in [0, 1), got (0.9, nan)"),
        (dict(betas=(0.9,)), "betas must be two reals in [0, 1), got (0.9,)"),
        (dict(betas=0.9), "betas must be two reals in [0, 1), got 0.9"),
        (dict(step=-1), "step must be >= 0, got -1"),
        (dict(step=2.5), "step must be an integer, got 2.5"),
        (dict(step=True), "step must be an integer, got True"),
    ], ids=["lr-inf", "lr-bool", "lr-str", "lr-complex", "eps-negative", "eps-inf",
            "eps-bool", "beta2-one", "beta1-one", "beta1-negative", "beta2-nan", "one-beta",
            "betas-scalar", "step-negative", "step-fractional", "step-bool"])
    def test_a_bad_hyperparameter_is_refused_by_name(self, fields, message):
        # each once gave inf or NaN parameters, a bare TypeError or, with
        # the moments kept over 1 - beta, a ZeroDivisionError in the step
        # (step=-1 makes the first bias correction 1 - beta^0 = 0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            OptimizerState(kind="adam", **{"lr": 0.1, **fields})

    @pytest.mark.parametrize("run", ["optimizer_step", "train_loop"])
    @pytest.mark.parametrize("field, value, message", [
        ("betas", (0.9, 1.0), "betas must be two reals in [0, 1), got (0.9, 1.0)"),
        ("lr", float("inf"), "learning rate must be finite, got inf"),
        ("kind", "adamw", "optimizer kind must be one of ('sgd', 'adam'), got 'adamw'"),
    ], ids=["beta2-one", "lr-inf", "kind-adamw"])
    def test_a_field_assigned_after_construction_is_refused_before_a_step(
            self, run, field, value, message):
        # betas=(0.9, 1.0) once raised a bare ZeroDivisionError after the
        # step was counted, and lr=inf gave infinite parameters
        state = make_optimizer("adam", 1e-2)
        setattr(state, field, value)
        if run == "optimizer_step":
            params = np.ones(3)
            call = lambda: optimizer_step(state, params, np.ones(3))
        else:
            task = small_task()
            layer = build_layer(CoLAConfig(in_dim=20, out_dim=24, rank=2, b_count=2),
                                InitSpec(GAUSSIAN_ZERO), make_rng(1), base_w0=task.w_base)
            params = layer.params
            call = lambda: train_loop(task, layer, state, 3, 4, make_rng(2))
        before = params.copy()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
        assert state.step == 0 and state.m is None
        assert np.array_equal(params, before)

    def test_numpy_and_integer_hyperparameters_are_accepted(self):
        state = OptimizerState(kind="adam", lr=np.float32(0.5), betas=(np.float64(0.5), 0),
                               eps=1)
        params = np.zeros(2)
        optimizer_step(state, params, np.array([1.0, -3.0]))
        assert np.array_equal(params, [-0.25, 0.375])

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_integer_params_are_named(self, kind):
        state = make_optimizer(kind, 0.1)
        with pytest.raises(ValueError, match="params of dtype int64 cannot take a float64 update"):
            optimizer_step(state, np.zeros(3, dtype=np.int64), np.ones(3))
        assert state.step == 0 and state.m is None

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_integer_gradients_update_as_their_float_values(self, kind):
        # Adam's moments are allocated like the float update, not like the gradient
        ints, floats = np.zeros(3), np.zeros(3)
        optimizer_step(make_optimizer(kind, 0.1), ints, np.array([1, 2, 3]))
        optimizer_step(make_optimizer(kind, 0.1), floats, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(ints, floats) and ints.any()


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

    def test_squared_error_grad_rejects_targets_of_another_shape(self):
        # (3, 1) targets would broadcast against every column of y
        with pytest.raises(ShapeError, match=re.escape("targets must have shape (3, 4), got (3, 1)")):
            squared_error_grad(np.ones((3, 4)), np.zeros((3, 1)))

    @pytest.mark.parametrize("logits_shape, labels", [
        ((4,), [1]),  # one sample as a vector
        ((4, 3), [0, 1]),  # fewer labels than columns
        ((4, 3), [0, 1, 2, 3]),  # more labels than columns
        ((4, 3), [[0], [1], [2]]),  # labels as a column
    ])
    def test_cross_entropy_grad_rejects_bad_shapes(self, logits_shape, labels):
        with pytest.raises(ShapeError, match="one label per column"):
            cross_entropy_grad(np.zeros(logits_shape), np.array(labels))

    @pytest.mark.parametrize("label", [-1, 4, 9, 1.0])
    def test_cross_entropy_grad_rejects_labels_outside_the_classes(self, label):
        with pytest.raises(ValueError, match=r"labels must be integers in \[0, 4\)"):
            cross_entropy_grad(np.zeros((4, 3)), np.array([0, label, 2]))

    @pytest.mark.parametrize("loss_grad", [squared_error_grad, cross_entropy_grad])
    def test_losses_leave_their_inputs_and_return_a_new_gradient(self, loss_grad):
        # both write their gradient through the step's in-place loss
        rng = make_rng(16)
        y = rng.normal(size=(4, 6))
        targets = (rng.normal(size=(4, 6)) if loss_grad is squared_error_grad
                   else rng.integers(0, 4, size=6))
        y_bytes, targets_bytes = y.tobytes(), targets.tobytes()
        _, grad = loss_grad(y, targets)
        _, again = loss_grad(y, targets)
        assert y.tobytes() == y_bytes and targets.tobytes() == targets_bytes
        assert grad.tobytes() == again.tobytes()
        for other in (y, targets, again):
            assert not np.shares_memory(grad, other)


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

    @pytest.mark.parametrize("init_kind", [GAUSSIAN_ZERO, PISSA])
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_step0_loss_is_the_squared_error_of_the_eval_forward(self, strategy, init_kind):
        # the dataset loss skips only the divide of a gradient it never reads
        task = small_task(noise=0.05)
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3, strategy=strategy)
        row, _ = run_single(task, cfg, init_kind, 42, steps=0)
        layer = build_layer(cfg, InitSpec(init_kind, source_w=task.pissa_source), make_rng(42),
                            base_w0=task.w_base)
        loss, _ = squared_error_grad(forward(layer, task.x_train, mode="eval"), task.y_train)
        assert row.step0_loss.hex() == loss.hex()

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

    def test_resampling_blocks_cost_at_most_one_training_set_of_memory(self):
        # the same bound for a run that resamples its pairing, which draws
        # blocks of steps and takes its samples as a fixed composition does
        task = make_recovery_task(RecoveryTaskSpec(
            n=128, m=128, base_seed=3, components=3, noise_std=0.05,
            train_samples=400, eval_samples=400), make_rng(3))
        cfg = CoLAConfig(in_dim=128, out_dim=128, rank=16, a_count=2, b_count=3,
                         strategy=Strategy.RANDOM_AB)
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
        # an eval forward of FULL (2, 3) allocates the run sums (one A and
        # one B of 128 x 16), out and base (128 x 400) and the hidden state
        # of its one term (16 x 400), and Python objects besides; a
        # workspace that allocated every buffer of a training step up front
        # would peak at ~1.43 MB. The first forward of a process also
        # allocates one-time objects, so an untraced one of the same shape
        # runs first and the second is traced.
        rng = make_rng(3)
        n, m, r, cols = 128, 128, 16, 400
        cfg = CoLAConfig(in_dim=m, out_dim=n, rank=r, a_count=2, b_count=3)
        layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(1),
                            base_w0=rng.normal(size=(n, m)))
        x = rng.normal(size=(m, cols))
        buffers = 8 * (r * m + n * r + 2 * n * cols + r * cols)
        forward(layer, x, mode="eval")
        tracemalloc.start()
        try:
            forward(layer, x, mode="eval")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # at most 4 KiB of Python objects: recorded calls, views, array headers
        assert peak <= buffers + 4096

    def test_backward_of_one_member_runs_allocates_one_gradient(self):
        # where every run is one member, backward returns its workspace's
        # gradient, laid out like params: beside the run sums, it allocates
        # only the workspace of RANDOM_AB (3, 3) at batch 4 (out, base, g, sq
        # and gs of n x 4; the hidden state, rev and the per-partner sums of
        # 3r x 4; the B run sums gathered into term order, n x 3r) and that
        # gradient, so a copy of one side (49152 bytes) would exceed the bound
        rng = make_rng(3)
        n, m, r, cols = 128, 128, 16, 4
        cfg = CoLAConfig(in_dim=m, out_dim=n, rank=r, a_count=3, b_count=3,
                         strategy=Strategy.RANDOM_AB)
        layer = random_layer(cfg)
        x, g = rng.normal(size=(m, cols)), rng.normal(size=(n, cols))
        buffers = 2 * layer.params.nbytes + 8 * (5 * n * cols + 3 * 3 * r * cols + n * 3 * r)
        backward(layer, x, g, layer.pairing)
        tracemalloc.start()
        try:
            grads = backward(layer, x, g, layer.pairing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # at most 8 KiB of Python objects: recorded calls, views, array
        # headers, the pairing and its 3 x 3 partner sum (about 4.3 KiB)
        assert peak <= buffers + 8192
        assert grads.flat.shape == layer.params.shape

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_calls_per_step(self, strategy):
        # the calls a train step replays, counted as tests/step_calls.py
        # counts them (a 3-step run minus a 0-step run): FULL's 22 under
        # Adam (10 of them the optimizer's) and 13 under SGD (1) for FULL
        # and HEURISTIC, and two more for a random composition, its gather
        # and its per-partner sum, at every (M, N) up to (4, 4)
        task = small_task()
        replay, counted = training._replay, [0]
        extra = 0 if strategy in (Strategy.FULL, Strategy.HEURISTIC) else 2

        def counting(calls):
            counted[0] += len(calls)
            replay(calls)
        for a_count, b_count in itertools.product(range(1, 5), repeat=2):
            if strategy is Strategy.HEURISTIC and a_count > b_count:
                continue
            cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=a_count,
                             b_count=b_count, strategy=strategy)
            for kind, calls in (("adam", 22), ("sgd", 13)):
                totals = []
                for steps in (3, 0):
                    layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(1),
                                        base_w0=task.w_base)
                    counted[0] = 0
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(training, "_replay", counting)
                        train_loop(task, layer, make_optimizer(kind, 1e-2), steps=steps,
                                   batch=8, rng=make_rng(2))
                    totals.append(counted[0])
                assert (totals[0] - totals[1]) / 3 == calls + extra, (kind, a_count, b_count)

    def test_a_zero_step_run_builds_no_sample_tables(self, monkeypatch):
        # at the wide cell shape the W0 x table is n x 416 (400 samples in
        # batches of 32); a 1-step run builds it beside the sample rows, a
        # 0-step run builds neither. The two dataset losses peak above the
        # tables, so they are stubbed out and the peaks are the run's own.
        task = make_recovery_task(RecoveryTaskSpec(
            n=128, m=128, base_seed=3, components=3, noise_std=0.05,
            train_samples=400, eval_samples=400), make_rng(3))
        cfg = CoLAConfig(in_dim=128, out_dim=128, rank=16, a_count=2, b_count=3)
        monkeypatch.setattr(training, "_dataset_loss", lambda layer, task: 0.0)
        peaks = []
        for steps in (0, 0, 1):  # the first run allocates one-time objects
            layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(1),
                                base_w0=task.w_base)
            tracemalloc.start()
            try:
                train_loop(task, layer, make_optimizer("adam", 1e-2), steps=steps, batch=32,
                           rng=make_rng(2))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] + 8 * 128 * 416 < peaks[2]

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_zero_step_run_peaks_as_one_eval_forward(self, strategy):
        # a 0-step run is its two dataset losses, each an eval forward over
        # the training set whose loss overwrites the output; it builds none
        # of the steps' buffers (workspace, recorded calls, lr vector, Adam
        # moments), which at the wide cell shape raised its peak 0.5-1 MB
        # above the forward's 0.9 MB
        task = make_recovery_task(RecoveryTaskSpec(
            n=128, m=128, base_seed=3, components=3, noise_std=0.05,
            train_samples=400, eval_samples=400), make_rng(3))
        cfg = CoLAConfig(in_dim=128, out_dim=128, rank=16, a_count=2, b_count=3,
                         strategy=strategy)
        peaks, state = [], make_optimizer("adam", 1e-2)
        for run in (False, False, True, True):  # each first call allocates one-time objects
            layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(1),
                                base_w0=task.w_base)
            tracemalloc.start()
            try:
                if run:
                    train_loop(task, layer, state, steps=0, batch=32, rng=make_rng(2))
                else:
                    forward(layer, task.x_train, mode="eval")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # at most 4 KiB of Python objects (about 1.5 KiB): the report, the
        # loss's recorded calls
        assert peaks[3] <= peaks[1] + 4096
        assert state.m is None

    @pytest.mark.parametrize("strategy, bad, message", [
        (Strategy.RANDOM_AB, (3, 0), "pairing entry out of range [0, 3)"),
        (Strategy.RANDOM_AB, (0, -1), "pairing entry out of range [0, 3)"),
        (Strategy.RANDOM_AB, (0, 1, 2), "pairing length 3 != 2"),
        (Strategy.RANDOM_BA, (0, 2, 1), "pairing entry out of range [0, 2)"),
        (Strategy.RANDOM_BA, (-1, 0, 1), "pairing entry out of range [0, 2)"),
        (Strategy.RANDOM_BA, (0, 1), "pairing length 2 != 3"),
    ], ids=["ab-pool-size", "ab-negative", "ab-length", "ba-pool-size", "ba-negative",
            "ba-length"])
    def test_a_pairing_out_of_range_or_length_is_refused_everywhere(self, strategy, bad,
                                                                     message):
        # an entry equal to the pool size would otherwise gather member 0
        # (the gather wraps) and a negative one the last member; train_loop
        # checks the pairing it keeps, a frozen one
        task = small_task()
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=strategy)
        layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO, std=0.3), make_rng(1),
                            base_w0=task.w_base)
        before, x = layer.params.copy(), task.x_train[:, :4]
        calls = [lambda: forward(layer, x, mode="train", pairing=Pairing(bad)),
                 lambda: backward(layer, x, np.ones((24, 4)), Pairing(bad)),
                 lambda: delta_weight(layer, Pairing(bad)),
                 lambda: train_loop(task, dataclasses.replace(
                     layer, pairing=Pairing(bad, frozen=True)), make_optimizer("adam", 1e-2),
                     steps=2, batch=4, rng=make_rng(2))]
        for call in calls:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                call()
        assert np.array_equal(layer.params, before)

    def test_frozen_pairing_is_honored(self):
        task = small_task()
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=Strategy.RANDOM_AB)
        layer = build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(42),
                            base_w0=task.w_base)
        layer = dataclasses.replace(layer, pairing=Pairing(map=(1, 1), frozen=True))
        opt = make_optimizer("adam", 1e-2)
        report = train_loop(task, layer, opt, steps=40, batch=8, rng=make_rng(42))
        # up members 0 and 2 were never selected, so they never moved from 0
        assert np.all(layer.b_list[0] == 0.0)
        assert np.all(layer.b_list[2] == 0.0)
        assert np.any(layer.b_list[1] != 0.0)
        # the dataset losses compose the frozen pairing, not the mean pairing
        loss, _ = squared_error_grad(forward(layer, task.x_train, mode="train"), task.y_train)
        assert report.final_loss.hex() == loss.hex()


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


def rel_err(got, want):
    """Worst difference relative to the largest entry of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want).max() / np.abs(want).max()


class TestFusedStep:
    """``train_loop`` fuses each step. Its references make the same rng draws
    through the public forward, backward and optimizer_step: where every
    class of pool members has one member, a hand loop over ``params``, which
    it must match bit for bit; else the class-sum hand loop of
    ``class_sums.py``, which it must match bit for bit, and the hand loop,
    which rounds its sums differently, to 1e-12."""

    STRATEGIES = [
        (Strategy.FULL, False), (Strategy.HEURISTIC, False),
        (Strategy.RANDOM_AB, False), (Strategy.RANDOM_AB, True),
        (Strategy.RANDOM_BA, False), (Strategy.RANDOM_BA, True),
    ]

    @staticmethod
    def hand_loop(task, layer, kind, steps, batch, rng, lr=1e-2, state=None):
        """One rng draw of batch indices per step, then the pairing draw;
        ``state`` (None makes one) is the optimizer of ``params``."""
        state = make_optimizer(kind, lr) if state is None else state
        random = layer.config.strategy in (Strategy.RANDOM_AB, Strategy.RANDOM_BA)
        losses = []
        for _ in range(steps):
            idx = rng.integers(0, task.x_train.shape[1], size=batch)
            xb = task.x_train[:, idx]
            pairing = None
            if random:
                pairing = layer.pairing if layer.pairing.frozen else sample_pairing(
                    layer.config, rng)
            y = forward(layer, xb, mode="train", pairing=pairing)
            if task.kind == "recovery":
                loss, g = squared_error_grad(y, task.y_train[:, idx])
            else:
                loss, g = cross_entropy_grad(y, task.y_train[idx])
            optimizer_step(state, layer.params, backward(layer, xb, g, pairing).flat)
            losses.append(loss)
        return losses

    @staticmethod
    def singleton_classes(layer):
        """Whether every class of ``layer``'s pool members has one member."""
        if layer.pairing is not None and not layer.pairing.frozen:
            return True  # a resampling run keeps one class per member
        adapter, _, _ = class_sum_adapter(layer)
        return adapter.params.size == layer.params.size

    def check_against_hand_loop(self, task, cfg, frozen, kind, batch, steps=30, lr=1e-2):
        fused, hand, sums = (build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(5),
                                         base_w0=task.w_base) for _ in range(3))
        if frozen:
            fused, hand, sums = (dataclasses.replace(layer, pairing=dataclasses.replace(
                layer.pairing, frozen=True)) for layer in (fused, hand, sums))
        report = train_loop(task, fused, make_optimizer(kind, lr), steps=steps,
                            batch=batch, rng=make_rng(9))
        losses = self.hand_loop(task, hand, kind, steps, batch, make_rng(9), lr)
        if self.singleton_classes(fused):
            assert report.losses == losses
            assert fused.params.tobytes() == hand.params.tobytes()
        else:
            class_losses, _, _ = class_sum_run(task, sums, kind, lr, steps, batch, make_rng(9))
            assert report.losses == class_losses
            assert fused.params.tobytes() == sums.params.tobytes()
            assert rel_err(report.losses, losses) <= 1e-12
            assert rel_err(fused.params, hand.params) <= 1e-12
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
    # RANDOM_BA pairing one choice, which train_loop and the hand loop both
    # draw at every step (a draw that consumes no rng state), and a RANDOM_AB
    # pairing three
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
            monkeypatch.setattr("cola_forge.adapter.sample_pairing", lambda config, rng:
                                Pairing([1] * (config.a_count if config.strategy
                                               is Strategy.RANDOM_AB else config.b_count)))
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

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    @pytest.mark.parametrize("strategy, frozen", [
        (Strategy.FULL, False), (Strategy.RANDOM_AB, False), (Strategy.RANDOM_AB, True)],
        ids=["full", "random_ab", "random_ab-frozen"])
    def test_resumed_run_matches_one_hand_loop(self, strategy, frozen, kind):
        # a second train_loop on the same layer, optimizer state and rng
        # continues the first, mid block of draws: FULL (2, 3) carries the
        # moments of its run sums over and sums its written members again, as
        # two class-sum runs do; RANDOM_AB (2, 3), resampling or frozen at
        # (1, 1), has one run per member, so its moments are laid out like
        # the members, B_0 and B_2 (in no frozen term) included
        task = small_task(noise=0.05)
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=strategy)
        fused, hand, sums = (build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(5),
                                         base_w0=task.w_base) for _ in range(3))
        if frozen:
            fused, hand = (dataclasses.replace(layer, pairing=Pairing((1, 1), frozen=True))
                           for layer in (fused, hand))
        state, rng = make_optimizer(kind, 1e-2), make_rng(9)
        losses = [loss for steps in (17, 13) for loss in
                  train_loop(task, fused, state, steps=steps, batch=8, rng=rng).losses]
        assert state.step == 30
        hand_losses = self.hand_loop(task, hand, kind, 30, 8, make_rng(9))
        if strategy is Strategy.RANDOM_AB:
            assert state.m is None or state.m.shape == fused.params.shape
            assert losses == hand_losses
            assert fused.params.tobytes() == hand.params.tobytes()
            return
        first, _, states = class_sum_run(task, sums, kind, 1e-2, 17, 8, rng := make_rng(9))
        second, _, _ = class_sum_run(task, sums, kind, 1e-2, 13, 8, rng, states)
        assert losses == first + second
        assert fused.params.tobytes() == sums.params.tobytes()
        assert rel_err(losses, hand_losses) <= 1e-12
        assert rel_err(fused.params, hand.params) <= 1e-12

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

    @pytest.mark.parametrize("pairing_high", [1, 2, 3, 7])
    @pytest.mark.parametrize("index_high", [1, 400, 2 ** 32, 2 ** 32 + 1])
    def test_block_draw_with_bounds_equals_per_step_draws(self, index_high, pairing_high):
        # a run that resamples its pairing draws, per step, the batch indices
        # and then the pairing; train_loop draws a block of such steps in one
        # call with per-element bounds (a run with no pairing to draw, length 0)
        for seed in range(12):
            for batch in (1, 8):
                for length in (0, 1, 4):
                    for steps in (1, 7):
                        block, single = make_rng(seed), make_rng(seed)
                        highs = [index_high] * batch + [pairing_high] * length
                        drawn = block.integers(0, np.tile(highs, steps)).reshape(steps, -1)
                        for row in drawn:
                            assert np.array_equal(row[:batch], single.integers(
                                0, index_high, size=batch))
                            assert np.array_equal(row[batch:], single.integers(
                                0, pairing_high, size=length))
                        assert block.bit_generator.state == single.bit_generator.state

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

    @pytest.mark.parametrize("n, m, batch, size", [
        (32, 32, 8, 50), (32, 32, 8, 100), (32, 32, 8, 400), (128, 128, 32, 400),
        (24, 20, 1, 60), (24, 20, 64, 40), (24, 20, 8, 61), (1, 20, 8, 200),
    ], ids=["32-50", "32-100", "32-400", "wide", "batch-1", "batch-above-size",
            "ragged-last-chunk", "out-dim-1"])
    def test_chunked_base_table_equals_the_step_product(self, n, m, batch, size):
        # train_loop multiplies W0 into its training set once, one batch-sized
        # product per chunk of samples, and a step takes its W0 x columns from
        # that table: each must equal, bit for bit, the column that the step's
        # own product np.dot(w0, x_rows.T, out) gives it among other samples
        rng = make_rng(n + m + batch + size)
        w0, x_train = rng.normal(size=(n, m)), rng.normal(size=(m, size))
        rows, table = _sample_tables(w0, x_train, batch)
        assert rows[:size].tobytes() == np.ascontiguousarray(x_train.T).tobytes()
        assert not rows[size:].any()
        x_rows, out = np.empty((batch, m)), np.empty((n, batch))
        for _ in range(50):
            idx = rng.integers(0, size, size=batch)
            rows.take(idx, 0, x_rows)
            np.dot(w0, x_rows.T, out)
            assert out.tobytes() == table[:, idx].tobytes()

    @pytest.mark.parametrize("count, rows, cols", [
        (1, 24, 8), (2, 24, 8), (3, 32, 8), (8, 1, 1), (9, 1, 1), (16, 1, 1),
        (3, 128, 32), (4, 16, None),
    ])
    def test_pool_sum_adds_left_to_right(self, count, rows, cols):
        # a run sum adds its members one at a time in index order and must
        # round as a plain loop (numpy's reductions sum pairwise over 8 or
        # more one-element slices); B members are rows x cols and A members
        # cols x rows, one column or row where cols is None
        rank = cols or 1
        cfg = CoLAConfig(in_dim=rows, out_dim=rows, rank=rank, a_count=count + 2,
                         b_count=count + 2, alpha=1.0)
        runs = ([(0, 1), (1, count + 1), (count + 1, count + 2)], [(1, count + 1)])
        for seed in range(10):
            rng = make_rng(seed)
            layer = make_layer(np.zeros((rows, rows)), [np.zeros((rank, rows))] * (count + 2),
                               [np.zeros((rows, rank))] * (count + 2), cfg)
            size = layer.params.size
            layer.params[:] = rng.normal(size=size) * 10.0 ** rng.integers(-6, 6, size=size)
            sums = _run_sums(layer, runs)
            assert not np.shares_memory(sums.params, layer.params)
            for pool, run_sums, side in ((layer.a_list, sums.a_list, runs[0]),
                                         (layer.b_list, sums.b_list, runs[1])):
                assert len(run_sums) == len(side)
                for run_sum, (lo, hi) in zip(run_sums, side):
                    plain_sum = pool[lo]
                    for k in range(lo + 1, hi):
                        plain_sum = plain_sum + pool[k]
                    assert run_sum.tobytes() == plain_sum.tobytes()

    # each product of a train step as (rows, inner, cols) of n, m, r and the
    # batch, and the layout of its operands: C-contiguous, or F, the
    # transpose of one member of a C stack (a step reads its batch as the
    # transpose of the C buffer it takes its rows into)
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
        before = layer.params.copy()
        layer.a_list[1] = 0.0
        layer.b_list[2] = 0.0
        # every entry of the two members, and no other, changed in params
        written = layer.params != before
        assert written.sum() == 4 * 20 + 24 * 4 and not layer.params[written].any()
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
        # both members still train, each on its own slice of params; FULL
        # (2, 3) gives the two members of a class one move, to rounding
        assert not np.shares_memory(stack[0], stack[1])
        assert not np.array_equal(stack[0], before[0])
        assert not np.array_equal(stack[1], before[1])
        np.testing.assert_allclose(stack[1] - before[1], stack[0] - before[0],
                                   rtol=1e-12, atol=1e-15)

    def test_adam_state_is_tied_to_its_parameters(self):
        state = make_optimizer("adam", 1e-2)
        optimizer_step(state, np.zeros(3), np.ones(3))
        with pytest.raises(ShapeError, match="other parameters"):
            optimizer_step(state, np.zeros(4), np.ones(4))

    def test_adam_state_of_the_members_does_not_fit_their_class_sums(self):
        # FULL (2, 3) trains one A and one B class sum, so a state allocated
        # for the five members is refused before anything is written
        task = small_task()
        layer = random_layer(CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3))
        state = make_optimizer("adam", 1e-2)
        optimizer_step(state, layer.params.copy(), np.ones_like(layer.params))
        before = layer.params.tobytes()
        with pytest.raises(ShapeError, match="other parameters"):
            train_loop(task, layer, state, steps=5, batch=8, rng=make_rng(9))
        assert layer.params.tobytes() == before

    @pytest.mark.parametrize("a_count, b_count", [(2, 3), (1, 3)])
    @pytest.mark.parametrize("strategy", [Strategy.RANDOM_AB, Strategy.RANDOM_BA])
    def test_an_adam_state_of_the_members_trains_as_the_hand_loop(self, strategy, a_count,
                                                                  b_count):
        # a random composition has one run per member, so its run sums are
        # laid out like the layer's params, and a state that optimizer_step
        # allocated over them continues in the run as in the hand loop
        task = small_task(noise=0.05)
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=a_count, b_count=b_count,
                         strategy=strategy)
        fused, hand = (build_layer(cfg, InitSpec(GAUSSIAN_ZERO), make_rng(5),
                                   base_w0=task.w_base) for _ in range(2))
        warm = make_rng(4).normal(size=fused.params.shape)  # moments unlike per member
        states = [make_optimizer("adam", 1e-2) for _ in range(2)]
        for state in states:
            optimizer_step(state, np.zeros_like(warm), warm)
        report = train_loop(task, fused, states[0], steps=20, batch=8, rng=make_rng(9))
        losses = self.hand_loop(task, hand, "adam", 20, 8, make_rng(9), state=states[1])
        assert report.losses == losses
        assert fused.params.tobytes() == hand.params.tobytes()
        assert states[0].m.tobytes() == states[1].m.tobytes()
        assert states[0].v.tobytes() == states[1].v.tobytes()

    def test_the_write_back_is_exact(self):
        # a frozen RANDOM_AB (2, 3) pairing (1, 1) under PiSSA: every run is
        # one member and becomes its trained sum, as the class-sum reference
        # trains A_0, A_1 and B_1; B_0 and B_2, which no term uses, get a zero
        # gradient at every step, so they keep their nonzero PiSSA values bit
        # for bit, as the class of both does in the reference
        task = small_task(noise=0.05)
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=Strategy.RANDOM_AB)
        layer = dataclasses.replace(
            build_layer(cfg, InitSpec(PISSA, source_w=task.pissa_source), make_rng(5)),
            pairing=Pairing((1, 1), frozen=True))
        before = layer.b_list.copy()
        adapter, a_class, b_class = class_sum_adapter(layer)
        assert (a_class, b_class) == ([0, 1], [0, 1, 0])
        train_loop(task, layer, make_optimizer("adam", 1e-2), steps=30, batch=8,
                   rng=make_rng(9))
        class_sum_loop(task, adapter, [make_optimizer("adam", 1e-2 * size)
                                       for size in (1, 1, 2, 1)], 30, 8, make_rng(9))
        for member, trained in ((layer.a_list[0], adapter.a_list[0]),
                                (layer.a_list[1], adapter.a_list[1]),
                                (layer.b_list[1], adapter.b_list[1])):
            assert member.tobytes() == trained.tobytes()
        assert not np.array_equal(layer.b_list[1], before[1])
        assert layer.b_list[0].tobytes() == before[0].tobytes() and before[0].any()
        assert layer.b_list[2].tobytes() == before[2].tobytes() and before[2].any()

    @staticmethod
    def spy_on_fills(monkeypatch) -> list:
        """The gradients whose zero-fill train_loop replays; each is poisoned
        with NaN before the replay that should zero it."""
        grads = []

        def poisoning(calls):
            for function, _ in calls:
                if getattr(function, "__name__", None) == "fill":
                    function.__self__.fill(np.nan)
                    grads.append(function.__self__)
            _replay(calls)
        monkeypatch.setattr(training, "_replay", poisoning)
        return grads

    @pytest.mark.parametrize("strategy, a_count, b_count", [
        (Strategy.FULL, 2, 3), (Strategy.HEURISTIC, 2, 4),
        (Strategy.RANDOM_AB, 1, 1), (Strategy.RANDOM_BA, 1, 1)])
    def test_every_slot_is_written_straight_where_no_fill_runs(self, strategy, a_count,
                                                               b_count, monkeypatch):
        # each side's gradient is one product over the run sums of the
        # class-sum composition, written straight into its slots: a slot left
        # over from the last step (here NaN) is overwritten, and train_loop
        # records no zero-fill
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=a_count, b_count=b_count,
                         strategy=strategy)
        layer = random_layer(cfg, seed=5)
        sums, _, _ = class_sum_adapter(layer)
        runs, pairing_map, scale = _composition(sums.config, _check_pairing(
            sums.config, sums.pairing))
        rng = make_rng(6)
        x, g = rng.normal(size=(20, 8)), rng.normal(size=(24, 8))
        run_sums = _run_sums(sums, runs)
        ws, grad = _Workspace(run_sums, pairing_map, (8,)), np.full_like(run_sums.params, np.nan)
        _replay(_apply(ws, x, scale) + _backward(ws, x, g, scale, grad))
        assert not np.isnan(grad).any()
        # one member a run: the run sums' gradient is laid out like params
        assert grad.tobytes() == backward(sums, x, g, sums.pairing).flat.tobytes()
        fills = self.spy_on_fills(monkeypatch)
        train_loop(small_task(), layer, make_optimizer("adam", 1e-2), steps=5, batch=8,
                   rng=make_rng(9))
        assert not fills and np.isfinite(layer.params).all()

    def test_a_partner_in_no_term_gets_a_zero_gradient_without_a_fill(self, monkeypatch):
        # a frozen RANDOM_AB (2, 3) pairing (1, 1): B_1's gradient sums the
        # products of two terms, and no term uses B_0 or B_2, whose per-partner
        # sums are exact zeros; so the B product writes every slot, no step
        # zero-fills the gradient, and under SGD B_0's slot holds lr * 0
        cfg = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3,
                         strategy=Strategy.RANDOM_AB)
        layer = dataclasses.replace(random_layer(cfg, seed=5),
                                    pairing=Pairing((1, 1), frozen=True))
        before = layer.b_list.copy()
        fills = self.spy_on_fills(monkeypatch)
        grads = []
        recorder = training._backward
        monkeypatch.setattr(training, "_backward", lambda *args: grads.append(args[-1])
                            or recorder(*args))
        train_loop(small_task(), layer, make_optimizer("sgd", 1e-2), steps=5, batch=8,
                   rng=make_rng(9))
        assert not fills
        # the run sums are the members, B_0 the first of the B side's blocks
        unused = _run_views(grads[0], cfg)[3][0]
        assert unused.tobytes() == np.zeros_like(unused).tobytes()
        assert np.isfinite(layer.params).all()
        assert layer.b_list[0].tobytes() == before[0].tobytes()
        assert not np.array_equal(layer.b_list[1], before[1])


class TestDivergence:
    DIVERGENT = CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3)

    @pytest.mark.parametrize("steps, written", [(50, False), (5, True)],
                             ids=["minibatch", "final"])
    def test_members_are_written_only_after_the_last_step(self, steps, written):
        # a run stopped at a minibatch loss leaves the members as they were;
        # one whose final loss is not finite has written them
        task, rng = small_task(), make_rng(42)  # the runs of the two tests above
        layer = build_layer(self.DIVERGENT, InitSpec(GAUSSIAN_ZERO), rng, base_w0=task.w_base)
        before = layer.params.tobytes()
        with pytest.raises(DivergenceError, match="final" if written else "minibatch"):
            train_loop(task, layer, make_optimizer("sgd", 50.0), steps=steps, batch=8, rng=rng)
        assert (layer.params.tobytes() != before) == written

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


NAN = float("nan")


@pytest.mark.parametrize("make, message", [
    (lambda: make_optimizer("adam", NAN), "learning rate must be positive"),
    (lambda: CoLAConfig(in_dim=4, out_dim=4, rank=2, alpha=NAN), "alpha must be positive"),
    (lambda: RecoveryTaskSpec(n=4, m=4, base_seed=1, noise_std=NAN),
     "noise_std must be a finite real in [0, inf], got nan"),
    (lambda: RecoveryTaskSpec(n=4, m=4, base_seed=1, source_noise_std=NAN),
     "source_noise_std must be a finite real in [0, inf], got nan"),
    (lambda: InitSpec(GAUSSIAN_ZERO, std=NAN), "gaussian init std must be positive"),
    (lambda: gaussian_matrix(2, 2, NAN, make_rng(0)), "std must be positive"),
    (lambda: finite_diff_check(random_layer(lora_preset(4, 4, 2)), np.ones(4), np.ones(4),
                               eps=NAN), "eps must be positive"),
], ids=["lr", "alpha", "noise_std", "source_noise_std", "init-std", "gaussian_matrix-std",
        "eps"])
def test_value_checks_reject_nan(make, message):
    # NaN fails every comparison, so each check is stated as "not x > 0"
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("make, name", [
    (lambda layer: make_layer(layer.w0 + 1j, list(layer.a_list), list(layer.b_list),
                              layer.config), "w0"),
    (lambda layer: make_layer(layer.w0, [layer.a_list[0], layer.a_list[1] + 0j],
                              list(layer.b_list), layer.config), "a_list and b_list"),
    (lambda layer: forward(layer, np.ones(20, complex)), "x"),
    (lambda layer: backward(layer, np.ones((20, 2), complex), np.ones((24, 2))), "x"),
    (lambda layer: backward(layer, np.ones(20), np.ones(24, complex)), "g_out"),
    (lambda layer: svd(layer.w0 + 1j), "w"),
    (lambda layer: build_layer(layer.config, InitSpec(GAUSSIAN_ZERO), make_rng(0),
                               base_w0=layer.w0 + 1j), "w0"),
    (lambda layer: build_layer(layer.config, InitSpec(PISSA, source_w=layer.w0 + 1j),
                               make_rng(0)), "w"),
], ids=["make_layer-w0", "make_layer-pools", "forward-x", "backward-x", "backward-g_out",
        "svd", "gaussian_zero-w0", "pissa-w"])
def test_complex_input_is_refused_by_name(make, name):
    # a cast to float64 would drop the imaginary part with only a warning,
    # even where it is exactly zero
    layer = random_layer(CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3))
    with pytest.raises(ValueError, match=f"^{name} must be real, got complex entries$"):
        make(layer)


def with_entry(matrix, value):
    """A copy of ``matrix`` whose entry (0, 1) is ``value``."""
    out = np.array(matrix)
    out[0, 1] = value
    return out


@pytest.mark.parametrize("make, name", [
    (lambda layer: make_layer(with_entry(layer.w0, NAN), list(layer.a_list),
                              list(layer.b_list), layer.config), "w0"),
    (lambda layer: make_layer(layer.w0, [layer.a_list[0], with_entry(layer.a_list[1], NAN)],
                              list(layer.b_list), layer.config), "a_list and b_list"),
    (lambda layer: make_layer(layer.w0, list(layer.a_list),
                              [*layer.b_list[:2], with_entry(layer.b_list[2], -np.inf)],
                              layer.config), "a_list and b_list"),
    (lambda layer: svd(with_entry(layer.w0, np.inf)), "w"),
    (lambda layer: build_layer(layer.config, InitSpec(GAUSSIAN_ZERO), make_rng(0),
                               base_w0=with_entry(layer.w0, NAN)), "w0"),
    (lambda layer: build_layer(layer.config, InitSpec(PISSA, source_w=with_entry(
        layer.w0, NAN)), make_rng(0)), "w"),
], ids=["make_layer-w0", "make_layer-a-pool", "make_layer-b-pool", "svd", "gaussian_zero-w0",
        "pissa-w"])
def test_non_finite_input_is_refused_by_name(make, name):
    layer = random_layer(CoLAConfig(in_dim=20, out_dim=24, rank=4, a_count=2, b_count=3))
    with pytest.raises(ValueError, match=f"^{name} contains NaN or Inf entries$"):
        make(layer)
