import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cola_forge.linalg import (
    ConvergenceError,
    _fix_signs,
    derive_seed,
    frobenius_norm,
    gaussian_matrix,
    make_rng,
    svd,
)
from jacobi_oracle import jacobi_svd

# Exactly rank 1; the relative-only Jacobi rotation test never settled on it.
RANK_ONE_40X30 = np.outer(np.arange(1.0, 41.0), np.arange(1.0, 31.0))


def fix_signs_loop(u, v):
    """The per-column sign fix that ``_fix_signs`` vectorizes, kept as its oracle."""
    for col in range(u.shape[1]):
        pivot = np.argmax(np.abs(u[:, col]))
        if u[pivot, col] < 0.0:
            u[:, col] = -u[:, col]
            v[:, col] = -v[:, col]


def assert_sign_convention(fac):
    for col in range(fac.u.shape[1]):
        pivot = np.argmax(np.abs(fac.u[:, col]))
        assert fac.u[pivot, col] > 0.0


def rank_r_product(fac, r):
    return (fac.u[:, :r] * fac.s[:r]) @ fac.v[:, :r].T


def assert_matches_oracle(w):
    """Values to 1e-12 s[0], sign convention on both sides, and every rank-r
    product to 1e-10 relative. Raw factors are not compared: singular vectors
    are only determined to about eps * ||w|| / gap."""
    fac, ref = svd(w), jacobi_svd(w)
    assert np.abs(fac.s - ref.s).max() <= 1e-12 * ref.s[0]
    assert_sign_convention(fac)
    assert_sign_convention(ref)
    scale = frobenius_norm(w)
    for r in range(1, len(ref.s) + 1):
        diff = frobenius_norm(rank_r_product(fac, r) - rank_r_product(ref, r))
        assert diff <= 1e-10 * scale, r


class TestSvd:
    def test_diagonal(self):
        fac = svd(np.diag([3.0, 1.0]))
        assert np.allclose(fac.s, [3.0, 1.0], atol=0.0)

    def test_identity(self):
        fac = svd(np.eye(4))
        assert np.array_equal(fac.s, np.ones(4))

    def test_reconstruction_rel_frobenius(self):
        w = make_rng(42).normal(size=(5, 3))
        fac = svd(w)
        err = frobenius_norm(fac.reconstruct() - w) / frobenius_norm(w)
        assert err <= 1e-10

    @pytest.mark.parametrize("shape", [(5, 3), (3, 5), (16, 16), (64, 48), (1, 1)])
    def test_factor_invariants(self, shape):
        w = make_rng(42).normal(size=shape)
        fac = svd(w)
        k = min(shape)
        assert fac.u.shape == (shape[0], k)
        assert fac.v.shape == (shape[1], k)
        assert np.all(np.diff(fac.s) <= 0.0)
        assert np.all(fac.s >= 0.0)
        assert frobenius_norm(fac.u.T @ fac.u - np.eye(k)) <= 1e-10
        assert frobenius_norm(fac.v.T @ fac.v - np.eye(k)) <= 1e-10

    def test_unitary_invariance_of_norm(self):
        for seed in (1, 2, 3):
            w = make_rng(seed).normal(size=(12, 9))
            s = svd(w).s
            norm2 = frobenius_norm(w) ** 2
            assert abs(norm2 - np.sum(s**2)) <= 1e-8 * norm2

    def test_idempotent_under_reconstruction(self):
        w = make_rng(5).normal(size=(10, 7))
        fac = svd(w)
        again = svd(fac.reconstruct())
        assert np.all(np.abs(again.s - fac.s) <= 1e-9)

    def test_deterministic(self):
        w = make_rng(9).normal(size=(20, 14))
        a, b = svd(w), svd(w)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.v, b.v)

    def test_rank_deficient(self):
        w = np.outer(np.arange(1.0, 6.0), np.arange(1.0, 4.0))
        fac = svd(w)
        assert fac.s[0] > 0.0
        assert np.all(fac.s[1:] == 0.0)
        assert frobenius_norm(fac.reconstruct() - w) <= 1e-12 * frobenius_norm(w)
        k = min(w.shape)
        assert frobenius_norm(fac.u.T @ fac.u - np.eye(k)) <= 1e-10

    def test_zero_matrix(self):
        fac = svd(np.zeros((4, 3)))
        assert np.all(fac.s == 0.0)
        assert frobenius_norm(fac.u.T @ fac.u - np.eye(3)) <= 1e-12

    def test_matches_lapack_singular_values(self):
        w = make_rng(11).normal(size=(40, 25))
        assert np.abs(svd(w).s - np.linalg.svd(w, compute_uv=False)).max() <= 1e-12

    def test_sign_convention(self):
        assert_sign_convention(svd(make_rng(13).normal(size=(8, 6))))

    def test_lapack_failure_raises_convergence_error(self, monkeypatch):
        def failing_svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing_svd)
        with pytest.raises(ConvergenceError, match="6x4"):
            svd(np.ones((6, 4)))

    def test_rank_one_outer_product(self):
        fac = svd(RANK_ONE_40X30)
        assert fac.s[0] > 0.0
        assert np.all(fac.s[1:] == 0.0)
        scale = frobenius_norm(RANK_ONE_40X30)
        assert frobenius_norm(fac.reconstruct() - RANK_ONE_40X30) <= 1e-12 * scale
        assert frobenius_norm(fac.u.T @ fac.u - np.eye(30)) <= 1e-10
        assert frobenius_norm(fac.v.T @ fac.v - np.eye(30)) <= 1e-10

    def test_rejects_nonfinite(self):
        w = np.ones((2, 2))
        w[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            svd(w)


class TestJacobiOracle:
    def test_rank_one_outer_product(self):
        for w in (RANK_ONE_40X30, RANK_ONE_40X30.T):
            ref = jacobi_svd(w)
            assert np.all(ref.s[1:] == 0.0)
            assert frobenius_norm(ref.reconstruct() - w) <= 1e-12 * frobenius_norm(w)

    def test_nonconvergence_raises(self):
        w = make_rng(3).normal(size=(6, 6))
        with pytest.raises(ConvergenceError, match="sweeps"):
            jacobi_svd(w, max_sweeps=0)


class TestSvdAgainstOracle:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (16, 16), (40, 25),
                                       (64, 48), (128, 128)])
    def test_random(self, shape):
        assert_matches_oracle(make_rng(17).normal(size=shape))

    def test_rank_one(self):
        assert_matches_oracle(RANK_ONE_40X30)

    def test_zero(self):
        assert_matches_oracle(np.zeros((6, 4)))


@st.composite
def planted_rank_matrices(draw):
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    rank = draw(st.integers(0, min(n, m)))
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(planted_rank_matrices())
def test_svd_properties(w):
    fac = svd(w)
    k = min(w.shape)
    scale = frobenius_norm(w)
    assert frobenius_norm(fac.reconstruct() - w) <= 1e-10 * scale
    assert frobenius_norm(fac.u.T @ fac.u - np.eye(k)) <= 1e-10
    assert frobenius_norm(fac.v.T @ fac.v - np.eye(k)) <= 1e-10
    assert np.all(np.diff(fac.s) <= 0.0)
    assert np.all(fac.s >= 0.0)
    ref = jacobi_svd(w)
    assert np.abs(fac.s - ref.s).max() <= 1e-12 * ref.s[0]


class TestFrobeniusNorm:
    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_zero(self):
        assert frobenius_norm(np.zeros((2, 2))) == 0.0

    def test_scalar_loop_oracle(self):
        w = make_rng(43).normal(size=(6, 6))
        total = 0.0
        for i in range(6):
            for j in range(6):
                total += w[i, j] * w[i, j]
        assert abs(frobenius_norm(w) - np.sqrt(total)) <= 1e-12


class TestGaussianMatrix:
    def test_same_seed_bit_identical(self):
        a = gaussian_matrix(5, 6, 0.3, make_rng(42))
        b = gaussian_matrix(5, 6, 0.3, make_rng(42))
        assert np.array_equal(a, b)

    def test_shape(self):
        assert gaussian_matrix(4, 7, 1.0, make_rng(0)).shape == (4, 7)

    def test_moments_large_sample(self):
        # 1e5 draws: 5-sigma bounds on mean (sigma/sqrt(n) ~ 0.0032) and std
        draws = gaussian_matrix(100, 1000, 1.0, make_rng(4))
        assert abs(draws.mean()) <= 0.02
        assert abs(draws.std() - 1.0) <= 0.02

    def test_rejects_bad_std(self):
        with pytest.raises(ValueError, match="std"):
            gaussian_matrix(2, 2, 0.0, make_rng(0))
        with pytest.raises(ValueError, match="std"):
            gaussian_matrix(2, 2, -1.0, make_rng(0))


def test_a_negative_seed_is_named():
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        make_rng(-1)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)

    def test_distinct_per_coordinate(self):
        seen = {derive_seed(42, m, n) for m in range(5) for n in range(5)}
        assert len(seen) == 25

    def test_distinct_per_base_seed(self):
        assert derive_seed(42, 1, 1) != derive_seed(43, 1, 1)

    def test_negative_seeds_and_parts_are_masked_to_64_bits(self):
        assert derive_seed(-1, -2) == derive_seed(2**64 - 1, 2**64 - 2)

    def test_numpy_integers_equal_python_integers(self):
        # a numpy seed once overflowed in the 64-bit mask
        assert derive_seed(np.int64(-5), np.uint8(3)) == derive_seed(-5, 3)


class TestFixSigns:
    @pytest.mark.parametrize("case", ["random", "tied magnitudes", "zero columns",
                                      "fortran order"])
    def test_matches_the_column_loop_bitwise(self, case):
        rng = make_rng(21)
        for _ in range(25):
            u = rng.normal(size=(9, 6))
            v = rng.normal(size=(7, 6))
            if case == "tied magnitudes":  # first of equal |entries| is the pivot
                u = rng.choice([-2.0, -1.0, 1.0, 2.0], size=u.shape)
            elif case == "zero columns":
                u[:, 0] = -0.0
                u[:, 3] = 0.0
                u[4, 3] = -0.0
            elif case == "fortran order":  # LAPACK's factor layout
                u, v = np.asfortranarray(u), np.asfortranarray(v)
            fast, slow = (u.copy(order="A"), v.copy(order="A")), (u.copy(), v.copy())
            _fix_signs(*fast)
            fix_signs_loop(*slow)
            for got, want in zip(fast, slow):
                assert got.tobytes() == want.tobytes()
