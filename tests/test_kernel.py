import math
import re
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from oracles import naive_gram, naive_squared_distances
from synth import random_orthogonal

from repmetric import kernel as kernel_module
from repmetric.bayes_metrics import tvd_gradient
from repmetric.errors import (DegenerateRepresentationError, NotPositiveDefiniteError,
                              ValidationError)
from repmetric.harness import _leading, load_kernel
from repmetric.mds import mds_embed
from repmetric.kernel import (PSD_RTOL, GaussianModel, KernelMatrix, RepresentationMatrix,
                              centered_kernel, gram, pivoted_cholesky, predictive_covariance,
                              solve_lower, squared_distance_matrix, symmetric_part)
from repmetric.matrix_io import MatrixKind, read_matrix, write_matrix


class TestGram:
    def test_identity_rows(self):
        K = gram(RepresentationMatrix.from_array(np.eye(2)))
        assert np.array_equal(K.K, np.eye(2))

    def test_duplicated_stimulus(self):
        K = gram(RepresentationMatrix.from_array([[1.0, 0.0], [1.0, 0.0]]))
        assert np.array_equal(K.K, np.ones((2, 2)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 512))
        K = gram(RepresentationMatrix.from_array(X))
        expected = naive_gram(X)
        assert np.abs(K.K - expected).max() < 1e-12 * np.abs(expected).max()

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 17))
        K = gram(RepresentationMatrix.from_array(X))
        assert np.array_equal(K.K, K.K.T)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            RepresentationMatrix.from_array([[1.0, np.inf], [0.0, 1.0]])

    def test_rejects_single_stimulus(self):
        with pytest.raises(ValidationError):
            RepresentationMatrix.from_array([[1.0, 2.0]])


class TestPredictiveCovariance:
    def test_identity_fixed_point(self):
        pc = predictive_covariance(KernelMatrix.from_array(np.eye(4)), 0.5)
        assert np.allclose(pc.C, np.eye(4))
        assert np.trace(pc.C) == pytest.approx(4.0)

    def test_scale_removed_by_normalization(self):
        pc = predictive_covariance(KernelMatrix.from_array(2.0 * np.eye(3)), 0.0)
        assert np.allclose(pc.C, np.eye(3))

    def test_hand_evaluated_mixture(self):
        # K = [[1,1],[1,1]], a = 0.5: tr = 2, n = 2, signal part K/2, so
        # C = 0.5*K + 0.5*I = [[1, 0.5], [0.5, 1]]
        K = KernelMatrix.from_array(np.ones((2, 2)))
        pc = predictive_covariance(K, 0.5)
        assert np.allclose(pc.C, [[1.0, 0.5], [0.5, 1.0]], atol=1e-15)

    def test_trace_is_n(self):
        rng = np.random.default_rng(5)
        for a in (0.0, 0.3, 1.0):
            X = rng.standard_normal((8, 3))
            pc = predictive_covariance(gram(RepresentationMatrix.from_array(X)), a)
            assert abs(np.trace(pc.C) - 8.0 - pc.jitter_used * 8) < 1e-8 * 8

    def test_degenerate_trace_errors(self):
        K = KernelMatrix.from_array(np.zeros((3, 3)))
        with pytest.raises(DegenerateRepresentationError):
            predictive_covariance(K, 0.5)

    def test_all_noise_allows_zero_kernel(self):
        K = KernelMatrix.from_array(np.zeros((3, 3)))
        pc = predictive_covariance(K, 1.0)
        assert np.array_equal(pc.C, np.eye(3))

    def test_invalid_a(self):
        K = KernelMatrix.from_array(np.eye(2))
        with pytest.raises(ValidationError):
            predictive_covariance(K, 1.5)

    def test_jitter_rescues_rank_deficient(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((6, 2))  # rank-2 kernel, a = 0 is singular
        pc = predictive_covariance(gram(RepresentationMatrix.from_array(X)), 0.0)
        assert pc.jitter_used > 0
        assert np.all(np.diag(pc.chol) > 0)
        assert np.allclose(pc.chol @ pc.chol.T, pc.C, atol=1e-10)

    def test_jitter_escalates_to_the_first_sufficient_step(self):
        # C = n K / tr K has min eigenvalue -5e-9: jitter 1e-10 and 1e-9 fail, 1e-8 succeeds
        rng = np.random.default_rng(8)
        n = 40
        G = rng.standard_normal((n, 8))
        v = rng.standard_normal(n)
        v -= G @ np.linalg.lstsq(G, v, rcond=None)[0]  # v ⟂ span G
        v /= np.linalg.norm(v)
        K = G @ G.T - 5e-9 * np.trace(G @ G.T) / n * np.outer(v, v)
        K = 0.5 * K + 0.5 * K.T
        kern = KernelMatrix.from_array(K)  # within the PSD floor of -1e-8·tr K/n
        pc = predictive_covariance(kern, 0.0)
        C = n * (kern.K / np.trace(kern.K))
        assert pc.jitter_used == 1e-8  # tr C/n is exactly 1 here
        assert np.array_equal(pc.C, C + pc.jitter_used * np.eye(n))
        assert np.allclose(pc.chol @ pc.chol.T, pc.C, rtol=0, atol=1e-12)

    def test_jitter_gives_up_at_its_cap(self):
        C = np.diag([1.0, -1e-3])  # no jitter up to 1e-6·tr C/n makes it positive definite
        with pytest.raises(NotPositiveDefiniteError, match="jitter"):
            GaussianModel.from_covariance(C)
        with pytest.raises(NotPositiveDefiniteError, match="jitter"):
            tvd_gradient(C, np.eye(2), 100, 0)

    def test_cholesky_consistent(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 20))
        pc = predictive_covariance(gram(RepresentationMatrix.from_array(X)), 0.2)
        assert pc.jitter_used == 0.0
        assert np.allclose(pc.chol @ pc.chol.T, pc.C, atol=1e-12)
        assert np.all(np.tril(pc.chol) == pc.chol)


class TestSolveLower:
    @pytest.mark.parametrize("rhs", ["general", "lower"])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 300])
    def test_matches_dense_triangular_solve(self, n, rhs):
        # factor of a rank-5 predictive covariance, as the estimators see
        # it, at sizes on both sides of the 64-row leaf
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 5))
        K = X @ X.T
        L = np.linalg.cholesky(0.9 * n * K / np.trace(K) + 0.1 * np.eye(n))
        if rhs == "general":
            B = rng.standard_normal((n, 7))
        else:
            B = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
        expected = solve_triangular(L, B, lower=True)
        got = solve_lower(L, B)
        assert got.shape == expected.shape
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


class TestSquaredDistances:
    def test_unit_orthogonal(self):
        D2 = squared_distance_matrix(KernelMatrix.from_array(np.eye(2)))
        assert np.array_equal(D2, [[0.0, 2.0], [2.0, 0.0]])

    def test_identical_points(self):
        D2 = squared_distance_matrix(KernelMatrix.from_array(np.ones((2, 2))))
        assert np.array_equal(D2, np.zeros((2, 2)))

    def test_matches_pairwise_norms(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 9))
        D2 = squared_distance_matrix(gram(RepresentationMatrix.from_array(X)))
        assert np.abs(D2 - naive_squared_distances(X)).max() < 1e-10


class TestCenteredKernel:
    def test_constant_kernel_centers_to_zero(self):
        K = KernelMatrix.from_array(np.full((4, 4), 3.7))
        assert np.abs(centered_kernel(K)).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((12, 5))
        Kc = centered_kernel(gram(RepresentationMatrix.from_array(X)))
        Kcc = centered_kernel(KernelMatrix.from_array(Kc))
        assert np.abs(Kcc - Kc).max() < 1e-12 * max(np.abs(Kc).max(), 1)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((25, 40))
        Kc = centered_kernel(gram(RepresentationMatrix.from_array(X)))
        assert np.abs(Kc.sum(axis=0)).max() < 1e-10 * np.abs(Kc).max()
        assert np.abs(Kc.sum(axis=1)).max() < 1e-10 * np.abs(Kc).max()


class TestEquivalenceInvariances:
    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((15, 6))
        U = random_orthogonal(rng, 6)
        a = 0.4
        C1 = predictive_covariance(gram(RepresentationMatrix.from_array(X)), a).C
        C2 = predictive_covariance(gram(RepresentationMatrix.from_array(X @ U)), a).C
        assert np.abs(C1 - C2).max() < 1e-8

    @pytest.mark.parametrize("c", [-2.0, 0.1, 7.0])
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((15, 6))
        a = 0.4
        C1 = predictive_covariance(gram(RepresentationMatrix.from_array(X)), a).C
        C2 = predictive_covariance(gram(RepresentationMatrix.from_array(c * X)), a).C
        assert np.abs(C1 - C2).max() < 1e-8

    def test_shift_changes_covariance(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((15, 6))
        v = rng.standard_normal(6)
        a = 0.4
        C1 = predictive_covariance(gram(RepresentationMatrix.from_array(X)), a).C
        C2 = predictive_covariance(gram(RepresentationMatrix.from_array(X + v)), a).C
        assert np.abs(C1 - C2).max() > 1e-3


class TestSymmetricPart:
    """Kernels, covariances and distance matrices share one relative symmetry rule."""

    VALIDATORS = {
        "kernel": KernelMatrix.from_array,
        "covariance": GaussianModel.from_covariance,
        "distance": lambda D: mds_embed(D, restarts=1, max_iter=3),
    }

    @pytest.mark.parametrize("what", list(VALIDATORS))
    @pytest.mark.parametrize("scale, accepted", [(1e9, True), (1e-9, False)])
    def test_relative_rule(self, what, scale, accepted):
        P = np.random.default_rng(12).standard_normal((20, 3))
        if what == "distance":
            M = np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1))
        else:
            M = P @ P.T + np.eye(20)
            M = 0.5 * (M + M.T)
        M *= scale
        if accepted:  # one ulp: 1.2e-17 of the largest entry
            M[0, 1] = np.nextafter(M[0, 1], np.inf)
            self.VALIDATORS[what](M)
        else:  # 50% off, yet only ~1e-9 in absolute terms
            M[0, 1] *= 1.5
            with pytest.raises(ValidationError, match="not symmetric"):
                self.VALIDATORS[what](M)


    def test_top_of_the_double_range(self):
        # halving before adding: (M + Mᵀ)/2 would overflow to inf
        for M in (np.array([[1.7e308, 1.2e308], [1.2e308, 1.0]]),
                  np.array([[1.0, -1e308, 1e308], [-1e308, 1.0, -1e308], [1e308, -1e308, 1.0]])):
            assert np.array_equal(symmetric_part(M, "kernel"), M)

    @pytest.mark.parametrize("what", ["symmetric_part", *VALIDATORS])
    def test_caller_array_not_written(self, what):
        P = np.random.default_rng(13).standard_normal((250, 3))  # two tiles
        if what == "distance":
            M = np.sqrt(((P[:, None] - P[None]) ** 2).sum(-1))
        else:
            M = P @ P.T + np.eye(250)
        M[3, 240] = np.nextafter(M[240, 3], np.inf)  # asymmetric within the rule
        before = M.tobytes()
        validate = self.VALIDATORS.get(what, lambda M: symmetric_part(M, "kernel"))
        validate(M)
        assert M.tobytes() == before

    @pytest.mark.parametrize("name", ["k.rmx", "k.csv"])
    def test_loaded_kernel_is_symmetric_part_of_the_file(self, tmp_path, name):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((257, 5))
        M = X @ X.T + 1e-12 * rng.standard_normal((257, 257))  # asymmetric within the rule
        path = tmp_path / name
        write_matrix(M, path, MatrixKind.KERNEL, labels=[f"r{i}" for i in range(257)])
        read = read_matrix(path, MatrixKind.KERNEL)
        kern = load_kernel(path, MatrixKind.KERNEL, "layer 'x'")
        assert kern.K.tobytes() == symmetric_part(read.values, "kernel").tobytes()
        assert kern.labels == read.labels
        M[3, 240] *= 1.5
        write_matrix(M, path, MatrixKind.KERNEL)
        with pytest.raises(ValidationError, match="^layer 'x': kernel is not symmetric$"):
            load_kernel(path, MatrixKind.KERNEL, "layer 'x'")

    @pytest.mark.parametrize("n", [1, 2, 192, 193, 255, 256, 257, 1000])
    def test_bitwise_equal_to_halved_sum(self, n):
        rng = np.random.default_rng(n)
        X = rng.standard_normal((n, 5))
        M = X @ X.T + 1e-12 * rng.standard_normal((n, n))  # asymmetric within the rule
        S = symmetric_part(M, "kernel")
        assert S.tobytes() == (M * 0.5 + M.T * 0.5).tobytes()

    @pytest.mark.parametrize("i, j", [(3, 900), (900, 3), (500, 999), (999, 998)])
    def test_one_asymmetric_entry_in_an_off_diagonal_tile(self, i, j):
        M = np.ones((1000, 1000))
        M[i, j] = 1.5
        with pytest.raises(ValidationError, match="kernel is not symmetric"):
            symmetric_part(M, "kernel")

    def test_opposite_extremes_in_an_off_diagonal_tile(self):
        # symmetric ±1.7e308 pass unchanged; a pair differing by ~3.4e308 fails, without warnings
        M = np.eye(300)
        M[7, 280] = M[280, 7] = 1.7e308
        M[9, 290] = M[290, 9] = -1.7e308
        assert np.array_equal(symmetric_part(M, "kernel"), M)
        M[290, 9] = 1.7e308
        with pytest.raises(ValidationError, match="not symmetric"):
            symmetric_part(M, "kernel")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named_first(self, bad):
        M = np.eye(400)
        M[10, 390] = bad  # also asymmetric: the finiteness message wins, as before
        with pytest.raises(ValidationError, match="contains non-finite values"):
            symmetric_part(M, "kernel")


class TestTraceOverflow:
    def test_kernel_rejected(self):
        with pytest.raises(ValidationError, match="trace overflows"):
            KernelMatrix.from_array(np.diag([1e308, 1e308, 1.0]))

    def test_gram_rejected(self):
        with pytest.raises(ValidationError, match="trace overflows"):
            gram(RepresentationMatrix.from_array([[1e200, 0.0], [0.0, 1.0]]))


def upfront_pivoted_cholesky(K, max_rank):
    """pivoted_cholesky with G allocated n × max_rank before the first step."""
    n = K.shape[0]
    e = np.maximum(K.diagonal(), 0.0)
    tol = n * np.finfo(float).eps * e.sum()
    G = np.empty((n, max_rank))
    r = 0
    while e.sum() > tol:
        if r == max_rank:
            return None
        p = int(np.argmax(e))
        g = (K[p] - G[:, :r] @ G[p, :r]) / math.sqrt(e[p])
        G[:, r] = g
        e -= g * g
        e[p] = 0.0
        np.maximum(e, 0.0, out=e)
        r += 1
    return G[:, :r].copy(), e


class TestPivotedCholesky:
    @pytest.mark.parametrize("n, rank, max_rank", [
        (100, 3, 25), (100, 8, 25), (100, 50, 64), (100, 30, 25),
        (300, 3, 75), (300, 8, 75), (300, 50, 75),
        (1000, 3, 250), (1000, 8, 250), (1000, 50, 250)])
    def test_growing_factor_bitwise_equal_to_upfront(self, n, rank, max_rank):
        X = np.random.default_rng(n + rank).standard_normal((n, rank))
        K = X @ X.T
        ref = upfront_pivoted_cholesky(K, max_rank)
        f = pivoted_cholesky(K, max_rank)
        if rank > max_rank:
            assert f is None and ref is None
        else:
            assert np.array_equal(f.G, ref[0]) and np.array_equal(f.residual, ref[1])
            assert f.G.shape == (n, rank)

    def test_exact_low_rank(self):
        X = np.random.default_rng(15).standard_normal((50, 7))
        K = gram(RepresentationMatrix.from_array(X)).K
        f = pivoted_cholesky(K, 12)
        assert f.G.shape == (50, 7)
        assert f.residual.sum() <= 50 * np.finfo(float).eps * np.trace(K)
        assert np.abs(f.G @ f.G.T - K).max() < 1e-12 * np.abs(K).max()

    def test_gives_up_above_max_rank(self):
        X = np.random.default_rng(16).standard_normal((50, 13))
        assert pivoted_cholesky(X @ X.T, 12) is None

    def test_kernel_factor_only_up_to_a_quarter_of_n(self):
        rng = np.random.default_rng(17)
        for k, factored in ((10, True), (11, False)):
            kern = gram(RepresentationMatrix.from_array(rng.standard_normal((40, k))))
            assert (kern.low_rank is not None) == factored


def floor_of(K):
    n = K.shape[0]
    return -PSD_RTOL * max(np.trace(K), 0.0) / n


@pytest.fixture
def spies():
    """Counts of pivoted Cholesky attempts and dense PSD checks."""
    with mock.patch.object(kernel_module, "pivoted_cholesky",
                           wraps=kernel_module.pivoted_cholesky) as pivoted, \
            mock.patch.object(kernel_module, "_check_floor",
                              wraps=kernel_module._check_floor) as dense:
        yield pivoted, dense


class TestPsdCertificate:
    """A low-rank factor with a small residual proves PSD-ness; else the dense check decides."""

    def test_low_rank_kernel_accepted_by_its_factor(self, spies):
        pivoted, dense = spies
        X = np.random.default_rng(40).standard_normal((200, 6))
        kern = KernelMatrix.from_array(X @ X.T)
        assert (pivoted.call_count, dense.call_count) == (1, 0)
        assert "low_rank" in vars(kern)  # cached by validation
        assert kern.low_rank.G.shape == (200, 6)
        G = kern.low_rank.G
        assert np.linalg.norm(kern.K - G @ G.T) <= -floor_of(kern.K)

    def test_negative_direction_outside_the_factor_rejected(self, spies):
        pivoted, dense = spies
        rng = np.random.default_rng(41)
        n = 80
        G = rng.standard_normal((n, 5))
        v = rng.standard_normal(n)
        v -= G @ np.linalg.lstsq(G, v, rcond=None)[0]  # v ⟂ span G
        v /= np.linalg.norm(v)
        K = G @ G.T
        delta = 10.0 * abs(floor_of(K))
        K = K - delta * np.outer(v, v)
        K = 0.5 * K + 0.5 * K.T
        min_eig = np.linalg.eigvalsh(K).min()
        assert min_eig == pytest.approx(-delta, rel=1e-6)
        message = f"kernel is not positive semidefinite (min eigenvalue {min_eig:.3e})"
        with pytest.raises(ValidationError) as info:
            KernelMatrix.from_array(K)
        assert str(info.value) == message
        assert (pivoted.call_count, dense.call_count) == (1, 1)

    def test_flat_full_rank_kernel_skips_the_attempt(self, spies):
        pivoted, dense = spies
        X = np.random.default_rng(42).standard_normal((120, 120))
        K = X @ X.T
        assert np.trace(K) ** 2 / np.vdot(K, K) > 120 // 4  # its rank must exceed n/4
        kern = KernelMatrix.from_array(K)
        assert (pivoted.call_count, dense.call_count) == (0, 1)
        assert kern.low_rank is None
        assert pivoted.call_count == 0

    def test_decaying_full_rank_kernel_takes_the_dense_check(self, spies):
        pivoted, dense = spies
        rng = np.random.default_rng(43)
        Q = random_orthogonal(rng, 120)
        K = (Q * 0.9 ** np.arange(120)) @ Q.T
        kern = KernelMatrix.from_array(0.5 * K + 0.5 * K.T)
        assert (pivoted.call_count, dense.call_count) == (1, 1)
        assert "low_rank" in vars(kern) and kern.low_rank is None

    def test_zero_kernel(self, spies):
        pivoted, dense = spies
        kern = KernelMatrix.from_array(np.zeros((6, 6)))
        assert kern.low_rank.G.shape == (6, 0)
        assert (pivoted.call_count, dense.call_count) == (1, 0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_below_four_stimuli_the_dense_check_decides(self, spies, n):
        pivoted, dense = spies
        kern = KernelMatrix.from_array(np.eye(n))
        assert kern.low_rank is None
        with pytest.raises(ValidationError, match=r"min eigenvalue -1\.000e\+00"):
            KernelMatrix.from_array(np.diag([1.0] * (n - 1) + [-1.0]))
        assert dense.call_count == 2

    def test_every_kernel_source_follows_one_rule(self, spies):
        pivoted, dense = spies
        rng = np.random.default_rng(45)
        grammed = gram(RepresentationMatrix.from_array(rng.standard_normal((100, 200))))
        pool = KernelMatrix.from_array(grammed.K)
        sub = pool.subset(rng.choice(100, size=60, replace=False))
        for kern in (grammed, sub, _leading(grammed, 60), _leading(sub, 40)):
            assert np.trace(kern.K) ** 2 / np.vdot(kern.K, kern.K) > kern.n // 4
            predictive_covariance(kern, 0.5)
            assert kern.low_rank is None
        assert (pivoted.call_count, dense.call_count) == (0, 1)
        # a low-rank pool's subset and view: one attempt each, the factor of the same K loaded
        X = rng.standard_normal((100, 8))
        pool = KernelMatrix.from_array(X @ X.T)
        for kern in (pool.subset(rng.choice(100, size=60, replace=False)), _leading(pool, 60)):
            calls = pivoted.call_count
            predictive_covariance(kern, 0.5)
            assert pivoted.call_count == calls + 1
            loaded = KernelMatrix.from_array(np.array(kern.K)).low_rank
            assert np.array_equal(kern.low_rank.G, loaded.G)
            assert np.array_equal(kern.low_rank.residual, loaded.residual)

    @pytest.mark.parametrize("kind", ["low_rank", "flat", "decaying"])
    def test_one_pivoted_cholesky_per_kernel(self, spies, kind):
        pivoted, _ = spies
        rng = np.random.default_rng(44)
        n = 100
        if kind == "decaying":
            Q = random_orthogonal(rng, n)
            K = (Q * 0.9 ** np.arange(n)) @ Q.T
        else:
            X = rng.standard_normal((n, 8 if kind == "low_rank" else n))
            K = X @ X.T
        kern = KernelMatrix.from_array(0.5 * K + 0.5 * K.T)
        for a in (0.3, 0.7):
            predictive_covariance(kern, a)
        # a flat kernel's tr(K)²/‖K‖²_F already shows a rank above n/4: no attempt
        assert pivoted.call_count == (0 if kind == "flat" else 1)


class TestKernelValidation:
    def test_asymmetric_rejected(self):
        K = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            KernelMatrix.from_array(K)

    def test_asymmetric_covariance_rejected(self):
        # the Cholesky factor would read only the lower triangle, [[2, 0.1], [0.1, 1]]
        C = np.array([[2.0, 5.0], [0.1, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            GaussianModel.from_covariance(C)
        with pytest.raises(ValidationError, match="symmetric"):
            tvd_gradient(C, np.eye(2), 100, 0)

    def test_covariance_keeps_exact_symmetric_part(self):
        C = np.array([[2.0, 0.5], [0.5 + 1e-12, 1.0]])  # within SYMMETRY_RTOL
        model = GaussianModel.from_covariance(C)
        assert np.array_equal(model.C, model.C.T)
        assert np.allclose(model.chol @ model.chol.T, model.C, rtol=0, atol=1e-15)

    def test_negative_definite_rejected(self):
        # the floor is relative: a tiny kernel is held to the same rule
        for scale in (1.0, 1e-12, 2.0 ** -600):
            K = scale * np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
            with pytest.raises(ValidationError, match="semidefinite"):
                KernelMatrix.from_array(K)

    def test_rejection_reports_min_eigenvalue(self):
        for scale in (1.0, 1e-12, 2.0 ** -600):
            K = scale * np.array([[1.0, 2.0], [2.0, 1.0]])
            with pytest.raises(ValidationError,
                               match=re.escape(f"min eigenvalue {-scale:.3e}")):
                KernelMatrix.from_array(K)

    @pytest.mark.parametrize("depth, accepted", [(0.0, True), (0.5, True), (2.0, False)])
    def test_decision_at_the_floor(self, depth, accepted):
        # a rank-5 kernel pushed `depth` floors below zero in its null space
        rng = np.random.default_rng(15)
        X = rng.standard_normal((60, 5))
        K = X @ X.T
        K = 0.5 * (K + K.T)
        floor = PSD_RTOL * np.trace(K) / 60
        K -= depth * floor * np.eye(60)
        if accepted:
            assert KernelMatrix.from_array(K).n == 60
        else:
            with pytest.raises(ValidationError, match="semidefinite"):
                KernelMatrix.from_array(K)

    def test_subset_is_principal_submatrix(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((20, 7))
        K = gram(RepresentationMatrix.from_array(X))
        idx = [3, 5, 11, 17]
        sub = K.subset(idx)
        assert np.array_equal(sub.K, K.K[np.ix_(idx, idx)])
        assert sub.labels is None  # an unlabelled kernel's subset stays unlabelled
        labels = tuple(f"r{i}" for i in range(20))
        assert KernelMatrix(K=K.K, labels=labels).subset(idx).labels == ("r3", "r5", "r11", "r17")
        # matches the gram of the subsetted representation up to BLAS rounding
        Ksub = gram(RepresentationMatrix.from_array(X[idx]))
        assert np.abs(sub.K - Ksub.K).max() < 1e-12

    def test_subset_validation(self):
        K = KernelMatrix.from_array(np.eye(4))
        with pytest.raises(ValidationError):
            K.subset([0, 0, 1])
        with pytest.raises(ValidationError):
            K.subset([0, 9])

    @pytest.mark.parametrize("make, match", [
        (lambda: KernelMatrix.from_array(np.eye(2), labels=["a"]), "1 labels for 2 rows"),
        (lambda: RepresentationMatrix.from_array(np.ones(3)), "2-D array"),
        (lambda: KernelMatrix.from_array(np.eye(4)).subset([0]), "at least 2 indices"),
    ], ids=["label-count", "one-dimensional", "one-index-subset"])
    def test_malformed_arguments_rejected(self, make, match):
        with pytest.raises(ValidationError, match=match):
            make()
