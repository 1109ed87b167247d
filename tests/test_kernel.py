import numpy as np
import pytest
from scipy.linalg import solve_triangular

from oracles import naive_gram, naive_squared_distances
from synth import random_orthogonal

from repmetric.bayes_metrics import tvd_gradient
from repmetric.errors import DegenerateRepresentationError, ValidationError
from repmetric.mds import mds_embed
from repmetric.kernel import (PSD_RTOL, GaussianModel, KernelMatrix, RepresentationMatrix,
                              centered_kernel, gram, pivoted_cholesky, predictive_covariance,
                              solve_lower, squared_distance_matrix, symmetric_part)


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
        M = np.array([[1.7e308, 1.2e308], [1.2e308, 1.0]])
        assert np.array_equal(symmetric_part(M, "kernel"), M)


class TestTraceOverflow:
    def test_kernel_rejected(self):
        with pytest.raises(ValidationError, match="trace overflows"):
            KernelMatrix.from_array(np.diag([1e308, 1e308, 1.0]))

    def test_gram_rejected(self):
        with pytest.raises(ValidationError, match="trace overflows"):
            gram(RepresentationMatrix.from_array([[1e200, 0.0], [0.0, 1.0]]))


class TestPivotedCholesky:
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
        K = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(ValidationError, match="semidefinite"):
            KernelMatrix.from_array(K)

    def test_rejection_reports_min_eigenvalue(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValidationError, match=r"min eigenvalue -1\.000e\+00"):
            KernelMatrix.from_array(K)

    @pytest.mark.parametrize("depth, accepted", [(0.0, True), (0.5, True), (2.0, False)])
    def test_decision_at_the_floor(self, depth, accepted):
        # a rank-5 kernel pushed `depth` floors below zero in its null space
        rng = np.random.default_rng(15)
        X = rng.standard_normal((60, 5))
        K = X @ X.T
        K = 0.5 * (K + K.T)
        floor = PSD_RTOL * np.trace(K) / 60 + PSD_RTOL
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
        assert sub.labels == tuple(K.labels[i] for i in idx)
        # matches the gram of the subsetted representation up to BLAS rounding
        Ksub = gram(RepresentationMatrix.from_array(X[idx]))
        assert np.abs(sub.K - Ksub.K).max() < 1e-12

    def test_subset_validation(self):
        K = KernelMatrix.from_array(np.eye(4))
        with pytest.raises(ValidationError):
            K.subset([0, 0, 1])
        with pytest.raises(ValidationError):
            K.subset([0, 9])
