import multiprocessing
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy import integrate
from scipy.stats import chi2

from oracles import (LN2, closed_form_tvd_1d_scale, eigenbasis_monte_carlo,
                     grid_quad_2d, imhof_upper_tail, jsd_exact_diag,
                     predictive_pair_eigenvalues, quad_jsd_1d, quad_tvd_1d,
                     tvd_exact_diag)
from synth import normal_block, random_orthogonal, random_spd

from repmetric import bayes_metrics
from repmetric.bayes_metrics import (BAYES_METRICS, EIGEN_ROUNDING, _span_eigenvalues, estimate,
                                     gradients, js_distance, js_distance_from_jsd, jsd,
                                     jsd_gradient, tvd, tvd_gradient)
from repmetric.bayes_metrics import DistanceEstimate
from repmetric.errors import ValidationError
from repmetric.kernel import (GaussianModel, KernelMatrix, RepresentationMatrix, gram,
                              predictive_covariance)
from repmetric.seeding import BLOCK_ROWS, standard_normal_blocks


def model(C):
    return GaussianModel.from_covariance(C)


def model_from_X(X, a=0.5):
    rep = RepresentationMatrix.from_array(X)
    return predictive_covariance(gram(rep), a)


def exact_oracle_case(case):
    """(model1, model2, λ): a pair whose TVD and JSD are those of (I, diag λ).

    "n-spread" is the dense pair I, diag λ with log λ ~ N(0, spread²).
    "low-rank" goes through predictive_covariance and the low-rank path:
    two rank-10 diagonal kernels on disjoint stimuli at n = 300, so both
    covariances are diagonal and λ is the ratio of their diagonals.
    """
    if case == "low-rank":
        n, a = 300, 0.97
        diags = np.zeros((2, n))
        diags[0, :10] = np.linspace(0.5, 1.5, 10)
        diags[1, 10:20] = np.linspace(1.5, 0.5, 10)
        m1, m2 = (predictive_covariance(KernelMatrix.from_array(np.diag(d)), a) for d in diags)
        assert m1.U.shape == m2.U.shape == (n, 10)
        c1, c2 = ((1.0 - a) * n * d / d.sum() + a for d in diags)
        return m1, m2, c2 / c1
    n, spread = int(case.split("-")[0]), float(case.split("-")[1])
    lam = np.exp(np.random.default_rng(n).normal(0.0, spread, n))
    return model(np.eye(n)), model(np.diag(lam)), lam


class TestTvd:
    def test_identical_is_exactly_zero(self):
        m = model([[2.0, 0.5], [0.5, 1.0]])
        est = tvd(m, m, 1000, seed=1)
        assert est.value == 0.0
        assert est.std_error == 0.0
        assert est.summand_variance == 0.0

    def test_closed_form_1d(self):
        # densities of N(0,1) and N(0,4) cross at x^2 = 8 ln2 / 3
        expected = closed_form_tvd_1d_scale(1.0, 4.0)
        assert expected == pytest.approx(0.3226745688347685, abs=1e-12)
        assert quad_tvd_1d(1.0, 4.0) == pytest.approx(expected, abs=1e-9)
        est = tvd(model([[1.0]]), model([[4.0]]), 100_000, seed=21)
        assert abs(est.value - expected) < 3 * est.std_error

    def test_2d_grid_quadrature(self):
        C1 = np.eye(2)
        C2 = np.diag([25.0, 25.0])
        expected = grid_quad_2d("tvd", C1, C2)
        est = tvd(model(C1), model(C2), 100_000, seed=22)
        assert abs(est.value - expected) < 3 * est.std_error

    def test_deterministic(self):
        m1, m2 = model([[1.0]]), model([[3.0]])
        e1 = tvd(m1, m2, 5000, seed=3)
        e2 = tvd(m1, m2, 5000, seed=3)
        assert e1.value == e2.value and e1.std_error == e2.std_error

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="dimension"):
            tvd(model(np.eye(2)), model(np.eye(3)), 100, seed=0)

    def test_range(self):
        rng = np.random.default_rng(4)
        for i in range(5):
            m1 = model(random_spd(rng, 3))
            m2 = model(random_spd(rng, 3) * 10.0 ** rng.integers(-3, 4))
            est = tvd(m1, m2, 2000, seed=100 + i)
            assert 0.0 <= est.value <= 1.0


class TestJsd:
    def test_identical_is_zero(self):
        m = model([[1.5]])
        est = jsd(m, m, 1000, seed=1)
        assert est.value == 0.0
        assert abs(est.raw_value) < 1e-14  # clamp only removes rounding noise

    def test_quadrature_1d(self):
        expected = quad_jsd_1d(1.0, 4.0)
        assert expected == pytest.approx(0.13378598985, abs=1e-9)
        est = jsd(model([[1.0]]), model([[4.0]]), 100_000, seed=31)
        assert abs(est.value - expected) < 3 * est.std_error

    def test_near_disjoint_stays_below_one(self):
        expected = quad_jsd_1d(1.0, 1e8)
        est = jsd(model([[1.0]]), model([[1e8]]), 100_000, seed=32)
        assert expected < 1.0
        assert abs(est.value - expected) < 3 * est.std_error

    def test_2d_grid_quadrature(self):
        C1 = np.array([[2.0, 0.6], [0.6, 1.0]])
        C2 = np.array([[1.0, -0.3], [-0.3, 3.0]])
        expected = grid_quad_2d("jsd", C1, C2)
        est = jsd(model(C1), model(C2), 100_000, seed=33)
        assert abs(est.value - expected) < 3 * est.std_error

    def test_range_clamped(self):
        rng = np.random.default_rng(5)
        for i in range(5):
            m1 = model(random_spd(rng, 2))
            m2 = model(random_spd(rng, 2) * 10.0 ** rng.integers(-4, 5))
            est = jsd(m1, m2, 2000, seed=200 + i)
            assert 0.0 <= est.value <= 1.0


class TestJsDistance:
    def test_zero_fixed_point(self):
        m = model([[1.0]])
        est = js_distance(m, m, 500, seed=1)
        assert est.value == 0.0

    def test_delta_method_arithmetic(self):
        base = DistanceEstimate(value=0.25, std_error=0.004, n_samples=10_000,
                                metric="jsd", seed=0, raw_value=0.25,
                                summand_variance=0.16)
        js = js_distance_from_jsd(base)
        assert js.value == pytest.approx(0.5)
        assert js.std_error == pytest.approx(0.004)
        assert not js.degenerate_se

    def test_square_is_jsd(self):
        rng = np.random.default_rng(6)
        m1 = model(random_spd(rng, 3))
        m2 = model(random_spd(rng, 3))
        d = jsd(m1, m2, 3000, seed=17)
        js = js_distance(m1, m2, 3000, seed=17)
        assert js.value**2 == pytest.approx(d.value, abs=1e-12)

    def test_degenerate_regime_flagged(self):
        rng = np.random.default_rng(7)
        C = random_spd(rng, 3)
        m1 = model(C)
        m2 = model(C + 1e-9 * np.eye(3))
        est = js_distance(m1, m2, 2000, seed=8)
        assert est.degenerate_se
        assert np.isfinite(est.std_error)

    def test_requires_jsd_estimate(self):
        est = tvd(model([[1.0]]), model([[2.0]]), 100, seed=0)
        with pytest.raises(ValidationError):
            js_distance_from_jsd(est)


class TestFusedEstimate:
    def test_bitwise_equal_to_separate_calls(self):
        rng = np.random.default_rng(40)
        m1, m2 = model(random_spd(rng, 5)), model(random_spd(rng, 5))
        ests = estimate(("js_distance", "tvd", "jsd"), m1, m2, 3000, seed=41)
        assert list(ests) == ["js_distance", "tvd", "jsd"]
        assert ests["tvd"] == tvd(m1, m2, 3000, seed=41)
        assert ests["jsd"] == jsd(m1, m2, 3000, seed=41)
        assert ests["js_distance"] == js_distance(m1, m2, 3000, seed=41)

    def test_unknown_metric_rejected(self):
        m = model(np.eye(2))
        with pytest.raises(ValidationError, match="unknown Bayes metric 'cka'"):
            estimate(("jsd", "cka"), m, m, 100, seed=0)

    @pytest.mark.parametrize("call", [estimate, gradients])
    def test_empty_metric_list_rejected_before_drawing(self, call):
        rng = np.random.default_rng(42)
        m1, m2 = model(random_spd(rng, 5)), model(random_spd(rng, 5))
        with mock.patch.object(bayes_metrics, "standard_normal_blocks",
                               wraps=standard_normal_blocks) as spy, \
                pytest.raises(ValidationError, match="no metrics requested"):
            call((), m1, m2, 100, seed=0)
        assert spy.call_count == 0


def per_point(C1, C2, n_draws, seed):
    """Values and gradients of both estimators from explicit samples.

    Draws x = L1 z ~ P1 and y = L2 z' ~ P2 from the estimator's z blocks,
    evaluates all four log densities with triangular solves and sums the
    per-draw summands and their derivatives: the explicit dependence of
    log p_j on C_j plus the sampling path x = L z, pulled back through
    the Cholesky factor with dense inverses.
    """
    m1, m2 = model(C1), model(C2)
    Z = [normal_block(n_draws, m.dim, seed, stream) for stream, m in enumerate((m1, m2))]
    Y = [z @ m.chol.T for z, m in zip(Z, (m1, m2))]

    def log_density(m, P):
        # up to the constant -n log(2π)/2, which cancels in every ratio
        U = solve_triangular(m.chol, P.T, lower=True)
        return -np.sum(np.log(np.diag(m.chol))) - 0.5 * np.einsum("ij,ij->j", U, U)

    d1 = log_density(m2, Y[0]) - log_density(m1, Y[0])  # log p2/p1 at x
    d2 = log_density(m1, Y[1]) - log_density(m2, Y[1])  # log p1/p2 at y
    summands = {
        "tvd": 0.5 * (np.maximum(0.0, -np.expm1(d1)) + np.maximum(0.0, -np.expm1(d2))),
        "jsd": 1.0 - 0.5 * (np.logaddexp(0.0, d1) + np.logaddexp(0.0, d2)) / np.log(2.0),
    }
    # dV/dd per draw: both summands fall as the draw's log ratio rises
    slopes = {
        "tvd": lambda d: -np.where(d < 0.0, np.exp(np.minimum(d, 0.0)), 0.0) / (2 * n_draws),
        "jsd": lambda d: -1.0 / (1.0 + np.exp(-d)) / (2 * n_draws * np.log(2.0)),
    }
    chol = [m1.chol, m2.chol]
    inv = [np.linalg.inv(m.C) for m in (m1, m2)]
    inv_chol = [np.linalg.inv(L) for L in chol]

    def phi(M):
        out = np.tril(M)
        out[np.diag_indices_from(out)] *= 0.5
        return out

    out = {}
    for metric, s in summands.items():
        grads = [np.zeros_like(C1), np.zeros_like(C1)]
        # block j: draws of P_j, log ratio d = log p_other - log p_own
        for own, d in ((0, d1), (1, d2)):
            other = 1 - own
            w = slopes[metric](d)
            V_own, V_other = Y[own] @ inv[own], Y[own] @ inv[other]
            # dl/dC = (v vᵀ - C⁻¹)/2 with v = C⁻¹ x, for l_other (+) and l_own (-)
            grads[other] += 0.5 * ((V_other * w[:, None]).T @ V_other - w.sum() * inv[other])
            grads[own] -= 0.5 * ((V_own * w[:, None]).T @ V_own - w.sum() * inv[own])
            # x = L_own z: dV/dx = w (C_own⁻¹ x - C_other⁻¹ x), through dL = L phi(L⁻¹ dC L⁻ᵀ)
            X_bar = w[:, None] * (V_own - V_other)
            Li = inv_chol[own]
            grads[own] += Li.T @ phi(chol[own].T @ X_bar.T @ Z[own]) @ Li
        grads = [0.5 * (g + g.T) for g in grads]
        out[metric] = (float(s.mean()), float(s.std(ddof=1) / np.sqrt(n_draws)), grads)
    return out


class TestWhitenedMatchesPerPoint:
    """The whitened evaluation reproduces the per-point definition."""

    @pytest.mark.parametrize("n", [3, 100, 300])
    def test_values_and_gradients(self, n):
        rng = np.random.default_rng(50 + n)
        if n == 3:
            C1, C2 = random_spd(rng, 3), random_spd(rng, 3)
        else:
            X1 = rng.standard_normal((n, 20))
            X2 = 0.8 * X1 + 0.6 * rng.standard_normal((n, 20))
            C1, C2 = (model_from_X(X).C for X in (X1, X2))
        ref = per_point(C1, C2, 2000, seed=51)
        ests = estimate(("tvd", "jsd"), model(C1), model(C2), 2000, seed=51)
        for metric, grad_fn in (("tvd", tvd_gradient), ("jsd", jsd_gradient)):
            value, se, (g1, g2) = ref[metric]
            assert abs(ests[metric].raw_value - value) < 1e-12
            assert abs(ests[metric].std_error - se) < 1e-12
            grad = grad_fn(C1, C2, 2000, seed=51)
            assert np.abs(grad.d_cov1 - g1).max() < 1e-12
            assert np.abs(grad.d_cov2 - g2).max() < 1e-12


class TestBitwiseEqualFactors:
    @pytest.mark.parametrize("n", [4, 60])
    def test_every_metric_exactly_zero(self, n):
        rng = np.random.default_rng(60 + n)
        X = rng.standard_normal((n, 7))
        m1, m2 = model_from_X(X), model_from_X(-2.0 * X)  # exact in floats
        assert (m1.U is not None) == (n == 60)  # rank 7 <= n/4: the low-rank path
        assert np.array_equal(m1.chol, m2.chol) and m1 is not m2
        for est in estimate(("tvd", "jsd", "js_distance"), m1, m2, 2000, seed=61).values():
            assert est.value == 0.0
            assert est.std_error == 0.0


class TestHighDimensionalOracle:
    """Agreement with an independent eigenbasis Monte-Carlo at n = 300, k = 50."""

    @pytest.mark.parametrize("t, b", [(0.3, 0.01), (0.5, 0.05)])
    def test_within_five_combined_se(self, t, b):
        n, k = 300, 50
        rng = np.random.default_rng(70)
        X1 = rng.standard_normal((n, k))
        X2 = np.sqrt(1.0 - t * t) * X1 + t * rng.standard_normal((n, k))
        a = b * n / (1.0 + b * n)
        m1, m2 = model_from_X(X1, a), model_from_X(X2, a)
        assert m1.U is not None and m2.U is not None  # rank 50 <= n/4: the low-rank path
        ests = estimate(("tvd", "jsd"), m1, m2, 4000, seed=71)
        lam = predictive_pair_eigenvalues(X1, X2, a)
        assert lam.size == 2 * k
        ref = eigenbasis_monte_carlo(lam, 200_000, np.random.default_rng(72))
        for metric, est in ests.items():
            value, se = ref[metric]
            assert 0.05 < value < 0.95  # away from the clamps, where the SE holds
            assert abs(est.raw_value - value) < 5.0 * np.hypot(est.std_error, se)


class TestExactTvdOracle:
    """Agreement with the exact TVD of (I, diag λ) from Imhof's inversion."""

    @pytest.mark.parametrize("scale, x", [(1.0, 4.0), (2.0, 15.0), (-0.5, -2.0)])
    def test_imhof_tail_matches_chi_square(self, scale, x):
        # scale * Q with Q ~ chi-square(6); a negative scale flips the tail
        q = x / scale
        want = chi2.sf(q, 6) if scale > 0 else chi2.cdf(q, 6)
        assert imhof_upper_tail(np.full(6, scale), x) == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("case", ["100-0.2", "300-0.12", "low-rank"])
    def test_within_four_se(self, case):
        m1, m2, lam = exact_oracle_case(case)
        exact = tvd_exact_diag(lam)
        assert 0.05 < exact < 0.95  # away from the clamps, where the SE holds
        est = tvd(m1, m2, 20_000, seed=73)
        assert abs(est.raw_value - exact) < 4.0 * est.std_error


class TestExactJsdOracle:
    """Agreement with the exact JSD of (I, diag λ) from Imhof inversions."""

    def test_matches_chi_square_quadrature(self):
        # λ = s·1: each log ratio is affine in one χ²_k variable
        k, s = 40, 1.5
        half_log_det = 0.5 * k * np.log(s)

        def mean_softplus(offset, slope):
            f = lambda q: np.logaddexp(0.0, offset + slope * q) * chi2.pdf(q, k)
            return integrate.quad(f, 0.0, np.inf, limit=200, epsabs=1e-13)[0]

        e1 = mean_softplus(-half_log_det, -0.5 * (1.0 / s - 1.0))  # log p2/p1 under P1
        e2 = mean_softplus(half_log_det, 0.5 * (1.0 - s))          # log p1/p2 under P2
        want = 1.0 - (e1 + e2) / (2.0 * LN2)
        assert jsd_exact_diag(np.full(k, s)) == pytest.approx(want, abs=1e-9)

    def test_within_four_se(self):
        for case in ("300-0.12", "low-rank"):  # TestExactTvdOracle's inputs
            m1, m2, lam = exact_oracle_case(case)
            exact = jsd_exact_diag(lam)
            assert 0.05 < exact < 0.95  # away from the clamps, where the SE holds
            est = jsd(m1, m2, 20_000, seed=73)
            assert abs(est.raw_value - exact) < 4.0 * est.std_error, case


class TestPathSelection:
    """Which models take the low-rank path, and what the others give."""

    @staticmethod
    def low_rank_kernel(rng, n, k):
        return gram(RepresentationMatrix.from_array(rng.standard_normal((n, k))))

    @pytest.mark.parametrize("case", ["full-rank", "rank-above-n/4", "a=0", "a-below-bound",
                                      "mixed", "different-a", "a-at-rounding-level"])
    def test_dense_pairs_match_from_covariance(self, case):
        rng = np.random.default_rng(80)
        n = 40
        ranks = {"full-rank": (n, n), "rank-above-n/4": (11, 11), "mixed": (5, n)}.get(case, (5, 5))
        a = {"a=0": 0.0, "a-below-bound": 1e-8, "a-at-rounding-level": 1e-300}.get(case, 0.5)
        kernels = [self.low_rank_kernel(rng, n, k) for k in ranks]
        if case == "a-at-rounding-level":
            # exact rank-1 kernels leave no residual, so the bound admits any a > 0,
            # but a I + Vᵢ Vᵢᵀ on span[U1 U2] fails to factorize
            kernels = [KernelMatrix.from_array(np.outer(v, v))
                       for v in (1.0 + np.arange(n) % 3, 1.0 + np.arange(n) % 5)]
        m1 = predictive_covariance(kernels[0], a)
        m2 = predictive_covariance(kernels[1], 0.4 if case == "different-a" else a)
        carry_u = {"mixed": (True, False), "different-a": (True, True),
                   "a-at-rounding-level": (True, True)}.get(case, (False, False))
        assert (m1.U is not None, m2.U is not None) == carry_u
        got = estimate(("tvd", "jsd"), m1, m2, 500, seed=81)
        want = estimate(("tvd", "jsd"), model(m1.C), model(m2.C), 500, seed=81)
        for metric in ("tvd", "jsd"):
            assert got[metric].raw_value == want[metric].raw_value
            assert got[metric].std_error == want[metric].std_error

    def test_low_rank_model_builds_the_dense_one_on_demand(self):
        rng = np.random.default_rng(82)
        kern = self.low_rank_kernel(rng, 40, 5)
        m = predictive_covariance(kern, 0.3)
        K, n, trace = kern.K, kern.n, np.trace(kern.K)
        C = (1.0 - 0.3) * n * (K / trace) + 0.3 * np.eye(n)
        assert np.array_equal(m.C, C) and np.array_equal(m.chol, np.linalg.cholesky(C))
        assert m.jitter_used == 0.0
        assert np.abs(m.U @ m.U.T + 0.3 * np.eye(n) - C).max() < 1e-12

    def test_subset_factor_equals_a_fresh_one(self):
        rng = np.random.default_rng(83)
        pool = self.low_rank_kernel(rng, 200, 10)
        idx = np.sort(rng.choice(200, size=60, replace=False))
        sub = pool.subset(idx)
        fresh = KernelMatrix.from_array(pool.K[np.ix_(idx, idx)]).low_rank
        assert np.array_equal(sub.low_rank.G, fresh.G)
        assert np.array_equal(sub.low_rank.residual, fresh.residual)
        assert sub.low_rank.G.shape == (60, 10)
        G = sub.low_rank.G
        assert np.abs(G @ G.T - sub.K).max() < 1e-12 * np.abs(sub.K).max()

    def test_power_of_two_rescaling_is_exactly_zero(self):
        X = np.random.default_rng(84).standard_normal((30, 5))  # C03's shape
        m1, m2 = model_from_X(X), model_from_X(-2.0 * X)
        assert np.array_equal(m1.U, m2.U)
        for est in estimate(("tvd", "jsd"), m1, m2, 2000, seed=85).values():
            assert est.value == 0.0 and est.std_error == 0.0

    def test_agrees_with_dense_path(self):
        rng = np.random.default_rng(86)
        X1 = rng.standard_normal((200, 20))
        X2 = np.sqrt(1.0 - 0.3 ** 2) * X1 + 0.3 * rng.standard_normal((200, 20))
        m1, m2 = model_from_X(X1, 0.8), model_from_X(X2, 0.8)
        assert m1.U is not None and m2.U is not None
        low = estimate(("tvd", "jsd"), m1, m2, 20_000, seed=87)
        dense = estimate(("tvd", "jsd"), model(m1.C), model(m2.C), 20_000, seed=88)
        for metric in ("tvd", "jsd"):
            assert 0.05 < dense[metric].value < 0.95
            gap = abs(low[metric].raw_value - dense[metric].raw_value)
            assert gap < 4.0 * np.hypot(low[metric].std_error, dense[metric].std_error)


def span_pair(case):
    """(X1, X2, a, kernel1, kernel2) of a low-rank pair at a real size.

    The kernels are read as kernels (``KernelMatrix.from_array``), as a
    user's pooled kernels are, and a is the proportional-noise weight at
    b = 0.01.
    """
    rng = np.random.default_rng(90)
    if case == "shared-latent-300":
        X1 = rng.standard_normal((300, 50))
        X2 = np.sqrt(1.0 - 0.3 ** 2) * X1 + 0.3 * rng.standard_normal((300, 50))
    elif case == "same-span-1000":
        # synth.pooled_kernel_pair's construction: one latent Z, two mixings
        Z = rng.standard_normal((1000, 50))
        A1 = rng.standard_normal((50, 50))
        A2 = 0.8 * A1 + 0.3 * rng.standard_normal((50, 50))
        X1, X2 = Z @ A1, Z @ A2
    elif case == "k8-k20":
        X1, X2 = rng.standard_normal((200, 8)), rng.standard_normal((200, 20))
    elif case in ("nested", "nesting"):
        X1 = rng.standard_normal((200, 12))
        X2 = X1[:, :6] @ rng.standard_normal((6, 6)) + 0.1 * X1[:, 6:]
        if case == "nesting":
            X1, X2 = X2, X1
    else:  # rank-1
        X1, X2 = rng.standard_normal((100, 1)), rng.standard_normal((100, 1))
    n = X1.shape[0]
    a = 0.01 * n / (1.0 + 0.01 * n)
    k1, k2 = (KernelMatrix.from_array(X @ X.T) for X in (X1, X2))
    return X1, X2, a, k1, k2


class TestSpanEigenvalues:
    """The low-rank path's μ against the independent SVD-and-eigvalsh oracle."""

    @pytest.mark.parametrize("case", ["shared-latent-300", "same-span-1000", "k8-k20",
                                      "nested", "nesting", "rank-1"])
    def test_match_the_oracle(self, case):
        X1, X2, a, k1, k2 = span_pair(case)
        m1, m2 = predictive_covariance(k1, a), predictive_covariance(k2, a)
        assert m1.U is not None and m2.U is not None
        mu = _span_eigenvalues(m1, m2)
        lam = np.sort(predictive_pair_eigenvalues(X1, X2, a))
        assert mu.size == lam.size
        assert np.max(np.abs(mu - lam) / lam) < 1e-12

    @pytest.mark.parametrize("case", ["shared-latent-300", "same-span-1000"])
    def test_estimates_match_the_exact_values(self, case):
        X1, X2, a, k1, k2 = span_pair(case)
        lam = predictive_pair_eigenvalues(X1, X2, a)
        ests = estimate(("tvd", "jsd"), predictive_covariance(k1, a),
                        predictive_covariance(k2, a), 20_000, seed=91)
        for metric, exact in (("tvd", tvd_exact_diag(lam)), ("jsd", jsd_exact_diag(lam))):
            assert 0.05 < exact < 0.95  # away from the clamps, where the SE holds
            assert abs(ests[metric].raw_value - exact) < 4.0 * ests[metric].std_error, metric


class TestRoundingRule:
    """Coordinates with |μ - 1| within the rounding bound are dropped, and only those."""

    @staticmethod
    def split_pair(delta):
        # diagonal kernels on the same two stimuli with equal traces:
        # μ = 1 ± s δ/(s + a) with s = (1 - a) n / 2
        n, a = 40, 0.5
        d1, d2 = np.zeros(n), np.zeros(n)
        d1[:2] = 1.0
        d2[:2] = 1.0 + delta, 1.0 - delta
        return [predictive_covariance(KernelMatrix.from_array(np.diag(d)), a) for d in (d1, d2)]

    @pytest.mark.parametrize("multiple, nonzero", [(2.0, True), (0.25, False)])
    def test_nonzero_exactly_above_the_bound(self, multiple, nonzero):
        eps = np.finfo(float).eps
        bound = EIGEN_ROUNDING * 2 * eps  # r = 2, max μ ≈ 1
        m1, m2 = self.split_pair(multiple * bound * 10.5 / 10.0)
        mu = _span_eigenvalues(m1, m2)
        assert mu.size == 2
        assert (np.abs(mu - 1.0).max() > bound * mu.max()) == nonzero
        for est in estimate(("tvd", "jsd"), m1, m2, 2000, seed=92).values():
            assert (est.std_error > 0.0) == nonzero
            assert (est.raw_value != 0.0) == nonzero

    def test_low_rank_rotations_and_scalings_are_exact_zeros(self):
        # C03's low-rank cases: 30 stimuli, 5 features
        rng = np.random.default_rng(93)
        for rep in range(10):
            X = rng.standard_normal((30, 5))
            base = model_from_X(X)
            for Y in (X @ random_orthogonal(rng, 5), 0.1 * X, 7.0 * X):
                m2 = model_from_X(Y)
                assert m2.U is not None and not np.array_equal(base.U, m2.U)
                for est in estimate(("tvd", "jsd"), base, m2, 2000, seed=rep).values():
                    assert est.raw_value == 0.0 and est.std_error == 0.0

    def test_dense_rotations_and_scalings_are_exact_zeros(self):
        # C03's construction, whose 500-feature cases are full rank at 30 stimuli
        rng = np.random.default_rng(42)
        for rep in range(50):
            k = 5 if rep % 2 == 0 else 500
            X = rng.standard_normal((30, k))
            Y = X @ random_orthogonal(rng, k)
            shift = rng.standard_normal(k)
            if k == 5:
                continue
            base = model_from_X(X)
            assert base.U is None  # the dense path
            for m2 in map(model_from_X, (Y, -2.0 * X, 0.1 * X, 7.0 * X)):
                for est in estimate(("tvd", "jsd"), base, m2, 200, seed=rep).values():
                    assert est.raw_value == 0.0 and est.std_error == 0.0
            shifted = model_from_X(X + shift)
            for est in estimate(("tvd", "jsd"), base, shifted, 200, seed=rep).values():
                assert est.raw_value > 0.0  # far above the bound, so not dropped


class TestCalibration:
    """The reported SE predicts the spread of estimates over seeds, on both paths."""

    @pytest.mark.parametrize("path", ["span", "dense"])
    def test_sd_over_seeds_matches_mean_se(self, path):
        rng = np.random.default_rng(94)
        X1 = rng.standard_normal((40, 3))
        X2 = 0.6 * X1 + 0.8 * rng.standard_normal((40, 3))
        m1, m2 = model_from_X(X1), model_from_X(X2)
        assert m1.U is not None and m2.U is not None  # r = 6
        if path == "dense":
            m1, m2 = model(m1.C), model(m2.C)
        runs = [estimate(("tvd", "jsd"), m1, m2, 500, seed=s) for s in range(200)]
        for metric in ("tvd", "jsd"):
            values = np.array([r[metric].raw_value for r in runs])
            assert 0.05 < values.mean() < 0.95
            ratio = values.std(ddof=1) / np.mean([r[metric].std_error for r in runs])
            assert 0.8 < ratio < 1.2, (metric, ratio)


class TestStandardErrors:
    def test_se_predicts_reseeded_spread(self):
        m1, m2 = model([[1.0]]), model([[4.0]])
        vals, ses = [], []
        for s in range(25):
            est = tvd(m1, m2, 2000, seed=1000 + s)
            vals.append(est.value)
            ses.append(est.std_error)
        spread = np.std(vals, ddof=1)
        assert 0.4 * np.mean(ses) < spread < 2.5 * np.mean(ses)

    def test_summand_variance_matches_se(self):
        est = jsd(model([[1.0]]), model([[9.0]]), 4000, seed=2)
        assert est.std_error == pytest.approx(
            np.sqrt(est.summand_variance / est.n_samples), rel=1e-12)

    def test_variance_fields_per_metric(self):
        # tvd and jsd: SE² = v/N; js_distance: √(clamped jsd), the jsd's v, delta-method SE
        rng = np.random.default_rng(44)
        m1, m2 = model(random_spd(rng, 3)), model(random_spd(rng, 3))
        ests = estimate(("tvd", "jsd", "js_distance"), m1, m2, 1000, seed=45)
        for metric in ("tvd", "jsd"):
            est = ests[metric]
            assert est.std_error ** 2 == pytest.approx(est.summand_variance / 1000, rel=1e-12)
        d, js = ests["jsd"], ests["js_distance"]
        assert js.raw_value == js.value == np.sqrt(d.value)
        assert js.summand_variance == d.summand_variance
        assert not js.degenerate_se and js.std_error == d.std_error / (2.0 * js.value)
        assert js.std_error ** 2 != pytest.approx(js.summand_variance / 1000, rel=0.1)


class TestPseudoMetricProperties:
    # equivalence is asserted through the JSD estimate: its clamped value
    # is statistically zero at 3 SE, while the TVD estimator genuinely
    # resolves the ulp-level kernel differences left by float arithmetic

    def test_rotation_equivalence(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10, 4))
        U = random_orthogonal(rng, 4)
        m1 = model_from_X(X)
        m2 = model_from_X(X @ U)
        est = jsd(m1, m2, 10_000, seed=5)
        assert est.value <= 3 * est.std_error

    def test_scale_equivalence(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((10, 4))
        m1 = model_from_X(X)
        m2 = model_from_X(0.1 * X)
        est = jsd(m1, m2, 10_000, seed=6)
        assert est.value <= 3 * est.std_error

    def test_power_of_two_scale_is_bit_exact_zero(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((10, 4))
        m1 = model_from_X(X)
        m2 = model_from_X(-2.0 * X)
        assert np.array_equal(m1.C, m2.C)
        est = tvd(m1, m2, 2000, seed=7)
        assert est.value == 0.0

    def test_shift_is_detected(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((10, 4))
        v = np.ones(4)
        m1 = model_from_X(X)
        m2 = model_from_X(X + v)
        est = jsd(m1, m2, 10_000, seed=8)
        assert est.value > 10 * est.std_error

    def test_triangle_inequality_statistical(self):
        rng = np.random.default_rng(12)
        for trial in range(6):
            ms = [model(random_spd(rng, 3)) for _ in range(3)]
            for metric_fn in (tvd, js_distance):
                d01 = metric_fn(ms[0], ms[1], 4000, seed=300 + trial)
                d12 = metric_fn(ms[1], ms[2], 4000, seed=310 + trial)
                d02 = metric_fn(ms[0], ms[2], 4000, seed=320 + trial)
                slack = 6 * max(d01.std_error, d12.std_error, d02.std_error)
                assert d02.value <= d01.value + d12.value + slack


def _estimate_in_child(queue, models, n_draws, seed):
    queue.put(estimate(("tvd", "jsd"), *models, n_draws, seed))


class TestBothSidesAtOnce:
    """A pair's two sides run at once, side 1 on a helper thread, in row blocks."""

    @staticmethod
    def pairs():
        rng = np.random.default_rng(90)
        dense = model(random_spd(rng, 6)), model(random_spd(rng, 6))
        span = tuple(model_from_X(rng.standard_normal((40, 4)), a=0.3) for _ in range(2))
        assert span[0].U is not None and span[1].U is not None
        return {"dense": dense, "span": span}

    @pytest.mark.parametrize("path", ["dense", "span"])
    def test_threaded_equals_inline(self, path):
        m1, m2 = self.pairs()[path]
        n_draws = 2 * BLOCK_ROWS + 37  # three blocks, the last one short
        threaded_est = estimate(BAYES_METRICS, m1, m2, n_draws, 5)
        threaded_grad = gradients(("tvd", "jsd"), m1, m2, n_draws, 5)
        with mock.patch.object(bayes_metrics, "_on_both_sides",
                               lambda side: (side(0), side(1))):
            assert estimate(BAYES_METRICS, m1, m2, n_draws, 5) == threaded_est
            inline_grad = gradients(("tvd", "jsd"), m1, m2, n_draws, 5)
        for metric, grad in threaded_grad.items():
            assert np.array_equal(grad.d_cov1, inline_grad[metric].d_cov1)
            assert np.array_equal(grad.d_cov2, inline_grad[metric].d_cov2)

    def test_side_one_runs_on_another_thread(self):
        m1, m2 = self.pairs()["dense"]
        threads = []
        real = bayes_metrics._whitened_side

        def record(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        with mock.patch.object(bayes_metrics, "_whitened_side", side_effect=record):
            estimate(("jsd",), m1, m2, 500, 5)
        assert len(set(threads)) == 2

    def test_fork_child_after_parent_estimate(self):
        # the helper thread and BLAS state must not hang a child forked after a call
        models = self.pairs()["dense"]
        want = estimate(("tvd", "jsd"), *models, 3000, 8)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_estimate_in_child, args=(queue, models, 3000, 8))
        child.start()
        try:
            got = queue.get(timeout=60)
            child.join(timeout=60)
            assert not child.is_alive()
        finally:
            child.kill()
        assert got == want

    def test_dense_memory_stays_within_blocks(self):
        rng = np.random.default_rng(91)
        n, n_draws = 300, 100_000
        m1, m2 = model(random_spd(rng, n)), model(random_spd(rng, n))
        tracemalloc.start()
        try:
            estimate(("tvd", "jsd"), m1, m2, n_draws, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few n-wide blocks per side and a few N-vectors; one N×n block is 240 MB
        assert peak < 8 * (6 * BLOCK_ROWS * n + 16 * n_draws)
