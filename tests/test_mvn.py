"""Draws and densities of the zero-mean Gaussian model.

The program draws only z blocks (``standard_normal_blocks``) and maps them
to x = L z in whitened form, so the sampling tests check the z block and
that map. It evaluates log densities only as the whitened per-draw ratio
of ``bayes_metrics``; ``log_density`` below recovers log p(x) from that
ratio against the standard normal, so the density tests check the
estimators' own arithmetic.
"""

import numpy as np
import pytest

from oracles import dense_logpdf
from synth import normal_block, random_spd

from repmetric import bayes_metrics
from repmetric.errors import ValidationError
from repmetric.kernel import GaussianModel, KernelMatrix, predictive_covariance
from repmetric.seeding import BLOCK_ROWS, derive_seed, standard_normal_blocks, stream_generator

LOG_2PI = np.log(2 * np.pi)


def draws(model, n_draws, seed, stream=0):
    """x = L z for the z block of (seed, stream)."""
    return normal_block(n_draws, model.dim, seed, stream) @ model.chol.T


def log_density(model, points):
    """log p(x) = log N(x; 0, I) + d(x), with d = log p/N(0, I) as the estimators compute it.

    The standard normal is the pair's own side, so its z block is x itself.
    """
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    standard = GaussianModel.from_covariance(np.eye(model.dim))
    d = bayes_metrics._whitened_side(standard, model)[1](P)
    return d - 0.5 * (model.dim * LOG_2PI + np.einsum("ij,ij->i", P, P))


class TestSampling:
    def test_identity_covariance_statistics(self):
        N = 100_000
        Z = normal_block(N, 3, seed=123)
        emp = Z.T @ Z / N
        # per-entry sampling SE of the empirical covariance
        se = np.sqrt((np.ones((3, 3)) + np.eye(3)) / N)
        assert np.all(np.abs(emp - np.eye(3)) < 5 * se)

    def test_general_covariance_statistics(self):
        rng = np.random.default_rng(0)
        C = random_spd(rng, 4)
        N = 100_000
        Y = draws(GaussianModel.from_covariance(C), N, seed=99)
        emp = Y.T @ Y / N
        d = np.diag(C)
        se = np.sqrt((np.outer(d, d) + C**2) / N)
        assert np.all(np.abs(emp - C) < 5 * se)

    def test_deterministic(self):
        z1 = normal_block(50, 2, seed=7)
        z2 = normal_block(50, 2, seed=7)
        assert np.array_equal(z1, z2)

    def test_streams_differ(self):
        z0 = normal_block(50, 2, seed=7, stream=0)
        z1 = normal_block(50, 2, seed=7, stream=1)
        assert not np.array_equal(z0, z1)

    def test_scalar_unit_factor_passthrough(self):
        model = GaussianModel.from_covariance([[1.0]])
        assert np.array_equal(draws(model, 1, seed=5), normal_block(1, 1, seed=5))

    @pytest.mark.parametrize("dim", [1, 25, 300])
    def test_row_blocks_are_one_block(self, dim):
        n_draws = 2 * BLOCK_ROWS + 37
        blocks = list(standard_normal_blocks(n_draws, dim, seed=9, stream=1))
        assert [z.shape for z in blocks] == [(BLOCK_ROWS, dim), (BLOCK_ROWS, dim), (37, dim)]
        one = stream_generator(9, 1).standard_normal((n_draws, dim))
        assert np.array_equal(np.concatenate(blocks), one)

    def test_draw_count_validated(self):
        with pytest.raises(ValidationError):
            standard_normal_blocks(0, 1, seed=1)

    @pytest.mark.parametrize("n_draws", [10**30, np.iinfo(np.intp).max + 1])
    def test_unshapeable_draw_count_is_validation_error(self, n_draws):
        # a side's blocks stack to one N-row block, so N is at most numpy's largest length
        model = GaussianModel.from_covariance([[2.0]])
        for call in (bayes_metrics.estimate, bayes_metrics.gradients):
            with pytest.raises(ValidationError,
                               match=f"{n_draws} draws exceed numpy's largest array length"):
                call(("jsd",), model, model, n_draws, seed=1)

    @pytest.mark.parametrize("token", [1.5, None, b"x"])
    def test_seed_tokens_are_strings_or_integers(self, token):
        with pytest.raises(TypeError, match="unsupported seed token type"):
            derive_seed(1, "pair", token)


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        model = GaussianModel.from_covariance([[1.0]])
        lp = log_density(model, [[0.0]])
        assert lp[0] == pytest.approx(-0.5 * LOG_2PI, abs=1e-12)

    def test_closed_form_2d(self):
        model = GaussianModel.from_covariance(np.eye(2))
        lp = log_density(model, [[1.0, 1.0]])
        assert lp[0] == pytest.approx(-LOG_2PI - 1.0, abs=1e-12)

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(1)
        C = random_spd(rng, 5)
        model = GaussianModel.from_covariance(C)
        pts = rng.standard_normal((20, 5)) * 3
        got = log_density(model, pts)
        want = dense_logpdf(C, pts)
        assert np.abs(got - want).max() < 1e-8

    def test_dimension_checked(self):
        m3 = GaussianModel.from_covariance(np.eye(3))
        m2 = GaussianModel.from_covariance(np.eye(2))
        with pytest.raises(ValidationError, match="dimension mismatch"):
            bayes_metrics.estimate(("jsd",), m3, m2, 10, seed=0)

    def test_integrates_to_one_1d(self):
        model = GaussianModel.from_covariance([[2.5]])
        xs = np.linspace(-15, 15, 20_001)[:, None]
        total = np.trapezoid(np.exp(log_density(model, xs)), xs[:, 0])
        assert abs(total - 1.0) < 1e-4

    def test_integrates_to_one_2d(self):
        C = np.array([[1.5, 0.4], [0.4, 0.8]])
        model = GaussianModel.from_covariance(C)
        xs = np.linspace(-10, 10, 501)
        XX, YY = np.meshgrid(xs, xs, indexing="ij")
        pts = np.stack([XX.ravel(), YY.ravel()], axis=1)
        dens = np.exp(log_density(model, pts)).reshape(501, 501)
        total = np.trapezoid(np.trapezoid(dens, xs, axis=1), xs)
        assert abs(total - 1.0) < 1e-4

    def test_entropy_consistency(self):
        # mean log density of own draws matches the analytic value
        rng = np.random.default_rng(2)
        C = random_spd(rng, 3)
        model = GaussianModel.from_covariance(C)
        N = 100_000
        lp = log_density(model, draws(model, N, seed=11))
        analytic = -0.5 * (model.dim * (LOG_2PI + 1.0) + np.linalg.slogdet(C)[1])
        se = lp.std(ddof=1) / np.sqrt(N)
        assert abs(lp.mean() - analytic) < 3 * se


class TestConstruction:
    def test_from_predictive_matches_from_covariance(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((6, 9))
        K = KernelMatrix.from_array(A @ A.T)
        pc = predictive_covariance(K, 0.3)
        assert GaussianModel.from_predictive(pc) is pc
        assert np.array_equal(GaussianModel.from_covariance(pc.C).chol, pc.chol)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValidationError):
            GaussianModel.from_covariance(np.ones((2, 3)))

    def test_log_det_value(self):
        # the whitened log ratio carries -log|C|/2 through diag L⁻¹
        model = GaussianModel.from_covariance(np.diag([1.0, 4.0, 9.0]))
        lp = log_density(model, np.zeros((1, 3)))
        assert lp[0] == pytest.approx(-0.5 * (3 * LOG_2PI + np.log(36.0)), rel=1e-12)
