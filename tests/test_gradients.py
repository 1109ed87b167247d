from unittest import mock

import numpy as np
import pytest

from synth import random_spd

import repmetric.bayes_metrics as bm
from repmetric.bayes_metrics import gradients, jsd, jsd_gradient, tvd, tvd_gradient
from repmetric.errors import ValidationError
from repmetric.kernel import GaussianModel, KernelMatrix, predictive_covariance


def value(metric, C1, C2, n_draws, seed):
    fn = tvd if metric == "tvd" else jsd
    est = fn(GaussianModel.from_covariance(C1), GaussianModel.from_covariance(C2),
             n_draws, seed)
    return est.raw_value


def directional_fd(metric, C1, C2, direction, n_draws, seed, wrt=1, h_scale=1e-6):
    """Central finite difference along a symmetric direction, same draws.

    The default step is 1e-6 of the covariance norm: for the hinge-style
    TVD summands a larger step lets individual samples cross the kink
    between the two evaluations, polluting the difference quotient.
    """
    base = C1 if wrt == 1 else C2
    h = h_scale * np.linalg.norm(base)
    if wrt == 1:
        fp = value(metric, C1 + h * direction, C2, n_draws, seed)
        fm = value(metric, C1 - h * direction, C2, n_draws, seed)
    else:
        fp = value(metric, C1, C2 + h * direction, n_draws, seed)
        fm = value(metric, C1, C2 - h * direction, n_draws, seed)
    return (fp - fm) / (2 * h)


def sym_direction(rng, n):
    D = rng.standard_normal((n, n))
    D = 0.5 * (D + D.T)
    return D / np.linalg.norm(D)


@pytest.mark.parametrize("metric,grad_fn", [("tvd", tvd_gradient), ("jsd", jsd_gradient)])
class TestFiniteDifferenceAgreement:
    def test_random_3x3_pairs(self, metric, grad_fn):
        for trial in range(10):
            rng = np.random.default_rng(11_000 + trial)
            C1 = random_spd(rng, 3)
            C2 = random_spd(rng, 3)
            seed = 40 + trial
            grad = grad_fn(C1, C2, 20_000, seed)
            D = sym_direction(rng, 3)
            for wrt, G in ((1, grad.d_cov1), (2, grad.d_cov2)):
                fd = directional_fd(metric, C1, C2, D, 20_000, seed, wrt=wrt)
                an = float(np.sum(G * D))
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-12)
                assert rel < 1e-4, f"trial {trial} wrt C{wrt}: fd={fd} an={an}"

    def test_gradients_symmetric(self, metric, grad_fn):
        rng = np.random.default_rng(77)
        grad = grad_fn(random_spd(rng, 4), random_spd(rng, 4), 2000, 3)
        assert np.abs(grad.d_cov1 - grad.d_cov1.T).max() < 1e-10
        assert np.abs(grad.d_cov2 - grad.d_cov2.T).max() < 1e-10

    def test_deterministic(self, metric, grad_fn):
        rng = np.random.default_rng(78)
        C1, C2 = random_spd(rng, 3), random_spd(rng, 3)
        g1 = grad_fn(C1, C2, 2000, 9)
        g2 = grad_fn(C1, C2, 2000, 9)
        assert np.array_equal(g1.d_cov1, g2.d_cov1)
        assert np.array_equal(g1.d_cov2, g2.d_cov2)


class TestSpecifiedStepExample:
    def test_coarse_step_pair(self):
        # one fixed pair checked at the coarser h = 1e-5 * ||C|| step;
        # the suite above uses a finer step to stay clear of hinge kinks
        rng = np.random.default_rng(5000)
        C1 = random_spd(rng, 3)
        C2 = random_spd(rng, 3)
        seed = 40
        grad = tvd_gradient(C1, C2, 20_000, seed)
        D = sym_direction(rng, 3)
        fd = directional_fd("tvd", C1, C2, D, 20_000, seed, wrt=1, h_scale=1e-5)
        an = float(np.sum(grad.d_cov1 * D))
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-12) < 1e-4


class TestScalarCase:
    def test_1d_matches_scalar_derivative(self):
        # gradient wrt the single variance entry equals the scalar
        # derivative of the 1-D sampled estimate by finite differences
        C1 = np.array([[1.0]])
        C2 = np.array([[2.5]])
        seed = 11
        grad = tvd_gradient(C1, C2, 20_000, seed)
        h = 1e-5 * 2.5
        fp = value("tvd", C1, [[2.5 + h]], 20_000, seed)
        fm = value("tvd", C1, [[2.5 - h]], 20_000, seed)
        fd = (fp - fm) / (2 * h)
        assert abs(grad.d_cov2[0, 0] - fd) / abs(fd) < 1e-4


class TestStationaryAtEquality:
    def test_jsd_gradient_finite_and_orthogonal_to_zero_direction(self):
        rng = np.random.default_rng(79)
        C = random_spd(rng, 3)
        grad = jsd_gradient(C, C, 5000, seed=4)
        assert np.all(np.isfinite(grad.d_cov1))
        assert np.all(np.isfinite(grad.d_cov2))
        direction = C - C  # zero matrix between identical covariances
        assert float(np.sum(grad.d_cov1 * direction)) == 0.0

    def test_jsd_gradient_near_zero_with_shared_draws(self):
        # with z-draws shared between both models the sampled JSD is
        # minimized exactly at equality, so the gradient vanishes
        rng = np.random.default_rng(80)
        C = random_spd(rng, 3)
        model = GaussianModel.from_covariance(C)
        real = bm.standard_normal_blocks

        def shared(n, dim, seed, stream=0):
            return real(n, dim, seed, stream=0)

        with mock.patch.object(bm, "standard_normal_blocks", side_effect=shared):
            grad = gradients(("jsd",), model, model, 2000, seed=5)["jsd"]
        assert np.abs(grad.d_cov1).max() < 1e-14
        assert np.abs(grad.d_cov2).max() < 1e-14


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            tvd_gradient(np.eye(2), np.eye(3), 100, 0)

    def test_common_random_numbers_with_value(self):
        # the gradient call reuses exactly the draws of the value call
        rng = np.random.default_rng(81)
        C1, C2 = random_spd(rng, 3), random_spd(rng, 3)
        est = tvd(GaussianModel.from_covariance(C1),
                  GaussianModel.from_covariance(C2), 2000, 13)
        grad = tvd_gradient(C1, C2, 2000, 13)
        assert grad.seed == est.seed


def assert_same_gradient(got, want):
    assert (got.metric, got.seed) == (want.metric, want.seed)
    assert np.array_equal(got.d_cov1, want.d_cov1)
    assert np.array_equal(got.d_cov2, want.d_cov2)


class TestGradientsCall:
    """``gradients`` serves every metric from one draw set, like ``estimate``."""

    def test_two_metrics_equal_single_metric_calls(self):
        rng = np.random.default_rng(82)
        m1 = GaussianModel.from_covariance(random_spd(rng, 5))
        m2 = GaussianModel.from_covariance(random_spd(rng, 5))
        both = gradients(("tvd", "jsd"), m1, m2, 3000, 17)
        assert list(both) == ["tvd", "jsd"]
        for metric in ("tvd", "jsd"):
            assert_same_gradient(both[metric], gradients((metric,), m1, m2, 3000, 17)[metric])

    def test_draws_once_per_side_for_all_metrics(self):
        rng = np.random.default_rng(83)
        m1 = GaussianModel.from_covariance(random_spd(rng, 4))
        m2 = GaussianModel.from_covariance(random_spd(rng, 4))
        with mock.patch.object(bm, "standard_normal_blocks",
                               wraps=bm.standard_normal_blocks) as draws:
            gradients(("jsd", "tvd"), m1, m2, 500, 3)
        assert [c.args[3] for c in draws.call_args_list] == [0, 1]  # the streams

    def test_low_rank_models_take_the_dense_path(self):
        # the span path is for values only: gradients use each model's dense factor
        rng = np.random.default_rng(84)
        models = []
        for _ in range(2):
            X = rng.standard_normal((40, 4))
            models.append(predictive_covariance(KernelMatrix.from_array(X @ X.T), 0.3))
        m1, m2 = models
        assert m1.U is not None and m2.U is not None
        got = gradients(("jsd", "tvd"), m1, m2, 2000, 21)
        assert_same_gradient(got["jsd"], jsd_gradient(m1.C, m2.C, 2000, 21))
        assert_same_gradient(got["tvd"], tvd_gradient(m1.C, m2.C, 2000, 21))

    @pytest.mark.parametrize("metrics", [("js_distance",), ("cka",), ("jsd", "cka")],
                             ids=["js_distance", "cka", "jsd-cka"])
    def test_unknown_metric_rejected_before_drawing(self, metrics):
        model = GaussianModel.from_covariance(np.eye(3))
        with mock.patch.object(bm, "standard_normal_blocks") as draws:
            with pytest.raises(ValidationError, match="no gradient for metric"):
                gradients(metrics, model, model, 100, 0)
        draws.assert_not_called()
