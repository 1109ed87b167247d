import numpy as np
import pytest

from synth import random_spd

from repmetric.bayes_metrics import jsd, jsd_gradient, tvd, tvd_gradient
from repmetric.errors import ValidationError
from repmetric.kernel import GaussianModel


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
        from repmetric.bayes_metrics import _gradient
        from unittest import mock
        import repmetric.bayes_metrics as bm

        rng = np.random.default_rng(80)
        C = random_spd(rng, 3)
        real = bm.standard_normal_block

        def shared(n, dim, seed, stream=0):
            return real(n, dim, seed, stream=0)

        with mock.patch.object(bm, "standard_normal_block", side_effect=shared):
            grad = _gradient("jsd", C, C, 2000, seed=5)
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
