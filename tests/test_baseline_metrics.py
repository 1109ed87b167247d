import math

import numpy as np
import pytest

from oracles import (cosine_of_upper_triangles, feature_space_cka,
                     vectorize_and_correlate)
from synth import random_orthogonal

from repmetric.baseline_metrics import (BASELINE_METRICS, cka, cka_distance, distances,
                                        rsa_arccos, rsa_one_minus_corr, shape_metric)
from repmetric.errors import DegenerateRepresentationError, ValidationError
from repmetric.kernel import (KernelMatrix, RepresentationMatrix, gram,
                              squared_distance_matrix)


def kern(X):
    return gram(RepresentationMatrix.from_array(X))


def orthogonal_centered_pair():
    # two kernels whose centered versions have zero inner product
    X1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    X2 = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    return kern(X1), kern(X2)


class TestCka:
    def test_self_alignment(self):
        rng = np.random.default_rng(0)
        K = kern(rng.standard_normal((10, 4)))
        assert cka(K, K) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_centered_kernels(self):
        K1, K2 = orthogonal_centered_pair()
        assert cka(K1, K2) == pytest.approx(0.0, abs=1e-12)

    def test_matches_feature_space_oracle(self):
        rng = np.random.default_rng(1)
        X1 = rng.standard_normal((20, 7))
        X2 = rng.standard_normal((20, 12))
        got = cka(kern(X1), kern(X2))
        assert abs(got - feature_space_cka(X1, X2)) < 1e-8

    def test_constant_representation_degenerate(self):
        X = np.ones((5, 3))
        with pytest.raises(DegenerateRepresentationError):
            cka(kern(X), kern(np.arange(15.0).reshape(5, 3)))

    def test_size_mismatch(self):
        with pytest.raises(ValidationError):
            cka(KernelMatrix.from_array(np.eye(3)), KernelMatrix.from_array(np.eye(4)))

    def test_constant_kernel_rounding_noise_degenerate(self):
        # centering 0.1 * ones leaves only rounding noise, ~1e-17 per entry
        K = KernelMatrix.from_array(0.1 * np.ones((5, 5)))
        rng = np.random.default_rng(17)
        with pytest.raises(DegenerateRepresentationError):
            cka(K, kern(rng.standard_normal((5, 3))))


class TestCkaDistance:
    def test_identical(self):
        rng = np.random.default_rng(2)
        K = kern(rng.standard_normal((8, 3)))
        assert cka_distance(K, K).value == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        K1, K2 = orthogonal_centered_pair()
        assert cka_distance(K1, K2).value == pytest.approx(1.0, abs=1e-12)

    def test_definitional(self):
        rng = np.random.default_rng(3)
        K1, K2 = kern(rng.standard_normal((9, 4))), kern(rng.standard_normal((9, 4)))
        assert cka_distance(K1, K2).value == pytest.approx(1.0 - cka(K1, K2), abs=1e-15)


class TestShapeMetric:
    def test_identical(self):
        rng = np.random.default_rng(4)
        K = kern(rng.standard_normal((8, 3)))
        assert shape_metric(K, K).value == pytest.approx(0.0, abs=1e-6)

    def test_orthogonal_is_right_angle(self):
        K1, K2 = orthogonal_centered_pair()
        assert shape_metric(K1, K2).value == pytest.approx(math.pi / 2, abs=1e-9)

    def test_arccos_of_cka(self):
        rng = np.random.default_rng(5)
        K1, K2 = kern(rng.standard_normal((9, 4))), kern(rng.standard_normal((9, 4)))
        assert shape_metric(K1, K2).value == math.acos(cka(K1, K2))

    def test_triangle_inequality_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            Ks = [kern(rng.standard_normal((8, 5))) for _ in range(3)]
            d01 = shape_metric(Ks[0], Ks[1]).value
            d12 = shape_metric(Ks[1], Ks[2]).value
            d02 = shape_metric(Ks[0], Ks[2]).value
            assert d02 <= d01 + d12 + 1e-12


class TestRsaCorr:
    def test_identical(self):
        rng = np.random.default_rng(7)
        K = kern(rng.standard_normal((8, 3)))
        assert rsa_one_minus_corr(K, K).value == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_distance_vectors(self):
        # hand-built kernels whose squared-distance vectors correlate at -1
        D1 = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        D2 = np.array([[0.0, 3.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]])

        def kernel_from_squared_distances(D2m):
            # K = -(I - 11'/n) D2 (I - 11'/n) / 2 gives back D2 exactly
            n = D2m.shape[0]
            H = np.eye(n) - np.ones((n, n)) / n
            return KernelMatrix.from_array(-0.5 * H @ D2m @ H)

        K1 = kernel_from_squared_distances(D1)
        K2 = kernel_from_squared_distances(D2)
        assert np.allclose(squared_distance_matrix(K1), D1, atol=1e-12)
        res = rsa_one_minus_corr(K1, K2)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_matches_corrcoef_oracle(self):
        rng = np.random.default_rng(8)
        K1, K2 = kern(rng.standard_normal((12, 5))), kern(rng.standard_normal((12, 5)))
        want = 1.0 - vectorize_and_correlate(squared_distance_matrix(K1),
                                             squared_distance_matrix(K2))
        assert abs(rsa_one_minus_corr(K1, K2).value - want) < 1e-12

    def test_unsquared_variant_differs(self):
        rng = np.random.default_rng(9)
        K1, K2 = kern(rng.standard_normal((12, 5))), kern(rng.standard_normal((12, 5)))
        sq = rsa_one_minus_corr(K1, K2, squared=True).value
        unsq = rsa_one_minus_corr(K1, K2, squared=False).value
        assert sq != unsq

    def test_needs_three_stimuli(self):
        with pytest.raises(ValidationError):
            rsa_one_minus_corr(KernelMatrix.from_array(np.eye(2)),
                               KernelMatrix.from_array(np.eye(2)))

    def test_zero_variance_degenerate(self):
        K = KernelMatrix.from_array(np.eye(4))  # all off-diagonal distances equal
        rng = np.random.default_rng(10)
        with pytest.raises(DegenerateRepresentationError):
            rsa_one_minus_corr(K, kern(rng.standard_normal((4, 3))))

    @pytest.mark.parametrize("scale, squared", [(0.7, True), (1.0, False)],
                             ids=["scaled-one-hot", "one-hot-unsquared"])
    def test_rounding_noise_variance_degenerate(self, scale, squared):
        # equal distances whose computed spread is a few ulps, not zero
        K = KernelMatrix.from_array(scale * np.eye(6))
        rng = np.random.default_rng(10)
        with pytest.raises(DegenerateRepresentationError):
            rsa_one_minus_corr(K, kern(rng.standard_normal((6, 3))), squared=squared)


class TestRsaArccos:
    def test_identical(self):
        rng = np.random.default_rng(11)
        K = kern(rng.standard_normal((8, 3)))
        assert rsa_arccos(K, K).value == pytest.approx(0.0, abs=1e-6)

    def test_proportional_vectors_from_scaling(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((8, 3))
        assert rsa_arccos(kern(X), kern(3.0 * X)).value == pytest.approx(0.0, abs=1e-6)

    def test_constant_layer_degenerate(self):
        # every stimulus at the same point: the distance vector is zero
        rng = np.random.default_rng(14)
        with pytest.raises(DegenerateRepresentationError, match="distance vector is zero"):
            rsa_arccos(kern(np.ones((6, 3))), kern(rng.standard_normal((6, 3))))

    def test_matches_cosine_oracle(self):
        rng = np.random.default_rng(13)
        K1, K2 = kern(rng.standard_normal((12, 5))), kern(rng.standard_normal((12, 5)))
        want = math.acos(cosine_of_upper_triangles(squared_distance_matrix(K1),
                                                   squared_distance_matrix(K2)))
        assert abs(rsa_arccos(K1, K2).value - want) < 1e-12


class TestDistances:
    def test_matches_single_metric_functions(self):
        rng = np.random.default_rng(18)
        K1, K2 = kern(rng.standard_normal((12, 5))), kern(rng.standard_normal((12, 5)))
        for squared in (True, False):
            got = distances(["rsa_arccos", "cka", "rsa_corr", "shape"], K1, K2, squared)
            assert list(got) == ["rsa_arccos", "cka", "rsa_corr", "shape"]
            assert got["cka"].value == 1.0 - cka(K1, K2)
            assert got["shape"].value == math.acos(cka(K1, K2))
            assert got["rsa_corr"] == rsa_one_minus_corr(K1, K2, squared)
            assert got["rsa_arccos"] == rsa_arccos(K1, K2, squared)

    def test_undefined_measure_leaves_the_others(self):
        rng = np.random.default_rng(19)
        one_hot = KernelMatrix.from_array(np.eye(6))
        got = distances(BASELINE_METRICS, one_hot, kern(rng.standard_normal((6, 3))))
        assert isinstance(got["rsa_corr"], DegenerateRepresentationError)
        assert all(np.isfinite(got[m].value) for m in ("cka", "shape", "rsa_arccos"))

    @pytest.mark.parametrize("squared", [True, False])
    def test_near_constant_layer_undefined_for_every_measure(self, squared):
        # distances at rounding level of the kernel's largest diagonal entry (about 3);
        # both RSA rules judge the squared distances, also when comparing plain ones
        rng = np.random.default_rng(20)
        near = kern(1.0 + 1e-8 * rng.standard_normal((20, 3)))
        other = kern(rng.standard_normal((20, 3)))
        with pytest.raises(DegenerateRepresentationError, match="zero variance"):
            rsa_one_minus_corr(near, other, squared=squared)
        with pytest.raises(DegenerateRepresentationError, match="distance vector is zero"):
            rsa_arccos(other, near, squared=squared)
        got = distances(BASELINE_METRICS, near, other, squared)
        assert all(isinstance(r, DegenerateRepresentationError) for r in got.values())

    @pytest.mark.parametrize("spread, offset", [(1e-5, 1.0), (1.0, 3e5)],
                             ids=["small-spread", "large-offset"])
    def test_spread_above_rounding_level_is_defined(self, spread, offset):
        rng = np.random.default_rng(21)
        X = offset + spread * rng.standard_normal((20, 3))
        for squared in (True, False):
            got = distances(BASELINE_METRICS, kern(X), kern(rng.standard_normal((20, 3))),
                            squared)
            assert all(np.isfinite(r.value) for r in got.values())

    def test_validation_still_raises(self):
        K3, K4 = KernelMatrix.from_array(np.eye(3)), KernelMatrix.from_array(np.eye(4))
        with pytest.raises(ValidationError, match="sizes differ"):
            distances(["cka"], K3, K4)
        with pytest.raises(ValidationError, match="unknown"):
            distances(["jsd"], K3, K3)
        with pytest.raises(ValidationError, match="3 stimuli"):
            distances(["cka", "rsa_arccos"], np.eye(2), np.eye(2))


class TestInvariances:
    def test_rotation_invariance_all(self):
        rng = np.random.default_rng(14)
        X1 = rng.standard_normal((10, 6))
        X2 = rng.standard_normal((10, 6))
        U = random_orthogonal(rng, 6)
        K1, K2, K2r = kern(X1), kern(X2), kern(X2 @ U)
        assert abs(cka_distance(K1, K2).value - cka_distance(K1, K2r).value) < 1e-8
        assert abs(shape_metric(K1, K2).value - shape_metric(K1, K2r).value) < 1e-8
        assert abs(rsa_one_minus_corr(K1, K2).value
                   - rsa_one_minus_corr(K1, K2r).value) < 1e-8
        assert abs(rsa_arccos(K1, K2).value - rsa_arccos(K1, K2r).value) < 1e-8

    def test_offset_invariance_all(self):
        rng = np.random.default_rng(15)
        X1 = rng.standard_normal((10, 6))
        X2 = rng.standard_normal((10, 6))
        v = 5.0 * rng.standard_normal(6)
        K1, K2, K2s = kern(X1), kern(X2), kern(X2 + v)
        assert abs(cka_distance(K1, K2).value - cka_distance(K1, K2s).value) < 1e-8
        assert abs(shape_metric(K1, K2).value - shape_metric(K1, K2s).value) < 1e-8
        assert abs(rsa_one_minus_corr(K1, K2).value
                   - rsa_one_minus_corr(K1, K2s).value) < 1e-8
        assert abs(rsa_arccos(K1, K2).value - rsa_arccos(K1, K2s).value) < 1e-8

    def test_ranges(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            K1 = kern(rng.standard_normal((8, 4)))
            K2 = kern(rng.standard_normal((8, 4)))
            assert 0.0 <= cka_distance(K1, K2).value <= 1.0
            assert 0.0 <= shape_metric(K1, K2).value <= math.pi / 2
            assert 0.0 <= rsa_one_minus_corr(K1, K2).value <= 2.0
            assert 0.0 <= rsa_arccos(K1, K2).value <= math.pi


class TestDoubleRange:
    """Kernels are scaled by exact powers of two where centering could overflow."""

    def test_top_of_the_range(self):
        big, small = np.diag([1e308, 1.0, 1.0]), np.diag([2.0, 1.0, 1.0])
        got = distances(("cka", "shape", "rsa_corr"), big, small)
        want = distances(("cka", "shape", "rsa_corr"), np.ldexp(big, -1000), small)
        assert {m: r.value for m, r in got.items()} == {m: r.value for m, r in want.items()}
        assert got["cka"].value == pytest.approx(0.14250707428745557, rel=1e-12)
        assert got["shape"].value == pytest.approx(math.acos(1.0 - 0.14250707428745557),
                                                   rel=1e-12)
        assert got["rsa_corr"].value == pytest.approx(0.0, abs=1e-12)  # [a, a, b] both ways

    @pytest.mark.parametrize("squared", [True, False])
    def test_ordinary_values_keep_their_bits(self, squared):
        # 2^±600 takes the scaled path, 2^±300 and 1 the direct one: all agree bit for bit
        rng = np.random.default_rng(18)
        for _ in range(5):
            K1 = kern(rng.standard_normal((12, 4))).K
            K2 = kern(rng.standard_normal((12, 6))).K
            want = distances(BASELINE_METRICS, K1, K2, squared)
            for j in (-600, -300, 300, 600):
                got = distances(BASELINE_METRICS, np.ldexp(K1, j), np.ldexp(K2, -j), squared)
                assert {m: r.value for m, r in got.items()} == \
                    {m: r.value for m, r in want.items()}
