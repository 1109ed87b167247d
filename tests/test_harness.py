from unittest import mock

import numpy as np
import pytest

from synth import kernels_same_stimuli, pooled_kernel_pair, random_orthogonal

from repmetric import baseline_metrics, bayes_metrics
from repmetric.errors import RepmetricError, ValidationError
from repmetric.harness import (heuristic_a, load_layer_kernels, pairwise_matrix,
                               snr_sweep, stability_study)
from repmetric.kernel import KernelMatrix, RepresentationMatrix, gram
from repmetric.matrix_io import (LayerManifest, ManifestEntry, MatrixKind,
                                 write_matrix)


class TestHeuristicA:
    def test_hundred_images_gives_half(self):
        assert heuristic_a(100, 1 / 100) == 0.5

    def test_two_hundred_images_gives_two_thirds(self):
        assert heuristic_a(200, 1 / 100) == 2 / 3

    def test_zero_images(self):
        assert heuristic_a(0, 0.3) == 0.0

    def test_range(self):
        for n in (1, 10, 1000, 10**6):
            for b in (1e-6, 0.01, 1.0, 100.0):
                assert 0.0 <= heuristic_a(n, b) < 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            heuristic_a(-1, 0.01)
        with pytest.raises(ValidationError):
            heuristic_a(10, -0.5)

    @pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
    def test_nonfinite_b_rejected(self, b):
        with pytest.raises(ValidationError, match="finite"):
            heuristic_a(10, b)

    def test_overflowing_product_gives_the_limit(self):
        assert heuristic_a(300, 1e308) == 1.0
        assert heuristic_a(300, 1e300) == 1.0  # finite b*n: the same expression rounds to 1


class TestPairwiseMatrix:
    def test_duplicated_layer_is_zero(self):
        rng = np.random.default_rng(0)
        K = gram(RepresentationMatrix.from_array(rng.standard_normal((12, 5))))
        layers = [("first", K), ("second", K)]
        mats = pairwise_matrix(layers, ["jsd", "tvd", "cka", "rsa_corr"],
                               a=0.5, n_samples=2000, seed=1)
        for metric in ("jsd", "tvd"):
            dm = mats[metric]
            assert dm.values[0, 1] <= 3 * dm.std_errors[0, 1]
        assert mats["cka"].values[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert mats["rsa_corr"].values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_equivalent_vs_independent_layers(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 8))
        U = random_orthogonal(rng, 8)
        layers = [
            ("base", gram(RepresentationMatrix.from_array(X))),
            ("rotated", gram(RepresentationMatrix.from_array(X @ U))),
            ("independent", gram(RepresentationMatrix.from_array(
                rng.standard_normal((20, 8))))),
        ]
        mats = pairwise_matrix(layers, ["jsd"], a=0.5, n_samples=10_000, seed=2)
        dm = mats["jsd"]
        i = {lab: k for k, lab in enumerate(dm.labels)}
        near = dm.values[i["base"], i["rotated"]]
        far = dm.values[i["base"], i["independent"]]
        assert near <= 3 * dm.std_errors[i["base"], i["rotated"]]
        assert far > 10 * dm.std_errors[i["base"], i["independent"]]

    def test_bitwise_symmetric_and_zero_diagonal(self):
        rng = np.random.default_rng(2)
        layers = kernels_same_stimuli(rng, 10, 6, 4)
        mats = pairwise_matrix(layers, ["jsd", "shape"], a=0.3, n_samples=1000, seed=3)
        for dm in mats.values():
            assert np.array_equal(dm.values, dm.values.T)
            assert np.all(np.diag(dm.values) == 0.0)
            assert np.all(dm.values >= 0.0)

    def test_entry_order_does_not_matter(self):
        rng = np.random.default_rng(3)
        layers = kernels_same_stimuli(rng, 10, 6, 3)
        m1 = pairwise_matrix(layers, ["jsd"], a=0.5, n_samples=1500, seed=4)["jsd"]
        m2 = pairwise_matrix(layers[::-1], ["jsd"], a=0.5, n_samples=1500, seed=4)["jsd"]
        i2 = {lab: k for k, lab in enumerate(m2.labels)}
        for x, lx in enumerate(m1.labels):
            for y, ly in enumerate(m1.labels):
                assert m1.values[x, y] == m2.values[i2[lx], i2[ly]]

    def test_thread_count_does_not_matter(self):
        rng = np.random.default_rng(4)
        dense = kernels_same_stimuli(rng, 10, 6, 4)
        # rank 6 <= 40/4 takes the low-rank path, rank 40 the dense one
        mixed = kernels_same_stimuli(rng, 40, 6, 2) + [
            (f"full{j}", gram(RepresentationMatrix.from_array(rng.standard_normal((40, 40)))))
            for j in range(2)]
        for layers in (dense, mixed):
            m1 = pairwise_matrix(layers, ["jsd", "cka"], a=0.5, n_samples=1500,
                                 seed=5, threads=1)
            m2 = pairwise_matrix(layers, ["jsd", "cka"], a=0.5, n_samples=1500,
                                 seed=5, threads=4)
            for metric in ("jsd", "cka"):
                assert np.array_equal(m1[metric].values, m2[metric].values)

    def test_mixed_sizes_rejected(self):
        k1 = KernelMatrix.from_array(np.eye(4))
        k2 = KernelMatrix.from_array(np.eye(5))
        with pytest.raises(ValidationError, match="mixed"):
            pairwise_matrix([("a", k1), ("b", k2)], ["cka"], 0.5, 100, 0)

    def test_unknown_metric_rejected(self):
        k = KernelMatrix.from_array(np.eye(4))
        with pytest.raises(ValidationError, match="unknown"):
            pairwise_matrix([("a", k), ("b", k)], ["nope"], 0.5, 100, 0)

    def test_abort_reports_pair(self):
        rng = np.random.default_rng(5)
        const = gram(RepresentationMatrix.from_array(np.ones((6, 3))))
        good = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        with pytest.raises(RepmetricError, match=r"\(flat, good\)"):
            pairwise_matrix([("flat", const), ("good", good)], ["cka"], 0.5, 100, 0)

    def test_skip_records_holes(self):
        rng = np.random.default_rng(6)
        const = gram(RepresentationMatrix.from_array(np.ones((6, 3))))
        good1 = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        good2 = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        layers = [("flat", const), ("g1", good1), ("g2", good2)]
        mats = pairwise_matrix(layers, ["cka", "jsd"], a=0.5, n_samples=500,
                               seed=0, on_error="skip")
        cka = mats["cka"]
        assert len(cka.holes) == 2  # flat against both good layers
        assert np.isnan(cka.values[0, 1])
        assert not np.isnan(cka.values[1, 2])
        # jsd itself works fine on the constant layer, so no holes there
        assert mats["jsd"].holes == ()
        assert not np.any(np.isnan(mats["jsd"].values))

    def test_bayes_metrics_share_one_draw_set_per_pair(self):
        rng = np.random.default_rng(20)
        layers = kernels_same_stimuli(rng, 8, 4, 3)
        with mock.patch.object(bayes_metrics, "standard_normal_block",
                               wraps=bayes_metrics.standard_normal_block) as spy:
            pairwise_matrix(layers, ["jsd", "tvd", "js_distance"], a=0.5,
                            n_samples=200, seed=21)
        assert spy.call_count == 2 * 3  # one draw per model, three pairs

    def test_baselines_prepare_each_kernel_once_per_pair(self):
        rng = np.random.default_rng(24)
        layers = kernels_same_stimuli(rng, 8, 4, 3)
        with mock.patch.object(baseline_metrics, "centered_kernel",
                               wraps=baseline_metrics.centered_kernel) as centered, \
                mock.patch.object(baseline_metrics, "squared_distance_matrix",
                                  wraps=baseline_metrics.squared_distance_matrix) as dist:
            pairwise_matrix(layers, ["cka", "shape", "rsa_corr", "rsa_arccos"], a=0.5,
                            n_samples=10, seed=25)
        assert centered.call_count == dist.call_count == 2 * 3  # both kernels, three pairs

    def test_skip_holes_are_per_metric(self):
        rng = np.random.default_rng(26)
        one_hot = KernelMatrix.from_array(np.eye(6))  # equal distances: no rsa_corr
        good1 = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        good2 = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        layers = [("g1", good1), ("g2", good2), ("one_hot", one_hot)]
        mats = pairwise_matrix(layers, ["jsd", "cka", "shape", "rsa_corr", "rsa_arccos"],
                               a=0.5, n_samples=100, seed=27, on_error="skip")
        reason = "distance vector has zero variance"
        assert mats["rsa_corr"].holes == (("g1", "one_hot", reason), ("g2", "one_hot", reason))
        for metric in ("jsd", "cka", "shape", "rsa_arccos"):
            assert mats[metric].holes == ()
            assert np.isfinite(mats[metric].values).all()

    def test_skip_records_holes_for_layer_without_distribution(self):
        rng = np.random.default_rng(22)
        zero = KernelMatrix.from_array(np.zeros((6, 6)))  # trace 0: no predictive
        good1 = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        good2 = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        layers = [("zero", zero), ("g1", good1), ("g2", good2)]
        mats = pairwise_matrix(layers, ["tvd", "jsd", "js_distance"], a=0.5,
                               n_samples=300, seed=23, on_error="skip")
        reason = "layer 'zero': kernel trace is not positive; cannot build a predictive distribution"
        for dm in mats.values():
            assert dm.holes == (("g1", "zero", reason), ("g2", "zero", reason))
            assert np.isnan(dm.values[0, 1:]).all() and np.isnan(dm.std_errors[1:, 0]).all()
            assert np.isfinite(dm.values[1, 2]) and dm.values[1, 2] == dm.values[2, 1]
            assert dm.std_errors[1, 2] > 0

    def test_many_layers_pair_count(self):
        rng = np.random.default_rng(7)
        layers = kernels_same_stimuli(rng, 8, 4, 25)
        mats = pairwise_matrix(layers, ["cka"], a=0.5, n_samples=10, seed=1)
        iu = np.triu_indices(25, k=1)
        assert len(iu[0]) == 300
        assert np.isfinite(mats["cka"].values[iu]).all()


class TestManifestLoading:
    def test_representation_and_kernel_entries(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((10, 4))
        K = gram(RepresentationMatrix.from_array(X))
        write_matrix(X, tmp_path / "rep.rmx", MatrixKind.REPRESENTATION)
        write_matrix(K.K, tmp_path / "kern.csv", MatrixKind.KERNEL, labels=K.labels)
        manifest = LayerManifest(entries=(
            ManifestEntry("as_rep", "rep.rmx", MatrixKind.REPRESENTATION),
            ManifestEntry("as_kern", "kern.csv", MatrixKind.KERNEL),
        ), base_dir=tmp_path)
        layers = load_layer_kernels(manifest)
        assert np.abs(layers[0][1].K - layers[1][1].K).max() < 1e-12

    def test_distance_entries_rejected(self, tmp_path):
        write_matrix(np.zeros((3, 3)), tmp_path / "d.rmx", MatrixKind.DISTANCE)
        manifest = LayerManifest(entries=(
            ManifestEntry("d", "d.rmx", MatrixKind.DISTANCE),), base_dir=tmp_path)
        with pytest.raises(ValidationError, match="distance"):
            load_layer_kernels(manifest)


class TestSnrSweep:
    def test_pure_noise_limit(self):
        rng = np.random.default_rng(9)
        K1, K2 = pooled_kernel_pair(rng, pool_size=60, k=10)
        grid = snr_sweep(K1, K2, [10, 30], [1.0], 2000, seed=10)
        for row in grid.grid["jsd"]:
            est = row[0]
            assert est.value <= 3 * est.std_error  # both models are pure noise

    def test_identical_pools(self):
        rng = np.random.default_rng(10)
        K1, _ = pooled_kernel_pair(rng, pool_size=60, k=10)
        grid = snr_sweep(K1, K1, [10, 30], [0.2, 0.8], 2000, seed=11)
        for row in grid.grid["jsd"]:
            for est in row:
                assert est.value <= 3 * est.std_error

    def test_exceeding_pool_rejected(self):
        rng = np.random.default_rng(11)
        K1, K2 = pooled_kernel_pair(rng, pool_size=40, k=10)
        with pytest.raises(ValidationError, match="exceeds"):
            snr_sweep(K1, K2, [100], [0.5], 100, seed=0)

    def test_grid_shape_and_proportional_slice(self):
        rng = np.random.default_rng(12)
        K1, K2 = pooled_kernel_pair(rng, pool_size=50, k=10)
        grid = snr_sweep(K1, K2, [10, 20, 40], [0.1, 0.5], 1000, seed=13,
                         b=0.02, metrics=("jsd", "tvd"))
        assert len(grid.grid["jsd"]) == 3
        assert all(len(row) == 2 for row in grid.grid["jsd"])
        assert len(grid.proportional["tvd"]) == 3
        for n, (a_prop, _) in zip(grid.n_values, grid.proportional["jsd"]):
            assert a_prop == heuristic_a(n, 0.02)

    def test_noise_kind_variance(self):
        rng = np.random.default_rng(13)
        K1, K2 = pooled_kernel_pair(rng, pool_size=30, k=5)
        g1 = snr_sweep(K1, K2, [10], [1.0], 500, seed=14, noise_kind="variance")
        g2 = snr_sweep(K1, K2, [10], [0.5], 500, seed=14, noise_kind="a")
        assert g1.grid["jsd"][0][0].value == g2.grid["jsd"][0][0].value


class TestStabilityStudy:
    def test_reproducible(self):
        rng = np.random.default_rng(14)
        layers = kernels_same_stimuli(rng, 40, 6, 3)
        r1 = stability_study(layers, 10, 3, ["jsd", "cka"], 0.01, 500, seed=15)
        r2 = stability_study(layers, 10, 3, ["jsd", "cka"], 0.01, 500, seed=15)
        assert r1.per_pair_sd == r2.per_pair_sd

    def test_full_pool_subsets_are_identical(self):
        # n_images = pool size forces the same subset every repeat, so
        # baseline spreads vanish and Bayes spreads reduce to MC noise
        rng = np.random.default_rng(15)
        layers = kernels_same_stimuli(rng, 12, 6, 3)
        rep = stability_study(layers, 12, 4, ["cka", "jsd"], 0.01, 4000, seed=16)
        assert rep.max_sd["cka"] == 0.0
        mc_sd = np.sqrt(0.40 / 4000)
        assert rep.max_sd["jsd"] <= 3 * mc_sd

    def test_summary_consistency(self):
        rng = np.random.default_rng(16)
        layers = kernels_same_stimuli(rng, 40, 6, 4)
        rep = stability_study(layers, 15, 4, ["cka", "rsa_arccos"], 0.01, 100, seed=17)
        for metric in rep.metrics:
            assert rep.median_sd[metric] <= rep.max_sd[metric]
            assert all(sd >= 0 for sd in rep.per_pair_sd[metric].values())
        assert len(rep.pair_labels) == 6
        assert rep.a == heuristic_a(15, 0.01)

    def test_validation(self):
        rng = np.random.default_rng(17)
        layers = kernels_same_stimuli(rng, 10, 4, 2)
        with pytest.raises(ValidationError):
            stability_study(layers, 50, 3, ["cka"], 0.01, 100, seed=0)
        with pytest.raises(ValidationError):
            stability_study(layers, 5, 1, ["cka"], 0.01, 100, seed=0)
