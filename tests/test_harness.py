import os
import subprocess
import sys
from functools import cached_property
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from synth import kernels_same_stimuli, pooled_kernel_pair, random_orthogonal

from repmetric import baseline_metrics, bayes_metrics, harness, mds
from repmetric import kernel as kernel_module
from repmetric.errors import RepmetricError, ValidationError
from repmetric.harness import (heuristic_a, load_layer_kernels, pairwise_matrix,
                               snr_sweep, stability_study)
from repmetric.kernel import KernelMatrix, LowRankFactor, RepresentationMatrix, gram
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

    def test_pair_order_does_not_matter_on_either_path(self):
        rng = np.random.default_rng(4)
        dense = kernels_same_stimuli(rng, 10, 6, 4)
        # rank 6 <= 40/4 takes the low-rank path, rank 40 the dense one
        mixed = kernels_same_stimuli(rng, 40, 6, 2) + [
            (f"full{j}", gram(RepresentationMatrix.from_array(rng.standard_normal((40, 40)))))
            for j in range(2)]
        metrics = ["jsd", "cka", "shape", "rsa_corr", "rsa_arccos"]
        for layers in (dense, mixed):
            m1 = pairwise_matrix(layers, metrics, a=0.5, n_samples=1500, seed=5)
            m2 = pairwise_matrix(layers[::-1], metrics, a=0.5, n_samples=1500, seed=5)
            for metric in metrics:
                assert np.array_equal(m1[metric].values, m2[metric].values[::-1, ::-1])

    def test_mixed_sizes_rejected(self):
        k1 = KernelMatrix.from_array(np.eye(4))
        k2 = KernelMatrix.from_array(np.eye(5))
        with pytest.raises(ValidationError, match="mixed"):
            pairwise_matrix([("a", k1), ("b", k2)], ["cka"], 0.5, 100, 0)

    def test_unknown_metric_rejected(self):
        k = KernelMatrix.from_array(np.eye(4))
        with pytest.raises(ValidationError, match="unknown"):
            pairwise_matrix([("a", k), ("b", k)], ["nope"], 0.5, 100, 0)

    @pytest.mark.parametrize("names, match", [(["a"], "at least 2 layers"),
                                              (["a", "a"], "unique")],
                             ids=["one-layer", "repeated-name"])
    def test_too_few_or_repeated_layers_rejected(self, names, match):
        k = KernelMatrix.from_array(np.eye(4))
        with pytest.raises(ValidationError, match=match):
            pairwise_matrix([(name, k) for name in names], ["cka"], 0.5, 100, 0)

    def test_unknown_on_error_rejected(self):
        k = KernelMatrix.from_array(np.eye(4))
        with pytest.raises(ValidationError, match="on_error"):
            pairwise_matrix([("a", k), ("b", k)], ["cka"], 0.5, 100, 0, on_error="x")

    def test_abort_reports_pair(self):
        rng = np.random.default_rng(5)
        const = gram(RepresentationMatrix.from_array(np.ones((6, 3))))
        good = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        with pytest.raises(RepmetricError, match=r"^layer 'flat': centered kernel"):
            pairwise_matrix([("flat", const), ("good", good)], ["cka"], 0.5, 100, 0)

    def test_abort_stops_before_any_pair_runs(self):
        rng = np.random.default_rng(8)
        layers = kernels_same_stimuli(rng, 6, 3, 2) + [
            ("flat", gram(RepresentationMatrix.from_array(np.ones((6, 3)))))]
        with mock.patch.object(bayes_metrics, "estimate",
                               wraps=bayes_metrics.estimate) as spy, \
                pytest.raises(RepmetricError, match="^layer 'flat': "):
            pairwise_matrix(layers, ["jsd", "cka"], 0.5, 100, 0)
        assert spy.call_count == 0

    def test_two_degenerate_layers_give_the_first_label(self):
        flat = gram(RepresentationMatrix.from_array(np.ones((6, 3))))
        zero = KernelMatrix.from_array(np.zeros((6, 6)))
        rng = np.random.default_rng(9)
        good = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        layers = [("zero", zero), ("good", good), ("flat", flat)]
        mats = pairwise_matrix(layers, ["cka"], 0.5, 100, 0, on_error="skip")
        reason = "centered kernel has zero norm (constant representation)"
        assert mats["cka"].holes == (("good", "zero", f"layer 'zero': {reason}"),
                                     ("flat", "zero", f"layer 'flat': {reason}"),
                                     ("flat", "good", f"layer 'flat': {reason}"))

    def test_failed_model_and_degenerate_baseline_keep_their_own_reasons(self):
        rng = np.random.default_rng(10)
        zero = KernelMatrix.from_array(np.zeros((6, 6)))  # no predictive, no cka
        good = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        mats = pairwise_matrix([("good", good), ("zero", zero)], ["jsd", "tvd", "cka"],
                               0.5, 100, 0, on_error="skip")
        model_reason = ("layer 'zero': kernel trace is not positive; "
                        "cannot build a predictive distribution")
        assert mats["jsd"].holes == mats["tvd"].holes == (("good", "zero", model_reason),)
        assert mats["cka"].holes == (
            ("good", "zero",
             "layer 'zero': centered kernel has zero norm (constant representation)"),)

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
        with mock.patch.object(bayes_metrics, "standard_normal_blocks",
                               wraps=bayes_metrics.standard_normal_blocks) as spy:
            pairwise_matrix(layers, ["jsd", "tvd", "js_distance"], a=0.5,
                            n_samples=200, seed=21)
        assert spy.call_count == 2 * 3  # one draw per model, three pairs

    def test_baselines_prepare_each_kernel_once_per_layer(self):
        rng = np.random.default_rng(24)
        layers = kernels_same_stimuli(rng, 8, 4, 3)
        with mock.patch.object(baseline_metrics, "centered_kernel",
                               wraps=baseline_metrics.centered_kernel) as centered, \
                mock.patch.object(baseline_metrics, "squared_distance_matrix",
                                  wraps=baseline_metrics.squared_distance_matrix) as dist:
            pairwise_matrix(layers, ["cka", "shape", "rsa_corr", "rsa_arccos"], a=0.5,
                            n_samples=10, seed=25)
        assert centered.call_count == dist.call_count == 3  # once per layer, not 2 per pair

    @pytest.mark.parametrize("metrics, centerings, distance_builds", [
        (["rsa_corr"], 0, 3), (["rsa_arccos"], 0, 3), (["rsa_arccos", "rsa_corr"], 0, 3),
        (["cka"], 3, 0), (["shape"], 3, 0), (["shape", "cka"], 3, 0)])
    def test_baselines_build_only_the_operands_they_read(self, metrics, centerings,
                                                         distance_builds):
        rng = np.random.default_rng(24)
        layers = kernels_same_stimuli(rng, 8, 4, 3)
        with mock.patch.object(baseline_metrics, "centered_kernel",
                               wraps=baseline_metrics.centered_kernel) as centered, \
                mock.patch.object(baseline_metrics, "squared_distance_matrix",
                                  wraps=baseline_metrics.squared_distance_matrix) as dist:
            pairwise_matrix(layers, metrics, a=0.5, n_samples=10, seed=25)
        assert (centered.call_count, dist.call_count) == (centerings, distance_builds)

    @pytest.mark.parametrize("squared", [True, False])
    def test_baselines_match_per_pair_distances(self, squared):
        rng = np.random.default_rng(28)
        huge = np.ldexp(gram(RepresentationMatrix.from_array(rng.standard_normal((8, 4)))).K, 700)
        near = gram(RepresentationMatrix.from_array(1.0 + 1e-8 * rng.standard_normal((8, 4))))
        layers = kernels_same_stimuli(rng, 8, 4, 3) + [
            ("huge", KernelMatrix.from_array(huge)),  # outside [2^-400, 2^400]: scaled
            ("one_hot", KernelMatrix.from_array(np.eye(8))),  # equal distances: no rsa_corr
            ("near", near)]  # spread at rounding level of its scale: no baseline at all
        metrics = baseline_metrics.BASELINE_METRICS
        mats = pairwise_matrix(layers, metrics, a=0.5, n_samples=10, seed=29,
                               rsa_squared=squared, on_error="skip")
        kernels = dict(layers)
        for metric in metrics:
            dm = mats[metric]
            holes = []
            for i, j in zip(*np.triu_indices(len(layers), k=1)):
                la, lb = sorted((dm.labels[i], dm.labels[j]))
                r = baseline_metrics.distances(metrics, kernels[la], kernels[lb], squared)[metric]
                if isinstance(r, RepmetricError):
                    assert np.isnan(dm.values[i, j]) and np.isnan(dm.values[j, i])
                    bad = "near" if "near" in (la, lb) else "one_hot"
                    holes.append((la, lb, f"layer {bad!r}: {r}"))
                else:
                    assert dm.values[i, j] == dm.values[j, i] == r.value
            assert dm.holes == tuple(holes)
        for metric in metrics:  # near against all five others
            assert [h[:2] for h in mats[metric].holes
                    if h[2].startswith("layer 'near'")] == [
                ("layer0", "near"), ("layer1", "near"), ("layer2", "near"), ("huge", "near"),
                ("near", "one_hot")]
        reason = "layer 'one_hot': distance vector has zero variance"
        assert [h[2] for h in mats["rsa_corr"].holes
                if h[2].startswith("layer 'one_hot'")] == [reason] * 4
        assert np.isfinite(mats["rsa_arccos"].values[:5, :5]).all()  # one_hot keeps rsa_arccos

    def test_skip_holes_are_per_metric(self):
        rng = np.random.default_rng(26)
        one_hot = KernelMatrix.from_array(np.eye(6))  # equal distances: no rsa_corr
        good1 = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        good2 = gram(RepresentationMatrix.from_array(rng.standard_normal((6, 3))))
        layers = [("g1", good1), ("g2", good2), ("one_hot", one_hot)]
        mats = pairwise_matrix(layers, ["jsd", "cka", "shape", "rsa_corr", "rsa_arccos"],
                               a=0.5, n_samples=100, seed=27, on_error="skip")
        reason = "layer 'one_hot': distance vector has zero variance"
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

    def test_distance_entry_rejected_before_its_file_is_read(self, tmp_path):
        manifest = LayerManifest(entries=(
            ManifestEntry("d", "absent.rmx", MatrixKind.DISTANCE),), base_dir=tmp_path)
        with pytest.raises(ValidationError,
                           match="^layer 'd': distance matrices cannot be compared$"):
            load_layer_kernels(manifest)

    @pytest.mark.parametrize("kind", [MatrixKind.REPRESENTATION, MatrixKind.KERNEL])
    def test_errors_after_the_read_name_what_was_loaded(self, tmp_path, kind):
        path = tmp_path / "big.csv"
        write_matrix(np.full((2, 2), 1e308), path, kind)
        with pytest.raises(ValidationError, match="^layer 'x': .*overflow"):
            harness.load_kernel(path, kind, "layer 'x'")
        absent = tmp_path / "absent.csv"
        with pytest.raises(ValidationError, match=f"^{absent}: no such file$"):
            harness.load_kernel(absent, kind, "layer 'x'")


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

    @pytest.mark.parametrize("pool_sizes, n_values, noise_values, kwargs, match", [
        ((40, 30), [10], [0.5], {}, "different sizes"),
        ((40, 40), [10], [0.5], {"metrics": ("jsd", "cka")}, "supports jsd/tvd"),
        ((40, 40), [], [0.5], {}, "empty sweep axes"),
        ((40, 40), [10], [], {}, "empty sweep axes"),
        ((40, 40), [10], [-0.5], {"noise_kind": "variance"}, "noise variance"),
        ((40, 40), [10], [0.5], {"noise_kind": "snr"}, "noise_kind"),
        ((40, 40), [10], [np.inf], {"noise_kind": "variance"}, "noise variance inf must"),
        ((40, 40), [10], [np.nan], {"noise_kind": "variance"}, "noise variance nan must"),
    ], ids=["pool-sizes", "metric", "empty-n", "empty-noise", "negative-variance",
            "noise-kind", "infinite-variance", "nan-variance"])
    def test_invalid_arguments_rejected(self, pool_sizes, n_values, noise_values, kwargs,
                                        match):
        rng = np.random.default_rng(15)
        K1 = pooled_kernel_pair(rng, pool_size=pool_sizes[0], k=5)[0]
        K2 = pooled_kernel_pair(rng, pool_size=pool_sizes[1], k=5)[1]
        with pytest.raises(ValidationError, match=match):
            snr_sweep(K1, K2, n_values, noise_values, 100, seed=0, **kwargs)

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

    def test_cells_slice_the_pools(self):
        K1, K2 = pooled_kernel_pair(np.random.default_rng(16), pool_size=60, k=8)
        K1, K2 = KernelMatrix.from_array(K1.K), KernelMatrix.from_array(K2.K)
        cells, sweep_cell = [], harness._sweep_cell

        def spy(k1, k2, *args):
            cells.append((k1, k2, args, sweep_cell(k1, k2, *args)))
            return cells[-1][-1]

        with mock.patch.object(harness, "_sweep_cell", spy):
            snr_sweep(K1, K2, [10, 30, 60], [0.2, 0.7], 800, seed=17, metrics=("jsd", "tvd"))
        assert len(cells) == 9
        for k1, k2, args, ests in cells:
            assert np.shares_memory(k1.K, K1.K) and np.shares_memory(k2.K, K2.K)
            if k1.n == K1.n:  # the pools themselves, with the factors validation made
                assert k1 is K1 and k2 is K2
            idx = np.arange(k1.n)
            copies = sweep_cell(K1.subset(idx), K2.subset(idx), *args)
            assert ests == copies  # every field bitwise equal

    def test_noise_kind_variance(self):
        rng = np.random.default_rng(13)
        K1, K2 = pooled_kernel_pair(rng, pool_size=30, k=5)
        g1 = snr_sweep(K1, K2, [10], [1.0], 500, seed=14, noise_kind="variance")
        g2 = snr_sweep(K1, K2, [10], [0.5], 500, seed=14, noise_kind="a")
        assert g1.grid["jsd"][0][0].value == g2.grid["jsd"][0][0].value


@pytest.fixture
def gram_basis_calls():
    """The factors whose ``gram_basis`` is computed, one entry per computation."""
    calls = []
    compute = LowRankFactor.gram_basis.func

    def counted(factor):
        calls.append(factor)
        return compute(factor)

    prop = cached_property(counted)
    prop.__set_name__(LowRankFactor, "gram_basis")
    with mock.patch.object(LowRankFactor, "gram_basis", prop):
        yield calls


class TestLowRankWorkOncePerKernel:
    """A kernel's factors are computed once per run; a pair never refactors."""

    def test_pairwise_matrix(self, gram_basis_calls):
        layers = kernels_same_stimuli(np.random.default_rng(20), 40, 6, 4)
        factors = [kern.low_rank for _, kern in layers]
        assert all(f is not None for f in factors)
        with mock.patch.object(kernel_module, "pivoted_cholesky",
                               side_effect=AssertionError("pivoted Cholesky after set-up")):
            pairwise_matrix(layers, ["jsd", "tvd"], a=0.5, n_samples=500, seed=21)
        assert sorted(map(id, gram_basis_calls)) == sorted(map(id, factors))

    def test_snr_sweep(self, gram_basis_calls):
        K1, K2 = pooled_kernel_pair(np.random.default_rng(22), pool_size=200, k=10)
        n_values = [60, 100, 200]
        with mock.patch.object(kernel_module, "pivoted_cholesky",
                               wraps=kernel_module.pivoted_cholesky) as pivoted:
            snr_sweep(K1, K2, n_values, [0.3, 0.6], n_samples=500, seed=23,
                      metrics=("jsd", "tvd"))
        # one factor per subset kernel, each reused by all three cells of its n
        assert pivoted.call_count == len(gram_basis_calls) == 2 * len(n_values)
        assert len(set(map(id, gram_basis_calls))) == 2 * len(n_values)


@pytest.mark.parametrize("pipeline", ["pairwise", "sweep", "stability"])
def test_too_few_draws_refused_before_any_work(pipeline):
    rng = np.random.default_rng(19)
    layers = kernels_same_stimuli(rng, 10, 4, 2)
    run = {"pairwise": lambda: pairwise_matrix(layers, ["cka", "jsd"], 0.5, 1, 0),
           "sweep": lambda: snr_sweep(layers[0][1], layers[1][1], [5], [0.5], 1, 0),
           "stability": lambda: stability_study(layers, 5, 2, ["cka", "jsd"], 0.01, 1, 0),
           }[pipeline]
    spy = mock.Mock(side_effect=AssertionError("work started"))
    with mock.patch.object(KernelMatrix, "subset", spy), \
            mock.patch.object(harness, "predictive_covariance", spy), \
            mock.patch.object(bayes_metrics, "estimate", spy):
        with pytest.raises(ValidationError,
                           match="^need at least 2 draws for a standard error$"):
            run()
    spy.assert_not_called()
    assert stability_study(layers, 5, 2, ["cka"], 0.01, 1, 0).metrics == ("cka",)


@pytest.mark.parametrize("pipeline, bad, match", [
    ("pairwise", {"a": 2.0}, r"^a=2.0 outside \[0, 1\]$"),
    ("pairwise", {"seed": 2 ** 130}, r"^seed \d+ outside"),
    ("sweep", {"b": np.nan}, "^b=nan must be finite and >= 0$"),
    ("sweep", {"seed": 2 ** 130}, r"^seed \d+ outside"),
    ("stability", {"b": -1.0}, "^b=-1.0 must be finite and >= 0$"),
    ("stability", {"seed": 2 ** 130}, r"^seed \d+ outside"),
    ("embed", {"restarts": 0}, "^restarts must be >= 1$"),
    ("embed", {"seed": 2 ** 130}, r"^seed \d+ outside"),
], ids=["pairwise-a", "pairwise-seed", "sweep-b", "sweep-seed", "stability-b",
        "stability-seed", "embed-restarts", "embed-seed"])
def test_argument_error_before_any_kernel_work(pipeline, bad, match):
    layers = kernels_same_stimuli(np.random.default_rng(19), 10, 4, 2)
    D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    run = {"pairwise": lambda a=0.5, seed=0: pairwise_matrix(layers, ["jsd", "cka"], a, 100, seed),
           "sweep": lambda b=0.01, seed=0: snr_sweep(layers[0][1], layers[1][1], [5, 10], [0.5],
                                                     100, seed, b=b),
           "stability": lambda b=0.01, seed=0: stability_study(layers, 5, 2, ["jsd", "cka"], b,
                                                               100, seed),
           "embed": lambda restarts=1, seed=0: mds.mds_embed(D, seed=seed, restarts=restarts),
           }[pipeline]
    spy = mock.Mock(side_effect=AssertionError("kernel work started"))
    with mock.patch.object(KernelMatrix, "subset", spy), \
            mock.patch.object(harness, "predictive_covariance", spy), \
            mock.patch.object(harness, "_leading", spy), \
            mock.patch.object(mds, "_smacof", spy):
        with pytest.raises(ValidationError, match=match):
            run(**bad)
        spy.assert_not_called()
        with pytest.raises(AssertionError, match="kernel work started"):
            run()  # the spies are on the valid run's path


class TestStabilityStudy:
    @pytest.mark.parametrize("size", [1, 2, 5, 6])
    def test_median_bitwise_equals_numpy(self, size):
        rng = np.random.default_rng(size)
        for values in (rng.random(size), rng.standard_normal(size) * 1e300):
            got = np.float64(harness._median(list(values)))
            assert got.tobytes() == np.median(values).tobytes()

    def test_numpy_ma_never_imported(self):
        # np.unique and np.median import numpy.ma, which costs every stability run
        code = ("import sys, numpy as np\n"
                "from repmetric import KernelMatrix, stability_study\n"
                "X = np.random.default_rng(0).standard_normal((3, 30, 4))\n"
                "layers = [(f'l{i}', KernelMatrix.from_array(x @ x.T)) for i, x in enumerate(X)]\n"
                "stability_study(layers, 8, 3, ['jsd', 'tvd', 'cka'], 0.01, 200, 0)\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(harness.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_reproducible(self):
        rng = np.random.default_rng(14)
        layers = kernels_same_stimuli(rng, 40, 6, 3)
        r1 = stability_study(layers, 10, 3, ["jsd", "cka"], 0.01, 500, seed=15)
        r2 = stability_study(layers, 10, 3, ["jsd", "cka"], 0.01, 500, seed=15)
        assert r1.per_pair_sd == r2.per_pair_sd

    def test_threads_accepted_only_as_one(self):
        rng = np.random.default_rng(18)
        layers = kernels_same_stimuli(rng, 10, 4, 2)
        one = stability_study(layers, 5, 2, ["jsd"], 0.01, 100, seed=0, threads=1)
        assert one == stability_study(layers, 5, 2, ["jsd"], 0.01, 100, seed=0)
        for threads in (0, 2):
            with pytest.raises(ValidationError, match=f"threads={threads}: pairs run one"):
                stability_study(layers, 5, 2, ["jsd"], 0.01, 100, seed=0, threads=threads)

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


def relabelled(kern, labels, reverse=False):
    """kern with the given stimulus labels; with reverse, the same stimuli in
    reverse order: rows, columns and labels all turn around."""
    if reverse:
        return KernelMatrix(K=kern.K[::-1, ::-1].copy(), labels=tuple(labels[::-1]))
    return KernelMatrix(K=kern.K, labels=tuple(labels))


class TestStimulusLabels:
    """Kernels with labels list them in one order; an unlabelled kernel
    (labels None) is taken in row order."""

    LABELS = [f"img{i}" for i in range(10)]
    PIPELINES = {
        "pairwise": lambda layers: pairwise_matrix(layers, ["cka", "jsd"], a=0.5,
                                                   n_samples=50, seed=1),
        "stability": lambda layers: stability_study(layers, 5, 2, ["cka", "jsd"], 0.01,
                                                    50, seed=1)}

    def layers(self):
        return kernels_same_stimuli(np.random.default_rng(41), 10, 4, 3)

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_permuted_labelled_layer_refused(self, pipeline):
        (n0, k0), (n1, k1), (n2, k2) = self.layers()
        layers = [(n0, relabelled(k0, self.LABELS)), (n1, relabelled(k1, self.LABELS, True)),
                  (n2, k2)]
        with pytest.raises(ValidationError) as info:
            self.PIPELINES[pipeline](layers)
        assert str(info.value) == ("layer 'layer1': stimulus labels differ from layer "
                                   "'layer0''s (row 0: 'img9' vs 'img0')")

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_unlabelled_layer_beside_labelled_ones_runs(self, pipeline):
        # labels name the stimuli and change no value
        (n0, k0), (n1, k1), (n2, k2) = layers = self.layers()
        mixed = [(n0, relabelled(k0, self.LABELS)), (n1, k1), (n2, relabelled(k2, self.LABELS))]
        got, want = (self.PIPELINES[pipeline](ls) for ls in (mixed, layers))
        if pipeline == "pairwise":
            got, want = ({m: d.values.tolist() for m, d in r.items()} for r in (got, want))
        else:
            got, want = got.values, want.values
        assert got == want

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_labels_spelling_row_names_refused(self, pipeline):
        # labels s0, s1, ... name stimuli like any others
        names = [f"s{i}" for i in range(10)]
        (n0, k0), (n1, k1), (n2, k2) = self.layers()
        layers = [(n0, relabelled(k0, names)), (n1, relabelled(k1, names, True)), (n2, k2)]
        with pytest.raises(ValidationError) as info:
            self.PIPELINES[pipeline](layers)
        assert str(info.value) == ("layer 'layer1': stimulus labels differ from layer "
                                   "'layer0''s (row 0: 's9' vs 's0')")

    def test_sweep_refuses_pools_labelled_with_row_names_permuted(self):
        names = [f"s{i}" for i in range(10)]
        (_, k0), (_, k1), _ = self.layers()
        with pytest.raises(ValidationError) as info:
            snr_sweep(relabelled(k0, names), relabelled(k1, names, True), [5], [0.5], 50, seed=1)
        assert str(info.value) == ("kernel2: stimulus labels differ from kernel1's "
                                   "(row 0: 's9' vs 's0')")

    def test_sweep_refuses_permuted_pools(self):
        (_, k0), (_, k1), _ = self.layers()
        with pytest.raises(ValidationError) as info:
            snr_sweep(relabelled(k0, self.LABELS), relabelled(k1, self.LABELS, True), [5],
                      [0.5], 50, seed=1)
        assert str(info.value) == ("kernel2: stimulus labels differ from kernel1's "
                                   "(row 0: 'img9' vs 'img0')")

    def test_sweep_takes_a_default_labelled_pool_in_row_order(self):
        (_, k0), (_, k1), _ = self.layers()
        got, want = (snr_sweep(p0, k1, [5], [0.5], 50, seed=1)
                     for p0 in (relabelled(k0, self.LABELS), k0))
        assert got == want
