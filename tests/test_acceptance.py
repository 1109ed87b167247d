"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from oracles import (closed_form_tvd_1d_scale, cosine_of_upper_triangles,
                     feature_space_cka, jsd_2d_exact, quad_jsd_1d, quad_tvd_1d,
                     tvd_2d_exact, vectorize_and_correlate)
from synth import (mixed_pair, pooled_kernel_pair, pooled_layer_family,
                   random_orthogonal, random_spd)

from repmetric.baseline_metrics import (cka, rsa_arccos, rsa_one_minus_corr,
                                        shape_metric)
from repmetric.bayes_metrics import (jsd, jsd_gradient, js_distance_from_jsd,
                                     tvd, tvd_gradient)
from repmetric.cli import main
from repmetric.harness import heuristic_a, snr_sweep, stability_study
from repmetric.kernel import (RepresentationMatrix, gram, predictive_covariance,
                              squared_distance_matrix)
from repmetric.matrix_io import MatrixKind, write_matrix
from repmetric.mds import mds_embed
from repmetric.kernel import GaussianModel


@contextmanager
def criterion(num, desc):
    import conftest
    try:
        yield
    except BaseException:
        line = f"C{num:02d} FAIL  {desc}"
        conftest.acceptance_results.append(line)
        print("ACCEPTANCE " + line)
        raise
    line = f"C{num:02d} PASS  {desc}"
    conftest.acceptance_results.append(line)
    print("ACCEPTANCE " + line)


def model(C):
    return GaussianModel.from_covariance(C)


def model_from_X(X, a=0.5):
    rep = RepresentationMatrix.from_array(X)
    return GaussianModel.from_predictive(predictive_covariance(gram(rep), a))


def test_c01_oracle_equivalence():
    with criterion(1, "MC estimates match quadrature oracles at N=100000"):
        start = time.monotonic()
        N = 100_000
        checked = 0

        # 1-D pairs spanning variance ratios 1..1e4
        for i, r in enumerate(np.logspace(0, 4, 12)):
            m1, m2 = model([[1.0]]), model([[r]])
            t_est = tvd(m1, m2, N, seed=100 + i)
            j_est = jsd(m1, m2, N, seed=200 + i)
            assert abs(t_est.value - quad_tvd_1d(1.0, r)) < 4 * max(t_est.std_error, 1e-12)
            assert abs(j_est.value - quad_jsd_1d(1.0, r)) < 4 * max(j_est.std_error, 1e-12)
            checked += 1

        # 2-D pairs, diagonal and correlated
        rng = np.random.default_rng(0)
        pairs = [(np.eye(2), np.diag([25.0, 25.0])),
                 (np.diag([1.0, 3.0]), np.diag([400.0, 3.0])),
                 (np.diag([1.0, 1.0]), np.diag([9.0, 100.0])),
                 (np.diag([2.0, 5.0]), np.diag([2000.0, 5.0]))]
        for _ in range(5):
            A = rng.standard_normal((2, 2))
            C1 = A @ A.T + np.eye(2)
            scale = 10.0 ** rng.uniform(0, 1.5)
            B = rng.standard_normal((2, 2))
            C2 = scale * (B @ B.T + np.eye(2))
            pairs.append((C1, C2))
        for i, (C1, C2) in enumerate(pairs):
            t_est = tvd(model(C1), model(C2), N, seed=300 + i)
            j_est = jsd(model(C1), model(C2), N, seed=400 + i)
            assert abs(t_est.value - tvd_2d_exact(C1, C2)) < 4 * t_est.std_error
            assert abs(j_est.value - jsd_2d_exact(C1, C2)) < 4 * j_est.std_error
            checked += 1
        assert checked >= 20

        # the (1, 4) pair against its closed form
        expected = closed_form_tvd_1d_scale(1.0, 4.0)
        assert expected == pytest.approx(0.3226745688347685, abs=1e-12)
        est = tvd(model([[1.0]]), model([[4.0]]), N, seed=7)
        assert abs(est.value - expected) < 4 * est.std_error

        assert time.monotonic() - start < 60.0


def test_c02_estimator_precision():
    with criterion(2, "summand variance peaks bounded (JSD<=0.40, TVD<=0.10)"):
        N = 10_000
        max_jsd_var = 0.0
        max_tvd_var = 0.0
        for i, r in enumerate(np.logspace(0, 4, 25)):
            m1, m2 = model([[1.0]]), model([[r]])
            t_est = tvd(m1, m2, N, seed=500 + i)
            j_est = jsd(m1, m2, N, seed=600 + i)
            max_tvd_var = max(max_tvd_var, t_est.summand_variance)
            max_jsd_var = max(max_jsd_var, j_est.summand_variance)
            assert t_est.std_error <= 0.0032
            assert j_est.std_error <= 0.0063
        assert max_jsd_var <= 0.40
        assert max_tvd_var <= 0.10
        # implied estimator SDs at N = 10000
        assert math.sqrt(max_jsd_var / N) <= 0.0063
        assert math.sqrt(max_tvd_var / N) <= 0.0032


def test_c03_equivalence_class_suite():
    with criterion(3, "rotations/scalings statistically at zero, shifts detected"):
        start = time.monotonic()
        N = 10_000
        rng = np.random.default_rng(42)
        for rep in range(50):
            k = 5 if rep % 2 == 0 else 500
            X = rng.standard_normal((30, k))
            base = model_from_X(X)

            U = random_orthogonal(rng, k)
            est = jsd(base, model_from_X(X @ U), N, seed=1000 + rep)
            assert est.value <= 3 * est.std_error

            for j, c in enumerate((-2.0, 0.1, 7.0)):
                scaled = model_from_X(c * X)
                est = jsd(base, scaled, N, seed=2000 + 10 * rep + j)
                assert est.value <= 3 * est.std_error
                if c == -2.0:
                    # sign flips and powers of two are exact in floats
                    assert est.value == 0.0
                    t_est = tvd(base, scaled, N, seed=2000 + 10 * rep + j)
                    assert t_est.value == 0.0

            v = rng.standard_normal(k)
            shifted = model_from_X(X + np.ones((30, 1)) * v)
            est = jsd(base, shifted, N, seed=3000 + rep)
            assert est.value > 10 * est.std_error
        assert time.monotonic() - start < 120.0


def test_c04_gradient_checks():
    with criterion(4, "reparameterized gradients match finite differences"):
        N = 20_000
        for trial in range(10):
            rng = np.random.default_rng(13_000 + trial)
            C1 = random_spd(rng, 3)
            C2 = random_spd(rng, 3)
            seed = 40 + trial
            D = rng.standard_normal((3, 3))
            D = 0.5 * (D + D.T)
            D /= np.linalg.norm(D)
            for metric, grad_fn, val_fn in (("tvd", tvd_gradient, tvd),
                                            ("jsd", jsd_gradient, jsd)):
                grad = grad_fn(C1, C2, N, seed)
                for wrt, G in ((1, grad.d_cov1), (2, grad.d_cov2)):
                    base = C1 if wrt == 1 else C2
                    h = 1e-6 * np.linalg.norm(base)

                    def value(Ca, Cb):
                        return val_fn(model(Ca), model(Cb), N, seed).raw_value

                    if wrt == 1:
                        fd = (value(C1 + h * D, C2) - value(C1 - h * D, C2)) / (2 * h)
                    else:
                        fd = (value(C1, C2 + h * D) - value(C1, C2 - h * D)) / (2 * h)
                    an = float(np.sum(G * D))
                    rel = abs(fd - an) / max(abs(fd), abs(an), 1e-12)
                    assert rel < 1e-4, f"{metric} trial {trial} wrt C{wrt}: rel={rel:.2e}"


def test_c05_heuristic_constants():
    with criterion(5, "noise heuristic hits the documented constants exactly"):
        assert heuristic_a(100, 1 / 100) == 0.5
        assert heuristic_a(200, 1 / 100) == 2 / 3


def test_c06_sweep_qualitative():
    with criterion(6, "JSD flat along proportional noise, rising at fixed noise"):
        rng = np.random.default_rng(77)
        K1, K2 = pooled_kernel_pair(rng, pool_size=1000, k=50, overlap=0.8)
        n_values = [100, 200, 450, 1000]
        grid = snr_sweep(K1, K2, n_values, [0.1], n_samples=4000, seed=99,
                         b=0.01, metrics=("jsd",))
        prop_vals = [est.value for _, est in grid.proportional["jsd"]]
        fixed_vals = [row[0].value for row in grid.grid["jsd"]]
        assert max(prop_vals) - min(prop_vals) < 0.15
        assert all(b >= a - 1e-9 for a, b in zip(fixed_vals, fixed_vals[1:]))
        rho = spearmanr(n_values, fixed_vals).statistic
        assert rho >= 0.9


def test_c07_baseline_correctness():
    with criterion(7, "baselines match independent oracles and centering removes offsets"):
        rng = np.random.default_rng(5)
        X1 = rng.standard_normal((20, 7))
        X2 = rng.standard_normal((20, 12))
        K1 = gram(RepresentationMatrix.from_array(X1))
        K2p = gram(RepresentationMatrix.from_array(X2))
        # padding features to compare against the kernel route is not
        # needed: CKA only sees the kernels
        assert abs(cka(K1, K2p) - feature_space_cka(X1, X2)) < 1e-8
        assert shape_metric(K1, K2p).value == math.acos(cka(K1, K2p))

        D1 = squared_distance_matrix(K1)
        D2 = squared_distance_matrix(K2p)
        want_corr = 1.0 - vectorize_and_correlate(D1, D2)
        assert abs(rsa_one_minus_corr(K1, K2p).value - want_corr) < 1e-12
        want_arc = math.acos(cosine_of_upper_triangles(D1, D2))
        assert abs(rsa_arccos(K1, K2p).value - want_arc) < 1e-12

        # offset invariance for every baseline, non-invariance for Bayes
        X3 = rng.standard_normal((20, 7))
        v = 3.0 * rng.standard_normal(7)
        K3 = gram(RepresentationMatrix.from_array(X3))
        K3s = gram(RepresentationMatrix.from_array(X3 + v))
        for fn in (lambda a, b: 1.0 - cka(a, b),
                   lambda a, b: shape_metric(a, b).value,
                   lambda a, b: rsa_one_minus_corr(a, b).value,
                   lambda a, b: rsa_arccos(a, b).value):
            assert abs(fn(K1, K3) - fn(K1, K3s)) < 1e-8
        est = jsd(model_from_X(X3), model_from_X(X3 + v), 10_000, seed=1)
        assert est.value > 10 * est.std_error


def test_c08_tvd_js_agreement():
    with criterion(8, "TVD and JS distance correlate at r >= 0.99"):
        rng = np.random.default_rng(33)
        vals_tvd, vals_js = [], []
        for i in range(100):
            r1, r2 = mixed_pair(rng, 20, 30, t=rng.uniform(0, 1))
            a = rng.uniform(0.1, 0.9)
            m1 = GaussianModel.from_predictive(predictive_covariance(gram(r1), a))
            m2 = GaussianModel.from_predictive(predictive_covariance(gram(r2), a))
            vals_tvd.append(tvd(m1, m2, 4000, seed=10_000 + i).value)
            vals_js.append(js_distance_from_jsd(jsd(m1, m2, 4000, seed=10_000 + i)).value)
        r = np.corrcoef(vals_tvd, vals_js)[0, 1]
        assert r >= 0.99
        assert max(vals_tvd) - min(vals_tvd) > 0.3  # the sweep actually spans a range


def test_c09_stability_scaling():
    with criterion(9, "subsampling spread shrinks at least 1.8x from n=25 to n=100"):
        rng = np.random.default_rng(55)
        layers = pooled_layer_family(rng, n_layers=4, pool_size=1000, k=8)
        metrics = ["jsd", "tvd", "cka"]
        rep25 = stability_study(layers, 25, 15, metrics, 0.01, 10_000, seed=900)
        rep100 = stability_study(layers, 100, 15, metrics, 0.01, 10_000, seed=901)
        # the scaling bound applies to the predictive-distribution metrics;
        # kernel-alignment spreads are reported but shrink more slowly
        for metric in ("jsd", "tvd"):
            assert rep100.median_sd[metric] <= rep25.median_sd[metric] / 1.8, metric
        assert rep100.median_sd["cka"] < rep25.median_sd["cka"]


def test_c10_mds():
    with criterion(10, "MDS recovers exact configurations with monotone stress"):
        D = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        emb = mds_embed(D, dims=2, seed=1)
        assert emb.stress < 1e-6

        rng = np.random.default_rng(3)
        pts = rng.standard_normal((10, 2))
        G = pts @ pts.T
        sq = np.diag(G)
        Dp = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * G, 0.0))
        emb2 = mds_embed(Dp, dims=2, seed=4, max_iter=2000, tol=1e-12)
        G2 = emb2.coords @ emb2.coords.T
        sq2 = np.diag(G2)
        rec = np.sqrt(np.maximum(sq2[:, None] + sq2[None, :] - 2 * G2, 0.0))
        iu = np.triu_indices(10, k=1)
        assert (np.abs(rec[iu] - Dp[iu]) / Dp[iu]).max() < 1e-3

        # stress trace from a non-embeddable input is non-increasing
        pts4 = rng.standard_normal((12, 4))
        G4 = pts4 @ pts4.T
        sq4 = np.diag(G4)
        D4 = np.sqrt(np.maximum(sq4[:, None] + sq4[None, :] - 2 * G4, 0.0))
        emb3 = mds_embed(D4, dims=2, seed=5)
        assert np.all(np.diff(emb3.stress_history) <= 1e-12)


def test_c11_determinism(tmp_path):
    with criterion(11, "identical configs produce byte-identical outputs"):
        rng = np.random.default_rng(66)
        entries = []
        for j in range(3):
            X = rng.standard_normal((15, 6))
            K = gram(RepresentationMatrix.from_array(X))
            write_matrix(K.K, tmp_path / f"l{j}.csv", MatrixKind.KERNEL,
                         labels=K.labels)
            entries.append({"name": f"l{j}", "path": f"l{j}.csv", "kind": "kernel"})
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"entries": entries}))
        args = ["compare", "--manifest", str(mpath),
                "--metrics", "jsd,tvd,cka,shape,rsa_corr,rsa_arccos",
                "--a", "0.5", "--samples", "2000", "--seed", "12345"]

        out1, out2, out3 = tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"
        assert main(args + ["--threads", "2", "--out", str(out1)]) == 0
        assert main(args + ["--threads", "2", "--out", str(out2)]) == 0
        files1 = {p.name: p.read_bytes() for p in sorted(out1.iterdir())}
        files2 = {p.name: p.read_bytes() for p in sorted(out2.iterdir())}
        assert files1 == files2

        # numeric outputs are independent of the thread count
        assert main(args + ["--threads", "1", "--out", str(out3)]) == 0
        for name, blob in files1.items():
            if name != "record.json":  # the record logs the thread count
                assert (out3 / name).read_bytes() == blob
