import numpy as np
import pytest

from repmetric.errors import ValidationError
from repmetric.mds import _smacof_single, mds_embed


def pairwise(X):
    G = X @ X.T
    sq = np.diag(G)
    return np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2 * G, 0.0))


class TestExactEmbeddings:
    def test_equilateral_triangle(self):
        D = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        emb = mds_embed(D, dims=2, seed=1)
        assert emb.stress < 1e-6
        rec = pairwise(emb.coords)
        iu = np.triu_indices(3, k=1)
        assert np.abs(rec[iu] - 1.0).max() < 1e-4

    def test_all_zero_distances(self):
        D = np.zeros((5, 5))
        emb = mds_embed(D, dims=2, seed=2)
        assert emb.stress == 0.0
        assert np.array_equal(emb.coords, np.zeros((5, 2)))

    def test_planar_recovery(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((10, 2))
        D = pairwise(pts)
        emb = mds_embed(D, dims=2, seed=4, max_iter=2000, tol=1e-12)
        rec = pairwise(emb.coords)
        iu = np.triu_indices(10, k=1)
        rel = np.abs(rec[iu] - D[iu]) / D[iu]
        assert rel.max() < 1e-3


class TestStressBehaviour:
    def test_stress_non_increasing(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((12, 4))
        D = pairwise(pts)  # not exactly embeddable in 2-D
        emb = mds_embed(D, dims=2, seed=6)
        hist = np.array(emb.stress_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_permutation_invariant_stress(self):
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((9, 2))
        D = pairwise(pts)
        perm = rng.permutation(9)
        emb1 = mds_embed(D, dims=2, seed=8, max_iter=2000, tol=1e-12)
        emb2 = mds_embed(D[np.ix_(perm, perm)], dims=2, seed=8, max_iter=2000, tol=1e-12)
        # exactly embeddable input: both runs drive stress to ~0
        assert abs(emb1.stress - emb2.stress) < 1e-6

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((8, 3))
        D = pairwise(pts)
        e1 = mds_embed(D, seed=10)
        e2 = mds_embed(D, seed=10)
        assert np.array_equal(e1.coords, e2.coords)
        assert e1.stress == e2.stress

    def test_coords_centered(self):
        rng = np.random.default_rng(11)
        pts = rng.standard_normal((7, 2)) + 40.0
        D = pairwise(pts)
        emb = mds_embed(D, seed=12)
        assert np.abs(emb.coords.mean(axis=0)).max() < 1e-9


def allocating_smacof(D, dims, rng, max_iter):
    """SMACOF with a fresh array for every intermediate, no tolerance stop."""
    def distances(X):
        G = X @ X.T
        d = np.diag(G)
        D2 = np.maximum(d[:, None] + d[None, :] - 2.0 * G, 0.0)
        np.fill_diagonal(D2, 0.0)
        return np.sqrt(D2)

    m = D.shape[0]
    denom = float(np.sum(np.triu(D, k=1) ** 2))
    X = rng.standard_normal((m, dims))
    dis = distances(X)
    history = []
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dis > 0, D / np.where(dis > 0, dis, 1.0), 0.0)
        B = -ratio
        B[np.diag_indices_from(B)] += ratio.sum(axis=1)
        X = (B @ X) / m
        dis = distances(X)
        history.append(np.sqrt(float(np.sum(np.triu(dis - D, k=1) ** 2)) / denom))
    return X, history


class TestBufferedIterations:
    def test_bitwise_equal_to_allocating_reference(self):
        rng = np.random.default_rng(16)
        D = pairwise(rng.standard_normal((40, 5)))
        np.fill_diagonal(D, 0.0)
        X_ref, history_ref = allocating_smacof(D, 2, np.random.default_rng(17), 60)
        X, stress, iters, history = _smacof_single(D, 2, np.random.default_rng(17), 60, 0.0)
        assert iters == 60
        assert np.array_equal(X, X_ref)
        assert history == history_ref
        assert stress == history_ref[-1]


class TestScale:
    @pytest.mark.parametrize("exponent", [-1000, -3, 5, 1000])
    def test_power_of_two_scale_is_exact(self, exponent):
        # the iterates scale exactly, and near 1e308 squares must not overflow
        D = pairwise(np.random.default_rng(18).standard_normal((12, 4)))
        np.fill_diagonal(D, 0.0)
        ref = mds_embed(D, seed=19, max_iter=50)
        emb = mds_embed(np.ldexp(D, exponent), seed=19, max_iter=50)
        assert np.array_equal(emb.coords, np.ldexp(ref.coords, exponent))
        assert emb.stress == ref.stress and emb.stress_history == ref.stress_history


class TestValidation:
    def test_asymmetric_rejected(self):
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            mds_embed(D)

    def test_negative_rejected(self):
        D = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError, match="negative"):
            mds_embed(D)

    def test_nonzero_diagonal_rejected(self):
        D = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ValidationError, match="diagonal"):
            mds_embed(D)

    def test_nan_rejected(self):
        D = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValidationError, match="finite"):
            mds_embed(D)
