import tracemalloc
import warnings

import numpy as np
import pytest

from repmetric.errors import ValidationError
from repmetric import mds
from repmetric.mds import _smacof, _torgerson, mds_embed
from repmetric.seeding import derive_seed, stream_generator


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


def allocating_smacof(D, X, max_iter):
    """Textbook SMACOF through the B matrix from start X, a fresh array for
    every intermediate, stress from the distances and no tolerance stop:
    the independent oracle for the buffered loop."""
    def distances(X):
        G = X @ X.T
        d = np.diag(G)
        D2 = np.maximum(d[:, None] + d[None, :] - 2.0 * G, 0.0)
        np.fill_diagonal(D2, 0.0)
        return np.sqrt(D2)

    m = D.shape[0]
    denom = float(np.sum(np.triu(D, k=1) ** 2))
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


def allocating_augmented_smacof(D, X, max_iter):
    """The buffered loop's arithmetic from start X with a fresh array for
    every intermediate: R = D/dis, X <- (X rowsum(R) - R X)/m and all
    squared distances from one augmented product; the stress of each
    iterate from the same product R [X | 1], of the last from its
    distances; no tolerance stop."""
    m, dims = X.shape
    ones = np.ones(m)

    def distances(X):
        sq = np.einsum("ij,ij->i", X, X)
        A = np.column_stack([-2.0 * X, sq, ones])
        Ct = np.vstack([X.T, ones, sq])
        D2 = np.maximum(A @ Ct, 0.0)
        np.fill_diagonal(D2, 0.0)
        return np.sqrt(D2)

    denom = 0.5 * np.einsum("ij,ij->", D, D)
    dis = distances(X)
    history = []
    for it in range(max_iter + 1):
        safe = dis.copy()
        np.fill_diagonal(safe, 1.0)
        Xt = np.vstack([X.T, ones])
        with np.errstate(divide="ignore", invalid="ignore"):
            RX = (D / safe) @ Xt.T
        if not np.all(np.isfinite(RX[:, dims])):
            RX = np.where(safe > 0, D / np.where(safe > 0, safe, 1.0), 0.0) @ Xt.T
        if it:
            # Σ_{i<j} δd = Σ ‖x‖²(R1) - x·(RX) and Σ_{i<j} d² = m Σ ‖x‖² - ‖Σ x‖²
            sq, total = np.einsum("ij,ij->i", X, X), Xt[:dims].sum(axis=1)
            cross = np.einsum("i,i->", sq, RX[:, dims]) - np.einsum("ij,ij->", X, RX[:, :dims])
            square = m * sq.sum() - np.einsum("j,j->", total, total)
            history.append(np.sqrt(max(square - 2.0 * cross + denom, 0.0) / denom))
        if it == max_iter:
            diff = dis - D
            history[-1] = np.sqrt(0.5 * np.einsum("ij,ij->", diff, diff) / denom)
            return X, history
        X = (X * RX[:, dims:] - RX[:, :dims]) / m
        dis = distances(X)


def assert_close_to_oracle(X, history, X_ref, history_ref):
    assert np.abs(X - X_ref).max() <= 1e-10 * np.abs(X_ref).max()
    h, h_ref = np.array(history), np.array(history_ref)
    assert np.all(np.abs(h - h_ref) <= 1e-12 * h_ref)


class TestBufferedIterations:
    def test_bitwise_equal_to_allocating_reference(self):
        rng = np.random.default_rng(16)
        D = pairwise(rng.standard_normal((40, 5)))
        np.fill_diagonal(D, 0.0)
        start = np.random.default_rng(17).standard_normal((40, 2))
        X_ref, history_ref = allocating_augmented_smacof(D, start, 60)
        X, history = _smacof(D, start, 60, 0.0)
        assert len(history) == 60
        assert np.array_equal(X, X_ref)
        assert history == history_ref

    def test_close_to_textbook_b_matrix_oracle(self):
        rng = np.random.default_rng(16)
        D = pairwise(rng.standard_normal((40, 5)))
        np.fill_diagonal(D, 0.0)
        start = np.random.default_rng(17).standard_normal((40, 2))
        X_ref, history_ref = allocating_smacof(D, start, 60)
        X, history = _smacof(D, start, 60, 0.0)
        assert len(history) == len(history_ref)
        assert_close_to_oracle(X, history, X_ref, history_ref)

    def test_near_embeddable_final_stress_from_the_distances(self):
        # planar points lifted 1e-4 off the plane: stress ~1e-8, below what
        # the product identity resolves, so its rounding must neither stop a
        # tol = 0 run nor reach the stress returned
        rng = np.random.default_rng(27)
        pts = np.column_stack([rng.standard_normal((40, 2)), 1e-4 * rng.standard_normal(40)])
        D = pairwise(pts)
        np.fill_diagonal(D, 0.0)
        start = rng.standard_normal((40, 2))
        X, history = _smacof(D, start, 400, 0.0)
        X_ref, history_ref = allocating_smacof(D, start, 400)
        assert len(history) == 400
        assert np.abs(X - X_ref).max() <= 1e-10 * np.abs(X_ref).max()
        assert history_ref[-1] < 1e-7
        assert abs(history[-1] - history_ref[-1]) <= 1e-7 * history_ref[-1]

    @pytest.mark.parametrize("same_input", [True, False], ids=["identical", "distinct"])
    def test_coincident_start(self, same_input):
        # points 0 and 1 start on one spot; with integer coordinates their
        # embedded distance is exactly 0, so R = D/d needs the non-finite fallback
        pts = np.random.default_rng(20).standard_normal((8, 3))
        if same_input:
            pts[1] = pts[0]  # their input distance is 0 too
        D = pairwise(pts)
        np.fill_diagonal(D, 0.0)
        start = np.arange(16.0).reshape(8, 2) % 5
        start[1] = start[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            X, history = _smacof(D, start, 40, 0.0)
        X_aug, history_aug = allocating_augmented_smacof(D, start, 40)
        X_ref, history_ref = allocating_smacof(D, start, 40)
        assert np.all(np.isfinite(X)) and np.all(np.isfinite(history))
        assert np.array_equal(X, X_aug) and history == history_aug
        assert np.all(np.diff(history) <= 1e-12)
        assert len(history) == len(history_ref)
        assert_close_to_oracle(X, history, X_ref, history_ref)
        assert np.array_equal(X[0], X[1]) == same_input


def distances(m, seed, dims=5):
    D = pairwise(np.random.default_rng(seed).standard_normal((m, dims)))
    np.fill_diagonal(D, 0.0)
    return D


class TestRestarts:
    def test_torgerson_start_is_exact_for_planar_points(self):
        D = distances(30, 28, dims=2)
        rec = pairwise(_torgerson(D, 2))  # before any SMACOF iteration
        iu = np.triu_indices(30, k=1)
        assert np.abs(rec[iu] - D[iu]).max() <= 1e-10 * D[iu].max()

    @pytest.mark.parametrize("tol", [0.0, 1e-4])
    def test_best_of_restarts_each_run_alone(self, tol):
        D = distances(30, 20)  # restart 2 wins at tol 0, the Torgerson start at 1e-4
        D = np.ldexp(D, -np.frexp(D.max())[1])  # the scale mds_embed runs at
        starts = [_torgerson(D, 2)] + [
            stream_generator(derive_seed(22, "mds-restart", r)).standard_normal((30, 2))
            for r in range(1, 6)]
        alone = [_smacof(D, start, 200, tol) for start in starts]
        X, history = min(alone, key=lambda run: run[1][-1])  # the first of equal stresses
        emb = mds_embed(D, seed=22, restarts=6, max_iter=200, tol=tol)
        assert np.array_equal(emb.coords, X - X.mean(axis=0, keepdims=True))
        assert emb.stress_history == tuple(history)
        if tol:  # the restarts stopped at different iterations
            assert len({len(h) for _, h in alone}) > 1

    def test_equal_distances_tie_every_eigenvalue(self):
        # the Torgerson start of a simplex is an arbitrary, but fixed, basis
        D = 1.0 - np.eye(10)
        one, again = mds_embed(D), mds_embed(D)
        assert np.array_equal(one.coords, again.coords) and one.stress == again.stress
        assert mds_embed(D, seed=0, restarts=8).stress < one.stress


class TestBatches:
    def test_working_set_is_one_m_by_m_buffer(self, monkeypatch):
        # the SMACOF loop used to hold two m×m buffers, distances and ratios
        m = 400
        D = distances(m, 25)
        peaks, smacof = [], mds._smacof

        def traced(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = smacof(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return out

        monkeypatch.setattr(mds, "_smacof", traced)
        tracemalloc.start()
        try:
            mds_embed(D, seed=26, max_iter=3)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 1
        assert peaks[0] < 2 * 8 * m * m


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

    def test_single_point_rejected(self):
        with pytest.raises(ValidationError, match="at least 2 points"):
            mds_embed([[0.0]])

    def test_nan_rejected(self):
        D = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValidationError, match="finite"):
            mds_embed(D)
