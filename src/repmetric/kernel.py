"""Gram matrices and the normalized signal-plus-noise covariance.

A representation assigns each of n stimuli a k-dimensional feature
vector, stacked as rows of X. Its linear kernel K = X Xᵀ determines the
zero-mean Gaussian that a random linear readout induces over outputs.
Mixing the trace-normalized kernel with isotropic noise gives the
covariance actually compared downstream:

    C = (1 - a) * n * K / tr(K) + a * I,   a in [0, 1],

which always has trace n, making comparisons invariant to feature
rotations and to rescaling of X. ``predictive_covariance`` returns it
as a ``GaussianModel``, N(0, C) with the Cholesky factor of C.

Kernels of low rank r (the usual case: k features, k << n) also get one
pivoted Cholesky factor K ≈ G Gᵀ, G n×r. For 0 < a < 1 the model then
also carries C = a I + U Uᵀ with U = sqrt((1 - a) n / tr K) G, which
the estimators evaluate exactly from r-vectors; its dense C and Cholesky
factor are only built when something asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateRepresentationError, NotPositiveDefiniteError, ValidationError

SYMMETRY_RTOL = 1e-10
PSD_RTOL = 1e-8
JITTER_START = 1e-10
JITTER_MAX = 1e-6
JITTER_FACTOR = 10.0
SYMMETRY_TILE = 192  # symmetric_part works on tiles of at most this many rows and columns
RESIDUAL_ROWS = 64  # rows per block of the PSD certificate's residual
# Largest total-variation distance allowed between the dense C and the
# factor model a I + U Uᵀ that drops the residual diagonal E of the
# kernel's pivoted Cholesky: TVD ≤ (3/2)·tr(s E)/a (Devroye, Mehrabian &
# Reddad 2018). Above it the model stays dense.
LOW_RANK_TVD_BOUND = 1e-9


def default_labels(n: int) -> tuple[str, ...]:
    """Stimulus labels ``s0, s1, ...`` for rows that carry none."""
    return tuple(f"s{i}" for i in range(n))


def _as_labels(labels: Optional[Sequence[str]], n: int) -> tuple[str, ...]:
    if labels is None:
        return default_labels(n)
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise ValidationError(f"{len(labels)} labels for {n} rows")
    return labels


def symmetric_part(M, what: str) -> np.ndarray:
    """M/2 + Mᵀ/2 of a square, finite M, in one new n×n array; M is not written.

    The one symmetry rule, for kernels, covariances and distance matrices:
    |M - Mᵀ| ≤ ``SYMMETRY_RTOL``·max(|M|, 1) entrywise, else a
    ValidationError naming ``what``.
    """
    return _symmetrize(np.array(M, dtype=np.float64), what)


def _symmetrize(M: np.ndarray, what: str) -> np.ndarray:
    """``symmetric_part`` written over the float64 M itself (part-written on an error).

    One pass over pairs of mirrored tiles of at most ``SYMMETRY_TILE`` rows,
    each in cache: the mirrored tile is read once, halved and transposed,
    into a buffer, and A·½ + Bᵀ·½ is written over both tiles.
    """
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValidationError(f"{what} must be a nonempty square matrix")
    hi, lo = M.max(), M.min()  # NaN propagates, so these also decide finiteness
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise ValidationError(f"{what} contains non-finite values")
    # A·½ - Bᵀ·½ cannot overflow, and is the rounded A - Bᵀ halved wherever
    # it could reach this bound: the decisions are those of |A - Bᵀ| ≤ tol
    half_tol = 0.5 * SYMMETRY_RTOL * max(hi, -lo, 1.0)
    n = M.shape[0]
    tiles = -(-n // SYMMETRY_TILE)
    b = -(-n // tiles)  # equal tiles, none larger than SYMMETRY_TILE
    half_bt, diff = np.empty((b, b)), np.empty((b, b))
    for i in range(0, n, b):
        for j in range(i, n, b):
            A = M[i:i + b, j:j + b]
            Bt = np.multiply(M[j:j + b, i:i + b].T, 0.5, out=half_bt[:A.shape[0], :A.shape[1]])
            A *= 0.5
            h = np.subtract(A, Bt, out=diff[:A.shape[0], :A.shape[1]])
            if h.max() > half_tol or h.min() < -half_tol:
                raise ValidationError(f"{what} is not symmetric")
            A += Bt
            if j > i:
                M[j:j + b, i:i + b] = A.T
    return M


@dataclass(frozen=True)
class RepresentationMatrix:
    """n stimuli by k features, rows labelled by stimulus."""

    X: np.ndarray
    labels: tuple[str, ...]

    @classmethod
    def from_array(cls, X, labels: Optional[Sequence[str]] = None) -> "RepresentationMatrix":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValidationError("representation must be a 2-D array")
        if X.shape[0] < 2:
            raise ValidationError("need at least 2 stimuli")
        if not np.all(np.isfinite(X)):
            raise ValidationError("representation contains non-finite values")
        return cls(X=X, labels=_as_labels(labels, X.shape[0]))


def _check_trace(K: np.ndarray) -> float:
    with np.errstate(over="ignore"):
        trace = float(np.trace(K))
    if not math.isfinite(trace):
        raise ValidationError("kernel trace overflows the double range")
    return trace


def above_rounding(w: np.ndarray, n: int, gram: np.ndarray) -> np.ndarray:
    """Mask of ascending Gram eigenvalues w without the smallest, summing to ≤ n·ε·tr(gram)."""
    return np.cumsum(np.maximum(w, 0.0)) > n * np.finfo(float).eps * np.trace(gram)


@dataclass(frozen=True)
class LowRankFactor:
    """K ≈ G Gᵀ with G n×r in stimulus order; ``residual`` is diag(K - G Gᵀ)."""

    G: np.ndarray
    residual: np.ndarray

    @cached_property
    def gram_basis(self):
        """(GᵀG, g, V/√g) with GᵀG = V diag(g) Vᵀ, g ``above_rounding``: G V/√g is orthonormal."""
        GtG = self.G.T @ self.G
        g, V = np.linalg.eigh(GtG)
        keep = above_rounding(g, self.G.shape[0], GtG)
        return GtG, g[keep], V[:, keep] / np.sqrt(g[keep])


def pivoted_cholesky(K: np.ndarray, max_rank: int) -> Optional[LowRankFactor]:
    """Greedy pivoted Cholesky of a PSD matrix (Harbrecht, Peters & Schneider 2012).

    Each step pivots on the largest residual variance and costs one row
    of K and an n×r product. It stops once the residual trace is at
    rounding level, n·ε·tr K, and returns None when that would take more
    than ``max_rank`` columns. G grows by doubling from 16 columns.
    """
    n = K.shape[0]
    e = np.maximum(K.diagonal(), 0.0)
    tol = n * np.finfo(float).eps * e.sum()
    G = np.empty((n, min(max_rank, 16)))
    r = 0
    while e.sum() > tol:
        if r == max_rank:
            return None
        if r == G.shape[1]:
            grown = np.empty((n, min(2 * r, max_rank)))
            grown[:, :r] = G
            G = grown
        p = int(np.argmax(e))
        g = (K[p] - G[:, :r] @ G[p, :r]) / math.sqrt(e[p])
        G[:, r] = g
        e -= g * g
        e[p] = 0.0
        np.maximum(e, 0.0, out=e)
        r += 1
    return LowRankFactor(G=G[:, :r].copy(), residual=e)


def _residual_norm(K: np.ndarray, G: np.ndarray) -> float:
    """‖K - G Gᵀ‖_F, through one reused buffer of ``RESIDUAL_ROWS`` rows."""
    n = K.shape[0]
    buf = np.empty((min(n, RESIDUAL_ROWS), n))
    total = 0.0
    for i in range(0, n, RESIDUAL_ROWS):
        R = np.matmul(G[i:i + RESIDUAL_ROWS], G.T, out=buf[:min(n - i, RESIDUAL_ROWS)])
        np.subtract(K[i:i + RESIDUAL_ROWS], R, out=R)
        total += float(np.einsum("ij,ij->", R, R))  # unlike vdot, starts no BLAS threads
    return math.sqrt(total)


def _check_floor(K: np.ndarray, floor: float) -> None:
    """Dense test that no eigenvalue of K lies below ``floor``."""
    # K - floor I factorizes exactly when no eigenvalue of K lies below
    # floor; eigenvalues only decide (and report) borderline failures.
    # The shift is undone from a saved diagonal: no n×n temporary.
    n = K.shape[0]
    diag = K.diagonal().copy()
    K[np.diag_indices(n)] -= floor
    try:
        np.linalg.cholesky(K)
        factorized = True
    except np.linalg.LinAlgError:
        factorized = False
    K[np.diag_indices(n)] = diag
    if not factorized:
        min_eig = np.linalg.eigvalsh(K).min()
        if min_eig < floor:
            raise ValidationError(
                f"kernel is not positive semidefinite (min eigenvalue {min_eig:.3e})"
            )


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric PSD Gram matrix over stimuli."""

    K: np.ndarray
    labels: tuple[str, ...]

    @classmethod
    def from_array(cls, K, labels: Optional[Sequence[str]] = None) -> "KernelMatrix":
        """Validate a kernel: symmetric, and no eigenvalue below the floor
        ``-PSD_RTOL``·tr K/n, relative to the kernel's own scale.

        Validation reads the kernel's ``low_rank`` factor K ≈ G Gᵀ, and a
        residual ‖K - G Gᵀ‖_F within the floor proves the bound (Weyl:
        λ_min(K) ≥ -‖K - G Gᵀ‖_F). Without such a factor a dense Cholesky
        of K shifted by the floor decides, and the smallest eigenvalue,
        reported on rejection, settles a borderline failure. The caller's
        K is not written: validation works on a float64 copy.
        """
        return cls._adopt(np.array(K, dtype=np.float64), labels)

    @classmethod
    def _adopt(cls, K: np.ndarray, labels: Optional[Sequence[str]]) -> "KernelMatrix":
        """``from_array`` of a float64 K that the caller hands over: K is
        symmetrized in place and becomes the kernel's K."""
        K = _symmetrize(K, "kernel")
        n = K.shape[0]
        floor = -PSD_RTOL * max(_check_trace(K), 0.0) / n
        kernel = cls(K=K, labels=_as_labels(labels, n))
        factor = kernel.low_rank
        with np.errstate(over="ignore", invalid="ignore"):  # K may be far from PSD
            certified = factor is not None and _residual_norm(K, factor.G) <= -floor
        if not certified:
            _check_floor(K, floor)
        return kernel

    @property
    def n(self) -> int:
        return self.K.shape[0]

    @cached_property
    def low_rank(self) -> Optional[LowRankFactor]:
        """The kernel's pivoted Cholesky, or None when its rank exceeds n/4.

        Computed once, on first use, from K alone: every kernel gets the
        factor that the same K read from a file would get. A PSD K has rank
        ≥ tr(K)²/‖K‖²_F, so when that exceeds n/4 no attempt is made.
        """
        K, n = self.K, self.n
        with np.errstate(over="ignore", invalid="ignore"):  # K may be far from PSD
            trace = float(np.trace(K))
            if trace * trace > (n // 4) * float(np.einsum("ij,ij->", K, K)):
                return None
            return pivoted_cholesky(K, n // 4)

    def subset(self, indices) -> "KernelMatrix":
        """Principal submatrix for a subset of stimuli.

        The Gram matrix of a stimulus subset equals the corresponding
        principal submatrix of the pooled Gram matrix, so pooled kernels
        can be precomputed once and sliced per experiment.
        """
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size < 2:
            raise ValidationError("subset needs at least 2 indices")
        if not np.all(np.diff(np.sort(idx))):  # np.unique would import numpy.ma
            raise ValidationError("subset indices must be distinct")
        if idx.min() < 0 or idx.max() >= self.n:
            raise ValidationError("subset index out of range")
        K = self.K[np.ix_(idx, idx)]
        labels = tuple(self.labels[i] for i in idx)
        # principal submatrix of a PSD matrix is PSD, skip re-validation
        return KernelMatrix(K=K, labels=labels)


def gram(rep: RepresentationMatrix) -> KernelMatrix:
    """Linear kernel K[i, j] = <x_i, x_j>, exactly symmetric."""
    X = rep.X
    with np.errstate(over="ignore"):  # an overflowing entry overflows the trace too
        K = X @ X.T
    iu = np.triu_indices(K.shape[0], k=1)
    K[(iu[1], iu[0])] = K[iu]  # mirror so each unordered pair is stored once
    _check_trace(K)
    return KernelMatrix(K=K, labels=rep.labels)


def cholesky_with_jitter(C: np.ndarray):
    """Lower Cholesky factor, rescuing near-PSD matrices with diagonal jitter.

    Jitter starts at 1e-10 * tr(C)/n and escalates tenfold up to
    1e-6 * tr(C)/n before giving up. Returns (factor, jittered C, jitter).
    """
    n = C.shape[0]
    unit = max(np.trace(C) / n, np.finfo(float).tiny)
    try:
        return np.linalg.cholesky(C), C, 0.0
    except np.linalg.LinAlgError:
        pass
    eps = JITTER_START * unit
    max_eps = JITTER_MAX * unit
    while True:
        try:
            Cj = C + eps * np.eye(n)
            return np.linalg.cholesky(Cj), Cj, eps
        except np.linalg.LinAlgError:
            if eps >= max_eps:
                raise NotPositiveDefiniteError(
                    f"Cholesky failed even with jitter {eps:.1e}"
                ) from None
            eps = min(eps * JITTER_FACTOR, max_eps)


class GaussianModel:
    """Zero-mean Gaussian N(0, C) with the lower Cholesky factor of C.

    ``jitter_used`` is the diagonal boost (0 when none was needed) that
    made the factorization succeed; ``C`` includes it.

    A model of a low-rank kernel from ``predictive_covariance`` also
    carries its kernel's ``low_rank`` factor, s and a: C = a I + U Uᵀ with
    U = √s G, up to a dropped residual worth at most ``LOW_RANK_TVD_BOUND``
    in total variation. Its C, chol and jitter_used are computed on first
    access. Other models have low_rank, s, a and U None.
    """

    def __init__(self, dim: int, factorize, low_rank=None, s=None, a=None):
        self.dim = dim
        self._factorize = factorize  # () -> (chol, C, jitter_used)
        self.low_rank, self.s, self.a = low_rank, s, a
        self.U = None if low_rank is None else math.sqrt(s) * low_rank.G

    @cached_property
    def _dense(self):
        return self._factorize()

    chol = property(lambda self: self._dense[0])
    C = property(lambda self: self._dense[1])
    jitter_used = property(lambda self: self._dense[2])

    @classmethod
    def factored(cls, chol, C, jitter_used=0.0) -> "GaussianModel":
        """A model whose Cholesky factor is already known."""
        return cls(C.shape[0], lambda: (chol, C, jitter_used))

    @classmethod
    def from_covariance(cls, C) -> "GaussianModel":
        """Factorize any symmetric positive-definite matrix, keeping its exact symmetric part."""
        return cls.factored(*cholesky_with_jitter(symmetric_part(np.atleast_2d(C), "covariance")))

    @classmethod
    def from_predictive(cls, model: "GaussianModel") -> "GaussianModel":
        """``model`` itself: ``predictive_covariance`` already returns one."""
        return model


def solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L⁻¹B for a lower-triangular L, by recursive block forward substitution.

    Leaves of at most 64 rows go to ``np.linalg.solve`` and each
    off-diagonal block is one matrix product, so all the work runs in
    numpy's own BLAS.
    """
    n = L.shape[0]
    if n <= 64:
        return np.linalg.solve(L, B)
    h = n // 2
    top = solve_lower(L[:h, :h], B[:h])
    bottom = solve_lower(L[h:, h:], B[h:] - L[h:, :h] @ top)
    return np.concatenate((top, bottom))


def check_mixture_weight(a: float) -> float:
    """The noise mixture weight a as a float; it must lie in [0, 1]."""
    if not 0.0 <= a <= 1.0:
        raise ValidationError(f"a={a} outside [0, 1]")
    return float(a)


def check_finite_nonnegative(value: float, what: str) -> float:
    """``value`` as a float; it must be finite and >= 0. ``what`` names it,
    value included, in the error."""
    if not 0.0 <= value < np.inf:
        raise ValidationError(f"{what} must be finite and >= 0")
    return float(value)


def predictive_covariance(kernel: KernelMatrix, a: float) -> GaussianModel:
    """Mix the trace-normalized kernel with isotropic noise and factorize.

    With 0 < a < 1 and a kernel factor whose dropped residual stays within
    ``LOW_RANK_TVD_BOUND``, the model carries C = a I + U Uᵀ and defers
    the dense factorization; otherwise C is factorized here.

    Raises DegenerateRepresentationError when tr(K) <= 0 and a < 1: a
    representation with no signal variance induces no distribution.
    """
    check_mixture_weight(a)
    K = kernel.K
    n = kernel.n
    trace = _check_trace(K)
    if a < 1.0 and trace <= 0.0:
        raise DegenerateRepresentationError(
            "kernel trace is not positive; cannot build a predictive distribution"
        )

    def factorize():
        C = np.eye(n) if a == 1.0 else (1.0 - a) * n * (K / trace) + a * np.eye(n)
        # C is exactly symmetric, so from_covariance's check would only add an n×n pass
        return cholesky_with_jitter(C)

    factor = kernel.low_rank if 0.0 < a < 1.0 else None
    if factor is not None:
        s = (1.0 - a) * n / trace
        if 1.5 * s * float(factor.residual.sum()) / a <= LOW_RANK_TVD_BOUND:
            return GaussianModel(n, factorize, low_rank=factor, s=s, a=a)
    return GaussianModel.factored(*factorize())


def squared_distance_matrix(kernel: KernelMatrix) -> np.ndarray:
    """Squared Euclidean distances between the stimuli of a kernel:
    K[i,i] + K[j,j] - 2 K[i,j], clamped at zero, with a zero diagonal."""
    d = np.diag(kernel.K)
    D2 = d[:, None] + d[None, :]
    D2 -= 2.0 * kernel.K
    np.maximum(D2, 0.0, out=D2)
    np.fill_diagonal(D2, 0.0)
    return D2


def centered_kernel(kernel: KernelMatrix) -> np.ndarray:
    """Doubly centered kernel H K H with H = I - (1/n) 1 1ᵀ."""
    Kc = kernel.K - kernel.K.mean(axis=0, keepdims=True)
    Kc -= kernel.K.mean(axis=1, keepdims=True)
    Kc += kernel.K.mean()
    return Kc
