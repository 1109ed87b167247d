"""Metric multidimensional scaling by stress majorization (SMACOF).

Majorization never increases the raw stress between iterations; stress
is reported normalized by the constant sum of squared input
dissimilarities, so it inherits that monotonicity up to the rounding
noted below.

The first start is classical scaling (Torgerson 1952), the default start
of de Leeuw & Mair's SMACOF: deterministic, and already exact where the
distances are Euclidean in the target dimension. Further restarts start
from seeded random coordinates and run one after another. A run holds
one m×m buffer, R = δ/d. Each iteration (de Leeuw 1977; Borg & Groenen 2005,
ch. 8) writes every squared distance into R from one product of the
augmented coordinates, [-2X | ‖x‖² | 1] [X | 1 | ‖x‖²]ᵀ, puts 1 on its
diagonal, and takes the square root and the divide of δ in place. One
product R [X | 1] then gives the Guttman transform
X <- (diag(R 1) X - R X)/m, with no B matrix, and the stress of X:
Σ_{i<j} δd = Σ_i ‖x_i‖²(R 1)_i - x_i·(R X)_i and
Σ_{i<j} d² = m Σ_i ‖x_i‖² - ‖Σ_i x_i‖².

That identity resolves the squared normalized stress only to about m·ε
(stress ~1e-7 at m = 150), so the history never increases only up to
that rounding. A change within the rounding cannot stop a run on
``tol``, so a run whose stress falls below that level goes on to
``max_iter``. The last entry of each history, and so the stress
returned, is taken from the final iterate's distances in one more pass.

SMACOF runs on the distances scaled by a power of two that brings the
largest into [0.5, 1), so squares cannot overflow and coordinates and
stress do not depend on the scale of the input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernel import check_finite_nonnegative, symmetric_part
from .seeding import derive_seed, stream_generator


@dataclass(frozen=True)
class Embedding:
    """Low-dimensional coordinates for the points of a distance matrix.

    ``stress`` is normalized stress-1, sqrt(sum (d_ij - delta_ij)^2 /
    sum delta_ij^2) over unordered pairs; ``stress_history`` traces the
    winning restart.
    """

    coords: np.ndarray
    stress: float
    n_iterations: int
    seed: int
    stress_history: tuple[float, ...]


def _final_stress(D: np.ndarray, A: np.ndarray, Ct: np.ndarray, out: np.ndarray,
                  denom: float) -> float:
    """Stress of the coordinates in A and Cᵀ from their distances, in ``out``."""
    np.matmul(A, Ct, out=out)
    np.sqrt(np.maximum(out, 0.0, out=out), out=out)
    out.reshape(-1)[::out.shape[0] + 1] = 0.0
    out -= D
    return float(np.sqrt(0.5 * np.einsum("ij,ij->", out, out) / denom))


def _smacof(D: np.ndarray, start: np.ndarray, max_iter: int,
            tol: float) -> tuple[np.ndarray, list[float]]:
    """(coordinates, stress history) of SMACOF from the (m, dims) start.

    R = δ/d is the only m×m buffer. History entry t is the stress of the
    t-th iterate from the product identity, the last entry from the
    iterate's distances. The run stops at ``max_iter``, or once its
    relative decrease falls below ``tol`` by more than the identity's
    rounding.
    """
    m, dims = start.shape
    denom = 0.5 * float(np.einsum("ij,ij->", D, D))  # Σ_{i<j} δ²
    resolution = m * np.finfo(float).eps  # per unit of the identity's terms, over denom
    X = np.array(start, dtype=float)
    R = np.empty((m, m))
    # A = [-2X | ‖x‖² | 1] and Cᵀ = [X | 1 | ‖x‖²]ᵀ, the ones preset here
    A, Ct = np.empty((m, dims + 2)), np.empty((dims + 2, m))
    A[:, dims + 1] = Ct[dims] = 1.0
    sq, XI = Ct[dims + 1], Ct[:dims + 1].T
    history, noise = [], 0.0  # noise: the rounding of the last squared stress
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(max_iter + 1):
            np.multiply(X, -2.0, out=A[:, :dims])
            Ct[:dims] = X.T
            np.einsum("ij,ij->i", X, X, out=sq)
            A[:, dims] = sq
            np.matmul(A, Ct, out=R)  # squared distances
            R.reshape(-1)[::m + 1] = 1.0  # D's diagonal is 0, so R's comes out 0
            np.sqrt(R, out=R)
            np.divide(D, R, out=R)
            RX = R @ XI  # [R X | R 1]
            if not np.isfinite(RX[:, dims].sum()):
                # coincident points (d = 0: inf, or NaN where δ = 0 too) or a
                # negative rounding square (NaN): those pairs contribute nothing
                R[~np.isfinite(R)] = 0.0
                RX = R @ XI
            if it:  # the stress of X from the same product
                cross = np.einsum("i,i->", sq, RX[:, dims]) - np.einsum("ij,ij->", X, RX[:, :dims])
                total = Ct[:dims].sum(axis=1)  # Σ x_i, over Xᵀ's contiguous rows
                square = m * sq.sum() - np.einsum("j,j->", total, total)
                history.append(float(np.sqrt(max(square - 2.0 * cross + denom, 0.0) / denom)))
                rounding = resolution * (square + 2.0 * abs(cross) + denom) / denom
                floor, noise = noise + rounding, rounding
                # a change within the identity's rounding cannot stop the run
                if it == max_iter or (it > 1 and history[-2] - history[-1] < tol * history[-2]
                                      and abs(history[-2] ** 2 - history[-1] ** 2) > floor):
                    history[-1] = _final_stress(D, A, Ct, R, denom)
                    return X, history
            X = (X * RX[:, dims:] - RX[:, :dims]) / m


def _torgerson(D: np.ndarray, dims: int) -> np.ndarray:
    """Classical scaling (Torgerson 1952): the (m, dims) start of restart 0.

    Double-centers B = -J D² J / 2 and takes its top ``dims``
    eigenvectors scaled by √λ, so for a D that is Euclidean in ``dims``
    dimensions the start reproduces it before any iteration. A column
    with λ ≤ 0 starts at zero, and SMACOF stays in the subspace the
    others span: the Guttman transform keeps a zero column zero. Where
    the top eigenvalues tie, as for equal distances, the eigenvectors
    are any basis of their space, fixed by the LAPACK build; the start
    is still deterministic but need not be a good one (m = 10 equal
    distances: stress 0.3456 from it, 0.3315 from the best of 8 random
    starts), and more ``restarts`` can do better.
    """
    B = D * D
    B *= -0.5
    B -= B.mean(axis=0)
    B -= B.mean(axis=1, keepdims=True)
    w, V = np.linalg.eigh(B)  # ascending
    return V[:, :-dims - 1:-1] * np.sqrt(np.maximum(w[:-dims - 1:-1], 0.0))


def check_embed_args(dims: int, seed: int, restarts: int, max_iter: int, tol: float) -> None:
    """``mds_embed``'s argument rules, none of which needs the distances."""
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")
    check_finite_nonnegative(tol, f"tol={tol}")
    if dims < 1:
        raise ValidationError("dims must be >= 1")
    derive_seed(seed)  # refuses a seed outside its range


def mds_embed(D, dims: int = 2, seed: int = 0, restarts: int = 1,
              max_iter: int = 500, tol: float = 1e-9) -> Embedding:
    """Embed a symmetric distance matrix into ``dims`` dimensions.

    Runs SMACOF from ``restarts`` starts, one after another, and keeps the
    lowest-stress solution (ties broken by restart index). Restart 0
    starts from classical scaling (``_torgerson``), which is exact for a
    D that is Euclidean in ``dims`` dimensions; restart r ≥ 1 from
    standard normal coordinates seeded by ``seed`` and r, so ``seed``
    matters only when ``restarts`` > 1.
    ``dims`` may not exceed the number of points m; m - 1 already fit them exactly.
    Coordinates are centered at the origin; orientation is arbitrary.
    Deterministic for a given seed.
    """
    check_embed_args(dims, seed, restarts, max_iter, tol)
    S = symmetric_part(D, "distance matrix")
    if np.any(np.asarray(D) < 0):
        raise ValidationError("distance matrix has negative entries")
    if np.any(np.diag(S) != 0):
        raise ValidationError("distance matrix diagonal must be zero")
    D = S
    m = D.shape[0]
    if m < 2:
        raise ValidationError("need at least 2 points")
    if dims > m:
        raise ValidationError(f"dims must be between 1 and the number of points ({m})")

    if not np.any(D > 0):
        return Embedding(coords=np.zeros((m, dims)), stress=0.0, n_iterations=0,
                         seed=int(seed), stress_history=())

    exponent = np.frexp(D.max())[1]
    np.ldexp(D, -exponent, out=D)  # D is symmetric_part's own copy
    best = None
    for r in range(restarts):
        start = (_torgerson(D, dims) if r == 0 else
                 stream_generator(derive_seed(seed, "mds-restart", r)).standard_normal((m, dims)))
        X, history = _smacof(D, start, max_iter, tol)
        if best is None or history[-1] < best[1][-1]:
            best = X, history
    X, history = best
    X = np.ldexp(X, exponent)
    X -= X.mean(axis=0, keepdims=True)
    return Embedding(coords=X, stress=history[-1], n_iterations=len(history),
                     seed=int(seed), stress_history=tuple(history))
