"""Metric multidimensional scaling by stress majorization (SMACOF).

Majorization guarantees the raw stress never increases between
iterations. Stress is reported normalized by the sum of squared input
dissimilarities, a constant, so the reported value inherits the same
monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernel import squared_distances, symmetric_part
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


def _validate_distance_matrix(D) -> np.ndarray:
    S = symmetric_part(D, "distance matrix")
    if np.any(np.asarray(D) < 0):
        raise ValidationError("distance matrix has negative entries")
    if np.any(np.diag(S) != 0):
        raise ValidationError("distance matrix diagonal must be zero")
    return S


def _pairwise_distances(X: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Distances between the rows of X into ``out``; ``scratch`` is overwritten."""
    G = np.matmul(X, X.T, out=scratch)
    D = squared_distances(G, out=out)
    return np.sqrt(D, out=D)


def _smacof_single(D: np.ndarray, dims: int, rng: np.random.Generator,
                   max_iter: int, tol: float):
    m = D.shape[0]
    denom = float(np.sum(np.triu(D, k=1) ** 2))
    X = rng.standard_normal((m, dims))
    history = []
    # every m×m array lives in one of these buffers for the whole run
    dis, B, work = np.empty((m, m)), np.empty((m, m)), np.empty((m, m))
    positive = np.empty((m, m), dtype=bool)
    lower = np.tri(m, dtype=bool)  # diagonal and below: each pair counts once
    _pairwise_distances(X, dis, work)
    prev = None
    for it in range(1, max_iter + 1):
        # Guttman transform; zero embedded distances contribute nothing
        np.greater(dis, 0.0, out=positive)
        B.fill(0.0)
        np.divide(D, dis, out=B, where=positive)
        row_sums = B.sum(axis=1)
        np.negative(B, out=B)
        B[np.diag_indices_from(B)] += row_sums
        X = (B @ X) / m
        _pairwise_distances(X, dis, work)
        np.subtract(dis, D, out=work)
        np.square(work, out=work)
        work[lower] = 0.0
        raw = float(np.sum(work))
        stress = np.sqrt(raw / denom) if denom > 0 else 0.0
        history.append(stress)
        if prev is not None and prev - stress < tol * max(prev, np.finfo(float).tiny):
            break
        prev = stress
    return X, history[-1], len(history), history


def mds_embed(D, dims: int = 2, seed: int = 0, restarts: int = 8,
              max_iter: int = 500, tol: float = 1e-9) -> Embedding:
    """Embed a symmetric distance matrix into ``dims`` dimensions.

    Runs SMACOF from ``restarts`` independent random initializations and
    keeps the lowest-stress solution (ties broken by restart index).
    ``dims`` may not exceed the number of points m; m - 1 already fit them exactly.
    Coordinates are centered at the origin; orientation is arbitrary.
    Deterministic for a given seed.
    """
    D = _validate_distance_matrix(D)
    if restarts < 1:
        raise ValidationError("restarts must be >= 1")
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")
    if not 0.0 <= tol < np.inf:
        raise ValidationError(f"tol={tol} must be finite and >= 0")
    m = D.shape[0]
    if m < 2:
        raise ValidationError("need at least 2 points")
    if not 1 <= dims <= m:
        raise ValidationError(f"dims must be between 1 and the number of points ({m})")

    if not np.any(D > 0):
        coords = np.zeros((m, dims))
        return Embedding(coords=coords, stress=0.0, n_iterations=0,
                         seed=int(seed), stress_history=())

    best = None
    for r in range(restarts):
        rng = stream_generator(derive_seed(seed, "mds-restart", r))
        X, stress, iters, history = _smacof_single(D, dims, rng, max_iter, tol)
        if best is None or stress < best[0]:
            best = (stress, X, iters, history)
    stress, X, iters, history = best
    X = X - X.mean(axis=0, keepdims=True)
    return Embedding(coords=X, stress=float(stress), n_iterations=iters,
                     seed=int(seed), stress_history=tuple(history))
