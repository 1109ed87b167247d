"""Metric multidimensional scaling by stress majorization (SMACOF).

Majorization guarantees the raw stress never increases between
iterations; stress is reported normalized by the constant sum of
squared input dissimilarities, so it inherits that monotonicity.

Each iteration makes the few m×m passes SMACOF needs (de Leeuw 1977;
Borg & Groenen 2005, ch. 8): one divide for R = δ/d; the Guttman
transform X <- (diag(R 1) X - R X)/m from one product R [X | 1], with no
B matrix; every squared distance from one product of augmented
coordinates, [-2X | ‖x‖² | 1] [X | 1 | ‖x‖²]ᵀ; and stress as half the
squared norm of d - δ, so each pair counts once.

SMACOF runs on the distances scaled by a power of two that brings the
largest into [0.5, 1), so squares cannot overflow and coordinates and
stress do not depend on the scale of the input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernel import symmetric_part
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


def _distances(X: np.ndarray, A: np.ndarray, Ct: np.ndarray, dis: np.ndarray) -> None:
    """Distances between the rows of X into ``dis``, diagonal left as is."""
    p = X.shape[1]
    np.multiply(X, -2.0, out=A[:, :p])
    Ct[:p] = X.T
    np.einsum("ij,ij->i", X, X, out=Ct[p + 1])
    A[:, p] = Ct[p + 1]
    np.matmul(A, Ct, out=dis)
    np.sqrt(np.maximum(dis, 0.0, out=dis), out=dis)


def _smacof_single(D: np.ndarray, dims: int, rng: np.random.Generator,
                   max_iter: int, tol: float):
    m = D.shape[0]
    denom = float(np.sum(np.triu(D, k=1) ** 2))
    tiny = np.finfo(float).tiny
    X = rng.standard_normal((m, dims))
    history = []
    dis, R = np.empty((m, m)), np.empty((m, m))  # R = D/dis, later dis - D
    # A = [-2X | ‖x‖² | 1] and Cᵀ = [X | 1 | ‖x‖²]ᵀ, the ones preset here
    A, Ct = np.empty((m, dims + 2)), np.empty((dims + 2, m))
    A[:, dims + 1] = Ct[dims] = 1.0
    diagonal = dis.reshape(-1)[::m + 1]
    _distances(X, A, Ct, dis)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            diagonal.fill(1.0)  # D's diagonal is 0, so R's comes out 0
            np.divide(D, dis, out=R)
            RX = R @ Ct[:dims + 1].T  # [R X | R 1]
            if not math.isfinite(RX[:, dims].sum()):
                # coincident embedded points: their pairs contribute nothing
                R[dis == 0.0] = 0.0
                RX = R @ Ct[:dims + 1].T
            X = (X * RX[:, dims:] - RX[:, :dims]) / m
            _distances(X, A, Ct, dis)
            diagonal.fill(0.0)
            np.subtract(dis, D, out=R)
            # half of both triangles: each pair once; einsum, unlike vdot, starts no BLAS threads
            history.append(math.sqrt(0.5 * np.einsum("ij,ij->", R, R) / denom))
            if len(history) > 1 and history[-2] - history[-1] < tol * max(history[-2], tiny):
                break
    return X, history


def mds_embed(D, dims: int = 2, seed: int = 0, restarts: int = 8,
              max_iter: int = 500, tol: float = 1e-9) -> Embedding:
    """Embed a symmetric distance matrix into ``dims`` dimensions.

    Runs SMACOF from ``restarts`` independent random initializations and
    keeps the lowest-stress solution (ties broken by restart index).
    ``dims`` may not exceed the number of points m; m - 1 already fit them exactly.
    Coordinates are centered at the origin; orientation is arbitrary.
    Deterministic for a given seed.
    """
    S = symmetric_part(D, "distance matrix")
    if np.any(np.asarray(D) < 0):
        raise ValidationError("distance matrix has negative entries")
    if np.any(np.diag(S) != 0):
        raise ValidationError("distance matrix diagonal must be zero")
    D = S
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
        return Embedding(coords=np.zeros((m, dims)), stress=0.0, n_iterations=0,
                         seed=int(seed), stress_history=())

    exponent = np.frexp(D.max())[1]
    D = np.ldexp(D, -exponent)
    best = None
    for r in range(restarts):
        rng = stream_generator(derive_seed(seed, "mds-restart", r))
        X, history = _smacof_single(D, dims, rng, max_iter, tol)
        if best is None or history[-1] < best[1][-1]:
            best = X, history
    X, history = best
    X = np.ldexp(X, exponent)
    X -= X.mean(axis=0, keepdims=True)
    return Embedding(coords=X, stress=history[-1], n_iterations=len(history),
                     seed=int(seed), stress_history=tuple(history))
