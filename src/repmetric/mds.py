"""Metric multidimensional scaling by stress majorization (SMACOF).

Majorization never increases the raw stress between iterations; stress
is reported normalized by the constant sum of squared input
dissimilarities, so it inherits that monotonicity up to the rounding
noted below.

Restarts advance together, as many at a time as keep their (k, m, m)
stack and D within ``SMACOF_BATCH_BYTES``, which bounds the stack's
memory; a batch holds at least one restart. The stack is the only
m×m buffer, R = δ/d. Each iteration (de Leeuw 1977; Borg & Groenen 2005,
ch. 8) writes every squared distance into R from one product of the
augmented coordinates, [-2X | ‖x‖² | 1] [X | 1 | ‖x‖²]ᵀ, puts 1 on its
diagonal, and takes the square root and the divide of δ in place. One
product R [X | 1] then gives the Guttman transform
X <- (diag(R 1) X - R X)/m, with no B matrix, and the stress of X:
Σ_{i<j} δd = Σ_i ‖x_i‖²(R 1)_i - x_i·(R X)_i and
Σ_{i<j} d² = m Σ_i ‖x_i‖² - ‖Σ_i x_i‖².

That identity resolves the squared normalized stress only to about m·ε
(stress ~1e-7 at m = 150), so the history never increases only up to
that rounding. A change within the rounding cannot stop a restart on
``tol``, so a restart whose stress falls below that level runs to
``max_iter``. The last entry of each history, and so the stress
returned, is taken from the final iterate's distances in one more pass.

SMACOF runs on the distances scaled by a power of two that brings the
largest into [0.5, 1), so squares cannot overflow and coordinates and
stress do not depend on the scale of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .kernel import check_finite_nonnegative, symmetric_part
from .seeding import derive_seed, stream_generator

SMACOF_BATCH_BYTES = 2 << 20  # restarts advanced together keep their R stack and D within this


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


def _smacof(D: np.ndarray, dims: int, starts: Sequence[np.ndarray], max_iter: int,
            tol: float) -> list[tuple[np.ndarray, list[float]]]:
    """(coordinates, stress history) of SMACOF from each (m, dims) start.

    The restarts advance together in one (k, m, m) stack that only ever
    holds R = δ/d. History entry t is the stress of the t-th iterate from
    the product identity, the last entry from the iterate's distances. A
    restart whose relative decrease falls below ``tol``, by more than the
    identity's rounding, leaves the batch with its own history; the rest
    run on to ``max_iter``.
    """
    k, m = len(starts), D.shape[0]
    denom = 0.5 * float(np.einsum("ij,ij->", D, D))  # Σ_{i<j} δ²
    resolution = m * np.finfo(float).eps  # per unit of the identity's terms, over denom
    X = np.array(starts, dtype=float)
    R = np.empty((k, m, m))
    # A = [-2X | ‖x‖² | 1] and Cᵀ = [X | 1 | ‖x‖²]ᵀ, the ones preset here
    A, Ct = np.empty((k, m, dims + 2)), np.empty((k, dims + 2, m))
    A[:, :, dims + 1] = Ct[:, dims] = 1.0
    live, coords, histories = list(range(k)), [None] * k, [[] for _ in range(k)]
    noise = [0.0] * k  # the rounding of each restart's last squared stress
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(max_iter + 1):
            Rk, sq = R[:len(live)], Ct[:, dims + 1]
            np.multiply(X, -2.0, out=A[:, :, :dims])
            Ct[:, :dims] = X.transpose(0, 2, 1)
            np.einsum("kij,kij->ki", X, X, out=sq)
            A[:, :, dims] = sq
            np.matmul(A, Ct, out=Rk)  # squared distances
            Rk.reshape(len(live), -1)[:, ::m + 1] = 1.0  # D's diagonal is 0, so R's comes out 0
            np.sqrt(Rk, out=Rk)
            np.divide(D, Rk, out=Rk)
            XI = Ct[:, :dims + 1].transpose(0, 2, 1)
            RX = np.matmul(Rk, XI)  # [R X | R 1]
            for b in np.flatnonzero(~np.isfinite(RX[:, :, dims].sum(axis=1))):
                # coincident points (d = 0: inf, or NaN where δ = 0 too) or a
                # negative rounding square (NaN): those pairs contribute nothing
                Rk[b][~np.isfinite(Rk[b])] = 0.0
                RX[b] = Rk[b] @ XI[b]
            if it:  # the stress of X from the same product
                cross = (np.einsum("ki,ki->k", sq, RX[:, :, dims])
                         - np.einsum("kij,kij->k", X, RX[:, :, :dims]))
                total = Ct[:, :dims].sum(axis=2)  # Σ x_i, over Xᵀ's contiguous rows
                square = m * sq.sum(axis=1) - np.einsum("kj,kj->k", total, total)
                stress = np.sqrt(np.maximum(square - 2.0 * cross + denom, 0.0) / denom)
                rounding = resolution * (square + 2.0 * np.abs(cross) + denom) / denom
                going = np.ones(len(live), dtype=bool)
                for b, r in enumerate(live):
                    history = histories[r]
                    history.append(float(stress[b]))
                    floor, noise[r] = noise[r] + rounding[b], rounding[b]
                    # a change within the identity's rounding cannot stop a restart
                    if it == max_iter or (it > 1 and history[-2] - history[-1] < tol * history[-2]
                                          and abs(history[-2] ** 2 - history[-1] ** 2) > floor):
                        history[-1] = _final_stress(D, A[b], Ct[b], Rk[b], denom)
                        coords[r], going[b] = X[b], False
                if not going.all():
                    live = [r for r, g in zip(live, going) if g]
                    if not live:
                        break
                    X, RX, A, Ct = X[going], RX[going], A[going], Ct[going]
            X = (X * RX[:, :, dims:] - RX[:, :, :dims]) / m
    return list(zip(coords, histories))


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


def mds_embed(D, dims: int = 2, seed: int = 0, restarts: int = 8,
              max_iter: int = 500, tol: float = 1e-9) -> Embedding:
    """Embed a symmetric distance matrix into ``dims`` dimensions.

    Runs SMACOF from ``restarts`` independent random initializations and
    keeps the lowest-stress solution (ties broken by restart index).
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
    per_batch = max(1, SMACOF_BATCH_BYTES // (8 * m * m) - 1)  # the R stack and D
    best = None
    for lo in range(0, restarts, per_batch):
        starts = [stream_generator(derive_seed(seed, "mds-restart", r)).standard_normal((m, dims))
                  for r in range(lo, min(lo + per_batch, restarts))]
        for X, history in _smacof(D, dims, starts, max_iter, tol):
            if best is None or history[-1] < best[1][-1]:
                best = X, history
    X, history = best
    X = np.ldexp(X, exponent)
    X -= X.mean(axis=0, keepdims=True)
    return Embedding(coords=X, stress=history[-1], n_iterations=len(history),
                     seed=int(seed), stress_history=tuple(history))
