"""Zero-mean multivariate Gaussian: seeded draws, sampling and log densities.

``standard_normal_block`` is the one source of randomness: the z block
for a (seed, stream) pair. ``sample`` maps it through the lower Cholesky
factor (y = L z); the Monte-Carlo estimators in ``bayes_metrics`` take
the same z and never form y. Log densities use triangular solves; no
inverse is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernel import PredictiveCovariance, cholesky_with_jitter, solve_lower
from .seeding import stream_generator

LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GaussianModel:
    """Zero-mean Gaussian pinned down by a covariance and its factor."""

    cov: np.ndarray
    chol: np.ndarray
    log_det: float
    dim: int
    jitter_used: float = 0.0

    @classmethod
    def from_covariance(cls, C) -> "GaussianModel":
        """Build from any symmetric positive-definite matrix."""
        C = np.atleast_2d(np.asarray(C, dtype=np.float64))
        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ValidationError("covariance must be square")
        if not np.all(np.isfinite(C)):
            raise ValidationError("covariance contains non-finite values")
        L, C, jitter = cholesky_with_jitter(C)
        log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
        return cls(cov=C, chol=L, log_det=log_det, dim=C.shape[0], jitter_used=jitter)

    @classmethod
    def from_predictive(cls, pc: PredictiveCovariance) -> "GaussianModel":
        log_det = 2.0 * float(np.sum(np.log(np.diag(pc.cholesky))))
        return cls(cov=pc.C, chol=pc.cholesky, log_det=log_det,
                   dim=pc.n, jitter_used=pc.jitter_used)


@dataclass(frozen=True)
class SampleBlock:
    """N draws plus the standard-normal noise they were built from."""

    Z: np.ndarray
    Y: np.ndarray
    seed: int
    stream: int


def standard_normal_block(n_draws: int, dim: int, seed: int, stream: int = 0) -> np.ndarray:
    """``n_draws`` x ``dim`` standard normals, deterministic for (seed, stream)."""
    if n_draws < 1:
        raise ValidationError("need at least one draw")
    return stream_generator(seed, stream).standard_normal((n_draws, dim))


def sample(model: GaussianModel, n_draws: int, seed: int, stream: int = 0) -> SampleBlock:
    """Draw ``n_draws`` vectors, deterministically for (model, seed, stream)."""
    Z = standard_normal_block(n_draws, model.dim, seed, stream)
    Y = Z @ model.chol.T
    return SampleBlock(Z=Z, Y=Y, seed=int(seed), stream=int(stream))


def log_density(model: GaussianModel, points) -> np.ndarray:
    """log p(x) = -0.5 (n log 2π + log|C| + ||L⁻¹x||²) for each row of ``points``."""
    P = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if P.shape[1] != model.dim:
        raise ValidationError(f"points have dimension {P.shape[1]}, model has {model.dim}")
    if not np.all(np.isfinite(P)):
        raise ValidationError("points contain non-finite values")
    U = solve_lower(model.chol, P.T)
    quad = np.einsum("ij,ij->j", U, U)
    return -0.5 * (model.dim * LOG_2PI + model.log_det + quad)
