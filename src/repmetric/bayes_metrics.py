"""Monte-Carlo distances between two zero-mean Gaussians.

Both estimators average a per-index summand over N paired draws, one
stream per distribution, so the reported standard error is simply the
sample standard deviation of the summands over sqrt(N). ``estimate``
builds any subset of the metrics below from one shared set of draws.

Total variation distance uses the one-sided density-ratio form

    TVD ≈ mean_i [ max(0, 1 - p2/p1)(x_i) + max(0, 1 - p1/p2)(y_i) ] / 2

with x ~ P1 and y ~ P2. The Jensen-Shannon divergence is normalized to
[0, 1] in bits,

    JSD ≈ 1 + mean_i [ log2(p1/(p1+p2))(x_i) + log2(p2/(p1+p2))(y_i) ] / 2,

so identical distributions score 0 and disjoint ones 1. All density
ratios are evaluated in log space via log-sum-exp. The Jensen-Shannon
distance is the square root of the (clamped) divergence, with a
delta-method standard error; near zero, where the delta method blows
up, the square root of the divergence's standard error is reported
instead and flagged as degenerate.

Gradients with respect to the two covariance matrices reuse the exact
draws of the value estimate (common random numbers) and differentiate
through both the log densities and the Cholesky factor of the sampling
transformation y = L z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .errors import ValidationError
from .mvn import GaussianModel, log_density, sample

LN2 = math.log(2.0)

BAYES_METRICS = ("tvd", "jsd", "js_distance")


@dataclass(frozen=True)
class DistanceEstimate:
    """Point estimate with its Monte-Carlo uncertainty.

    ``raw_value`` is the estimate before clamping to [0, 1];
    ``summand_variance`` v gives the estimator variance v / n_samples.
    """

    value: float
    std_error: float
    n_samples: int
    metric: str
    seed: int
    raw_value: float
    summand_variance: float
    degenerate_se: bool = False


@dataclass(frozen=True)
class DistanceGradient:
    """Symmetric gradients of a sampled distance estimate."""

    d_cov1: np.ndarray
    d_cov2: np.ndarray
    seed: int
    metric: str


def _check_pair(model1: GaussianModel, model2: GaussianModel, n_draws: int) -> None:
    if model1.dim != model2.dim:
        raise ValidationError(
            f"dimension mismatch: {model1.dim} vs {model2.dim}"
        )
    if n_draws < 2:
        raise ValidationError("need at least 2 draws for a standard error")


def _pair_log_densities(model1, model2, n_draws, seed):
    """Sample both models and cross-evaluate all four log densities."""
    b1 = sample(model1, n_draws, seed, stream=0)
    b2 = sample(model2, n_draws, seed, stream=1)
    l11 = log_density(model1, b1.Y)
    l21 = log_density(model2, b1.Y)
    l12 = log_density(model1, b2.Y)
    l22 = log_density(model2, b2.Y)
    return b1, b2, l11, l21, l12, l22


def _tvd_summands(l11, l21, l12, l22):
    d1 = l21 - l11
    d2 = l12 - l22
    u1 = np.where(d1 < 0.0, -np.expm1(np.minimum(d1, 0.0)), 0.0)
    u2 = np.where(d2 < 0.0, -np.expm1(np.minimum(d2, 0.0)), 0.0)
    return 0.5 * (u1 + u2)


def _log_mixture_fraction(d):
    """log(p_own / (p_own + p_other)) from d = log p_own - log p_other.

    Working from the difference keeps everything at unit scale, so the
    result is exactly -log 2 at d = 0 and carries no rounding bias
    proportional to the log-density magnitude.
    """
    return -(np.maximum(-d, 0.0) + np.log1p(np.exp(-np.abs(d))))


def _jsd_summands(l11, l21, l12, l22):
    t1 = _log_mixture_fraction(l11 - l21) / LN2
    t2 = _log_mixture_fraction(l22 - l12) / LN2
    return 1.0 + 0.5 * (t1 + t2)


def _estimate_from_summands(s, metric, n_draws, seed):
    raw = float(s.mean())
    var = float(s.var(ddof=1))
    se = math.sqrt(var / n_draws)
    return DistanceEstimate(
        value=min(max(raw, 0.0), 1.0),
        std_error=se,
        n_samples=int(n_draws),
        metric=metric,
        seed=int(seed),
        raw_value=raw,
        summand_variance=var,
    )


def estimate(metrics: Sequence[str], model1: GaussianModel, model2: GaussianModel,
             n_draws: int, seed: int) -> dict[str, DistanceEstimate]:
    """Every requested metric of 'tvd', 'jsd' and 'js_distance' for one pair.

    All three are functionals of the same four log-density arrays, so
    the pair is sampled and cross-evaluated once however many metrics
    are requested; each result equals a separate call with this seed.
    """
    unknown = [m for m in metrics if m not in BAYES_METRICS]
    if unknown:
        raise ValidationError(f"unknown Bayes metric {unknown[0]!r}")
    _check_pair(model1, model2, n_draws)
    _, _, *logs = _pair_log_densities(model1, model2, n_draws, seed)
    out = {}
    if "tvd" in metrics:
        out["tvd"] = _estimate_from_summands(_tvd_summands(*logs), "tvd", n_draws, seed)
    if "jsd" in metrics or "js_distance" in metrics:
        out["jsd"] = _estimate_from_summands(_jsd_summands(*logs), "jsd", n_draws, seed)
        out["js_distance"] = js_distance_from_jsd(out["jsd"])
    return {m: out[m] for m in metrics}


def tvd(model1: GaussianModel, model2: GaussianModel, n_draws: int,
        seed: int) -> DistanceEstimate:
    """Sampled total variation distance between two Gaussians."""
    return estimate(("tvd",), model1, model2, n_draws, seed)["tvd"]


def jsd(model1: GaussianModel, model2: GaussianModel, n_draws: int,
        seed: int) -> DistanceEstimate:
    """Sampled Jensen-Shannon divergence, in bits, clamped to [0, 1]."""
    return estimate(("jsd",), model1, model2, n_draws, seed)["jsd"]


def js_distance(model1: GaussianModel, model2: GaussianModel, n_draws: int,
                seed: int) -> DistanceEstimate:
    """Square root of the Jensen-Shannon divergence; a metric."""
    return estimate(("js_distance",), model1, model2, n_draws, seed)["js_distance"]


def js_distance_from_jsd(est: DistanceEstimate) -> DistanceEstimate:
    """Apply the square-root transform and propagate the standard error."""
    if est.metric != "jsd":
        raise ValidationError("js_distance requires a jsd estimate")
    d = est.value
    root = math.sqrt(d)
    if d > est.std_error:
        se = est.std_error / (2.0 * root)
        degenerate = False
    else:
        # near zero the delta method diverges; sqrt of the SE still
        # shrinks with N and upper-bounds the actual spread
        se = math.sqrt(est.std_error)
        degenerate = True
    return replace(est, value=root, std_error=se, metric="js_distance",
                   raw_value=root, degenerate_se=degenerate)


def estimator_variance_profile(pairs: Sequence[tuple], n_draws: int, seed: int,
                               metric: str = "jsd") -> list[tuple[float, float]]:
    """Per-pair (estimate, single-summand variance) over covariance pairs.

    The estimator variance for a pair is its summand variance divided
    by ``n_draws``.
    """
    if len(pairs) == 0:
        raise ValidationError("need at least one covariance pair")
    out = []
    for i, (c1, c2) in enumerate(pairs):
        m1 = GaussianModel.from_covariance(c1)
        m2 = GaussianModel.from_covariance(c2)
        est = estimate((metric,), m1, m2, n_draws, seed + i)[metric]
        out.append((est.value, est.summand_variance))
    return out


# ---------------------------------------------------------------------------
# Reparameterized gradients
# ---------------------------------------------------------------------------

def _solve_cov(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """C^{-1} B via two triangular solves with C = L Lᵀ."""
    t = solve_triangular(L, B, lower=True, check_finite=False)
    return solve_triangular(L, t, lower=True, trans="T", check_finite=False)


def _cholesky_adjoint(L: np.ndarray, L_bar: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the Cholesky factor back to the covariance."""
    A = L.T @ L_bar
    phi = np.tril(A)
    phi[np.diag_indices_from(phi)] *= 0.5
    T = solve_triangular(L, phi, lower=True, trans="T", check_finite=False)
    G = solve_triangular(L, T.T, lower=True, trans="T", check_finite=False).T
    return G


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _gradient(metric: str, cov1, cov2, n_draws: int, seed: int) -> DistanceGradient:
    model1 = GaussianModel.from_covariance(cov1)
    model2 = GaussianModel.from_covariance(cov2)
    _check_pair(model1, model2, n_draws)
    b1, b2, l11, l21, l12, l22 = _pair_log_densities(model1, model2, n_draws, seed)
    n = model1.dim
    N = n_draws

    # per-sample weights dV/dl_j at each draw; block 1 is x ~ P1, block 2 y ~ P2
    if metric == "tvd":
        d1 = l21 - l11
        d2 = l12 - l22
        r1 = np.where(d1 < 0.0, np.exp(np.minimum(d1, 0.0)), 0.0)
        r2 = np.where(d2 < 0.0, np.exp(np.minimum(d2, 0.0)), 0.0)
        w_l1_b1 = r1 / (2.0 * N)
        w_l2_b1 = -r1 / (2.0 * N)
        w_l1_b2 = -r2 / (2.0 * N)
        w_l2_b2 = r2 / (2.0 * N)
    elif metric == "jsd":
        frac2_b1 = np.exp(_log_mixture_fraction(l21 - l11))  # p2/(p1+p2) at block 1
        frac1_b2 = np.exp(_log_mixture_fraction(l12 - l22))  # p1/(p1+p2) at block 2
        w_l1_b1 = frac2_b1 / (2.0 * N * LN2)
        w_l2_b1 = -frac2_b1 / (2.0 * N * LN2)
        w_l1_b2 = -frac1_b2 / (2.0 * N * LN2)
        w_l2_b2 = frac1_b2 / (2.0 * N * LN2)
    else:
        raise ValidationError(f"no gradient for metric {metric!r}")

    L1, L2 = model1.chol, model2.chol
    V11 = _solve_cov(L1, b1.Y.T)  # C1^{-1} x_i as columns
    V21 = _solve_cov(L2, b1.Y.T)
    V12 = _solve_cov(L1, b2.Y.T)
    V22 = _solve_cov(L2, b2.Y.T)
    C1_inv = _solve_cov(L1, np.eye(n))
    C2_inv = _solve_cov(L2, np.eye(n))

    # explicit dependence: dl_j/dC_j = (v vᵀ - C_j^{-1}) / 2 with v = C_j^{-1} x
    g1 = 0.5 * ((V11 * w_l1_b1) @ V11.T + (V12 * w_l1_b2) @ V12.T) \
        - 0.5 * (w_l1_b1.sum() + w_l1_b2.sum()) * C1_inv
    g2 = 0.5 * ((V21 * w_l2_b1) @ V21.T + (V22 * w_l2_b2) @ V22.T) \
        - 0.5 * (w_l2_b1.sum() + w_l2_b2.sum()) * C2_inv

    # sampling-path dependence: x = L z moves when C does; dl/dx = -C^{-1} x
    X_bar1 = -(w_l1_b1[:, None] * V11.T + w_l2_b1[:, None] * V21.T)
    X_bar2 = -(w_l1_b2[:, None] * V12.T + w_l2_b2[:, None] * V22.T)
    g1 = g1 + _cholesky_adjoint(L1, X_bar1.T @ b1.Z)
    g2 = g2 + _cholesky_adjoint(L2, X_bar2.T @ b2.Z)

    return DistanceGradient(d_cov1=_symmetrize(g1), d_cov2=_symmetrize(g2),
                            seed=int(seed), metric=metric)


def tvd_gradient(cov1, cov2, n_draws: int, seed: int) -> DistanceGradient:
    """Gradient of the sampled TVD w.r.t. both covariances.

    Uses the same draws as ``tvd`` with the same seed; the hinge
    max(0, .) contributes zero derivative at its kink.
    """
    return _gradient("tvd", cov1, cov2, n_draws, seed)


def jsd_gradient(cov1, cov2, n_draws: int, seed: int) -> DistanceGradient:
    """Gradient of the sampled JSD w.r.t. both covariances."""
    return _gradient("jsd", cov1, cov2, n_draws, seed)
