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
ratios are evaluated in log space, and each JSD summand as
[log2(2p1/(p1+p2))(x_i) + log2(2p2/(p1+p2))(y_i)] / 2, which stays
accurate for tiny divergences where 1 + log2(.) would cancel. The Jensen-Shannon
distance is the square root of the (clamped) divergence, with a
delta-method standard error; near zero, where the delta method blows
up, the square root of the divergence's standard error is reported
instead and flagged as degenerate.

Each side of a pair is evaluated from its standard normals, never as
samples, by one of two exact paths (one Philox block per side either
way):

* Dense. The draws x = L1 z give L2⁻¹x = T z with the n×n triangular
  T = L2⁻¹L1, so

      log p2/p1 (x) = Σ log diag T - (‖T z‖² - ‖z‖²) / 2,

  one n×n triangular solve and one N×n product per side.
* Low rank, when both models carry C_i = a I + U_i U_iᵀ with the same a
  (``predictive_covariance`` of a kernel of rank k_i ≤ n/4 with
  0 < a < 1). Only the part of x in span[U1 U2], of rank r ≤ k1 + k2,
  tells the two apart: the rest is N(0, a I) under both and cancels
  from every log ratio, as it does in Woodbury's identity and the
  matrix determinant lemma. One pivoted Cholesky of the Gram of
  [U1 U2] writes both U's in an orthonormal basis of that span, and the
  dense evaluation of the two r×r covariances a I + V_i V_iᵀ, with N×r
  draws per side, gives exactly these log ratios: O(r³ + N·r²) per
  side, whatever n is.

Both paths draw different normals for the same seed. Bitwise-equal
factors (L, or U and a) give a log ratio of exactly zero.

Gradients with respect to the two covariance matrices always take the
dense path and reuse its exact draws (common random numbers), and
differentiate through x = L z as well as through the densities. Both
pieces depend on the draws only through the weighted Gram matrix
G = zᵀ diag(r) z, with r the per-draw sensitivity of the estimate to its
log ratio, so all remaining work is n×n triangular algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .kernel import GaussianModel, pivoted_cholesky, solve_lower
from .seeding import standard_normal_block

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


def _whitened_side(own, other, n_draws, seed, stream):
    """Draws of P_own and the log ratio d = log p_other/p_own at each.

    Returns (z, T, d): the standard normals behind x = L_own z, the
    triangular T = L_other⁻¹ L_own that maps them to L_other⁻¹ x, and d.
    """
    z = standard_normal_block(n_draws, own.dim, seed, stream)
    if np.array_equal(own.chol, other.chol):
        # identical distributions: d is exactly zero, not rounding noise
        return z, np.eye(own.dim), np.zeros(n_draws)
    T = solve_lower(other.chol, own.chol)
    U = z @ T.T
    quad = np.einsum("ij,ij->i", U, U) - np.einsum("ij,ij->i", z, z)
    d = float(np.sum(np.log(np.diag(T)))) - 0.5 * quad
    return z, T, d


def _span_models(model1, model2):
    """The pair restricted to span[U1 U2]: r-dimensional models, same log ratios.

    Both models carry U and the same a. One pivoted Cholesky of the Gram
    of W = [U1 U2] gives WᵀW = RᵀR with R r×(k1+k2), r = rank W, so the
    column blocks V1, V2 of R are U1, U2 in an orthonormal basis Q of
    span W. With x = Q y + x⊥, x⊥ is N(0, a(I - QQᵀ)) under both models
    and cancels from every log ratio, while y ~ N(0, a I + Vᵢ Vᵢᵀ). Returns
    None when one of these r×r covariances fails to factorize (a below
    the rounding level of Vᵢ Vᵢᵀ).
    """
    same = np.array_equal(model1.U, model2.U)  # then d is exactly zero
    W = model1.U if same else np.hstack((model1.U, model2.U))
    R = pivoted_cholesky(W.T @ W, W.shape[1]).G.T
    k1 = model1.U.shape[1]
    models = []
    for V in (R,) if same else (R[:, :k1], R[:, k1:]):
        C = V @ V.T + model1.a * np.eye(R.shape[0])
        try:
            L = np.linalg.cholesky(C)
        except np.linalg.LinAlgError:
            return None
        models.append(GaussianModel.factored(L, C))
    return models * 2 if same else models


def _tvd_summands(d1, d2):
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


def _log_twice_mixture_fraction(d):
    """log(2 p_own / (p_own + p_other)) from d = log p_other - log p_own.

    As -max(d, 0) - log1p(expm1(-|d|)/2) it is exactly 0 at d = 0 and
    relatively accurate for tiny |d|, where 1 + log2(p_own/(p_own + p_other))
    would cancel to rounding noise with a bias of its own.
    """
    return -np.maximum(d, 0.0) - np.log1p(0.5 * np.expm1(-np.abs(d)))


def _jsd_summands(d1, d2):
    return (_log_twice_mixture_fraction(d1) + _log_twice_mixture_fraction(d2)) / (2.0 * LN2)


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

    All three are functionals of the same two log-ratio arrays, so the
    pair is drawn and evaluated once however many metrics are
    requested; each result equals a separate call with this seed. The
    low-rank path is taken when both models carry U and the same a.
    """
    unknown = [m for m in metrics if m not in BAYES_METRICS]
    if unknown:
        raise ValidationError(f"unknown Bayes metric {unknown[0]!r}")
    _check_pair(model1, model2, n_draws)
    if model1.U is not None and model2.U is not None and model1.a == model2.a:
        model1, model2 = _span_models(model1, model2) or (model1, model2)
    d1 = _whitened_side(model1, model2, n_draws, seed, stream=0)[2]
    d2 = _whitened_side(model2, model1, n_draws, seed, stream=1)[2]
    out = {}
    if "tvd" in metrics:
        out["tvd"] = _estimate_from_summands(_tvd_summands(d1, d2), "tvd", n_draws, seed)
    if "jsd" in metrics or "js_distance" in metrics:
        out["jsd"] = _estimate_from_summands(_jsd_summands(d1, d2), "jsd", n_draws, seed)
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


# ---------------------------------------------------------------------------
# Reparameterized gradients
# ---------------------------------------------------------------------------

def _sensitivities(metric: str, d: np.ndarray) -> np.ndarray:
    """r_i = -dV/dd_i, how fast the estimate V falls as draw i's log ratio rises.

    Both summands decrease in d, so r is never negative.
    """
    if metric == "tvd":
        return np.where(d < 0.0, np.exp(np.minimum(d, 0.0)), 0.0) / (2.0 * d.size)
    if metric == "jsd":
        return np.exp(_log_mixture_fraction(d)) / (2.0 * d.size * LN2)  # p_other/(p1+p2)
    raise ValidationError(f"no gradient for metric {metric!r}")


def _side_gradient_terms(metric, own, other, n_draws, seed, stream):
    """One side's share of L_own⁻ᵀ(.)L_own⁻¹ and L_other⁻ᵀ(.)L_other⁻¹.

    With G = zᵀ diag(r) z the draws of this side contribute
    (Sym(TᵀT G) - Σr I)/2 through x = L_own z and p_own, and
    (Σr I - T G Tᵀ)/2 through p_other, where Sym(M) is the symmetric
    matrix with the lower triangle of M (the Cholesky adjoint's tril).
    """
    z, T, d = _whitened_side(own, other, n_draws, seed, stream)
    r = _sensitivities(metric, d)
    S = z * np.sqrt(r)[:, None]
    G = S.T @ S
    total = float(r.sum())
    P = np.tril((T.T @ T) @ G)
    own_term = 0.5 * (P + np.tril(P, -1).T - total * np.eye(own.dim))
    other_term = 0.5 * (total * np.eye(own.dim) - T @ G @ T.T)
    return own_term, other_term


def _sandwich(L: np.ndarray, M: np.ndarray) -> np.ndarray:
    """L⁻ᵀ M L⁻¹ from W = L⁻¹, symmetrized."""
    W = solve_lower(L, np.eye(L.shape[0]))
    G = W.T @ M @ W
    return 0.5 * (G + G.T)


def _gradient(metric: str, cov1, cov2, n_draws: int, seed: int) -> DistanceGradient:
    model1 = GaussianModel.from_covariance(cov1)
    model2 = GaussianModel.from_covariance(cov2)
    _check_pair(model1, model2, n_draws)
    own1, other2 = _side_gradient_terms(metric, model1, model2, n_draws, seed, 0)
    own2, other1 = _side_gradient_terms(metric, model2, model1, n_draws, seed, 1)
    return DistanceGradient(d_cov1=_sandwich(model1.chol, own1 + other1),
                            d_cov2=_sandwich(model2.chol, own2 + other2),
                            seed=int(seed), metric=metric)


def tvd_gradient(cov1, cov2, n_draws: int, seed: int) -> DistanceGradient:
    """Gradient of the sampled TVD w.r.t. both covariances.

    Uses the same draws as ``tvd`` on dense models (``from_covariance``
    of cov1 and cov2) with the same seed, not those of the low-rank
    path; the hinge max(0, .) contributes zero derivative at its kink.
    """
    return _gradient("tvd", cov1, cov2, n_draws, seed)


def jsd_gradient(cov1, cov2, n_draws: int, seed: int) -> DistanceGradient:
    """Gradient of the sampled JSD w.r.t. both covariances."""
    return _gradient("jsd", cov1, cov2, n_draws, seed)
