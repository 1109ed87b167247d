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
samples, by one of two exact paths (one stream per side either way):

* Dense. The draws x = L1 z give L2⁻¹x = T z with the n×n triangular
  T = L2⁻¹L1, so

      log p2/p1 (x) = Σ log diag T - (‖T z‖² - ‖z‖²) / 2,

  one n×n triangular solve and one N×n product per side.
* Low rank, when both models carry C_i = a I + U_i U_iᵀ with the same a
  (``predictive_covariance`` of a kernel of rank k_i ≤ n/4, 0 < a < 1).
  Off span[U1 U2] (rank r ≤ k1 + k2) both are N(0, a I); on it the pair
  is (I, diag μ), μ the generalized eigenvalues of (C2, C1). With
  gap = 1 - μ and w ~ N(0, I_r), log p2/p1 = -(Σ log μ + Σ w² gap/μ)/2 at
  x ~ P1 and log p1/p2 = (Σ log μ + Σ w² gap)/2 at y ~ P2. Each kernel's
  Gram is diagonalized once (``LowRankFactor.gram_basis``); a pair costs
  O(n·k1·k2 + r³ + N·r). A μ within ``EIGEN_ROUNDING``·r·ε·max μ of 1 is
  dropped, so pairs equal up to rounding score exactly zero; one that
  close to 0 (a at the rounding level of U Uᵀ) sends the pair dense.

Both paths draw different normals for the same seed. Bitwise-equal
factors (L, or U and a) give a log ratio of exactly zero, and so does a
dense T within ``EIGEN_ROUNDING``·n·ε of I entrywise.

The two sides of a pair run at once, side 1 on a helper thread, and
each draws and reduces its stream in ``seeding.BLOCK_ROWS``-row blocks
that stack to the stream's one N-row block, so a pair holds O(block·n)
normals whatever N is. Which thread runs a side changes no result.
This helper is the program's one concurrency mechanism: pairs run one
at a time. Importing this module holds numpy's OpenBLAS to one thread,
so the two sides, not idle BLAS workers, get the cores.

``gradients``, the twin of ``estimate`` for tvd and jsd, differentiates
the dense path's estimate w.r.t. the two covariances on its exact draws
(common random numbers), one draw set per pair for all metrics, through
x = L z as well as the densities. Both depend on the draws only through
G = zᵀ diag(r) z, with r the per-draw sensitivity of the estimate to its
log ratio; the rest is n×n triangular algebra.
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .kernel import GaussianModel, above_rounding, solve_lower
from .seeding import standard_normal_blocks

LN2 = math.log(2.0)
# computed μ lie within 4·r·ε·max μ (eigvalsh backward error, M rounding); the dense
# T of covariances equal up to rounding, within 4·n·ε of I
EIGEN_ROUNDING = 4.0

BAYES_METRICS = ("tvd", "jsd", "js_distance")


def _hold_blas_to_one_thread() -> None:
    """Set every OpenBLAS mapped into this process to one thread.

    A pair's two sides run on two threads, and an idle OpenBLAS
    worker spins on the core the other side needs. The library's own
    ``*_set_num_threads*`` symbol is called, through ctypes, on each
    OpenBLAS file in /proc/self/maps; where there is no such file (no
    /proc, another BLAS) nothing changes. No environment variable is set,
    so child processes start with their own defaults.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            # only the path field can hold the name, so such a line has all six fields
            paths = {line.split(maxsplit=5)[5].rstrip("\n") for line in maps if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(1)


_hold_blas_to_one_thread()


@dataclass(frozen=True)
class DistanceEstimate:
    """Point estimate with its Monte-Carlo uncertainty.

    For tvd and jsd, ``raw_value`` is the estimate before clamping to
    [0, 1] and ``summand_variance`` v gives the estimator variance
    v / n_samples. A js_distance has raw_value = value = √(clamped jsd)
    and carries its jsd's v; its SE is the delta method's (√SE near 0).
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


def _check_pair(metrics: Sequence[str], model1: GaussianModel, model2: GaussianModel,
                n_draws: int) -> None:
    if not metrics:  # before any draw: nothing would use them
        raise ValidationError("no metrics requested")
    if model1.dim != model2.dim:
        raise ValidationError(f"dimension mismatch: {model1.dim} vs {model2.dim}")
    if n_draws < 2:
        raise ValidationError("need at least 2 draws for a standard error")


def _pair_draws(n_draws, dim, seed):
    """Each side's log-ratio vector d[s] and its normals, stream s, in row blocks.

    The two N-vectors are allocated here, before any draw or thread, so an
    N that no array can hold is a ValidationError.
    """
    try:
        d = np.empty((2, n_draws))
    except (ValueError, MemoryError):
        # numpy cannot index (ValueError) or allocate (MemoryError) the vectors
        raise ValidationError(f"cannot allocate {n_draws} draws of dimension {dim}") from None
    return d, [standard_normal_blocks(n_draws, dim, seed, stream) for stream in (0, 1)]


def _on_both_sides(side):
    """(side(0), side(1)) at once: side 1 on a helper thread while side 0 runs here."""
    with ThreadPoolExecutor(max_workers=1) as helper:
        second = helper.submit(side, 1)
        return side(0), second.result()


def _whitened_side(own, other, blocks, d, reduce=None):
    """Draws of P_own and the log ratio d = log p_other/p_own at each, block by block.

    Writes d[rows] for each (rows, z) of ``blocks``, the standard normals
    behind x = L_own z, then calls ``reduce(z, d[rows])`` if given. Returns
    the triangular T = L_other⁻¹ L_own that maps z to L_other⁻¹ x. A T
    within ``EIGEN_ROUNDING``·n·ε of I entrywise is taken as I, as for
    bitwise-equal factors, so pairs equal up to rounding score exactly zero.
    """
    eye = np.eye(own.dim)
    T = eye if np.array_equal(own.chol, other.chol) else solve_lower(other.chol, own.chol)
    identical = np.abs(T - eye).max() <= EIGEN_ROUNDING * own.dim * np.finfo(float).eps
    if identical:
        T = eye
    log_det = float(np.sum(np.log(np.diag(T))))
    for rows, z in blocks:
        if identical:  # d is exactly zero, not rounding noise
            d[rows] = 0.0
        else:
            U = z @ T.T
            d[rows] = log_det - 0.5 * (np.einsum("ij,ij->i", U, U) - np.einsum("ij,ij->i", z, z))
        if reduce is not None:
            reduce(z, d[rows])
    return T


def _span_eigenvalues(model1, model2):
    """All r generalized eigenvalues μ of (C2, C1) on span[U1 U2], ascending.

    In the basis Q1 = G1 V1/√g1 of span U1, G2 is P = Q1ᵀG2, and the Schur
    complement G2ᵀG2 - PᵀP = FᵀF gives its part outside. In the basis
    [Q1, Q⊥], C1 = diag(a + s1 g1) ⊕ a I = diag(1/w²) and U2 = √s2 [P; F], so
    μ are the eigenvalues of diag(a w²) + B Bᵀ with B = √s2 w [P; F].
    """
    if np.array_equal(model1.U, model2.U):
        return np.ones(model1.U.shape[1])  # exactly: d is then exactly zero
    _, g1, basis1 = model1.low_rank.gram_basis
    GtG2 = model2.low_rank.gram_basis[0]
    P = basis1.T @ (model1.low_rank.G.T @ model2.low_rank.G)
    sigma, V = np.linalg.eigh(GtG2 - P.T @ P)
    keep = above_rounding(sigma, model2.dim, GtG2)
    F = np.sqrt(sigma[keep])[:, None] * V[:, keep].T
    a = model1.a
    with np.errstate(over="ignore", invalid="ignore"):  # a may be far below U Uᵀ
        w = 1.0 / np.sqrt(np.concatenate((a + model1.s * g1, np.full(F.shape[0], a))))
        B = (math.sqrt(model2.s) * w)[:, None] * np.vstack((P, F))
        return np.linalg.eigvalsh(B @ B.T + np.diag(a * w * w))


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
    low-rank path needs U and the same a on both models and μ off zero.
    """
    unknown = [m for m in metrics if m not in BAYES_METRICS]
    if unknown:
        raise ValidationError(f"unknown Bayes metric {unknown[0]!r}")
    _check_pair(metrics, model1, model2, n_draws)
    mu = None
    if model1.U is not None and model2.U is not None and model1.a == model2.a:
        mu = _span_eigenvalues(model1, model2)
        bound = EIGEN_ROUNDING * mu.size * np.finfo(float).eps * mu[-1]
        mu = mu[np.abs(1.0 - mu) > bound] if mu[0] > bound else None  # NaN fails too
    d, blocks = _pair_draws(n_draws, model1.dim if mu is None else mu.size, seed)
    if mu is None:
        models = (model1, model2)

        def side(s):
            _whitened_side(models[s], models[1 - s], blocks[s], d[s])
    else:  # with no μ left, d is exactly +0
        gap = 1.0 - mu  # exact by Sterbenz for μ in [1/2, 2]
        half_log_det = 0.5 * float(np.sum(np.log1p(-gap)))
        weights, offsets = (-gap / mu, gap), (-half_log_det, half_log_det)

        def side(s):
            for rows, w in blocks[s]:
                d[s, rows] = 0.5 * np.einsum("ij,ij,j->i", w, w, weights[s]) + offsets[s]
    _on_both_sides(side)
    d1, d2 = d
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

def _sensitivities(metric: str, d: np.ndarray, n_draws: int) -> np.ndarray:
    """r_i = -dV/dd_i, how fast the estimate V over n_draws falls as draw i's log ratio rises.

    Both summands decrease in d, so r is never negative.
    """
    if metric == "tvd":
        return np.where(d < 0.0, np.exp(np.minimum(d, 0.0)), 0.0) / (2.0 * n_draws)
    return np.exp(_log_mixture_fraction(d)) / (2.0 * n_draws * LN2)  # p_other/(p1+p2)


def gradients(metrics: Sequence[str], model1: GaussianModel, model2: GaussianModel,
              n_draws: int, seed: int) -> dict[str, DistanceGradient]:
    """Gradients of each requested metric of 'tvd' and 'jsd' w.r.t. C1 and C2.

    The twin of ``estimate``: each side's draws and T, and each model's
    L⁻¹, serve every metric; each result equals a separate call with this
    seed. With G = zᵀ diag(r) z, a side's draws add (Sym(TᵀT G) - Σr I)/2
    through x = L_own z and p_own, and (Σr I - T G Tᵀ)/2 through p_other,
    to each model's L⁻ᵀ(.)L⁻¹ sandwich; Sym mirrors the lower triangle (the
    Cholesky adjoint's tril). TVD's hinge has zero derivative at its kink.
    On low-rank models this differentiates the dense-path estimate from
    each model's dense factor, not the span-path value that ``estimate``
    reports for the same models.
    """
    unknown = [m for m in metrics if m not in ("tvd", "jsd")]
    if unknown:
        raise ValidationError(f"no gradient for metric {unknown[0]!r}")
    _check_pair(metrics, model1, model2, n_draws)
    models = (model1, model2)
    eye = np.eye(model1.dim)
    d, blocks = _pair_draws(n_draws, model1.dim, seed)

    def side(s):
        """Side s's two terms per metric: (to its own model, to the other)."""
        G = {m: np.zeros_like(eye) for m in metrics}

        def reduce(z, d_rows):
            for m in metrics:
                S = z * np.sqrt(_sensitivities(m, d_rows, n_draws))[:, None]
                G[m] += S.T @ S

        T = _whitened_side(models[s], models[1 - s], blocks[s], d[s], reduce)
        TtT = T.T @ T
        terms = {}
        for m in metrics:
            total = float(_sensitivities(m, d[s], n_draws).sum())
            P = np.tril(TtT @ G[m])
            terms[m] = (0.5 * (P + np.tril(P, -1).T - total * eye),
                        0.5 * (total * eye - T @ G[m] @ T.T))
        return terms, solve_lower(models[s].chol, eye)

    (first, W1), (second, W2) = _on_both_sides(side)
    out = {}
    for m in metrics:
        pairs = (first[m][0], second[m][1]), (first[m][1], second[m][0])
        G1, G2 = (W.T @ (A + B) @ W for W, (A, B) in zip((W1, W2), pairs))
        out[m] = DistanceGradient(0.5 * (G1 + G1.T), 0.5 * (G2 + G2.T), int(seed), m)
    return out


def tvd_gradient(cov1, cov2, n_draws: int, seed: int) -> DistanceGradient:
    """Gradient of the sampled TVD w.r.t. both covariances, on ``from_covariance`` models."""
    models = GaussianModel.from_covariance(cov1), GaussianModel.from_covariance(cov2)
    return gradients(("tvd",), *models, n_draws, seed)["tvd"]


def jsd_gradient(cov1, cov2, n_draws: int, seed: int) -> DistanceGradient:
    """Gradient of the sampled JSD w.r.t. both covariances, on ``from_covariance`` models."""
    models = GaussianModel.from_covariance(cov1), GaussianModel.from_covariance(cov2)
    return gradients(("jsd",), *models, n_draws, seed)["jsd"]
