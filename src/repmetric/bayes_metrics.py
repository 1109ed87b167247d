"""Monte-Carlo distances between two zero-mean Gaussians.

Both estimators average one summand over N draws of each distribution,
one independent stream per side, and report the mean of the two sides'
means; the standard error comes from the two sides' own sample
variances, SE² = (s₁² + s₂²)/(4N). ``estimate`` builds any subset of the
metrics below from one shared set of draws.

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

Each sampled metric is one row of ``SAMPLED_METRICS``: its summand f(d)
and its sensitivity r = -f'(d)/(2N), which ``estimate`` and ``gradients``
read, and whose keys are the sampled set.

The two sides of a pair run at once, side 1 on a helper thread.
``_on_both_sides`` owns a pair's two streams and its stop rule. It makes
both streams and hands each side its blocks, of ``seeding.BLOCK_ROWS``
rows that stack to the stream's one N-row block; a side reduces every
block as it comes: a (count, mean, M2) per metric, merged in block order
(Chan, Golub & LeVeque 1979), or for ``gradients`` Σr and zᵀ diag(r) z.
A side so holds O(BLOCK_ROWS·dim) memory whatever N is, and a huge N
runs rather than being refused by an allocation. Once either side
raises, or an interrupt (Ctrl-C) lands while the caller waits for side
1, one flag ends the other side's blocks before its next one, so a run
stops within one block. Which thread runs a side changes no result.
This helper is the program's one concurrency mechanism: pairs run one
at a time. It is one thread per process, made on the first call and
kept for the next ones, and made again in a child forked after a call.
Importing this module holds numpy's OpenBLAS to one thread, so the two
sides, not idle BLAS workers, get the cores.

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
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
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

# Each sampled metric's (summand f(d), sensitivity r(d, N) = -f'(d)/(2N)) at one side's
# draws' d = log p_other/p_own. An estimate is the mean of the two sides' mean summands, and
# r is how fast that estimate over N draws falls as a draw's d rises: never negative. The jsd
# summand is log2(2 p_own/(p_own + p_other)) as -max(d, 0) - log1p(expm1(-|d|)/2), exactly 0
# at d = 0 and relatively accurate for tiny |d|, where 1 + log2(p_own/(p_own + p_other)) would
# cancel to rounding noise; its r is p_other/(p_own + p_other)/(2N ln 2), from
# log(p_other/(p_own + p_other)) = -softplus(-d) at unit scale, exactly -log 2 at d = 0.
SAMPLED_METRICS = {
    "tvd": (lambda d: 0.0 - np.expm1(np.minimum(d, 0.0)),  # +0.0 where d ≥ 0
            lambda d, n: np.where(d < 0.0, np.exp(np.minimum(d, 0.0)), 0.0) / (2.0 * n)),
    "jsd": (lambda d: (-np.maximum(d, 0.0) - np.log1p(0.5 * np.expm1(-np.abs(d)))) / LN2,
            lambda d, n: np.exp(-(np.maximum(-d, 0.0) + np.log1p(np.exp(-np.abs(d)))))
            / (2.0 * n * LN2)),
}
BAYES_METRICS = (*SAMPLED_METRICS, "js_distance")


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
    [0, 1] and ``summand_variance`` v = (s₁² + s₂²)/4, from the two sides'
    sample variances, gives the estimator variance v / n_samples. A
    js_distance has raw_value = value = √(clamped jsd) and carries its
    jsd's v; its SE is the delta method's (√SE near 0).
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


def check_request(metrics: Sequence[str], n_draws: int) -> None:
    """The rules a request meets before any draw: a metric is asked for, and
    a sampled one has from 2 draws to the most rows numpy can shape, since a
    side's blocks stack to one N-row block. ``harness.split_metrics``
    applies them to a whole run."""
    if not metrics:
        raise ValidationError("no metrics requested")
    if any(m in BAYES_METRICS for m in metrics):
        if n_draws < 2:
            raise ValidationError("need at least 2 draws for a standard error")
        if n_draws > np.iinfo(np.intp).max:
            raise ValidationError(f"{n_draws} draws exceed numpy's largest array length")


def _check_pair(metrics: Sequence[str], model1: GaussianModel, model2: GaussianModel,
                n_draws: int, gradient: bool = False) -> None:
    """A pair's rules: each metric is known (for a gradient, a sampled one), the
    request's rules hold, and the models' dimensions agree."""
    unknown = [m for m in metrics if m not in (SAMPLED_METRICS if gradient else BAYES_METRICS)]
    if unknown:
        raise ValidationError(f"{'no gradient for' if gradient else 'unknown Bayes'} metric "
                              f"{unknown[0]!r}")
    check_request(metrics, n_draws)
    if model1.dim != model2.dim:
        raise ValidationError(f"dimension mismatch: {model1.dim} vs {model2.dim}")


_helper = None  # (pid, executor) of side 1's thread; a forked child makes its own


def _on_both_sides(n_draws, dim, seed, side):
    """(side(0, blocks), side(1, blocks)) at once: side 1 on the process's helper thread.

    Each side gets the row blocks of its own (seed, side) stream of
    ``n_draws`` x ``dim`` standard normals; stream 0's generator is made
    first. Once either side raises, or an interrupt lands while the caller
    waits for side 1, one flag ends the other side's blocks before its
    next one. Side 1 has finished when this returns or raises; side 0's
    error wins. The helper is made on first use, through this module's
    ``ThreadPoolExecutor`` name, and kept. Two threads that find none at
    once each make one, and the one not kept stops once dropped; a lock
    here could be held by another thread at a fork and hang the child.
    """
    global _helper
    helper = _helper
    if helper is None or helper[0] != os.getpid():
        helper = _helper = os.getpid(), ThreadPoolExecutor(max_workers=1)
    stop = threading.Event()  # zip asks it first, so no block is drawn once it is set
    blocks = [(z for _, z in zip(iter(stop.is_set, True),
                                 standard_normal_blocks(n_draws, dim, seed, s))) for s in (0, 1)]
    second = helper[1].submit(side, 1, blocks[1])
    second.add_done_callback(lambda done: done.exception() is None or stop.set())  # on an error
    try:
        return side(0, blocks[0]), second.result()
    finally:
        stop.set()
        wait((second,))


def _whitened_side(own, other):
    """(T, log_ratio): T = L_other⁻¹ L_own, and the map from the standard
    normals z behind draws x = L_own z to d = log p_other/p_own at each x.

    A T within ``EIGEN_ROUNDING``·n·ε of I entrywise is taken as I, as for
    bitwise-equal factors, so pairs equal up to rounding score exactly zero.
    """
    eye = np.eye(own.dim)
    T = eye if np.array_equal(own.chol, other.chol) else solve_lower(other.chol, own.chol)
    if np.abs(T - eye).max() <= EIGEN_ROUNDING * own.dim * np.finfo(float).eps:
        return eye, lambda z: np.zeros(len(z))  # d is exactly zero, not rounding noise
    log_det = float(np.sum(np.log(np.diag(T))))

    def log_ratio(z):
        U = z @ T.T
        return log_det - 0.5 * (np.einsum("ij,ij->i", U, U) - np.einsum("ij,ij->i", z, z))
    return T, log_ratio


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


def _merge_moments(acc, s):
    """Update each [count, mean, M2] of acc in place with the same row of
    block s (Chan, Golub & LeVeque 1979)."""
    n = s.shape[1]
    block_mean = s.mean(axis=1)
    dev = s - block_mean[:, None]
    block_m2 = np.einsum("ij,ij->i", dev, dev)
    for row, mean_b, m2_b in zip(acc, block_mean.tolist(), block_m2.tolist()):
        count, mean, m2 = row
        total, delta = count + n, mean_b - mean
        row[:] = total, mean + delta * (n / total), m2 + m2_b + delta * delta * (count * n / total)


def estimate(metrics: Sequence[str], model1: GaussianModel, model2: GaussianModel,
             n_draws: int, seed: int) -> dict[str, DistanceEstimate]:
    """Every requested metric of 'tvd', 'jsd' and 'js_distance' for one pair.

    All three are functionals of the same two log-ratio streams, so the
    pair is drawn and evaluated once however many metrics are
    requested; each result equals a separate call with this seed. The
    low-rank path needs U and the same a on both models and μ off zero.
    """
    _check_pair(metrics, model1, model2, n_draws)
    sampled = [m for m in SAMPLED_METRICS
               if m in metrics or m == "jsd" and "js_distance" in metrics]
    mu, dim = None, model1.dim
    if model1.U is not None and model2.U is not None and model1.a == model2.a:
        mu = _span_eigenvalues(model1, model2)
        bound = EIGEN_ROUNDING * mu.size * np.finfo(float).eps * mu[-1]
        mu = mu[np.abs(1.0 - mu) > bound] if mu[0] > bound else None  # NaN fails too
    if mu is not None:  # with no μ left, d is exactly +0
        gap = 1.0 - mu  # exact by Sterbenz for μ in [1/2, 2]
        half_log_det = 0.5 * float(np.sum(np.log1p(-gap)))
        weights, offsets, dim = (-gap / mu, gap), (-half_log_det, half_log_det), mu.size

    def side(s, blocks):
        """Side s's (count, mean, M2) of each sampled metric's summands."""
        if mu is None:  # T is solved on this side's thread
            models = (model1, model2)
            log_ratio = _whitened_side(models[s], models[1 - s])[1]
        else:
            def log_ratio(w):
                return 0.5 * np.einsum("ij,ij,j->i", w, w, weights[s]) + offsets[s]
        moments = [[0, 0.0, 0.0] for _ in sampled]
        for z in blocks:
            d = log_ratio(z)
            _merge_moments(moments, np.stack([SAMPLED_METRICS[m][0](d) for m in sampled]))
        return moments

    out = {}
    sides = _on_both_sides(n_draws, dim, seed, side)
    for m, (_, mean1, m2_1), (_, mean2, m2_2) in zip(sampled, *sides):
        raw, var = 0.5 * (mean1 + mean2), (m2_1 + m2_2) / (4 * (n_draws - 1))
        out[m] = DistanceEstimate(value=min(max(raw, 0.0), 1.0), std_error=math.sqrt(var / n_draws),
                                  n_samples=int(n_draws), metric=m, seed=int(seed),
                                  raw_value=raw, summand_variance=var)
    if "jsd" in out:
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
    _check_pair(metrics, model1, model2, n_draws, gradient=True)
    models = (model1, model2)
    eye = np.eye(model1.dim)

    def side(s, blocks):
        """Side s's two terms per metric: (to its own model, to the other)."""
        T, log_ratio = _whitened_side(models[s], models[1 - s])
        G = {m: np.zeros_like(eye) for m in metrics}
        total = dict.fromkeys(metrics, 0.0)
        for z in blocks:
            d = log_ratio(z)
            for m in metrics:
                r = SAMPLED_METRICS[m][1](d, n_draws)
                total[m] += float(r.sum())
                S = z * np.sqrt(r)[:, None]
                G[m] += S.T @ S
        TtT = T.T @ T
        terms = {}
        for m in metrics:
            P = np.tril(TtT @ G[m])
            terms[m] = (0.5 * (P + np.tril(P, -1).T - total[m] * eye),
                        0.5 * (total[m] * eye - T @ G[m] @ T.T))
        return terms, solve_lower(models[s].chol, eye)

    (first, W1), (second, W2) = _on_both_sides(n_draws, model1.dim, seed, side)
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
