"""Kernel-based baseline dissimilarity measures.

All four baselines are functions of the two Gram matrices alone:
centered kernel alignment (reported as 1 - CKA), its arccos (a shape
metric), and two representational-similarity measures comparing the
vectorized squared-Euclidean distance matrices (1 - Pearson
correlation, and the angle between the distance vectors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateRepresentationError, ValidationError
from .kernel import KernelMatrix, centered_kernel, squared_distance_matrix

BASELINE_METRICS = ("cka", "shape", "rsa_corr", "rsa_arccos")

_EPS_NORM = 1e-300
DEGENERATE_RTOL = 1e-12  # spreads this small against the data's scale are rounding noise


@dataclass(frozen=True)
class BaselineResult:
    value: float
    metric: str


def _raised(result):
    if isinstance(result, DegenerateRepresentationError):
        raise result
    return result


def _kernel_pair(kernel1, kernel2) -> tuple[KernelMatrix, KernelMatrix]:
    k1, k2 = (K if isinstance(K, KernelMatrix) else KernelMatrix.from_array(K)
              for K in (kernel1, kernel2))
    if k1.n != k2.n:
        raise ValidationError(f"kernel sizes differ: {k1.n} vs {k2.n}")
    return _scaled(k1), _scaled(k2)


def _scaled(k: KernelMatrix) -> KernelMatrix:
    """k, or k times 2^-e (e even) with its largest entry in [1/4, 1) when that
    entry lies outside [2^-400, 2^400], where centering or squaring could
    overflow or underflow. Every baseline is scale-invariant and the
    scaling is exact, as is 2^-e/2 under the square root of unsquared RSA.
    """
    e = int(np.frexp(max(k.K.max(), -k.K.min()))[1])
    if abs(e) <= 400:
        return k
    return KernelMatrix(K=np.ldexp(k.K, -(e + e % 2)), labels=k.labels)


def _alignment(k1: KernelMatrix, k2: KernelMatrix):
    """CKA in [0, 1], or the error when a centered kernel's RMS entry (norm / n)
    is rounding noise against the kernel's largest diagonal entry."""
    K1c, K2c = centered_kernel(k1), centered_kernel(k2)
    n1, n2 = np.linalg.norm(K1c), np.linalg.norm(K2c)
    tol = DEGENERATE_RTOL * k1.n
    if n1 <= tol * np.abs(k1.K.diagonal()).max() or n2 <= tol * np.abs(k2.K.diagonal()).max():
        return DegenerateRepresentationError(
            "centered kernel has zero norm (constant representation)")
    value = float(np.sum(K1c * K2c) / (n1 * n2))
    return min(max(value, 0.0), 1.0)


def distances(metrics: Sequence[str], kernel1, kernel2, rsa_squared: bool = True
              ) -> dict[str, BaselineResult | DegenerateRepresentationError]:
    """Every requested baseline metric for one pair of kernels.

    Each kernel is centered, and its distance vector built, at most once.
    A measure undefined for the pair maps to its
    DegenerateRepresentationError; malformed input raises ValidationError.
    """
    unknown = [m for m in metrics if m not in BASELINE_METRICS]
    if unknown:
        raise ValidationError(f"unknown baseline metric {unknown[0]!r}")
    k1, k2 = _kernel_pair(kernel1, kernel2)
    out = {}
    if "cka" in metrics or "shape" in metrics:
        c = _alignment(k1, k2)
        if isinstance(c, DegenerateRepresentationError):
            out["cka"] = out["shape"] = c
        else:
            out["cka"] = BaselineResult(value=1.0 - c, metric="cka")
            out["shape"] = BaselineResult(value=math.acos(c), metric="shape")
    if "rsa_corr" in metrics or "rsa_arccos" in metrics:
        if k1.n < 3:
            raise ValidationError("RSA measures need at least 3 stimuli")
        iu = np.triu_indices(k1.n, k=1)
        v1, v2 = squared_distance_matrix(k1)[iu], squared_distance_matrix(k2)[iu]
        if not rsa_squared:
            v1, v2 = np.sqrt(v1), np.sqrt(v2)
    if "rsa_corr" in metrics:
        s1, s2 = v1.std(), v2.std()
        if s1 <= DEGENERATE_RTOL * v1.max() or s2 <= DEGENERATE_RTOL * v2.max():
            out["rsa_corr"] = DegenerateRepresentationError("distance vector has zero variance")
        else:
            r = float(np.mean((v1 - v1.mean()) * (v2 - v2.mean())) / (s1 * s2))
            out["rsa_corr"] = BaselineResult(value=1.0 - min(max(r, -1.0), 1.0), metric="rsa_corr")
    if "rsa_arccos" in metrics:
        n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
        if n1 < _EPS_NORM or n2 < _EPS_NORM:
            out["rsa_arccos"] = DegenerateRepresentationError("distance vector is zero")
        else:
            c = float(np.dot(v1, v2) / (n1 * n2))
            out["rsa_arccos"] = BaselineResult(value=math.acos(min(max(c, -1.0), 1.0)),
                                               metric="rsa_arccos")
    return {m: out[m] for m in metrics}


def cka(kernel1, kernel2) -> float:
    """Linear centered kernel alignment, in [0, 1]."""
    return _raised(_alignment(*_kernel_pair(kernel1, kernel2)))


def cka_distance(kernel1, kernel2) -> BaselineResult:
    """One minus the centered kernel alignment."""
    return _raised(distances(("cka",), kernel1, kernel2)["cka"])


def shape_metric(kernel1, kernel2) -> BaselineResult:
    """arccos of the alignment; satisfies the triangle inequality."""
    return _raised(distances(("shape",), kernel1, kernel2)["shape"])


def rsa_one_minus_corr(kernel1, kernel2, squared: bool = True) -> BaselineResult:
    """1 - Pearson correlation of the upper-triangle distance vectors."""
    return _raised(distances(("rsa_corr",), kernel1, kernel2, squared)["rsa_corr"])


def rsa_arccos(kernel1, kernel2, squared: bool = True) -> BaselineResult:
    """Angle between the upper-triangle distance vectors."""
    return _raised(distances(("rsa_arccos",), kernel1, kernel2, squared)["rsa_arccos"])
