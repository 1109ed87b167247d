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

DEGENERATE_RTOL = 1e-12  # spreads this small against the data's scale are rounding noise


@dataclass(frozen=True)
class BaselineResult:
    value: float
    metric: str


def _raised(result):
    if isinstance(result, DegenerateRepresentationError):
        raise result
    return result


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


class PreparedKernel:
    """One kernel's operands for the requested baseline metrics, built once
    and shared by every pair the kernel is in.

    ``errors`` maps each requested metric the kernel leaves undefined to its
    DegenerateRepresentationError. Every rule judges its operand against one
    scale, the kernel's largest diagonal entry s: cka and shape are undefined
    when the centered kernel's RMS entry (norm / n) is at most
    DEGENERATE_RTOL * s, rsa_corr when the squared-distance vector's standard
    deviation is, rsa_arccos when its RMS is. Both RSA rules look at squared
    distances, also when the measure compares plain ones. Malformed input
    raises ValidationError.
    """

    def __init__(self, kernel, metrics: Sequence[str], rsa_squared: bool = True):
        unknown = [m for m in metrics if m not in BASELINE_METRICS]
        if unknown:
            raise ValidationError(f"unknown baseline metric {unknown[0]!r}")
        k = _scaled(kernel if isinstance(kernel, KernelMatrix)
                    else KernelMatrix.from_array(kernel))
        self.n = k.n
        self.errors: dict[str, DegenerateRepresentationError] = {}
        tol = DEGENERATE_RTOL * np.abs(k.K.diagonal()).max()
        if "cka" in metrics or "shape" in metrics:
            self.Kc = centered_kernel(k)
            self.Kc_norm = np.linalg.norm(self.Kc)
            if self.Kc_norm <= k.n * tol:
                self.errors["cka"] = self.errors["shape"] = DegenerateRepresentationError(
                    "centered kernel has zero norm (constant representation)")
        if "rsa_corr" in metrics or "rsa_arccos" in metrics:
            if k.n < 3:
                raise ValidationError("RSA measures need at least 3 stimuli")
            d2 = squared_distance_matrix(k)[np.triu_indices(k.n, k=1)]
            v = d2 if rsa_squared else np.sqrt(d2)
            if "rsa_corr" in metrics:
                self.v_centered, self.v_sd = v - v.mean(), v.std()
                if d2.std() <= tol:
                    self.errors["rsa_corr"] = DegenerateRepresentationError(
                        "distance vector has zero variance")
            if "rsa_arccos" in metrics:
                self.v, self.v_norm = v, np.linalg.norm(v)
                if np.linalg.norm(d2) <= tol * math.sqrt(d2.size):
                    self.errors["rsa_arccos"] = DegenerateRepresentationError(
                        "distance vector is zero")

    def _alignment(self, other: "PreparedKernel") -> float:
        return min(max(float(np.sum(self.Kc * other.Kc) / (self.Kc_norm * other.Kc_norm)),
                       0.0), 1.0)

    def compare(self, other: "PreparedKernel", metrics: Sequence[str]
                ) -> dict[str, BaselineResult | DegenerateRepresentationError]:
        """Every requested baseline metric between this kernel and ``other``,
        both prepared for at least these metrics; an undefined measure maps
        to its DegenerateRepresentationError."""
        if self.n != other.n:
            raise ValidationError(f"kernel sizes differ: {self.n} vs {other.n}")
        out = {m: self.errors.get(m) or other.errors.get(m) for m in metrics}
        defined = [m for m in metrics if out[m] is None]
        if "cka" in defined or "shape" in defined:
            c = self._alignment(other)
            out["cka"] = BaselineResult(value=1.0 - c, metric="cka")
            out["shape"] = BaselineResult(value=math.acos(c), metric="shape")
        if "rsa_corr" in defined:
            r = float(np.mean(self.v_centered * other.v_centered) / (self.v_sd * other.v_sd))
            out["rsa_corr"] = BaselineResult(value=1.0 - min(max(r, -1.0), 1.0), metric="rsa_corr")
        if "rsa_arccos" in defined:  # einsum, unlike dot, starts no BLAS threads
            c = float(np.einsum("i,i->", self.v, other.v) / (self.v_norm * other.v_norm))
            out["rsa_arccos"] = BaselineResult(value=math.acos(min(max(c, -1.0), 1.0)),
                                               metric="rsa_arccos")
        return {m: out[m] for m in metrics}


def distances(metrics: Sequence[str], kernel1, kernel2, rsa_squared: bool = True
              ) -> dict[str, BaselineResult | DegenerateRepresentationError]:
    """Every requested baseline metric for one pair of kernels.

    A measure undefined for the pair maps to its
    DegenerateRepresentationError; malformed input raises ValidationError.
    """
    p1, p2 = (PreparedKernel(K, metrics, rsa_squared) for K in (kernel1, kernel2))
    return p1.compare(p2, metrics)


def cka(kernel1, kernel2) -> float:
    """Linear centered kernel alignment, in [0, 1]."""
    p1, p2 = (PreparedKernel(K, ("cka",)) for K in (kernel1, kernel2))
    _raised(p1.compare(p2, ("cka",))["cka"])  # the size and degeneracy checks
    return p1._alignment(p2)


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
