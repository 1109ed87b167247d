"""Kernel-based baseline dissimilarity measures.

Every baseline is one transform of one cosine c, between the same operand
of the two kernels, clamped below (``BASELINES``):

    metric      operand              c in       value
    cka         centered kernel      [0, 1]     1 - c     (1 - linear CKA)
    shape       centered kernel      [0, 1]     arccos c  (a shape metric)
    rsa_corr    centered distances   [-1, 1]    1 - c     (1 - Pearson r)
    rsa_arccos  distances            [-1, 1]    arccos c

The distances are the upper triangle of the squared-Euclidean distance
matrix, or of the plain Euclidean one when ``rsa_squared`` is False. One
rule leaves an operand undefined: its RMS entry, judged on its
squared-distance form (also when the RSA measures compare plain
distances), is at most DEGENERATE_RTOL times the kernel's largest
diagonal entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateRepresentationError, ValidationError
from .kernel import KernelMatrix, centered_kernel, squared_distance_matrix

# metric: (operand, lower clamp of the cosine c, value as a function of c)
BASELINES = {
    "cka": ("centered kernel", 0.0, lambda c: 1.0 - c),
    "shape": ("centered kernel", 0.0, math.acos),
    "rsa_corr": ("centered distances", -1.0, lambda c: 1.0 - c),
    "rsa_arccos": ("distances", -1.0, math.acos),
}
BASELINE_METRICS = tuple(BASELINES)

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

    ``operands`` maps each operand a requested metric reads to its unit
    vector, or to the DegenerateRepresentationError that the module's one
    rule gives it; ``errors`` maps each requested metric whose operand is
    undefined to that error. Malformed input raises ValidationError.
    """

    def __init__(self, kernel, metrics: Sequence[str], rsa_squared: bool = True):
        unknown = [m for m in metrics if m not in BASELINES]
        if unknown:
            raise ValidationError(f"unknown baseline metric {unknown[0]!r}")
        k = _scaled(kernel if isinstance(kernel, KernelMatrix)
                    else KernelMatrix.from_array(kernel))
        self.n = k.n
        tol = DEGENERATE_RTOL * np.abs(k.K.diagonal()).max()
        needed = {BASELINES[m][0] for m in metrics}
        forms = {}  # operand: (its squared-distance form, the vector compared, why undefined)
        if "centered kernel" in needed:
            Kc = centered_kernel(k).ravel()
            forms["centered kernel"] = (
                Kc, Kc, "centered kernel has zero norm (constant representation)")
        if needed - {"centered kernel"}:  # the squared distances, once for both RSA operands
            if k.n < 3:
                raise ValidationError("RSA measures need at least 3 stimuli")
            d2 = squared_distance_matrix(k)[np.triu_indices(k.n, k=1)]
            v = d2 if rsa_squared else np.sqrt(d2)
            if "centered distances" in needed:
                forms["centered distances"] = (
                    d2 - d2.mean(), v - v.mean(), "distance vector has zero variance")
            if "distances" in needed:
                forms["distances"] = (d2, v, "distance vector is zero")
        self.operands: dict[str, np.ndarray | DegenerateRepresentationError] = {
            op: DegenerateRepresentationError(why)
            if np.linalg.norm(judged) <= tol * math.sqrt(judged.size)
            else np.divide(compared, np.linalg.norm(compared), out=compared)
            for op, (judged, compared, why) in forms.items()}
        self.errors: dict[str, DegenerateRepresentationError] = {
            m: e for m in metrics
            if isinstance(e := self.operands[BASELINES[m][0]], DegenerateRepresentationError)}

    def _cosine(self, other: "PreparedKernel", metric: str) -> float:
        """The cosine between both kernels' operands for ``metric``, clamped;
        einsum, unlike dot, starts no BLAS threads."""
        operand, lower, _ = BASELINES[metric]
        c = float(np.einsum("i,i->", self.operands[operand], other.operands[operand]))
        return min(max(c, lower), 1.0)

    def compare(self, other: "PreparedKernel", metrics: Sequence[str]
                ) -> dict[str, BaselineResult | DegenerateRepresentationError]:
        """Every requested baseline metric between this kernel and ``other``,
        both prepared for at least these metrics; an undefined measure maps
        to its DegenerateRepresentationError."""
        if self.n != other.n:
            raise ValidationError(f"kernel sizes differ: {self.n} vs {other.n}")
        return {m: self.errors.get(m) or other.errors.get(m)
                or BaselineResult(value=BASELINES[m][2](self._cosine(other, m)), metric=m)
                for m in metrics}


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
    return p1._cosine(p2, "cka")


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
