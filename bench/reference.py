"""Independent reference values for TVD and JSD between predictive Gaussians.

For representations X1, X2 (n x k) and noise weight a the program
compares N(0, C1) and N(0, C2) with C_i = s_i X_i X_iᵀ + a I and
s_i = (1 - a) n / tr(X_i X_iᵀ). Both distances are invariant under a
common linear map, and C1 = C2 = a I on the orthogonal complement of
span[X1 X2]. So the pair reduces to (I, diag λ) over the r <= k1 + k2
generalized eigenvalues λ of (M2, M1), the two covariances restricted to
that span. The reference draws large-N Monte-Carlo in those r
coordinates only; nothing here goes through the code under test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh

LN2 = math.log(2.0)


def generalized_eigenvalues(X1: np.ndarray, X2: np.ndarray, a: float) -> np.ndarray:
    """Non-unit generalized eigenvalues of (C2, C1)."""
    n = X1.shape[0]
    U, sv, _ = np.linalg.svd(np.hstack([X1, X2]), full_matrices=False)
    Q = U[:, sv > sv[0] * 1e-12]
    Ms = []
    for X in (X1, X2):
        B = Q.T @ X
        s = (1.0 - a) * n / float(np.sum(X * X))
        Ms.append(s * (B @ B.T) + a * np.eye(Q.shape[1]))
    return eigh(Ms[1], Ms[0], eigvals_only=True)


def reference_pair(X1: np.ndarray, X2: np.ndarray, a: float, n_draws: int, rng) -> dict:
    """TVD and JSD (bits, normalized) with their SE and summand variance.

    Uses the same summand definitions as the paper's estimators, i.e.
    TVD = E_P1[(1 - p2/p1)+]/2 + E_P2[(1 - p1/p2)+]/2 and
    JSD = 1 - (E_P1[log2(1 + p2/p1)] + E_P2[log2(1 + p1/p2)])/2.
    """
    lam = generalized_eigenvalues(X1, X2, a)
    log_det = float(np.sum(np.log(lam)))
    w = 1.0 / lam - 1.0
    x = rng.standard_normal((n_draws, lam.size))
    y = rng.standard_normal((n_draws, lam.size)) * np.sqrt(lam)
    d_x = -0.5 * (log_det + (x * x) @ w)  # log p2/p1 at x ~ P1
    d_y = -0.5 * (log_det + (y * y) @ w)  # log p2/p1 at y ~ P2
    tvd_s = 0.5 * (-np.expm1(np.minimum(d_x, 0.0)) - np.expm1(np.minimum(-d_y, 0.0)))
    jsd_s = 1.0 - 0.5 * (np.logaddexp(0.0, d_x) + np.logaddexp(0.0, -d_y)) / LN2
    out = {"rank": int(lam.size)}
    for name, s in (("tvd", tvd_s), ("jsd", jsd_s)):
        var = float(s.var(ddof=1))
        out[name] = {"value": float(s.mean()), "std_error": math.sqrt(var / n_draws),
                     "summand_variance": var}
    return out


def heuristic_a(n: int, b: float) -> float:
    """Proportional-noise weight a = b n / (1 + b n)."""
    return b * n / (1.0 + b * n)
