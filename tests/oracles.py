"""Independent reference computations used to check the estimators.

Everything here deliberately avoids the library's own code paths:
naive loops, dense inverses, quadrature. Slow but trustworthy.
"""

import numpy as np
from scipy import integrate
from scipy.linalg import cholesky, solve_triangular
from scipy.stats import norm

LN2 = np.log(2.0)


def naive_gram(X):
    """Triple-loop inner products."""
    n, k = X.shape
    K = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += X[i, t] * X[j, t]
            K[i, j] = acc
    return K


def naive_squared_distances(X):
    """Direct pairwise squared norms."""
    n = X.shape[0]
    D2 = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = X[i] - X[j]
            D2[i, j] = float(diff @ diff)
    return D2


def dense_logpdf(C, points):
    """Log density via an explicit inverse and slogdet."""
    C = np.atleast_2d(np.asarray(C, float))
    P = np.atleast_2d(np.asarray(points, float))
    n = C.shape[0]
    Cinv = np.linalg.inv(C)
    _, logdet = np.linalg.slogdet(C)
    out = np.empty(P.shape[0])
    for i, x in enumerate(P):
        out[i] = -0.5 * (n * np.log(2 * np.pi) + logdet + x @ Cinv @ x)
    return out


def closed_form_tvd_1d_scale(v1, v2):
    """TVD between N(0, v1) and N(0, v2), v1 < v2, from the crossing points.

    Densities cross where x^2 = ln(v2/v1) / (1/(2 v1) - 1/(2 v2)); the
    optimal event is the interval between the crossings.
    """
    if v1 == v2:
        return 0.0
    if v1 > v2:
        v1, v2 = v2, v1
    s1, s2 = np.sqrt(v1), np.sqrt(v2)
    x_star = np.sqrt(np.log(v2 / v1) / (1.0 / v1 - 1.0 / v2))
    inner1 = 2 * norm.cdf(x_star / s1) - 1
    inner2 = 2 * norm.cdf(x_star / s2) - 1
    return inner1 - inner2


def quad_tvd_1d(v1, v2):
    f = lambda x: 0.5 * abs(norm.pdf(x, scale=np.sqrt(v1)) - norm.pdf(x, scale=np.sqrt(v2)))
    val, _ = integrate.quad(f, -np.inf, np.inf, limit=500)
    return val


def quad_jsd_1d(v1, v2):
    """JSD in bits between two zero-mean 1-D Gaussians, by quadrature."""
    def f(x):
        p1 = norm.pdf(x, scale=np.sqrt(v1))
        p2 = norm.pdf(x, scale=np.sqrt(v2))
        tot = p1 + p2
        out = 0.0
        if p1 > 0:
            out += p1 * np.log(p1 / tot)
        if p2 > 0:
            out += p2 * np.log(p2 / tot)
        return out
    val, _ = integrate.quad(f, -np.inf, np.inf, limit=500)
    return 1.0 + val / (2 * LN2)


def grid_quad_2d(metric, C1, C2, nodes=600):
    """Tensor-grid Gauss-Legendre quadrature for 2-D Gaussian pairs.

    Axis limits scale with the per-axis standard deviations, so both a
    narrow and a wide component stay resolved.
    """
    C1 = np.asarray(C1, float)
    C2 = np.asarray(C2, float)
    sax = np.sqrt(np.maximum(np.diag(C1), np.diag(C2)))
    base, w0 = np.polynomial.legendre.leggauss(nodes)
    x = base * 9.0 * sax[0]
    y = base * 9.0 * sax[1]
    wx = w0 * 9.0 * sax[0]
    wy = w0 * 9.0 * sax[1]
    XX, YY = np.meshgrid(x, y, indexing="ij")
    P = np.stack([XX.ravel(), YY.ravel()], axis=1)
    w_outer = (wx, wy)

    def logpdf(C, P):
        L = cholesky(C, lower=True)
        ld = 2.0 * np.sum(np.log(np.diag(L)))
        U = solve_triangular(L, P.T, lower=True)
        return -0.5 * (2 * np.log(2 * np.pi) + ld + np.sum(U * U, axis=0))

    lp1 = logpdf(C1, P)
    lp2 = logpdf(C2, P)
    W = np.outer(w_outer[0], w_outer[1]).ravel()
    if metric == "tvd":
        return float(np.sum(W * 0.5 * np.abs(np.exp(lp1) - np.exp(lp2))))
    lse = np.logaddexp(lp1, lp2)
    f = np.exp(lp1) * (lp1 - lse) + np.exp(lp2) * (lp2 - lse)
    return float(1.0 + np.sum(W * f) / (2 * LN2))


def _diagonalize_pair(C1, C2):
    """Reduce (C1, C2) to (I, diag) by whitening; TVD/JSD are affine-invariant."""
    C1 = np.atleast_2d(np.asarray(C1, float))
    C2 = np.atleast_2d(np.asarray(C2, float))
    L = cholesky(C1, lower=True)
    Linv = np.linalg.inv(L)
    M = Linv @ C2 @ Linv.T
    lam = np.linalg.eigvalsh(M)
    return np.maximum(lam, 0.0)


def predictive_pair_eigenvalues(X1, X2, a):
    """Generalized eigenvalues of (C2, C1) for C_i = s_i X_i X_iᵀ + a I.

    s_i = (1 - a) n / tr(X_i X_iᵀ). Both covariances equal a I on the
    orthogonal complement of span[X1 X2], so only the restriction to that
    span (rank r <= k1 + k2) can carry eigenvalues other than 1.
    """
    n = X1.shape[0]
    U, sv, _ = np.linalg.svd(np.hstack([X1, X2]), full_matrices=False)
    Q = U[:, sv > 1e-12 * sv[0]]
    restricted = []
    for X in (X1, X2):
        B = Q.T @ X
        restricted.append((1.0 - a) * n / np.sum(X * X) * (B @ B.T)
                          + a * np.eye(Q.shape[1]))
    return _diagonalize_pair(*restricted)


def eigenbasis_monte_carlo(lam, n_draws, rng, chunk=20_000):
    """TVD and JSD (bits) of N(0, I) vs N(0, diag lam) with their SEs.

    Plain Monte-Carlo in the r whitened coordinates, where the log ratio
    is log p2/p1 = -(Σ log lam + Σ (1/lam - 1) x²) / 2. Returns
    {"tvd": (value, se), "jsd": (value, se)}.
    """
    lam = np.asarray(lam, float)
    log_det = float(np.sum(np.log(lam)))
    curv = 1.0 / lam - 1.0
    tvd_parts, jsd_parts = [], []
    for start in range(0, n_draws, chunk):
        m = min(chunk, n_draws - start)
        x = rng.standard_normal((m, lam.size))  # x ~ P1
        y = rng.standard_normal((m, lam.size)) * np.sqrt(lam)  # y ~ P2
        r_x = -0.5 * (log_det + (x * x) @ curv)  # log p2/p1 at x
        r_y = 0.5 * (log_det + (y * y) @ curv)   # log p1/p2 at y
        tvd_parts.append(0.5 * (np.maximum(0.0, -np.expm1(r_x))
                                + np.maximum(0.0, -np.expm1(r_y))))
        jsd_parts.append(1.0 - 0.5 * (np.logaddexp(0.0, r_x)
                                      + np.logaddexp(0.0, r_y)) / LN2)
    out = {}
    for name, parts in (("tvd", tvd_parts), ("jsd", jsd_parts)):
        s = np.concatenate(parts)
        out[name] = (float(s.mean()), float(s.std(ddof=1) / np.sqrt(s.size)))
    return out


def tvd_2d_exact(C1, C2):
    """TVD between two 2-D zero-mean Gaussians via nested 1-D quadrature.

    After whitening, the optimal event {p1 > p2} is a quadratic region
    K + a_x x^2 + a_y y^2 > 0; its probability under each distribution
    is an adaptive 1-D integral of Gaussian tail lengths.
    """
    lam = _diagonalize_pair(C1, C2)
    v1 = np.array([1.0, 1.0])
    v2 = lam
    if np.allclose(v1, v2, rtol=1e-14, atol=1e-14):
        return 0.0
    K = 0.5 * np.log(v2[0] * v2[1] / (v1[0] * v1[1]))
    a = 0.5 * (1.0 / v2 - 1.0 / v1)

    def slice_prob(x, vy, ay):
        """P(K + a_x x^2 + a_y Y^2 > 0) for Y ~ N(0, vy)."""
        t = -(K + a[0] * x * x)
        if ay > 0:
            if t <= 0:
                return 1.0
            s = np.sqrt(t / ay)
            return 2.0 * norm.sf(s / np.sqrt(vy))
        if ay < 0:
            bound = t / ay  # dividing by a negative flips the inequality
            if bound <= 0:
                return 0.0
            s = np.sqrt(bound)
            return 1.0 - 2.0 * norm.sf(s / np.sqrt(vy))
        return 1.0 if t < 0 else 0.0

    def prob_under(v):
        f = lambda x: norm.pdf(x, scale=np.sqrt(v[0])) * slice_prob(x, v[1], a[1])
        val, _ = integrate.quad(f, -np.inf, np.inf, limit=500)
        return val

    return abs(prob_under(v1) - prob_under(v2))


def jsd_2d_exact(C1, C2, nodes=600):
    """JSD via whitening plus the (exponentially accurate) tensor grid."""
    lam = _diagonalize_pair(C1, C2)
    return grid_quad_2d("jsd", np.eye(2), np.diag(lam), nodes=nodes)


def feature_space_cka(X1, X2):
    """CKA from column-centered feature matrices, never touching kernels."""
    Xc = X1 - X1.mean(axis=0, keepdims=True)
    Yc = X2 - X2.mean(axis=0, keepdims=True)
    cross = np.linalg.norm(Xc.T @ Yc) ** 2
    nx = np.linalg.norm(Xc.T @ Xc)
    ny = np.linalg.norm(Yc.T @ Yc)
    return cross / (nx * ny)


def vectorize_and_correlate(D1, D2):
    """Pearson correlation of strict upper triangles via np.corrcoef."""
    iu = np.triu_indices(D1.shape[0], k=1)
    return float(np.corrcoef(D1[iu], D2[iu])[0, 1])


def cosine_of_upper_triangles(D1, D2):
    iu = np.triu_indices(D1.shape[0], k=1)
    v1, v2 = D1[iu], D2[iu]
    return float(np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2)))


def imhof_upper_tail(c, x):
    """P(Σ cⱼ zⱼ² > x) for independent standard normal zⱼ (Imhof, 1961).

    Inverts the characteristic function of the quadratic form:
    1/2 + (1/π) ∫₀^∞ sin θ(u) / (u ρ(u)) du with θ(u) = Σ arctan(cⱼu)/2 − xu/2
    and ρ(u) = Π (1 + cⱼ²u²)^¼, whose inverse is taken in log space so
    it underflows to 0 instead of overflowing. x may be an array: it
    enters θ only through xu/2, so one adaptive vector integration
    (``quad_vec``) serves every x.

    On the real axis the integrand decays only like u^(−1−r/2) with r
    nonzero cⱼ while it oscillates at rate x/2, so with few cⱼ and large
    |x| it takes seconds. Past u₀ = 1/max |cⱼ| the integral is therefore
    taken as Im ∫ F with F(u) = Π (1 − icⱼu)^(−½) e^(−ixu/2) / u, which
    equals e^(iθ)/(uρ) on the real axis and is analytic off the imaginary
    axis, where its branch points ±i/|cⱼ| lie. Its path turns from u₀ by
    ∓π/4 (the sign of x), along which e^(−ixu/2) decays exponentially.
    """
    c = np.asarray(c, float)
    x = np.asarray(x, float)
    u0 = 1.0 / np.abs(c).max()

    def head(u):  # the real axis, [0, u₀]
        theta = 0.5 * np.sum(np.arctan(c * u)) - 0.5 * x * u
        return np.sin(theta) * np.exp(-0.25 * np.sum(np.log1p((c * u) ** 2))) / u

    side = (np.sign(x) + 1).astype(int)  # x < 0, x = 0, x > 0
    turns = np.exp(0.25j * np.pi * np.array([1.0, 0.0, -1.0]))

    def ray(v):  # u₀ + v·turn, one turn per sign of x
        u = u0 + v * turns
        log_phi = -0.5 * np.sum(np.log(1.0 - 1j * np.outer(u, c)), axis=1)
        return (np.exp(log_phi[side] - 0.5j * x * u[side]) / u[side] * turns[side]).imag

    h, _ = integrate.quad_vec(head, 0.0, u0, epsabs=1e-11, epsrel=1e-9)
    t, _ = integrate.quad_vec(ray, 0.0, np.inf, epsabs=1e-11, epsrel=1e-9)
    return 0.5 + (h + t) / np.pi


def tvd_exact_diag(lam):
    """Exact TVD of N(0, I) and N(0, diag lam), by two Imhof inversions.

    p1 > p2 exactly where Σ(1/λⱼ − 1)xⱼ² > −Σ log λⱼ. Under P1 (x = z)
    that event is the upper tail of Σ(1/λⱼ − 1)zⱼ²; under P2
    (x = √λ z) it is Σ(λⱼ − 1)zⱼ² < Σ log λⱼ. TVD is the difference of
    the two probabilities.
    """
    lam = np.asarray(lam, float)
    log_det = float(np.sum(np.log(lam)))
    return float(imhof_upper_tail(1.0 / lam - 1.0, -log_det)
                 - (1.0 - imhof_upper_tail(lam - 1.0, log_det)))


def jsd_exact_diag(lam, nodes=200):
    """Exact JSD (bits) of N(0, I) and N(0, diag lam), by Imhof inversions.

    With D₁ = log p2/p1 under P1 and D₂ = log p1/p2 under P2,
    JSD = 1 − (E softplus D₁ + E softplus D₂)/(2 ln 2), and
    E softplus(D) = softplus(t_lo) + ∫_{t_lo}^{t_hi} σ(t) P(D > t) dt, up
    to the mass left outside [t_lo, t_hi]. D₁ > t is the event
    Σ(1 − 1/λⱼ)zⱼ² > 2t + Σ log λⱼ, and D₂ > t is
    Σ(1 − λⱼ)zⱼ² > 2t − Σ log λⱼ.

    Each side's window is its D's mean ± 40 SD, clipped to [−40, 40].
    Outside [−40, 40] the integrand is at most e^t below 0 and, since
    E e^D = 1, at most e^−t above 0, so the clip leaves out less than
    2e^−40. D is ½ Σ cⱼzⱼ² plus a constant; at a fixed SD its Chernoff
    bound is largest for one cⱼ, where it puts P(D beyond 40 SD) below
    4e-12 on each side and the mass the window cuts off below
    1e-11 SD(D). Fitted to D, the window puts the rule's nodes on the
    step of P(D > t) from 1 to 0, which at small distances is narrow: a
    fixed [−40, 40] put it within one node spacing.

    P(D > t) is not smooth at D's value at z = 0, t₀ = −shift/2: it
    behaves like |t − t₀|^(r/2) there. So each rule runs twice, from t₀ to
    each end of the window, on u with t = t₀ + (end − t₀)u², in which that
    term is the polynomial u^r. Where every cⱼ has one sign, t₀ bounds D
    and the piece beyond it drops out: below a lower bound P(D > t) = 1,
    which softplus at the window's start integrates in closed form.

    The Gauss–Legendre rule is checked against one with twice the nodes
    (the same Imhof integration serves both), and a disagreement beyond
    1e-9 raises ValueError. With log λ ~ N(0, s²), 200 and 400 nodes
    agree at r = 1, 2, 3, 6, 20 and 100 to 1000 coefficients for every s
    from 0.001 to 0.3.
    """
    lam = np.asarray(lam, float)
    log_det = float(np.sum(np.log(lam)))
    rules = [np.polynomial.legendre.leggauss(k) for k in (nodes, 2 * nodes)]
    u = 0.5 + 0.5 * np.concatenate([x for x, _ in rules])  # on [0, 1]
    w = 0.5 * np.concatenate([w for _, w in rules])
    sums = 0.0  # E softplus D₁ + E softplus D₂, by each rule
    for c, shift in ((1.0 - 1.0 / lam, log_det), (1.0 - lam, -log_det)):
        mean, sd = 0.5 * (np.sum(c) - shift), np.sqrt(0.5 * np.sum(c * c))
        lo, hi = np.clip([mean - 40.0 * sd, mean + 40.0 * sd], -40.0, 40.0)
        bound = -0.5 * shift  # D at z = 0: its lower bound if every c ≥ 0, upper if ≤ 0
        if np.all(c >= 0.0):
            lo = min(max(lo, bound), hi)  # P(D > t) = 1 below: softplus(lo) holds it
        if np.all(c <= 0.0):
            hi = max(min(hi, bound), lo)  # P(D > t) = 0 above
        bound = min(max(bound, lo), hi)
        # one rule from the bound to each end of [lo, hi], in u with t = bound + (end − bound) u²
        t = np.concatenate([bound + (end - bound) * u * u for end in (lo, hi)])
        dt = np.concatenate([2.0 * abs(end - bound) * u * w for end in (lo, hi)])
        # quadrature weight times σ(t) P(D > t), both rules and both pieces in one vector
        weighted = dt / (1.0 + np.exp(-t)) * imhof_upper_tail(c, 2.0 * t + shift)
        per_rule = weighted.reshape(2, 3 * nodes)
        sums = sums + np.logaddexp(0.0, lo) + np.array([per_rule[:, :nodes].sum(),
                                                        per_rule[:, nodes:].sum()])
    value, check = 1.0 - sums / (2.0 * LN2)
    if abs(value - check) > 1e-9:
        raise ValueError(f"{nodes} Gauss-Legendre nodes give JSD {value:.6g}, "
                         f"{2 * nodes} give {check:.6g}: the rule does not resolve P(D > t)")
    return float(value)
