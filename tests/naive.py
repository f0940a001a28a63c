"""Hand-written reference implementations used to cross-check the package.

Everything in this module is deliberately naive: explicit loops, literal
transcriptions of the published formulas, and no code shared with the
``ellipsym`` package.  Where a spherical-harmonic basis is required, either
the closed-form circle harmonics are used (those oracles cover d = 2 only),
or the basis is avoided altogether through the addition theorem, which gives
O(n^2) kernel forms of the harmonic statistics in any dimension.

These functions are slow on purpose; they exist to pin down correct values
on small frozen datasets, not to be used on real data.  One exception,
:func:`ks_table_oracle`, is the per-sample table algorithm the streaming
Koltchinskii-Sakhanenko reduction replaced; it takes the basis to evaluate
as an argument and pins that reduction bit for bit.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# replicate streams
# ---------------------------------------------------------------------------

def numpy_replicate_rng(seed, r, retry=0):
    """The Generator replicate r must get: numpy's own SeedSequence hash."""
    key = (seed, r) if retry == 0 else (seed, r, retry)
    return np.random.default_rng(np.random.SeedSequence(key))


# ---------------------------------------------------------------------------
# basic estimators
# ---------------------------------------------------------------------------

def mean_oracle(X):
    n, d = X.shape
    out = np.zeros(d)
    for i in range(n):
        for j in range(d):
            out[j] += X[i, j]
    return out / n


def cov_oracle(X, denom):
    """Centered cross-product matrix divided by ``denom`` ('n' or 'n-1')."""
    n, d = X.shape
    m = mean_oracle(X)
    S = np.zeros((d, d))
    for i in range(n):
        w = X[i] - m
        for a in range(d):
            for b in range(d):
                S[a, b] += w[a] * w[b]
    return S / (n if denom == "n" else n - 1)


def inv_sqrt_oracle(S):
    """Symmetric inverse square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(S)
    d = S.shape[0]
    M = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            for k in range(d):
                M[a, b] += vecs[a, k] * vecs[b, k] / math.sqrt(vals[k])
    return M


def sqrt_oracle(S):
    vals, vecs = np.linalg.eigh(S)
    d = S.shape[0]
    M = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            for k in range(d):
                M[a, b] += vecs[a, k] * vecs[b, k] * math.sqrt(vals[k])
    return M


def tyler_oracle(X, location, iters=5000):
    """Tyler's scatter about ``location``: plain fixed-point iteration.

    Iterates V <- (d/n) sum_i w_i w_i' / (w_i' V^{-1} w_i) with trace
    normalization until the iterate stops moving, then rescales so the
    average squared Mahalanobis norm equals d.
    """
    n, d = X.shape
    W = X - np.asarray(location)
    # start at the second-moment matrix about the given location
    V = np.zeros((d, d))
    for i in range(n):
        for a in range(d):
            for b in range(d):
                V[a, b] += W[i, a] * W[i, b]
    V /= n
    V *= d / np.trace(V)
    for _ in range(iters):
        Vinv = np.linalg.inv(V)
        M = np.zeros((d, d))
        for i in range(n):
            q = float(W[i] @ Vinv @ W[i])
            for a in range(d):
                for b in range(d):
                    M[a, b] += W[i, a] * W[i, b] / q
        M *= d / n
        M *= d / np.trace(M)
        delta = np.max(np.abs(M - V))
        V = M
        if delta < 1e-15:
            break
    # scale so that (1/n) sum_i w_i' V^{-1} w_i = d
    Vinv = np.linalg.inv(V)
    s = 0.0
    for i in range(n):
        s += float(W[i] @ Vinv @ W[i])
    return V * (s / (n * d))


# ---------------------------------------------------------------------------
# circle harmonics (d = 2 only)
# ---------------------------------------------------------------------------

def circle_harmonics(u, degrees):
    """Orthonormal circle harmonics at the unit vector u, for given degrees.

    Degree 0 contributes the constant 1; degree k >= 1 contributes the pair
    sqrt(2) cos(k phi), sqrt(2) sin(k phi).  Normalization is with respect
    to the uniform probability measure on the circle.
    """
    phi = math.atan2(u[1], u[0])
    vals = []
    for k in degrees:
        if k == 0:
            vals.append(1.0)
        else:
            vals.append(math.sqrt(2.0) * math.cos(k * phi))
            vals.append(math.sqrt(2.0) * math.sin(k * phi))
    return vals


# ---------------------------------------------------------------------------
# zonal kernels (any d), by the addition theorem
# ---------------------------------------------------------------------------

def harmonic_dim_oracle(d, k):
    """dim H_k on S^{d-1}: homogeneous polynomials of degree k minus those of
    degree k - 2 (multiplied by |x|^2)."""
    if k < 2:
        return 1 if k == 0 else d
    return math.comb(d + k - 1, k) - math.comb(d + k - 3, k - 2)


def zonal_polynomial(k, d, t):
    """C_k^lam(t) / C_k^lam(1) with lam = (d - 2)/2, the Legendre polynomial
    of degree k in d dimensions (Chebyshev T_k when d = 2), by the recurrence

        P_{j+1}(t) = ((2j + d - 2) t P_j(t) - j P_{j-1}(t)) / (j + d - 2)

    from P_0 = 1, P_1 = t (Atkinson & Han 2012, LNM 2044, section 2.1).
    """
    prev, cur = 1.0, t
    if k == 0:
        return prev
    for j in range(1, k):
        prev, cur = cur, ((2 * j + d - 2) * t * cur - j * prev) / (j + d - 2)
    return cur


def harmonic_kernel(u, v, degrees):
    """Sum of psi(u) psi(v) over orthonormal bases of the degree-k harmonics,
    k in ``degrees``: by the addition theorem, the sum over k of
    dim H_k * C_k^lam(u.v) / C_k^lam(1)."""
    d = len(u)
    t = 0.0
    for a in range(d):
        t += u[a] * v[a]
    total = 0.0
    for k in degrees:
        total += harmonic_dim_oracle(d, k) * zonal_polynomial(k, d, t)
    return total


def _directions(X, denom):
    """Standardized residual norms and directions, by loops."""
    n, d = X.shape
    theta = mean_oracle(X)
    S = inv_sqrt_oracle(cov_oracle(X, denom))
    Y = [S @ (X[i] - theta) for i in range(n)]
    norms = [math.sqrt(sum(y * y for y in Y[i])) for i in range(n)]
    return norms, [Y[i] / norms[i] for i in range(n)]


def ks_statistic_kernel_oracle(X):
    """Koltchinskii-Sakhanenko statistic, any d, harmonics of degree <= 4.

    The centered constant harmonic contributes zero, so the squared norm of
    the cumulative sum over the first j ordered directions is
    sum_{a, b <= j} of the kernel over degrees 1..4.
    """
    n, d = X.shape
    norms, U = _directions(X, "n")
    order = sorted(range(n), key=lambda i: (norms[i], i))
    U = [U[i] for i in order]
    degrees = [1, 2, 3, 4]
    total = 0.0
    best = 0.0
    for j in range(n):
        total += harmonic_kernel(U[j], U[j], degrees)
        for a in range(j):
            total += 2.0 * harmonic_kernel(U[a], U[j], degrees)
        best = max(best, total)
    return math.sqrt(best) / math.sqrt(n)


def ks_table_oracle(norms, U, basis):
    """Koltchinskii-Sakhanenko statistic of each sample of a stack, from its
    standardized radii (k, n) and directions (k, n, d): the directions in
    stable radius order, one full (m, n) table of ``basis.evaluate`` per
    sample, its constant row centred, cumulated and normed column by column.
    """
    k, n, d = U.shape
    order = np.argsort(norms, axis=-1, kind="stable")
    U = np.take_along_axis(U, order[..., None], axis=-2)
    out = np.empty(k)
    for i in range(k):
        cum = basis.evaluate(U[i]).T  # (m, n), C-contiguous
        cum[0] -= 1.0
        np.cumsum(cum, axis=1, out=cum)
        out[i] = math.sqrt(np.einsum("ij,ij->j", cum, cum).max()) / math.sqrt(n)
    return out


def mpq_statistic_kernel_oracle(X, epsilon=0.05):
    """Manzotti-Perez-Quiroz statistic, any d: n times the squared norm of the
    degree-3 and -4 harmonic averages equals (1/n) times the kernel summed
    over every pair of directions outside the radius cutoff."""
    n, d = X.shape
    norms, U = _directions(X, "n-1")
    if epsilon == 0.0:
        rho = 0.0
    else:
        k = math.ceil(epsilon * n)
        rho = sorted(norms)[k - 1]
    kept = [U[i] for i in range(n) if norms[i] > rho]
    total = 0.0
    for u in kept:
        for v in kept:
            total += harmonic_kernel(u, v, [3, 4])
    return total / n


# ---------------------------------------------------------------------------
# the six statistics
# ---------------------------------------------------------------------------

def ks_statistic_oracle(X):
    """Koltchinskii-Sakhanenko statistic, d = 2, harmonics of degree <= 4.

    Q = n^{-1/2} max_j sqrt( sum_s ( sum_{k<=j} [psi_s(U_[k]) - delta_{s1}] )^2 )
    with the observations ordered by the norm of the standardized residual.
    The delta term rides inside the inner sum (it is the spherical average
    of psi_s), so the constant harmonic contributes exactly zero.
    """
    n, d = X.shape
    assert d == 2
    theta = mean_oracle(X)
    S = inv_sqrt_oracle(cov_oracle(X, "n"))
    Y = np.array([S @ (X[i] - theta) for i in range(n)])
    norms = [float(np.linalg.norm(Y[i])) for i in range(n)]
    order = sorted(range(n), key=lambda i: (norms[i], i))
    psi = [circle_harmonics(Y[i] / norms[i], [0, 1, 2, 3, 4]) for i in order]
    m = len(psi[0])
    best = 0.0
    for j in range(1, n + 1):
        total = 0.0
        for s in range(m):
            acc = 0.0
            for k in range(j):
                acc += psi[k][s] - (1.0 if s == 0 else 0.0)
            total += acc * acc
        best = max(best, math.sqrt(total))
    return best / math.sqrt(n)


def mpq_statistic_oracle(X, epsilon=0.05):
    """Manzotti-Perez-Quiroz statistic, d = 2, degree 3 and 4 harmonics."""
    n, d = X.shape
    assert d == 2
    theta = mean_oracle(X)
    S = inv_sqrt_oracle(cov_oracle(X, "n-1"))
    Y = np.array([S @ (X[i] - theta) for i in range(n)])
    norms = [float(np.linalg.norm(Y[i])) for i in range(n)]
    if epsilon == 0.0:
        rho = 0.0
    else:
        k = math.ceil(epsilon * n)
        rho = sorted(norms)[k - 1]
    psi = [circle_harmonics(Y[i] / norms[i], [3, 4]) for i in range(n)]
    m = len(psi[0])
    total = 0.0
    for s in range(m):
        acc = 0.0
        for i in range(n):
            if norms[i] > rho:
                acc += psi[i][s]
        total += (acc / n) ** 2
    return n * total


def schott_statistic_oracle(X):
    """Schott's Wald-type statistic via explicit Kronecker products."""
    n, d = X.shape
    theta = mean_oracle(X)
    Sig = cov_oracle(X, "n-1")
    Sinv = np.linalg.inv(Sig)
    Sihalf = inv_sqrt_oracle(Sig)

    M4 = np.zeros((d * d, d * d))
    for i in range(n):
        w = (X[i] - theta).reshape(d, 1)
        ww = w @ w.T
        M4 += np.kron(ww, ww)
    M4 /= n
    K = np.kron(Sihalf.T, Sihalf.T)
    M4s = K @ M4 @ np.kron(Sihalf, Sihalf)

    r = [float((X[i] - theta) @ Sinv @ (X[i] - theta)) for i in range(n)]
    kap1 = sum(v ** 2 for v in r) / (n * d * (d + 2))
    eta1 = sum(v ** 3 for v in r) / (n * d * (d + 2) * (d + 4))
    ome1 = sum(v ** 4 for v in r) / (n * d * (d + 2) * (d + 4) * (d + 6))
    a = ome1 + kap1 ** 3 - 2.0 * kap1 * eta1
    beta1 = (1.0 / ome1) / 24.0
    beta2 = -3.0 * a / (24.0 * ome1 ** 2 + 12.0 * (d + 4) * a * ome1)

    M2 = M4s @ M4s
    tr = sum(M2[i, i] for i in range(d * d))
    vecI = np.eye(d).reshape(-1, order="F")
    quad = float(vecI @ M2 @ vecI)
    return n * (beta1 * tr + beta2 * quad
                - (3.0 * beta1 + (d + 2) * beta2) * d * (d + 2) * kap1 ** 2)


def _chol_oracle(S):
    """Lower-triangular Cholesky factor by the textbook algorithm."""
    d = S.shape[0]
    L = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1):
            acc = S[i, j]
            for k in range(j):
                acc -= L[i, k] * L[j, k]
            if i == j:
                L[i, j] = math.sqrt(acc)
            else:
                L[i, j] = acc / L[j, j]
    return L


def _tri_inv_oracle(L):
    """Inverse of a lower-triangular matrix by forward substitution."""
    d = L.shape[0]
    R = np.zeros((d, d))
    for col in range(d):
        e = np.zeros(d)
        e[col] = 1.0
        x = np.zeros(d)
        for i in range(d):
            acc = e[i]
            for k in range(i):
                acc -= L[i, k] * x[k]
            x[i] = acc / L[i, i]
        R[:, col] = x
    return R


def hp_counts_oracle(X, c, sector="orthants", g=None):
    """Huffer-Park cell counts: sign-orthant sectors times equal-count shells.

    Standardization uses the lower-triangular (Gram-Schmidt) root of the
    1/n covariance.  Shells hold equal counts with any remainder spread one
    per shell starting from the innermost; norm ties broken by row index.
    """
    n, d = X.shape
    theta = mean_oracle(X)
    L = _chol_oracle(cov_oracle(X, "n"))
    R = _tri_inv_oracle(L)
    Y = np.array([R @ (X[i] - theta) for i in range(n)])

    if sector == "orthants":
        g = 2 ** d
        def sector_of(y):
            idx = 0
            for j in range(d):
                if y[j] < 0.0:
                    idx += 2 ** j
            return idx
    elif sector == "permutations":
        g = math.factorial(d)
        import itertools
        table = {p: i for i, p in enumerate(itertools.permutations(range(d)))}
        def sector_of(y):
            order = tuple(sorted(range(d), key=lambda j: (y[j], j)))
            return table[order]
    elif sector == "bivariateangles":
        assert d == 2 and g is not None
        def sector_of(y):
            phi = math.atan2(y[1], y[0]) % (2.0 * math.pi)
            scaled = phi * g / (2.0 * math.pi)
            m = math.floor(scaled)
            if scaled == m and scaled > 0.0:
                m -= 1
            return min(m, g - 1)
    else:
        raise ValueError(sector)

    norms = [float(np.linalg.norm(Y[i])) for i in range(n)]
    order = sorted(range(n), key=lambda i: (norms[i], i))
    base, rem = divmod(n, c)
    shell_of = {}
    pos = 0
    for shell in range(c):
        size = base + (1 if shell < rem else 0)
        for i in order[pos:pos + size]:
            shell_of[i] = shell
        pos += size

    counts = np.zeros((g, c), dtype=int)
    for i in range(n):
        counts[sector_of(Y[i]), shell_of[i]] += 1
    return counts


def hp_statistic_oracle(X, c, sector="orthants", g=None):
    n = X.shape[0]
    counts = hp_counts_oracle(X, c, sector=sector, g=g)
    gg, cc = counts.shape
    p = 1.0 / (gg * cc)
    stat = 0.0
    for i in range(gg):
        for j in range(cc):
            stat += (counts[i, j] - n * p) ** 2 / (n * p)
    return stat


def _signed_squares(u):
    return np.array([u[j] ** 2 * math.copysign(1.0, u[j]) if u[j] != 0.0
                     else 0.0 for j in range(len(u))])


def pg_statistic_oracle(X, location=None):
    """Pseudo-Gaussian statistics (Cassart's Fechner-asymmetry tests)."""
    n, d = X.shape
    if location is not None:
        theta = np.asarray(location, dtype=float)
        V = tyler_oracle(X, theta)
        S = inv_sqrt_oracle(V)
        Y = np.array([S @ (X[i] - theta) for i in range(n)])
        norms = [float(np.linalg.norm(Y[i])) for i in range(n)]
        m4 = sum(v ** 4 for v in norms) / n
        Svecs = [_signed_squares(Y[i] / norms[i]) for i in range(n)]
        total = 0.0
        for i in range(n):
            for j in range(n):
                total += (norms[i] ** 2 * norms[j] ** 2
                          * float(Svecs[i] @ Svecs[j]))
        return d * (d + 2) / (3.0 * n * m4) * total

    theta = mean_oracle(X)
    V = tyler_oracle(X, theta)
    S = inv_sqrt_oracle(V)
    Y = np.array([S @ (X[i] - theta) for i in range(n)])
    norms = [float(np.linalg.norm(Y[i])) for i in range(n)]
    m1 = sum(norms) / n
    m2 = sum(v ** 2 for v in norms) / n
    m3 = sum(v ** 3 for v in norms) / n
    m4 = sum(v ** 4 for v in norms) / n
    cd = 4.0 * math.gamma(d / 2.0) / ((d * d - 1) * math.sqrt(math.pi)
                                      * math.gamma((d - 1) / 2.0))
    Delta = np.zeros(d)
    for i in range(n):
        u = Y[i] / norms[i]
        Delta += norms[i] * (cd * (d + 1) * m1 * u
                             - norms[i] * _signed_squares(u))
    Delta /= math.sqrt(n)
    gamma = (3.0 / (d * (d + 2)) * m4
             - 2.0 * cd ** 2 * (d + 1) * m1 * m3
             + cd ** 2 * (d + 1) ** 2 / d * m1 ** 2 * m2)
    Gamma = gamma * np.eye(d)
    return float(Delta @ np.linalg.inv(Gamma) @ Delta)


def _phi_oracle(f, param, x, d):
    """(phi_f, phi_f') for the three radial-density families."""
    if f == "t":
        nu = param
        return ((nu + d) * x / (nu + x * x),
                (nu + d) * (nu - x * x) / (nu + x * x) ** 2)
    if f == "logistic":
        t = math.tanh(x * x / 2.0)
        sech2 = 1.0 - t * t
        return 2.0 * x * t, 2.0 * t + 2.0 * x * x * sech2
    if f == "powerExp":
        beta = param
        return (beta * x ** (2.0 * beta - 1.0),
                beta * (2.0 * beta - 1.0) * x ** (2.0 * beta - 2.0))
    raise ValueError(f)


def radial_density_oracle(f, param, x, d):
    """The unnormalized radial density f(x) whose score phi_f = -f'/f the
    skew-optimal test uses (t: param nu; powerExp: param beta)."""
    if f == "t":
        nu = param
        return (1.0 + x * x / nu) ** (-(nu + d) / 2.0)
    if f == "logistic":
        e = math.exp(-x * x)
        return e / (1.0 + e) ** 2
    if f == "powerExp":
        return math.exp(-0.5 * x ** (2.0 * param))
    raise ValueError(f)


def so_statistic_oracle(X, f="t", param=4.0, location=None):
    """Skew-optimal statistics (specified-location Wald form, or the
    unspecified-location form for radial density f)."""
    n, d = X.shape
    if location is not None:
        theta = np.asarray(location, dtype=float)
        V = tyler_oracle(X, theta)
        xbar = mean_oracle(X)
        diff = xbar - theta
        return n * float(diff @ np.linalg.inv(V) @ diff)

    theta = mean_oracle(X)
    V = tyler_oracle(X, theta)
    S = inv_sqrt_oracle(V)
    Y = np.array([S @ (X[i] - theta) for i in range(n)])
    norms = [float(np.linalg.norm(Y[i])) for i in range(n)]
    K = 0.0
    for i in range(n):
        phi, dphi = _phi_oracle(f, param, norms[i], d)
        K += dphi + (d - 1) / norms[i] * phi
    K /= n
    pi_dot0 = 1.0 / math.sqrt(2.0 * math.pi)
    Delta = np.zeros(d)
    wsq = 0.0
    for i in range(n):
        phi, _ = _phi_oracle(f, param, norms[i], d)
        w = norms[i] - d / K * phi
        Delta += w * Y[i] / norms[i]
        wsq += w * w
    Delta *= 2.0 * pi_dot0 / math.sqrt(n)
    Gamma = (4.0 * pi_dot0 ** 2 / (n * d)) * wsq * np.eye(d)
    return float(Delta @ np.linalg.inv(Gamma) @ Delta)
