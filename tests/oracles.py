"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's solver paths: the K oracle is a
zooming grid search over coordinatewise shrinkage factors finished by a
bounded local descent, and the Calderon oracle enumerates factorisations on
spheres.  ``scalar_k_oracle`` keeps the one-t-at-a-time K solvers that the
vectorised K kernel replaced, and ``full_sup_budget_search`` the (p, inf)
solver before its search stopped at its fixed point.
"""

import math

import numpy as np
from scipy import optimize

from interpol_lab.spaces import (
    INF,
    _dual_lower,
    _linf_candidates,
    _shares,
    _subgradient,
    magnitude_pnorm,
)

_EPS = 1e-300
# bound at import, so a test that counts the library's minimisations by
# patching scipy's ``optimize.minimize`` does not count the oracle's
_minimize = optimize.minimize


def grid_k_oracle(t, x, couple, stages=5, pts=25):
    """Zooming grid search for K(t, x), finished by a bounded local descent.

    The zoom can lose the minimiser (on one dim-3 (2, 4) couple it stopped
    1.05e-3 above K), so an L-BFGS-B run over the shrinkage factors
    lambda in [0, 1]^d starts from the best grid point.  The value is the
    objective of a feasible split, so an upper bound on K.
    """
    m = np.abs(np.asarray(x, dtype=complex))
    d = m.size
    w0, p0 = couple.space0.weights, couple.space0.p
    w1, p1 = couple.space1.weights, couple.space1.p

    def pnorm(vals, w, p):
        wy = w * vals
        if p == np.inf:
            return np.max(wy, axis=-1)
        return np.sum(wy**p, axis=-1) ** (1.0 / p)

    def objective(lam):
        return pnorm(lam * m, w0, p0) + t * pnorm((1.0 - lam) * m, w1, p1)

    lo = np.zeros(d)
    hi = np.ones(d)
    best_val = None
    best_lam = None
    for _ in range(stages):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(d)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, d)
        vals = objective(grid)
        k = int(np.argmin(vals))
        best_val = float(vals[k])
        best_lam = grid[k]
        h = (hi - lo) / (pts - 1)
        lo = np.maximum(0.0, best_lam - 2 * h)
        hi = np.minimum(1.0, best_lam + 2 * h)
    res = _minimize(
        lambda lam: float(objective(lam)), best_lam, method="L-BFGS-B",
        bounds=[(0.0, 1.0)] * d, options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 500},
    )
    # the split at the clipped end point is feasible whatever the run did
    return min(best_val, float(objective(np.clip(res.x, 0.0, 1.0))))


def calderon_factor_oracle(f, couple, theta, n_dir=240, refine=3):
    """Brute-force Calderon product norm at dim <= 2.

    Minimises lambda with |f| <= lambda |f0|^(1-theta) |f1|^theta over unit
    vectors f0, f1 parametrised on magnitude spheres.
    """
    m = np.abs(np.asarray(f, dtype=complex))
    d = m.size
    w0, p0 = couple.space0.weights, couple.space0.p
    w1, p1 = couple.space1.weights, couple.space1.p

    def sphere(w, p, angles):
        # nonnegative vectors of unit weighted norm parametrised by angle
        if d == 1:
            return np.array([[1.0 / w[0]]])
        u = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        u = np.abs(u)
        if p == np.inf:
            scale = np.max(w[None, :] * u, axis=1)
        else:
            scale = np.sum((w[None, :] * u) ** p, axis=1) ** (1.0 / p)
        return u / scale[:, None]

    def lam_needed(s0, s1):
        # every pair (f0, f1) of rows at once: the lambda each pair needs,
        # inf where f0^(1-theta) f1^theta vanishes on the support of f
        prod = s0[:, None, :] ** (1.0 - theta) * s1[None, :, :] ** theta
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(m > 0, m / np.where(prod > 0, prod, np.nan), 0.0)
        return np.where(np.any(np.isnan(r), axis=2), np.inf, np.max(r, axis=2))

    a_lo, a_hi = 1e-4, np.pi / 2 - 1e-4
    b_lo, b_hi = a_lo, a_hi
    best = np.inf
    for _ in range(refine):
        angles_a = np.linspace(a_lo, a_hi, n_dir)
        angles_b = np.linspace(b_lo, b_hi, n_dir)
        s0 = sphere(w0, p0, angles_a)
        s1 = sphere(w1, p1, angles_b)
        vals = lam_needed(s0, s1)
        k = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, float(vals[k]))
        if d == 1:
            return best
        ha = (a_hi - a_lo) / (n_dir - 1)
        hb = (b_hi - b_lo) / (n_dir - 1)
        a_lo, a_hi = max(1e-6, angles_a[k[0]] - 2 * ha), min(
            np.pi / 2 - 1e-6, angles_a[k[0]] + 2 * ha
        )
        b_lo, b_hi = max(1e-6, angles_b[k[1]] - 2 * hb), min(
            np.pi / 2 - 1e-6, angles_b[k[1]] + 2 * hb
        )
    return best


def quad_real_norm_oracle(theta, q, n=1_200_001):
    """High-resolution quadrature of the trivial-couple profile min(1,t).

    Returns the (theta, q) norm of a unit vector over an equal-space couple,
    for cross-checking the analytic constant.  The window is wide enough
    that the discarded tails are below 1e-12 for theta*q >= 0.05.
    """
    tau = np.linspace(-600.0, 600.0, n)
    g = (np.exp(-theta * tau) * np.minimum(1.0, np.exp(tau))) ** q
    return float(np.trapezoid(g, tau) ** (1.0 / q))


def scalar_operator_norm(M, A, B):
    """Operator norm bracket of M: A -> B, one space pair at a time.

    The per-vector loops the batched kernel in ``operators`` replaced: exact
    column, row and spectral formulas; otherwise an ascent lower end over the
    unit vectors, the top right singular vector and 4 ``default_rng(0)``
    vectors with two gradient steps each, and the least of the segment and
    embedding upper bounds.  Returns (lower, upper, method).
    """
    M = np.asarray(M, dtype=complex)
    m, n = M.shape

    def col(wa, to_space):
        return max(to_space.norm(M[:, j]) / wa[j] for j in range(n))

    def row(from_space, wb):
        dual = from_space.dual()
        return max(wb[i] * dual.norm(np.conj(M[i, :])) for i in range(m))

    def space(p, w):
        return type(A)(p, w)

    if A.p == 1:
        v = col(A.weights, B)
        return v, v, "exact-1"
    if B.p == np.inf:
        v = row(A, B.weights)
        return v, v, "exact-inf"
    scaled = B.weights[:, None] * M / A.weights[None, :]
    if A.p == 2 and B.p == 2:
        v = float(np.linalg.svd(scaled, compute_uv=False)[0])
        return v, v, "exact-2-spectral"
    rng = np.random.default_rng(0)
    cands = list(np.eye(n, dtype=complex))
    cands.append(np.conj(np.linalg.svd(scaled)[2][0]) / A.weights)
    cands.extend(rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n)))
    lower = 0.0
    for x in cands:
        nx = A.norm(x)
        if nx == 0:
            continue
        y = M @ x
        lower = max(lower, B.norm(y) / nx)
        grad = np.conj(M.T @ (y / np.maximum(np.abs(y), 1e-300)))
        for step in (0.5, 0.1):
            cand = x + step * grad / max(np.linalg.norm(grad), 1e-300)
            if A.norm(cand) > 0:
                lower = max(lower, B.norm(M @ cand) / A.norm(cand))
    u, v = 1.0 / A.p, 1.0 / B.p
    uppers = [m**v * row(A, B.weights), n ** (1.0 - u) * col(A.weights, B)]
    if u >= v:
        lam = 1.0 - 0.5 * (u + v)
        q0 = (u + v) / (2.0 * v)
        p1 = np.inf if u == v else (2.0 - u - v) / (u - v)
        n_a = col(A.weights, space(q0, B.weights))
        n_b = row(space(p1, A.weights), B.weights)
        uppers.append(n_a ** (1.0 - lam) * n_b**lam)
    upper = min(x for x in uppers if np.isfinite(x))
    return min(lower, upper), upper, "iterative-bracket"


def scalar_k_oracle(t, x, couple):
    """K(t, x) bracket from the scalar solvers the vectorised K kernel
    replaced, one t at a time: closed forms for (1, 1), (inf, inf) and
    (1, inf), a brentq root of the (2, 2) optimality equation, a 200-step
    bisection of the (1, 2) waterfilling level, and the t-swap for (inf, 1)
    and (2, 1).  Returns (lower, upper).
    """
    m = np.abs(np.asarray(x, dtype=complex))
    w0, p0 = couple.space0.weights, couple.space0.p
    w1, p1 = couple.space1.weights, couple.space1.p
    if (p0, p1) in ((np.inf, 1), (2, 1)):
        lo, hi = scalar_k_oracle(1.0 / t, x, couple.reversed())
        return t * lo, t * hi

    if p0 == 1 and p1 == 1:
        value = float(np.sum(m * np.minimum(w0, t * w1)))
        return value, value

    if p0 == np.inf and p1 == np.inf:
        b_c, q_c = _linf_candidates(m, w0, w1)
        value = float(np.min(b_c + t * q_c))
        return value, value

    if p0 == 1 and p1 == np.inf:
        z = m * w1
        cands = np.unique(np.concatenate([[0.0], z[z > 0]]))
        costs = np.array(
            [np.sum(w0 * np.maximum(m - u / w1, 0.0)) + t * u for u in cands]
        )
        value = float(np.min(costs))
        return value, value

    if p0 == 2 and p1 == 2:
        n1 = magnitude_pnorm(m, w1, 2)
        n0 = magnitude_pnorm(m, w0, 2)
        # all mass on the t-side iff the slope condition at u = 0 holds
        if t * magnitude_pnorm(m, w1 * w1 / w0, 2) <= n1 * (1 + 1e-15):
            return t * n1, t * n1
        if magnitude_pnorm(m, w0 * w0 / w1, 2) <= t * n0 * (1 + 1e-15):
            return n0, n0

        w0sq, w1sq = w0 * w0, w1 * w1

        def parts_of(rho):
            den = w0sq + t * rho * w1sq
            # complementary part computed from its own formula: no cancellation
            return m * (t * rho * w1sq) / den, m * w0sq / den

        def psi(logrho):
            rho = math.exp(logrho)
            u, v = parts_of(rho)
            a = magnitude_pnorm(u, w0, 2)
            b = magnitude_pnorm(v, w1, 2)
            return a / max(b, _EPS) - rho

        lo, hi = -80.0, 80.0
        if psi(lo) < 0 or psi(hi) > 0:  # numerically boundary-like; pick better endpoint
            value = min(t * n1, n0)
            return value, value
        r = optimize.brentq(psi, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
        u, v = parts_of(math.exp(r))
        a = magnitude_pnorm(u, w0, 2)
        b = magnitude_pnorm(v, w1, 2)
        upper = a + t * b
        nu = w0sq * u / max(a, _EPS)
        scale = max(1.0, magnitude_pnorm(nu, 1.0 / w1, 2) / t)
        return min(float(np.dot(m, nu)) / scale, upper), upper

    if p0 == 1 and p1 == 2:
        # dual waterfilling: z = min(w0, lam * w1^2 m), ||z/w1||_2 = t
        if magnitude_pnorm(np.ones_like(m), w0 / w1, 2) <= t:
            value = float(np.sum(m * w0))
            return value, value
        sup = m > 0
        lam_hi = 2.0 * float(np.max(w0[sup] / (w1[sup] ** 2 * m[sup]))) + 1.0

        def g(lam):
            z = np.minimum(w0, lam * w1 * w1 * m)
            return magnitude_pnorm(z / (w1 * w1), w1, 2) - t

        lo, hi = 0.0, lam_hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        lam = 0.5 * (lo + hi)
        z = np.minimum(w0, lam * w1 * w1 * m)
        scale = max(
            float(np.max(z / w0)) if z.size else 0.0,
            magnitude_pnorm(z / (w1 * w1), w1, 2) / t,
        )
        lower = float(np.dot(m, z)) / max(scale, _EPS)
        active = lam * w1 * w1 * m >= w0
        v = np.where(active, w0 / np.maximum(lam * w1 * w1, _EPS), m)
        v = np.minimum(v, m)
        upper = float(np.sum(w0 * (m - v))) + t * magnitude_pnorm(v, w1, 2)
        return min(lower, upper), upper

    raise ValueError(f"no scalar oracle for the pair ({p0}, {p1})")


def full_sup_budget_search(t, m, w0, p0, w1):
    """(lower, upper, lam) of K for (p0, inf) by all 200 steps of the ternary
    search over the sup budget u; a drop-in for ``spaces._k_any_linf``."""
    u_hi = float(np.max(m * w1))

    def cost(u):
        return magnitude_pnorm(np.maximum(m - u / w1, 0.0), w0, p0) + t * u

    lo, hi = 0.0, u_hi
    for _ in range(200):
        third = (hi - lo) / 3.0
        u1, u2 = lo + third, hi - third
        if cost(u1) <= cost(u2):
            hi = u2
        else:
            lo = u1
    u = 0.5 * (lo + hi)
    best_u, best_val = u, cost(u)
    for cand in (0.0, u_hi):
        c = cost(cand)
        if c < best_val:
            best_u, best_val = cand, c
    u = best_u
    y = np.maximum(m - u / w1, 0.0)
    z0 = _subgradient(y, w0, p0)
    cands = [z0] if z0 is not None else [t * _subgradient(m, w1, INF)]
    lower = _dual_lower(m, w0, p0, w1, INF, t, cands)
    lower = min(lower, best_val)
    return lower, best_val, 1.0 - np.minimum(1.0, _shares(u, w1 * m))
