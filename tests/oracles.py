"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's solver paths: the K oracle is a
zooming grid search over coordinatewise shrinkage factors finished by a
bounded local descent, and the Calderon oracle enumerates factorisations on
spheres.  ``scalar_k_oracle`` keeps the one-t-at-a-time K solvers that the
vectorised K kernel replaced, and ``full_sup_budget_search`` the 200-step
ternary search over the sup budget that the (p, inf) root replaced.
``PolyhedralK`` computes K and the real (theta, q) norms of couples with
both exponents in {1, inf} in 50-digit arithmetic from the candidate lines
of the closed forms, independently of the library's K kernel, and
``l2_l2_real_norm`` the real (theta, q) norms of (2, 2) couples in 50-digit
arithmetic by quadrature along the curve of optimal splits.
"""

import math

import mpmath
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
    res = optimize.minimize(
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
    search over the sup budget u, on |x| as given."""
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
    cands = [z0] if np.any(z0 > 0) else [_subgradient((m * w1 == u_hi) / w1, w0, p0)]
    lower = float(_dual_lower(m, w0, p0, w1, INF, t, cands))
    lower = min(lower, best_val)
    return lower, best_val, 1.0 - np.minimum(1.0, _shares(u, w1 * m))


class PolyhedralK:
    """K(t, x) and the real norms of x over a couple with p0, p1 in {1, inf},
    in 50-digit arithmetic.

    For these pairs K(t) = min_j (a_j + b_j t) over finitely many candidate
    lines, each the cost (N0(x0), N1(x1)) of one split:
      (1, 1):     for every threshold, the coordinates with the smallest
                  w0_i / w1_i sent to X0, the rest to X1;
      (1, inf):   sup budget u in {0} and {w1_i m_i}, remainders (m_i - u/w1_i)_+;
      (inf, inf): X0 budget b in {0}, {w0_i m_i} and the pairwise crossings of
                  the pieces w1_i (m_i - b/w0_i), remainders likewise;
      (inf, 1):   the (1, inf) lines of the reversed couple, (a, b) exchanged.
    A remainder is exactly 0 once its coordinate is covered (u >= w1_i m_i,
    b >= w0_i m_i).  The lower envelope of the lines is the convex-hull chain
    of the lines that are not dominated, and each real norm is a sum of exact
    integrals of t^(-theta q - 1) (a + b t)^q over its pieces.
    """

    DPS = 50

    def __init__(self, x, couple):
        p0, p1 = couple.space0.p, couple.space1.p
        if not {p0, p1} <= {1.0, INF}:
            raise ValueError(f"({p0}, {p1}) is not a polyhedral pair")
        with mpmath.workdps(self.DPS):
            m = [abs(mpmath.mpc(complex(v))) for v in np.asarray(x, dtype=complex)]
            w0 = [mpmath.mpf(float(w)) for w in couple.space0.weights]
            w1 = [mpmath.mpf(float(w)) for w in couple.space1.weights]
            if (p0, p1) == (INF, 1.0):
                lines = [(b, a) for a, b in self._l1_linf(m, w1, w0)]
            elif (p0, p1) == (1.0, INF):
                lines = self._l1_linf(m, w0, w1)
            elif p0 == 1.0:
                lines = self._l1_l1(m, w0, w1)
            else:
                lines = self._linf_linf(m, w0, w1)
            self.lines = lines
            self.hull = self._lower_hull(lines)
            # the hull's line j is K on [c_j, c_(j+1)], c_0 = 0, c_n = inf
            self.breaks = [mpmath.mpf(0)] + [
                (a2 - a1) / (b1 - b2) for (a1, b1), (a2, b2) in zip(self.hull, self.hull[1:])
            ] + [mpmath.inf]

    @staticmethod
    def _l1_l1(m, w0, w1):
        order = sorted(range(len(m)), key=lambda i: w0[i] / w1[i])
        return [
            (sum(m[i] * w0[i] for i in order[:k]), sum(m[i] * w1[i] for i in order[k:]))
            for k in range(len(m) + 1)
        ]

    @staticmethod
    def _remainder(m_i, budget, w_i):
        return mpmath.mpf(0) if budget >= w_i * m_i else m_i - budget / w_i

    @classmethod
    def _l1_linf(cls, m, w0, w1):
        d = len(m)
        budgets = [mpmath.mpf(0)] + [w1[i] * m[i] for i in range(d)]
        return [(sum(w0[i] * cls._remainder(m[i], u, w1[i]) for i in range(d)), u) for u in budgets]

    @classmethod
    def _linf_linf(cls, m, w0, w1):
        d = len(m)
        top = max(w0[i] * m[i] for i in range(d))
        budgets = [mpmath.mpf(0)] + [w0[i] * m[i] for i in range(d)]
        r = [w1[i] / w0[i] for i in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                if r[i] != r[j]:
                    b = (w1[j] * m[j] - w1[i] * m[i]) / (r[j] - r[i])
                    if 0 < b < top:
                        budgets.append(b)
        return [(b, max(w1[i] * cls._remainder(m[i], b, w0[i]) for i in range(d))) for b in budgets]

    @staticmethod
    def _lower_hull(lines):
        # the lines no other line lies below everywhere on t > 0, by
        # increasing a (so decreasing b); then drop every line that is not
        # strictly below its neighbours' crossing
        front = []
        for a, b in sorted(lines):
            if not front or b < front[-1][1]:
                front.append((a, b))
        hull = []
        for a, b in front:
            while len(hull) >= 2:
                (a1, b1), (a2, b2) = hull[-2], hull[-1]
                # hull[-1] is useless iff it is not below the crossing of its
                # neighbours: (a2 - a1)(b1 - b) >= (a - a1)(b1 - b2)
                if (a2 - a1) * (b1 - b) >= (a - a1) * (b1 - b2):
                    hull.pop()
                else:
                    break
            hull.append((a, b))
        return hull

    def k(self, t):
        """K(t) as the minimum over every candidate line (not the hull)."""
        with mpmath.workdps(self.DPS):
            t = mpmath.mpf(float(t))
            return min(a + b * t for a, b in self.lines)

    def _pieces(self, lo, hi):
        for (a, b), c0, c1 in zip(self.hull, self.breaks, self.breaks[1:]):
            s, e = max(c0, lo), min(c1, hi)
            if s < e:
                yield a, b, s, e

    def norm(self, theta, q, window=(0.0, INF)):
        """The real (theta, q) norm, q in {1, 2, inf}, restricted to the
        window [t_min, t_max] of t, as a float."""
        with mpmath.workdps(self.DPS):
            theta = mpmath.mpf(float(theta))
            lo, hi = mpmath.mpf(float(window[0])), mpmath.mpf(float(window[1]))
            if q == INF:
                # t^-theta (a + b t) has no interior maximum: the piece ends
                best = mpmath.mpf(0)
                for a, b, s, e in self._pieces(lo, hi):
                    for t in (s, e):
                        if 0 < t < mpmath.inf:
                            best = max(best, t**-theta * (a + b * t))
                return float(best)
            q = int(q)
            total = mpmath.mpf(0)
            for a, b, s, e in self._pieces(lo, hi):
                for k in range(q + 1):
                    coef = mpmath.binomial(q, k) * a ** (q - k) * b**k
                    if coef == 0:
                        continue
                    ex = k - theta * q  # int_s^e t^(ex - 1) dt
                    if ex == 0:
                        total += coef * (mpmath.log(e) - mpmath.log(s))
                    else:
                        top = 0 if e == mpmath.inf else e**ex
                        bottom = 0 if s == 0 else s**ex
                        total += coef * (top - bottom) / ex
            return float(total ** (mpmath.mpf(1) / q))


def l2_l2_real_norm(x, couple, theta, q, dps=50):
    """The real (theta, q) norm, q finite, of x over a (2, 2) couple in
    ``dps``-digit arithmetic.

    On the support of m = |x|, with c = w1^2 / w0^2, the split
    u = m kappa c / (1 + kappa c), v = m / (1 + kappa c) is optimal at
    t(kappa) = kappa B / A (A = ||w0 u||_2, B = ||w1 v||_2), where K = A + t B.
    As kappa runs over (0, inf), t runs from t0 = N1(m) / ||m w1^2 / w0||_2 to
    t1 = ||m w0^2 / w1||_2 / N0(m); K is t N1(m) below t0 and N0(m) above
    t1.  So the norm^q is two closed-form tails plus the integral of
    t^(-theta q) K^q d(log t)/ds over s = log kappa, taken by tanh-sinh
    quadrature on pieces split at s = -log c_i.
    """
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        sup = np.abs(x) > 0
        m = [mpf(float(v)) for v in np.abs(x)[sup]]
        w0 = [mpf(float(v)) for v in couple.space0.weights[sup]]
        w1 = [mpf(float(v)) for v in couple.space1.weights[sup]]
        c = [(b / a) ** 2 for a, b in zip(w0, w1)]
        th, q = mpf(float(theta)), mpf(float(q))
        norm = lambda vals: mpmath.sqrt(mpmath.fsum(v * v for v in vals))  # noqa: E731
        n0, n1 = norm([a * mi for a, mi in zip(w0, m)]), norm([b * mi for b, mi in zip(w1, m)])
        t0 = n1 / norm([mi * b * b / a for mi, a, b in zip(m, w0, w1)])
        t1 = norm([mi * a * a / b for mi, a, b in zip(m, w0, w1)]) / n0

        def integrand(s):
            # d log t / ds = sum_i (alpha_i - beta_i) kappa c_i / (1 + kappa c_i)
            # with alpha = (w0 u)^2 / A^2, beta = (w1 v)^2 / B^2: no cancellation
            k = mpmath.exp(s)
            u = [mi * k * ci / (1 + k * ci) for mi, ci in zip(m, c)]
            v = [mi / (1 + k * ci) for mi, ci in zip(m, c)]
            A, B = norm([a * ui for a, ui in zip(w0, u)]), norm([b * vi for b, vi in zip(w1, v)])
            dlog_t = mpmath.fsum(
                ((a * ui / A) ** 2 - (b * vi / B) ** 2) * k * ci / (1 + k * ci)
                for a, b, ui, vi, ci in zip(w0, w1, u, v, c)
            )
            t = k * B / A
            return t ** (-th * q) * (A + t * B) ** q * dlog_t

        # d log t / ds decays like e^-|s| away from the cuts, so the integral
        # beyond 130 of them is below 1e-56 of the rest; tanh-sinh over the
        # infinite ends lost digits (1e-4 relative), over pieces it keeps 50
        cuts = [-mpmath.log(ci) for ci in c]
        ends = np.arange(float(min(cuts)) - 130.0, float(max(cuts)) + 138.0, 16.0)
        body = mpmath.quad(integrand, sorted(set(cuts) | {mpf(float(e)) for e in ends}))
        tails = n1**q * t0 ** (q * (1 - th)) / (q * (1 - th)) + n0**q * t1 ** (-th * q) / (th * q)
        return (body + tails) ** (1 / q)
