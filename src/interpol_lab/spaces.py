"""Finite-dimensional weighted sequence spaces and the K-functional.

The concrete universe for the whole package: a space is C^d with the norm

    ||x|| = ( sum_i (w_i |x_i|)^p )^(1/p)      for 1 <= p < inf,
    ||x|| = max_i w_i |x_i|                    for p = inf,

with strictly positive weights w.  A couple is an ordered pair of such
spaces on one index set.  The splitting functional

    K(t, x) = inf { ||x0||_0 + t ||x1||_1 : x0 + x1 = x }

is computed by one kernel, with a certified optimality gap, for a whole
array of t at once: closed forms for (1, 1), (inf, inf) and (1, inf), a
safeguarded Newton solve for (2, 2) and (1, 2), a ternary search over the
sup budget for (p, inf), and for every other (finite) pair an L-BFGS-B
minimisation over coordinatewise shrinkage factors; the last two carry a
duality-based lower bound.  ``k_profile`` is that kernel over a grid;
``k_functional`` is its one-point case and also returns the splitter.

Two structural facts keep everything real and low-dimensional:

* an optimal split can always be taken of the form x0 = lam * x with
  lam in [0,1]^d real (projecting each coordinate of x0 onto the complex
  line through x_i and clamping never increases either norm), and
* K(t, x) = K(t, |x|) where |x| is the coordinatewise modulus.

Duality: K(t,x) = max { <|x|, z> : ||z/w0||_{p0'} <= 1, ||z/w1||_{p1'} <= t }
over real z >= 0, which yields certified lower bounds from any feasible z.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import optimize

from .errors import ArgumentError, PrecisionError

INF = math.inf

_EPS = 1e-300


def dual_exponent(p: float) -> float:
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def _validate_exponent(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ArgumentError(f"exponent must satisfy p >= 1, got {p}")
    return p


def magnitude_pnorm(values: np.ndarray, w: np.ndarray, p: float) -> float:
    """Weighted l^p norm of a nonnegative magnitude vector."""
    wy = w * values
    if p == INF:
        return float(np.max(wy)) if wy.size else 0.0
    if p == 1:
        return float(np.sum(wy))
    if p == 2:
        n = float(np.linalg.norm(wy))
        # the unscaled sum of squares under- or overflows outside ~1e+-154;
        # 0 and non-finite results are redone below with max scaling
        if 0.0 < n < INF:
            return n
    m = float(np.max(wy)) if wy.size else 0.0
    if m == 0.0 or not math.isfinite(m):
        return m
    return m * float(np.sum((wy / m) ** p)) ** (1.0 / p)


@dataclass(frozen=True, eq=False)
class WeightedSpace:
    """Weighted l^p space on C^dim."""

    p: float
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _validate_exponent(self.p))
        w = np.array(self.weights, dtype=float, copy=True)
        if w.ndim != 1 or w.size == 0:
            raise ArgumentError("weights must be a nonempty 1-d vector")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ArgumentError("weights must be strictly positive and finite")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.weights.size

    def norm(self, x) -> float:
        x = as_vector(x, self.dim)
        return magnitude_pnorm(np.abs(x), self.weights, self.p)

    def dual(self) -> "WeightedSpace":
        return WeightedSpace(dual_exponent(self.p), 1.0 / self.weights)

    def equals(self, other: "WeightedSpace") -> bool:
        return (
            self.p == other.p
            and self.dim == other.dim
            and bool(np.array_equal(self.weights, other.weights))
        )

    def __repr__(self):
        return f"WeightedSpace(p={self.p}, weights={np.asarray(self.weights)})"


@dataclass(frozen=True, eq=False)
class BanachCouple:
    """Ordered pair of weighted spaces on one coordinate set.

    A couple is immutable (frozen spaces, read-only weights), so it keeps a
    bounded memo of the K profiles computed over it (see :class:`KProfile`);
    the memo is freed with the couple.
    """

    space0: WeightedSpace
    space1: WeightedSpace
    _profiles: OrderedDict = field(
        default_factory=OrderedDict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.space0.dim != self.space1.dim:
            raise ArgumentError(
                f"couple dimensions differ: {self.space0.dim} vs {self.space1.dim}"
            )

    @property
    def dim(self) -> int:
        return self.space0.dim

    def reversed(self) -> "BanachCouple":
        return BanachCouple(self.space1, self.space0)

    def space(self, j: int) -> WeightedSpace:
        if j == 0:
            return self.space0
        if j == 1:
            return self.space1
        raise ArgumentError("endpoint index must be 0 or 1")


@dataclass(frozen=True)
class KEvaluation:
    """Certified evaluation of the splitting functional at one t.

    ``value`` is a certified lower bound, the splitter achieves an objective
    in [value, value + gap].
    """

    t: float
    value: float
    splitter: Tuple[np.ndarray, np.ndarray]
    gap: float

    @property
    def upper(self) -> float:
        return self.value + self.gap

    @property
    def lower(self) -> float:
        return self.value


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    v = np.asarray(x, dtype=complex)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ArgumentError("expected a 1-d vector")
    if dim is not None and v.size != dim:
        raise ArgumentError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def finite_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """:func:`as_vector` for a caller's x, whose entries must be finite."""
    v = as_vector(x, dim)
    if not np.all(np.isfinite(v)):
        raise ArgumentError("x must have finite entries")
    return v


def space_norm(x, space: WeightedSpace) -> float:
    return space.norm(x)


# ---------------------------------------------------------------------------
# closed forms, kept for the verification suites


def k_closed_form_l1(t: float, x, couple: BanachCouple) -> float:
    """Exact K for p0 = p1 = 1:  sum_i |x_i| min(w0_i, t w1_i)."""
    if couple.space0.p != 1 or couple.space1.p != 1:
        raise ArgumentError("closed form requires both exponents equal to 1")
    if t <= 0:
        raise ArgumentError("t must be positive")
    x = as_vector(x, couple.dim)
    m = np.abs(x)
    return float(np.sum(m * np.minimum(couple.space0.weights, t * couple.space1.weights)))


def _linf_candidates(m, w0, w1):
    """Kink locations of  b -> b + t * max_i w1_i (m_i - b/w0_i)_+  (t-free part).

    Returns arrays (b_c, q_c) with q_c = max_i w1_i (m_i - b_c/w0_i)_+ so that
    K(t) = min_c (b_c + t q_c) exactly for every t.
    """
    z = w0 * m
    cands = [0.0]
    cands.extend(z[z > 0.0].tolist())
    r = w1 / w0
    d = m.size
    for i in range(d):
        for j in range(i + 1, d):
            den = r[j] - r[i]
            if den == 0.0:
                continue
            b = (w1[j] * m[j] - w1[i] * m[i]) / den
            if 0.0 < b < np.max(z):
                cands.append(b)
    b_c = np.array(sorted(set(cands)))
    q_c = np.max(
        np.maximum(w1[None, :] * (m[None, :] - b_c[:, None] / w0[None, :]), 0.0),
        axis=1,
    ) if m.size else np.zeros_like(b_c)
    return b_c, q_c


def k_closed_form_linf(t: float, x, couple: BanachCouple) -> float:
    """Exact K for p0 = p1 = inf via the kink scan of a piecewise-linear map."""
    if couple.space0.p != INF or couple.space1.p != INF:
        raise ArgumentError("closed form requires both exponents equal to inf")
    if t <= 0:
        raise ArgumentError("t must be positive")
    x = as_vector(x, couple.dim)
    m = np.abs(x)
    if not np.any(m > 0):
        return 0.0
    b_c, q_c = _linf_candidates(m, couple.space0.weights, couple.space1.weights)
    return float(np.min(b_c + t * q_c))


# ---------------------------------------------------------------------------
# the K engine: one kernel, certified brackets and splits over a t array


def unit_binade(m) -> Tuple[np.ndarray, int]:
    """(m 2^-e, e) with the largest entry of m 2^-e in [1/2, 1).

    K and the real norms are positively homogeneous and a power-of-two
    scaling is exact, so they are computed at this scale, where sums of
    squares and K^q neither under- nor overflow, and scaled back bit for
    bit; vectors that differ by a power of two share one K profile.
    """
    e = int(np.frexp(np.max(m))[1])
    return np.ldexp(m, -e), e


def _shares(num, den):
    """num / den where den > 0, else 0: shrinkage factors of a split."""
    pos = den > 0
    return np.where(pos, num / np.where(pos, den, 1.0), 0.0)


def _k_kernel(m, couple: BanachCouple, ts: np.ndarray, tol: float):
    """Certified (lo, hi, lam) of K(t, m) for every t of a positive array.

    ``m`` is |x|; row i of ``lam`` (T x d) holds the shrinkage factors of a
    split x0 = lam x, x1 = x - x0 whose objective at ts[i] is hi[i] up to
    round-off.  The only dispatch on (p0, p1) lives here: closed forms for
    (1, 1), (inf, inf) and (1, inf), safeguarded Newton for (2, 2) and
    (1, 2), and the general solvers otherwise; (inf, p) and (2, 1) are
    t-swapped onto (p, inf) and (1, 2) first.
    """
    T, d = ts.size, m.size
    if not np.any(m > 0):
        return np.zeros(T), np.zeros(T), np.zeros((T, d))
    s0, s1 = couple.space0, couple.space1
    if s0.equals(s1):
        lo = np.minimum(1.0, ts) * magnitude_pnorm(m, s0.weights, s0.p)
        return lo, lo, (ts[:, None] > 1.0) * np.ones(d)
    (w0, p0), (w1, p1), t_in = (s0.weights, s0.p), (s1.weights, s1.p), ts
    # K(t, x; X0, X1) = t K(1/t, x; X1, X0) with the two parts exchanged
    swap = (p0 == INF and p1 != INF) or (p0, p1) == (2, 1)
    if swap:
        (w0, p0), (w1, p1), ts = (w1, p1), (w0, p0), 1.0 / ts
    path = _K_PATHS.get((p0, p1))
    if path is not None:
        mu, e = unit_binade(m)
        lo, hi, lam = path(mu, w0, w1, ts)
        lo, hi = np.ldexp(lo, e), np.ldexp(hi, e)
    else:
        # unscaled on purpose: rescaling |x| changes which evaluations meet
        # the gap test tol * max(1, value) and so which raise PrecisionError
        lo, hi, lam = np.empty(T), np.empty(T), np.empty((T, d))
        for i, t in enumerate(ts):
            if p1 == INF:
                lo[i], hi[i], lam[i] = _k_any_linf(float(t), m, w0, p0, w1)
            else:
                lo[i], hi[i], lam[i] = _k_general(float(t), m, w0, p0, w1, p1, tol)
    if swap:
        return t_in * lo, t_in * hi, 1.0 - lam
    return lo, hi, lam


def _k_l1_l1(m, w0, w1, ts):
    tw1 = ts[:, None] * w1[None, :]
    vals = np.sum(m[None, :] * np.minimum(w0[None, :], tw1), axis=1)
    return vals, vals, (w0[None, :] <= tw1) * 1.0


def _k_linf_linf(m, w0, w1, ts):
    b_c, q_c = _linf_candidates(m, w0, w1)
    vals = b_c[None, :] + ts[:, None] * q_c[None, :]
    best = np.argmin(vals, axis=1)
    vals = vals[np.arange(ts.size), best]
    lam = np.minimum(1.0, _shares(b_c[best][:, None], (w0 * m)[None, :]))
    return vals, vals, lam


def _k_l1_linf(m, w0, w1, ts):
    # budget u on the sup-side; the remaining l1 cost is piecewise linear in u
    z = m * w1
    cands = np.unique(np.concatenate([[0.0], z[z > 0]]))
    base = np.array([np.sum(w0 * np.maximum(m - u / w1, 0.0)) for u in cands])
    vals = base[None, :] + ts[:, None] * cands[None, :]
    best = np.argmin(vals, axis=1)
    vals = vals[np.arange(ts.size), best]
    lam = 1.0 - np.minimum(1.0, _shares(cands[best][:, None], z[None, :]))
    return vals, vals, lam


def _k_l2_l2(m, w0, w1, ts):
    n0 = magnitude_pnorm(m, w0, 2)
    n1 = magnitude_pnorm(m, w1, 2)
    g0 = magnitude_pnorm(m, w1 * w1 / w0, 2)
    g1 = magnitude_pnorm(m, w0 * w0 / w1, 2)
    T = ts.size
    lo = np.empty(T)
    hi = np.empty(T)
    lam = np.zeros((T, m.size))
    # all mass on the t-side iff the slope condition at u = 0 holds
    zero_side = ts * g0 <= n1
    full_side = g1 <= ts * n0
    lo[zero_side] = hi[zero_side] = (ts * n1)[zero_side]
    lo[full_side] = hi[full_side] = n0
    lam[full_side] = 1.0
    interior = ~(zero_side | full_side)
    if np.any(interior):
        ti = ts[interior]
        w0sq, w1sq = w0 * w0, w1 * w1
        kappa = np.exp(_l2_l2_log_kappa(m, w0sq, w1sq, ti))
        den = w0sq[None, :] + kappa[:, None] * w1sq[None, :]
        # complementary part from its own formula: no cancellation
        u = m[None, :] * (kappa[:, None] * w1sq[None, :]) / den
        v = m[None, :] * w0sq[None, :] / den
        A = np.sqrt(np.sum((w0[None, :] * u) ** 2, axis=1))
        B = np.sqrt(np.sum((w1[None, :] * v) ** 2, axis=1))
        upper = A + ti * B
        nu = w0sq[None, :] * u / np.maximum(A, _EPS)[:, None]
        d1 = np.sqrt(np.sum((nu / w1[None, :]) ** 2, axis=1))
        scale = np.maximum(1.0, d1 / ti)
        lower = np.minimum(np.sum(m[None, :] * nu, axis=1) / scale, upper)
        lo[interior] = lower
        hi[interior] = upper
        lam[interior] = _shares(u, m[None, :])
    return lo, hi, lam


_NEWTON_MAX_STEPS = 100


def _l2_l2_log_kappa(m, w0sq, w1sq, ts):
    """log kappa(t) of the optimal (2, 2) split, by safeguarded Newton.

    The split u = m kappa w1^2 / (w0^2 + kappa w1^2) is optimal iff
        g(kappa) = sum_i m_i^2 w1_i^2 (t^2 r_i - 1) h_i^2 = 0,
        h_i = (1 + kappa / t^2) / (1 + kappa r_i),   r_i = w1_i^2 / w0_i^2,
    and g is strictly decreasing with g(0+) > 0 > g(inf) on the interior t
    range, so the root is unique.  Newton runs in s = log kappa inside the
    bracket log t +- 80; a step leaving the bracket is replaced by its
    midpoint.  Each t stops on its own once the step or the bracket falls
    below 1e-12, so the result at one t does not depend on the other ts.
    Only the accuracy of the split depends on this root, not the soundness
    of the dual lower end built from it.
    """
    r = w1sq / w0sq
    c = (m * m * w1sq)[None, :]
    s = np.log(ts)
    a, b = s - 80.0, s + 80.0
    act = np.arange(ts.size)
    for _ in range(_NEWTON_MAX_STEPS):
        if act.size == 0:
            break
        sa, ta = s[act], ts[act]
        kappa = np.exp(sa)[:, None]
        tau = (1.0 / (ta * ta))[:, None]
        inv = 1.0 / (1.0 + kappa * r[None, :])
        h = (1.0 + kappa * tau) * inv
        cr = c * (r[None, :] / tau - 1.0)
        g = np.sum(cr * h * h, axis=1)
        dg = 2.0 * np.sum(cr * h * (tau - r[None, :]) * inv * inv, axis=1) * kappa[:, 0]
        aa = np.where(g > 0, sa, a[act])
        bb = np.where(g > 0, b[act], sa)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -g / dg
        nxt = sa + step
        tol = 1e-12 * np.maximum(1.0, np.abs(sa))
        small = np.abs(step) <= tol
        inside = (nxt > aa) & (nxt < bb)
        nxt = np.where(small, np.clip(nxt, aa, bb), np.where(inside, nxt, 0.5 * (aa + bb)))
        done = (g == 0) | small | (bb - aa <= tol)
        s[act] = np.where(g == 0, sa, nxt)
        a[act], b[act] = aa, bb
        act = act[~done]
    return s


def _k_l1_l2(m, w0, w1, ts):
    # dual waterfilling: z = min(w0, lam w1^2 m) with ||z/w1||_2 = t
    T = ts.size
    lo = np.empty(T)
    hi = np.empty(T)
    lam0 = np.zeros((T, m.size))
    # everything on the l1 side is optimal once ||w0/w1||_2 over the support is <= t
    full = magnitude_pnorm((m > 0) * 1.0, w0 / w1, 2) <= ts
    lo[full] = hi[full] = float(np.sum(m * w0))
    lam0[full] = 1.0
    interior = ~full
    if np.any(interior):
        ti = ts[interior]
        sup = m > 0
        lam_hi = 2.0 * float(np.max(w0[sup] / (w1[sup] ** 2 * m[sup]))) + 1.0
        w1sq = w1 * w1
        lam = _l1_l2_lambda(w0 / w1, w1 * m, ti, lam_hi)
        z = np.minimum(w0[None, :], lam[:, None] * (w1sq * m)[None, :])
        d0 = np.max(z / w0[None, :], axis=1)
        d1 = np.sqrt(np.sum((z / w1[None, :]) ** 2, axis=1)) / ti
        scale = np.maximum(np.maximum(d0, d1), _EPS)
        lower = np.sum(m[None, :] * z, axis=1) / scale
        active = lam[:, None] * (w1sq * m)[None, :] >= w0[None, :]
        v = np.where(
            active,
            w0[None, :] / np.maximum(lam[:, None] * w1sq[None, :], _EPS),
            m[None, :],
        )
        v = np.minimum(v, m[None, :])
        u = m[None, :] - v
        upper = np.sum(w0[None, :] * u, axis=1) + ti * np.sqrt(
            np.sum((w1[None, :] * v) ** 2, axis=1)
        )
        lo[interior] = np.minimum(lower, upper)
        hi[interior] = upper
        lam0[interior] = _shares(u, m[None, :])
    return lo, hi, lam0



def _l1_l2_lambda(a, b, ts, lam_hi):
    """Dual waterfilling level of the (1, 2) pair: ||min(a, lam b)||_2 = t.

    In mu = lam^2 the map H(mu) = sum_i min(a_i^2, mu b_i^2) - t^2 is
    concave, nondecreasing and piecewise linear, so Newton from mu = 0
    never overshoots and lands on the root of the piece that holds it: each
    step enters a new piece, and d + 2 steps reach the root exactly.  Where
    H stays negative (every coordinate saturates first) the level is capped
    at ``lam_hi``, which saturates them all.
    """
    a2, b2 = (a * a)[None, :], (b * b)[None, :]
    t2 = ts * ts
    mu_hi = lam_hi * lam_hi
    mu = np.zeros(ts.size)
    for _ in range(a.size + 2):
        sat = mu[:, None] * b2 >= a2
        S = np.sum(np.where(sat, a2, 0.0), axis=1)
        slope = np.sum(np.where(sat, 0.0, b2), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = np.where(slope > 0, (t2 - S) / slope, mu_hi)
        mu = np.clip(nxt, 0.0, mu_hi)
    return np.sqrt(mu)


_K_PATHS = {
    (1, 1): _k_l1_l1,
    (INF, INF): _k_linf_linf,
    (1, INF): _k_l1_linf,
    (2, 2): _k_l2_l2,
    (1, 2): _k_l1_l2,
}


# ---------------------------------------------------------------------------
# general K path: convex minimisation over shrinkage factors + dual certificate


def _subgradient(y: np.ndarray, w: np.ndarray, p: float) -> Optional[np.ndarray]:
    n = magnitude_pnorm(y, w, p)
    if n <= 1e-300:
        return None
    if p == 1:
        return w.copy()
    if p == INF:
        wy = w * y
        mask = wy >= n * (1 - 1e-12)
        z = np.zeros_like(y)
        z[mask] = w[mask] / mask.sum()
        return z
    return w * (w * y / n) ** (p - 1.0)


def _dual_lower(m, w0, p0, w1, p1, t, candidates):
    q0, q1 = dual_exponent(p0), dual_exponent(p1)
    best = 0.0
    for z in candidates:
        if z is None:
            continue
        z = np.maximum(z, 0.0)
        d0 = magnitude_pnorm(z, 1.0 / w0, q0)
        d1 = magnitude_pnorm(z, 1.0 / w1, q1)
        scale = max(d0, d1 / t)
        if scale <= 0:
            continue
        best = max(best, float(np.dot(m, z)) / scale)
    return best


def _k_any_linf(t, m, w0, p0, w1):
    """(lower, upper, lam) of K for (p0, inf): a convex search over the sup
    budget u.

    Given u = ||x1||_{inf,w1}, the best remainder has magnitudes
    (m - u/w1)_+, so K(t) = min_u N0((m - u/w1)_+) + t u.  The KKT dual at
    the optimum closes the gap to roundoff.
    """
    u_hi = float(np.max(m * w1))

    def cost(u):
        return magnitude_pnorm(np.maximum(m - u / w1, 0.0), w0, p0) + t * u

    lo, hi = 0.0, u_hi
    for _ in range(200):
        third = (hi - lo) / 3.0
        u1, u2 = lo + third, hi - third
        # a step that leaves (lo, hi) unchanged is a fixed point: every
        # later step would repeat it
        if cost(u1) <= cost(u2):
            if u2 == hi:
                break
            hi = u2
        else:
            if u1 == lo:
                break
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


def _k_general(t, m, w0, p0, w1, p1, tol):
    """(lower, upper, lam) of K for finite p0, p1 by L-BFGS-B over the
    shrinkage factors.

    Starts run in a fixed order (lam = 1/2, the (1, 1) split, 0, 1, then
    two rounds of the best split so far and four ``default_rng(0)`` draws);
    after each start the dual lower end is built from the best split, and
    the first start whose gap is below tol * max(1, upper) is returned.
    Raises PrecisionError with the best bracket when no start certifies.
    """
    d = m.size

    def objective(lam):
        lam = np.clip(lam, 0.0, 1.0)
        return magnitude_pnorm(lam * m, w0, p0) + t * magnitude_pnorm(
            (1.0 - lam) * m, w1, p1
        )

    def value_and_grad(lam):
        lam = np.clip(lam, 0.0, 1.0)
        u, v = lam * m, (1.0 - lam) * m
        n0 = magnitude_pnorm(u, w0, p0)
        n1 = magnitude_pnorm(v, w1, p1)
        g0 = (
            m * w0 * (w0 * u / n0) ** (p0 - 1.0)
            if n0 > 1e-300
            else np.zeros(d)
        )
        g1 = (
            m * w1 * (w1 * v / n1) ** (p1 - 1.0)
            if n1 > 1e-300
            else np.zeros(d)
        )
        return n0 + t * n1, g0 - t * g1

    starts = [
        np.full(d, 0.5),
        (w0 <= t * w1).astype(float),
        np.zeros(d),
        np.ones(d),
    ]
    rng = np.random.default_rng(0)
    best_lam, best_val, lower = None, INF, 0.0

    for _ in range(3):
        for lam0 in starts:
            lam = optimize.minimize(
                value_and_grad,
                lam0,
                jac=True,
                method="L-BFGS-B",
                bounds=[(0.0, 1.0)] * d,
                options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12},
            ).x
            val = objective(lam)
            if not val < best_val:
                # the certificate of an unchanged best split is unchanged
                continue
            best_val, best_lam = val, np.clip(lam, 0.0, 1.0)
            u, v = best_lam * m, (1.0 - best_lam) * m
            z0 = _subgradient(u, w0, p0)
            z1 = _subgradient(v, w1, p1)
            if z1 is not None:
                z1 = t * z1
            cands = [z0, z1]
            if z0 is not None and z1 is not None:
                cands.append(0.5 * (z0 + z1))
                cands.append(np.minimum(z0, z1))
            if p0 == 1 and z1 is not None:
                cands.append(np.minimum(w0, z1))
            if p1 == 1 and z0 is not None:
                cands.append(np.minimum(t * w1, z0))
            lower = _dual_lower(m, w0, p0, w1, p1, t, cands)
            lower = min(lower, best_val)
            if best_val - lower <= tol * max(1.0, best_val):
                return lower, best_val, best_lam
        starts = [best_lam] + [rng.uniform(0, 1, d) for _ in range(4)]

    raise PrecisionError(
        f"splitting functional gap {best_val - lower:.3e} above tolerance {tol:.3e}",
        bracket=(lower, best_val),
    )


# ---------------------------------------------------------------------------
# the public faces of the kernel


def k_functional(t: float, x, couple: BanachCouple, tol: float = 1e-8) -> KEvaluation:
    """Certified evaluation of K(t, x) over the couple, with its splitter.

    The one-point case of the K kernel that :func:`k_profile` runs over a
    grid.  Gap 0 on the exact paths (zero vector, equal endpoint spaces,
    (1, 1), (inf, inf), (1, inf) and (inf, 1)); round-off for the Newton
    solves of (2, 2), (1, 2) and (2, 1); any other pair runs the general
    shrinkage minimisation and must certify a gap below ``tol`` (else
    :class:`PrecisionError` with the best bracket).  The splitter is
    (lam x, x - lam x) for the kernel's shrinkage factors lam.
    """
    if t <= 0:
        raise ArgumentError("t must be positive")
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    x = finite_vector(x, couple.dim)
    lo, hi, lam = _k_kernel(np.abs(x), couple, np.array([t], dtype=float), tol)
    x0 = lam[0] * x
    return KEvaluation(t, float(lo[0]), (x0, x - x0), float(hi[0] - lo[0]))


def k_profile(x, couple: BanachCouple, ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Certified (lower, upper) arrays for K(t, x) over a positive grid.

    The K kernel of :func:`k_functional` over the whole grid at once, with
    ``tol`` = 1e-9 for the general pairs and without the splitters; each t
    is bracketed independently of the rest of the grid.  The upper end is
    additionally clipped by min(||x||_0, t ||x||_1).
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise ArgumentError("t grid must be positive")
    m = np.abs(finite_vector(x, couple.dim))
    lo, hi, _ = _k_kernel(m, couple, ts, 1e-9)
    s0, s1 = couple.space0, couple.space1
    cap = np.minimum(magnitude_pnorm(m, s0.weights, s0.p), ts * magnitude_pnorm(m, s1.weights, s1.p))
    hi = np.minimum(hi, cap)
    return np.minimum(lo, hi), hi


# ---------------------------------------------------------------------------
# the K-profile engine: one certified profile per (couple, |x|, grid)


def enforce_monotone(Klo: np.ndarray, Khi: np.ndarray, ts: Optional[np.ndarray] = None):
    """Tighten brackets using K nondecreasing and K(t)/t nonincreasing."""
    Klo = np.maximum.accumulate(Klo)
    Khi = np.minimum.accumulate(Khi[::-1])[::-1]
    if ts is not None:
        # K(t)/t nonincreasing: propagate lower bounds backward, upper forward
        ratio_lo = np.maximum.accumulate((Klo / ts)[::-1])[::-1]
        Klo = np.maximum(Klo, ratio_lo * ts)
        ratio_hi = np.minimum.accumulate(Khi / ts)
        Khi = np.minimum(Khi, ratio_hi * ts)
    Klo = np.minimum(Klo, Khi)
    return Klo, Khi


PROFILE_MEMO_SIZE = 8
_PROFILE_LOCK = threading.RLock()


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


class KProfile:
    """Certified K(t, x) brackets of one |x| over one couple on a nested log grid.

    Level 0 is the log grid of ``intervals + 1`` nodes on [t_min, t_max];
    level k + 1 is level k with the geometric midpoints inserted.  The raw
    ``k_profile`` brackets are stored once, on the finest level computed so
    far (level k sits on every 2^(K - k)-th node of level K), so a
    refinement evaluates only its new nodes.  A level's brackets are
    monotone-enforced over that level's nodes alone, ``k_profile`` brackets
    each t independently of the rest of its batch, and the grid nodes are
    evaluated in the same batches whatever order the levels are asked for
    in, so an answer does not depend on call history.

    Obtain profiles through :meth:`of`, which memoises them on the couple.
    """

    def __init__(self, couple: BanachCouple, m: np.ndarray, t_min: float, t_max: float, intervals: int):
        if not (0.0 < t_min < t_max) or intervals < 1:
            raise ArgumentError("profile grid needs 0 < t_min < t_max and intervals >= 1")
        # a memo-free twin of the couple: the profile sits in the couple's
        # memo, and a reference back to the couple would be a cycle
        self._couple = BanachCouple(couple.space0, couple.space1)
        self._m = _frozen(np.array(m, dtype=float))[0]
        self._span = (math.log(t_min), math.log(t_max))
        self._intervals = int(intervals)
        self._level = 0
        self._ts = np.exp(np.linspace(*self._span, self._intervals + 1))
        self._lo, self._hi = _frozen(*k_profile(self._m, self._couple, self._ts))
        self._augmented = {}
        self._off_grid = _frozen(np.empty(0), np.empty(0), np.empty(0))

    @classmethod
    def of(cls, couple: BanachCouple, x, t_min: float, t_max: float, intervals: int) -> "KProfile":
        """The memoised profile of x over the couple; K(t, x) = K(t, |x|),
        so the key is the bytes of |x| with the grid parameters.  The memo
        keeps the ``PROFILE_MEMO_SIZE`` most recently used profiles."""
        m = np.abs(as_vector(x, couple.dim))
        key = (m.tobytes(), float(t_min), float(t_max), int(intervals))
        memo = couple._profiles
        with _PROFILE_LOCK:
            profile = memo.get(key)
            if profile is None:
                profile = memo[key] = cls(couple, m, t_min, t_max, intervals)
                while len(memo) > PROFILE_MEMO_SIZE:
                    memo.popitem(last=False)
            else:
                memo.move_to_end(key)
        return profile

    def _refine_to(self, level: int) -> None:
        while self._level < level:
            n = self._intervals << (self._level + 1)
            mids = np.exp(np.linspace(*self._span, n + 1)[1::2])
            lo, hi = k_profile(self._m, self._couple, mids)
            merged = []
            for old, new in ((self._ts, mids), (self._lo, lo), (self._hi, hi)):
                both = np.empty(n + 1)
                both[::2], both[1::2] = old, new
                merged.append(both)
            self._ts, self._lo, self._hi = _frozen(*merged)
            self._level += 1

    def _raw(self, level: int):
        if level < 0:
            raise ArgumentError("profile level must be nonnegative")
        with _PROFILE_LOCK:
            self._refine_to(level)
            stride = 1 << (self._level - level)
            return self._ts[::stride], self._lo[::stride], self._hi[::stride]

    def brackets(self, level: int = 0):
        """(ts, Klo, Khi) on the level grid, monotone-enforced."""
        ts, lo, hi = self._raw(level)
        return (ts,) + enforce_monotone(lo, hi, ts)

    def augmented(self, level: int, abscissae: Callable):
        """Monotone-enforced (ts, Klo, Khi) on the level grid joined with the
        nodes ``abscissae(ts, Klo, Khi)`` picks from that level's brackets.

        The extra nodes depend on K alone, so they are memoised per (level,
        abscissae).  Their raw brackets join one sorted store of off-grid
        nodes shared by all levels, so a node that several levels pick is
        evaluated once.
        """
        key = (level, abscissae)
        with _PROFILE_LOCK:
            ts, lo, hi = self._raw(level)
            if key not in self._augmented:
                extra = np.setdiff1d(abscissae(ts, *enforce_monotone(lo, hi, ts)), ts)
                new = np.setdiff1d(extra, self._off_grid[0])
                if new.size:
                    at = np.searchsorted(self._off_grid[0], new)
                    found = (new,) + k_profile(self._m, self._couple, new)
                    self._off_grid = _frozen(
                        *(np.insert(a, at, b) for a, b in zip(self._off_grid, found))
                    )
                self._augmented[key] = _frozen(extra)[0]
            extra = self._augmented[key]
            pos = np.searchsorted(self._off_grid[0], extra)
            xlo, xhi = self._off_grid[1][pos], self._off_grid[2][pos]
        at = np.searchsorted(ts, extra)
        ts, lo, hi = (np.insert(a, at, b) for a, b in ((ts, extra), (lo, xlo), (hi, xhi)))
        return (ts,) + enforce_monotone(lo, hi, ts)
