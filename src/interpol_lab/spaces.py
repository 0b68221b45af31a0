"""Finite-dimensional weighted sequence spaces and the K-functional.

The concrete universe for the whole package: a space is C^d with the norm

    ||x|| = ( sum_i (w_i |x_i|)^p )^(1/p)      for 1 <= p < inf,
    ||x|| = max_i w_i |x_i|                    for p = inf,

with strictly positive weights w.  A couple is an ordered pair of such
spaces on one index set.  The splitting functional

    K(t, x) = inf { ||x0||_0 + t ||x1||_1 : x0 + x1 = x }

is computed by one kernel, with a certified optimality gap, for a whole
array of t at once: closed forms for (1, 1), (inf, inf) and (1, inf), a
safeguarded Newton solve for (2, 2) and (1, 2), and for every other pair
one scalar root per t with a duality-based lower bound, over the sup
budget for (p, inf) and along the curve of optimal splits otherwise.
``k_profile`` is that kernel over a grid; ``k_functional`` is its
one-point case and also returns the splitter.  :mod:`.envelope` bounds K
for every t at once between supporting lines.

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
from scipy.special import expit

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


_TINY = math.ulp(0.0)


def magnitude_pnorm(values: np.ndarray, w: np.ndarray, p: float) -> float:
    """Weighted l^p norm of a nonnegative magnitude vector.

    A nonzero vector whose norm underflows (a subnormal entry times a weight
    below 1) gets the smallest positive double, so the norm stays definite.
    """
    n = _weighted_pnorm(w * values, p)
    if n == 0.0 and np.any(values > 0.0):
        return _TINY
    return n


def _weighted_pnorm(wy: np.ndarray, p: float) -> float:
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
    bounded memo of the K profiles and envelopes computed over it (see
    :class:`KProfile` and :class:`~interpol_lab.envelope.KEnvelope`); the
    memo is freed with the couple.
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
    K(t) = min_c (b_c + t q_c) exactly for every t.  A coordinate that the
    candidate covers (b_c >= w0_i m_i) leaves exactly 0: m_i - b_c/w0_i can
    round to an ulp above 0 there, and t multiplies it.
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
    q_c = np.max(w1 * _remainders(m, b_c[:, None], w0, z), axis=1) if m.size else np.zeros_like(b_c)
    return b_c, q_c


def _remainders(m, budget, w, covered):
    """(m - budget / w)_+, exactly 0 where budget >= covered = w m."""
    return np.where(budget >= covered, 0.0, np.maximum(m - budget / w, 0.0))


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
    """Certified (lo, hi, lam, lam1) of K(t, m) for every t of a positive array.

    ``m`` is |x|; rows i of ``lam`` and ``lam1`` (T x d) hold the shares
    x0 = lam x, x1 = lam1 x of a split whose objective at ts[i] is hi[i] up
    to round-off.  lam + lam1 = 1 up to round-off, and each is computed from
    its own formula, so a small share keeps its relative accuracy (1 - lam
    would lose it).  The only dispatch on (p0, p1) lives here: closed forms for
    (1, 1), (inf, inf) and (1, inf), safeguarded Newton for (2, 2) and
    (1, 2), and a scalar root per t on the support of m otherwise; (inf, p)
    and (2, 1) are t-swapped onto (p, inf) and (1, 2) first.  All run on the
    unit-binade m; a non-finite end, or a root's gap above tol * max(1, upper)
    there, raises :class:`PrecisionError` with its bracket."""
    T, d = ts.size, m.size
    if not np.any(m > 0):
        return np.zeros(T), np.zeros(T), np.zeros((T, d)), np.zeros((T, d))
    s0, s1 = couple.space0, couple.space1
    if s0.equals(s1):
        lo = np.minimum(1.0, ts) * magnitude_pnorm(m, s0.weights, s0.p)
        lam = (ts[:, None] > 1.0) * np.ones(d)
        return lo, lo, lam, 1.0 - lam
    (w0, p0), (w1, p1), t_in = (s0.weights, s0.p), (s1.weights, s1.p), ts
    # K(t, x; X0, X1) = t K(1/t, x; X1, X0) with the two parts exchanged
    swap = (p0 == INF and p1 != INF) or (p0, p1) == (2, 1)
    if swap:
        (w0, p0), (w1, p1), ts = (w1, p1), (w0, p0), 1.0 / ts
    mu, e = unit_binade(m)
    path, sup = _K_PATHS.get((p0, p1)), mu > 0
    if path is not None:
        lo, hi, lam, lam1 = path(mu, w0, w1, ts)
    else:
        lam, lam1 = np.zeros((T, d)), np.zeros((T, d))
        root = _k_sup_budget if p1 == INF else _k_finite
        lo, hi, lam[:, sup], lam1[:, sup] = root(mu[sup], w0[sup], p0, w1[sup], p1, ts)
    certified = path is not None or (hi - lo <= tol * np.maximum(1.0, hi))
    lo, hi = np.ldexp(lo, e), np.ldexp(hi, e)
    if swap:
        lo, hi, lam, lam1 = t_in * lo, t_in * hi, lam1, lam
    failed = ~(certified & np.isfinite(lo) & np.isfinite(hi))
    if np.any(failed):
        i = int(np.argmax(failed))
        msg = f"K bracket [{lo[i]:.6e}, {hi[i]:.6e}] at t = {t_in[i]:.6e} is not finite or wider"
        raise PrecisionError(f"{msg} than tol = {tol:.3e}", bracket=(float(lo[i]), float(hi[i])))
    return lo, hi, lam, lam1


def _k_l1_l1(m, w0, w1, ts):
    tw1 = ts[:, None] * w1[None, :]
    vals = np.sum(m[None, :] * np.minimum(w0[None, :], tw1), axis=1)
    lam = (w0[None, :] <= tw1) * 1.0
    return vals, vals, lam, 1.0 - lam


# The (inf, inf) and (1, inf) splits below come from the kinks of a
# piecewise-linear cost, and their costs cancel where two kinks nearly
# coincide (weights far apart); K itself is read from the dual, a sum of
# nonnegative terms, so it keeps its relative accuracy there.


# the objective of a split as k_functional forms it, from shares of |x|,
# is within a few roundings of the one recomputed from its complex parts
_OBJECTIVE_ULPS = 32 * np.finfo(float).eps


def _k_linf_linf(m, w0, w1, ts):
    z = w0 * m
    b_c, q_c = _linf_candidates(m, w0, w1)
    b = b_c[np.argmin(b_c[None, :] + ts[:, None] * q_c[None, :], axis=1)][:, None]
    vals = _sup_sup_dual(z, w0 / w1, ts)
    lam, lam1 = np.minimum(1.0, _shares(b, z)), _shares(_remainders(m, b, w0, z), m)
    # the kink costs of the split cancel at extreme weights, so its own
    # objective, rounded outward, is the upper end
    x0, x1 = _split_parts(m, lam, lam1)
    upper = (np.max(w0 * x0, axis=1) + ts * np.max(w1 * x1, axis=1)) * (1.0 + _OBJECTIVE_ULPS)
    return vals, np.maximum(upper, vals), lam, lam1


def _split_parts(m, lam, lam1):
    """The parts (x0, x1) of m (rows of shares lam, lam1) that k_functional
    returns: per coordinate the smaller share times m, the rest m minus it,
    so x0 + x1 = m up to one rounding of the larger part."""
    small = lam <= lam1
    return np.where(small, lam * m, m - lam1 * m), np.where(small, m - lam * m, lam1 * m)


def _sup_sup_dual(v, rho, ts):
    """K(t) for (inf, inf) by duality: the largest sum a_i v_i over a >= 0 with
    sum a_i <= 1 and sum a_i rho_i <= t (v = w0 m, rho = w0 / w1, a_i = z_i / w0_i).
    That is the least concave majorant of the origin and the points (rho_i,
    v_i), constant beyond its highest point; between two hull vertices it is
    a convex combination of their v."""
    hull = [(0.0, 0.0)]
    for r, val in zip(*(a[np.lexsort((-v, rho))] for a in (rho, v))):
        if val <= hull[-1][1]:
            continue  # below the nondecreasing majorant
        while len(hull) >= 2:
            (ra, va), (rb, vb) = hull[-2], hull[-1]
            if (vb - va) * (r - ra) > (val - va) * (rb - ra):
                break
            hull.pop()  # not above the chord to the new point
        hull.append((r, val))
    hr, hv = (np.array(a) for a in zip(*hull))
    j = np.minimum(np.searchsorted(hr, ts), hr.size - 1)
    ra, rb, va, vb = hr[j - 1], hr[j], hv[j - 1], hv[j]
    inner = (va * (rb - ts) + vb * (ts - ra)) / (rb - ra)
    return np.where(ts < hr[-1], inner, hv[-1])


def _k_l1_linf(m, w0, w1, ts):
    # budget u on the sup-side; the remaining l1 cost is piecewise linear in u
    z = m * w1
    cands = np.unique(np.concatenate([[0.0], z[z > 0]]))
    base = np.sum(w0 * _remainders(m, cands[:, None], w1, z), axis=1)
    u = cands[np.argmin(base[None, :] + ts[:, None] * cands[None, :], axis=1)][:, None]
    vals = _l1_sup_dual(m, w0, w1, ts)
    return vals, vals, _shares(_remainders(m, u, w1, z), m), np.minimum(1.0, _shares(u, z))


def _l1_sup_dual(m, w0, w1, ts):
    """K(t) for (1, inf) by duality: the largest sum m_i z_i over 0 <= z <= w0
    with sum z_i / w1_i <= t, filled greedily by decreasing m_i w1_i, each z_i
    costing up to w0_i / w1_i of the budget t."""
    order = np.argsort(-(m * w1), kind="stable")
    cost, w0, w1 = (w0 / w1)[order], w0[order], w1[order]
    spent = np.concatenate([[0.0], np.cumsum(cost)[:-1]])
    left = np.clip(ts[:, None] - spent, 0.0, cost)
    return np.sum(m[order] * np.where(left >= cost, w0, w1 * left), axis=1)


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
    lam1 = 1.0 - lam
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
        lam1[interior] = _shares(v, m[None, :])
    return lo, hi, lam, lam1


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
    lam1 = 1.0 - lam0
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
        lam1[interior] = _shares(v, m[None, :])
    return lo, hi, lam0, lam1



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
# general K paths: one scalar root per t, certified by duality


def _rows_pnorm(y, w, p):
    """Weighted l^p norm of every row (last axis) of a nonnegative array."""
    wy = w * y
    top = np.max(wy, axis=-1)
    if p == INF or p == 1:
        return top if p == INF else np.sum(wy, axis=-1)
    return top * np.sum((wy / np.where(top > 0, top, 1.0)[..., None]) ** p, axis=-1) ** (1.0 / p)


def _subgradient(y, w, p):
    """A subgradient of the weighted l^p norm, p < inf, at every row of y."""
    n = _rows_pnorm(y, w, p)[..., None]
    return w * (w * y / np.where(n > 0, n, 1.0)) ** (p - 1.0)


def _dual_lower(m, w0, p0, w1, p1, t, candidates):
    """Row by row, the best lower bound <m, z> / max(||z/w0||_p0', ||z/w1||_p1' / t)
    on K(t, m) over the candidates z >= 0 (rows or one vector)."""
    best, q0, q1 = 0.0, dual_exponent(p0), dual_exponent(p1)
    for z in candidates:
        scale = np.maximum(_rows_pnorm(z, 1.0 / w0, q0), _rows_pnorm(z, 1.0 / w1, q1) / t)
        best = np.maximum(best, np.sum(m * z, axis=-1) / np.where(scale > 0, scale, INF))
    return best


def _increasing_root(fun, x, lo, hi):
    """Roots of a nondecreasing ``fun(x[rows], rows) -> (values, slopes)``, one
    per entry of x, by Newton on x in place within [lo, hi] (an end may be
    infinite): a step leaving it, or above half the step before last, becomes a
    bisection, or twice the last step (at least 1) toward an infinite end.  Each
    entry stops on its own, at a round-off residual, step or bracket."""
    act, last, before = np.arange(x.size), np.full(x.size, INF), np.full(x.size, INF)
    for _ in range(_NEWTON_MAX_STEPS):
        if act.size == 0:
            break
        xa = x[act]
        f, df = fun(xa, act)
        a, b = np.where(f < 0, xa, lo[act]), np.where(f > 0, xa, hi[act])
        nxt = xa - f / np.maximum(df, _EPS)
        tiny = 4e-16 * np.maximum(1.0, np.abs(xa))
        small = (np.abs(f) <= 1e-14) | (np.abs(nxt - xa) <= tiny)
        newton = (nxt > a) & (nxt < b) & (np.abs(nxt - xa) <= 0.5 * before[act])
        finite = np.isfinite(a) & np.isfinite(b)
        reach = np.where(np.isfinite(last[act]), np.maximum(2.0 * last[act], 1.0), 1.0)
        nxt = np.where(newton, nxt, np.where(finite, 0.5 * (a + b), xa + np.copysign(reach, -f)))
        nxt = np.where(finite, nxt, np.clip(nxt, xa - reach, xa + reach))
        done = small | (b - a <= tiny)
        x[act] = np.where(small, xa, nxt)
        lo[act], hi[act] = a, b
        before[act], last[act] = last[act], np.abs(nxt - xa)
        act = act[~done]
    return x


def _split_logits(c, p0, p1, y=None):
    """Logits y = log(a / (m - a)) on the curve w0^p0 a^(p0-1) = rho w1^p1 (m - a)^(p1-1):
    h(y) = (p0 - 1) y + (p1 - p0) log(1 + e^y) = c = log rho + p1 log w1 - p0 log w0
    + (p1 - p0) log m.  Closed for waterfilling (an exponent 1); otherwise h is
    increasing and convex or concave, and Newton from ``y`` or from the inverse of its
    asymptotes (exact for p0 = p1) is monotone after one step, each entry on its own."""
    if 1 in (p0, p1):
        sign = 1.0 if p0 == 1 else -1.0
        s = np.maximum(sign * c, 0.0) / (p0 + p1 - 2.0)
        return sign * (s + np.log(-np.expm1(-s), out=np.full_like(s, -INF), where=s > 0))
    y = c / np.where(c < 0, p0 - 1.0, p1 - 1.0) if y is None else y
    done = np.zeros(c.shape, dtype=bool)
    for _ in range(_NEWTON_MAX_STEPS):
        h = (p0 - 1.0) * y + (p1 - p0) * np.logaddexp(0.0, y)
        step = (h - c) / (p0 - 1.0 + (p1 - p0) * expit(y))
        y = y - np.where(done, 0.0, step)
        done |= np.abs(step) <= 1e-13 * np.maximum(1.0, np.abs(y))
        if done.all():
            break
    return y


def _k_finite(m, w0, p0, w1, p1, ts):
    """(lower, upper, lam, lam1) of K for finite p0, p1 and m > 0, one root per t.

    Along the curve of :func:`_split_logits` (s = log rho) the objective moves with
    the sign of G(s) = s - log t - (p0 - 1) log N0(a) + (p1 - 1) log N1(m - a), which
    is nondecreasing and 0 at the optimal splits.  Corners first: x0 = x iff grad N0(m)
    has X1*-norm <= t, x0 = 0 iff t grad N1(m) has X0*-norm <= 1.  a, m - a come from y."""
    full = _rows_pnorm(_subgradient(m, w0, p0), 1.0 / w1, dual_exponent(p1)) <= ts
    empty = ts * _rows_pnorm(_subgradient(m, w1, p1), 1.0 / w0, dual_exponent(p0)) <= 1.0
    y = np.where(full, INF, -INF)[:, None] * np.ones(m.size)
    inner = np.flatnonzero(~(full | empty))
    if inner.size:
        lm, lw0, lw1 = np.log(m), np.log(w0), np.log(w1)
        k = p1 * lw1 - p0 * lw0 + (p1 - p0) * lm
        log_t, n0, n1 = np.log(ts[inner]), _rows_pnorm(m, w0, p0), _rows_pnorm(m, w1, p1)
        s0 = log_t + (p0 - 1.0) * math.log(0.5 * n0) - (p1 - 1.0) * math.log(0.5 * n1)
        warm = _split_logits(s0[:, None] + k, p0, p1)  # each row's last logits

        def G(s, rows):
            warm[rows] = yr = _split_logits(s[:, None] + k, p0, p1, warm[rows])
            sig = expit(yr)
            slope = np.maximum((p0 - 1.0) * (1.0 - sig) + (p1 - 1.0) * sig, _EPS)
            g, dg = s - log_t[rows], 1.0
            for p, lw, sign, share in ((p0, lw0, -1.0, 1.0 - sig), (p1, lw1, 1.0, sig)):
                if p > 1:  # log N of the part, and its shares (w part)^p / N^p
                    e = p * (lw + lm - np.logaddexp(0.0, sign * yr))
                    top = np.max(e, axis=1, keepdims=True)
                    ex = np.exp(e - top)
                    total = np.sum(ex, axis=1, keepdims=True)
                    g = g + sign * (p - 1.0) / p * (top + np.log(total))[:, 0]
                    dg = dg - (p - 1.0) * np.sum(ex / total * share / slope, axis=1)
            return g, dg

        _increasing_root(G, s0, np.full(inner.size, -INF), np.full(inner.size, INF))
        y[inner] = warm  # the logits at each root
    a, v = m * expit(y), m * expit(-y)
    upper = _rows_pnorm(a, w0, p0) + ts * _rows_pnorm(v, w1, p1)
    z0, z1 = _subgradient(a, w0, p0), ts[:, None] * _subgradient(v, w1, p1)
    cands = [z0, z1, 0.5 * (z0 + z1), np.minimum(z0, z1)]
    return np.minimum(_dual_lower(m, w0, p0, w1, p1, ts, cands), upper), upper, expit(y), expit(-y)


def _k_sup_budget(m, w0, p0, w1, p1, ts):
    """(lower, upper, lam, lam1) of K for (p0, inf), 1 < p0 < inf, m > 0, one root per t.

    With sup budget u = ||x1||_{inf,w1} the best remainder is y = (m - u/w1)_+, and
    K(t) = min_u N0(y) + t u is optimal where t = R(u) = ||grad N0(y) / w1||_1, which
    is nonincreasing and smooth between the kinks u = m_i w1_i that bracket its root."""
    z, ratio, u_hi = m * w1, w0 / w1, float(np.max(m * w1))
    top = (z == u_hi) / w1  # the direction in which y vanishes at u_hi

    def log_R(y):  # log R at rows of remainders y, and its derivative in -u
        n = _rows_pnorm(y, w0, p0)[:, None]
        r = w0 * y / n
        R = np.sum(ratio * r ** (p0 - 1.0), axis=1)
        curv = np.sum((y > 0) * ratio * ratio * np.where(y > 0, r, 1.0) ** (p0 - 2.0), axis=1)
        return np.log(R), (p0 - 1.0) / n[:, 0] * (curv / R - R)

    knots = np.unique(np.append(z, 0.0))
    log_knots = log_R(np.vstack([np.maximum(z - knots[:-1, None], 0.0) / w1, top]))[0]
    # the first knot where R <= t: 0 at the corner u = 0, none at u = u_hi
    j = np.searchsorted(-np.minimum.accumulate(log_knots), -np.log(ts))
    u = np.where(j == 0, 0.0, u_hi)
    y = np.where(j[:, None] == 0, m, 0.0)
    inner = np.flatnonzero((j > 0) & (j < knots.size))
    if inner.size:
        # the root in log(hi - u): a y_i ~ hi - u next to the kink hi can
        # still carry R where u itself has no resolution left
        lt, hi, width = np.log(ts[inner]), knots[j[inner]], np.log(np.diff(knots)[j[inner] - 1])

        def G(s, rows):
            lr, slope = log_R(np.maximum(z - hi[rows, None] + np.exp(s)[:, None], 0.0) / w1)
            return lr - lt[rows], np.exp(s) * slope

        delta = np.exp(_increasing_root(G, width - math.log(2.0), np.full(inner.size, -INF), width))
        u[inner], y[inner] = hi - delta, np.maximum(z - hi[:, None] + delta[:, None], 0.0) / w1
    upper = _rows_pnorm(y, w0, p0) + ts * u
    cands = [_subgradient(y, w0, p0), _subgradient(top, w0, p0)]
    lower = np.minimum(_dual_lower(m, w0, p0, w1, INF, ts, cands), upper)
    return lower, upper, y / m, np.minimum(1.0, u[:, None] / z)


# ---------------------------------------------------------------------------
# the public faces of the kernel


def k_functional(t: float, x, couple: BanachCouple, tol: float = 1e-8) -> KEvaluation:
    """Certified evaluation of K(t, x) over the couple, with its splitter.

    The one-point case of the K kernel that :func:`k_profile` runs over a
    grid.  Gap 0 on the (1, 1) and (1, inf) closed forms, the outward-rounded
    objective of its split over the dual on (inf, inf), round-off on the
    Newton solves; any other pair runs a scalar root and must certify a gap
    below ``tol`` * max(1, upper) at |x|'s unit binade (else
    :class:`PrecisionError` with the bracket).  The splitter (x0, x1) takes, coordinate by
    coordinate, the smaller part as its share of x and the larger as the
    rest, x - part, so both parts keep their relative accuracy.
    """
    if t <= 0:
        raise ArgumentError("t must be positive")
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    x = finite_vector(x, couple.dim)
    lo, hi, lam, lam1 = _k_kernel(np.abs(x), couple, np.array([t], dtype=float), tol)
    return KEvaluation(t, float(lo[0]), _split_parts(x, lam[0], lam1[0]), float(hi[0] - lo[0]))


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
    lo, hi = _k_kernel(m, couple, ts, 1e-9)[:2]
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
# Guards the mutable profile state that calls from several threads would
# share: each couple's profile memo, each profile's refined store, each
# envelope's samples and levels, each level's reductions, and the two slots
# of ``functors`` (the per-level cells of the profile reduced last, and the
# corner window asked for last).
# Reentrant, because building cells refines the profile under it.
_PROFILE_LOCK = threading.RLock()


def _memoised(couple: BanachCouple, key, build: Callable):
    """The couple's memo entry under key, built by ``build()`` if absent; the
    memo keeps the ``PROFILE_MEMO_SIZE`` most recently used entries."""
    memo = couple._profiles
    with _PROFILE_LOCK:
        value = memo.get(key)
        if value is None:
            value = memo[key] = build()
            while len(memo) > PROFILE_MEMO_SIZE:
                memo.popitem(last=False)
        else:
            memo.move_to_end(key)
    return value


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

    @classmethod
    def of(cls, couple: BanachCouple, x, t_min: float, t_max: float, intervals: int) -> "KProfile":
        """The memoised profile of x over the couple; K(t, x) = K(t, |x|),
        so the key is the bytes of |x| with the grid parameters.  The memo
        keeps the ``PROFILE_MEMO_SIZE`` most recently used profiles."""
        m = np.abs(as_vector(x, couple.dim))
        key = (m.tobytes(), float(t_min), float(t_max), int(intervals))
        return _memoised(couple, key, lambda: cls(couple, m, t_min, t_max, intervals))

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


# ---------------------------------------------------------------------------
# the couples whose K is polyhedral


def is_polyhedral(couple: BanachCouple) -> bool:
    """Both exponents in {1, inf}: K is then the lower envelope of finitely
    many lines t -> N0(x0) + t N1(x1), one per split."""
    return couple.space0.p in (1.0, INF) and couple.space1.p in (1.0, INF)
