"""Finite-dimensional weighted sequence spaces and the K-functional.

The concrete universe for the whole package: a space is C^d with the norm

    ||x|| = ( sum_i (w_i |x_i|)^p )^(1/p)      for 1 <= p < inf,
    ||x|| = max_i w_i |x_i|                    for p = inf,

with strictly positive weights w.  A couple is an ordered pair of such
spaces on one index set.  The splitting functional

    K(t, x) = inf { ||x0||_0 + t ||x1||_1 : x0 + x1 = x }

is computed with a certified optimality gap.  Exact closed forms exist for
several exponent pairs and are used both as fast paths and as test oracles;
the general case runs a convex minimisation over coordinatewise shrinkage
factors with a duality-based lower bound.

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


def space_norm(x, space: WeightedSpace) -> float:
    return space.norm(x)


# ---------------------------------------------------------------------------
# exact K paths


def _split_from_lam(x: np.ndarray, lam: np.ndarray):
    x0 = lam * x
    return x0, x - x0


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


def _k_l1_l1(t, x, m, w0, w1):
    take0 = w0 <= t * w1
    lam = np.where(take0, 1.0, 0.0)
    x0, x1 = _split_from_lam(x, lam)
    value = float(np.sum(m * np.minimum(w0, t * w1)))
    return KEvaluation(t, value, (x0, x1), 0.0)


def _k_linf_linf(t, x, m, w0, w1):
    b_c, q_c = _linf_candidates(m, w0, w1)
    vals = b_c + t * q_c
    i = int(np.argmin(vals))
    b = b_c[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(m > 0, np.minimum(1.0, b / (w0 * np.where(m > 0, m, 1.0))), 0.0)
    x0, x1 = _split_from_lam(x, lam)
    return KEvaluation(t, float(vals[i]), (x0, x1), 0.0)


def _k_l2_l2_scalar(t, x, m, w0, w1):
    n1 = magnitude_pnorm(m, w1, 2)
    n0 = magnitude_pnorm(m, w0, 2)
    # all mass on the t-side iff the slope condition at u = 0 holds
    if t * magnitude_pnorm(m, w1 * w1 / w0, 2) <= n1 * (1 + 1e-15):
        return KEvaluation(t, t * n1, (np.zeros_like(x), x), 0.0)
    if magnitude_pnorm(m, w0 * w0 / w1, 2) <= t * n0 * (1 + 1e-15):
        return KEvaluation(t, n0, (x, np.zeros_like(x)), 0.0)

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
    flo = psi(lo)
    fhi = psi(hi)
    if flo < 0 or fhi > 0:  # numerically boundary-like; pick better endpoint
        cands = [
            KEvaluation(t, t * n1, (np.zeros_like(x), x), 0.0),
            KEvaluation(t, n0, (x, np.zeros_like(x)), 0.0),
        ]
        best = min(cands, key=lambda e: e.value)
        return best
    r = optimize.brentq(psi, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    u, v = parts_of(math.exp(r))
    a = magnitude_pnorm(u, w0, 2)
    b = magnitude_pnorm(v, w1, 2)
    upper = a + t * b
    nu = w0sq * u / max(a, _EPS)
    scale = max(1.0, magnitude_pnorm(nu, 1.0 / w1, 2) / t)
    lower = min(float(np.dot(m, nu)) / scale, upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.where(m > 0, u / np.where(m > 0, m, 1.0), 0.0)
    x0, x1 = _split_from_lam(x, lam)
    return KEvaluation(t, lower, (x0, x1), upper - lower)


def _k_l1_linf_scalar(t, x, m, w0, w1):
    # budget u on the sup-side; remaining l1 cost is piecewise linear in u
    z = m * w1
    cands = np.unique(np.concatenate([[0.0], z[z > 0]]))
    costs = np.array(
        [np.sum(w0 * np.maximum(m - u / w1, 0.0)) + t * u for u in cands]
    )
    i = int(np.argmin(costs))
    u = cands[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac1 = np.where(m > 0, np.minimum(1.0, u / (w1 * np.where(m > 0, m, 1.0))), 0.0)
    x1 = frac1 * x
    x0 = x - x1
    return KEvaluation(t, float(costs[i]), (x0, x1), 0.0)


def _k_l1_l2_scalar(t, x, m, w0, w1):
    # dual waterfilling: z = min(w0, lam * w1^2 m), ||z/w1||_2 = t
    if magnitude_pnorm(np.ones_like(m), w0 / w1, 2) <= t:
        value = float(np.sum(m * w0))
        return KEvaluation(t, value, (x, np.zeros_like(x)), 0.0)
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
    u = m - v
    upper = float(np.sum(w0 * u)) + t * magnitude_pnorm(v, w1, 2)
    lower = min(lower, upper)
    with np.errstate(divide="ignore", invalid="ignore"):
        lam0 = np.where(m > 0, u / np.where(m > 0, m, 1.0), 0.0)
    x0, x1 = _split_from_lam(x, lam0)
    return KEvaluation(t, lower, (x0, x1), upper - lower)


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


def _k_any_linf_scalar(t, x, m, w0, p0, w1, tol):
    """K for (p0, inf): one-dimensional convex search over the sup budget u.

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
    cands = [z0]
    if z0 is None:
        cands = [t * _subgradient(m, w1, INF)] if np.any(m > 0) else []
    lower = _dual_lower(m, w0, p0, w1, INF, t, cands)
    lower = min(lower, best_val)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac1 = np.where(m > 0, np.minimum(1.0, u / (w1 * np.where(m > 0, m, 1.0))), 0.0)
    x1 = frac1 * x
    return KEvaluation(t, lower, (x - x1, x1), best_val - lower)


def _k_general_scalar(t, x, m, w0, p0, w1, p1, tol):
    d = m.size
    sup = m > 0
    if not np.any(sup):
        return KEvaluation(t, 0.0, (np.zeros_like(x), np.zeros_like(x)), 0.0)

    def objective(lam):
        lam = np.clip(lam, 0.0, 1.0)
        return magnitude_pnorm(lam * m, w0, p0) + t * magnitude_pnorm(
            (1.0 - lam) * m, w1, p1
        )

    def grad(lam):
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
        return g0 - t * g1

    starts = [
        np.full(d, 0.5),
        (w0 <= t * w1).astype(float),
        np.zeros(d),
        np.ones(d),
    ]
    rng = np.random.default_rng(0)
    best_lam, best_val = None, INF
    smooth = p0 != INF and p1 != INF

    for attempt in range(3):
        for lam0 in starts:
            if smooth:
                lam = optimize.minimize(
                    objective,
                    lam0,
                    jac=grad,
                    method="L-BFGS-B",
                    bounds=[(0.0, 1.0)] * d,
                    options={"maxiter": 500, "ftol": 1e-16, "gtol": 1e-12},
                ).x
            else:
                lam = _k_epigraph_solve(t, m, w0, p0, w1, p1, lam0)
            val = objective(lam)
            if val < best_val:
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
        gap = best_val - lower
        if gap <= tol * max(1.0, best_val):
            x0, x1 = _split_from_lam(x, best_lam)
            return KEvaluation(t, lower, (x0, x1), gap)
        starts = [best_lam] + [rng.uniform(0, 1, d) for _ in range(4)]

    x0, x1 = _split_from_lam(x, best_lam)
    raise PrecisionError(
        f"splitting functional gap {gap:.3e} above tolerance {tol:.3e}",
        bracket=(lower, best_val),
    )


def _k_epigraph_solve(t, m, w0, p0, w1, p1, lam0) -> np.ndarray:
    """SLSQP epigraph formulation used when an exponent is infinite; returns
    the shrinkage factors clipped to [0, 1]."""
    d = m.size

    def pack(lam, a, b):
        return np.concatenate([lam, [a, b]])

    def obj(y):
        return y[d] + y[d + 1]

    def obj_grad(y):
        g = np.zeros(d + 2)
        g[d] = g[d + 1] = 1.0
        return g

    cons = []
    if p0 == INF:
        for i in range(d):
            cons.append(
                {
                    "type": "ineq",
                    "fun": (lambda y, i=i: y[d] - w0[i] * m[i] * y[i]),
                }
            )
    else:
        cons.append(
            {
                "type": "ineq",
                "fun": lambda y: y[d] - magnitude_pnorm(np.clip(y[:d], 0, 1) * m, w0, p0),
            }
        )
    if p1 == INF:
        for i in range(d):
            cons.append(
                {
                    "type": "ineq",
                    "fun": (lambda y, i=i: y[d + 1] - t * w1[i] * m[i] * (1.0 - y[i])),
                }
            )
    else:
        cons.append(
            {
                "type": "ineq",
                "fun": lambda y: y[d + 1]
                - t * magnitude_pnorm((1.0 - np.clip(y[:d], 0, 1)) * m, w1, p1),
            }
        )
    a0 = magnitude_pnorm(lam0 * m, w0, p0)
    b0 = t * magnitude_pnorm((1.0 - lam0) * m, w1, p1)
    bounds = [(0.0, 1.0)] * d + [(0.0, None), (0.0, None)]
    res = optimize.minimize(
        obj,
        pack(lam0, a0 * 1.001 + 1e-12, b0 * 1.001 + 1e-12),
        jac=obj_grad,
        method="SLSQP",
        bounds=bounds,
        constraints=cons,
        options={"maxiter": 400, "ftol": 1e-14},
    )
    return np.clip(res.x[:d], 0.0, 1.0)


def k_functional(t: float, x, couple: BanachCouple, tol: float = 1e-8) -> KEvaluation:
    """Certified evaluation of K(t, x) over the couple.

    Exact paths (gap 0): equal endpoint spaces, both exponents 1, both inf,
    and the (1, inf) pair including its t-swap.  The (2, 2) and (1, 2) pairs
    solve a one-parameter optimality equation to roundoff with a duality
    certificate.  Everything else runs the general shrinkage minimisation
    and must certify a gap below ``tol``.
    """
    if t <= 0:
        raise ArgumentError("t must be positive")
    if tol <= 0:
        raise ArgumentError("tol must be positive")
    x = as_vector(x, couple.dim)
    s0, s1 = couple.space0, couple.space1
    m = np.abs(x)
    if not np.any(m > 0):
        z = np.zeros_like(x)
        return KEvaluation(t, 0.0, (z, z), 0.0)
    if s0.equals(s1):
        n = s0.norm(x)
        if t <= 1.0:
            return KEvaluation(t, t * n, (np.zeros_like(x), x), 0.0)
        return KEvaluation(t, n, (x, np.zeros_like(x)), 0.0)

    w0, w1, p0, p1 = s0.weights, s1.weights, s0.p, s1.p
    if p0 == 1 and p1 == 1:
        return _k_l1_l1(t, x, m, w0, w1)
    if p0 == INF and p1 == INF:
        return _k_linf_linf(t, x, m, w0, w1)
    if p0 == 2 and p1 == 2:
        return _k_l2_l2_scalar(t, x, m, w0, w1)
    if p0 == 1 and p1 == INF:
        return _k_l1_linf_scalar(t, x, m, w0, w1)
    if p0 == 1 and p1 == 2:
        return _k_l1_l2_scalar(t, x, m, w0, w1)
    if p1 == INF:
        return _k_any_linf_scalar(t, x, m, w0, p0, w1, tol)
    if (p0, p1) in ((INF, 1), (2, 1)) or p0 == INF:
        ev = k_functional(1.0 / t, x, couple.reversed(), tol)
        return KEvaluation(
            t, t * ev.value, (ev.splitter[1], ev.splitter[0]), t * ev.gap
        )
    return _k_general_scalar(t, x, m, w0, p0, w1, p1, tol)


# ---------------------------------------------------------------------------
# vectorised K profiles over a grid of t values (used by quadrature)


def k_profile(x, couple: BanachCouple, ts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Certified (lower, upper) arrays for K(t, x) over a positive grid.

    Uses the same exact paths as :func:`k_functional`, vectorised over t;
    pairs without a vectorised path fall back to per-point evaluation.
    The returned upper is additionally clipped by min(||x||_0, t ||x||_1).
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise ArgumentError("t grid must be positive")
    x = as_vector(x, couple.dim)
    s0, s1 = couple.space0, couple.space1
    m = np.abs(x)
    if not np.any(m > 0):
        z = np.zeros_like(ts)
        return z, z.copy()

    w0, w1, p0, p1 = s0.weights, s1.weights, s0.p, s1.p
    lo = hi = None
    if s0.equals(s1):
        n = s0.norm(x)
        lo = np.minimum(1.0, ts) * n
        hi = lo.copy()
    elif p0 == 1 and p1 == 1:
        vals = np.sum(
            m[None, :] * np.minimum(w0[None, :], ts[:, None] * w1[None, :]), axis=1
        )
        lo, hi = vals, vals.copy()
    elif p0 == INF and p1 == INF:
        b_c, q_c = _linf_candidates(m, w0, w1)
        vals = np.min(b_c[None, :] + ts[:, None] * q_c[None, :], axis=1)
        lo, hi = vals, vals.copy()
    elif p0 == 1 and p1 == INF:
        z = m * w1
        cands = np.unique(np.concatenate([[0.0], z[z > 0]]))
        base = np.array([np.sum(w0 * np.maximum(m - u / w1, 0.0)) for u in cands])
        vals = np.min(base[None, :] + ts[:, None] * cands[None, :], axis=1)
        lo, hi = vals, vals.copy()
    elif p0 == INF and p1 == 1:
        rlo, rhi = k_profile(x, couple.reversed(), 1.0 / ts)
        lo, hi = ts * rlo, ts * rhi
    elif p0 == 2 and p1 == 2:
        lo, hi = _k_profile_l2_l2(m, w0, w1, ts)
    elif p0 == 1 and p1 == 2:
        lo, hi = _k_profile_l1_l2(m, w0, w1, ts)
    elif p0 == 2 and p1 == 1:
        rlo, rhi = _k_profile_l1_l2(m, w1, w0, 1.0 / ts)
        lo, hi = ts * rlo, ts * rhi
    else:
        los, his = [], []
        for t in ts:
            ev = k_functional(float(t), x, couple, tol=1e-9)
            los.append(ev.value)
            his.append(ev.upper)
        lo, hi = np.array(los), np.array(his)

    cap = np.minimum(s0.norm(x), ts * s1.norm(x))
    hi = np.minimum(hi, cap)
    lo = np.minimum(lo, hi)
    return lo, hi


def _binary_exponent(m) -> int:
    """e with max(m) in [2^(e-1), 2^e).  K is positively homogeneous and a
    power-of-two rescaling is exact, so the l2 profile paths run on
    m 2^-e, where their unscaled sums of squares neither under- nor
    overflow, and scale the brackets back bit for bit."""
    return int(np.frexp(np.max(m))[1])


def _k_profile_l2_l2(m, w0, w1, ts):
    e = _binary_exponent(m)
    m = np.ldexp(m, -e)
    n0 = magnitude_pnorm(m, w0, 2)
    n1 = magnitude_pnorm(m, w1, 2)
    g0 = magnitude_pnorm(m, w1 * w1 / w0, 2)
    g1 = magnitude_pnorm(m, w0 * w0 / w1, 2)
    T = ts.size
    lo = np.empty(T)
    hi = np.empty(T)
    zero_side = ts * g0 <= n1
    full_side = g1 <= ts * n0
    lo[zero_side] = hi[zero_side] = (ts * n1)[zero_side]
    lo[full_side] = hi[full_side] = n0
    interior = ~(zero_side | full_side)
    if np.any(interior):
        ti = ts[interior]
        w0sq, w1sq = w0 * w0, w1 * w1
        kappa = np.exp(_l2_l2_log_kappa(m, w0sq, w1sq, ti))
        den = w0sq[None, :] + kappa[:, None] * w1sq[None, :]
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
    return np.ldexp(lo, e), np.ldexp(hi, e)


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


def _k_profile_l1_l2(m, w0, w1, ts):
    e = _binary_exponent(m)
    m = np.ldexp(m, -e)
    T = ts.size
    lo = np.empty(T)
    hi = np.empty(T)
    full = magnitude_pnorm(np.ones_like(m), w0 / w1, 2) <= ts
    l1_all = float(np.sum(m * w0))
    lo[full] = hi[full] = l1_all
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
    return np.ldexp(lo, e), np.ldexp(hi, e)


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
