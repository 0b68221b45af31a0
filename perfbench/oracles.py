"""Independent reference bounds used to check the package's answers.

Nothing here imports interpol_lab: every bound is recomputed from the raw
weights, exponents and matrices with a few lines of numpy, so a check that
uses these functions does not share code with what it checks.  Every
function returns a bound that is valid by a short argument given in its
docstring; checks compare them against the *sound* end of a bracket
(an upper end must not fall below a certified lower bound, a lower end must
not rise above a certified upper bound).
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf
REL = 1e-9  # relative slack for round-off in the comparisons


def pnorm(m, w, p) -> float:
    """Weighted l^p norm (sum (w_i m_i)^p)^(1/p) of a magnitude vector."""
    wm = np.asarray(w, dtype=float) * np.abs(np.asarray(m))
    top = float(np.max(wm))
    if p == INF or top == 0.0:
        return top
    return top * float(np.sum((wm / top) ** p)) ** (1.0 / p)


def dual_exponent(p: float) -> float:
    if p == 1:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def _dual_norm(v, w, p) -> float:
    """Norm of the functional v in the dual of weighted l^p(w)."""
    return pnorm(v, 1.0 / np.asarray(w, dtype=float), dual_exponent(p))


def _attaining(m, w, p) -> np.ndarray:
    """A nonnegative v with <m, v> = ||m||_{p,w} ||v||_*  (norming functional)."""
    w = np.asarray(w, dtype=float)
    if p == 1:
        return w.copy()
    if p == INF:
        v = np.zeros_like(m)
        k = int(np.argmax(w * m))
        v[k] = w[k]
        return v
    return w**p * m ** (p - 1.0)


def k_lower(t: float, x, w0, p0, w1, p1) -> float:
    """Certified lower bound for K(t, x) by duality.

    For every functional y, |<x, y>| <= ||y||_0* ||a||_0 + ||y||_1* ||b||_1
    whenever x = a + b, hence K(t, x) >= |<x, y>| / max(||y||_0*, ||y||_1*/t).
    The norming functionals of x in each endpoint are the candidates.
    """
    m = np.abs(np.asarray(x))
    best = 0.0
    for v in (_attaining(m, w0, p0), _attaining(m, w1, p1)):
        den = max(_dual_norm(v, w0, p0), _dual_norm(v, w1, p1) / t)
        if den > 0:
            best = max(best, float(np.dot(m, v)) / den)
    return best


def k_upper(t: float, x, w0, p0, w1, p1) -> float:
    """K(t, x) <= min(||x||_0, t ||x||_1): the two trivial splittings."""
    m = np.abs(np.asarray(x))
    return min(pnorm(m, w0, p0), t * pnorm(m, w1, p1))


def _real_constant(theta: float, q: float) -> float:
    """(q theta (1 - theta))^(-1/q); 1 for q = inf."""
    return 1.0 if q == INF else (q * theta * (1.0 - theta)) ** (-1.0 / q)


def real_norm_upper(x, w0, p0, w1, p1, theta: float, q: float) -> float:
    """Upper bound for the real (theta, q) norm.

    Integrating (t^-theta min(n0, t n1))^q dt/t in closed form gives
    n0^(1-theta) n1^theta / (q theta (1-theta))^(1/q).
    """
    m = np.abs(np.asarray(x))
    n0, n1 = pnorm(m, w0, p0), pnorm(m, w1, p1)
    return _real_constant(theta, q) * n0 ** (1.0 - theta) * n1**theta


def real_norm_lower(x, w0, p0, w1, p1, theta: float, q: float) -> float:
    """Lower bound for the real (theta, q) norm.

    K is nondecreasing and K(t)/t nonincreasing, so K(t) >= K(s) for t >= s
    and K(t) >= (t/s) K(s) for t <= s; integrating gives
    ||x|| >= s^-theta K(s) / (q theta (1-theta))^(1/q) for every s > 0.
    """
    m = np.abs(np.asarray(x))
    n0, n1 = pnorm(m, w0, p0), pnorm(m, w1, p1)
    if n0 == 0.0:
        return 0.0
    pivot = n0 / n1
    best = 0.0
    for s in pivot * np.logspace(-2.0, 2.0, 9):
        best = max(best, s**-theta * k_lower(s, m, w0, p0, w1, p1))
    return _real_constant(theta, q) * best


def calderon_space(w0, p0, w1, p1, theta: float):
    """(weights, exponent) of the Calderon space: w0^(1-theta) w1^theta and
    1/p = (1-theta)/p0 + theta/p1."""
    inv = (1.0 - theta) * (0.0 if p0 == INF else 1.0 / p0) + theta * (
        0.0 if p1 == INF else 1.0 / p1
    )
    p = INF if inv == 0.0 else 1.0 / inv
    w = np.asarray(w0, dtype=float) ** (1.0 - theta) * np.asarray(w1, dtype=float) ** theta
    return w, p


def operator_norm_exact(M, wa, wb, p: float) -> float:
    """Norm of M from l^p(wa) to l^p(wb) for p in {1, 2, inf}.

    p = 1: the largest weighted column; p = inf: the largest weighted row
    sum; p = 2: the top singular value of diag(wb) M diag(1/wa).
    """
    A = np.abs(np.asarray(M)) if p != 2 else np.asarray(M)
    scaled = np.asarray(wb, dtype=float)[:, None] * A / np.asarray(wa, dtype=float)[None, :]
    if p == 1:
        return float(np.max(np.sum(np.abs(scaled), axis=0)))
    if p == INF:
        return float(np.max(np.sum(np.abs(scaled), axis=1)))
    if p == 2:
        return float(np.linalg.svd(scaled, compute_uv=False)[0])
    raise ValueError(f"no closed form for p = {p}")


def operator_norm_bounds(M, wa, wb, p: float, rng) -> tuple:
    """(lower, upper) for the norm of M from l^p(wa) to l^p(wb), any p.

    Lower: the largest ratio ||M v|| / ||v|| over basis vectors, the all-ones
    vector and a few random vectors.  Upper: Riesz-Thorin between the exact
    p = 1 and p = inf norms, N1^(1/p) Ninf^(1-1/p).
    """
    if p in (1.0, 2.0, INF):
        v = operator_norm_exact(M, wa, wb, p)
        return v, v
    M = np.asarray(M)
    n = M.shape[1]
    cands = list(np.eye(n)) + [np.ones(n)]
    cands += list(rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n)))
    lower = 0.0
    for v in cands:
        nv = pnorm(v, wa, p)
        if nv > 0:
            lower = max(lower, pnorm(M @ v, wb, p) / nv)
    n1 = operator_norm_exact(M, wa, wb, 1.0)
    ninf = operator_norm_exact(M, wa, wb, INF)
    return lower, n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)


def below(lower: float, bound: float) -> bool:
    """lower <= bound up to round-off."""
    return lower <= bound * (1.0 + REL) + 1e-300


RELW_FLOOR = 1e-9


def relw(lower: float, upper: float) -> float:
    """Relative bracket width (upper - lower) / upper, resolved down to
    RELW_FLOOR: exact and round-off-wide answers read as the floor.  The
    floor is a tenth of the tightest tolerance any workload asks for (K gaps
    of 1e-8 in kfun), so a reported median never sits in round-off noise."""
    return RELW_FLOOR if upper == 0.0 else max(RELW_FLOOR, (upper - lower) / abs(upper))


def laurent_eval(lo: int, coeffs, z: complex) -> np.ndarray:
    """sum_n z^n c_n for coefficients c_lo, c_lo+1, ..."""
    coeffs = np.asarray(coeffs)
    powers = np.array([z ** (lo + k) for k in range(coeffs.shape[0])])
    return powers @ coeffs


def j_norm(lo: int, coeffs, q0, q1, w0, p0, w1, p1) -> float:
    """max( ||(||c_n||_B0)_n||_q0 , ||(e^n ||c_n||_B1)_n||_q1 )."""
    coeffs = np.asarray(coeffs)
    n0 = np.array([pnorm(c, w0, p0) for c in coeffs])
    n1 = np.array([pnorm(c, w1, p1) for c in coeffs])
    e = np.exp(np.arange(lo, lo + coeffs.shape[0], dtype=float))
    ones = np.ones(len(coeffs))
    return max(pnorm(n0, ones, q0), pnorm(e * n1, ones, q1))
