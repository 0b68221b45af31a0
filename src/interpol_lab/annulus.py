"""Finitely supported Laurent representations on the annulus 1 < |z| < e.

A ``LaurentElement`` is a two-sided sequence {b_n} of complex d-vectors with
finite support, identified with the analytic function f(z) = sum z^n b_n.
With a pseudolattice pair (l^q0, l^q1) and a couple of coefficient spaces
(B0, B1), the representation norm is

    j_norm({b_n}) = max( || (||b_n||_B0)_n ||_q0 , || (e^n ||b_n||_B1)_n ||_q1 ).

The value space at a point s of the annulus carries the norm

    ||x||_s = inf { j_norm(b) : sum s^n b_n = x },

computed here as a certified bracket.  Every coefficient space is a
weighted lattice, so j_norm sees only the magnitudes m_{n,i} = |b_{n,i}|,
and aligning phases reduces the norm to a real problem in m >= 0:

    ||x||_s = min { j(m) : sum_n |s|^n m_{n,i} = |x_i| for every i },

which depends on |s| and |x| alone.  The upper end minimises a smoothed j(m)
over one support window and returns the representation

    b_{n,i} = m_{n,i} * phase(x_i) * (conj(s)/|s|)^n,

with phase(x_i) = x_i/|x_i|, and 1 where x_i = 0; it evaluates to x at s.

Division of a representation that vanishes at s by (z - s) is exact on
finite supports:

    g_n = sum_{k >= 0} s^k f_{n+k+1},

with j_norm(g) <= delta(s) j_norm(f) for
delta(s) = max( 1/(|s|-1), 1/(e-|s|) ); this constant drives every
stability radius downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import optimize

from .brackets import NormBracket
from .errors import ArgumentError
from .report import CheckReport
from .spaces import INF, BanachCouple, dual_exponent, k_functional, magnitude_pnorm

E = math.e


@dataclass(frozen=True)
class PseudolatticeCouple:
    """The pair of sequence-stage exponents (q0, q1); both in [1, inf]."""

    q0: float
    q1: float

    def __post_init__(self):
        for q in (self.q0, self.q1):
            if not (q >= 1.0):
                raise ArgumentError("stage exponents must satisfy q >= 1")

    def stage_norm(self, values: np.ndarray, j: int) -> float:
        q = self.q0 if j == 0 else self.q1
        return magnitude_pnorm(np.asarray(values, dtype=float), np.ones(len(values)), q)


@dataclass(frozen=True)
class AnnulusPoint:
    value: complex

    def __post_init__(self):
        r = abs(self.value)
        if not (1.0 < r < E):
            raise ArgumentError(f"annulus point must satisfy 1 < |s| < e, got |s| = {r}")

    @property
    def radius(self) -> float:
        return abs(self.value)


def delta_constant(s) -> float:
    """max( 1/(|s|-1), 1/(e-|s|) ): the division constant on the annulus."""
    s = s.value if isinstance(s, AnnulusPoint) else s
    r = abs(s)
    if not (1.0 < r < E):
        raise ArgumentError(f"point must lie in the annulus, got |s| = {r}")
    return max(1.0 / (r - 1.0), 1.0 / (E - r))


class LaurentElement:
    """Finitely supported two-sided sequence of complex d-vectors."""

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int, coeffs):
        arr = np.array(coeffs, dtype=complex)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise ArgumentError("coefficients must form a nonempty (support, dim) array")
        self.lo = int(lo)
        self.coeffs = arr

    @property
    def hi(self) -> int:
        return self.lo + self.coeffs.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    @classmethod
    def zero(cls, dim: int) -> "LaurentElement":
        return cls(0, np.zeros((1, dim), dtype=complex))

    @classmethod
    def constant(cls, value) -> "LaurentElement":
        v = np.atleast_1d(np.asarray(value, dtype=complex))
        return cls(0, v[None, :])

    def coefficient(self, n: int) -> np.ndarray:
        if self.lo <= n <= self.hi:
            return self.coeffs[n - self.lo]
        return np.zeros(self.dim, dtype=complex)

    def _aligned(self, other: "LaurentElement"):
        if self.dim != other.dim:
            raise ArgumentError("coefficient dimensions differ")
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        a = np.zeros((hi - lo + 1, self.dim), dtype=complex)
        b = a.copy()
        a[self.lo - lo : self.hi - lo + 1] = self.coeffs
        b[other.lo - lo : other.hi - lo + 1] = other.coeffs
        return lo, a, b

    def __add__(self, other: "LaurentElement") -> "LaurentElement":
        lo, a, b = self._aligned(other)
        return LaurentElement(lo, a + b)

    def __sub__(self, other: "LaurentElement") -> "LaurentElement":
        lo, a, b = self._aligned(other)
        return LaurentElement(lo, a - b)

    def scaled(self, c: complex) -> "LaurentElement":
        return LaurentElement(self.lo, c * self.coeffs)

    def shifted(self, k: int) -> "LaurentElement":
        """Multiplication by z^k: indices move up by k."""
        return LaurentElement(self.lo + k, self.coeffs.copy())

    def apply_matrix(self, T: np.ndarray) -> "LaurentElement":
        return LaurentElement(self.lo, self.coeffs @ T.T)

    def __repr__(self):
        return f"LaurentElement(lo={self.lo}, hi={self.hi}, dim={self.dim})"


def evaluate(b: LaurentElement, z: complex) -> np.ndarray:
    """f(z) = sum z^n b_n, exact finite sum."""
    if z == 0:
        raise ArgumentError("evaluation point must be nonzero")
    powers = np.array([z**n for n in b.indices])
    return powers @ b.coeffs


def evaluate_derivative(b: LaurentElement, z: complex) -> np.ndarray:
    if z == 0:
        raise ArgumentError("evaluation point must be nonzero")
    powers = np.array([n * z ** (n - 1) for n in b.indices])
    return powers @ b.coeffs


def rotate(b: LaurentElement, tau: float) -> LaurentElement:
    """Coefficientwise phase twist b_n -> e^{i n tau} b_n (a stage isometry)."""
    phases = np.exp(1j * tau * b.indices)
    return LaurentElement(b.lo, phases[:, None] * b.coeffs)


def j_norm(b: LaurentElement, P: PseudolatticeCouple, B: BanachCouple) -> float:
    if b.dim != B.dim:
        raise ArgumentError(f"coefficient dimension {b.dim} != couple dimension {B.dim}")
    n0 = np.array([B.space0.norm(c) for c in b.coeffs])
    n1 = np.array([B.space1.norm(c) for c in b.coeffs])
    weights = np.exp(b.indices.astype(float))
    return max(P.stage_norm(n0, 0), P.stage_norm(weights * n1, 1))


def multiply_by_omega_minus_z(h: LaurentElement, omega: complex) -> LaurentElement:
    """(omega - z) h(z) as a Laurent element."""
    lo = h.lo
    out = np.zeros((h.coeffs.shape[0] + 1, h.dim), dtype=complex)
    out[:-1] += omega * h.coeffs
    out[1:] -= h.coeffs
    return LaurentElement(lo, out)


def project_to_zero(f: LaurentElement, s) -> LaurentElement:
    """Subtract the value at s from the order-zero coefficient so f(s) = 0."""
    s = s.value if isinstance(s, AnnulusPoint) else s
    val = evaluate(f, s)
    if f.lo <= 0 <= f.hi:
        out = f.coeffs.copy()
        out[-f.lo] -= val
        return LaurentElement(f.lo, out)
    return f - LaurentElement.constant(val)


def _coeff_scale(f: LaurentElement, s: complex) -> float:
    mags = np.linalg.norm(f.coeffs, axis=1)
    powers = np.abs(s) ** f.indices.astype(float)
    return float(np.sum(mags * powers))


def cancel_divide(f: LaurentElement, s, tol: float = 1e-12) -> LaurentElement:
    """Divide a representation vanishing at s by (z - s), exactly.

    g_n = sum_{k>=0} s^k f_{n+k+1} on the support [lo, hi-1]; the identity
    (z - s) g(z) = f(z) holds up to the (required-tiny) residual of f(s).
    """
    sv = s.value if isinstance(s, AnnulusPoint) else complex(s)
    delta_constant(sv)  # validates the annulus location
    scale = _coeff_scale(f, sv)
    resid = float(np.linalg.norm(evaluate(f, sv)))
    if resid > tol * max(scale, 1e-300):
        raise ArgumentError(
            f"representation must vanish at s first: |f(s)| = {resid:.3e} "
            f"exceeds {tol:.1e} * scale"
        )
    if f.coeffs.shape[0] == 1:
        return LaurentElement.zero(f.dim)
    w = f.coeffs.shape[0] - 1
    out = np.zeros((w, f.dim), dtype=complex)
    acc = np.zeros(f.dim, dtype=complex)
    # backward recursion g_n = f_{n+1} + s g_{n+1}
    for i in range(w - 1, -1, -1):
        acc = f.coeffs[i + 1] + sv * acc
        out[i] = acc
    return LaurentElement(f.lo, out)


# ---------------------------------------------------------------------------
# value-space norm brackets


def _geometric_stage_constants(s_abs: float, P: PseudolatticeCouple):
    """Constants (c_minus, c_plus) with ||x_-||_B0 <= c_minus j and
    ||x_+||_B1 <= c_plus j for the negative/nonnegative index halves of any
    representation of norm j."""
    q0d = dual_exponent(P.q0)
    q1d = dual_exponent(P.q1)
    if q0d == INF:
        c_minus = 1.0 / s_abs
    else:
        r = s_abs ** (-q0d)
        c_minus = (r / (1.0 - r)) ** (1.0 / q0d)
    rho = s_abs / E
    if q1d == INF:
        c_plus = 1.0
    else:
        c_plus = (1.0 / (1.0 - rho**q1d)) ** (1.0 / q1d)
    return c_minus, c_plus


def bspace_lower_bound(x, s, P: PseudolatticeCouple, B: BanachCouple) -> float:
    """Certified lower bound for the value-space norm at s, window-free.

    Splitting any representation at index zero bounds
    K(t, x; B) <= (c_minus + t c_plus) j_norm, so
    j >= sup_t K(t, x)/(c_minus + t c_plus); three probe values of t are used.
    """
    sv = s.value if isinstance(s, AnnulusPoint) else complex(s)
    c_minus, c_plus = _geometric_stage_constants(abs(sv), P)
    best = 0.0
    for t in (c_minus / c_plus, 1.0, 4.0 * c_minus / c_plus):
        ev = k_functional(t, x, B, tol=1e-6)
        best = max(best, ev.value / (c_minus + t * c_plus))
    return best


def _pnorm_and_grad(v: np.ndarray, p: float):
    """(value, d value / d v) of the l^p norm of a nonnegative vector."""
    top = float(np.maximum.reduce(v))
    if top <= 0.0:
        return 0.0, np.zeros_like(v)
    u = v / top
    if p == 1.0:
        return top * float(np.add.reduce(u)), np.ones_like(v)
    val = top * float(np.add.reduce(u**p)) ** (1.0 / p)
    grad = (v / val) ** (p - 1.0)
    return val, grad


def _rowwise_pnorm_and_grad(M: np.ndarray, p: float):
    """Row-by-row l^p norms of a nonnegative matrix, with gradients."""
    if p == 1.0:
        return np.add.reduce(M, axis=1), np.ones_like(M)
    top = np.maximum.reduce(M, axis=1, keepdims=True)
    safe = np.maximum(top, 1e-300)
    u = M / safe
    val = safe[:, 0] * np.add.reduce(u**p, axis=1) ** (1.0 / p)
    vsafe = np.maximum(val, 1e-300)[:, None]
    grad = (M / vsafe) ** (p - 1.0)
    zero = top[:, 0] <= 0.0
    if np.logical_or.reduce(zero):
        val[zero] = 0.0
        grad[zero] = 0.0
    return val, grad


def _magnitudes(z, xa, s_pow):
    """(m, U, D) for the (W * d) iterate z: U = exp(z) per column, shifted by
    the column max so that D never underflows, D_i = sum_n |s|^n U_{n,i} and
    m = |x| U / D, so sum_n |s|^n m_{n,i} = |x_i| holds at every iterate."""
    Z = z.reshape(s_pow.shape[0], xa.size)
    U = np.exp(Z - np.maximum.reduce(Z, axis=0))
    D = np.add.reduce(s_pow * U, axis=0)
    return xa * U / D, U, D


def _magnitude_objective(xa, s_pow, window, P: PseudolatticeCouple, B: BanachCouple, mu):
    """Smoothed j_norm of the magnitudes ``_magnitudes(z)`` with its gradient
    in z; infinite exponents are replaced by mu."""
    w0 = B.space0.weights[None, :]
    w1 = B.space1.weights[None, :]
    ewts = np.exp(window.astype(float))
    p0, p1, q0, q1 = (mu if e == INF else e for e in (B.space0.p, B.space1.p, P.q0, P.q1))

    def objective(z):
        m, U, D = _magnitudes(z, xa, s_pow)
        c0, g0 = _rowwise_pnorm_and_grad(w0 * m, p0)
        c1, g1 = _rowwise_pnorm_and_grad(w1 * m, p1)
        S0, dS0 = _pnorm_and_grad(c0, q0)
        S1, dS1 = _pnorm_and_grad(ewts * c1, q1)
        F, dF = _pnorm_and_grad(np.array([S0, S1]), mu)
        # G = dF/dm, then dF/dU = (|x|/D) (G - |s|^n sum_n G U / D) and dU/dz = U
        G = dF[0] * dS0[:, None] * g0 * w0 + dF[1] * (dS1 * ewts)[:, None] * g1 * w1
        dU = (xa / D) * (G - s_pow * (np.add.reduce(G * U, axis=0) / D))
        return F, (dU * U).ravel()

    return objective


def bspace_norm(
    x,
    s,
    P: PseudolatticeCouple,
    B: BanachCouple,
    support: Tuple[int, int] = (-4, 4),
) -> Tuple[NormBracket, LaurentElement]:
    """Certified bracket for ||x||_s with the minimising representation.

    Upper end: j(m) for the best magnitudes m found in the support window by
    smoothed descent, which is j_norm of the returned representation up to
    round-off.  The feasible set grows with the window, so exact minimisers
    give upper ends that never grow as the window widens; a descent answer
    is not guaranteed to.  Lower end: the geometric splitting bound, which
    needs no window.  A one-index window forces the representation, and the
    bracket is its j_norm at both ends.
    """
    sv = s.value if isinstance(s, AnnulusPoint) else complex(s)
    delta_constant(sv)
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    lo, hi = support
    if hi < lo:
        raise ArgumentError("support window is empty")
    if hi == lo:
        b = LaurentElement(lo, (x * sv ** (-float(lo)))[None, :])
        val = j_norm(b, P, B)
        return NormBracket(val, val), b

    window = np.arange(lo, hi + 1)
    xa, s_abs = np.abs(x), abs(sv)
    s_pow = (s_abs ** window.astype(float))[:, None]
    # start from equal shares: |s|^n m_{n,i} = |x_i| / W
    z = np.repeat(-np.log(s_pow), xa.size, axis=1).ravel()
    for mu in (64.0, 512.0):
        res = optimize.minimize(
            _magnitude_objective(xa, s_pow, window, P, B, mu),
            z,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 120, "ftol": 1e-13, "gtol": 1e-11},
        )
        z = res.x

    m = _magnitudes(z, xa, s_pow)[0]
    upper = j_norm(LaurentElement(lo, m), P, B)
    phase_x = np.divide(x, xa, out=np.ones_like(x), where=xa > 0.0)
    phase_s = (sv.conjugate() / s_abs) ** window
    rep = LaurentElement(lo, m * phase_s[:, None] * phase_x)
    lower = min(bspace_lower_bound(x, sv, P, B), upper)
    return NormBracket(lower, upper), rep


# ---------------------------------------------------------------------------
# transport and distance probes


@dataclass
class TransportCertificate:
    representation: LaurentElement
    divided: LaurentElement
    j_f: float
    j_fx: float
    j_h: float
    j_r: float
    bound: float

    @property
    def value_upper(self) -> float:
        return self.j_r


def transport_representation(
    f: LaurentElement,
    f_x: LaurentElement,
    s,
    omega,
    P: PseudolatticeCouple,
    B: BanachCouple,
    tol: float = 1e-9,
) -> TransportCertificate:
    """Carry a representation from s to omega through division by (z - s).

    With h = (f - f_x)/(z - s), the element r = f_x + (omega - s) h
    represents f(omega), and
      j_norm(r) <= j_norm(f_x) + delta(s)|omega - s| (j_norm(f) + j_norm(f_x))
    is the certified bound returned.
    """
    sv = s.value if isinstance(s, AnnulusPoint) else complex(s)
    ov = omega.value if isinstance(omega, AnnulusPoint) else complex(omega)
    diff = f - f_x
    scale = max(_coeff_scale(diff, sv), 1e-300)
    resid = float(np.linalg.norm(evaluate(diff, sv)))
    if resid > tol * scale:
        raise ArgumentError(
            f"representations disagree at s: residual {resid:.3e} > {tol:.1e} * scale"
        )
    diff = project_to_zero(diff, sv)
    h = cancel_divide(diff, sv)
    r = f_x + h.scaled(ov - sv).shifted(0)
    jf, jfx = j_norm(f, P, B), j_norm(f_x, P, B)
    jh, jr = j_norm(h, P, B), j_norm(r, P, B)
    bound = jfx + delta_constant(sv) * abs(ov - sv) * (jf + jfx)
    return TransportCertificate(r, h, jf, jfx, jh, jr, bound)


def random_laurent(rng, dim: int, lo: int, hi: int) -> LaurentElement:
    c = rng.normal(size=(hi - lo + 1, dim)) + 1j * rng.normal(size=(hi - lo + 1, dim))
    return LaurentElement(lo, c)


def kernel_distance_probe(
    P: PseudolatticeCouple,
    B: BanachCouple,
    s,
    omega,
    sample_count: int = 200,
    seed: int = 0,
    support: Tuple[int, int] = (-4, 4),
    slack: float = 1e-8,
) -> CheckReport:
    """Constructive Lipschitz probe for value-space norms at nearby points.

    For unit-norm random representations f, transports f(s)'s near-optimal
    representation to omega and asserts the certified inequality

      ||f(omega)||_omega^{upper}  <=  ||f(s)||_s^{upper}
            + delta(s) |omega - s| (j_norm(f) + j_norm(f_x)) + slack.

    The one-sided distance estimate max(lower_omega - upper_s,
    lower_s - upper_omega, 0) is reported; its sample supremum is a lower
    estimate of the true distance and is checked against delta(s)|omega - s|.
    """
    sv = s.value if isinstance(s, AnnulusPoint) else complex(s)
    ov = omega.value if isinstance(omega, AnnulusPoint) else complex(omega)
    delta_constant(sv)
    delta_constant(ov)
    rng = np.random.default_rng(seed)
    d = B.dim
    lo, hi = support
    dsep = abs(ov - sv)
    delta = delta_constant(sv)
    max_violation = 0.0
    empirical = 0.0
    division_margin = 0.0
    witness = None
    for k in range(sample_count):
        f = random_laurent(rng, d, lo, hi)
        jf = j_norm(f, P, B)
        f = f.scaled(1.0 / jf)
        x = evaluate(f, sv)
        br_s, f_x = bspace_norm(x, sv, P, B, support=support)
        cert = transport_representation(f, f_x, sv, ov, P, B)
        # division bound, checked on the computed quantities
        dmarg = cert.j_h - delta * j_norm(f - f_x, P, B) * (1.0 + 1e-12)
        division_margin = max(division_margin, dmarg)
        lhs = cert.j_r
        rhs = cert.bound + slack
        if lhs > rhs:
            max_violation = max(max_violation, lhs - rhs)
            witness = witness or {"sample": k, "excess": lhs - rhs}
        upper_s = min(1.0, cert.j_fx)
        upper_o = min(1.0, cert.j_r)
        # br_s.lower is already min(bspace_lower_bound(x, ...), cert.j_fx)
        lower_s = min(br_s.lower, upper_s)
        lower_o = min(bspace_lower_bound(evaluate(f, ov), ov, P, B), upper_o)
        empirical = max(empirical, lower_o - upper_s, lower_s - upper_o, 0.0)
    passed = (
        max_violation == 0.0
        and division_margin <= slack
        and empirical <= delta * dsep * (1.0 + 1e-9) + slack
    )
    return CheckReport(
        name="kernel-distance-probe",
        passed=passed,
        details={
            "samples": sample_count,
            "delta_times_sep": delta * dsep,
            "empirical_distance_lower_estimate": empirical,
            "max_certificate_violation": max_violation,
            "max_division_margin": division_margin,
        },
        witness=witness,
    )


def gamma_multiplier_estimate(
    P: PseudolatticeCouple,
    B: BanachCouple,
    s,
    sample_count: int = 50,
    seed: int = 0,
    support: Tuple[int, int] = (-4, 4),
) -> float:
    """Sampled upper estimate of the lower bound of h -> (s - z) h.

    No closed form is available; the returned value only upper-bounds the
    true infimum and is consumed as a diagnostic.
    """
    sv = s.value if isinstance(s, AnnulusPoint) else complex(s)
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(sample_count):
        h = random_laurent(rng, B.dim, *support)
        num = j_norm(multiply_by_omega_minus_z(h, sv), P, B)
        den = j_norm(h, P, B)
        if den > 0:
            best = min(best, num / den)
    return best
