"""Quantitative stability of interpolated inverses.

Closed-form neighbourhood radii around an invertible base point:

    annulus form:  r  = [ 2 delta(s) (1 + ||T|| ||T_s^-1||) ]^-1,
    theta form:    eps = [ 2 e eta(t*) (1 + ||T|| ||T_t*^-1||) ]^-1,

with delta(s) = max(1/(|s|-1), 1/(e-|s|)) and eta(t*) = delta(e^t*).  Inside
the radius the inverse norms obey the factor-2 comparison; the sweep engine
evaluates both claims on a theta grid using certified upper brackets for
the interpolated inverse norms (exact lattice norms for the Calderon
family, endpoint interpolation bounds for the real family).

At finite dimension invertibility itself cannot depend on theta, so the
verdicts carry the quantitative content: the radius formula evaluation,
the factor-2 comparison, and the geometric decay of the analytic-equation
series solved coefficientwise through division on the annulus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .annulus import (
    AnnulusPoint,
    LaurentElement,
    PseudolatticeCouple,
    cancel_divide,
    delta_constant,
    evaluate,
    gamma_multiplier_estimate,
    j_norm,
    multiply_by_omega_minus_z,
    project_to_zero,
)
from .brackets import NormBracket
from .errors import ArgumentError, SingularOperatorError
from .functors import (
    FunctorFamily,
    calderon_complex_space,
    intersection_norm,
    real_norm,
    sum_norm,
)
from .operators import (
    CoupleOperator,
    interpolated_operator_norms,
    invert,
    is_invertible,
    reciprocal_or_zero,
)
from .report import CheckReport
from .spaces import INF

E = math.e


def eta_constant(theta_star: float) -> float:
    """max( 1/(e^t - 1), 1/(e - e^t) ): the theta-form division constant."""
    if not (0.0 < theta_star < 1.0):
        raise ArgumentError("theta* must lie in (0, 1)")
    x = math.exp(theta_star)
    # below ~1.1e-16 exp rounds to 1.0; expm1 keeps the divisor nonzero
    return max(1.0 / ((x - 1.0) or math.expm1(theta_star)), 1.0 / (E - x))


@dataclass(frozen=True)
class StabilityBound:
    kind: str                      # "annulus" or "theta"
    base_point: complex
    delta_or_eta: float
    op_norm: float                 # upper bracket of the couple norm
    inv_norm: float                # upper bracket of the base-point inverse norm
    radius: float


def _inverse_upper(T: CoupleOperator, family: FunctorFamily, theta: float) -> float:
    return float(interpolated_operator_norms(invert(T), family, [theta]).upper[0])


def stability_radius(
    T: CoupleOperator,
    family: FunctorFamily,
    base: Union[float, complex, AnnulusPoint],
) -> StabilityBound:
    """Closed-form invertibility radius around a base point.

    Passing an annulus point uses the annulus form; a real number in (0, 1)
    is treated as the theta form (which carries the extra factor e from
    |e^a - e^b| <= e |a - b|).  Upper brackets feed the formula, which only
    shrinks the radius and keeps the guarantee valid.
    """
    if not is_invertible(T):
        raise SingularOperatorError("stability radius requires an invertible base point")
    if isinstance(base, AnnulusPoint) or isinstance(base, complex):
        s = base if isinstance(base, AnnulusPoint) else AnnulusPoint(base)
        dconst = delta_constant(s)
        theta = math.log(s.radius)
        opn = T.couple_norm().upper
        invn = _inverse_upper(T, family, theta)
        radius = 1.0 / (2.0 * dconst * (1.0 + opn * invn))
        return StabilityBound("annulus", s.value, dconst, opn, invn, radius)
    theta_star = float(base)
    econst = eta_constant(theta_star)
    opn = T.couple_norm().upper
    invn = _inverse_upper(T, family, theta_star)
    radius = 1.0 / (2.0 * E * econst * (1.0 + opn * invn))
    return StabilityBound("theta", theta_star, econst, opn, invn, radius)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class ThetaRecord:
    theta: float
    invertible: bool
    op_norm: NormBracket
    inv_norm: Optional[NormBracket]


@dataclass
class SweepReport:
    family: str
    grid: np.ndarray
    records: List[ThetaRecord]
    intervals: List[Tuple[float, float]]
    verdicts: List[CheckReport]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def record_arrays(self):
        inv_up = np.array(
            [r.inv_norm.upper if r.inv_norm else math.inf for r in self.records]
        )
        inv_lo = np.array(
            [r.inv_norm.lower if r.inv_norm else math.inf for r in self.records]
        )
        flags = np.array([r.invertible for r in self.records])
        return inv_lo, inv_up, flags


def _detect_intervals(grid: np.ndarray, flags: np.ndarray) -> List[Tuple[float, float]]:
    """Maximal runs of invertible grid points as open intervals: the left
    end is the previous failing point (or 0), the right end the next (or 1)."""
    ends = np.concatenate([[0.0], grid, [1.0]])
    runs = np.flatnonzero(np.diff(np.concatenate([[0], np.asarray(flags, dtype=int), [0]])))
    return [(float(ends[i]), float(ends[j + 1])) for i, j in zip(runs[::2], runs[1::2])]


def _window_scan(grid, eps, inv_up, flags):
    """Per base point i, over the window |theta_j - theta_i| < eps_i: the
    largest inv_up[j] / inv_up[i] and whether some theta_j is not invertible.
    Rows go in blocks, so memory stays linear in the grid length."""
    n = len(grid)
    worst, radius_bad = np.empty(n), np.empty(n, dtype=bool)
    block = max(1, (1 << 20) // n)
    for lo in range(0, n, block):
        rows = slice(lo, lo + block)
        window = np.abs(grid[None, :] - grid[rows, None]) < eps[rows, None]
        ratios = inv_up[None, :] / inv_up[rows, None]
        worst[rows] = np.max(np.where(window, ratios, -INF), axis=1)
        radius_bad[rows] = np.any(window & ~flags, axis=1)
    return worst, radius_bad


def sweep(
    T: CoupleOperator,
    family: FunctorFamily,
    theta_grid: Sequence[float],
    slack: float = 1e-6,
) -> SweepReport:
    """Invertibility sweep with the radius and factor-2 verdicts.

    Per grid theta the report carries the operator and inverse norm
    brackets.  For every base point theta* the neighbourhood radius
    eps(theta*) is evaluated from upper brackets, and it is asserted that
    every grid point within eps is invertible (RADIUS) and satisfies
    inv_upper(theta) <= 2 inv_upper(theta*) (1 + slack)   (FACTOR2).
    """
    grid = np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ArgumentError("theta grid must be a nonempty 1-d array")
    if np.any(grid <= 0.0) or np.any(grid >= 1.0) or np.any(np.diff(grid) <= 0):
        raise ArgumentError("theta grid must be strictly increasing inside (0, 1)")

    invertible = is_invertible(T)
    flags = np.full(grid.shape, invertible)
    fwd = interpolated_operator_norms(T, family, grid)
    fwd_lo, fwd_up = fwd.lower, fwd.upper
    if invertible:
        bwd = interpolated_operator_norms(invert(T), family, grid)
        inv_up = bwd.upper
        # a bounded forward norm forces the inverse norm above 1/||T||, and back
        inv_lo = np.minimum(np.maximum(bwd.lower, reciprocal_or_zero(fwd_up)), inv_up)
        fwd_lo = np.minimum(np.maximum(fwd_lo, reciprocal_or_zero(inv_up)), fwd_up)
        inv_brackets = [NormBracket(lo, up) for lo, up in zip(inv_lo.tolist(), inv_up.tolist())]
    else:
        inv_brackets = [None] * grid.size
    records = [
        ThetaRecord(th, invertible, NormBracket(lo, up), inv)
        for th, lo, up, inv in zip(grid.tolist(), fwd_lo.tolist(), fwd_up.tolist(), inv_brackets)
    ]

    verdicts = [CheckReport("INVERTIBLE", False, {"note": "operator fails the gate"})]
    if invertible:
        opn = T.couple_norm().upper
        etas = np.array([eta_constant(float(th)) for th in grid])
        eps = 1.0 / (2.0 * E * etas * (1.0 + opn * inv_up))
        bound = 2.0 * (1.0 + slack)
        worst, radius_bad = _window_scan(grid, eps, inv_up, flags)
        factor2_bad = worst > bound
        factor2_ok = not factor2_bad.any()
        radius_ok = not radius_bad.any()
        witness = None
        if not (factor2_ok and radius_ok):
            i = int(np.argmax(factor2_bad | radius_bad))
            witness = {"theta_star": float(grid[i])}
            witness.update({"ratio": float(worst[i])} if factor2_bad[i] else {"check": "radius"})
        verdicts = [
            CheckReport(
                "FACTOR2",
                factor2_ok,
                {"worst_ratio": max(0.0, float(np.max(worst))), "bound": bound},
                None if factor2_ok else witness,
            ),
            CheckReport(
                "RADIUS",
                radius_ok,
                {"min_eps": float(np.min(eps)), "max_eps": float(np.max(eps))},
                None if radius_ok else witness,
            ),
        ]
    return SweepReport(family.label(), grid, records, _detect_intervals(grid, flags), verdicts)


# ---------------------------------------------------------------------------
# compatibility of inverses


def check_inverse_compatibility(
    T: CoupleOperator,
    theta0: float,
    theta1: float,
    family: FunctorFamily,
    sample_count: int = 5,
    seed: int = 0,
    slack: float = 1e-8,
) -> CheckReport:
    """Inverses taken at two parameters agree and are jointly bounded.

    At finite dimension both restrictions invert through the single matrix
    inverse, so agreement on sampled vectors is asserted as an identity (two
    solve routes, relative slack for conditioning).  The intersection-norm
    bound ||T^-1 y||_{meet} <= max_j ||T^-1||_j ||y||_{meet} and, for the
    Calderon family, finiteness of the joint sum norm, realise the bounded
    compatibility statement.
    """
    for v in (theta0, theta1):
        if not (0.0 < v < 1.0):
            raise ArgumentError("theta parameters must lie in (0, 1)")
    if not is_invertible(T):
        raise SingularOperatorError("compatibility check needs an invertible operator")
    Tinv = invert(T)
    rng = np.random.default_rng(seed)
    d = T.codomain.dim
    max_dev = 0.0
    max_meet_ratio = 0.0
    sum_norm_bound = 0.0
    c_max = float(np.max(interpolated_operator_norms(Tinv, family, [theta0, theta1]).upper))
    calderon = family.kind == "calderon"
    if calderon:
        X0, X1, Y0, Y1 = (
            calderon_complex_space(C, th) for C in (T.domain, T.codomain) for th in (theta0, theta1)
        )
    passed = True
    for _ in range(sample_count):
        y = rng.normal(size=d) + 1j * rng.normal(size=d)
        x_solve = np.linalg.solve(T.matrix, y)
        x_mult = Tinv.matrix @ y
        dev = np.linalg.norm(x_solve - x_mult) / max(np.linalg.norm(x_solve), 1e-300)
        max_dev = max(max_dev, dev)
        if calderon:
            lhs = intersection_norm(x_mult, X0, X1)
            rhs = c_max * intersection_norm(y, Y0, Y1)
            sb = sum_norm(x_mult, X0, X1).upper
            passed = passed and bool(np.isfinite(sb))
            sum_norm_bound = max(sum_norm_bound, sb)
        else:
            ths = (theta0, theta1)
            lhs = max(real_norm(x_mult, T.domain, th, family.q, rtol=1e-4).lower for th in ths)
            rhs = c_max * max(real_norm(y, T.codomain, th, family.q, rtol=1e-4).upper for th in ths)
        max_meet_ratio = max(max_meet_ratio, lhs / rhs if rhs > 0 else 0.0)
        passed = passed and not (dev > slack or lhs > rhs * (1.0 + slack))
    return CheckReport(
        "inverse-compatibility",
        passed,
        {
            "max_identity_deviation": max_dev,
            "max_intersection_ratio": max_meet_ratio,
            "max_sum_norm": sum_norm_bound,
            "inverse_norm_bound": c_max,
        },
    )


def complex_to_real_transfer(
    T: CoupleOperator,
    theta_star: float,
    qs: Sequence[float] = (1.0, 2.0, INF),
) -> CheckReport:
    """Invertibility at the Calderon parameter transfers to every real
    (theta*, q) pair; the measured norm-chain ratios are reported."""
    if not (0.0 < theta_star < 1.0):
        raise ArgumentError("theta* must lie in (0, 1)")
    if not is_invertible(T):
        return CheckReport(
            "complex-to-real-transfer", False, {"note": "base operator not invertible"}
        )
    cald = _inverse_upper(T, FunctorFamily("calderon"), theta_star)
    ratios = {}
    passed = True
    for q in qs:
        real = _inverse_upper(T, FunctorFamily("real", q), theta_star)
        passed = passed and np.isfinite(real)
        key = "inf" if q == INF else f"{q:g}"
        ratios[key] = real / cald if cald > 0 else math.inf
    return CheckReport(
        "complex-to-real-transfer",
        passed,
        {"theta_star": theta_star, "inverse_norm_ratios": ratios},
    )


# ---------------------------------------------------------------------------
# the analytic equation


@dataclass(frozen=True)
class AnalyticSolverConfig:
    """Constants and budget for the series construction.

    ``c1`` must exceed the base-point inverse norm and ``c`` the quantity
    (1 + c1 ||T||) / gamma(V_s); left unset they default to
    1.01 ||T^-1||_theta and 4 (1 + c1 ||T||) delta(s), the latter via the
    division-based bound gamma(V_s) >= 1/delta(s) with a safety factor.
    """

    c1: Optional[float] = None
    c: Optional[float] = None
    max_terms: int = 40
    targets: Tuple[complex, ...] = ()
    pseudolattice: PseudolatticeCouple = field(
        default_factory=lambda: PseudolatticeCouple(INF, INF)
    )

    def __post_init__(self):
        if self.max_terms < 1:
            raise ArgumentError("max_terms must be positive")


@dataclass
class AnalyticTargetReport:
    omega: complex
    converged: bool
    residuals: List[float]
    gtilde: List[np.ndarray]

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]

    @property
    def final_gtilde(self) -> np.ndarray:
        return self.gtilde[-1]


@dataclass
class AnalyticReport:
    s: complex
    g_norms: List[float]
    h_norms: List[float]
    rho_measured: float
    theoretical_radius: float
    c1: float
    c: float
    targets: List[AnalyticTargetReport]
    terms: int
    gamma_estimate: float = math.inf  # sampled upper estimate, diagnostic only


def solve_analytic_equation(
    T: CoupleOperator,
    k: LaurentElement,
    s: Union[complex, AnnulusPoint],
    cfg: Optional[AnalyticSolverConfig] = None,
) -> AnalyticReport:
    """Power-series solution of  T g(w)(z) + (w - z) h(w)(z) = k(z).

    Coefficientwise construction: g_0 carries T^-1 k(s); each residual
    vanishes at s by design and is divided by (z - s) exactly, yielding the
    recursion for (g_n, h_n).  For the partial sums the residual telescopes
    to (w - s)^{m+1} h_m, which the report exposes both as the exact
    recomputed element norm and through the measured growth rate of
    ||h_n||; convergence at a target w needs rho |w - s| < 1.

    For constant k = y the residual vanishes at the first step and the
    evaluated solution g(w) equals T^-1 y for every target, realising the
    w-independence of the inverse.
    """
    cfg = cfg or AnalyticSolverConfig()
    sv = s.value if isinstance(s, AnnulusPoint) else complex(s)
    sp = AnnulusPoint(sv)
    if not is_invertible(T):
        raise SingularOperatorError("the analytic equation needs an invertible T")
    if k.dim != T.codomain.dim:
        raise ArgumentError("right-hand side dimension does not match the codomain")
    P = cfg.pseudolattice
    Minv = invert(T).matrix
    M = T.matrix

    theta = math.log(sp.radius)
    inv_est = _inverse_upper(T, FunctorFamily("calderon"), theta)
    op_est = T.couple_norm().upper
    c1 = cfg.c1 if cfg.c1 is not None else 1.01 * max(inv_est, 1e-300)
    if c1 <= inv_est * (1.0 - 1e-12):
        raise ArgumentError("c1 must exceed the base-point inverse norm")
    dconst = delta_constant(sp)
    c_floor = (1.0 + c1 * op_est) * dconst
    c = cfg.c if cfg.c is not None else 4.0 * c_floor
    if c <= c_floor * (1.0 - 1e-12):
        raise ArgumentError("c must exceed (1 + c1 ||T||) / gamma(V_s)")

    g_values: List[np.ndarray] = []
    h_list: List[LaurentElement] = []
    g_norms: List[float] = []
    h_norms: List[float] = []

    g0 = Minv @ evaluate(k, sv)
    g_values.append(g0)
    r0 = k - LaurentElement.constant(M @ g0)
    r0 = project_to_zero(r0, sv)
    h0 = cancel_divide(r0, sv).scaled(-1.0)
    h_list.append(h0)
    g_norms.append(j_norm(LaurentElement.constant(g0), P, T.domain))
    h_norms.append(j_norm(h0, P, T.codomain))

    for _ in range(1, cfg.max_terms):
        h_prev = h_list[-1]
        gv = -(Minv @ evaluate(h_prev, sv))
        q = h_prev.scaled(-1.0) - LaurentElement.constant(M @ gv)
        q = project_to_zero(q, sv)
        hn = cancel_divide(q, sv).scaled(-1.0)
        g_values.append(gv)
        h_list.append(hn)
        g_norms.append(j_norm(LaurentElement.constant(gv), P, T.domain))
        h_norms.append(j_norm(hn, P, T.codomain))

    tail = [r for r in h_norms[len(h_norms) // 2 :] if r > 0]
    rho = 0.0
    for a, b in zip(tail, tail[1:]):
        rho = max(rho, b / a)

    targets = []
    omegas = cfg.targets or (sv * cmath.exp(0.02),)
    for ov in omegas:
        AnnulusPoint(ov)
        residuals = []
        gtildes = []
        G = np.zeros(T.domain.dim, dtype=complex)
        H: Optional[LaurentElement] = None
        for m in range(len(h_list)):
            w = (ov - sv) ** m
            G = G + g_values[m] * w
            Hm = h_list[m].scaled(w)
            H = Hm if H is None else H + Hm
            resid_elem = (
                LaurentElement.constant(M @ G)
                + multiply_by_omega_minus_z(H, ov)
                - k
            )
            residuals.append(j_norm(resid_elem, P, T.codomain))
            gtildes.append(G.copy())
        converged = rho * abs(ov - sv) < 1.0
        targets.append(AnalyticTargetReport(ov, converged, residuals, gtildes))

    gamma_est = gamma_multiplier_estimate(P, T.codomain, sp, sample_count=20)
    return AnalyticReport(
        s=sv,
        g_norms=g_norms,
        h_norms=h_norms,
        rho_measured=rho,
        theoretical_radius=1.0 / c,
        c1=c1,
        c=c,
        targets=targets,
        terms=cfg.max_terms,
        gamma_estimate=gamma_est,
    )
