"""Order structure on weighted lattices: products, positive operators, and
propagation of order isomorphisms along the Calderon scale.

On weighted l^p lattices the product space X0^(1-theta) X1^theta is again a
weighted lattice with exponent 1/p = (1-theta)/p0 + theta/p1 and weight
w0^(1-theta) w1^theta, and its norm is the factorisation norm exactly.  Two
exact scalar facts drive the propagation proof, and both are checked
verbatim here:

* positivity: P(x^(1-t) y^t) <= (Px)^(1-t) (Py)^t coordinatewise for an
  entrywise-nonnegative matrix P (rowwise Hoelder), and
* the extrapolation formula: the product-space norm of f at theta is the
  supremum over unit g of || |g|^(1-a) |f|^a ||^(1/a) in the mixed space,
  attained at an explicit power-profile witness.

Combining the two with a measured cone constant C at theta0 yields the
lower bound C^(1/a) ||f||_(theta1) for ||Tf||_(theta1) with theta0 = a
theta1, which ``order_iso_sweep`` asserts per grid point.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ArgumentError
# calderon_reiteration_check lives in functors, which this module imports; re-exported
from .functors import calderon_complex_space, calderon_reiteration_check, calderon_weights
from .operators import CoupleOperator, invert, is_invertible, is_order_isomorphism, is_positive
from .report import CheckReport
from .spaces import INF, BanachCouple, WeightedSpace, as_vector
from .stability import complex_to_real_transfer

_REL_SLACK = 1e-12


def calderon_product_norm(f, couple: BanachCouple, theta: float) -> float:
    """Factorisation norm of the product space; exact on weighted lattices."""
    return calderon_complex_space(couple, theta).norm(f)


def power_inequality_check(P, x, y, theta: float) -> CheckReport:
    """P(x^(1-t) y^t) <= (Px)^(1-t) (Py)^t coordinatewise, exactly.

    A violation beyond floating slack indicates an arithmetic bug, not a
    mathematical failure: the inequality is rowwise Hoelder.
    """
    P = np.asarray(P, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(P < 0) or np.any(x < 0) or np.any(y < 0):
        raise ArgumentError("positivity check needs nonnegative data")
    if not (0.0 <= theta <= 1.0):
        raise ArgumentError("theta must lie in [0, 1]")
    lhs = P @ (x ** (1.0 - theta) * y**theta)
    rhs = (P @ x) ** (1.0 - theta) * (P @ y) ** theta
    scale = np.maximum(rhs, 1e-300)
    margin = float(np.max((lhs - rhs) / scale))
    return CheckReport(
        "positive-power-inequality",
        bool(margin <= _REL_SLACK),
        {"max_relative_excess": margin, "theta": theta},
    )


# ---------------------------------------------------------------------------
# extrapolation formula


def _mixed_space(couple: BanachCouple, theta: float, alpha: float) -> WeightedSpace:
    """E0^(1-alpha) (E_theta)^alpha as a concrete weighted space."""
    e_theta = calderon_complex_space(couple, theta)
    inner = BanachCouple(couple.space0, e_theta)
    p, w = calderon_weights(inner, alpha)
    return WeightedSpace(p, w)


def cn_witness(f, couple: BanachCouple, theta: float) -> np.ndarray:
    """Unit-norm g attaining the extrapolation supremum for f.

    The power profile aligns the Hoelder equality condition
    (w0 g)^p0 ~ (w_theta |f|)^p_theta coordinatewise; the degenerate
    exponent combinations reduce to the uniform or single-coordinate
    profiles.
    """
    f = as_vector(f, couple.dim)
    m = np.abs(f)
    E0 = couple.space0
    Et = calderon_complex_space(couple, theta)
    if not np.any(m > 0):
        g = np.ones(couple.dim) / E0.weights
        return g / E0.norm(g)
    if E0.p == INF:
        g = 1.0 / E0.weights
    elif Et.p == INF:
        i_star = int(np.argmax(Et.weights * m))
        g = np.zeros(couple.dim)
        g[i_star] = 1.0 / E0.weights[i_star]
    else:
        g = (Et.weights * m) ** (Et.p / E0.p) / E0.weights
        if not np.any(g > 0):
            g = np.ones(couple.dim) / E0.weights
    return g / E0.norm(g)


def cwikel_nilsson_check(
    couple: BanachCouple,
    theta: float,
    alpha: float,
    fs: Sequence,
    gs: Sequence,
    witness_tol: float = 1e-9,
) -> CheckReport:
    """Extrapolation identity for the product-space norm.

    For every sampled g with ||g||_{E0} <= 1 the mixed-space value
    || |g|^(1-alpha) |f|^alpha ||^(1/alpha) never exceeds ||f||_{E_theta}
    (checked exactly), and the structured witness attains it within
    ``witness_tol``.
    """
    if not (0.0 < theta < 1.0 and 0.0 < alpha < 1.0):
        raise ArgumentError("theta and alpha must lie in (0, 1)")
    E0 = couple.space0
    Et = calderon_complex_space(couple, theta)
    mixed = _mixed_space(couple, theta, alpha)

    def value(g, f):
        u = np.abs(g) ** (1.0 - alpha) * np.abs(f) ** alpha
        return mixed.norm(u) ** (1.0 / alpha)

    passed = True
    worst_upper = 0.0
    worst_witness = 0.0
    witness_detail = None
    for idx, f in enumerate(fs):
        f = as_vector(f, couple.dim)
        target = Et.norm(f)
        for g in gs:
            g = as_vector(g, couple.dim)
            ng = E0.norm(g)
            if ng == 0:
                continue
            v = value(g / ng, f)
            if target > 0:
                worst_upper = max(worst_upper, v / target)
            if v > target * (1.0 + _REL_SLACK) + 1e-300:
                passed = False
        g_star = cn_witness(f, couple, theta)
        v_star = value(g_star, f)
        dev = abs(v_star - target) / max(target, 1e-300) if target > 0 else 0.0
        worst_witness = max(worst_witness, dev)
        if dev > witness_tol:
            passed = False
            witness_detail = witness_detail or {"sample": idx, "deviation": dev}
    return CheckReport(
        "extrapolation-formula",
        passed,
        {
            "max_upper_ratio": worst_upper,
            "max_witness_deviation": worst_witness,
            "theta": theta,
            "alpha": alpha,
        },
        witness_detail,
    )


# ---------------------------------------------------------------------------
# propagation of order isomorphisms


def _cone_samples(dim: int, rng, count: int) -> list:
    samples = [np.eye(dim)[i] for i in range(dim)]
    samples.append(np.ones(dim))
    for _ in range(count):
        samples.append(rng.uniform(0.0, 1.0, dim) + 1e-3)
    return samples


def _cone_constant(T: CoupleOperator, theta0: float, samples) -> float:
    X = calderon_complex_space(T.domain, theta0)
    Y = calderon_complex_space(T.codomain, theta0)
    c = math.inf
    for f in samples:
        nf = X.norm(f)
        if nf == 0:
            continue
        c = min(c, Y.norm(T.matrix @ f) / nf)
    return c


def order_iso_sweep(
    T: CoupleOperator,
    theta0: float,
    theta_grid: Sequence[float],
    sample_count: int = 8,
    seed: int = 0,
    slack: float = 1e-9,
    require_inverse_positive: bool = False,
) -> CheckReport:
    """Propagate the cone lower bound of a positive invertible operator.

    The operator is rescaled so its endpoint norms are at most 1, the
    constant C is measured at theta0 on a deterministic cone sample
    (extreme rays, the all-ones ray, seeded random points, and the
    power-profile elements induced by each grid sample), and each grid
    theta1 asserts the bound ||Tf|| >= C^(1/alpha) ||f|| with
    theta0 = alpha theta1 (couples reversed on the branch theta1 < theta0).

    The quantitative bound needs only positivity, invertibility, and C > 0;
    entrywise positivity of the inverse (which at finite dimension confines
    the operator to weighted permutations) is reported, and enforced as a
    gate only when ``require_inverse_positive`` is set.
    """
    if not (0.0 < theta0 < 1.0):
        raise ArgumentError("theta0 must lie in (0, 1)")
    if not is_positive(T.matrix):
        return CheckReport("order-iso-propagation", False, {"note": "operator not positive"})
    if not is_invertible(T):
        return CheckReport("order-iso-propagation", False, {"note": "operator not invertible"})
    inverse_positive = is_order_isomorphism(T.matrix)
    if require_inverse_positive and not inverse_positive:
        return CheckReport(
            "order-iso-propagation",
            False,
            {"note": "gate failed: inverse is not entrywise nonnegative"},
        )
    scale = T.couple_norm().upper
    Tn = CoupleOperator(T.matrix.real / scale, T.domain, T.codomain)
    rng = np.random.default_rng(seed)
    d = T.domain.dim
    base_samples = _cone_samples(d, rng, sample_count)

    branches = []
    up = sorted(th for th in theta_grid if th > theta0)
    down = sorted(th for th in theta_grid if th < theta0)
    if up:
        branches.append((Tn, theta0, up, False))
    if down:
        T_rev = CoupleOperator(Tn.matrix, Tn.domain.reversed(), Tn.codomain.reversed())
        branches.append((T_rev, 1.0 - theta0, [1.0 - th for th in down], True))

    min_margin = math.inf
    measured_c = {}
    passed = True
    witness = None
    for Tb, th0, thetas, reflected in branches:
        probe = list(base_samples)
        g_abs = [np.abs(cn_witness(f, Tb.domain, th0)) for f in base_samples]
        for th1 in thetas:
            alpha = th0 / th1
            for f, g in zip(base_samples, g_abs):
                probe.append(g ** (1.0 - alpha) * np.abs(f) ** alpha)
        C = _cone_constant(Tb, th0, probe)
        measured_c["reflected" if reflected else "direct"] = C
        if not (C > 0):
            passed = False
            continue
        for th1 in thetas:
            alpha = th0 / th1
            X1 = calderon_complex_space(Tb.domain, th1)
            Y1 = calderon_complex_space(Tb.codomain, th1)
            bound = C ** (1.0 / alpha)
            for f in base_samples:
                nf = X1.norm(f)
                if nf == 0:
                    continue
                ratio = Y1.norm(Tb.matrix @ f) / nf
                margin = ratio / bound
                min_margin = min(min_margin, margin)
                if ratio < bound * (1.0 - slack):
                    passed = False
                    witness = witness or {
                        "theta1": th1 if not reflected else 1.0 - th1,
                        "ratio": ratio,
                        "bound": bound,
                    }
    return CheckReport(
        "order-iso-propagation",
        passed,
        {
            "theta0": theta0,
            "measured_constants": measured_c,
            "min_margin": min_margin if min_margin < math.inf else None,
            "inverse_positive": inverse_positive,
        },
        witness,
    )


def composite_propagation_check(
    T: CoupleOperator,
    theta_star: float,
    theta_grid: Sequence[float],
    qs: Sequence[float] = (1.0, 2.0, INF),
    seed: int = 0,
) -> CheckReport:
    """Order isomorphism at one product-space parameter propagates to the
    whole scale and transfers to the real (theta, q) spaces.

    Finite-dimensional couples satisfy every regularity reading, so the
    check runs unconditionally: the cone sweep across the grid, the
    real-method transfer at theta*, and positivity of both T and its
    inverse.
    """
    sweep_rep = order_iso_sweep(T, theta_star, theta_grid, seed=seed)
    transfer_rep = complex_to_real_transfer(T, theta_star, qs)
    inv_pos = is_invertible(T) and is_positive(np.where(
        np.abs(invert(T).matrix) < 1e-14 * np.max(np.abs(invert(T).matrix)),
        0.0,
        invert(T).matrix.real,
    ))
    passed = sweep_rep.passed and transfer_rep.passed and inv_pos
    return CheckReport(
        "composite-order-iso-transfer",
        passed,
        {
            "cone_sweep": sweep_rep.to_json(),
            "transfer": transfer_rep.to_json(),
            "inverse_positive": inv_pos,
        },
    )
