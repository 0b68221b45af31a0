import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpol_lab import annulus
from interpol_lab.annulus import (
    AnnulusPoint,
    LaurentElement,
    PseudolatticeCouple,
    bspace_lower_bound,
    bspace_norm,
    cancel_divide,
    delta_constant,
    evaluate,
    evaluate_derivative,
    gamma_multiplier_estimate,
    j_norm,
    kernel_distance_probe,
    multiply_by_omega_minus_z,
    project_to_zero,
    random_laurent,
    rotate,
    transport_representation,
)
from interpol_lab.errors import ArgumentError
from interpol_lab.spaces import BanachCouple, WeightedSpace

E = math.e
INF = math.inf


def couple(dim=2, p=2.0, w0=None, w1=None):
    w0 = np.ones(dim) if w0 is None else np.asarray(w0, float)
    w1 = np.ones(dim) if w1 is None else np.asarray(w1, float)
    return BanachCouple(WeightedSpace(p, w0), WeightedSpace(p, w1))


# ---------------------------------------------------------------- primitives


def test_annulus_point_validation():
    AnnulusPoint(1.5)
    AnnulusPoint(cmath.exp(0.5 + 0.4j))
    with pytest.raises(ArgumentError):
        AnnulusPoint(1.0)
    with pytest.raises(ArgumentError):
        AnnulusPoint(3.0)


def test_delta_constant_values():
    assert delta_constant(math.exp(0.5)) == pytest.approx(1.54150, abs=1e-5)
    assert delta_constant((1 + E) / 2) == pytest.approx(2.0 / (E - 1.0), rel=1e-12)
    assert delta_constant(1.1) == pytest.approx(10.0, rel=1e-12)


def test_delta_constant_is_minimal_at_midpoint():
    mid = (1 + E) / 2
    rs = np.linspace(1.001, E - 0.001, 400)
    vals = [delta_constant(r) for r in rs]
    assert min(vals) >= delta_constant(mid) - 1e-9


def test_evaluate_zero_and_constant():
    z = LaurentElement.zero(2)
    assert np.allclose(evaluate(z, 1.3), 0)
    c = LaurentElement.constant([1.0, 2.0j])
    for pt in (1.2, 2.0 + 0.3j):
        assert np.allclose(evaluate(c, pt), [1.0, 2.0j])


def test_evaluate_designed_root():
    s = 1.7 + 0.2j
    x = np.array([1.0, -2.0])
    f = LaurentElement(-1, np.stack([-s * x, x]))  # f(z) = x (1 - s/z)
    assert np.linalg.norm(evaluate(f, s)) < 1e-14
    assert np.linalg.norm(evaluate(f, 2.0) - x * (1 - s / 2.0)) < 1e-14


def test_j_norm_single_coefficient():
    B = couple(2, 2.0, [1.0, 1.0], [2.0, 2.0])
    P = PseudolatticeCouple(INF, INF)
    x = np.array([3.0, 4.0])
    b = LaurentElement(0, x[None, :])
    assert j_norm(b, P, B) == pytest.approx(max(5.0, 10.0), rel=1e-14)


def test_j_norm_e_weighting():
    B = couple(1, 2.0)
    P = PseudolatticeCouple(INF, INF)
    b = LaurentElement(0, np.array([[1.0], [1.0]]))  # b_0 = b_1 = 1
    assert j_norm(b, P, B) == pytest.approx(E, rel=1e-14)


def test_j_norm_zero():
    B = couple(2)
    P = PseudolatticeCouple(1.0, 2.0)
    assert j_norm(LaurentElement.zero(2), P, B) == 0.0


def test_stage_norm_shift_invariance():
    P = PseudolatticeCouple(2.0, 1.0)
    vals = np.array([1.0, 2.0, 0.5])
    padded = np.concatenate([[0.0, 0.0], vals])
    assert P.stage_norm(vals, 0) == pytest.approx(P.stage_norm(padded, 0), rel=1e-15)


def test_coefficient_bound_axiom():
    # single-coefficient bound: q >= 1 implies max <= stage norm
    P = PseudolatticeCouple(1.5, 3.0)
    vals = np.abs(np.random.default_rng(0).normal(size=6))
    assert np.max(vals) <= P.stage_norm(vals, 0) + 1e-12


# ------------------------------------------------------------------ rotation


def test_rotate_identity():
    b = random_laurent(np.random.default_rng(1), 2, -3, 3)
    r = rotate(b, 0.0)
    assert np.allclose(r.coeffs, b.coeffs)


@pytest.mark.parametrize("tau", [0.1, math.pi / 2, math.pi, 5.0])
def test_rotate_is_isometry(tau):
    rng = np.random.default_rng(7)
    B = couple(2, 1.0, [1.0, 3.0], [0.5, 1.0])
    P = PseudolatticeCouple(2.0, INF)
    for _ in range(10):
        b = random_laurent(rng, 2, -4, 4)
        a, r = j_norm(b, P, B), j_norm(rotate(b, tau), P, B)
        assert abs(a - r) <= 1e-14 * max(a, r)


def test_rotate_moves_evaluation_point():
    rng = np.random.default_rng(3)
    b = random_laurent(rng, 2, -3, 3)
    tau = 0.7
    z = 1.4 + 0.3j
    lhs = evaluate(rotate(b, tau), z)
    rhs = evaluate(b, z * cmath.exp(1j * tau))
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


# -------------------------------------------------------------- cancellation


def test_cancel_divide_monomial_factor():
    s = 1.6 + 0.1j
    for k in (-2, 0, 3):
        # f(z) = (z - s) z^k has coefficients (-s) at k and 1 at k+1
        f = LaurentElement(k, np.array([[-s], [1.0]]))
        g = cancel_divide(f, s)
        assert g.lo == k and g.hi == k
        assert np.allclose(g.coeffs, [[1.0]])


def test_cancel_divide_geometric_example():
    s = 1.9 + 0.0j
    f = LaurentElement(-1, np.array([[-s], [1.0]]))  # 1 - s/z
    g = cancel_divide(f, s)
    assert g.lo == -1 and g.hi == -1
    assert np.allclose(g.coeffs, [[1.0]])


def test_cancel_divide_zero():
    g = cancel_divide(LaurentElement.zero(3), 1.5)
    assert np.allclose(g.coeffs, 0)


def test_cancel_divide_requires_vanishing():
    f = LaurentElement.constant([1.0])
    with pytest.raises(ArgumentError):
        cancel_divide(f, 1.5)


@pytest.mark.parametrize("qs", [(1.0, 1.0), (2.0, 2.0), (INF, INF), (2.0, INF)])
def test_cancel_divide_identity_norm_and_derivative(qs):
    rng = np.random.default_rng(42)
    B = couple(2, 2.0, [1.0, 2.0], [0.7, 1.5])
    P = PseudolatticeCouple(*qs)
    for s in (AnnulusPoint(math.exp(0.3)), AnnulusPoint(cmath.exp(0.5 + 0.4j))):
        for _ in range(25):
            f = project_to_zero(random_laurent(rng, 2, -4, 4), s)
            g = cancel_divide(f, s)
            jf, jg = j_norm(f, P, B), j_norm(g, P, B)
            assert jg <= delta_constant(s) * jf * (1 + 1e-12)
            # division identity at sampled annulus points
            for ang in np.linspace(0, 2 * math.pi, 8, endpoint=False):
                z = 1.8 * cmath.exp(1j * ang)
                resid = (z - s.value) * evaluate(g, z) - evaluate(f, z)
                assert np.linalg.norm(resid) <= 1e-9 * jf
            # value of the quotient at s is the derivative of f
            assert np.linalg.norm(
                evaluate(g, s.value) - evaluate_derivative(f, s.value)
            ) <= 1e-9 * jf


# ---------------------------------------------------------------- value norm


def test_bspace_norm_zero():
    B = couple(2)
    P = PseudolatticeCouple(INF, INF)
    br, rep = bspace_norm([0, 0], 1.5, P, B)
    assert br.lower == br.upper == 0.0


def test_bspace_norm_single_index_window():
    B = couple(2, 2.0, [1.0, 1.0], [2.0, 0.5])
    P = PseudolatticeCouple(INF, INF)
    x = np.array([1.0, 1.0j])
    br, rep = bspace_norm(x, 1.5, P, B, support=(0, 0))
    expected = max(B.space0.norm(x), B.space1.norm(x))
    assert br.lower == pytest.approx(expected, rel=1e-12)
    assert br.upper == pytest.approx(expected, rel=1e-12)


def test_bspace_norm_monotone_in_window():
    B = couple(1, 1.0, [1.0], [1.0])
    P = PseudolatticeCouple(INF, INF)
    s = AnnulusPoint(math.exp(0.5))
    x = [1.0]
    ups = []
    for w in ((0, 0), (-1, 1), (-2, 2), (-3, 3)):
        br, _ = bspace_norm(x, s, P, B, support=w)
        ups.append(br.upper)
        assert br.lower <= br.upper + 1e-12
    assert all(a >= b - 1e-9 for a, b in zip(ups, ups[1:]))


def test_bspace_norm_brute_force_dim1():
    # window [-1, 1], scalar coefficients: two free complex parameters
    B = couple(1, 1.0, [1.0], [1.0])
    P = PseudolatticeCouple(INF, INF)
    s = 1.6 + 0.2j
    x = np.array([1.0])
    br, rep = bspace_norm(x, s, P, B, support=(-1, 1))

    def jn(bm1, b1):
        b0 = x[0] - bm1 / s - b1 * s
        mags = np.abs([bm1, b0, b1])
        stage0 = np.max(mags)
        stage1 = np.max(mags * np.exp(np.array([-1.0, 0.0, 1.0])))
        return max(stage0, stage1)

    grid = np.linspace(-0.8, 0.8, 21)
    best = math.inf
    for a, bq, c, dq in itertools.product(grid, repeat=4):
        best = min(best, jn(a + 1j * bq, c + 1j * dq))
    assert br.upper <= best + 1e-9
    assert br.lower <= br.upper


def test_bspace_norm_depends_only_on_moduli():
    # the reduction sees |s| and |x| alone: inputs with the same moduli bit
    # for bit get the same bracket bit for bit, each with its own representation
    rng = np.random.default_rng(31)
    exps = (1.0, 2.0, INF)
    for k, window in enumerate(((1, 4), (-5, -2), (-3, 3)) * 3):
        d = 1 + k % 3
        B = BanachCouple(
            WeightedSpace(exps[k % 3], np.exp(rng.uniform(-1.5, 1.5, d))),
            WeightedSpace(exps[(k // 3) % 3], np.exp(rng.uniform(-1.5, 1.5, d))),
        )
        P = PseudolatticeCouple(exps[(k + 1) % 3], exps[(k + 2) % 3])
        s = cmath.rect(math.exp(rng.uniform(0.1, 0.9)), rng.uniform(-math.pi, math.pi))
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        if k % 2:
            x[k % d] = 0.0  # a zero entry; for d = 1 the zero vector
        ends = set()
        for sv in (s, s.conjugate()):
            for xv in (x, -x, x.conj(), 1j * x):
                br, rep = bspace_norm(xv, sv, P, B, support=window)
                ends.add((br.lower, br.upper))
                scale = np.sum(np.linalg.norm(rep.coeffs, axis=1) * abs(sv) ** rep.indices)
                assert np.linalg.norm(evaluate(rep, sv) - xv) <= 1e-12 * scale
        assert len(ends) == 1, (k, ends)


@pytest.mark.parametrize("window", [(-1, 1), (-4, 4), (-8, 8), (1, 4)])
def test_magnitude_objective_gradient(window):
    # central differences along a random direction check the gradient in z
    rng = np.random.default_rng(17)
    exps = (1.0, 2.0, INF)
    window = np.arange(window[0], window[1] + 1)
    s_pow = (abs(1.6 + 0.3j) ** window.astype(float))[:, None]
    for q0, q1, p0, p1 in itertools.product(exps, repeat=4):
        for d in (1, 2, 3):
            B = BanachCouple(
                WeightedSpace(p0, np.exp(rng.uniform(-1.5, 1.5, d))),
                WeightedSpace(p1, np.exp(rng.uniform(-1.5, 1.5, d))),
            )
            P = PseudolatticeCouple(q0, q1)
            xa = np.abs(rng.normal(size=d) + 1j * rng.normal(size=d))
            for mu in (64.0, 512.0):
                objective = annulus._magnitude_objective(xa, s_pow, window, P, B, mu)
                z = rng.normal(size=len(window) * d)
                _, grad = objective(z)
                v = rng.normal(size=z.size)
                h = 1e-6
                fd = (objective(z + h * v)[0] - objective(z - h * v)[0]) / (2.0 * h)
                assert fd == pytest.approx(grad @ v, abs=1e-5 * np.linalg.norm(grad) * np.linalg.norm(v))


def test_bspace_norm_wider_window_regression():
    # a unit representation on (-4, 4) at s = e^0.5, as in the distance suite:
    # the complex anchor-eliminated descent gave an upper end on (-8, 8) 1.8
    # times the one on (-4, 4)
    rng = np.random.default_rng(0)
    B = BanachCouple(
        WeightedSpace(2.0, np.exp(rng.uniform(-1.5, 1.5, 2))),
        WeightedSpace(2.0, np.exp(rng.uniform(-1.5, 1.5, 2))),
    )
    P = PseudolatticeCouple(INF, INF)
    f = random_laurent(rng, 2, -4, 4)
    s = math.exp(0.5)
    x = evaluate(f.scaled(1.0 / j_norm(f, P, B)), s)
    narrow, _ = bspace_norm(x, s, P, B, support=(-4, 4))
    wide, _ = bspace_norm(x, s, P, B, support=(-8, 8))
    assert wide.upper <= narrow.upper * (1.0 + 1e-9)


def test_bspace_norm_never_above_trivial_representation():
    # the representation x s^{-n0} at the window index n0 nearest 0 is
    # feasible, so no upper end may exceed its j_norm; where it is the exact
    # minimiser the descent reaches it within ~4e-11 (relative)
    rng = np.random.default_rng(41)
    exps = (1.0, 2.0, INF)
    for k in range(27):
        d = 1 + k % 3
        B = BanachCouple(
            WeightedSpace(exps[k % 3], np.exp(rng.uniform(-1.5, 1.5, d))),
            WeightedSpace(exps[(k // 3) % 3], np.exp(rng.uniform(-1.5, 1.5, d))),
        )
        P = PseudolatticeCouple(exps[(k // 9) % 3], exps[(k + 1) % 3])
        s = cmath.rect(math.exp(rng.uniform(0.1, 0.9)), rng.uniform(-math.pi, math.pi))
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        for lo, hi in ((-4, 4), (1, 4), (-5, -2)):
            br, _ = bspace_norm(x, s, P, B, support=(lo, hi))
            n0 = min(range(lo, hi + 1), key=abs)
            trivial = LaurentElement(n0, (x * s ** (-float(n0)))[None, :])
            assert br.upper <= j_norm(trivial, P, B) * (1.0 + 1e-9)


def test_bspace_lower_bound_is_below_any_representation():
    rng = np.random.default_rng(5)
    B = couple(2, 2.0, [1.0, 2.0], [0.5, 1.0])
    P = PseudolatticeCouple(2.0, 2.0)
    s = AnnulusPoint(math.exp(0.6))
    for _ in range(10):
        f = random_laurent(rng, 2, -3, 3)
        x = evaluate(f, s.value)
        lb = bspace_lower_bound(x, s, P, B)
        assert lb <= j_norm(f, P, B) * (1 + 1e-9)


# ----------------------------------------------------------------- transport


def test_transport_trivial_cases():
    B = couple(2)
    P = PseudolatticeCouple(INF, INF)
    rng = np.random.default_rng(0)
    s = AnnulusPoint(math.exp(0.5))
    f = random_laurent(rng, 2, -3, 3)
    cert = transport_representation(f, f, s, s, P, B)
    assert cert.j_h == 0.0
    assert cert.bound >= cert.j_fx
    assert cert.j_r == pytest.approx(cert.j_fx, rel=1e-12)


def test_transport_certificate_random():
    B = couple(2, 2.0, [1.0, 3.0], [0.4, 1.1])
    P = PseudolatticeCouple(2.0, INF)
    rng = np.random.default_rng(9)
    s = AnnulusPoint(math.exp(0.5))
    omega = AnnulusPoint(math.exp(0.5) * cmath.exp(0.05j))
    for _ in range(10):
        f = random_laurent(rng, 2, -3, 3)
        g = random_laurent(rng, 2, -3, 3)
        # force agreement at s
        g = g - LaurentElement.constant(evaluate(g, s.value) - evaluate(f, s.value))
        cert = transport_representation(f, g, s, omega, P, B)
        assert cert.j_r <= cert.bound + 1e-9
        r_val = evaluate(cert.representation, omega.value)
        assert np.linalg.norm(r_val - evaluate(f, omega.value)) <= 1e-9


def test_kernel_distance_probe_same_point():
    B = couple(2)
    P = PseudolatticeCouple(INF, INF)
    s = AnnulusPoint(math.exp(0.5))
    rep = kernel_distance_probe(P, B, s, s, sample_count=10, seed=1)
    assert rep.passed
    assert rep.details["empirical_distance_lower_estimate"] == 0.0


def test_transport_constant_representation():
    # a single order-zero coefficient evaluates identically everywhere, so
    # transport is trivial and the certificate collapses to the base norm
    B = couple(2)
    P = PseudolatticeCouple(INF, INF)
    s = AnnulusPoint(math.exp(0.4))
    omega = AnnulusPoint(math.exp(0.6))
    f = LaurentElement.constant([1.0, -2.0j])
    cert = transport_representation(f, f, s, omega, P, B)
    assert np.allclose(
        evaluate(cert.representation, omega.value), evaluate(f, s.value)
    )
    assert cert.j_r <= cert.bound + 1e-12


def test_kernel_distance_probe_small_run():
    B = couple(2, 1.0, [1.0, 2.0], [0.5, 1.0])
    P = PseudolatticeCouple(INF, 2.0)
    s = AnnulusPoint(math.exp(0.5))
    omega = AnnulusPoint(math.exp(0.5) * cmath.exp(0.05j))
    rep = kernel_distance_probe(P, B, s, omega, sample_count=25, seed=3)
    assert rep.passed, rep.details


def test_gamma_multiplier_estimate_positive():
    B = couple(2)
    P = PseudolatticeCouple(INF, INF)
    s = AnnulusPoint(math.exp(0.4))
    est = gamma_multiplier_estimate(P, B, s, sample_count=20, seed=0)
    assert est > 0
    # the division bound implies the true lower bound is >= 1/delta(s)
    assert est >= 1.0 / delta_constant(s) - 1e-9


def test_multiply_by_omega_minus_z_inverts_division():
    rng = np.random.default_rng(11)
    s = 1.7 + 0.1j
    f = project_to_zero(random_laurent(rng, 2, -3, 3), s)
    g = cancel_divide(f, s)
    back = multiply_by_omega_minus_z(g, s).scaled(-1.0)  # (z - s) g
    diff = back - f
    assert np.max(np.abs(diff.coeffs)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    tau=st.floats(-7, 7),
    seed=st.integers(0, 10_000),
)
def test_rotation_isometry_property(tau, seed):
    B = couple(2, 2.0, [1.0, 2.0], [0.6, 1.3])
    P = PseudolatticeCouple(1.0, INF)
    b = random_laurent(np.random.default_rng(seed), 2, -3, 2)
    a, r = j_norm(b, P, B), j_norm(rotate(b, tau), P, B)
    assert abs(a - r) <= 1e-13 * max(a, r, 1.0)
