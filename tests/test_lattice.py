import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpol_lab.errors import ArgumentError
from interpol_lab.functors import calderon_complex_space
from interpol_lab.lattice import (
    calderon_product_norm,
    calderon_reiteration_check,
    cn_witness,
    composite_propagation_check,
    cwikel_nilsson_check,
    order_iso_sweep,
    power_inequality_check,
)
from interpol_lab.operators import CoupleOperator
from interpol_lab.spaces import BanachCouple, WeightedSpace

from oracles import calderon_factor_oracle

E = math.e
INF = math.inf


def couple(w0, p0, w1, p1):
    return BanachCouple(WeightedSpace(p0, w0), WeightedSpace(p1, w1))


# ------------------------------------------------------------- product norms


def test_product_norm_idempotent():
    X = WeightedSpace(2.0, [1.0, 3.0])
    C = BanachCouple(X, X)
    f = [1.0, -2.0]
    for th in (0.2, 0.7):
        assert calderon_product_norm(f, C, th) == pytest.approx(X.norm(f), rel=1e-14)


def test_product_norm_scalar_exponential():
    C = couple([1.0], 1, [E], 1)
    for th in (0.25, 0.5, 0.8):
        assert calderon_product_norm([1.0], C, th) == pytest.approx(E**th, rel=1e-14)


def test_product_norm_zero():
    C = couple([1.0, 2.0], 2, [0.5, 1.0], 2)
    assert calderon_product_norm([0.0, 0.0], C, 0.4) == 0.0


def test_product_norm_solid_and_homogeneous():
    rng = np.random.default_rng(0)
    C = couple(np.exp(rng.uniform(-1, 1, 3)), 2, np.exp(rng.uniform(-1, 1, 3)), INF)
    f = rng.normal(size=3)
    th = 0.3
    n = calderon_product_norm(f, C, th)
    assert calderon_product_norm(2.5 * f, C, th) == pytest.approx(2.5 * n, rel=1e-13)
    smaller = f * rng.uniform(0.1, 1.0, 3)
    assert calderon_product_norm(smaller, C, th) <= n * (1 + 1e-12)


def test_product_norm_matches_factorisation_oracle():
    rng = np.random.default_rng(4)
    C = couple(np.exp(rng.uniform(-1, 1, 2)), 1, np.exp(rng.uniform(-1, 1, 2)), 2)
    f = rng.normal(size=2)
    got = calderon_product_norm(f, C, 0.45)
    assert got == pytest.approx(calderon_factor_oracle(f, C, 0.45), rel=2e-3)


# --------------------------------------------------------- power inequality


def test_power_inequality_endpoints_equal():
    P = np.array([[1.0, 2.0], [0.5, 1.0]])
    x = np.array([1.0, 3.0])
    y = np.array([2.0, 0.5])
    for th in (0.0, 1.0):
        rep = power_inequality_check(P, x, y, th)
        assert rep.passed
        assert rep.details["max_relative_excess"] <= 1e-15


def test_power_inequality_equal_vectors():
    P = np.array([[1.0, 2.0], [0.5, 1.0]])
    x = np.array([1.0, 3.0])
    rep = power_inequality_check(P, x, x, 0.37)
    assert rep.passed


def test_power_inequality_random():
    rng = np.random.default_rng(1)
    P = rng.uniform(0, 2, (3, 3))
    x, y = rng.uniform(0, 3, 3), rng.uniform(0, 3, 3)
    rep = power_inequality_check(P, x, y, 0.3)
    assert rep.passed


def test_power_inequality_rejects_negative():
    with pytest.raises(ArgumentError):
        power_inequality_check(np.array([[-1.0]]), [1.0], [1.0], 0.5)


@settings(max_examples=50, deadline=None)
@given(
    theta=st.floats(0.0, 1.0),
    seed=st.integers(0, 100000),
)
def test_power_inequality_property(theta, seed):
    rng = np.random.default_rng(seed)
    d = rng.integers(1, 5)
    P = rng.uniform(0, 4, (d, d))
    x, y = rng.uniform(0, 5, d), rng.uniform(0, 5, d)
    assert power_inequality_check(P, x, y, theta).passed


# ----------------------------------------------------- extrapolation formula


def test_cn_check_dim1_scalar_identity():
    C = couple([1.0], 1, [2.0], 1)
    rep = cwikel_nilsson_check(C, 0.5, 0.5, fs=[[1.0]], gs=[[1.0]])
    assert rep.passed
    assert rep.details["max_witness_deviation"] <= 1e-12


def test_cn_check_single_coordinate_f():
    C = couple([1.0, 2.0], 2, [0.5, 1.0], 2)
    f = [0.0, 3.0]
    rep = cwikel_nilsson_check(C, 0.4, 0.5, fs=[f], gs=[[1.0, 1.0]])
    assert rep.passed


@pytest.mark.parametrize("p0,p1", [(2, 2), (1, 2), (INF, 2), (2, INF), (INF, INF)])
def test_cn_witness_attains(p0, p1):
    rng = np.random.default_rng(7)
    C = couple(np.exp(rng.uniform(-1, 1, 3)), p0, np.exp(rng.uniform(-1, 1, 3)), p1)
    fs = [rng.normal(size=3) for _ in range(4)]
    gs = [rng.uniform(0.1, 1.0, 3) for _ in range(6)]
    rep = cwikel_nilsson_check(C, 0.4, 0.5, fs=fs, gs=gs)
    assert rep.passed, rep.details
    # brute-force g maximisation never exceeds the structured witness
    f = fs[0]
    target = calderon_complex_space(C, 0.4).norm(f)
    from interpol_lab.lattice import _mixed_space

    mixed = _mixed_space(C, 0.4, 0.5)
    best = 0.0
    for _ in range(2000):
        g = rng.uniform(0, 1, 3)
        ng = C.space0.norm(g)
        if ng == 0:
            continue
        best = max(best, mixed.norm((g / ng) ** 0.5 * np.abs(f) ** 0.5) ** 2.0)
    assert best <= target * (1 + 1e-9)


# ----------------------------------------------------------------- reiteration


def test_reiteration_alpha_zero_returns_left():
    C = couple([1.0, 2.0], 1, [4.0, 1.0], INF)
    rep = calderon_reiteration_check(C, 0.3, 0.8, 0.0)
    assert rep.passed
    assert rep.details["beta"] == pytest.approx(0.3)


def test_reiteration_equal_thetas():
    C = couple([1.0, 2.0], 2, [4.0, 1.0], 2)
    for a in (0.2, 0.9):
        assert calderon_reiteration_check(C, 0.4, 0.4, a).passed


def test_reiteration_check_is_shared_with_functors():
    from interpol_lab import functors, lattice

    assert lattice.calderon_reiteration_check is functors.calderon_reiteration_check
    C = couple([1.0, 2.0], 1, [4.0, 1.0], INF)
    via_family = functors.reiteration_check(C, 0.2, 0.7, 0.4, functors.FunctorFamily("calderon"))
    assert via_family == calderon_reiteration_check(C, 0.2, 0.7, 0.4)


def test_reiteration_reference_values():
    C = couple([1.0, 2.0], 2, [4.0, 1.0], 2)
    rep = calderon_reiteration_check(C, 0.25, 0.75, 0.5)
    assert rep.passed
    assert rep.details["beta"] == pytest.approx(0.5)
    from interpol_lab.functors import calderon_weights

    _, w = calderon_weights(C, 0.5)
    assert np.allclose(w, [2.0, math.sqrt(2.0)], rtol=1e-14)


# ------------------------------------------------------ order isomorphisms


def lattice_couples(rng, d):
    dom = couple(np.exp(rng.uniform(-2, 2, d)), 2, np.exp(rng.uniform(-2, 2, d)), 2)
    cod = couple(np.exp(rng.uniform(-2, 2, d)), 2, np.exp(rng.uniform(-2, 2, d)), 2)
    return dom, cod


def test_order_iso_sweep_positive_diagonal():
    rng = np.random.default_rng(3)
    dom, cod = lattice_couples(rng, 3)
    T = CoupleOperator(np.diag([2.0, 0.7, 1.4]), dom, cod)
    rep = order_iso_sweep(T, 0.4, [0.1, 0.25, 0.4, 0.6, 0.9])
    assert rep.passed, rep.details


def test_order_iso_sweep_permutation_equal_couples():
    C = couple([1.0, 1.0], 2, [1.0, 1.0], 2)
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    T = CoupleOperator(P, C, C)
    rep = order_iso_sweep(T, 0.5, [0.2, 0.5, 0.8])
    assert rep.passed
    assert rep.details["measured_constants"]["direct"] == pytest.approx(1.0, rel=1e-12)


def test_order_iso_sweep_near_diagonal():
    dom = couple([1.0, 2.0], 2, [3.0, 0.5], 2)
    cod = couple([2.0, 1.0], 2, [1.0, 1.5], 2)
    M = np.array([[1.0, 0.1], [0.1, 1.0]])
    T = CoupleOperator(M, dom, cod)
    rep = order_iso_sweep(T, 0.3, np.arange(0.1, 1.0, 0.1))
    assert rep.passed, rep.details


def test_order_iso_sweep_strict_gate_rejects_sign_changing_inverse():
    C = couple([1.0, 1.0], 2, [1.0, 1.0], 2)
    M = np.array([[2.0, 1.0], [1.0, 2.0]])  # inverse has negative entries
    T = CoupleOperator(M, C, C)
    rep = order_iso_sweep(T, 0.5, [0.3, 0.7], require_inverse_positive=True)
    assert not rep.passed
    # the quantitative cone bound itself still propagates
    relaxed = order_iso_sweep(T, 0.5, [0.3, 0.7])
    assert relaxed.passed
    assert not relaxed.details["inverse_positive"]


def test_composite_propagation():
    rng = np.random.default_rng(9)
    dom, cod = lattice_couples(rng, 2)
    T = CoupleOperator(np.diag([1.5, 0.8]), dom, cod)
    rep = composite_propagation_check(T, 0.5, [0.2, 0.5, 0.8])
    assert rep.passed, rep.details
