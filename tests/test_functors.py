import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpol_lab import functors
from interpol_lab.errors import ArgumentError, PrecisionError
from interpol_lab.functors import (
    FunctorFamily,
    FunctorSpec,
    QuadratureConfig,
    calderon_complex_space,
    delta_condition_check,
    gagliardo_norm,
    intersection_norm,
    real_norm,
    reiteration_check,
    sum_norm,
    trivial_couple_constant,
    windowed_real_norm,
)
from interpol_lab.spaces import BanachCouple, WeightedSpace

from oracles import calderon_factor_oracle, quad_real_norm_oracle

INF = math.inf


def couple(w0, p0, w1, p1):
    return BanachCouple(WeightedSpace(p0, w0), WeightedSpace(p1, w1))


def equal_couple(dim=2, p=1.0):
    X = WeightedSpace(p, np.ones(dim))
    return BanachCouple(X, X)


# ----------------------------------------------------------------- real norm


@pytest.mark.parametrize("theta", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_real_norm_trivial_couple_closed_form(theta, q):
    C = equal_couple(2, p=1.0)
    x = [1.0, 0.0]
    b = real_norm(x, C, theta, q, rtol=1e-6)
    expected = trivial_couple_constant(theta, q)
    assert b.contains(expected, slack=1e-12)
    assert b.relative_width < 1e-6
    # constant cross-checked by an independent dense quadrature
    assert expected == pytest.approx(quad_real_norm_oracle(theta, q), rel=1e-5)


def test_real_norm_half_one_is_four():
    C = equal_couple(2, p=1.0)
    b = real_norm([1.0, 0.0], C, 0.5, 1.0, rtol=1e-7)
    assert b.contains(4.0)


def test_real_norm_half_two_is_sqrt2():
    C = equal_couple(1, p=2.0)
    b = real_norm([1.0], C, 0.5, 2.0, rtol=1e-7)
    assert b.contains(math.sqrt(2.0))


def test_real_norm_sup_trivial_couple():
    C = equal_couple(2, p=INF)
    b = real_norm([1.0, 0.5], C, 0.3, INF)
    assert b.contains(1.0, slack=1e-12)  # sup_t t^-theta min(1,t) = 1 at t = 1


def test_real_norm_zero_vector():
    C = equal_couple(3)
    b = real_norm([0, 0, 0], C, 0.5, 1.0)
    assert b.lower == b.upper == 0.0


def test_real_norm_bracket_shrinks_under_refinement():
    C = couple([1.0, 3.0], 2, [2.0, 0.3], 2)
    x = [1.0, 1.0 - 0.7j]
    widths = []
    for ppd in (8, 16, 32, 64):
        cfg = QuadratureConfig(points_per_decade=ppd)
        b = real_norm(x, C, 0.4, 2.0, cfg)
        widths.append(b.width)
        assert b.lower <= b.upper
    assert widths == sorted(widths, reverse=True)


def test_real_norm_endpoint_requires_sup():
    C = equal_couple(1)
    with pytest.raises(ArgumentError):
        real_norm([1.0], C, 0.0, 2.0)
    b = real_norm([1.0], C, 0.0, INF)
    assert b.contains(1.0, slack=1e-12)


def test_real_norm_sup_below_q1_on_samples():
    rng = np.random.default_rng(0)
    C = couple(np.exp(rng.uniform(-1, 1, 3)), 1, np.exp(rng.uniform(-1, 1, 3)), 1)
    for _ in range(5):
        x = rng.normal(size=3) + 1j * rng.normal(size=3)
        inf_b = real_norm(x, C, 0.35, INF)
        one_b = real_norm(x, C, 0.35, 1.0)
        assert inf_b.lower <= one_b.upper * (1 + 1e-9)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, INF])
def test_real_norm_overflow_near_float_limit_raises_precision_error(q):
    # the tail bound overflows Python floats at q = 2, 3 and the bracket is
    # infinite at q = 1, inf; neither is a configuration error
    C = couple([1.0, 1e308], 2, [1.0, 2.0], 1)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(PrecisionError):
        real_norm([1.0, 1.0], C, 0.5, q)


# ------------------------------------------------------- the per-level cells

MEMO_X = [1.0, -0.5 + 0.25j, 2.0]
MEMO_OTHER = [0.3, 1.0, -1.0j]
MEMO_KEYS = [(theta, q) for q in (1.0, 1.5, 2.0, 3.0, INF) for theta in (0.2, 0.5, 0.8)]


def memo_couple():
    return couple([1.0, 3.0, 0.5], 2, [2.0, 0.3, 1.5], 2)


def bits(bracket):
    return bracket.lower.hex(), bracket.upper.hex()


def memo_outcome(C, theta, q):
    """The real-norm bracket or the one its PrecisionError carries, with the
    windowed bracket."""
    windowed = bits(windowed_real_norm(MEMO_X, C, theta, q))
    try:
        return "ok", bits(real_norm(MEMO_X, C, theta, q, rtol=1e-4, max_refinements=2)), windowed
    except PrecisionError as exc:
        return "raised", bits(exc.bracket), windowed


def test_cell_memo_answers_bit_for_bit():
    fresh = {key: memo_outcome(memo_couple(), *key) for key in MEMO_KEYS}
    assert {kind for kind, _, _ in fresh.values()} == {"ok", "raised"}

    C = memo_couple()
    evicted = {}
    for key in MEMO_KEYS:
        evicted[key] = memo_outcome(C, *key)
        real_norm(MEMO_OTHER, C, 0.5, 2.0, rtol=1e-4, max_refinements=2)  # takes the slot
        real_norm(MEMO_X, memo_couple(), 0.3, INF)  # an equal profile of another couple
    assert evicted == fresh

    C = memo_couple()
    assert {key: memo_outcome(C, *key) for key in reversed(MEMO_KEYS)} == fresh

    # the bracket a PrecisionError carries is the one returned at its width
    C = memo_couple()
    for key in MEMO_KEYS:
        with pytest.raises(PrecisionError) as err:
            real_norm(MEMO_X, C, *key, rtol=1e-13, max_refinements=2)
        carried = err.value.bracket
        if fresh[key][0] == "raised":
            assert bits(carried) == fresh[key][1]
        again = real_norm(MEMO_X, memo_couple(), *key, rtol=carried.relative_width, max_refinements=2)
        assert bits(again) == bits(carried)


def test_cell_slot_holds_one_profile():
    C = memo_couple()
    profile = functors._unit_profile(MEMO_X, C, None)[0]
    for q in (2.0, INF):
        with pytest.raises(PrecisionError):
            real_norm(MEMO_X, C, 0.5, q, rtol=1e-13, max_refinements=1)
    cells = [functors._CELLS.get(profile, level, sup) for level in (0, 1) for sup in (False, True)]
    # every theta and q of the profile reads the same cells
    for theta in (0.2, 0.8):
        real_norm(MEMO_X, C, theta, 1.0)
        real_norm(MEMO_X, C, theta, INF)
    assert functors._CELLS.get(profile, 0, False) is cells[0]
    assert functors._CELLS.get(profile, 0, True) is cells[1]
    refs = [weakref.ref(c) for c in cells]
    del cells

    real_norm(MEMO_OTHER, C, 0.5, 2.0)
    gc.collect()
    assert C._profiles  # the first profile is still memoised on the couple
    assert [r() for r in refs] == [None] * 4


# ----------------------------------------------------------------- Calderon


def test_calderon_space_weight_formula():
    C = couple([1.0, 4.0], 2, [9.0, 1.0], 2)
    S = calderon_complex_space(C, 0.5)
    assert S.p == 2
    assert np.allclose(S.weights, [3.0, 2.0], rtol=1e-14)


def test_calderon_idempotent_on_equal_couple():
    X = WeightedSpace(4.0, [1.5, 0.5])
    C = BanachCouple(X, X)
    for theta in (0.2, 0.5, 0.9):
        S = calderon_complex_space(C, theta)
        assert S.p == X.p
        assert np.allclose(S.weights, X.weights, rtol=1e-14)


def test_calderon_exponent_mixing():
    C = couple([1.0], 1, [1.0], INF)
    S = calderon_complex_space(C, 0.5)
    assert S.p == pytest.approx(2.0, abs=1e-15)


def test_calderon_norm_matches_factorisation_oracle_dim1():
    C = couple([1.0], 1, [math.e], INF)
    for theta in (0.25, 0.5, 0.75):
        S = calderon_complex_space(C, theta)
        assert S.norm([1.0]) == pytest.approx(
            calderon_factor_oracle([1.0], C, theta), rel=1e-9
        )


def test_calderon_norm_matches_factorisation_oracle_dim2():
    rng = np.random.default_rng(7)
    for p0, p1 in [(2, 2), (1, 2), (2, INF)]:
        C = couple(np.exp(rng.uniform(-1, 1, 2)), p0, np.exp(rng.uniform(-1, 1, 2)), p1)
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        theta = 0.4
        S = calderon_complex_space(C, theta)
        oracle = calderon_factor_oracle(f, C, theta)
        assert S.norm(f) == pytest.approx(oracle, rel=2e-3)


# ----------------------------------------------- intersection / sum / limits


def test_intersection_and_sum_on_equal_spaces():
    X = WeightedSpace(2.0, [1.0, 2.0])
    x = [1.0, 1.0j]
    assert intersection_norm(x, X, X) == pytest.approx(X.norm(x), rel=1e-15)
    b = sum_norm(x, X, X)
    assert b.contains(X.norm(x), slack=1e-10)


def test_sum_norm_dim1_min_rule():
    A = WeightedSpace(1.0, [2.0])
    B = WeightedSpace(1.0, [1.0])
    b = sum_norm([1.0], A, B)
    assert b.contains(1.0, slack=1e-12)


def test_sum_norm_zero():
    A = WeightedSpace(1.0, [2.0])
    assert sum_norm([0.0], A, A).upper == 0.0


def test_gagliardo_trivial_couple():
    C = equal_couple(2, p=2.0)
    x = [3.0, 4.0]
    for endpoint in (0, 1):
        b = gagliardo_norm(x, C, endpoint)
        assert b.contains(5.0, slack=1e-9)


def test_gagliardo_dim1_l1_example():
    C = couple([2.0], 1, [1.0], 1)
    b = gagliardo_norm([1.0], C, 0)
    assert b.contains(2.0, slack=1e-12)  # sup_t min(2, t)
    assert b.upper == pytest.approx(2.0)


def test_gagliardo_zero():
    C = equal_couple(2)
    assert gagliardo_norm([0, 0], C, 1).upper == 0.0


# -------------------------------------------------------------- scale checks


def test_delta_condition_trivial_couple_real():
    C = equal_couple(2, p=1.0)
    fam = FunctorFamily("real", q=2.0)
    rep = delta_condition_check(C, 0.3, 0.7, fam, [[1.0, 2.0]], grid_count=3)
    assert rep.passed


def test_delta_condition_complex_scalar_identity():
    C = couple([1.0], 1, [math.e], 1)
    fam = FunctorFamily("calderon")
    rep = delta_condition_check(C, 0.2, 0.8, fam, [[1.0]], grid_count=5)
    assert rep.passed
    # the scalar norm is exactly e^theta, so log-convexity is an identity
    assert rep.details["worst_ratios"]["logconvex"] == pytest.approx(1.0, abs=1e-12)


def test_delta_condition_real_qinf_random_couple():
    rng = np.random.default_rng(11)
    C = couple(np.exp(rng.uniform(-2, 2, 4)), 2, np.exp(rng.uniform(-2, 2, 4)), 2)
    fam = FunctorFamily("real", q=INF)
    xs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]
    rep = delta_condition_check(C, 0.25, 0.75, fam, xs, grid_count=3)
    assert rep.passed


def test_reiteration_calderon_identity():
    C = couple([1.0, 2.0], 2, [4.0, 1.0], 2)
    rep = reiteration_check(C, 0.25, 0.75, 0.5, FunctorFamily("calderon"))
    assert rep.passed
    assert rep.details["max_weight_reldev"] <= 1e-12


def test_reiteration_calderon_equal_thetas():
    C = couple([1.0, 2.0], 1, [4.0, 1.0], INF)
    for lam in (0.1, 0.6):
        rep = reiteration_check(C, 0.4, 0.4, lam, FunctorFamily("calderon"))
        assert rep.passed


def test_reiteration_exp_weight_example():
    e = math.e
    C = couple([1.0, 1.0], 2, [e, e], 2)
    rep = reiteration_check(C, 0.2, 0.8, 0.5, FunctorFamily("calderon"))
    assert rep.passed
    # direct weights at theta = 0.5 are (sqrt(e), sqrt(e))
    from interpol_lab.functors import calderon_weights

    _, w = calderon_weights(C, 0.5)
    assert np.allclose(w, [math.sqrt(e)] * 2, rtol=1e-14)


def test_reiteration_real_trivial_ratio_one():
    C = equal_couple(2, p=2.0)
    rep = reiteration_check(
        C, 0.3, 0.7, 0.5, FunctorFamily("real", q=2.0), samples=[[1.0, 1.0]]
    )
    assert rep.passed
    assert rep.details["ratio_sup"] == pytest.approx(1.0, abs=0.02)
    assert rep.details["ratio_inf"] == pytest.approx(1.0, abs=0.02)


@settings(max_examples=20, deadline=None)
@given(
    theta=st.floats(0.05, 0.95),
    q=st.sampled_from([1.0, 2.0, INF]),
)
def test_windowed_norm_below_full_norm(theta, q):
    C = couple([1.0, 3.0], 1, [2.0, 0.4], 1)
    x = [1.0, -0.5 + 0.25j]
    full = real_norm(x, C, theta, q)
    win = windowed_real_norm(x, C, theta, q)
    assert win.lower <= full.upper * (1 + 1e-12)


@pytest.mark.parametrize("scale", [1e-170, 1e170])
@pytest.mark.parametrize("p", [1.0, 2.0, INF])
def test_real_norm_at_extreme_magnitudes(scale, p):
    # K^q under- or overflows at these magnitudes unless x is rescaled first
    C = BanachCouple(WeightedSpace(p, [1.0, 3.0]), WeightedSpace(p, [2.0, 0.5]))
    x = np.array([1.0, -2.0j])
    for q in (1.0, 2.0, 1.5, INF):
        b = real_norm(x, C, 0.4, q)
        bs = real_norm(scale * x, C, 0.4, q)
        assert bs.lower > 0
        assert bs.lower / scale <= b.upper * (1 + 1e-9)
        assert bs.upper / scale >= b.lower * (1 - 1e-9)
