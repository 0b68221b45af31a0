import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpol_lab import spaces
from interpol_lab.errors import ArgumentError, PrecisionError
from interpol_lab.spaces import (
    BanachCouple,
    WeightedSpace,
    k_closed_form_l1,
    k_closed_form_linf,
    k_functional,
    k_profile,
    space_norm,
)

from oracles import full_sup_budget_search, grid_k_oracle, scalar_k_oracle

INF = math.inf


def couple(w0, p0, w1, p1):
    return BanachCouple(WeightedSpace(p0, w0), WeightedSpace(p1, w1))


# --------------------------------------------------------------------- norms


def test_space_norm_zero():
    X = WeightedSpace(2.0, [1.0, 1.0])
    assert space_norm([0, 0], X) == 0.0


def test_space_norm_l1_unweighted():
    X = WeightedSpace(1.0, [1.0, 1.0])
    assert space_norm([1, 2], X) == pytest.approx(3.0, abs=0)


def test_space_norm_l2_pythagoras():
    X = WeightedSpace(2.0, [1.0, 1.0])
    assert space_norm([3, 4], X) == pytest.approx(5.0, rel=1e-15)


def test_space_norm_dimension_mismatch():
    X = WeightedSpace(2.0, [1.0, 1.0])
    with pytest.raises(ArgumentError):
        space_norm([1, 2, 3], X)


def test_weights_must_be_positive():
    with pytest.raises(ArgumentError):
        WeightedSpace(2.0, [1.0, 0.0])
    with pytest.raises(ArgumentError):
        WeightedSpace(0.5, [1.0])


@pytest.mark.parametrize("scale", [1e-185, 1e200])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_l2_norm_at_extreme_magnitudes(scale):
    # the unscaled sum of squares under- or overflows at these magnitudes
    # (numpy warns on the overflow before the scaled sum takes over)
    X = WeightedSpace(2.0, [1.0, 2.0])
    assert X.norm([scale, 0]) == pytest.approx(scale, rel=1e-15, abs=0)
    assert X.norm([0, scale]) == pytest.approx(2.0 * scale, rel=1e-15, abs=0)
    assert X.norm([scale, scale]) == pytest.approx(math.sqrt(5.0) * scale, rel=1e-15, abs=0)
    assert X.norm([3.0, 2.0]) == pytest.approx(5.0, rel=1e-15, abs=0)


@st.composite
def space_and_vectors(draw, max_dim=5):
    d = draw(st.integers(1, max_dim))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 4.0, INF]))
    w = draw(
        st.lists(st.floats(0.05, 20.0), min_size=d, max_size=d).map(np.array)
    )
    def vec():
        re = draw(st.lists(st.floats(-5, 5), min_size=d, max_size=d))
        im = draw(st.lists(st.floats(-5, 5), min_size=d, max_size=d))
        return np.array(re) + 1j * np.array(im)
    return WeightedSpace(p, w), vec(), vec()


@settings(max_examples=60, deadline=None)
@given(space_and_vectors())
def test_norm_is_a_lattice_norm(data):
    X, x, y = data
    nx, ny = X.norm(x), X.norm(y)
    assert X.norm(x + y) <= nx + ny + 1e-9 * (nx + ny + 1)
    assert X.norm(2.5j * x) == pytest.approx(2.5 * nx, rel=1e-12, abs=1e-12)
    # solidity: coordinatewise domination
    dom = np.where(np.abs(x) >= np.abs(y), x, np.abs(y) * np.exp(1j * np.angle(x)))
    assert X.norm(dom) >= ny - 1e-9 * (ny + 1)
    assert (nx == 0.0) == bool(np.all(x == 0))


# ------------------------------------------------------------- closed forms


def test_k_l1_closed_form_single_coordinate():
    C = couple([2.0, 1.0], 1, [1.0, 1.0], 1)
    assert k_closed_form_l1(1.0, [1, 0], C) == pytest.approx(1.0, abs=0)


def test_k_l1_closed_form_zero():
    C = couple([2.0, 1.0], 1, [1.0, 1.0], 1)
    assert k_closed_form_l1(0.5, [0, 0], C) == 0.0


def test_k_l1_closed_form_large_t_limit():
    C = couple([1.0, 1.0], 1, [1.0, 1.0], 1)
    assert k_closed_form_l1(1e6, [1, 1], C) == pytest.approx(2.0, abs=0)


def test_k_l1_closed_form_wrong_exponent():
    C = couple([1.0], 2, [1.0], 1)
    with pytest.raises(ArgumentError):
        k_closed_form_l1(1.0, [1.0], C)


def test_k_functional_zero_vector():
    C = couple([1.0, 1.0], 2, [3.0, 0.5], 2)
    ev = k_functional(3.0, [0, 0], C)
    assert ev.value == 0.0 and ev.gap == 0.0


def test_k_functional_equal_spaces_min_rule():
    C = couple([1.0, 1.0], 1, [1.0, 1.0], 1)
    ev = k_functional(1.0, [1, 1], C)
    assert ev.value == pytest.approx(2.0, abs=1e-15)
    ev = k_functional(0.25, [1, 1], C)
    assert ev.value == pytest.approx(0.5, abs=1e-15)


def test_k_functional_l1_example():
    C = couple([1.0, 1.0], 1, [3.0, 0.5], 1)
    ev = k_functional(1.0, [1, 2], C)
    assert ev.value == pytest.approx(2.0, abs=1e-15)
    assert ev.gap == 0.0
    x0, x1 = ev.splitter
    assert np.allclose(x0 + x1, [1, 2])


def test_k_functional_linf_matches_oracle():
    C = couple([1.0, 2.0], INF, [0.5, 3.0], INF)
    x = np.array([1.0 + 0.5j, -2.0])
    for t in (0.1, 1.0, 7.0):
        ev = k_functional(t, x, C)
        assert ev.gap == 0.0
        assert ev.value == pytest.approx(k_closed_form_linf(t, x, C), rel=1e-14)
        assert ev.value == pytest.approx(grid_k_oracle(t, x, C), abs=2e-5)


@pytest.mark.parametrize(
    "p0,p1",
    [(1, 1), (2, 2), (INF, INF), (1, 2), (2, 1), (1, INF), (INF, 1), (1.5, 4.0), (2, INF)],
)
def test_k_functional_certificates_and_oracle(p0, p1):
    rng = np.random.default_rng(17)
    for _ in range(6):
        d = rng.integers(1, 4)
        C = couple(
            np.exp(rng.uniform(-1.5, 1.5, d)), p0,
            np.exp(rng.uniform(-1.5, 1.5, d)), p1,
        )
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        t = float(np.exp(rng.uniform(-2, 2)))
        ev = k_functional(t, x, C, tol=1e-8)
        obj = C.space0.norm(ev.splitter[0]) + t * C.space1.norm(ev.splitter[1])
        assert ev.value - 1e-12 <= obj <= ev.value + ev.gap + 1e-12 * (1 + obj)
        assert np.allclose(ev.splitter[0] + ev.splitter[1], x)
        oracle = grid_k_oracle(t, x, C)
        assert abs(ev.upper - oracle) <= 1e-4 * max(1.0, oracle)
        assert oracle >= ev.value - 1e-6 * max(1.0, oracle)
        # upper bound by trivial splits
        assert ev.value <= min(C.space0.norm(x), t * C.space1.norm(x)) + 1e-12


def test_k_monotonicity_in_t():
    rng = np.random.default_rng(3)
    C = couple([1.0, 4.0, 0.3], 2, [2.0, 0.5, 1.0], 2)
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    ts = np.exp(np.linspace(-3, 3, 25))
    vals = [k_functional(float(t), x, C).upper for t in ts]
    for a, b, ta, tb in zip(vals, vals[1:], ts, ts[1:]):
        assert b >= a - 1e-9 * (1 + a)          # K nondecreasing
        assert b / tb <= a / ta + 1e-9 * (1 + a / ta)  # K(t)/t nonincreasing


def test_k_scaling_homogeneity():
    C = couple([1.0, 2.0], 2, [3.0, 0.5], 1)
    x = np.array([1.0, -2.0 + 1j])
    base = k_functional(0.7, x, C)
    for alpha in (2.0, 0.3, 1j, -1.5 + 2j):
        ev = k_functional(0.7, alpha * x, C)
        assert ev.upper == pytest.approx(abs(alpha) * base.upper, rel=1e-6, abs=1e-9)


def test_k_profile_matches_scalar_paths():
    rng = np.random.default_rng(5)
    ts = np.exp(np.linspace(-4, 4, 40))
    for p0, p1 in [(1, 1), (2, 2), (INF, INF), (1, INF), (INF, 1), (1, 2), (2, 1)]:
        d = 3
        C = couple(
            np.exp(rng.uniform(-2, 2, d)), p0, np.exp(rng.uniform(-2, 2, d)), p1
        )
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        _check_profile_against_scalar(x, C, ts)
    # the Newton root solves of the (2, 2) and (1, 2) paths, (2, 1) by the
    # t-swap, across weight spans, supports and near-equal weights
    for span in (1.5, 4.0, "near-equal"):
        for p0, p1 in [(2, 2), (1, 2), (2, 1)]:
            for d in (1, 2, 4, 6):
                if span == "near-equal":
                    w0 = np.exp(rng.uniform(-1, 1, d))
                    w1 = w0 * (1.0 + 1e-9 * rng.uniform(-1, 1, d))
                else:
                    w0 = np.exp(rng.uniform(-span, span, d))
                    w1 = np.exp(rng.uniform(-span, span, d))
                x = rng.normal(size=d) + 1j * rng.normal(size=d)
                if d > 2:
                    x[1] = 0.0
                lo, hi = _check_profile_against_scalar(x, couple(w0, p0, w1, p1), ts)
                # a converged root closes the certified gap to round-off
                assert np.all(hi - lo <= 1e-13 * hi)


def _check_profile_against_scalar(x, C, ts):
    lo, hi = k_profile(x, C, ts)
    assert np.all(lo <= hi + 1e-12)
    for i in (0, 7, 19, 39):
        s_lo, s_hi = scalar_k_oracle(float(ts[i]), x, C)
        assert lo[i] <= s_hi + 1e-9 * (1 + s_hi)
        assert hi[i] >= s_lo - 1e-9 * (1 + s_lo)
        assert hi[i] - lo[i] <= 1e-7 * max(1.0, hi[i])
    return lo, hi


CLOSED_AND_NEWTON_PAIRS = [(1, 1), (INF, INF), (2, 2), (1, INF), (INF, 1), (1, 2), (2, 1)]


@pytest.mark.parametrize("p0,p1", CLOSED_AND_NEWTON_PAIRS)
def test_k_functional_at_extreme_magnitudes(p0, p1):
    # K is positively homogeneous and a power-of-two scaling is exact, so the
    # brackets at x 2^+-565 are the unscaled ones times 2^+-565, bit for bit
    C = couple([1.0, 3.0], p0, [2.0, 0.5], p1)
    x = np.array([1.0, -2.0j])
    base = k_functional(0.7, x, C)
    for k in (565, -565):
        ev = k_functional(0.7, math.ldexp(1.0, k) * x, C)
        assert ev.value == math.ldexp(base.value, k)
        assert ev.upper == math.ldexp(base.upper, k)


def test_k_l1_l2_all_on_the_l1_side_over_the_support():
    # ||w0/w1||_2 is 1.03 over the support of x and 5.1 over every
    # coordinate; for t >= 1.03 the split x0 = x is optimal, K = sum w0 |x|
    w_l1, w_l2 = np.array([1.0, 5.0, 1.0]), np.array([1.0, 1.0, 4.0])
    x = np.array([2.87, 0.0, 0.48])
    exact = float(np.sum(w_l1 * np.abs(x)))
    for t in (1.2, 2.0, 3.0):
        ev = k_functional(t, x, couple(w_l1, 1, w_l2, 2))
        assert ev.gap == 0 and ev.value == exact
    # (2, 1) through the t-swap K(t, x; X1, X0) = t K(1/t, x; X0, X1)
    for t in (0.5, 1.0 / 3.0):
        ev = k_functional(t, x, couple(w_l2, 2, w_l1, 1))
        assert ev.gap == 0 and ev.value == t * exact


def test_k_functional_is_the_one_point_profile():
    rng = np.random.default_rng(23)
    exps = [1.0, 1.5, 2.0, 3.0, INF]
    for p0 in exps:
        for p1 in exps:
            for d in (1, 3):
                C = couple(
                    np.exp(rng.uniform(-1.5, 1.5, d)), p0,
                    np.exp(rng.uniform(-1.5, 1.5, d)), p1,
                )
                x = rng.normal(size=d) + 1j * rng.normal(size=d)
                if d > 1:
                    x[rng.integers(d)] = 0.0
                for t in (0.3, 2.5):
                    _check_one_point(t, x, C)
    # equal endpoint spaces and the zero vector
    C = couple([1.0, 2.0], 1.5, [1.0, 2.0], 1.5)
    for t in (0.5, 2.0):
        _check_one_point(t, np.array([1.0, -1j]), C)
        _check_one_point(t, np.zeros(2), C)


def _check_one_point(t, x, C):
    try:
        ev = k_functional(t, x, C, tol=1e-9)
    except PrecisionError:
        with pytest.raises(PrecisionError):
            k_profile(x, C, [t])
        return
    lo, hi = k_profile(x, C, [t])
    assert hi[0] <= ev.upper
    if ev.upper <= min(C.space0.norm(x), t * C.space1.norm(x)):
        # the cap min(||x||_0, t ||x||_1) is inactive
        assert lo[0] == ev.value and hi[0] == ev.upper


def test_k_requires_positive_t_and_tol():
    C = couple([1.0], 1, [1.0], 1)
    with pytest.raises(ArgumentError):
        k_functional(0.0, [1.0], C)
    with pytest.raises(ArgumentError):
        k_functional(1.0, [1.0], C, tol=0.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_sup_budget_search_matches_full_search(p, monkeypatch):
    rng = np.random.default_rng(29)
    cases = []
    for d in (1, 2, 3, 4):
        for pair in ((p, INF), (INF, p)):
            C = couple(
                np.exp(rng.uniform(-1.5, 1.5, d)), pair[0],
                np.exp(rng.uniform(-1.5, 1.5, d)), pair[1],
            )
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            y = rng.normal(size=d)
            y[rng.integers(d)] = 0.0
            cases += [(t, v, C) for v in (x, y) for t in (0.01, 0.1, 1.0, 10.0, 100.0)]
    stopped = [k_functional(t, v, C) for t, v, C in cases]
    monkeypatch.setattr(spaces, "_k_any_linf", full_sup_budget_search)
    for (t, v, C), ev in zip(cases, stopped):
        ref = k_functional(t, v, C)
        assert (ev.value, ev.gap, ev.upper) == (ref.value, ref.gap, ref.upper)
        assert np.array_equal(ev.splitter[0], ref.splitter[0])
        assert np.array_equal(ev.splitter[1], ref.splitter[1])


def test_general_pairs_certify_with_one_minimisation(monkeypatch):
    calls = []
    minimize = spaces.optimize.minimize

    def counting(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(spaces.optimize, "minimize", counting)
    rng = np.random.default_rng(31)
    exps = [1.0, 1.5, 2.0, 3.0, 4.0]
    newton_or_closed = {(1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (2.0, 1.0)}
    tol = 1e-8
    evaluations = 0
    for p0 in exps:
        for p1 in exps:
            if (p0, p1) in newton_or_closed:
                continue
            for d in (1, 2, 3):
                C = couple(
                    np.exp(rng.uniform(-1.5, 1.5, d)), p0,
                    np.exp(rng.uniform(-1.5, 1.5, d)), p1,
                )
                x = rng.normal(size=d) + 1j * rng.normal(size=d)
                for t in (0.1, 0.316, 1.0, 3.16, 10.0):
                    ev = k_functional(t, x, C, tol=tol)
                    evaluations += 1
                    assert ev.gap <= tol * max(1.0, ev.upper)
                    # the grid oracle is the objective of a feasible split:
                    # no lower end may exceed it, and no upper end may be
                    # worse than it by more than its accuracy
                    oracle = grid_k_oracle(t, x, C)
                    assert ev.value <= oracle + 1e-12 * max(1.0, oracle)
                    assert ev.upper <= oracle + 1e-5 * max(1.0, oracle)
    assert len(calls) == evaluations


@pytest.mark.parametrize("bad", [math.nan, INF, complex(1.0, -INF)], ids=["nan", "inf", "complex-inf"])
@pytest.mark.parametrize("others", [[2.0], [math.nan]], ids=["one-bad", "all-bad"])
@pytest.mark.parametrize("pair", [(2, 3), (2, 2), (1, INF)])
def test_k_entry_points_reject_nonfinite_vectors(pair, others, bad):
    from interpol_lab.functors import real_norm, windowed_real_norm

    C = couple([1.0, 2.0], pair[0], [0.5, 1.0], pair[1])
    x = [bad] + others
    calls = [
        lambda: k_functional(0.7, x, C),
        lambda: k_profile(x, C, np.array([0.5, 1.0, 2.0])),
        lambda: real_norm(x, C, 0.5, 2.0),
        lambda: windowed_real_norm(x, C, 0.5, INF),
    ]
    for call in calls:
        with pytest.raises(ArgumentError, match="finite"):
            call()
