import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
def test_norm_of_a_subnormal_vector_is_positive(p):
    # 0.5 * 5e-324 rounds to 0; the norm must still tell x from 0
    X = WeightedSpace(p, [0.5, 0.25])
    assert X.norm([5e-324j, 0.0]) == 5e-324
    assert X.norm([0.0, 0.0]) == 0.0


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
        # the upper end is the split's own objective, rounded outward
        assert ev.gap <= 1e-14 * ev.upper
        assert ev.value == pytest.approx(k_closed_form_linf(t, x, C), rel=1e-14)
        assert ev.value == pytest.approx(grid_k_oracle(t, x, C), abs=2e-5)


@pytest.mark.parametrize("span", [5.0, 30.0])
def test_sup_sup_splitter_objective_lies_within_the_gap(span):
    # the kink costs of the (inf, inf) split cancel at extreme weights: its
    # objective exceeded value + gap (gap 0) by up to 2.6e-10 relative at e^+-30
    rng = np.random.default_rng(int(span))
    for _ in range(400):
        d = int(rng.integers(1, 7))
        C = couple(np.exp(rng.uniform(-span, span, d)), INF, np.exp(rng.uniform(-span, span, d)), INF)
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        for t in np.exp(rng.uniform(-2 * span, 2 * span, 5)):
            ev = k_functional(t, x, C)
            x0, x1 = ev.splitter
            assert C.space0.norm(x0) + t * C.space1.norm(x1) <= ev.value + ev.gap, (t, ev)


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


def test_grid_k_oracle_keeps_the_minimiser_its_zoom_loses():
    # the zoom alone stops 1.05e-3 above K on this dim-3 (2, 4) couple
    C = couple(
        [1.8381660319512134, 0.7956756803939709, 1.4301593863586466], 2,
        [0.5680653582249924, 0.8405468364182145, 3.3592646309897414], 4,
    )
    x = [0.838396322741067, 1.0075325610597747, 2.9351107132561713]
    oracle = grid_k_oracle(1.0, x, C)
    assert 4.50341458587 * (1 - 1e-8) <= oracle <= 4.50341458588 * (1 + 1e-8)


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
ROOT_PAIRS = [(1.5, 3.0), (3.0, 1.5), (1.0, 3.0), (3.0, 1.0), (1.5, INF), (INF, 3.0)]


@pytest.mark.parametrize("p0,p1", CLOSED_AND_NEWTON_PAIRS + ROOT_PAIRS)
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


@pytest.mark.parametrize("scale", [1e170, 1e-170])
def test_root_path_certifies_at_extreme_magnitudes(scale):
    # |x| is scaled to its unit binade before the root solve: the brackets
    # are as tight at x 1e+-170 as at x
    C = couple([1.0, 3.0], 1.5, [2.0, 0.5], 3.0)
    ev = k_functional(0.7, scale * np.array([1.0, -2.0j]), C)
    assert 0.0 < ev.value <= ev.upper
    assert ev.gap <= 1e-12 * ev.upper


def test_non_finite_k_ends_raise_with_their_bracket():
    # the (1, 2) path squares the weights: w = 1e200 overflows to a NaN end
    C = BanachCouple(WeightedSpace(2, [1.0, 1e200]), WeightedSpace(1, [1.0, 2.0]))
    with pytest.raises(PrecisionError) as info:
        k_functional(10.0, [1.0, 1.0], C)
    assert len(info.value.bracket) == 2
    with pytest.raises(PrecisionError):
        k_profile([1.0, 1.0], C, np.array([0.1, 10.0]))


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


GENERAL_FINITE_PAIRS = [
    (p0, p1)
    for p0 in (1.0, 1.5, 2.0, 3.0, 4.0)
    for p1 in (1.0, 1.5, 2.0, 3.0, 4.0)
    if (p0, p1) not in {(1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (2.0, 1.0)}
]


def _root_path_cases(rng, pair):
    """(t, x, C) over dims 1-4, a vector with a zero entry, t in [1e-2, 1e2]."""
    cases = []
    for d in (1, 2, 3, 4):
        C = couple(
            np.exp(rng.uniform(-1.5, 1.5, d)), pair[0],
            np.exp(rng.uniform(-1.5, 1.5, d)), pair[1],
        )
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        y = rng.normal(size=d)
        y[rng.integers(d)] = 0.0
        ts = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), 4))
        cases += [(float(t), v, C) for v in (x, y) for t in ts]
    return cases


def _check_root_path(t, x, C, upper_oracle=None):
    # no PrecisionError at the default tol, a gap at round-off, an upper end
    # no worse than the oracle's feasible split (the grid's by default) and
    # a lower end below the grid's
    ev = k_functional(t, x, C)
    assert ev.gap <= 1e-12 * ev.upper
    grid = grid_k_oracle(t, x, C, pts=9 if C.dim == 4 else 25)
    assert ev.upper <= (grid if upper_oracle is None else upper_oracle) * (1 + 1e-10)
    assert ev.value <= grid + 1e-12 * max(1.0, grid)


def test_general_pairs_certify_without_precision_errors():
    rng = np.random.default_rng(31)
    for pair in GENERAL_FINITE_PAIRS:
        for t, x, C in _root_path_cases(rng, pair):
            _check_root_path(t, x, C)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
def test_sup_budget_pairs_certify(p):
    rng = np.random.default_rng(29)
    for pair in ((p, INF), (INF, p)):
        for t, x, C in _root_path_cases(rng, pair):
            # the (inf, p) couple through K(t; X0, X1) = t K(1/t; X1, X0)
            S0, S1, s, scale = C.space0, C.space1, t, 1.0
            if pair[0] == INF:
                S0, S1, s, scale = C.space1, C.space0, 1.0 / t, t
            oracle = full_sup_budget_search(s, np.abs(x), S0.weights, S0.p, S1.weights)[1]
            _check_root_path(t, x, C, scale * oracle)


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
