import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpol_lab.errors import ArgumentError
from interpol_lab.spaces import (
    BanachCouple,
    WeightedSpace,
    k_closed_form_l1,
    k_closed_form_linf,
    k_functional,
    k_profile,
    space_norm,
)

from oracles import grid_k_oracle

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
        ev = k_functional(float(ts[i]), x, C)
        assert lo[i] <= ev.upper + 1e-9 * (1 + ev.upper)
        assert hi[i] >= ev.value - 1e-9 * (1 + ev.value)
        assert hi[i] - lo[i] <= 1e-7 * max(1.0, hi[i])
    return lo, hi


def test_k_requires_positive_t_and_tol():
    C = couple([1.0], 1, [1.0], 1)
    with pytest.raises(ArgumentError):
        k_functional(0.0, [1.0], C)
    with pytest.raises(ArgumentError):
        k_functional(1.0, [1.0], C, tol=0.0)
