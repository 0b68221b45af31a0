"""The corner window of K and the exact real-norm tails that rest on it.

K(t, x) = t ||x||_1 left of the corner window [t0, t1] and ||x||_0 right of
it, so `real_norm` profiles K on that window alone and adds closed-form
tails.  These tests check the fact itself against the K kernel, the norms
against closed forms on l^1 couples, and the q = inf upper end against K
witnesses between the profile's nodes.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpol_lab import functors, spaces
from interpol_lab.functors import QuadratureConfig, real_norm, windowed_real_norm
from interpol_lab.spaces import BanachCouple, WeightedSpace, k_functional

INF = math.inf
EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)
PAIRS = list(itertools.product(EXPONENTS, EXPONENTS))
SEEDED = settings(max_examples=40, deadline=None, derandomize=True)


def couple_of(p0, w0, p1, w1):
    return BanachCouple(WeightedSpace(p0, w0), WeightedSpace(p1, w1))


def draw_case(rng, p0, p1, span, zero_entry):
    d = int(rng.integers(1, 6))
    C = couple_of(p0, np.exp(rng.uniform(-span, span, d)), p1, np.exp(rng.uniform(-span, span, d)))
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    if zero_entry and d > 1:
        x[rng.integers(d)] = 0.0
    return C, x


def contains(ev, value, rel=1e-12):
    return ev.lower <= value * (1 + rel) and ev.upper >= value * (1 - rel)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda pair: "%g-%g" % pair)
def test_k_is_a_corner_line_outside_the_corner_window(pair):
    # t up to e^20 beyond the corners, where t amplifies any remainder that a
    # covered coordinate keeps in the closed forms with an l^inf side
    p0, p1 = pair
    rng = np.random.default_rng(PAIRS.index(pair))
    for case in range(12):
        span = (1.0, 5.0, 30.0)[case % 3]
        C, x = draw_case(rng, p0, p1, span, zero_entry=case % 2 == 1)
        n0, n1 = C.space0.norm(x), C.space1.norm(x)
        t0, t1 = functors._corners(np.abs(x), C)
        assert 0 < t0 <= t1 * (1 + 1e-12)
        left = np.append(t0 * np.exp(-rng.uniform(0, 20, 4)), t0)
        right = np.append(t1 * np.exp(rng.uniform(0, 20, 4)), t1)
        for t in left:
            assert contains(k_functional(t, x, C), t * n1), (case, t)
        for t in right:
            assert contains(k_functional(t, x, C), n0), (case, t)


def test_closed_form_k_far_right_of_the_corner_window():
    # (inf, inf): the candidate b = w0 m used to leave m - b / w0 one ulp
    # above 0, so K(t) carried t w1 ulp and its lower end exceeded N0 = 2.162
    # by 3.6e-11 at t = 1e6; covered coordinates now leave exactly 0
    C = couple_of(INF, [2.2 + 0.1], INF, [0.7])
    x = [0.94]
    assert functors._corners(np.abs(x), C)[1] < 1e6
    assert contains(k_functional(1e6, x, C), C.space0.norm(x))


def test_k_inside_the_corner_window_leaves_covered_coordinates_at_zero():
    # (inf, 1): the (1, inf) closed form of the swapped couple left covered
    # coordinates an ulp remainder that t = 1e18 amplified: K read 4.2969e10
    # (value = upper) against its own splitter's 2.9112e10, and the q = 1
    # norm's lower end 5.46996e11 lay 1.9% above the 50-digit 5.36688e11
    C = couple_of(
        INF, [2.8901987746092079e10, 2.4145151669891724e10, 3.8024651316224725e05, 1.5881739910260120e-06],
        1, [1.2481143981882456e08, 1.8220578608674959e-09, 1.3483322392066400e01, 1.2497502907869662e11],
    )
    x = np.array([
        0.5225579141594279 - 0.6631020133537234j, 0.43257747387011963 + 3.5702865823641314j,
        0.00944122384513873 - 0.15955994001558402j, 0.0,
    ])
    t0, t1 = functors._corners(np.abs(x), C)
    assert t0 < 1e18 < t1
    ev = k_functional(1e18, np.abs(x), C)
    splitter_cost = C.space0.norm(ev.splitter[0]) + 1e18 * C.space1.norm(ev.splitter[1])
    assert ev.value == pytest.approx(2.9112224336584618e10, rel=1e-13)
    assert ev.upper == pytest.approx(splitter_cost, rel=1e-13)
    assert real_norm(x, C, 0.05, 1.0).contains(5.3668758899017206e11)


def l1_theta_one(x, w0, w1, theta):
    """||x||_(theta, 1) on (l^1(w0), l^1(w1)): K(t) = sum |x_i| min(w0_i, t w1_i)."""
    return (1 / theta + 1 / (1 - theta)) * float(np.sum(np.abs(x) * w0 ** (1 - theta) * w1**theta))


def l1_theta_inf(x, w0, w1, theta):
    """||x||_(theta, inf) on l^1 couples: t^-theta K is largest at a kink of K."""
    kinks = w0 / w1
    m = np.abs(x)
    return max(float(np.sum(m * np.minimum(w0, t * w1))) * t**-theta for t in kinks)


def l1_cases(seed, count, shift=1.0):
    """l^1 couples, d 2..6, weights e^+-3; ``shift`` moves the kinks w0 / w1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.integers(2, 7))
        w0, w1 = shift * np.exp(rng.uniform(-3, 3, d)), np.exp(rng.uniform(-3, 3, d))
        yield couple_of(1, w0, 1, w1), rng.normal(size=d) + 1j * rng.normal(size=d)


@pytest.mark.parametrize("theta", [0.2, 0.5, 0.8])
def test_l1_closed_forms_lie_in_every_bracket(theta):
    for C, x in l1_cases(int(10 * theta), 60):
        w0, w1 = C.space0.weights, C.space1.weights
        for q, exact, rtol in ((1.0, l1_theta_one, None), (1.0, l1_theta_one, 1e-6), (INF, l1_theta_inf, None)):
            b = real_norm(x, C, theta, q, rtol=rtol)
            assert b.contains(exact(x, w0, w1, theta), slack=1e-12), (q, rtol, b)


def l1_windowed(x, w0, w1, theta, a, b):
    """int_a^b t^-theta K(t) dt/t on l^1 couples, coordinate by coordinate."""
    total = 0.0
    for m, u, v in zip(np.abs(x), w0, w1):
        kink = u / v
        end = min(b, kink)
        if a < end:  # K_i = m v t
            total += m * v * (end ** (1 - theta) - a ** (1 - theta)) / (1 - theta)
        start = max(a, kink)
        if start < b:  # K_i = m u
            total += m * u * (start**-theta - b**-theta) / theta
    return total


@pytest.mark.parametrize(
    "window,shift",
    [((1e-8, 1e8), 1.0), ((1e-1, 1e1), 1.0), ((1e-2, 1e2), 1e6), ((1e-2, 1e2), 1e-6)],
    ids=["holds-corners", "inside-corners", "left-of-corners", "right-of-corners"],
)
def test_windowed_norm_holds_the_closed_form_and_evaluates_only_the_corner_window(monkeypatch, window, shift):
    # l^1 couples take the line envelope: K is evaluated by k_functional
    evaluated = []
    inner = spaces.k_functional

    def counting(t, x, couple, tol=1e-8):
        evaluated.append(t)
        return inner(t, x, couple, tol)

    monkeypatch.setattr(spaces, "k_functional", counting)
    cfg = QuadratureConfig(*window, points_per_decade=8)
    r = (window[1] / window[0]) ** (1 / cfg.intervals)
    for C, x in l1_cases(5, 20, shift):
        w0, w1 = C.space0.weights, C.space1.weights
        for theta in (0.2, 0.7):
            b = windowed_real_norm(x, C, theta, 1.0, cfg)
            assert b.contains(l1_windowed(x, w0, w1, theta, *window), slack=1e-12)
        t0, t1 = functors._corners(np.abs(x), C)
        nodes = np.array(evaluated)
        assert nodes.min() >= t0 / r * (1 - 1e-6) and nodes.max() <= t1 * r * (1 + 1e-6)
        evaluated.clear()


def test_sup_upper_end_next_to_a_kink_is_above_its_witness():
    # a crossing one ulp from a node used to flatten the next cell's tangent,
    # giving the upper end 2.2863171520 below t^-theta K(t) = 2.2865834941
    C = couple_of(1, [2.2 + 0.1, 3.7 + 0.1], 1, [1.3, 2.0])
    x = [0.8, 0.5]
    t = C.space0.weights[0] / C.space1.weights[0]
    witness = k_functional(t, x, C).value * t**-0.8
    assert witness == pytest.approx(2.2865834941, rel=1e-10)
    assert real_norm(x, C, 0.8, INF).upper >= witness * (1 - 1e-12)


@SEEDED
@given(
    pair=st.sampled_from(PAIRS),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.05, 0.95),
    log_ts=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4),
)
def test_sup_norm_upper_end_above_every_k_witness(pair, seed, theta, log_ts):
    p0, p1 = pair
    C, x = draw_case(np.random.default_rng(seed), p0, p1, 3.0, zero_entry=seed % 3 == 0)
    upper = real_norm(x, C, theta, INF).upper
    # the kinks of K on l^1 couples, where the sup is attained
    ts = np.concatenate([np.exp(log_ts), C.space0.weights / C.space1.weights])
    for t in ts:
        assert upper >= t**-theta * k_functional(t, x, C).value * (1 - 1e-12), t
