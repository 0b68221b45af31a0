"""Exact real-method norms over polyhedral couples (both exponents in {1, inf}).

There K is the lower envelope of a few lines: `envelope.KEnvelope` finds them
by the sandwich method, and `real_norm` and `windowed_real_norm` reduce the
envelope for q in {1, 2, inf}.  The brackets are held against
`oracles.PolyhedralK`, K and the norms in 50-digit arithmetic from the
candidate lines of the closed forms.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpol_lab import spaces
from interpol_lab.functors import QuadratureConfig, real_norm, windowed_real_norm
from interpol_lab.envelope import KEnvelope
from interpol_lab.spaces import BanachCouple, WeightedSpace, k_closed_form_l1, unit_binade

from oracles import PolyhedralK, scalar_k_oracle

INF = math.inf
PAIRS = [(1.0, 1.0), (INF, INF), (1.0, INF), (INF, 1.0)]
QS = (1.0, 2.0, INF)
WINDOWS = (QuadratureConfig(), QuadratureConfig(1e-2, 1e2, 4))
SEEDED = settings(max_examples=150, deadline=None, derandomize=True)


def couple_of(p0, w0, p1, w1):
    return BanachCouple(WeightedSpace(p0, w0), WeightedSpace(p1, w1))


def draw_case(seed, pair, span, zero_entry):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    C = couple_of(pair[0], np.exp(rng.uniform(-span, span, d)), pair[1], np.exp(rng.uniform(-span, span, d)))
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    if zero_entry and d > 1:
        x[rng.integers(d)] = 0.0
    return C, x


@SEEDED
@given(
    pair=st.sampled_from(PAIRS),
    seed=st.integers(0, 2**32 - 1),
    span=st.sampled_from([1.5, 5.0, 30.0]),
    theta=st.floats(0.05, 0.97),
    zero_entry=st.booleans(),
)
def test_polyhedral_brackets_contain_the_oracle(pair, seed, span, theta, zero_entry):
    C, x = draw_case(seed, pair, span, zero_entry)
    oracle = PolyhedralK(x, C)
    for q in QS:
        brackets = [(real_norm(x, C, theta, q), (0.0, INF))]
        brackets += [(windowed_real_norm(x, C, theta, q, cfg), (cfg.t_min, cfg.t_max)) for cfg in WINDOWS]
        for b, window in brackets:
            assert b.contains(oracle.norm(theta, q, window)), (q, window, b)
            if span <= 5.0:
                assert b.relative_width <= 1e-11, (q, window, b)
        if span <= 5.0:
            real_norm(x, C, theta, q, rtol=1e-10)  # met: no PrecisionError


def test_oracle_k_is_the_minimum_of_its_lines_and_the_closed_forms():
    # the hull the oracle integrates is the minimum over every candidate
    # line, and at moderate weights both agree with the closed forms
    rng = np.random.default_rng(5)
    for k in range(24):
        C, x = draw_case(int(rng.integers(2**32)), PAIRS[k % 4], 1.5, k % 3 == 0)
        oracle = PolyhedralK(x, C)
        for t in np.exp(rng.uniform(-6, 6, 5)):
            with mpmath.workdps(oracle.DPS):
                j = int(np.searchsorted([float(c) for c in oracle.breaks], t)) - 1
                a, b = oracle.hull[j]
                assert abs(a + b * mpmath.mpf(float(t)) - oracle.k(t)) <= mpmath.mpf(10) ** -40 * oracle.k(t)
            lo, hi = scalar_k_oracle(t, x, C)
            assert float(oracle.k(t)) == pytest.approx(hi, rel=1e-13)
            if C.space0.p == C.space1.p == 1.0:
                assert float(oracle.k(t)) == pytest.approx(k_closed_form_l1(t, x, C), rel=1e-14)


@pytest.mark.parametrize("pair", PAIRS, ids=lambda pair: "%g-%g" % pair)
def test_envelope_bounds_k_everywhere_from_few_evaluations(monkeypatch, pair):
    evaluated = []
    inner = spaces.k_functional

    def counting(t, x, couple, tol=1e-8):
        evaluated.append(t)
        return inner(t, x, couple, tol)

    monkeypatch.setattr(spaces, "k_functional", counting)
    rng = np.random.default_rng(PAIRS.index(pair))
    for case in range(12):
        C, x = draw_case(int(rng.integers(2**32)), pair, (1.5, 5.0, 30.0)[case % 3], case % 2 == 1)
        m = unit_binade(np.abs(x))[0]
        env = KEnvelope.of(C, m).level(0)
        oracle = PolyhedralK(m, C)
        # the sandwich needs about two evaluations per line of K
        assert 1 <= len(evaluated) == env.ts.size <= 2 * len(oracle.hull)
        breaks, a, b = env.upper
        for t in np.exp(rng.uniform(-70, 70, 40)):
            k = float(oracle.k(t))
            j = int(np.searchsorted(breaks, t)) - 1
            assert a[j] + b[j] * t >= k * (1 - 1e-15), (case, t)
            lower = t * env.lo[0] / env.ts[0] if t < env.ts[0] else np.interp(t, env.ts, env.lo)
            assert lower <= k * (1 + 1e-14), (case, t)
        # the envelope is memoised: other (theta, q) evaluate no K
        before = len(evaluated)
        for q in QS:
            real_norm(x, C, 0.3, q)
            windowed_real_norm(x, C, 0.6, q)
        assert len(evaluated) == before
        evaluated.clear()


def test_quadrature_settings_do_not_touch_polyhedral_norms():
    C, x = draw_case(3, (INF, 1.0), 1.5, False)
    for q in QS:
        first = real_norm(x, C, 0.4, q)
        for cfg in WINDOWS + (QuadratureConfig(1e-3, 1e3, 2),):
            assert real_norm(x, C, 0.4, q, cfg, rtol=1e-10) == first


@pytest.mark.parametrize("scale", [1.0, 0.7, 0.414, 2.0**40, 2.0**-40])
def test_sup_norm_width_does_not_hang_on_the_scale_of_x(scale):
    # the q = inf width once hung on the rounding sign of a tangent crossing
    # where K is linear: 2e-12 at x and 0.7 x, 4.9e-4 at 0.414 x
    C = couple_of(INF, [1.0, 3.0], INF, [2.0, 0.5])
    x = scale * np.array([1.0, 2.0])
    for theta in (0.2, 0.5, 0.8):
        assert real_norm(x, C, theta, INF).relative_width <= 1e-11
