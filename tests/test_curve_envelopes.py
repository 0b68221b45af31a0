"""K envelopes of non-polyhedral couples, sampled along the curve of optimal splits.

For every couple whose exponents are not both in {1, inf}, `envelope.KEnvelope`
evaluates the couple's curve of optimal splits at chosen parameter values:
each gives a t, the supporting line of the split optimal there and a dual
lower end of K at t.  `real_norm` and `windowed_real_norm` reduce the lines
and the chords through the lower ends for q in {1, 2, inf}.  These tests hold
every line and chord against K itself, the q = inf upper end against K
witnesses, and the (2, 2) brackets against `oracles.l2_l2_real_norm`.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from interpol_lab import functors
from interpol_lab.functors import real_norm, windowed_real_norm
from interpol_lab.envelope import KEnvelope
from interpol_lab.spaces import BanachCouple, WeightedSpace, k_profile, unit_binade

from oracles import l2_l2_real_norm

INF = math.inf
EXPONENTS = (1.0, 1.5, 2.0, 3.0, INF)
PAIRS = [p for p in itertools.product(EXPONENTS, EXPONENTS) if not {*p} <= {1.0, INF}]
SEEDED = settings(max_examples=120, deadline=None, derandomize=True)


def couple_of(p0, w0, p1, w1):
    return BanachCouple(WeightedSpace(p0, w0), WeightedSpace(p1, w1))


def draw_case(rng, pair, span, zero_entry, dims=(1, 6)):
    d = int(rng.integers(dims[0], dims[1] + 1))
    C = couple_of(pair[0], np.exp(rng.uniform(-span, span, d)), pair[1], np.exp(rng.uniform(-span, span, d)))
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    if zero_entry and d > 1:
        x[rng.integers(d)] = 0.0
    return C, x


def lower_bound(level, ts):
    """The lower bound a level's reduction reads: chords through its lower
    ends, t K_lo(v0) / v0 left of them and K_lo(v_last) right."""
    return np.where(ts < level.ts[0], ts * (level.lo[0] / level.ts[0]), np.interp(ts, level.ts, level.lo))


@SEEDED
@given(
    pair=st.sampled_from(PAIRS),
    seed=st.integers(0, 2**32 - 1),
    span=st.sampled_from([1.5, 5.0]),
    theta=st.floats(0.05, 0.97),
    zero_draw=st.integers(0, 2),
)
def test_envelope_lines_and_chords_bound_k(pair, seed, span, theta, zero_draw):
    rng = np.random.default_rng(seed)
    C, x = draw_case(rng, pair, span, zero_draw == 0)
    m = unit_binade(np.abs(x))[0]
    t0, t1 = functors._corners(m, C)
    ts = np.exp(rng.uniform(math.log(t0) - 2.0, math.log(t1) + 2.0, 200))
    k_lo, k_hi = k_profile(m, C, ts)
    env = KEnvelope.of(C, m)
    for level in (env.level(0), env.level(1)):
        _, a, b = level.upper
        # every line bounds K at every t, not only on its own piece
        assert np.all(a[:, None] + b[:, None] * ts[None, :] >= k_lo[None, :]), pair
        # the dual lower ends are sums of d products: a few ulps of round-off,
        # which the norms' 1e-12 pad covers
        assert np.all(lower_bound(level, ts) <= k_hi * (1 + 2e-15)), pair
    # the q = inf upper end is above every K witness
    x_lo = k_profile(x, C, ts)[0]
    assert real_norm(x, C, theta, INF).upper >= np.max(ts**-theta * x_lo)
    # the default levels meet these widths
    for q, rtol in ((1.0, 1e-8), (2.0, 1e-8), (INF, 1e-6)):
        real_norm(x, C, theta, q, rtol=rtol)


@pytest.mark.parametrize("case", range(4))
def test_l2_l2_brackets_hold_the_fifty_digit_norm(case):
    rng = np.random.default_rng(100 + case)
    d = (1, 2, 3, 3)[case]
    C, x = draw_case(rng, (2.0, 2.0), (1.5, 5.0)[case % 2], case == 3, dims=(d, d))
    theta = float(rng.uniform(0.05, 0.97))
    for q in (1.0, 2.0):
        exact = float(l2_l2_real_norm(x, C, theta, q))
        for rtol in (None, 1e-8):
            b = real_norm(x, C, theta, q, rtol=rtol)
            assert b.contains(exact), (q, rtol, b, exact)


@pytest.mark.parametrize(
    "p0,w0,p1,w1,x",
    [
        (2.0, [1.5], 3.0, [0.2], [0.7 - 0.1j]),                    # d = 1
        (1.5, [1.0, 2.0], 1.5, [1.0, 2.0], [1.0, 0.5j]),           # equal spaces
        (2.0, [1.0, 4.0, 0.5], INF, [3.0, 0.3, 2.0], [0, 2.0, 0]),  # one nonzero entry
    ],
    ids=["one-dim", "equal-spaces", "one-entry"],
)
def test_degenerate_corner_window_is_the_two_corner_lines(p0, w0, p1, w1, x):
    # K is min(N0, t N1) exactly: the envelope is the corner lines alone
    C = couple_of(p0, w0, p1, w1)
    m = unit_binade(np.abs(np.asarray(x, dtype=complex)))[0]
    env = KEnvelope.of(C, m)
    n0, n1 = C.space0.norm(m), C.space1.norm(m)
    breaks, a, b = env.level(3).upper
    assert env.exact and env.level(3) is env.level(0)
    assert breaks.tolist() == [0.0, n0 / n1, INF]
    assert (a.tolist(), b.tolist()) == ([0.0, n0], [n1, 0.0])
    for q in (1.0, 2.0, INF):
        assert real_norm(x, C, 0.3, q).relative_width <= 2.1e-12
        assert windowed_real_norm(x, C, 0.3, q).relative_width <= 2.1e-12


def test_levels_nest_and_tighten():
    # level k bisects where level k - 1's gap exceeds 4 tau_k, so it holds
    # level k - 1's abscissae, and its brackets are no wider
    rng = np.random.default_rng(5)
    for pair in [(2.0, 2.0), (1.0, 2.0), (3.0, 1.5), (INF, 1.5)]:
        C, x = draw_case(rng, pair, 1.5, False, dims=(4, 4))
        env = KEnvelope.of(C, unit_binade(np.abs(x))[0])
        for k in range(3):
            assert np.isin(env.level(k).ts, env.level(k + 1).ts).all(), pair
        for q in (1.0, INF):
            w = [functors._envelope_bracket(env.level(k), 0.4, q).relative_width for k in range(4)]
            assert w == sorted(w, reverse=True), (pair, q, w)
