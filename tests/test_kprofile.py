"""Contract of the K-profile engine behind the real-method norms."""

import itertools
import math

import numpy as np
import pytest

from interpol_lab import spaces
from interpol_lab.errors import PrecisionError
from interpol_lab.functors import QuadratureConfig, real_norm, windowed_real_norm
from interpol_lab.spaces import PROFILE_MEMO_SIZE, BanachCouple, KProfile, WeightedSpace

INF = math.inf
EXPONENTS = (1.0, 2.0, INF)
QS = (1.0, 2.0, INF)


def random_couple(rng, p0, p1, d, span=1.5):
    return BanachCouple(
        WeightedSpace(p0, np.exp(rng.uniform(-span, span, d))),
        WeightedSpace(p1, np.exp(rng.uniform(-span, span, d))),
    )


def bracket_or_best(x, C, theta, q, cfg, rtol):
    try:
        b = real_norm(x, C, theta, q, cfg, rtol=rtol, max_refinements=2)
    except PrecisionError as exc:
        b = exc.bracket
    return b.lower, b.upper


@pytest.mark.parametrize(
    "pair", list(itertools.product(EXPONENTS, EXPONENTS)), ids=lambda pair: "%g-%g" % pair
)
def test_answers_do_not_depend_on_call_history(pair):
    # a small grid keeps the per-point (2, inf) and (inf, 2) paths cheap;
    # rtol forces refinement levels and PrecisionError best brackets
    p0, p1 = pair
    rng = np.random.default_rng(3 * EXPONENTS.index(p0) + EXPONENTS.index(p1))
    d = 3
    C = random_couple(rng, p0, p1, d)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    cfg = QuadratureConfig(1e-3, 1e3, 2)
    calls = [(th, q) for q in QS for th in (0.2, 0.5, 0.8)]
    fresh = {}
    for th, q in calls:
        C_new = BanachCouple(C.space0, C.space1)
        fresh[th, q] = bracket_or_best(x, C_new, th, q, cfg, 1e-6)
    warmed = BanachCouple(C.space0, C.space1)
    for th, q in reversed(calls):
        assert bracket_or_best(x, warmed, th, q, cfg, 1e-6) == fresh[th, q]


def counting_k_profile(monkeypatch):
    evaluated = []
    inner = spaces.k_profile

    def counting(x, couple, ts):
        evaluated.append(np.array(ts, dtype=float))
        return inner(x, couple, ts)

    monkeypatch.setattr(spaces, "k_profile", counting)
    return evaluated


def test_memo_stays_within_its_bound(monkeypatch):
    rng = np.random.default_rng(2)
    C = random_couple(rng, 2.0, 1.0, 3)
    xs = [rng.normal(size=3) for _ in range(3 * PROFILE_MEMO_SIZE)]
    for x in xs:
        real_norm(x, C, 0.5, 2.0)
        assert len(C._profiles) <= PROFILE_MEMO_SIZE
    assert len(C._profiles) == PROFILE_MEMO_SIZE
    evaluated = counting_k_profile(monkeypatch)
    # the most recent vectors are kept and the oldest were evicted
    real_norm(xs[-1], C, 0.3, 1.0)
    assert evaluated == []
    real_norm(xs[0], C, 0.3, 1.0)
    assert evaluated != []
    # |x| is the key
    cfg = QuadratureConfig()
    assert KProfile.of(C, -1j * xs[1], cfg.t_min, cfg.t_max, cfg.intervals) is KProfile.of(
        C, xs[1], cfg.t_min, cfg.t_max, cfg.intervals
    )


def test_power_of_two_multiples_share_a_profile(monkeypatch):
    rng = np.random.default_rng(8)
    C = random_couple(rng, 1.0, 2.0, 3)
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    base = {q: real_norm(x, C, 0.4, q, rtol=1e-5) for q in QS}
    evaluated = counting_k_profile(monkeypatch)
    for q in QS:
        b = real_norm(-4.0 * x, C, 0.4, q, rtol=1e-5)
        assert (b.lower, b.upper) == (4.0 * base[q].lower, 4.0 * base[q].upper)
    assert evaluated == []


@pytest.mark.parametrize("p0,p1", [(2.0, 2.0), (1.0, 2.0), (1.0, 1.0), (INF, INF)])
def test_each_node_is_evaluated_once(monkeypatch, p0, p1):
    evaluated = counting_k_profile(monkeypatch)
    rng = np.random.default_rng(11)
    C = random_couple(rng, p0, p1, 4)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    thetas = np.linspace(0.15, 0.85, 5)
    first = {}
    for q in QS:
        for th in thetas:
            first[th, q] = real_norm(x, C, th, q, rtol=1e-5 if q != INF else 1e-4)
            windowed_real_norm(x, C, th, q)
    nodes = np.concatenate(evaluated)
    assert len(evaluated) >= 2  # refinement levels were built
    assert np.unique(nodes).size == nodes.size
    # a second pass over the same (couple, x) evaluates no K at all
    before = len(evaluated)
    for q in QS:
        for th in thetas:
            assert real_norm(x, C, th, q, rtol=1e-5 if q != INF else 1e-4) == first[th, q]
    assert len(evaluated) == before


def test_refined_level_nests_the_coarser_one():
    rng = np.random.default_rng(4)
    C = random_couple(rng, 2.0, 2.0, 3)
    cfg = QuadratureConfig()
    prof = KProfile.of(C, rng.normal(size=3), cfg.t_min, cfg.t_max, cfg.intervals)
    ts0, lo0, hi0 = prof.brackets(0)
    assert np.array_equal(ts0, cfg.grid())
    ts2, lo2, hi2 = prof.brackets(2)
    assert ts2.size == 4 * (ts0.size - 1) + 1
    assert np.array_equal(ts2[::4], ts0)
    # a finer level only tightens the monotone envelopes at shared nodes
    # (up to the round-off of the K(t)/t propagation)
    assert np.all(lo2[::4] >= lo0 * (1 - 1e-14))
    assert np.all(hi2[::4] <= hi0 * (1 + 1e-14))
    # asking again for level 0 after refining gives the same arrays
    again = prof.brackets(0)
    for a, b in zip((ts0, lo0, hi0), again):
        assert np.array_equal(a, b)
