"""K envelopes: certified bounds on K(t, x) for every t at once.

K is concave in t, so every split (x0, x1) of x gives a supporting line
t -> N0(x0) + t N1(x1) >= K, and the chords through certified lower ends of
K lie below it.  ``KEnvelope`` holds such bounds for one couple and one
unit-binade |x|: for pairs with both exponents in {1, inf} it is exact, the
lower envelope of a few lines found by the sandwich method; for every other
pair it samples the curve of optimal splits that the K paths of
:mod:`.spaces` move along, which gives a t, a line and a dual lower end per
parameter value without a root, in levels of shrinking sandwich gap.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.special import expit

from . import spaces
from .errors import ArgumentError, PrecisionError
from .spaces import (
    _PROFILE_LOCK,
    INF,
    BanachCouple,
    _dual_lower,
    _frozen,
    _memoised,
    _remainders,
    _rows_pnorm,
    _split_logits,
    _split_parts,
    _subgradient,
    as_vector,
    is_polyhedral,
)

# a split's line is rounded up by (d + 2) eps = 2 (d + 2) units of round-off,
# twice the d + 1 that each norm of a part (one of them a difference) takes
_LINE_ULPS = np.finfo(float).eps
# sandwich steps are a few per line of K; this only bounds round-off loops
_ENVELOPE_MAX_EVALUATIONS = 256


def _sandwich(couple: BanachCouple, m):
    """(ts, lo, upper) of a polyhedral couple's K by the sandwich method (G.
    Rote, Computing 48, 1992), exact up to round-off; see :class:`KEnvelope`.
    K is evaluated through ``spaces.k_functional``, the public entry point,
    so that whatever observes or replaces it there sees these evaluations."""
    s0, s1 = couple.space0, couple.space1
    grow = 1.0 + _LINE_ULPS * (m.size + 2)
    close = 4.0 * (grow - 1.0)
    evaluated, breaks, a, b = [], [0.0], [], []

    def piece(end, line):
        breaks.append(end)
        a.append(line[0])
        b.append(line[1])

    def sandwich(A, B, tl, tr):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x = (B[0] - A[0]) / (A[1] - B[1])
        if not (len(evaluated) < _ENVELOPE_MAX_EVALUATIONS and tl < x < tr):
            split = min(max(x, tl), tr) if x == x else tl
            piece(split, A)
            piece(tr, B)
            return
        ev = spaces.k_functional(x, m, couple)
        evaluated.append((x, ev.lower))
        x0, x1 = ev.splitter
        L = (s0.norm(x0) * grow, s1.norm(x1) * grow)
        below = L[0] + L[1] * x < min(A[0] + A[1] * x, B[0] + B[1] * x) * (1.0 - close)
        if below and B[1] < L[1] < A[1]:
            sandwich(A, L, tl, x)
            sandwich(L, B, x, tr)
        else:
            piece(x, A)
            piece(tr, B)

    sandwich((0.0, s1.norm(m)), (s0.norm(m), 0.0), 0.0, INF)
    if not evaluated:
        raise PrecisionError("the corner lines of K do not cross at a finite t > 0")
    ts, lo = np.array(sorted(evaluated)).T
    return ts, lo, (np.array(breaks), np.array(a), np.array(b))


# Curves of optimal splits.  Each maps a parameter sigma, increasing with t,
# to (t, lower end of K at t, shares lam, lam1 of the split optimal at t) on
# the support of a unit-binade m, vectorised over sigma, and comes with the
# parameter range (sigma_a, sigma_b) that level 0 samples and, per end,
# whether the curve goes on beyond it (the corner is approached only in the
# limit) or ends there (at a corner or a kink of K).  Neither the soundness of
# a line (the objective of a feasible split) nor that of a dual lower end
# depends on how accurately t is the point where the split is optimal.


def _curve_l2_l2(m, w0, w1):
    """(2, 2), sigma = log kappa: u = m kappa w1^2 / (w0^2 + kappa w1^2) and
    v = m w0^2 / (w0^2 + kappa w1^2) split m optimally at t = kappa B / A with
    A = ||w0 u||_2, B = ||w1 v||_2, where :func:`_k_l2_l2`'s dual
    nu = w0^2 u / A certifies it."""
    w0sq, w1sq = w0 * w0, w1 * w1

    def at(sigma):
        kappa = np.exp(sigma)[:, None]
        den = w0sq + kappa * w1sq
        lam, lam1 = kappa * w1sq / den, w0sq / den
        A, B = _rows_pnorm(m * lam, w0, 2.0), _rows_pnorm(m * lam1, w1, 2.0)
        t = kappa[:, 0] * B / A
        nu = w0sq * (m * lam) / A[:, None]
        lo = np.sum(m * nu, axis=1) / np.maximum(1.0, _rows_pnorm(nu, 1.0 / w1, 2.0) / t)
        return t, lo, lam, lam1

    r = np.log(w0sq / w1sq)
    return at, (float(r.min()) - 2.0, float(r.max()) + 2.0), (True, True)


def _curve_l1_l2(m, w0, w1):
    """(1, 2), sigma = log lam: :func:`_k_l1_l2`'s dual z = min(w0, lam w1^2 m)
    has ||z / w0||_inf <= 1 and ||z / w1||_2 = t, and x1 = min(m, w0 / (lam
    w1^2)) is optimal there.  Below the first saturation the split is the left
    corner, above the last t stays at the right corner t1 (a kink of K)."""
    w1sq = w1 * w1
    levels = w0 / (w1sq * m)

    def at(sigma):
        lam = np.exp(sigma)[:, None]
        z = np.minimum(w0, lam * w1sq * m)
        lam1 = np.minimum(1.0, levels / lam)
        return _rows_pnorm(z, 1.0 / w1, 2.0), np.sum(m * z, axis=1), 1.0 - lam1, lam1

    ends = np.log(levels)
    return at, (float(ends.min()), float(ends.max())), (False, False)


def _curve_finite(m, w0, p0, w1, p1):
    """Finite pairs, sigma = s = log rho: the logits of :func:`_split_logits`
    at s split m optimally at log t = s - (p0 - 1) log N0(a) + (p1 - 1) log
    N1(m - a), the root G(s) = 0 of :func:`_k_finite`, and its dual candidates
    certify it.  With an exponent 1 the coordinates saturate one by one between
    s = min(-k) and max(-k), and outside that range t stays at a corner."""
    lm, lw0, lw1 = np.log(m), np.log(w0), np.log(w1)
    k = p1 * lw1 - p0 * lw0 + (p1 - p0) * lm

    def log_norm(p, lw, y):  # log N of the part m expit(-y), from the logs
        e = p * (lw + lm - np.logaddexp(0.0, y))
        top = np.max(e, axis=1, keepdims=True)
        return (top[:, 0] + np.log(np.sum(np.exp(e - top), axis=1))) / p

    def at(s):
        y = _split_logits(s[:, None] + k, p0, p1)
        log_t = s.copy()
        if p0 > 1:
            log_t -= (p0 - 1.0) * log_norm(p0, lw0, -y)
        if p1 > 1:
            log_t += (p1 - 1.0) * log_norm(p1, lw1, y)
        t, lam, lam1 = np.exp(log_t), expit(y), expit(-y)
        z0, z1 = _subgradient(m * lam, w0, p0), t[:, None] * _subgradient(m * lam1, w1, p1)
        cands = [z0, z1, 0.5 * (z0 + z1), np.minimum(z0, z1)]
        return t, _dual_lower(m, w0, p0, w1, p1, t, cands), lam, lam1

    waterfill = 1.0 in (p0, p1)
    margin = 0.0 if waterfill else 2.0 * max(p0, p1)
    return at, (float(np.min(-k)) - margin, float(np.max(-k)) + margin), (not waterfill,) * 2


def _curve_sup_budget(m, w0, p0, w1):
    """(p0, inf), 1 < p0 < inf, sigma = -log u of the sup budget u: x0 =
    (m - u / w1)_+ is optimal at t = R(u) = ||grad N0(x0) / w1||_1, as in
    :func:`_k_sup_budget`.  Above the second largest kink u = m_i w1_i only the
    largest coordinates are left in x0 and t stays at t0 (a kink of K), so the
    range starts exactly there; None if every m_i w1_i is equal (K is then the
    corner lines)."""
    z = m * w1
    knots = np.unique(z)
    if knots.size < 2:
        return None
    top = (z == knots[-1]) / w1
    start = -math.log(knots[-2])

    def at(sigma):
        # the start is the kink itself: exp(-start) may round below it
        u = np.where(sigma <= start, knots[-2], np.exp(-sigma))[:, None]
        y = _remainders(m, u, w1, z)
        g = _subgradient(y, w0, p0)
        t = np.sum(g / w1, axis=1)
        lo = _dual_lower(m, w0, p0, w1, INF, t, [g, _subgradient(top, w0, p0)])
        return t, lo, y / m, np.minimum(1.0, u / z)

    return at, (start, 2.0 - math.log(knots[0])), (False, True)


def _split_curve(couple: BanachCouple, m):
    """(at, range, open ends, support) of the couple's curve of optimal splits
    on the support of m, in the couple's own orientation; None where K is
    min(N0(m), t N1(m)) exactly (equal spaces, one nonzero entry)."""
    s0, s1 = couple.space0, couple.space1
    sup = m > 0
    if s0.equals(s1) or np.count_nonzero(sup) == 1:
        return None
    m, (w0, p0), (w1, p1) = m[sup], (s0.weights[sup], s0.p), (s1.weights[sup], s1.p)
    swap = (p0 == INF and p1 != INF) or (p0, p1) == (2, 1)
    if swap:
        (w0, p0), (w1, p1) = (w1, p1), (w0, p0)
    if (p0, p1) == (2, 2):
        curve = _curve_l2_l2(m, w0, w1)
    elif (p0, p1) == (1, 2):
        curve = _curve_l1_l2(m, w0, w1)
    elif p1 == INF:
        curve = _curve_sup_budget(m, w0, p0, w1)
    else:
        curve = _curve_finite(m, w0, p0, w1, p1)
    if curve is None:
        return None
    if not swap:
        return curve + (sup,)
    # K(t; X0, X1) = t K(1/t; X1, X0): sigma runs backwards, the parts swap
    inner, (a, b), (open_a, open_b) = curve

    def at(sigma):
        s, lo, lam, lam1 = inner(-sigma)
        return 1.0 / s, lo / s, lam1, lam

    return at, (-b, -a), (open_b, open_a), sup


_ENVELOPE_GAP = 1e-5         # tau_0, the relative sandwich gap of level 0
_ENVELOPE_GAP_FLOOR = 1e-13  # about the round-off of the lines and lower ends
_ENVELOPE_STEP = 1.0         # level-0 parameter spacing, in log units
_ENVELOPE_MAX_NODES = 1 << 15
_ENVELOPE_MAX_ROUNDS = 64    # bisection depth per level; bounds round-off loops


class _EnvelopeLevel:
    """One level of certified piecewise-affine bounds on K(t, m) for every
    t > 0 (see :class:`KEnvelope`).

    ``upper`` = (breaks, a, b) with breaks[0] = 0, breaks[-1] = inf: on
    [breaks[j], breaks[j + 1]] K(t) <= a_j + b_j t, each piece a supporting
    line, so the bound is sound whatever round-off placed the breaks; the
    first piece is t N1(m), the last N0(m).  ``ts`` (increasing) and ``lo``
    are abscissae and certified lower ends of K there.
    """

    def __init__(self, ts, lo, upper):
        self.ts, self.lo = _frozen(np.array(ts, dtype=float), np.array(lo, dtype=float))
        self.upper = _frozen(*(np.array(u, dtype=float) for u in upper))
        self._reductions = {}

    def reduction(self, key, build: Callable):
        """``build(self, key)``, memoised per key: what a reduction of the
        level reads that depends on K alone."""
        with _PROFILE_LOCK:
            if key not in self._reductions:
                self._reductions[key] = build(self, key)
            return self._reductions[key]

    @classmethod
    def of_lines(cls, a, b) -> "_EnvelopeLevel":
        """The level whose two bounds are min_j (a_j + b_j t) itself, for
        lines a_j, b_j >= 0 among which one passes through 0 and one is
        constant (the corners of that minimum)."""
        hull = []
        for ai, bi in zip(*(np.asarray(v, dtype=float)[np.lexsort((a, -np.asarray(b)))] for v in (a, b))):
            if hull and bi == hull[-1][1]:
                continue  # the same slope, a larger intercept
            while hull and hull[-1][0] >= ai:
                hull.pop()  # a larger slope and intercept: above for every t > 0
            while len(hull) >= 2:
                (a1, b1), (a2, b2) = hull[-2], hull[-1]
                if (a2 - a1) * (b2 - bi) < (ai - a2) * (b1 - b2):
                    break
                hull.pop()  # not below both neighbours anywhere
            hull.append((ai, bi))
        ha, hb = (np.array(v) for v in zip(*hull))
        ts = (ha[1:] - ha[:-1]) / (hb[:-1] - hb[1:])
        return cls(ts, ha[1:] + hb[1:] * ts, (np.concatenate([[0.0], ts, [INF]]), ha, hb))


def _lines_level(sigma, vals, corners):
    """The :class:`_EnvelopeLevel` of the corner lines and the curve's lines
    ``vals`` = (t, lo, a, b) at sorted ``sigma``, and the relative sandwich
    gap of each of its cells (corner, node 1, ..., node n, corner)."""
    t, lo, a, b = vals
    n0, n1 = corners
    # t rises with sigma up to round-off; K is nondecreasing, so a lower
    # end certified at t stays one at any larger t
    ts = np.maximum.accumulate(t)
    la, lb = np.concatenate([[0.0], a, [n0]]), np.concatenate([[n1], b, [0.0]])
    touch = np.concatenate([[0.0], ts, [INF]])
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (la[1:] - la[:-1]) / (lb[:-1] - lb[1:])
    # any break is sound; one at 0 or inf (coinciding lines, round-off)
    # moves to the touching point of the cell's inner line
    x = np.clip(x, touch[:-1], touch[1:])
    x = np.where((x > 0) & (x < INF), x, np.where(touch[1:] < INF, touch[1:], touch[:-1]))
    up = np.minimum(la[:-1] + lb[:-1] * x, la[1:] + lb[1:] * x)
    low = np.where(x < ts[0], x * (lo[0] / ts[0]), np.interp(x, ts, lo))
    gaps = (up - low) / up
    # one lower end per abscissa, the best of those that round to it
    ts_u, first = np.unique(ts, return_index=True)
    level = _EnvelopeLevel(ts_u, np.maximum.reduceat(lo, first), (np.concatenate([[0.0], x, [INF]]), la, lb))
    return level, gaps


class KEnvelope:
    """Certified piecewise-affine bounds on K(t, m) for every t > 0, by
    levels: the lower envelope of supporting lines N0(x0) + t N1(x1) >= K,
    one per split, above the chords through certified lower ends of K.

    * Polyhedral couples (:func:`is_polyhedral`) are exact at level 0, by the
      sandwich method (G. Rote, Computing 48, 1992): from the corner lines
      t N1(m) and N0(m), K is evaluated by :func:`~interpol_lab.spaces.k_functional` at the
      crossing x of two adjacent lines A, B; the split (x0, x1) found there
      gives the supporting line N0(x0) + t N1(x1), rounded outward.  If it
      does not go below min(A, B) at x, K is A then B between their touching
      points (K is concave and touches both); otherwise it is inserted and
      both halves are processed.  A crossing that is not finite or not
      strictly inside its segment (nearly parallel lines) closes it.
    * Where K is min(N0(m), t N1(m)) (equal spaces, one nonzero entry) the
      two corner lines are exact.
    * Every other couple samples its curve of optimal splits (``_curve_*``):
      each parameter value gives, without a root, a t, the line of the split
      optimal at t, rounded outward, and a dual lower end of K at t.  Level 0
      starts from a geometric grid of the parameter over the corner window.
      Level k bisects the parameter of every cell whose sandwich gap, the
      line minimum at the crossing of its two lines over the chord through
      its lower ends there, exceeds tau_k = 1e-5 4^-k relative, and extends
      an open end of the curve outward while the corner cell's gap does; a
      cell's gap depends on its two ends alone.  Levels are built in order,
      each from the last, so level k holds level k - 1's nodes and an answer
      does not depend on which levels were asked for first.  tau_k stops at
      1e-13, about the round-off of the lines and lower ends, and a level
      that would pass ``_ENVELOPE_MAX_NODES`` nodes is the previous one.

    Levels are :class:`_EnvelopeLevel` objects; obtain envelopes through
    :meth:`of`.
    """

    def __init__(self, couple: BanachCouple, m: np.ndarray):
        couple = BanachCouple(couple.space0, couple.space1)  # memo-free, as in KProfile
        m = np.array(m, dtype=float)
        self._corners = (couple.space0.norm(m), couple.space1.norm(m))
        self._levels, self._curve = [], None
        if is_polyhedral(couple):
            self._levels.append(_EnvelopeLevel(*_sandwich(couple, m)))
            return
        curve = _split_curve(couple, m)
        if curve is None:
            n0, n1 = self._corners
            self._levels.append(_EnvelopeLevel([n0 / n1], [n0], ([0.0, n0 / n1, INF], [0.0, n0], [n1, 0.0])))
            return
        at, (lo, hi), open_ends, sup = curve
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise PrecisionError(f"the curve of optimal splits spans [{lo:.3e}, {hi:.3e}]")
        s0, s1 = couple.space0, couple.space1
        ms, w0, w1 = m[sup], s0.weights[sup], s1.weights[sup]

        def sample(sigma):
            t, lower, lam, lam1 = at(sigma)
            x0, x1 = _split_parts(ms, lam, lam1)
            # x0 + x1 = m up to one rounding of the larger part; a norm
            # takes up to d + 6 roundings
            grow = 1.0 + 4.0 * (ms.size + 6) * _LINE_ULPS
            vals = (t, lower, _rows_pnorm(x0, w0, s0.p) * grow, _rows_pnorm(x1, w1, s1.p) * grow)
            ok = np.isfinite(np.vstack(vals)).all(axis=0) & (t > 0)
            return sigma[ok], tuple(v[ok] for v in vals)

        self._curve = sample
        count = max(1, int(math.ceil((hi - lo) / _ENVELOPE_STEP)) + 1)
        self._sigma, self._vals = sample(np.linspace(lo, hi, count))
        if not self._sigma.size:
            raise PrecisionError("no finite sample of the curve of optimal splits")
        self._open = list(open_ends)
        self._reach = [_ENVELOPE_STEP, _ENVELOPE_STEP]  # the next outward step per end

    @property
    def exact(self) -> bool:
        """Level 0 is exact up to round-off, and every level is level 0."""
        return self._curve is None

    def level(self, k: int) -> _EnvelopeLevel:
        if k < 0:
            raise ArgumentError("envelope level must be nonnegative")
        with _PROFILE_LOCK:
            if self._curve is None:
                return self._levels[0]
            while len(self._levels) <= k:
                self._levels.append(self._refined(_ENVELOPE_GAP * 4.0 ** -len(self._levels)))
            return self._levels[k]

    def _refined(self, tau: float) -> _EnvelopeLevel:
        tau = max(tau, _ENVELOPE_GAP_FLOOR)
        for round_ in range(_ENVELOPE_MAX_ROUNDS):
            level, gaps = _lines_level(self._sigma, self._vals, self._corners)
            sigma, wide = self._sigma, gaps > tau
            split = wide[1:-1] & (np.diff(sigma) > 1e-12 * np.maximum(1.0, np.abs(sigma[1:])))
            new, ends = [0.5 * (sigma[:-1] + sigma[1:])[split]], []
            for end, (cell, edge, sign) in enumerate(((0, sigma[0], -1.0), (-1, sigma[-1], 1.0))):
                if wide[cell] and self._open[end]:
                    ends.append((end, edge + sign * self._reach[end]))
                    self._reach[end] *= 2.0
            new = np.concatenate(new + [[e] for _, e in ends])
            if not new.size or sigma.size + new.size > _ENVELOPE_MAX_NODES:
                # nothing added: the last level again, with its reductions
                return self._levels[-1] if round_ == 0 and self._levels else level
            got, vals = self._curve(new)
            for end, edge in ends:
                if not np.any(got == edge):
                    self._open[end] = False  # no finite sample further out
            order = np.argsort(np.concatenate([sigma, got]), kind="stable")
            self._sigma = np.concatenate([sigma, got])[order]
            self._vals = tuple(np.concatenate([v, w])[order] for v, w in zip(self._vals, vals))
        return _lines_level(self._sigma, self._vals, self._corners)[0]

    @classmethod
    def of(cls, couple: BanachCouple, x) -> "KEnvelope":
        """The envelope of x over the couple, memoised beside the couple's K
        profiles (:meth:`~interpol_lab.spaces.KProfile.of`) and keyed by the
        bytes of |x|."""
        m = np.abs(as_vector(x, couple.dim))
        return _memoised(couple, (m.tobytes(),), lambda: cls(couple, m))
