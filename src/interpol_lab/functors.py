"""Interpolation-space norms over a couple.

Two families are realised:

* the real (theta, q) norm  ( int_0^inf (t^-theta K(t,x))^q dt/t )^(1/q)
  (sup for q = inf), computed as a certified bracket.  For q in {1, 2, inf}
  it reduces K's envelope (:class:`~interpol_lab.envelope.KEnvelope`):
  supporting lines above K and chords through certified lower ends below
  it, every piece integrated in closed form.  Over couples with both
  exponents in {1, inf} the envelope is exact up to round-off; over the
  others its levels halve the sandwich gap.  For fractional q, outside the
  corner window [t0, t1] of x, K(t, x) is exactly t ||x||_1 or ||x||_0, so
  the tails there are closed forms; inside, the splitting functional is
  evaluated on the nodes of a log grid that cover the window (the
  quadrature config sets the grid's spacing and phase), and enclosed on
  every cell by the monotone envelopes implied by "K nondecreasing, K(t)/t
  nonincreasing";

* the Calderon construction on weighted lattices, which is exactly the
  weighted space with  1/p = (1-theta)/p0 + theta/p1  and coordinatewise
  weight w0^(1-theta) w1^theta, so its norm is exact.

The two embedding checks for a scale of these spaces (factor-2 comparison
with the endpoint parameters, and the windowed change-of-exponent bound)
live here as ``delta_condition_check``; ``reiteration_check`` asserts the
Calderon parameter identity exactly (``calderon_reiteration_check``) and
reports a measured equivalence ratio for the real method.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .brackets import NormBracket, exact
from .envelope import KEnvelope, _EnvelopeLevel
from .report import CheckReport
from .errors import ArgumentError, PrecisionError
from .spaces import (
    _PROFILE_LOCK,
    INF,
    BanachCouple,
    KProfile,
    WeightedSpace,
    as_vector,
    dual_exponent,
    enforce_monotone,
    finite_vector,
    k_functional,
    magnitude_pnorm,
    unit_binade,
)


@dataclass(frozen=True)
class QuadratureConfig:
    t_min: float = 1e-8
    t_max: float = 1e8
    points_per_decade: int = 32

    def __post_init__(self):
        if not (0 < self.t_min < 1 < self.t_max):
            raise ArgumentError("quadrature window must satisfy t_min < 1 < t_max")
        if self.points_per_decade < 1:
            raise ArgumentError("points_per_decade must be a positive integer")

    @property
    def intervals(self) -> int:
        decades = math.log10(self.t_max / self.t_min)
        return max(1, int(round(decades * self.points_per_decade)))

    def grid(self) -> np.ndarray:
        return np.exp(
            np.linspace(math.log(self.t_min), math.log(self.t_max), self.intervals + 1)
        )

    def nodes_around(self, t0: float, t1: float):
        """((i, t_i), (j, t_j)) with t_i <= t0 < t1 <= t_j the nodes next to
        [t0, t1] of this grid's log lattice t_k = t_min r^k, extended beyond
        [t_min, t_max] (r = (t_max / t_min)^(1 / intervals)); up to the
        round-off of the logs, which callers widen [t0, t1] against."""
        lo = math.log(self.t_min)
        h = (math.log(self.t_max) - lo) / self.intervals
        i, j = math.floor((math.log(t0) - lo) / h), math.ceil((math.log(t1) - lo) / h)
        return (i, math.exp(lo + i * h)), (j, math.exp(lo + j * h))


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class FunctorSpec:
    """A single interpolation functor: real (theta, q) or Calderon theta."""

    kind: str
    theta: float
    q: float = INF
    quadrature: QuadratureConfig = field(default=DEFAULT_QUADRATURE)

    def __post_init__(self):
        if self.kind not in ("real", "calderon"):
            raise ArgumentError(f"unknown functor kind {self.kind!r}")
        if self.kind == "calderon":
            if not (0.0 < self.theta < 1.0):
                raise ArgumentError("Calderon parameter must lie in (0, 1)")
        else:
            if not (self.q >= 1.0):
                raise ArgumentError("q must satisfy 1 <= q <= inf")
            inside = 0.0 < self.theta < 1.0
            at_end = self.theta in (0.0, 1.0) and self.q == INF
            if not (inside or at_end):
                raise ArgumentError(
                    "theta must lie in (0,1); the endpoints require q = inf"
                )


@dataclass(frozen=True)
class FunctorFamily:
    """A theta-indexed family with the remaining parameters fixed."""

    kind: str
    q: float = INF
    quadrature: QuadratureConfig = field(default=DEFAULT_QUADRATURE)

    def __post_init__(self):
        if self.kind not in ("real", "calderon"):
            raise ArgumentError(f"unknown functor kind {self.kind!r}")
        if self.kind == "real" and not self.q >= 1.0:
            raise ArgumentError("q must satisfy 1 <= q <= inf")

    def at(self, theta: float) -> FunctorSpec:
        return FunctorSpec(self.kind, theta, self.q, self.quadrature)

    def label(self) -> str:
        return "calderon" if self.kind == "calderon" else f"real(q={self.q})"


# ---------------------------------------------------------------------------
# real-method norm via certified envelope quadrature


def _log_power_integral(la, lb, e: float):
    """int_a^b t^(e-1) dt for 0 < a <= b from la = log a and lb = log b."""
    if abs(e) < 1e-9:
        return (lb - la) * np.exp(e * 0.5 * (la + lb))
    return np.exp(e * la) * np.expm1(e * (lb - la)) / e


def trivial_couple_constant(theta: float, q: float) -> float:
    """(theta, q) norm of a unit vector over an equal-space couple."""
    if q == INF:
        return 1.0
    return (1.0 / ((1.0 - theta) * q) + 1.0 / (theta * q)) ** (1.0 / q)


def _chords(ts, Klo):
    """Chord coefficients (a, b) with K(t) >= a + b t on each cell (concavity)."""
    tl, tr = ts[:-1], ts[1:]
    dl = tr - tl
    b = np.maximum((Klo[1:] - Klo[:-1]) / dl, 0.0)
    a = np.maximum((Klo[:-1] * tr - Klo[1:] * tl) / dl, 0.0)
    return a, b


def _affine_power_integral(la, lb, A, B, theta, q):
    """int_a^b t^(-theta q - 1) (A + B t)^q dt for q in {1, 2}, closed form,
    from la = log a and lb = log b."""
    if q == 1.0:
        return A * _log_power_integral(la, lb, -theta) + B * _log_power_integral(la, lb, 1.0 - theta)
    e = -2.0 * theta
    return (
        A * A * _log_power_integral(la, lb, e)
        + 2.0 * A * B * _log_power_integral(la, lb, e + 1.0)
        + B * B * _log_power_integral(la, lb, e + 2.0)
    )


class _Cells:
    """The theta-independent geometry of one profile level's cells.

    On every cell the monotone envelopes of "K nondecreasing, K(t)/t
    nonincreasing" bound K; the upper one, min(Khi_(k+1), Khi_k t / t_k),
    kinks at t_up and the lower one at t_lo.  All of it depends on K alone,
    so it is built once per (profile, level) and every (theta, q) reduction
    reuses it, with the logs of every cell end, because the integrals are
    taken in log space.
    """

    def __init__(self, ts, Klo, Khi):
        self.ts, self.Klo, self.Khi = ts, Klo, Khi
        tl, tr = ts[:-1], ts[1:]
        kl_hi, kr_hi = Khi[:-1], Khi[1:]
        kl_lo, kr_lo = Klo[:-1], Klo[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up = np.where(kl_hi > 0, tl * kr_hi / np.where(kl_hi > 0, kl_hi, 1.0), tl)
            t_lo = np.where(kr_lo > 0, tr * kl_lo / np.where(kr_lo > 0, kr_lo, 1.0), tr)
        # one log of t_up serves both envelope pieces: t_up is clipped to
        # [t_l, t_r], so max(t_up, t_l) is t_up
        self.log_ts, self.log_up, self.log_lo = (
            np.log(a) for a in (ts, np.clip(t_up, tl, tr), np.clip(t_lo, tl, tr))
        )


def _integral_cells(c: _Cells, theta, q):
    """Per cell, (lo, up) of the integral of (t^-theta K)^q dt/t over the cell."""
    tl, tr = c.ts[:-1], c.ts[1:]
    kl_lo, kr_lo = c.Klo[:-1], c.Klo[1:]
    kl_hi, kr_hi = c.Khi[:-1], c.Khi[1:]
    ltl, ltr = c.log_ts[:-1], c.log_ts[1:]
    a0 = -q * theta            # exponent of the constant-K pieces
    a1 = q * (1.0 - theta)     # exponent of the K ~ t pieces
    up = np.where(
        kl_hi > 0, (kl_hi / tl) ** q * _log_power_integral(ltl, c.log_up, a1), 0.0
    ) + kr_hi**q * _log_power_integral(c.log_up, ltr, a0)
    lo = kl_lo**q * _log_power_integral(ltl, c.log_lo, a0) + np.where(
        kr_lo > 0, (kr_lo / tr) ** q * _log_power_integral(c.log_lo, ltr, a1), 0.0
    )
    return lo, np.maximum(up, lo)


def _corner_tails(theta, q, n0, n1, ta, tb, a=0.0, b=INF):
    """Exact (left, right) parts of the norm on [a, ta], where K(t) = n1 t,
    and on [tb, b], where K(t) = n0, each clipped to [a, b]: sups of
    t^-theta K for q = inf, integrals of (t^-theta K)^q dt/t otherwise.

    A part that overflows raises :class:`PrecisionError`.
    """
    n0, n1, ta, tb = float(n0), float(n1), float(ta), float(tb)
    left_end, right_end = min(ta, b), max(tb, a)
    left = right = 0.0
    try:
        if q == INF:
            if a < left_end:
                left = n1 * left_end ** (1.0 - theta)
            if right_end < b:
                right = n0 * right_end**-theta
            return left, right
        a1, a0 = q * (1.0 - theta), -q * theta
        if a < left_end:
            part = left_end**a1 / a1 if a == 0.0 else _log_power_integral(math.log(a), math.log(left_end), a1)
            left = n1**q * float(part)
        if right_end < b:
            part = right_end**a0 / -a0 if b == INF else _log_power_integral(math.log(right_end), math.log(b), a0)
            right = n0**q * float(part)
    except OverflowError:
        raise PrecisionError("real norm tail overflows") from None
    return left, right


def _real_bracket(cells: _Cells, theta, q, tails, part=slice(None)):
    """(lo, up) of the real (theta, q) norm, q finite, from the cells ``part``
    of one profile level joined with the exact ``tails`` of
    :func:`_corner_tails`."""
    lo, up = (float(np.sum(a[part])) for a in _integral_cells(cells, theta, q))
    return (lo + sum(tails)) ** (1.0 / q), (up + sum(tails)) ** (1.0 / q)


_ROUNDOFF_PAD = 1e-12


def _finite(lo: float, up: float) -> NormBracket:
    if not (math.isfinite(lo) and math.isfinite(up)):
        raise PrecisionError(f"real norm bracket ({lo}, {up}) is not finite")
    return NormBracket(lo, up)


def _padded(lo: float, up: float) -> NormBracket:
    return _finite(lo * (1.0 - _ROUNDOFF_PAD), up * (1.0 + _ROUNDOFF_PAD))


class _CellSlot:
    """The cells of the most recently reduced profile, every level.  Reducing
    another profile drops them, so one profile's cells are held at a time
    however many profiles the couples keep.
    """

    def __init__(self):
        self._owner = None     # weak reference to the profile
        self._cells = {}

    def get(self, profile: KProfile, level: int) -> _Cells:
        """The cells of a profile level."""
        with _PROFILE_LOCK:
            if self._owner is None or self._owner() is not profile:
                self._owner, self._cells = weakref.ref(profile), {}
            cells = self._cells.get(level)
            if cells is None:
                cells = self._cells[level] = _Cells(*profile.brackets(level))
            return cells


_CELLS = _CellSlot()


_CORNER_GUARD = 1e-9  # relative widening of the corner thresholds, against round-off


def _subgradient(m, space: WeightedSpace) -> np.ndarray:
    """A subgradient of the space's norm at the nonnegative magnitudes m,
    zero on the zero entries of m for p = 1 too, which narrows the corner
    window where x has zero entries."""
    w, p = space.weights, space.p
    if p == INF:
        g = np.zeros_like(m)
        k = int(np.argmax(w * m))
        g[k] = w[k]
        return g
    if p == 1:
        return w * (m > 0)
    return w * (w * m / magnitude_pnorm(m, w, p)) ** (p - 1.0)


def _dual_norm(g, space: WeightedSpace) -> float:
    return magnitude_pnorm(np.abs(g), 1.0 / space.weights, dual_exponent(space.p))


def _corners(m, couple: BanachCouple):
    """(t0, t1) with K(t, m) = t N1(m) for t <= t0 and K(t, m) = N0(m) for
    t >= t1, from one subgradient g_j of each N_j at m: t0 = 1 / ||g1||_X0*
    and t1 = ||g0||_X1*.

    By convexity N1(m - x0) >= N1(m) - <g1, x0> >= N1(m) - ||g1||_X0* N0(x0),
    so N0(x0) + t N1(m - x0) >= t N1(m) once t ||g1||_X0* <= 1, and likewise
    for N0.  Least-norm subgradients give the narrowest window; any others a
    wider one, still exact outside.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t0 = 1.0 / _dual_norm(_subgradient(m, couple.space1), couple.space0)
        t1 = _dual_norm(_subgradient(m, couple.space0), couple.space1)
    if not (0.0 < t0 and t1 < INF):
        raise PrecisionError(f"the corner window [{t0:.3e}, {t1:.3e}] of K is not finite")
    return t0, t1


@dataclass(frozen=True)
class _CornerWindow:
    """The nodes t_a = t_first <= t0 < t1 <= t_b = t_(first + intervals) of a
    quadrature grid's log lattice around the corner window [t0, t1] of a
    unit-binade m (:func:`_corners`), widened by ``_CORNER_GUARD`` first, and
    the endpoint norms n0 = N0(m), n1 = N1(m) that K equals outside it."""

    first: int
    intervals: int
    t_a: float
    t_b: float
    n0: float
    n1: float

    @classmethod
    def of(cls, m, couple: BanachCouple, cfg: QuadratureConfig) -> "_CornerWindow":
        t0, t1 = _corners(m, couple)
        (i, t_a), (j, t_b) = cfg.nodes_around(t0 * (1.0 - _CORNER_GUARD), t1 * (1.0 + _CORNER_GUARD))
        return cls(i, j - i, t_a, t_b, couple.space0.norm(m), couple.space1.norm(m))


class _WindowSlot:
    """The corner window of the (couple, |x|, grid) asked for last.  It
    depends on neither theta nor q, and callers ask one pair at several
    (theta, q) in a row, so the corners are computed once per profile."""

    def __init__(self):
        self._owner, self._key, self._window = None, None, None

    def get(self, couple: BanachCouple, m, cfg: QuadratureConfig) -> _CornerWindow:
        key = (m.tobytes(), cfg)
        with _PROFILE_LOCK:
            if self._owner is None or self._owner() is not couple or self._key != key:
                window = _CornerWindow.of(m, couple, cfg)
                self._owner, self._key, self._window = weakref.ref(couple), key, window
            return self._window


_WINDOWS = _WindowSlot()


def _unit(x, couple: BanachCouple):
    """(m, e) with |x| = 2^e m and m in the unit binade; None for x = 0."""
    m = np.abs(finite_vector(x, couple.dim))
    return unit_binade(m) if m.max() > 0 else None


def _unit_profile(x, couple: BanachCouple, cfg: Optional[QuadratureConfig]):
    """(profile, m, e, window) with |x| = 2^e m and m in the unit binade,
    where ``profile`` is the memoised K profile of m on its corner
    ``window``; None for x = 0."""
    unit = _unit(x, couple)
    if unit is None:
        return None
    m, e = unit
    win = _WINDOWS.get(couple, m, cfg or DEFAULT_QUADRATURE)
    return KProfile.of(couple, m, win.t_a, win.t_b, win.intervals), m, e, win


def _scaled(bracket: NormBracket, e: int) -> NormBracket:
    return _finite(float(np.ldexp(bracket.lower, e)), float(np.ldexp(bracket.upper, e)))


# ---------------------------------------------------------------------------
# real norms for q in {1, 2, inf}, from K's line envelope

_ENVELOPE_QS = (1.0, 2.0, INF)


class _EnvelopeCells:
    """The theta-independent geometry of one K envelope level's two bounds
    within a window (t_min, t_max), which every (theta, q) reduction reuses.

    Each bound is a piecewise-affine f(t) = a_j + b_j t on [breaks_j,
    breaks_(j + 1)], breaks from 0 to inf, with f = b_0 t on the first piece
    and a_(-1) on the last (the exact tails of :func:`_corner_tails`).  The
    upper one is the level's supporting lines.  The lower one rests on K
    concave and K, K/t monotone: chords through the certified lower ends of
    K at the level's abscissae v, t K_lo(v_0) / v_0 left of the first and
    K_lo(v_last) right of the last.  t^-theta (a + b t) has no interior
    maximum on a piece, so for q = inf the upper end is read at the ends of
    the pieces, and the lower end at the abscissae and the window ends, from
    K_lo itself rather than from chord coefficients that a narrow piece
    would amplify.
    """

    def __init__(self, env: _EnvelopeLevel, window):
        self.window = t_min, t_max = window
        ts, lo = env.ts, env.lo
        ca, cb = _chords(ts, lo)
        lower = (np.concatenate([[0.0], ts, [INF]]), np.concatenate([[0.0], ca, [lo[-1]]]),
                 np.concatenate([[lo[0] / ts[0]], cb, [0.0]]))
        self.tails, pieces = [], []
        for breaks, a, b in (env.upper, lower):
            self.tails.append((a[-1], b[0], breaks[1], breaks[-2]))
            s, e = np.maximum(breaks[1:-2], t_min), np.minimum(breaks[2:-1], t_max)
            keep = s < e
            pieces.append((s[keep], e[keep], a[1:-1][keep], b[1:-1][keep]))
        self.split = pieces[0][0].size
        s, e, self.a, self.b = (np.concatenate(parts) for parts in zip(*pieces))
        self.log_s, self.log_e = np.log(s), np.log(e)
        # q = inf: the upper lines at both ends of their pieces, K_lo at the
        # abscissae and window ends inside the window
        s, e, a, b = pieces[0]
        self.up_at, self.log_up_t = np.concatenate([a + b * s, a + b * e]), np.concatenate([np.log(s), np.log(e)])
        at = np.concatenate([ts[(ts >= t_min) & (ts <= t_max)], [t for t in window if 0.0 < t < INF]])
        self.lo_at = np.where(at < ts[0], at * (lo[0] / ts[0]), np.interp(at, ts, lo))
        self.log_lo_t = np.log(at)

    def bracket(self, theta, q):
        """(lo, up) of the real (theta, q) norm, q in {1, 2, inf}, over the window."""
        (t_min, t_max), k = self.window, self.split
        up_tails, lo_tails = (_corner_tails(theta, q, *tail, t_min, t_max) for tail in self.tails)
        if q == INF:
            up = np.max(self.up_at * np.exp(-theta * self.log_up_t), initial=0.0)
            return float(np.max(self.lo_at * np.exp(-theta * self.log_lo_t))), max(up, *up_tails)
        parts = _affine_power_integral(self.log_s, self.log_e, self.a, self.b, theta, q)
        up, lo = float(np.sum(parts[:k])) + sum(up_tails), float(np.sum(parts[k:])) + sum(lo_tails)
        return lo ** (1.0 / q), up ** (1.0 / q)


def _envelope_bracket(level: _EnvelopeLevel, theta, q, window=(0.0, INF)) -> NormBracket:
    """The padded bracket of the real (theta, q) norm over ``window`` from
    one level of a K envelope."""
    return _padded(*level.reduction(window, _EnvelopeCells).bracket(theta, q))


def real_norm(
    x,
    couple: BanachCouple,
    theta: float,
    q: float,
    cfg: Optional[QuadratureConfig] = None,
    rtol: Optional[float] = None,
    max_refinements: int = 6,
) -> NormBracket:
    """Certified bracket for the real (theta, q) norm of x.

    For q in {1, 2, inf} the bracket is a reduction of one level of K's
    envelope of |x| (:class:`~interpol_lab.envelope.KEnvelope`, reduced by
    :class:`_EnvelopeCells`): every piece of its supporting lines and of
    the chords below them integrates in closed form, with a 1e-12
    round-off pad on each end, and ``cfg`` does not change it.  Over
    polyhedral couples (both exponents in {1, inf}), and where K is
    min(||x||_0, t ||x||_1), level 0 is exact.  Otherwise level k bounds
    K within a relative gap of 1e-5 4^-k; with ``rtol`` set, the first level
    whose bracket meets it is returned, and exhausting ``max_refinements``
    levels raises :class:`PrecisionError` with the best bracket attached.

    Fractional q runs the profile quadrature: K(t, x) is t ||x||_1 left of
    the corner window [t0, t1] of |x| and ||x||_0 right of it (see
    :class:`_CornerWindow`), so both tails are exact:
    ||x||_1^q t_a^(q(1-theta)) / (q(1-theta)) and
    ||x||_0^q t_b^(-q theta) / (q theta).  Only [t_a, t_b], the corner window
    widened to nodes of ``cfg``'s log lattice, is profiled: ``cfg`` sets the
    grid's spacing and phase, not where it ends.  The bracket is a reduction
    of the couple's K profile of |x| on that window (see
    :class:`~interpol_lab.spaces.KProfile`), which no theta or q changes:
    later calls on the same (couple, x) evaluate no K at levels already
    built.  With ``rtol`` set, the grid is refined level by level, each
    level inserting the geometric midpoints of the previous one (points per
    decade doubled), until the relative bracket width drops below it or
    ``max_refinements`` levels are exhausted, as above.
    """
    FunctorSpec("real", theta, q)  # parameter validation
    if q in _ENVELOPE_QS:
        unit = _unit(x, couple)
        if unit is None:
            return NormBracket(0.0, 0.0)
        m, e = unit
        env = KEnvelope.of(couple, m)
        depth = 0 if env.exact else max_refinements

        def at(level):
            return _envelope_bracket(env.level(level), theta, q)

    else:
        unit = _unit_profile(x, couple, cfg)
        if unit is None:
            return NormBracket(0.0, 0.0)
        profile, _, e, win = unit
        depth = max_refinements

        def at(level):
            cells = _CELLS.get(profile, level)
            tails = _corner_tails(theta, q, win.n0, win.n1, cells.ts[0], cells.ts[-1])
            return _padded(*_real_bracket(cells, theta, q, tails))

    level, bracket = 0, at(0)
    while rtol is not None and bracket.relative_width > rtol and level < depth:
        level += 1
        bracket = at(level)
    bracket = _scaled(bracket, e)
    if rtol is not None and bracket.relative_width > rtol:
        raise PrecisionError(
            f"real norm bracket width {bracket.relative_width:.3e} above {rtol:.3e}",
            bracket=bracket,
        )
    return bracket


def windowed_real_norm(
    x, couple: BanachCouple, theta: float, q: float, cfg: Optional[QuadratureConfig] = None
) -> NormBracket:
    """Bracket of the norm restricted to the quadrature window [t_min, t_max].

    For q in {1, 2, inf} it clips the pieces of level 0 of K's envelope,
    which :func:`real_norm` reduces, to [t_min, t_max].  Otherwise it reads
    level 0 of the profile that :func:`real_norm` reduces: the cells that
    lie in [t_min, t_max], plus the exact pieces of the two tails that lie
    in it, so no K outside the corner window is evaluated.
    """
    cfg = cfg or DEFAULT_QUADRATURE
    if q in _ENVELOPE_QS:
        unit = _unit(x, couple)
        if unit is None:
            return NormBracket(0.0, 0.0)
        m, e = unit
        level = KEnvelope.of(couple, m).level(0)
        return _scaled(_envelope_bracket(level, theta, q, (cfg.t_min, cfg.t_max)), e)
    unit = _unit_profile(x, couple, cfg)
    if unit is None:
        return NormBracket(0.0, 0.0)
    profile, _, e, win = unit
    cells = _CELLS.get(profile, 0)
    # the profile's level-0 nodes i..j are the lattice nodes 0..intervals of
    # cfg, and the cells between them are cells i..j-1 (none if j <= i)
    i, j = max(-win.first, 0), min(cfg.intervals - win.first, win.intervals)
    part = slice(i, max(i, j))
    tails = _corner_tails(theta, q, win.n0, win.n1, cells.ts[0], cells.ts[-1], cfg.t_min, cfg.t_max)
    return _scaled(_padded(*_real_bracket(cells, theta, q, tails, part)), e)


# ---------------------------------------------------------------------------
# Calderon construction on weighted lattices (exact)


def calderon_weights(couple: BanachCouple, theta):
    """Exponent and weights of the Calderon space; theta in [0, 1] allowed.

    An array of thetas gives an array of exponents and one row of weights
    per theta.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all((0.0 <= th) & (th <= 1.0)):
        raise ArgumentError("theta must lie in [0, 1]")
    s0, s1 = couple.space0, couple.space1
    inv_p = (1.0 - th) / s0.p + th / s1.p  # an l^inf endpoint adds 1/inf = 0
    with np.errstate(divide="ignore"):
        p = 1.0 / inv_p
    t = th[..., None]
    w = s0.weights ** (1.0 - t) * s1.weights**t
    return (float(p), w) if th.ndim == 0 else (p, w)


def calderon_complex_space(couple: BanachCouple, theta: float) -> WeightedSpace:
    """The Calderon space of the couple: exact weighted-lattice realisation."""
    if not (0.0 < theta < 1.0):
        raise ArgumentError("theta must lie in (0, 1)")
    p, w = calderon_weights(couple, theta)
    return WeightedSpace(p, w)


def vector_norm_bracket(
    x, couple: BanachCouple, spec: FunctorSpec, rtol: Optional[float] = None
) -> NormBracket:
    if spec.kind == "calderon":
        return exact(calderon_complex_space(couple, spec.theta).norm(x))
    return real_norm(x, couple, spec.theta, spec.q, spec.quadrature, rtol=rtol)


def calderon_reiteration_check(
    couple: BanachCouple,
    theta0: float,
    theta1: float,
    alpha: float,
    rtol: float = 1e-12,
) -> CheckReport:
    """(X_theta0)^(1-alpha) (X_theta1)^alpha = X_beta with
    beta = (1-alpha) theta0 + alpha theta1: exact parameter identity,
    endpoints of [0, 1] included."""
    for v in (theta0, theta1, alpha):
        if not (0.0 <= v <= 1.0):
            raise ArgumentError("parameters must lie in [0, 1]")
    p0, w0 = calderon_weights(couple, theta0)
    p1, w1 = calderon_weights(couple, theta1)
    inner = BanachCouple(WeightedSpace(p0, w0), WeightedSpace(p1, w1))
    p_it, w_it = calderon_weights(inner, alpha)
    beta = (1.0 - alpha) * theta0 + alpha * theta1
    p_di, w_di = calderon_weights(couple, beta)
    p_ok = (p_it == p_di) or (
        p_it != INF and p_di != INF and abs(p_it - p_di) <= rtol * abs(p_di)
    )
    dev = float(np.max(np.abs(w_it - w_di) / w_di))
    return CheckReport(
        "calderon-reiteration",
        bool(p_ok and dev <= rtol),
        {"beta": beta, "exponents": (p_it, p_di), "max_weight_reldev": dev},
    )


# ---------------------------------------------------------------------------
# intersection / sum / completion norms


def intersection_norm(x, A: WeightedSpace, B: WeightedSpace) -> float:
    if A.dim != B.dim:
        raise ArgumentError("intersection norm needs spaces of equal dimension")
    return max(A.norm(x), B.norm(x))


def sum_norm(x, A: WeightedSpace, B: WeightedSpace, tol: float = 1e-8) -> NormBracket:
    """Infimal decomposition norm of A + B; equals K(1, x) over (A, B)."""
    ev = k_functional(1.0, x, BanachCouple(A, B), tol=tol)
    return NormBracket(ev.value, ev.upper)


def gagliardo_norm(
    x, couple: BanachCouple, endpoint: int, cfg: Optional[QuadratureConfig] = None
) -> NormBracket:
    """Bracket for sup_t t^(-endpoint) K(t, x): the completion norm.

    At finite dimension the supremum equals the endpoint norm itself, which
    furnishes the exact upper end; the grid edge supplies the lower end.
    """
    if endpoint not in (0, 1):
        raise ArgumentError("endpoint must be 0 or 1")
    cfg = cfg or DEFAULT_QUADRATURE
    x = as_vector(x, couple.dim)
    if not np.any(np.abs(x) > 0):
        return NormBracket(0.0, 0.0)
    if endpoint == 0:
        ev = k_functional(cfg.t_max, x, couple)
        return NormBracket(min(ev.value, couple.space0.norm(x)), couple.space0.norm(x))
    ev = k_functional(cfg.t_min, x, couple)
    lo = ev.value / cfg.t_min
    return NormBracket(min(lo, couple.space1.norm(x)), couple.space1.norm(x))


# ---------------------------------------------------------------------------
# scale checks


def _interior_grid(theta0, theta1, count):
    offs = np.linspace(0.0, 1.0, count + 2)[1:-1]
    near = np.array([0.02, 0.98])
    rel = np.unique(np.concatenate([offs, near]))
    return theta0 + rel * (theta1 - theta0)


def delta_condition_check(
    couple: BanachCouple,
    theta0: float,
    theta1: float,
    family: FunctorFamily,
    samples: Sequence,
    grid_count: int = 5,
    rtol: float = 1e-5,
    slack: float = 1e-6,
) -> CheckReport:
    """Scale-embedding check between parameters theta0 < theta1.

    Real family: for every sample and interior theta, assert
      (i)  ||x||_theta <= 2 max(||x||_theta0, ||x||_theta1)   (upper vs lower
           bracket ends, so a PASS certifies the inequality), and
      (ii) the windowed change-of-exponent bounds
           W_theta0 <= b^(theta-theta0) W_theta  and
           W_theta1 <= a^(theta-theta1) W_theta
           over the quadrature window [a, b].
    Calderon family: the exact log-convexity inequality
      ||x||_theta <= ||x||_theta0^(1-lam) ||x||_theta1^lam.
    """
    if not (0.0 < theta0 < theta1 < 1.0):
        raise ArgumentError("need 0 < theta0 < theta1 < 1")
    grid = _interior_grid(theta0, theta1, grid_count)
    worst = {"factor2": 0.0, "window": 0.0, "logconvex": 0.0}
    witness = None
    passed = True
    cfg = family.quadrature

    for idx, x in enumerate(samples):
        x = as_vector(x, couple.dim)
        if not np.any(np.abs(x) > 0):
            continue
        if family.kind == "calderon":
            n0 = calderon_complex_space(couple, theta0).norm(x)
            n1 = calderon_complex_space(couple, theta1).norm(x)
            for th in grid:
                lam = (th - theta0) / (theta1 - theta0)
                lhs = calderon_complex_space(couple, th).norm(x)
                rhs = n0 ** (1.0 - lam) * n1**lam
                ratio = lhs / rhs if rhs > 0 else 0.0
                worst["logconvex"] = max(worst["logconvex"], ratio)
                if lhs > rhs * (1.0 + 1e-12):
                    passed = False
                    witness = witness or {"sample": idx, "theta": float(th)}
        else:
            q = family.q
            b0 = real_norm(x, couple, theta0, q, cfg, rtol=rtol)
            b1 = real_norm(x, couple, theta1, q, cfg, rtol=rtol)
            w0 = windowed_real_norm(x, couple, theta0, q, cfg)
            w1 = windowed_real_norm(x, couple, theta1, q, cfg)
            bound = 2.0 * max(b0.lower, b1.lower)
            a, b = cfg.t_min, cfg.t_max
            for th in grid:
                bt = real_norm(x, couple, th, q, cfg, rtol=rtol)
                ratio = bt.upper / bound if bound > 0 else 0.0
                worst["factor2"] = max(worst["factor2"], ratio)
                if bt.upper > bound * (1.0 + slack):
                    passed = False
                    witness = witness or {
                        "sample": idx,
                        "theta": float(th),
                        "check": "factor2",
                    }
                wt = windowed_real_norm(x, couple, th, q, cfg)
                cap0 = b ** (th - theta0) * wt.upper
                cap1 = a ** (th - theta1) * wt.upper
                for wnorm, cap in ((w0, cap0), (w1, cap1)):
                    r = wnorm.lower / cap if cap > 0 else 0.0
                    worst["window"] = max(worst["window"], r)
                    if wnorm.lower > cap * (1.0 + slack):
                        passed = False
                        witness = witness or {
                            "sample": idx,
                            "theta": float(th),
                            "check": "window",
                        }
    return CheckReport(
        name=f"delta-condition[{family.label()}]",
        passed=passed,
        details={"worst_ratios": worst, "theta0": theta0, "theta1": theta1},
        witness=witness,
    )


def reiteration_check(
    couple: BanachCouple,
    theta0: float,
    theta1: float,
    lam: float,
    family: FunctorFamily,
    samples: Optional[Sequence] = None,
    rtol: float = 1e-12,
) -> CheckReport:
    """Reiteration: iterating the scale at (theta0, theta1, lam) lands on the
    direct parameter (1-lam) theta0 + lam theta1.

    Calderon: the exact weight/exponent identity of
    :func:`calderon_reiteration_check`, asserted.
    Real: measured equivalence ratio between the iterated and direct norms
    (normalised so an equal-space couple reports 1); diagnostic only.
    """
    for v in (theta0, theta1, lam):
        if not (0.0 < v < 1.0):
            raise ArgumentError("parameters must lie in (0, 1)")
    if family.kind == "calderon":
        return calderon_reiteration_check(couple, theta0, theta1, lam, rtol)
    theta = (1.0 - lam) * theta0 + lam * theta1
    q = family.q
    cfg = family.quadrature
    samples = samples if samples is not None else []
    ratios = []
    for x in samples:
        x = as_vector(x, couple.dim)
        if not np.any(np.abs(x) > 0):
            continue
        direct = real_norm(x, couple, theta, q, cfg, rtol=1e-6).midpoint
        direct /= trivial_couple_constant(theta, q)
        est = _iterated_real_estimate(x, couple, theta0, theta1, lam, q, cfg)
        if direct > 0:
            ratios.append(est / direct)
    if not ratios:
        return CheckReport("reiteration[real]", True, {"ratios": []})
    return CheckReport(
        name="reiteration[real]",
        passed=True,
        details={
            "ratio_sup": float(np.max(ratios)),
            "ratio_inf": float(np.min(ratios)),
            "note": "diagnostic equivalence ratio, normalised to 1 on equal-space couples",
        },
    )


def _iterated_real_estimate(x, couple, theta0, theta1, lam, q, cfg):
    """Upper-flavoured estimate of the iterated-scale norm of x.

    Inner norms are normalised brackets' midpoints; the outer splitting
    functional is approximated from a finite family of candidate splits
    (constant shrinkages plus splitters harvested from the underlying
    couple): the minimum of their lines, a piecewise-linear upper profile in
    t.  For q in {1, 2, inf} that minimum is reduced exactly as a K envelope
    level; fractional q samples it on a log grid.
    """
    def inner(vec, th):
        b = real_norm(vec, couple, th, q, cfg, rtol=1e-6)
        return b.midpoint / trivial_couple_constant(th, q)

    d = couple.dim
    lams = [np.zeros(d), np.ones(d), np.full(d, 0.5)]
    for t_probe in (0.1, 1.0, 10.0):
        ev = k_functional(t_probe, x, couple)
        x0 = ev.splitter[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(np.abs(x) > 0, np.abs(x0) / np.where(np.abs(x) > 0, np.abs(x), 1.0), 0.0)
        lams.append(np.clip(frac, 0.0, 1.0))
    pairs = []
    for l in lams:
        a = inner(l * x, theta0)
        b = inner((1.0 - l) * x, theta1)
        pairs.append((a, b))
    pairs = np.array(pairs)
    if q in _ENVELOPE_QS:
        outer = _EnvelopeCells(_EnvelopeLevel.of_lines(pairs[:, 0], pairs[:, 1]), (0.0, INF))
        return outer.bracket(lam, q)[1] / trivial_couple_constant(lam, q)

    outer_cfg = QuadratureConfig(1e-6, 1e6, 16)
    ts = outer_cfg.grid()
    kvals = np.min(pairs[:, 0][None, :] + ts[:, None] * pairs[:, 1][None, :], axis=1)
    Klo, Khi = enforce_monotone(kvals.copy(), kvals.copy(), ts)
    # beyond the grid the profile saturates at its edge values: K(t_max) to
    # the right, the slope K(t_min) / t_min to the left
    tails = _corner_tails(lam, q, Khi[-1], Khi[0] / ts[0], ts[0], ts[-1])
    _, up = _real_bracket(_Cells(ts, Klo, Khi), lam, q, tails)
    return up / trivial_couple_constant(lam, q)
