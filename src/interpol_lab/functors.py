"""Interpolation-space norms over a couple.

Two families are realised:

* the real (theta, q) norm  ( int_0^inf (t^-theta K(t,x))^q dt/t )^(1/q)
  (sup for q = inf), computed as a certified bracket: the splitting
  functional is evaluated on a log grid, enclosed on every cell by the
  monotone envelopes implied by "K nondecreasing, K(t)/t nonincreasing",
  and the tails outside the grid window are bounded in closed form;

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
from .report import CheckReport
from .errors import ArgumentError, PrecisionError
from .spaces import (
    _PROFILE_LOCK,
    INF,
    BanachCouple,
    KProfile,
    WeightedSpace,
    enforce_monotone,
    as_vector,
    finite_vector,
    k_functional,
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

    def profile(self, x, couple: BanachCouple) -> KProfile:
        """The couple's memoised K profile of x whose level 0 is this grid."""
        return KProfile.of(couple, x, self.t_min, self.t_max, self.intervals)


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


def _power_integral(a: np.ndarray, b: np.ndarray, e: float) -> np.ndarray:
    """int_a^b t^(e-1) dt for 0 < a <= b, stable in log space."""
    return _log_power_integral(np.log(a), np.log(b), e)


def trivial_couple_constant(theta: float, q: float) -> float:
    """(theta, q) norm of a unit vector over an equal-space couple."""
    if q == INF:
        return 1.0
    return (1.0 / ((1.0 - theta) * q) + 1.0 / (theta * q)) ** (1.0 / q)


def _tangent_lines(ts, Klo, Khi):
    """Two upper tangent lines per cell from concavity of t -> K(t).

    The left line anchors at (t_k, Khi_k) with a slope at least the right
    derivative there (estimated from the previous chord), hence lies above K
    to the right of t_k; the right line anchors at (t_{k+1}, Khi_{k+1}) with
    a slope at most the left derivative there (next chord), hence lies above
    K to the left.  Their pointwise minimum resolves kinks to O(h^2).
    """
    n = ts.size
    dl = np.diff(ts)
    s_left = Khi / ts
    chord_prev = np.empty(n)
    chord_prev[0] = s_left[0]
    chord_prev[1:] = (Khi[1:] - Klo[:-1]) / dl
    bl = np.maximum(np.minimum(s_left, chord_prev), 0.0)[:-1]
    al = np.maximum(Khi[:-1] - bl * ts[:-1], 0.0)

    chord_next = np.zeros(n)
    chord_next[:-1] = np.maximum((Klo[1:] - Khi[:-1]) / dl, 0.0)
    br = np.empty(n - 1)
    br[:-1] = chord_next[1:-1]
    br[-1] = 0.0
    ar = np.maximum(Khi[1:] - br * ts[1:], 0.0)
    return al, bl, ar, br


def _tangent_crossings(ts, al, bl, ar, br):
    tl, tr = ts[:-1], ts[1:]
    den = bl - br
    with np.errstate(divide="ignore", invalid="ignore"):
        tx = np.where(den > 0, (ar - al) / np.where(den > 0, den, 1.0), tr)
    return np.clip(tx, tl, tr)


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
    kinks at t_up and the lower one at t_lo.  The two-sided concave tangents
    (crossing at tx) cut the upper end to O(h^2), and the chords lift the
    lower end.  All of it depends on K alone, so it is built once per
    (profile, level, grid kind) and every (theta, q) reduction reuses it.
    ``sup`` cells (q = inf) keep what the sup reads: t_up and tx with the
    envelope and the tangent minimum there.  The others keep the logs of
    every cell end, because the integrals are taken in log space.
    """

    def __init__(self, ts, Klo, Khi, sup: bool):
        self.ts, self.Klo, self.Khi = ts, Klo, Khi
        tl, tr = ts[:-1], ts[1:]
        kl_hi, kr_hi = Khi[:-1], Khi[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_up = np.where(kl_hi > 0, tl * kr_hi / np.where(kl_hi > 0, kl_hi, 1.0), tl)
        t_up = np.clip(t_up, tl, tr)
        al, bl, ar, br = _tangent_lines(ts, Klo, Khi)
        tx = _tangent_crossings(ts, al, bl, ar, br)
        if sup:
            self.t_up, self.tx = t_up, tx
            self.env_up = np.minimum(kr_hi, np.where(tl > 0, kl_hi * t_up / tl, kr_hi))
            self.tan_x = np.minimum(al + bl * tx, ar + br * tx)
            return
        kl_lo, kr_lo = Klo[:-1], Klo[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            t_lo = np.where(kr_lo > 0, tr * kl_lo / np.where(kr_lo > 0, kr_lo, 1.0), tr)
        t_lo = np.clip(t_lo, tl, tr)
        # one log of t_up serves both envelope pieces: t_up is already
        # clipped to [t_l, t_r], so max(t_up, t_l) is t_up
        self.log_ts, self.log_up, self.log_lo, self.log_tx = (np.log(a) for a in (ts, t_up, t_lo, tx))
        self.tangents = al, bl, ar, br
        self.chords = _chords(ts, Klo)


def _sup_window(c: _Cells, theta):
    """(lo, up) of the sup of t^-theta K over the window."""
    at_node = c.ts ** (-theta)
    at_left = c.Khi[:-1] * at_node[:-1]
    cell_sup = np.maximum(c.env_up * c.t_up ** (-theta), at_left)
    # t^-theta (A + B t) is largest at the cell ends or at the line
    # crossing, so three evaluations bound the cell sup
    at_cross = c.tan_x * c.tx ** (-theta)
    tan_sup = np.maximum.reduce([at_left, c.Khi[1:] * at_node[1:], at_cross])
    up = float(np.max(np.minimum(cell_sup, tan_sup)))
    return float(np.max(c.Klo * at_node)), up


def _integral_window(c: _Cells, theta, q):
    """(lo, up) of the integral of (t^-theta K)^q dt/t over the window, not
    yet raised to 1/q; the tangents and chords tighten it for q in {1, 2}."""
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
    if q in (1.0, 2.0):
        al, bl, ar, br = c.tangents
        lo = np.maximum(lo, _affine_power_integral(ltl, ltr, *c.chords, theta, q))
        up = np.minimum(
            up,
            _affine_power_integral(ltl, c.log_tx, al, bl, theta, q)
            + _affine_power_integral(c.log_tx, ltr, ar, br, theta, q),
        )
    return float(np.sum(lo)), float(np.sum(np.maximum(up, lo)))


def _tail_bracket(ts, Klo, Khi, theta, q, n0, n1):
    """Brackets ((lo, up) right, (lo, up) left) of the norm's two tails.

    n0 and n1 bound K(t) and K(t)/t: right of t_max, Klo[-1] <= K <=
    min(n0, Khi[-1] t / t_max); left of t_min, Klo[0] t / t_min <= K <=
    min(Khi[0], n1 t).  The parts combine as in the window: a sup for
    q = inf, integrals of q-th powers otherwise.
    """
    t_min, t_max = ts[0], ts[-1]
    if q == INF:
        right_up = n0 ** (1.0 - theta) * (Khi[-1] / t_max) ** theta
        left_up = Khi[0] ** (1.0 - theta) * n1**theta
        # at theta = 0 (1) the sup is the limit t -> inf (0), at least the edge value
        right_lo = Klo[-1] if theta == 0.0 else 0.0
        left_lo = Klo[0] / t_min if theta == 1.0 else 0.0
        return (right_lo, right_up), (left_lo, left_up)
    a0, a1 = -q * theta, q * (1.0 - theta)
    t_c = t_max * n0 / max(Khi[-1], 1e-300)
    right_up = (Khi[-1] / t_max) ** q * _power_integral(
        np.array([t_max]), np.array([t_c]), a1
    )[0] + n0**q * t_c**a0 / (q * theta)
    right_lo = Klo[-1] ** q * t_max**a0 / (q * theta)
    t_cl = min(Khi[0] / n1, t_min) if n1 > 0 else t_min
    left_up = n1**q * t_cl**a1 / a1 + Khi[0] ** q * _power_integral(
        np.array([max(t_cl, 1e-300)]), np.array([t_min]), a0
    )[0]
    left_lo = (Klo[0] / t_min) ** q * t_min**a1 / a1
    return (right_lo, right_up), (left_lo, left_up)


def _real_bracket(cells: _Cells, theta, q, ends=None):
    """(lo, up) of the real (theta, q) norm from one profile level's cells.

    With the endpoint bounds ``ends`` = (n0, n1) the window bracket is
    joined with the tail bracket; without them it is the windowed norm.
    """
    if q == INF:
        lo, up = _sup_window(cells, theta)
    else:
        lo, up = _integral_window(cells, theta, q)
    tails = ((0.0, 0.0), (0.0, 0.0))
    if ends is not None:
        try:
            tails = _tail_bracket(cells.ts, cells.Klo, cells.Khi, theta, q, *ends)
        except OverflowError:
            raise PrecisionError("real norm tail bound overflows") from None
    (r_lo, r_up), (l_lo, l_up) = tails
    if q == INF:
        return max(lo, r_lo, l_lo), max(up, r_up, l_up)
    return (lo + r_lo + l_lo) ** (1.0 / q), (up + r_up + l_up) ** (1.0 / q)


_ROUNDOFF_PAD = 1e-12


def _finite(lo: float, up: float) -> NormBracket:
    if not (math.isfinite(lo) and math.isfinite(up)):
        raise PrecisionError(f"real norm bracket ({lo}, {up}) is not finite")
    return NormBracket(lo, up)


def _padded(lo: float, up: float) -> NormBracket:
    return _finite(lo * (1.0 - _ROUNDOFF_PAD), up * (1.0 + _ROUNDOFF_PAD))


def _peak_abscissae(ts, Klo, Khi):
    return _tangent_crossings(ts, *_tangent_lines(ts, Klo, Khi))


class _CellSlot:
    """The cells of the most recently reduced profile: every level, both grid
    kinds.  Reducing another profile drops them, so one profile's cells are
    held at a time however many profiles the couples keep.
    """

    def __init__(self):
        self._owner = None     # weak reference to the profile
        self._cells = {}

    def get(self, profile: KProfile, level: int, sup: bool) -> _Cells:
        """The cells of a profile level; for q = inf (``sup``) the grid is
        the level's with the tangent-crossing abscissae inserted.

        The sup of t^-theta K is often attained between nodes (near kinks of
        K), so the inserted nodes let the grid lower bound reach the peak to
        O(h^2).  They depend on K alone, so the profile keeps the augmented
        grid for every theta.
        """
        with _PROFILE_LOCK:
            if self._owner is None or self._owner() is not profile:
                self._owner, self._cells = weakref.ref(profile), {}
            key = (level, sup)
            cells = self._cells.get(key)
            if cells is None:
                grid = profile.augmented(level, _peak_abscissae) if sup else profile.brackets(level)
                cells = self._cells[key] = _Cells(*grid, sup)
            return cells


_CELLS = _CellSlot()


def _unit_profile(x, couple: BanachCouple, cfg: Optional[QuadratureConfig]):
    """(profile, m, e) with |x| = 2^e m and m in the unit binade, where
    ``profile`` is the memoised K profile of m; None for x = 0."""
    x = finite_vector(x, couple.dim)
    if not np.any(np.abs(x) > 0):
        return None
    m, e = unit_binade(np.abs(x))
    return (cfg or DEFAULT_QUADRATURE).profile(m, couple), m, e


def _scaled(bracket: NormBracket, e: int) -> NormBracket:
    return _finite(float(np.ldexp(bracket.lower, e)), float(np.ldexp(bracket.upper, e)))


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

    The bracket is a reduction of the couple's K profile of |x| (see
    :class:`~interpol_lab.spaces.KProfile`), which no theta or q changes:
    later calls on the same (couple, x) evaluate no K at levels already
    built.  With ``rtol`` set, the grid is refined level by level, each
    level inserting the geometric midpoints of the previous one (points per
    decade doubled), until the relative bracket width drops below it;
    exhausting ``max_refinements`` levels raises :class:`PrecisionError`
    with the best bracket attached.
    """
    FunctorSpec("real", theta, q)  # parameter validation
    unit = _unit_profile(x, couple, cfg)
    if unit is None:
        return NormBracket(0.0, 0.0)
    profile, m, e = unit
    ends = (couple.space0.norm(m), couple.space1.norm(m))

    def at(level):
        return _padded(*_real_bracket(_CELLS.get(profile, level, q == INF), theta, q, ends))

    level, bracket = 0, at(0)
    while rtol is not None and bracket.relative_width > rtol and level < max_refinements:
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
    """Bracket of the norm restricted to the quadrature window (no tails)."""
    unit = _unit_profile(x, couple, cfg)
    if unit is None:
        return NormBracket(0.0, 0.0)
    profile, _, e = unit
    return _scaled(_padded(*_real_bracket(_CELLS.get(profile, 0, q == INF), theta, q)), e)


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
            # sup-norm brackets converge more slowly; the checked margins are
            # far wider than 1e-4 so this stays decisive
            rtol = max(rtol, 1e-4) if q == INF else rtol
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
    couple), giving a piecewise-linear upper profile in t.
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

    outer_cfg = QuadratureConfig(1e-6, 1e6, 16)
    ts = outer_cfg.grid()
    kvals = np.min(pairs[:, 0][None, :] + ts[:, None] * pairs[:, 1][None, :], axis=1)
    Klo, Khi = enforce_monotone(kvals.copy(), kvals.copy(), ts)
    # beyond the window the profile stays at its edge values: K(t_max) to
    # the right, the slope K(t_min) / t_min to the left
    _, up = _real_bracket(_Cells(ts, Klo, Khi, q == INF), lam, q, (Khi[-1], Khi[0] / ts[0]))
    return up / trivial_couple_constant(lam, q)
