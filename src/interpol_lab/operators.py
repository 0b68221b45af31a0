"""Matrices acting between couples: norms, inverses, spectra, positivity.

Operator norms between weighted l^p spaces are exact whenever a closed form
exists (domain exponent 1: column formula; codomain exponent inf: row
formula with the domain dual norm; the 2 -> 2 case: largest singular value
of the weight-scaled matrix).  Remaining exponent pairs return a certified
bracket: an ascent lower bound from candidate vectors and an upper bound
obtained by writing both spaces as Calderon midpoints of exactly computable
anchors (norms are log-convex along such segments), with counting-measure
embeddings as a fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .brackets import NormBracket, exact
from .errors import ArgumentError, SingularOperatorError
from .functors import FunctorSpec, calderon_complex_space
from .spaces import INF, BanachCouple, WeightedSpace

SINGULARITY_GATE = 1e-10


@dataclass(frozen=True)
class OperatorNormResult:
    bracket: NormBracket
    method: str

    @property
    def is_exact(self) -> bool:
        return self.method.startswith("exact")

    @property
    def value(self) -> float:
        return self.bracket.upper

    @property
    def lower(self) -> float:
        return self.bracket.lower

    @property
    def upper(self) -> float:
        return self.bracket.upper


def _as_matrix(T) -> np.ndarray:
    M = np.asarray(T, dtype=complex)
    if M.ndim != 2:
        raise ArgumentError("operator must be a 2-d matrix")
    return M


def _col_formula(M, wa, to_space: WeightedSpace) -> float:
    """Exact norm from a weighted l^1 domain: best scaled column."""
    vals = [to_space.norm(M[:, j]) / wa[j] for j in range(M.shape[1])]
    return float(np.max(vals))


def _row_formula(M, from_space: WeightedSpace, wb) -> float:
    """Exact norm into a weighted l^inf codomain: best dual-normed row."""
    dual = from_space.dual()
    vals = [wb[i] * dual.norm(np.conj(M[i, :])) for i in range(M.shape[0])]
    return float(np.max(vals))


def _spectral_formula(M, wa, wb) -> float:
    scaled = wb[:, None] * M / wa[None, :]
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def _ascent_lower(M, A: WeightedSpace, B: WeightedSpace, rng=None) -> float:
    rng = rng or np.random.default_rng(0)
    n = M.shape[1]
    cands = [np.eye(n, dtype=complex)[j] for j in range(n)]
    scaled = B.weights[:, None] * M / A.weights[None, :]
    try:
        _, _, vh = np.linalg.svd(scaled)
        cands.append(np.conj(vh[0]) / A.weights)
    except np.linalg.LinAlgError:
        pass
    cands.extend(rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n)))
    best = 0.0
    for x in cands:
        nx = A.norm(x)
        if nx == 0:
            continue
        ratio = B.norm(M @ x) / nx
        best = max(best, ratio)
        # one polishing sweep of coordinate phase alignment
        y = M @ x
        grad = np.conj(M.T @ (y / np.maximum(np.abs(y), 1e-300)))
        for step in (0.5, 0.1):
            cand = x + step * grad / max(np.linalg.norm(grad), 1e-300)
            ncand = A.norm(cand)
            if ncand > 0:
                best = max(best, B.norm(M @ cand) / ncand)
    return best


def _segment_upper(M, A: WeightedSpace, B: WeightedSpace) -> float:
    """Upper bound through exactly computable anchor pairs.

    Writes A and B as the same-parameter Calderon midpoint of anchor spaces
    with identical weights, then uses log-convexity of the operator norm
    along the segment; valid when 1/pa >= 1/pb.
    """
    u = 0.0 if A.p == INF else 1.0 / A.p
    v = 0.0 if B.p == INF else 1.0 / B.p
    if u < v:
        return math.inf
    lam = 1.0 - 0.5 * (u + v)
    if lam <= 0.0:  # pa = pb = 1: column formula is exact anyway
        return _col_formula(M, A.weights, B)
    if lam >= 1.0:
        return _row_formula(M, A, B.weights)
    q0 = INF if v == 0.0 else (u + v) / (2.0 * v)
    p1 = INF if u == v else (2.0 - u - v) / (u - v)
    n_a = _col_formula(M, A.weights, WeightedSpace(q0, B.weights))
    n_b = _row_formula(M, WeightedSpace(p1, A.weights), B.weights)
    return n_a ** (1.0 - lam) * n_b**lam


def operator_norm(T, from_space: WeightedSpace, to_space: WeightedSpace, rng=None) -> OperatorNormResult:
    M = _as_matrix(T)
    if M.shape != (to_space.dim, from_space.dim):
        raise ArgumentError(
            f"matrix shape {M.shape} does not map dim {from_space.dim} "
            f"to dim {to_space.dim}"
        )
    A, B = from_space, to_space
    if A.p == 1:
        return OperatorNormResult(exact(_col_formula(M, A.weights, B)), "exact-1")
    if B.p == INF:
        return OperatorNormResult(exact(_row_formula(M, A, B.weights)), "exact-inf")
    if A.p == 2 and B.p == 2:
        return OperatorNormResult(
            exact(_spectral_formula(M, A.weights, B.weights)), "exact-2-spectral"
        )
    lower = _ascent_lower(M, A, B, rng)
    uppers = [_segment_upper(M, A, B)]
    # counting-measure embeddings as fallbacks
    m, n = M.shape
    uppers.append(m ** (0.0 if B.p == INF else 1.0 / B.p) * _row_formula(M, A, B.weights))
    uppers.append(
        n ** (1.0 - (0.0 if A.p == INF else 1.0 / A.p)) * _col_formula(M, A.weights, B)
    )
    upper = min(u for u in uppers if np.isfinite(u))
    return OperatorNormResult(NormBracket(min(lower, upper), upper), "iterative-bracket")


# ---------------------------------------------------------------------------
# couple-level operator


@dataclass(frozen=True, eq=False)
class CoupleOperator:
    """A matrix acting between two couples, with cached endpoint norms."""

    matrix: np.ndarray
    domain: BanachCouple
    codomain: BanachCouple

    def __post_init__(self):
        M = _as_matrix(self.matrix)
        if M.shape != (self.codomain.dim, self.domain.dim):
            raise ArgumentError(
                f"matrix shape {M.shape} does not match couples "
                f"({self.codomain.dim} x {self.domain.dim})"
            )
        M = M.copy()
        M.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "_cache", {})

    @property
    def shape(self) -> Tuple[int, int]:
        return self.matrix.shape

    def apply(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=complex)

    def endpoint_norm(self, j: int) -> OperatorNormResult:
        key = ("endpoint", j)
        if key not in self._cache:
            self._cache[key] = operator_norm(
                self.matrix, self.domain.space(j), self.codomain.space(j)
            )
        return self._cache[key]

    def couple_norm(self) -> NormBracket:
        b0 = self.endpoint_norm(0).bracket
        b1 = self.endpoint_norm(1).bracket
        return NormBracket(max(b0.lower, b1.lower), max(b0.upper, b1.upper))

    def singular_values(self) -> np.ndarray:
        key = ("svd",)
        if key not in self._cache:
            self._cache[key] = np.linalg.svd(self.matrix, compute_uv=False)
        return self._cache[key]


def couple_norm(T: CoupleOperator) -> NormBracket:
    return T.couple_norm()


def invert(T: CoupleOperator) -> CoupleOperator:
    """Matrix inverse as an operator from the codomain couple back to the
    domain couple; gated on the scale-free singular-value threshold."""
    M = T.matrix
    if M.shape[0] != M.shape[1]:
        raise SingularOperatorError("only square operators can be inverted")
    sv = T.singular_values()
    if sv[-1] <= SINGULARITY_GATE * sv[0]:
        raise SingularOperatorError(
            f"operator fails the invertibility gate: sigma_min/sigma_max = "
            f"{sv[-1] / sv[0]:.3e}",
            sigma_min=float(sv[-1]),
            sigma_max=float(sv[0]),
        )
    return CoupleOperator(np.linalg.inv(M), T.codomain, T.domain)


def is_invertible(T: CoupleOperator) -> bool:
    M = T.matrix
    if M.shape[0] != M.shape[1]:
        return False
    sv = T.singular_values()
    return bool(sv[-1] > SINGULARITY_GATE * sv[0])


def inverse_norm(
    T: CoupleOperator, from_space: WeightedSpace, to_space: WeightedSpace
) -> OperatorNormResult:
    return operator_norm(invert(T).matrix, from_space, to_space)


@dataclass(frozen=True)
class GammaBound:
    bracket: NormBracket
    singular: bool


def gamma_lower_bound(T: CoupleOperator, from_space, to_space) -> GammaBound:
    """gamma(T) = inf_{||x||=1} ||Tx||; for invertible T it is the reciprocal
    of the inverse norm in the reversed spaces."""
    if not is_invertible(T):
        return GammaBound(NormBracket(0.0, 0.0), True)
    inv = inverse_norm(T, to_space, from_space)
    lo = 0.0 if inv.bracket.upper == 0 else 1.0 / inv.bracket.upper
    hi = math.inf if inv.bracket.lower == 0 else 1.0 / inv.bracket.lower
    hi = min(hi, 1e300)
    return GammaBound(NormBracket(lo, hi), False)


# ---------------------------------------------------------------------------
# interpolated norms


def interpolated_operator_norm(
    M,
    domain: BanachCouple,
    codomain: BanachCouple,
    spec: FunctorSpec,
) -> OperatorNormResult:
    """Norm of M between the interpolation spaces at spec.theta.

    Calderon: the spaces are concrete weighted lattices, so the norm is the
    (possibly exact) weighted operator norm.  Real (theta, q): the method is
    exact of exponent theta, giving the certified upper bound
    N0^(1-theta) N1^theta from the endpoint norms; the reported lower end is
    the reciprocal-free trivial bound 0 unless endpoint data pins it.
    """
    M = _as_matrix(M)
    theta = spec.theta
    if spec.kind == "calderon":
        return operator_norm(
            M, calderon_complex_space(domain, theta), calderon_complex_space(codomain, theta)
        )
    n0 = operator_norm(M, domain.space0, codomain.space0).bracket
    n1 = operator_norm(M, domain.space1, codomain.space1).bracket
    upper = n0.upper ** (1.0 - theta) * n1.upper**theta
    return OperatorNormResult(NormBracket(0.0, upper), "interpolation-bracket")


# ---------------------------------------------------------------------------
# spectrum and resolvent


def spectrum(T: CoupleOperator) -> np.ndarray:
    """Eigenvalues of the matrix; at finite dimension these do not depend on
    the interpolation parameter, so the containment of spectra across the
    scale holds with equality."""
    M = T.matrix
    if M.shape[0] != M.shape[1]:
        raise ArgumentError("spectrum requires a square operator")
    eig = np.linalg.eigvals(M)
    order = np.lexsort((eig.imag, eig.real))
    return eig[order]


@dataclass
class ResolventProfile:
    lambdas: np.ndarray
    thetas: np.ndarray
    lower: np.ndarray   # shape (len(lambdas), len(thetas))
    upper: np.ndarray
    infinite: np.ndarray
    eigenvalues: np.ndarray


def resolvent_profile(
    T: CoupleOperator,
    lambdas: Sequence[complex],
    thetas: Sequence[float],
    spec_family,
    eig_tol: float = 1e-12,
) -> ResolventProfile:
    """Brackets of the interpolated resolvent norm on a (lambda, theta) grid.

    Entries whose shift fails the invertibility gate are flagged infinite.
    Every finite upper end dominates 1/dist(lambda, spectrum).
    """
    if T.domain is not T.codomain and not (
        T.domain.space0.equals(T.codomain.space0)
        and T.domain.space1.equals(T.codomain.space1)
    ):
        raise ArgumentError("resolvent requires equal domain and codomain couples")
    lambdas = np.asarray(lambdas, dtype=complex)
    thetas = np.asarray(thetas, dtype=float)
    eig = spectrum(T)
    L, H = len(lambdas), len(thetas)
    lower = np.zeros((L, H))
    upper = np.zeros((L, H))
    infinite = np.zeros((L, H), dtype=bool)
    n = T.matrix.shape[0]
    for i, lam in enumerate(lambdas):
        shifted = CoupleOperator(T.matrix - lam * np.eye(n), T.domain, T.codomain)
        if not is_invertible(shifted) or np.min(np.abs(eig - lam)) <= eig_tol:
            infinite[i, :] = True
            continue
        inv = invert(shifted)
        for k, th in enumerate(thetas):
            spec = spec_family.at(th)
            res = interpolated_operator_norm(inv.matrix, T.codomain, T.domain, spec)
            fwd = interpolated_operator_norm(shifted.matrix, T.domain, T.codomain, spec)
            lo = res.bracket.lower
            if fwd.bracket.upper > 0:
                lo = max(lo, 1.0 / fwd.bracket.upper)
            lower[i, k] = lo
            upper[i, k] = res.bracket.upper
    return ResolventProfile(lambdas, thetas, lower, upper, infinite, eig)


# ---------------------------------------------------------------------------
# positivity


def is_positive(T) -> bool:
    """Entrywise nonnegativity with real entries."""
    M = _as_matrix(T)
    if np.any(np.abs(M.imag) > 0):
        return False
    return bool(np.all(M.real >= 0))


def is_order_isomorphism(T) -> bool:
    """Invertible with both the matrix and its inverse entrywise >= 0.

    The computed inverse is allowed a relative slack of 1e-12 against
    floating-point noise; genuine sign changes are far above it.
    """
    M = _as_matrix(T)
    if M.shape[0] != M.shape[1] or not is_positive(M):
        return False
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= SINGULARITY_GATE * sv[0]:
        return False
    Minv = np.linalg.inv(M)
    scale = float(np.max(np.abs(Minv)))
    return bool(
        np.all(Minv.real >= -1e-12 * scale)
        and np.all(np.abs(Minv.imag) <= 1e-12 * scale)
    )
