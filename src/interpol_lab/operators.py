"""Matrices acting between couples: norms, inverses, spectra, positivity.

Operator norms between weighted l^p spaces are exact whenever a closed form
exists (domain exponent 1: column formula; codomain exponent inf: row
formula with the domain dual norm; the 2 -> 2 case: largest singular value
of the weight-scaled matrix).  Remaining exponent pairs return a certified
bracket: an ascent lower bound from candidate vectors and an upper bound
obtained by writing both spaces as Calderon midpoints of exactly computable
anchors (norms are log-convex along such segments), with counting-measure
embeddings as a fallback.

One batched kernel computes them for a whole stack of (exponent, weights)
pairs sharing one matrix: a single norm is the stack of one, and the
Calderon norms of a theta grid are one stack.  The theta-independent
endpoint norms are cached on each ``CoupleOperator``, and ``invert`` keeps
the inverse with its own cache, so a sweep computes them once per operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .brackets import NormBracket
from .errors import ArgumentError, SingularOperatorError
from .functors import FunctorFamily, FunctorSpec, calderon_weights
from .spaces import INF, BanachCouple, WeightedSpace

SINGULARITY_GATE = 1e-10
# one pass of the batched norm kernel takes at most this many matrix entries
# over its stack, which bounds its temporaries on long theta grids
_CHUNK_ENTRIES = 1 << 16


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


def _pnorms(wy: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Weighted l^p norms of nonnegative magnitudes along the last axis, one
    exponent per leading index; zero and non-finite maxima are returned as
    they are, as in ``magnitude_pnorm``."""
    p = p.reshape(p.shape + (1,) * (wy.ndim - 2))
    m = np.max(wy, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = m * np.sum((wy / m[..., None]) ** p[..., None], axis=-1) ** (1.0 / p)
    out = np.where(p == 1, np.sum(wy, axis=-1), np.where(p == INF, m, scaled))
    return np.where((m == 0.0) | ~np.isfinite(m), m, out)


def _col_formula(absM, wa, pb, wb) -> np.ndarray:
    """Exact norms from weighted l^1 domains: the best scaled column."""
    cols = np.swapaxes(wb[:, :, None] * absM, 1, 2)
    return np.max(_pnorms(cols, pb) / wa, axis=1)


def _row_formula(absM, pa, wa, wb) -> np.ndarray:
    """Exact norms into weighted l^inf codomains: the best row in the dual
    norm of the domain."""
    with np.errstate(divide="ignore", invalid="ignore"):
        dual = np.where(pa == 1, INF, np.where(pa == INF, 1.0, pa / (pa - 1.0)))
    return np.max(wb * _pnorms((1.0 / wa)[:, None, :] * absM, dual), axis=1)


def _ascent_lower(M, pa, wa, pb, wb) -> np.ndarray:
    """Best ratio ||Mx|| / ||x|| over the unit vectors, the top right singular
    vector of the weight-scaled matrix, 4 random vectors from
    ``default_rng(0)``, and two phase-aligned gradient steps from each."""
    K, n = wa.shape
    rng = np.random.default_rng(0)
    rand = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    try:
        top = np.conj(np.linalg.svd(wb[:, :, None] * M / wa[:, None, :])[2][:, 0, :]) / wa
    except np.linalg.LinAlgError:  # non-finite entries: a zero candidate is skipped
        top = np.zeros((K, n), dtype=complex)
    X = np.concatenate(
        [np.broadcast_to(np.eye(n), (K, n, n)), top[:, None, :], np.broadcast_to(rand, (K, 4, n))],
        axis=1,
    )
    Y = X @ M.T
    grad = np.conj((Y / np.maximum(np.abs(Y), 1e-300)) @ M)
    gnorm = np.maximum(np.linalg.norm(grad, axis=-1, keepdims=True), 1e-300)
    P = np.concatenate([X] + [X + step * grad / gnorm for step in (0.5, 0.1)], axis=1)
    nx = _pnorms(wa[:, None, :] * np.abs(P), pa)
    ny = _pnorms(wb[:, None, :] * np.abs(P @ M.T), pb)
    ok = (nx > 0) & np.tile(nx[:, : X.shape[1]] > 0, 3)  # steps only from nonzero candidates
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.max(np.where(ok, ny / nx, 0.0), axis=1)


def _upper_bound(absM, pa, wa, pb, wb) -> np.ndarray:
    """Least finite upper bound: counting-measure embeddings into the row and
    column formulas, and where 1/pa >= 1/pb the segment bound, which writes
    A and B as the same Calderon midpoint lam of exactly normed anchors with
    identical weights, l^1 -> l^q0 and l^p1 -> l^inf (the norm is log-convex
    along the segment)."""
    m, n = absM.shape
    u, v = 1.0 / pa, 1.0 / pb
    seg = np.full(pa.shape, INF)
    s = u >= v
    us, vs = u[s], v[s]
    lam = 1.0 - 0.5 * (us + vs)
    with np.errstate(divide="ignore"):
        p1 = np.where(us == vs, INF, (2.0 - us - vs) / (us - vs))
    n_a = _col_formula(absM, wa[s], (us + vs) / (2.0 * vs), wb[s])
    seg[s] = n_a ** (1.0 - lam) * _row_formula(absM, p1, wa[s], wb[s]) ** lam
    emb_row = m**v * _row_formula(absM, pa, wa, wb)
    emb_col = n ** (1.0 - u) * _col_formula(absM, wa, pb, wb)
    uppers = np.stack([seg, emb_row, emb_col])
    return np.min(np.where(np.isfinite(uppers), uppers, INF), axis=0)


@dataclass(frozen=True)
class OperatorNormStack:
    """Brackets of one matrix between a stack of weighted-space pairs."""

    lower: np.ndarray
    upper: np.ndarray
    methods: np.ndarray

    def at(self, k: int) -> OperatorNormResult:
        bracket = NormBracket(float(self.lower[k]), float(self.upper[k]))
        return OperatorNormResult(bracket, str(self.methods[k]))


def _operator_norms(M, pa, wa, pb, wb) -> OperatorNormStack:
    """Norms of M from l^pa[k](wa[k]) to l^pb[k](wb[k]) for every k, in passes
    of at most _CHUNK_ENTRIES // M.size stack entries."""
    step = max(1, _CHUNK_ENTRIES // M.size)
    parts = [
        _norm_pass(M, pa[s], wa[s], pb[s], wb[s])
        for s in (slice(i, i + step) for i in range(0, max(pa.size, 1), step))
    ]
    return OperatorNormStack(*(np.concatenate(arrays) for arrays in zip(*parts)))


def _norm_pass(M, pa, wa, pb, wb):
    """Each entry takes the first exact formula that applies (column, row,
    spectral); the others get the ascent lower end and the least upper end."""
    absM = np.abs(M)
    col = pa == 1
    row = ~col & (pb == INF)
    spectral = ~col & ~row & (pa == 2) & (pb == 2)
    bracket = ~(col | row | spectral)
    upper = np.empty(pa.shape)
    methods = np.full(pa.shape, "iterative-bracket", dtype=object)
    if col.any():
        upper[col], methods[col] = _col_formula(absM, wa[col], pb[col], wb[col]), "exact-1"
    if row.any():
        upper[row], methods[row] = _row_formula(absM, pa[row], wa[row], wb[row]), "exact-inf"
    if spectral.any():
        scaled = wb[spectral][:, :, None] * M / wa[spectral][:, None, :]
        upper[spectral] = np.linalg.svd(scaled, compute_uv=False)[:, 0]
        methods[spectral] = "exact-2-spectral"
    lower = upper.copy()
    if bracket.any():
        args = (pa[bracket], wa[bracket], pb[bracket], wb[bracket])
        upper[bracket] = _upper_bound(absM, *args)
        lower[bracket] = np.minimum(_ascent_lower(M, *args), upper[bracket])
    return lower, upper, methods


def operator_norm(T, from_space: WeightedSpace, to_space: WeightedSpace) -> OperatorNormResult:
    """Norm of T between two weighted spaces: the batched kernel on a stack of one."""
    M = _as_matrix(T)
    if M.shape != (to_space.dim, from_space.dim):
        raise ArgumentError(
            f"matrix shape {M.shape} does not map dim {from_space.dim} "
            f"to dim {to_space.dim}"
        )
    A, B = from_space, to_space
    stack = _operator_norms(M, np.array([A.p]), A.weights[None], np.array([B.p]), B.weights[None])
    return stack.at(0)


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


def invert(T: CoupleOperator) -> CoupleOperator:
    """Matrix inverse as an operator from the codomain couple back to the
    domain couple; gated on the scale-free singular-value threshold.  It is
    kept in T's cache, so callers share it and the endpoint norms cached on it.
    """
    key = ("inverse",)
    if key not in T._cache:
        if T.matrix.shape[0] != T.matrix.shape[1]:
            raise SingularOperatorError("only square operators can be inverted")
        if not is_invertible(T):
            sv = T.singular_values()
            raise SingularOperatorError(
                f"operator fails the invertibility gate: sigma_min/sigma_max = "
                f"{sv[-1] / sv[0]:.3e}",
                sigma_min=float(sv[-1]),
                sigma_max=float(sv[0]),
            )
        T._cache[key] = CoupleOperator(np.linalg.inv(T.matrix), T.codomain, T.domain)
    return T._cache[key]


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


def reciprocal_or_zero(upper: np.ndarray) -> np.ndarray:
    """1/upper where upper > 0, else 0: a bounded norm forces the norm of the
    inverse at least this large."""
    with np.errstate(divide="ignore"):
        return np.where(upper > 0, 1.0 / upper, 0.0)


def interpolated_operator_norms(
    T: CoupleOperator, family: FunctorFamily, thetas: Sequence[float]
) -> OperatorNormStack:
    """Norms of T between the interpolation spaces at every theta of a grid.

    Calderon: the spaces are concrete weighted lattices, so the norms are the
    (possibly exact) weighted operator norms, evaluated for the whole grid
    in one batched pass.  Real (theta, q): the method is exact of exponent
    theta, giving the certified upper bound N0^(1-theta) N1^theta from the
    endpoint norms cached on T; the reported lower end is the trivial 0.
    """
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 1:
        raise ArgumentError("thetas must be a 1-d array")
    if th.size:
        for t in (th.min(), th.max()):  # the admissible parameters form an interval
            family.at(float(t))
    if family.kind == "calderon":
        pa, wa = calderon_weights(T.domain, th)
        pb, wb = calderon_weights(T.codomain, th)
        return _operator_norms(T.matrix, pa, wa, pb, wb)
    n0 = T.endpoint_norm(0).upper
    n1 = T.endpoint_norm(1).upper
    upper = n0 ** (1.0 - th) * n1**th
    return OperatorNormStack(np.zeros(th.shape), upper, np.full(th.shape, "interpolation-bracket"))


def interpolated_operator_norm(
    M, domain: BanachCouple, codomain: BanachCouple, spec: FunctorSpec
) -> OperatorNormResult:
    """Norm of M between the interpolation spaces at spec.theta: the grid of one."""
    T = CoupleOperator(M, domain, codomain)
    family = FunctorFamily(spec.kind, spec.q, spec.quadrature)
    return interpolated_operator_norms(T, family, [spec.theta]).at(0)


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
        res = interpolated_operator_norms(invert(shifted), spec_family, thetas)
        fwd = interpolated_operator_norms(shifted, spec_family, thetas)
        lower[i] = np.maximum(res.lower, reciprocal_or_zero(fwd.upper))
        upper[i] = res.upper
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
