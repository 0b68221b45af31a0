"""The batched operator-norm pass against the per-theta scalar loop.

``reference_sweep`` is the sweep as one scalar operator norm per theta and
per norm (``oracles.scalar_operator_norm``), with the verdict loop run base
point by base point.  The batched sweep must reproduce its brackets,
exactness labels, intervals and verdicts.
"""

import itertools
import math

import numpy as np
import pytest

from interpol_lab import operators
from interpol_lab.functors import FunctorFamily, calderon_complex_space
from interpol_lab.operators import (
    CoupleOperator,
    interpolated_operator_norms,
    invert,
    operator_norm,
)
from interpol_lab.spaces import BanachCouple, WeightedSpace
from interpol_lab.stability import _detect_intervals, eta_constant, sweep

from oracles import scalar_operator_norm

INF = math.inf
PS = (1.0, 2.0, INF)
FAMILIES = [FunctorFamily("calderon"), *(FunctorFamily("real", q) for q in PS)]
GRID = np.linspace(0.02, 0.98, 49)  # holds 0.5, where mixed pairs meet p = 2


def reference_norm(M, dom, cod, family, theta):
    """(lower, upper, method) of M at one theta, one scalar norm at a time."""
    if family.kind == "calderon":
        A = calderon_complex_space(dom, theta)
        B = calderon_complex_space(cod, theta)
        return scalar_operator_norm(M, A, B)
    n0 = scalar_operator_norm(M, dom.space0, cod.space0)[1]
    n1 = scalar_operator_norm(M, dom.space1, cod.space1)[1]
    return 0.0, n0 ** (1.0 - theta) * n1**theta, "interpolation-bracket"


def reference_records(T, family, grid):
    """Records (theta, fwd, inv, fwd method, inv method) and the
    invertibility flags."""
    sv = np.linalg.svd(T.matrix, compute_uv=False)
    invertible = bool(sv[-1] > operators.SINGULARITY_GATE * sv[0])
    Minv = np.linalg.inv(T.matrix) if invertible else None
    records = []
    for th in grid:
        flo, fup, fmeth = reference_norm(T.matrix, T.domain, T.codomain, family, th)
        inv = imeth = None
        if invertible:
            ilo, iup, imeth = reference_norm(Minv, T.codomain, T.domain, family, th)
            ilo = min(max(ilo, 1.0 / fup if fup > 0 else 0.0), iup)
            flo = min(max(flo, 1.0 / iup if iup > 0 else 0.0), fup)
            inv = (ilo, iup)
        records.append((th, (flo, fup), inv, fmeth, imeth))
    return records, np.full(len(grid), invertible)


def reference_verdicts(T, grid, records, flags, slack):
    """The verdicts as (name, passed, details, witness), base point by base
    point."""
    if not flags.all():
        return [("INVERTIBLE", False, {"note": "operator fails the gate"}, None)]
    ends = [scalar_operator_norm(T.matrix, T.domain.space(j), T.codomain.space(j)) for j in (0, 1)]
    opn = max(end[1] for end in ends)
    inv_up = np.array([r[2][1] for r in records])
    etas = np.array([eta_constant(th) for th in grid])
    eps = 1.0 / (2.0 * math.e * etas * (1.0 + opn * inv_up))
    factor2_ok = radius_ok = True
    worst_ratio = 0.0
    witness = None
    for i in range(len(grid)):
        window = np.abs(grid - grid[i]) < eps[i]
        ratios = inv_up[window] / inv_up[i]
        worst_ratio = max(worst_ratio, float(np.max(ratios)))
        if np.any(ratios > 2.0 * (1.0 + slack)):
            factor2_ok = False
            witness = witness or {"theta_star": float(grid[i]), "ratio": float(np.max(ratios))}
        if not np.all(flags[window]):
            radius_ok = False
            witness = witness or {"theta_star": float(grid[i]), "check": "radius"}
    return [
        ("FACTOR2", factor2_ok, {"worst_ratio": worst_ratio, "bound": 2.0 * (1.0 + slack)},
         None if factor2_ok else witness),
        ("RADIUS", radius_ok, {"min_eps": float(np.min(eps)), "max_eps": float(np.max(eps))},
         None if radius_ok else witness),
    ]


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def assert_same_mapping(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.keys() == b.keys()
        for k in a:
            assert a[k] == b[k] if isinstance(a[k], str) else close(a[k], b[k])


def space(rng, d, p, span=4.0):
    return WeightedSpace(p, np.exp(rng.uniform(-span, span, d)))


def operator_cases():
    """Same-exponent couples for p in {1, 2, inf}, all six mixed exponent
    pairs, and one singular operator."""
    rng = np.random.default_rng(20)
    cases = []
    pairs = [(p, p) for p in PS] + [(a, b) for a, b in itertools.permutations(PS, 2)]
    for pa, pb in pairs:
        d = 3
        dom = BanachCouple(space(rng, d, pa), space(rng, d, pb))
        cod = BanachCouple(space(rng, d, pa), space(rng, d, pb))
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        cases.append((f"{pa}-{pb}", CoupleOperator(M, dom, cod)))
    C = BanachCouple(space(rng, 2, 2.0), space(rng, 2, INF))
    cases.append(("singular", CoupleOperator(np.array([[1.0, 2.0], [2.0, 4.0]]), C, C)))
    return cases


CASES = operator_cases()


@pytest.mark.parametrize("name,T", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("family", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_batched_sweep_matches_scalar_reference(name, T, family):
    rep = sweep(T, family, GRID)
    ref_records, ref_flags = reference_records(T, family, GRID)
    assert len(rep.records) == len(ref_records)
    for rec, (th, fwd, inv, _, _) in zip(rep.records, ref_records):
        assert rec.theta == th
        assert close(rec.op_norm.lower, fwd[0]) and close(rec.op_norm.upper, fwd[1])
        assert (rec.inv_norm is None) == (inv is None)
        if inv is not None:
            assert close(rec.inv_norm.lower, inv[0]) and close(rec.inv_norm.upper, inv[1])
    fwd_methods = interpolated_operator_norms(T, family, GRID).methods
    assert fwd_methods.tolist() == [r[3] for r in ref_records]
    if ref_records[0][2] is not None:
        inv_methods = interpolated_operator_norms(invert(T), family, GRID).methods
        assert inv_methods.tolist() == [r[4] for r in ref_records]
    assert rep.intervals == _detect_intervals(GRID, ref_flags)
    ref_verdicts = reference_verdicts(T, GRID, ref_records, ref_flags, 1e-6)
    for v, (vname, passed, details, witness) in zip(rep.verdicts, ref_verdicts, strict=True):
        assert (v.name, v.passed) == (vname, passed)
        assert_same_mapping(v.details, details)
        assert_same_mapping(v.witness, witness)


@pytest.mark.parametrize("family", FAMILIES, ids=[f.label() for f in FAMILIES])
def test_window_verdicts_match_scalar_reference(family):
    """A near-isometric shear on a fine grid: its radii span several grid
    points, and at bound 1.02 FACTOR2 fails at some base points."""
    dom = BanachCouple(WeightedSpace(2.0, [1.0, 1.0]), WeightedSpace(2.0, [math.e**4, math.e**-4]))
    T = CoupleOperator(np.array([[1.0, 1e-3], [0.0, 1.0]]), dom, dom)
    grid = np.linspace(0.002, 0.998, 499)
    records, flags = reference_records(T, family, grid)
    for slack in (1e-6, -0.49):
        rep = sweep(T, family, grid, slack=slack)
        ref = reference_verdicts(T, grid, records, flags, slack)
        for v, (vname, passed, details, witness) in zip(rep.verdicts, ref, strict=True):
            assert (v.name, v.passed) == (vname, passed)
            assert_same_mapping(v.details, details)
            assert_same_mapping(v.witness, witness)
    assert not rep.verdicts[0].passed


def test_single_norm_matches_scalar_reference():
    """operator_norm (the stack of one) over exponents in {1, 1.5, 2, 3, inf}^2,
    so every branch and both signs of 1/pa - 1/pb are covered."""
    rng = np.random.default_rng(21)
    ps = (1.0, 1.5, 2.0, 3.0, INF)
    for pa, pb in itertools.product(ps, ps):
        for m, n in ((3, 3), (2, 4), (4, 2)):
            A, B = space(rng, n, pa, 2.0), space(rng, m, pb, 2.0)
            M = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
            got = operator_norm(M, A, B)
            lo, up, method = scalar_operator_norm(M, A, B)
            assert got.method == method
            assert close(got.lower, lo) and close(got.upper, up)


def test_long_grid_is_chunked_without_changing_answers(monkeypatch):
    rng = np.random.default_rng(22)
    dom = BanachCouple(space(rng, 3, 1.0), space(rng, 3, 3.0))
    T = CoupleOperator(rng.normal(size=(3, 3)), dom, dom)
    grid = np.linspace(0.01, 0.99, 60)
    whole = interpolated_operator_norms(T, FunctorFamily("calderon"), grid)
    monkeypatch.setattr(operators, "_CHUNK_ENTRIES", 100)  # a few entries per pass
    parts = interpolated_operator_norms(T, FunctorFamily("calderon"), grid)
    assert np.allclose(whole.lower, parts.lower, rtol=1e-13, atol=0.0)
    assert np.allclose(whole.upper, parts.upper, rtol=1e-13, atol=0.0)
    assert np.array_equal(whole.methods, parts.methods)


def test_endpoint_norms_computed_once_across_family_sweeps(monkeypatch):
    """The four family sweeps of one operator compute each endpoint norm of
    T and of T^-1 exactly once, through the memoised inverse."""
    calls = []
    scalar = operators.operator_norm

    def counting(M, A, B):
        calls.append((np.asarray(M).tobytes(), A.p, A.weights.tobytes(), B.p, B.weights.tobytes()))
        return scalar(M, A, B)

    monkeypatch.setattr(operators, "operator_norm", counting)
    _, T = operator_cases()[4]  # a mixed pair: its Calderon spaces are not endpoints
    for family in FAMILIES:
        assert sweep(T, family, GRID).passed
    assert invert(T) is invert(T)
    Tinv = invert(T)
    expected = {
        (S.matrix.tobytes(), S.domain.space(j).p, S.domain.space(j).weights.tobytes(),
         S.codomain.space(j).p, S.codomain.space(j).weights.tobytes())
        for S in (T, Tinv) for j in (0, 1)
    }
    assert len(calls) == 4
    assert set(calls) == expected
