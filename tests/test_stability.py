import cmath
import math

import numpy as np
import pytest

from interpol_lab.annulus import AnnulusPoint, LaurentElement, PseudolatticeCouple
from interpol_lab.errors import ArgumentError, SingularOperatorError
from interpol_lab.functors import FunctorFamily
from interpol_lab.operators import CoupleOperator
from interpol_lab.spaces import BanachCouple, WeightedSpace
from interpol_lab.stability import (
    AnalyticSolverConfig,
    StabilityBound,
    _detect_intervals,
    check_inverse_compatibility,
    complex_to_real_transfer,
    eta_constant,
    solve_analytic_equation,
    stability_radius,
    sweep,
)

E = math.e
INF = math.inf


def unweighted_couple(dim, p=2.0):
    X = WeightedSpace(p, np.ones(dim))
    return BanachCouple(X, X)


def shear_operator(p=2.0):
    dom = BanachCouple(
        WeightedSpace(p, [1.0, 1.0]), WeightedSpace(p, [math.e**4, math.e**-4])
    )
    return CoupleOperator(np.array([[1.0, 1.0], [0.0, 1.0]]), dom, dom)


def identity_operator(dim=2, p=2.0):
    C = unweighted_couple(dim, p)
    return CoupleOperator(np.eye(dim), C, C)


# ----------------------------------------------------------------- constants


def test_eta_equals_delta_at_exponential():
    from interpol_lab.annulus import delta_constant

    for th in (0.1, 0.5, 0.77):
        assert eta_constant(th) == pytest.approx(delta_constant(math.exp(th)), rel=1e-14)


def test_eta_below_exp_resolution_is_finite():
    # exp(1e-308) rounds to 1.0, so exp(theta) - 1 is 0.0; expm1 is the divisor
    assert math.exp(1e-308) == 1.0
    assert eta_constant(1e-308) == pytest.approx(1e308, rel=1e-15)
    for th in (1e-15, 1e-8, 0.1, 0.5, 0.99):
        x = math.exp(th)
        assert eta_constant(th) == max(1.0 / (x - 1.0), 1.0 / (E - x))


def test_stability_radius_annulus_value():
    T = identity_operator()
    s = AnnulusPoint(math.exp(0.5))
    b = stability_radius(T, FunctorFamily("calderon"), s)
    assert b.op_norm == pytest.approx(1.0, rel=1e-12)
    assert b.inv_norm == pytest.approx(1.0, rel=1e-12)
    assert b.radius == pytest.approx(0.16218, abs=1e-5)


def test_stability_radius_theta_value():
    T = identity_operator()
    b = stability_radius(T, FunctorFamily("calderon"), 0.5)
    assert b.kind == "theta"
    assert b.radius == pytest.approx(0.05966, abs=1e-5)


def test_stability_radius_monotone_in_inverse_norm():
    C = unweighted_couple(2)
    radii = []
    for a in (1.0, 2.0, 8.0, 64.0):
        T = CoupleOperator(np.diag([a, 1.0 / a]), C, C)
        radii.append(stability_radius(T, FunctorFamily("calderon"), 0.5).radius)
    assert radii == sorted(radii, reverse=True)


def test_stability_radius_requires_invertible():
    C = unweighted_couple(2)
    T = CoupleOperator(np.array([[1.0, 0.0], [0.0, 0.0]]), C, C)
    with pytest.raises(SingularOperatorError):
        stability_radius(T, FunctorFamily("calderon"), 0.5)


# -------------------------------------------------------------------- sweeps


def test_sweep_identity_single_interval():
    T = identity_operator()
    grid = np.arange(0.05, 1.0, 0.05)
    rep = sweep(T, FunctorFamily("calderon"), grid)
    assert rep.passed
    assert rep.intervals == [(0.0, 1.0)]
    for r in rep.records:
        assert r.invertible
        assert r.inv_norm.upper == pytest.approx(1.0, rel=1e-12)


def test_sweep_rejects_bad_grid():
    T = identity_operator()
    with pytest.raises(ArgumentError):
        sweep(T, FunctorFamily("calderon"), [0.5, 0.4])
    with pytest.raises(ArgumentError):
        sweep(T, FunctorFamily("calderon"), [0.0, 0.5])


def test_sweep_shear_calderon_strong_variation():
    T = shear_operator()
    grid = np.arange(0.01, 1.0, 0.01)
    rep = sweep(T, FunctorFamily("calderon"), grid)
    assert rep.passed
    _, inv_up, flags = rep.record_arrays()
    assert flags.all()
    assert np.max(inv_up) / np.min(inv_up) > 50.0  # theta-dependence is real


@pytest.mark.parametrize("q", [1.0, 2.0, INF])
def test_sweep_shear_real_families(q):
    T = shear_operator()
    grid = np.arange(0.05, 1.0, 0.05)
    rep = sweep(T, FunctorFamily("real", q), grid)
    assert rep.passed
    names = [v.name for v in rep.verdicts]
    assert "FACTOR2" in names and "RADIUS" in names


def test_sweep_non_invertible_reports_no_intervals():
    C = unweighted_couple(2)
    T = CoupleOperator(np.array([[1.0, 1.0], [1.0, 1.0]]), C, C)
    rep = sweep(T, FunctorFamily("calderon"), [0.3, 0.5, 0.7])
    assert not rep.passed
    assert rep.intervals == []


def test_interval_detection_logic():
    grid = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    flags = np.array([True, True, False, True, True])
    ivs = _detect_intervals(grid, flags)
    assert ivs == [(0.0, 0.3), (0.3, 1.0)]
    assert _detect_intervals(grid, np.zeros(5, dtype=bool)) == []


# ------------------------------------------------------------- compatibility


def test_inverse_compatibility_identity():
    T = identity_operator()
    rep = check_inverse_compatibility(T, 0.3, 0.7, FunctorFamily("calderon"))
    assert rep.passed
    assert rep.details["max_identity_deviation"] <= 1e-12


def test_inverse_compatibility_random_dim3():
    rng = np.random.default_rng(2)
    C = BanachCouple(
        WeightedSpace(2.0, np.exp(rng.uniform(-1, 1, 3))),
        WeightedSpace(2.0, np.exp(rng.uniform(-1, 1, 3))),
    )
    M = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    T = CoupleOperator(M, C, C)
    rep = check_inverse_compatibility(T, 0.2, 0.8, FunctorFamily("calderon"), sample_count=6)
    assert rep.passed
    assert rep.details["max_intersection_ratio"] <= 1.0 + 1e-8


def test_inverse_compatibility_real_family():
    T = shear_operator()
    rep = check_inverse_compatibility(T, 0.25, 0.75, FunctorFamily("real", 2.0))
    assert rep.passed
    assert rep.details["max_intersection_ratio"] <= 1.0 + 1e-8


# ------------------------------------------------------------------ transfer


def test_transfer_identity_ratios_one():
    T = identity_operator()
    rep = complex_to_real_transfer(T, 0.5)
    assert rep.passed
    for v in rep.details["inverse_norm_ratios"].values():
        assert v == pytest.approx(1.0, rel=1e-9)


def test_transfer_dim1_diagonal():
    C = BanachCouple(WeightedSpace(1.0, [2.0]), WeightedSpace(1.0, [0.5]))
    T = CoupleOperator(np.array([[3.0]]), C, C)
    rep = complex_to_real_transfer(T, 0.4)
    assert rep.passed
    for v in rep.details["inverse_norm_ratios"].values():
        assert v == pytest.approx(1.0, rel=1e-9)


def test_transfer_shear_finite_ratios():
    T = shear_operator()
    rep = complex_to_real_transfer(T, 0.3)
    assert rep.passed
    for v in rep.details["inverse_norm_ratios"].values():
        assert np.isfinite(v) and v > 0


# --------------------------------------------------------- analytic equation


def test_analytic_identity_constant_k():
    T = identity_operator()
    y = np.array([1.0, -2.0 + 1j])
    k = LaurentElement.constant(y)
    s = AnnulusPoint(math.exp(0.5))
    rep = solve_analytic_equation(T, k, s, AnalyticSolverConfig(max_terms=5))
    assert max(rep.h_norms) == 0.0
    for t in rep.targets:
        assert np.allclose(t.final_gtilde, y)
        assert t.final_residual <= 1e-12


def test_analytic_diag_scalar():
    C = unweighted_couple(1)
    T = CoupleOperator(np.array([[2.0]]), C, C)
    k = LaurentElement.constant([1.0])
    rep = solve_analytic_equation(T, k, math.exp(0.4), AnalyticSolverConfig(max_terms=4))
    assert max(rep.h_norms) == 0.0
    assert np.allclose(rep.targets[0].final_gtilde, [0.5])


def test_analytic_shear_nonconstant_k():
    T = shear_operator()
    s = AnnulusPoint(math.exp(0.5))
    y = np.array([1.0, 1.0])
    k = LaurentElement(1, y[None, :])  # k(z) = z * y
    omega = s.value * cmath.exp(0.02)
    cfg = AnalyticSolverConfig(max_terms=30, targets=(omega,))
    rep = solve_analytic_equation(T, k, s, cfg)
    target = rep.targets[0]
    assert target.converged
    assert any(r <= 1e-10 for r in target.residuals), target.residuals[-1]
    assert rep.h_norms[0] > 0  # genuinely nontrivial series


def test_analytic_residual_identity():
    # the residual of the m-th partial sum is exactly (omega - s)^(m+1) h_m
    T = shear_operator()
    s = AnnulusPoint(math.exp(0.5))
    P = PseudolatticeCouple(INF, INF)
    y = np.array([0.3, -1.0])
    k = LaurentElement(1, y[None, :])
    omega = s.value * cmath.exp(0.03j)
    cfg = AnalyticSolverConfig(max_terms=12, targets=(omega,))
    rep = solve_analytic_equation(T, k, s, cfg)
    target = rep.targets[0]
    for m, resid in enumerate(target.residuals):
        predicted = abs(omega - s.value) ** (m + 1) * rep.h_norms[m]
        assert resid == pytest.approx(predicted, rel=1e-8, abs=1e-12)


def test_analytic_constant_k_omega_independent():
    T = shear_operator()
    s = AnnulusPoint(math.exp(0.5))
    y = np.array([1.0, 2.0])
    k = LaurentElement.constant(y)
    omegas = tuple(s.value * cmath.exp(1j * a) for a in (0.01, 0.02, -0.015, 0.03, -0.02))
    rep = solve_analytic_equation(T, k, s, AnalyticSolverConfig(max_terms=10, targets=omegas))
    finals = np.stack([t.final_gtilde for t in rep.targets])
    expected = np.linalg.solve(T.matrix, y)
    spread = np.max(np.abs(finals - finals[0]))
    assert spread <= 1e-9
    assert np.allclose(finals[0], expected, atol=1e-9)


def test_analytic_growth_rate_tracks_delta():
    # negative-index data keeps the series infinite; the measured growth of
    # ||h_n|| stays on the division-constant scale
    T = shear_operator()
    s = AnnulusPoint(math.exp(0.5))
    k = LaurentElement(-2, np.array([[1.0, 0.5], [0.0, 1.0]]))
    rep = solve_analytic_equation(T, k, s, AnalyticSolverConfig(max_terms=25))
    from interpol_lab.annulus import delta_constant

    assert rep.rho_measured > 0
    assert rep.rho_measured <= delta_constant(s) * 1.5


def test_analytic_config_validation():
    T = identity_operator()
    k = LaurentElement.constant([1.0, 0.0])
    with pytest.raises(ArgumentError):
        solve_analytic_equation(T, k, 1.5, AnalyticSolverConfig(c1=0.1))
    with pytest.raises(ArgumentError):
        AnalyticSolverConfig(max_terms=0)
