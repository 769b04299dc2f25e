import numpy as np
import pytest

import vordiff.diagnostics
from vordiff import (
    DomainError,
    ModelSpec,
    OrderFunction,
    RegularityReport,
    TimeMesh,
    fit_singularity_exponent,
    regularity_report,
    second_derivative_norms,
    solve_forward,
    weighted_cm_norm,
)
from vordiff.forward import default_grading

L = np.pi
MODE1 = lambda x: np.sqrt(2.0 / L) * np.sin(np.asarray(x))

PARABOLA = lambda x: np.asarray(x) * (L - np.asarray(x))


def run_field(alpha_coeffs, alpha_star, M=1024, r=4.0, k=1.0):
    spec = ModelSpec(
        K=1.0,
        L=L,
        T=1.0,
        k_coeffs=(k,),
        alpha=OrderFunction(alpha_coeffs, alpha_star, 1.0),
        u0=MODE1,
    )
    return solve_forward(spec, TimeMesh(1.0, M, r), 4)


class TestSecondDerivativeNorms:
    def test_heat_closed_form(self):
        # k = 0, single mode: ||d2u/dt2|| = lam^2 exp(-lam t) |u01|
        spec = ModelSpec(K=1.0, L=L, T=1.0, k_coeffs=(0.0,),
                         alpha=OrderFunction((0.5,), 0.9, 1.0), u0=MODE1)
        field = solve_forward(spec, TimeMesh(1.0, 2048, 1.0), 4)
        norms = zip(*second_derivative_norms(field, 0.0))
        inside = [(t, v) for t, v in norms if 0.1 <= t <= 0.9]
        worst = max(abs(v - np.exp(-t)) / np.exp(-t) for t, v in inside)
        assert worst <= 0.05

    def test_zero_field(self):
        spec = ModelSpec(K=1.0, L=L, T=1.0, k_coeffs=(1.0,),
                         alpha=OrderFunction((0.5,), 0.9, 1.0),
                         u0=lambda x: 0.0 * np.asarray(x))
        field = solve_forward(spec, TimeMesh(1.0, 128, 2.0), 4)
        norms = zip(*second_derivative_norms(field, 0.0))
        assert all(v == 0.0 for _, v in norms)

    def test_blowup_like_predicted_power(self):
        field = run_field((0.5,), 0.9)
        norms = second_derivative_norms(field, 0.0)
        slope = fit_singularity_exponent(*norms, (1e-3, 1e-1))
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_too_small_mesh_rejected(self):
        field = run_field((0.5,), 0.9, M=63, r=2.0)
        with pytest.raises(DomainError):
            second_derivative_norms(field, 0.0)
        with pytest.raises(DomainError, match="M >= 64"):
            weighted_cm_norm(field, 0.5, 0.0)
        with pytest.raises(DomainError, match="M >= 64"):
            regularity_report(field, 0.5, 0.0)


class TestFitExponent:
    def test_exact_power_data(self):
        t = np.geomspace(1e-4, 1e-1, 40)
        slope = fit_singularity_exponent(t, 2.7 * t**-0.5, (1e-4, 1e-1))
        assert slope == pytest.approx(-0.5, abs=1e-6)

    def test_variable_order_run(self):
        # order 0.5 + t/4: the exponent is set by the order at t = 0
        field = run_field((0.5, 0.25), 0.95)
        norms = second_derivative_norms(field, 0.0)
        slope = fit_singularity_exponent(*norms, (1e-3, 1e-1))
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_vanishing_initial_order_is_smooth(self):
        # alpha(t) = t/2: bounded second derivative, near-zero slope
        field = run_field((0.0, 0.5), 0.5)
        norms = second_derivative_norms(field, 0.0)
        slope = fit_singularity_exponent(*norms, (1e-3, 1e-1))
        assert slope >= -0.1

    def test_window_needs_samples(self):
        data = ([0.5, 0.6], [1.0, 1.0])
        with pytest.raises(DomainError):
            fit_singularity_exponent(*data, (0.4, 0.7))
        with pytest.raises(DomainError):
            fit_singularity_exponent(*data, (0.7, 0.4))

    def test_nonpositive_values_rejected(self):
        t = np.geomspace(1e-3, 1e-1, 12)
        with pytest.raises(DomainError):
            fit_singularity_exponent(t, np.zeros_like(t), (1e-3, 1e-1))


class TestWeightedNorm:
    def test_zero_field(self):
        spec = ModelSpec(K=1.0, L=L, T=1.0, k_coeffs=(1.0,),
                         alpha=OrderFunction((0.5,), 0.9, 1.0),
                         u0=lambda x: 0.0 * np.asarray(x))
        field = solve_forward(spec, TimeMesh(1.0, 128, 2.0), 4)
        assert weighted_cm_norm(field, 0.5, 0.0) == 0.0

    def test_heat_single_mode_closed_form(self):
        # C1 part: max(sup|u|, sup|u'|) = 1; weighted part: sup t^0.5 e^{-t}
        spec = ModelSpec(K=1.0, L=L, T=1.0, k_coeffs=(0.0,),
                         alpha=OrderFunction((0.5,), 0.9, 1.0), u0=MODE1)
        field = solve_forward(spec, TimeMesh(1.0, 2048, 1.0), 4)
        t_dense = np.linspace(1e-9, 1.0, 200001)
        closed = 1.0 + (np.sqrt(t_dense) * np.exp(-t_dense)).max()
        assert weighted_cm_norm(field, 0.5, 0.0) == pytest.approx(closed, rel=0.1)

    def test_mesh_stable_for_matching_weight(self):
        vals = [
            weighted_cm_norm(run_field((0.5,), 0.9, M=M, r=2.5), 0.5, 0.0)
            for M in (256, 512)
        ]
        assert abs(vals[1] / vals[0] - 1.0) <= 0.2

    @pytest.mark.parametrize("r, M", [(2.5, 1024), (2.5, 4096), (4.0, 1024), (4.0, 4096)])
    def test_exact_value(self, r, M):
        # order 0.5, u0 = x(pi - x): only mode 1, c1 = 4 sqrt(2/pi), is active;
        # the C^1 part is c1 and sup t^0.5 |u1''| is c1 / sqrt(pi), at t -> 0
        spec = ModelSpec(K=1.0, L=L, T=1.0, k_coeffs=(1.0,),
                         alpha=OrderFunction((0.5,), 0.9, 1.0),
                         u0=lambda x: np.asarray(x) * (L - np.asarray(x)))
        field = solve_forward(spec, TimeMesh(1.0, M, r), 2)
        exact = 4.0 * np.sqrt(2.0 / np.pi) + 4.0 * np.sqrt(2.0) / np.pi
        assert weighted_cm_norm(field, 0.5, 0.0) == pytest.approx(exact, rel=0.02)

    def test_bad_weight_rejected(self):
        field = run_field((0.5,), 0.9, M=128, r=2.0)
        with pytest.raises(DomainError):
            weighted_cm_norm(field, 1.0, 0.0)


class TestRegularityReport:
    def test_singular_run(self):
        field = run_field((0.5,), 0.9)
        rep = regularity_report(field, 0.5, 0.0)
        assert rep.verdict == "singular"
        assert rep.expected_slope == -0.5
        assert rep.fitted_slope == pytest.approx(-0.5, abs=0.1)
        assert np.isfinite(rep.weighted_norm)
        assert rep.fit_window[0] < rep.fit_window[1]

    def test_smooth_run(self):
        field = run_field((0.0, 0.5), 0.5)
        rep = regularity_report(field, 0.0, 0.0)
        assert rep.verdict == "smooth"
        assert rep.expected_slope == 0.0

    @pytest.mark.parametrize("slope, verdict", [(-0.09, "smooth"), (-0.1, "singular")])
    def test_verdict_from_slope_threshold(self, slope, verdict):
        rep = RegularityReport(alpha0=0.3, fitted_slope=slope, weighted_norm=1.0,
                               fit_window=(1e-3, 1e-1))
        assert rep.verdict == verdict
        assert rep.expected_slope == -0.3

    def test_forms_each_norm_once(self, monkeypatch):
        # one pass: the field's norm, the first and the second differences'
        field = run_field((0.5,), 0.9)
        calls = []
        norm = vordiff.diagnostics.sobolev_norm
        monkeypatch.setattr(vordiff.diagnostics, "sobolev_norm",
                            lambda *args: calls.append(args) or norm(*args))
        rep = regularity_report(field, 0.5, 0.0)
        assert len(calls) == 3
        monkeypatch.undo()
        assert rep.weighted_norm == weighted_cm_norm(field, 0.5, 0.0)
        norms = second_derivative_norms(field, 0.0)
        assert rep.fitted_slope == fit_singularity_exponent(*norms, rep.fit_window)

    def test_rounding_floor_empties_window(self):
        # order 0.5, u0 = x(pi - x), M = 1024, r = 4: the window holds the
        # interior nodes n = 2..10, and the floor drops n = 1..10
        spec = ModelSpec(K=1.0, L=L, T=1.0, k_coeffs=(1.0,),
                         alpha=OrderFunction((0.5,), 0.9, 1.0),
                         u0=lambda x: np.asarray(x) * (L - np.asarray(x)))
        field = solve_forward(spec, TimeMesh(1.0, 1024, 4.0), 2)
        match = r"rounding floor keeps 0 of the 9 interior nodes .* t = 1\.3316e-08"
        with pytest.raises(DomainError, match=match):
            regularity_report(field, 0.5, 0.0, window=(1e-12, 1e-8))

    @pytest.mark.parametrize("alpha0", [-0.5, np.nan, 1.0])
    def test_initial_order_outside_unit_interval_rejected(self, alpha0):
        # the parent reported expected_slope 0.5 at alpha0 = -0.5, nan at nan,
        # and accepted 1.0, where mu = 1 - alpha0 leaves the weight's range
        field = run_field((0.5,), 0.9, M=128, r=2.0)
        with pytest.raises(DomainError, match=r"order value .* outside \[0, 1\)"):
            regularity_report(field, alpha0, 0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        # the parent blamed the rounding floor, with "t = inf"
        field = run_field((0.5,), 0.9, M=128, r=2.0)
        with pytest.raises(DomainError, match="gamma"):
            regularity_report(field, 0.5, gamma)


def smooth_case_report(N):
    # the paper's smooth case: alpha(0) = 0, so u_tt stays bounded at t = 0
    spec = ModelSpec(K=1.0, L=L, T=1.0, k_coeffs=(1.0,),
                     alpha=OrderFunction((0.0, 0.6, -0.3), 0.95, 1.0), u0=PARABOLA)
    return regularity_report(solve_forward(spec, TimeMesh(1.0, 1024, 1.0), N), 0.0, 0.0)


def test_smooth_case_verdict_with_slow_modes():
    rep = smooth_case_report(2)
    assert rep.fitted_slope == pytest.approx(-0.029, abs=0.01)
    assert rep.verdict == "smooth"


@pytest.mark.parametrize("N", [4, 8])
def test_smooth_case_verdict_with_fast_modes(N):
    assert smooth_case_report(N).verdict == "smooth"


@pytest.mark.parametrize("N", [2, 4, 8, 16])
@pytest.mark.parametrize("coeffs", [(0.0, 0.6, -0.3), (0.1,), (0.3, 0.2), (0.5,), (0.8,)])
def test_parabola_slope_does_not_depend_on_the_mode_count(coeffs, N):
    # a fit over all modes read the e^(-lambda_i t) decay of the fast ones as a
    # slope: -0.434 at N = 8 in the smooth case, -0.589 for 0.3 + 0.2 t at N = 16
    smooth = coeffs[0] == 0.0
    mesh = TimeMesh(1.0, 1024, 1.0) if smooth else TimeMesh(1.0, 4096, default_grading(coeffs[0]))
    spec = ModelSpec(K=1.0, L=L, T=1.0, k_coeffs=(1.0,),
                     alpha=OrderFunction(coeffs, 0.95, 1.0), u0=PARABOLA)
    rep = regularity_report(solve_forward(spec, mesh, N), coeffs[0], 0.0)
    assert abs(rep.fitted_slope + coeffs[0]) <= 0.1  # acceptance criterion 6's tolerance
