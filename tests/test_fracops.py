import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gamma

from helpers import caputo_quad, frac_integral_quad, observed_rates, richardson_fd
from vordiff import (
    DomainError,
    OrderFunction,
    SampledFunction,
    SingularOrderError,
    TimeMesh,
    caputo_order_sensitivity,
    caputo_vo,
    frac_integral_vo,
)
from vordiff.fracops import project_admissible


def sampled(mesh, fn):
    return SampledFunction.from_function(mesh, fn)


# -- meshes and order functions ---------------------------------------


class TestTimeMesh:
    def test_uniform_and_graded(self):
        m = TimeMesh(2.0, 10, 1.0)
        assert m.nodes[0] == 0.0 and m.nodes[-1] == 2.0
        assert np.allclose(np.diff(m.nodes), 0.2)
        g = TimeMesh(1.0, 10, 3.0)
        assert g.nodes[1] == pytest.approx(1e-3)
        assert np.all(np.diff(g.nodes) > 0)

    def test_from_nodes(self):
        m = TimeMesh.from_nodes([0.0, 0.1, 0.5, 1.0])
        assert m.M == 3 and m.T == 1.0 and m.r is None

    @given(
        T=st.floats(0.1, 10.0),
        M=st.integers(1, 200),
        r=st.floats(1.0, 4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_monotone(self, T, M, r):
        m = TimeMesh(T, M, r)
        assert m.nodes[0] == 0.0 and m.nodes[-1] == T
        assert np.all(np.diff(m.nodes) > 0)

    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            TimeMesh(1.0, 0, 1.0)
        with pytest.raises(DomainError):
            TimeMesh(1.0, 10, 0.5)
        with pytest.raises(DomainError):
            TimeMesh(-1.0, 10, 1.0)


class TestOrderFunction:
    def test_eval_examples(self):
        T = 2.0
        assert OrderFunction((0.5,), 0.9, T)(0.3) == 0.5
        lin = OrderFunction((0.3, 0.2 / T), 0.5, T)
        assert lin(T) == pytest.approx(0.5, abs=1e-15)
        through_zero = OrderFunction((0.0, 0.5 / T), 0.5, T)
        assert through_zero(0.0) == 0.0

    def test_domain_error(self):
        alpha = OrderFunction((0.5,), 0.9, 1.0)
        with pytest.raises(DomainError):
            alpha(-0.1)
        with pytest.raises(DomainError):
            alpha(1.5)

    def test_admissibility_enforced(self):
        with pytest.raises(DomainError, match="alpha_star < 1"):
            OrderFunction((0.5,), 1.2, 1.0)
        # dips below zero in the interior
        with pytest.raises(DomainError, match="alpha_star"):
            OrderFunction((0.1, -1.0, 1.0), 0.9, 1.0)
        with pytest.raises(DomainError):
            OrderFunction((0.97,), 0.95, 1.0)
        # dips below zero only near its critical point: alpha(0.0005) = -1e-9
        with pytest.raises(DomainError, match="alpha_star"):
            OrderFunction((2.24e-07, -0.0009, 0.9), 0.95, 1.0)
        for bad in ((float("nan"),), (0.3, float("inf"))):
            with pytest.raises(DomainError, match="finite"):
                OrderFunction(bad, 0.95, 1.0)

    def test_degree_cap(self):
        with pytest.raises(DomainError, match="degree"):
            OrderFunction((0.1,) * 8, 0.9, 1.0)

    @given(c0=st.floats(0.0, 0.45), c1=st.floats(0.0, 0.45))
    @settings(max_examples=25, deadline=None)
    def test_values_within_bounds(self, c0, c1):
        alpha = OrderFunction((c0, c1), 0.95, 1.0)
        for t in np.linspace(0.0, 1.0, 37):
            assert 0.0 <= alpha(t) <= 0.95


class TestProjectAdmissible:
    @pytest.mark.parametrize(
        "coeffs, T, alpha_star",
        [
            # projections on a sample grid left these 5.6e-17 and 2.6e-7 below zero
            ((-0.5, -0.46), 1.0, 0.95),
            ((-1.01, -0.21, -0.16, 0.54, 0.21), 1.0, 0.95),
            # the range fits at c0 = 1 but overshoots once shifted to c0 = 0
            ((1.0, 0.0, 0.01), 0.01, 1e-6),
        ],
    )
    def test_projection_constructible(self, coeffs, T, alpha_star):
        OrderFunction(project_admissible(coeffs, T, alpha_star), alpha_star, T)

    @given(
        coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=7),
        T=st.floats(0.1, 10.0),
        alpha_star=st.floats(0.05, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_constructible_and_idempotent(self, coeffs, T, alpha_star):
        projected = project_admissible(coeffs, T, alpha_star)
        OrderFunction(projected, alpha_star, T)
        assert np.array_equal(project_admissible(projected, T, alpha_star), projected)


# -- fractional integral -----------------------------------------------


class TestFracIntegral:
    def test_constant_one(self):
        mesh = TimeMesh(1.0, 1024, 1.0)
        g = SampledFunction(mesh, np.ones(mesh.M + 1))
        alpha = OrderFunction((0.5,), 0.9, 1.0)
        # closed form: int_0^t (t-s)^(a-1) ds = t^a / a, so value = t^a/Gamma(a+1)
        assert frac_integral_vo(g, alpha, mesh.M) == pytest.approx(
            1.0 / gamma(1.5), rel=1e-12
        )

    def test_zero(self):
        mesh = TimeMesh(1.0, 64, 1.0)
        g = SampledFunction(mesh, np.zeros(mesh.M + 1))
        alpha = OrderFunction((0.5,), 0.9, 1.0)
        assert frac_integral_vo(g, alpha, 64) == 0.0

    def test_linear(self):
        mesh = TimeMesh(1.0, 1024, 1.0)
        g = sampled(mesh, lambda t: t)
        alpha = OrderFunction((0.5,), 0.9, 1.0)
        # power rule t^(1+a)/Gamma(2+a); cross-checked by quadrature oracle
        oracle = frac_integral_quad(lambda s: s, 0.5, 1.0)
        assert oracle == pytest.approx(1.0 / gamma(2.5), rel=1e-10)
        assert frac_integral_vo(g, alpha, mesh.M) == pytest.approx(oracle, rel=1e-10)

    def test_quadratic_against_quadrature(self):
        mesh = TimeMesh(1.0, 512, 1.0)
        g = sampled(mesh, lambda t: t * t)
        for a in (0.2, 0.8):
            alpha = OrderFunction((a,), 0.9, 1.0)
            oracle = frac_integral_quad(lambda s: s * s, a, 1.0)
            assert frac_integral_vo(g, alpha, 512) == pytest.approx(oracle, rel=1e-5)

    def test_zero_order_rejected(self):
        mesh = TimeMesh(1.0, 16, 1.0)
        g = sampled(mesh, lambda t: t)
        with pytest.raises(SingularOrderError):
            frac_integral_vo(g, OrderFunction((0.0,), 0.5, 1.0), 8)

    def test_node_zero_rejected(self):
        mesh = TimeMesh(1.0, 16, 1.0)
        g = sampled(mesh, lambda t: t)
        with pytest.raises(DomainError):
            frac_integral_vo(g, OrderFunction((0.5,), 0.9, 1.0), 0)


# -- Caputo derivative --------------------------------------------------


class TestCaputo:
    def test_constant_is_annihilated(self):
        mesh = TimeMesh(1.0, 128, 2.0)
        g = SampledFunction(mesh, np.full(mesh.M + 1, 3.7))
        for a in (0.0, 0.3, 0.8):
            assert caputo_vo(g, OrderFunction((a,), 0.9, 1.0), 100) == 0.0

    def test_linear_power_rule(self):
        mesh = TimeMesh(1.0, 1024, 1.0)
        g = sampled(mesh, lambda t: t)
        alpha = OrderFunction((0.5,), 0.9, 1.0)
        # t^(1-a)/Gamma(2-a); exact for piecewise-linear data
        assert caputo_vo(g, alpha, mesh.M) == pytest.approx(
            1.0 / gamma(1.5), rel=1e-12
        )

    def test_frozen_order_matches_constant_case(self):
        # alpha(t) = t/2 hits 0.5 at t = 1; the value there must equal the
        # constant-order 0.5 result bitwise, since only alpha(t_n) enters.
        mesh = TimeMesh(1.0, 1024, 1.0)
        g = sampled(mesh, lambda t: t)
        variable = OrderFunction((0.0, 0.5), 0.95, 1.0)
        constant = OrderFunction((0.5,), 0.95, 1.0)
        assert caputo_vo(g, variable, 1024) == caputo_vo(g, constant, 1024)
        assert caputo_vo(g, variable, 1024) == pytest.approx(1.0 / gamma(1.5), rel=1e-12)

    def test_identity_limit_exact(self):
        mesh = TimeMesh(1.0, 200, 1.5)
        g = sampled(mesh, lambda t: np.sin(3.0 * t) + t * t)
        alpha = OrderFunction((0.0,), 0.5, 1.0)
        for n in (1, 77, 200):
            assert caputo_vo(g, alpha, n) == g.values[n] - g.values[0]

    def test_node_zero_rejected(self):
        mesh = TimeMesh(1.0, 16, 1.0)
        g = sampled(mesh, lambda t: t)
        with pytest.raises(DomainError):
            caputo_vo(g, OrderFunction((0.5,), 0.9, 1.0), 0)

    @given(
        a=st.floats(-5.0, 5.0),
        b=st.floats(-5.0, 5.0),
        aval=st.floats(0.05, 0.9),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b, aval, seed):
        rng = np.random.default_rng(seed)
        mesh = TimeMesh(1.0, 32, 2.0)
        gv = rng.standard_normal(33)
        hv = rng.standard_normal(33)
        alpha = OrderFunction((aval,), 0.95, 1.0)
        combo = SampledFunction(mesh, a * gv + b * hv)
        lhs = caputo_vo(combo, alpha, 32)
        rhs = a * caputo_vo(SampledFunction(mesh, gv), alpha, 32) + b * caputo_vo(
            SampledFunction(mesh, hv), alpha, 32
        )
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-11 * scale

    @given(
        c0=st.floats(0.0, 0.45),
        c1=st.floats(0.0, 0.45),
        n=st.integers(1, 64),
        r=st.floats(1.0, 3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_frozen_order_equivalence_bitwise(self, c0, c1, n, r):
        mesh = TimeMesh(1.0, 64, r)
        g = sampled(mesh, lambda t: np.exp(-t) * t)
        variable = OrderFunction((c0, c1), 0.95, 1.0)
        abar = variable(mesh.nodes[n])
        constant = OrderFunction((abar,), 0.95, 1.0) if abar > 0 else OrderFunction((0.0,), 0.95, 1.0)
        assert caputo_vo(g, variable, n) == caputo_vo(g, constant, n)

    def test_convergence_to_quadrature_oracle(self):
        # smooth, non-polynomial integrand; observed rate >= 2 - a - 0.15
        for a in (0.2, 0.5, 0.8):
            oracle = caputo_quad(np.cos, a, 1.0)
            errs = []
            for M in (128, 256, 512, 1024):
                mesh = TimeMesh(1.0, M, 1.0)
                g = sampled(mesh, np.sin)
                errs.append(abs(caputo_vo(g, OrderFunction((a,), 0.9, 1.0), M) - oracle))
            assert min(observed_rates(errs)) >= 2.0 - a - 0.15


# -- order sensitivity ----------------------------------------------------


class TestOrderSensitivity:
    def test_constant_gives_zero(self):
        mesh = TimeMesh(1.0, 64, 1.0)
        g = SampledFunction(mesh, np.full(65, -2.5))
        assert caputo_order_sensitivity(g, 0.4, 64) == 0.0

    def test_linear_closed_form(self):
        # d/da [t^(1-a)/Gamma(2-a)] at t = 1 reduces to psi(1.5)/Gamma(1.5);
        # the discretization is exact for linear data.
        mesh = TimeMesh(1.0, 1024, 1.0)
        g = sampled(mesh, lambda t: t)
        value = caputo_order_sensitivity(g, 0.5, 1024)
        assert value == pytest.approx(digamma(1.5) / gamma(1.5), rel=1e-12)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("fn", [lambda t: t, lambda t: t * t, np.sin])
    def test_matches_finite_difference(self, a, fn):
        mesh = TimeMesh(1.0, 256, 1.0)
        g = sampled(mesh, fn)

        def caputo_at(order):
            return caputo_vo(g, OrderFunction((order,), 0.95, 1.0), 256)

        fd = richardson_fd(caputo_at, a)
        value = caputo_order_sensitivity(g, a, 256)
        assert value == pytest.approx(fd, rel=1e-4)

    def test_negative_for_decreasing_data_at_small_time(self):
        # g' <= -c < 0 and ln t_n below -|psi(1-a)| force a negative value
        mesh = TimeMesh(1.0, 1024, 1.0)
        g = sampled(mesh, lambda t: np.exp(-t))
        a = 0.5
        for n in (1, 5, 20):
            t_n = mesh.nodes[n]
            assert np.log(t_n) < -abs(digamma(1.0 - a))
            assert caputo_order_sensitivity(g, a, n) < 0.0

    def test_rejects_bad_order(self):
        mesh = TimeMesh(1.0, 16, 1.0)
        g = sampled(mesh, lambda t: t)
        with pytest.raises(DomainError):
            caputo_order_sensitivity(g, 1.0, 8)
        with pytest.raises(DomainError):
            caputo_order_sensitivity(g, -0.1, 8)


def test_gamma_digamma_accuracy_on_unit_interval():
    # every operator only ever evaluates these on (0, 2]; check the backing
    # special functions against an arbitrary-precision oracle there
    import mpmath

    xs = np.linspace(0.02, 2.0, 100)
    worst_g = max(abs(gamma(x) - float(mpmath.gamma(x))) / float(mpmath.gamma(x)) for x in xs)
    worst_d = max(
        abs(digamma(x) - float(mpmath.digamma(x))) / max(1e-3, abs(float(mpmath.digamma(x))))
        for x in xs
    )
    assert worst_g <= 1e-12
    assert worst_d <= 1e-12
