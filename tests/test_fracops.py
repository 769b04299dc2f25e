import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, gamma

from helpers import caputo_quad, observed_rates, reference_sensitivity_rows, richardson_fd
from vordiff import (
    DomainError,
    OrderFunction,
    SampledFunction,
    TimeMesh,
    caputo_order_sensitivity,
    caputo_vo,
    l1_weights,
)
from vordiff import fracops
from vordiff.fracops import (SENSITIVITY_BLOCK, order_range, order_sensitivities,
                             project_admissible)


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

    def test_meshes_with_different_nodes_differ(self):
        assert TimeMesh.from_nodes([0.0, 0.1, 1.0]) != TimeMesh.from_nodes([0.0, 0.9, 1.0])

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
        for T, r in ((np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(DomainError, match="finite"):
                TimeMesh(T, 10, r)
        for nodes in ([], 5.0):
            with pytest.raises(DomainError, match="at least two nodes"):
                TimeMesh.from_nodes(nodes)
        # M = 2.5 would build nodes past T, True would stay a bool, and 8.0
        # would build a mesh that step_modes cannot index
        for M in (2.5, True, 8.0):
            with pytest.raises(DomainError, match="integer"):
                TimeMesh(1.0, M, 1.0)

    def test_numpy_integer_intervals_accepted(self):
        m = TimeMesh(1.0, np.int64(8), 2.0)
        assert m.M == 8 and m.nodes[-1] == 1.0

    @pytest.mark.parametrize(
        "nodes", [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan], [0.0, 0.5, np.inf], [0.0, 0.5, 0.5]]
    )
    def test_from_nodes_rejects_non_finite_or_repeated(self, nodes):
        with pytest.raises(DomainError, match="finite and strictly increasing"):
            TimeMesh.from_nodes(nodes)

    def test_explicit_nodes_must_start_at_zero(self):
        with pytest.raises(DomainError, match="mesh must start at t = 0"):
            TimeMesh.from_nodes([0.1, 0.5, 1.0])


class TestOrderFunction:
    def test_eval_examples(self):
        T = 2.0
        assert OrderFunction((0.5,), 0.9, T)(0.3) == 0.5
        lin = OrderFunction((0.3, 0.2 / T), 0.5, T)
        assert lin(T) == pytest.approx(0.5, abs=1e-15)
        through_zero = OrderFunction((0.0, 0.5 / T), 0.5, T)
        assert through_zero(0.0) == 0.0

    def test_range_where_the_horizon_squared_overflows(self):
        # T^2 = 1e310 leaves the float range; the scaled c_j T^j = (0.6, -0.3) do not
        assert order_range((0.0, 6e-156, -3e-311), 1e155) == (0.0, pytest.approx(0.3))
        OrderFunction((0.0, 6e-156, -3e-311), 0.95, 1e155)

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
        for T in (np.nan, np.inf):
            with pytest.raises(DomainError, match="horizon T must be positive and finite"):
                OrderFunction((0.5,), 0.95, T)

    def test_degree_cap(self):
        with pytest.raises(DomainError, match="degree"):
            OrderFunction((0.1,) * 8, 0.9, 1.0)

    @given(c0=st.floats(0.0, 0.45), c1=st.floats(0.0, 0.45))
    @settings(max_examples=25, deadline=None)
    def test_values_within_bounds(self, c0, c1):
        alpha = OrderFunction((c0, c1), 0.95, 1.0)
        for t in np.linspace(0.0, 1.0, 37):
            assert 0.0 <= alpha(t) <= 0.95

    def test_empty_coefficients_rejected(self):
        with pytest.raises(DomainError, match="at least one coefficient"):
            OrderFunction((), 0.9, 1.0)


class TestProjectAdmissible:
    @pytest.mark.parametrize(
        "coeffs, T, alpha_star",
        [
            # projections on a sample grid left these 5.6e-17 and 2.6e-7 below zero
            ((-0.5, -0.46), 1.0, 0.95),
            ((-1.01, -0.21, -0.16, 0.54, 0.21), 1.0, 0.95),
            # the range fits at c0 = 1 but overshoots once shifted to c0 = 0
            ((1.0, 0.0, 0.01), 0.01, 1e-6),
            # Bernstein coefficients (0.18, 0.59, -0.79) clipped exactly to
            # (0.18, 0.59, 0) map back to an order whose range rounds to -5.6e-17
            ((0.18, 0.82, -1.79), 1.0, 0.95),
        ],
    )
    def test_projection_constructible(self, coeffs, T, alpha_star):
        OrderFunction(project_admissible(coeffs, T, alpha_star), alpha_star, T)

    def test_clip_keeps_an_admissible_initial_order(self):
        # 0.6 - 0.8 t dips below 0 only near t = T: the Bernstein coefficients
        # (0.6, -0.2) clip to (0.6, 0), so alpha(0) stays and alpha(T) ~ 0
        projected = project_admissible((0.6, -0.8), 1.0, 0.95)
        assert projected[0] == 0.6
        assert 0.0 <= order_range(projected, 1.0)[0] <= 1e-13

    @pytest.mark.parametrize("degree", range(7))
    @pytest.mark.parametrize("c0, clipped", [(1.2, 0.95), (-0.3, 0.0)])
    @pytest.mark.parametrize("T", [1.0, 1e-60])
    def test_constant_clips_to_an_exact_constant(self, degree, c0, clipped, T):
        # any rounding left in the higher coefficients of a clipped constant
        # overflows once divided by T^q at a small horizon
        projected = project_admissible((c0,) + (0.0,) * degree, T, 0.95)
        assert projected.tolist() == [clipped] + [0.0] * degree

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

    def test_l1_weights_exactly_one_at_order_zero(self):
        for r in (1.0, 2.5, 4.0):
            mesh = TimeMesh(1.0, 300, r)
            for n in (1, 150, 300):
                assert np.array_equal(l1_weights(mesh, n, 0.0), np.ones(n))

    def test_node_zero_rejected(self):
        mesh = TimeMesh(1.0, 16, 1.0)
        g = sampled(mesh, lambda t: t)
        with pytest.raises(DomainError):
            caputo_vo(g, OrderFunction((0.5,), 0.9, 1.0), 0)

    @pytest.mark.parametrize(
        "n, order", [(0, 0.5), (9, 0.5), (4, 1.2), (4, 1.0), (4, -0.3), (4, np.nan)]
    )
    def test_l1_weights_rejects_bad_node_or_order(self, n, order):
        with pytest.raises(DomainError):
            l1_weights(TimeMesh(1.0, 8, 2.0), n, order)

    def test_samples_must_match_the_nodes(self):
        with pytest.raises(DomainError, match=r"expected 9 samples \(one per node\), got shape \(8,\)"):
            SampledFunction(TimeMesh(1.0, 8, 1.0), np.zeros(8))

    @pytest.mark.parametrize("n", [2.5, True, np.float64(3.0)])
    @pytest.mark.parametrize("site", ["l1_weights", "caputo_vo", "caputo_order_sensitivity"])
    def test_node_index_must_be_an_integer(self, site, n):
        # each of these once raised a bare TypeError, ValueError or IndexError
        mesh = TimeMesh(1.0, 8, 2.0)
        g = sampled(mesh, lambda t: t * t)
        call = {
            "l1_weights": lambda: l1_weights(mesh, n, 0.5),
            "caputo_vo": lambda: caputo_vo(g, OrderFunction((0.5,), 0.9, 1.0), n),
            "caputo_order_sensitivity": lambda: caputo_order_sensitivity(g, 0.5, n),
        }[site]
        with pytest.raises(DomainError, match="node index n must be an integer >= 1"):
            call()

    @pytest.mark.parametrize("n", [np.int64(3), np.array(3)])
    def test_numpy_integer_node_index_accepted(self, n):
        mesh = TimeMesh(1.0, 8, 2.0)
        g = sampled(mesh, lambda t: t * t)
        alpha = OrderFunction((0.5,), 0.9, 1.0)
        assert np.array_equal(l1_weights(mesh, n, 0.5), l1_weights(mesh, 3, 0.5))
        assert caputo_vo(g, alpha, n) == caputo_vo(g, alpha, 3)
        assert caputo_order_sensitivity(g, 0.5, n) == caputo_order_sensitivity(g, 0.5, 3)

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

    @pytest.mark.parametrize("order", [lambda t: np.full_like(t, 0.6), lambda t: 0.3 * t])
    def test_blocked_matches_per_node(self, order):
        M = 2 * SENSITIVITY_BLOCK + 22  # two full blocks and a partial one
        mesh = TimeMesh(1.0, M, 2.5)
        t = mesh.nodes
        a = order(t)
        funcs = np.array([np.sin(3.0 * t), t**0.7, np.exp(-t) * np.cos(5.0 * t)])
        blocked = order_sensitivities(mesh, a, np.diff(funcs, axis=1) / mesh.spacing)
        assert blocked.shape == (3, M + 1)
        assert np.all(blocked[:, 0] == 0.0)
        for g, row in zip(funcs, blocked):
            g = SampledFunction(mesh, g)
            per_node = [caputo_order_sensitivity(g, a[n], n) for n in range(1, M + 1)]
            np.testing.assert_allclose(row[1:], per_node, rtol=1e-13, atol=0.0)

    def test_rows_match_scipy_special_functions(self, monkeypatch):
        # scipy.special is the reference for math.gamma and _digamma here
        mesh = TimeMesh(1.0, 200, 2.5)
        n = np.array([1, 2, 7, 64, 200])
        for order in (0.0, 0.3, 0.6, 0.95):
            a = np.full(n.size, order)
            rows = fracops._sensitivity_weight_rows(mesh, n, a)
            with monkeypatch.context() as m:
                m.setattr(fracops, "_digamma", digamma)
                m.setattr(fracops, "math", types.SimpleNamespace(gamma=gamma))
                reference = fracops._sensitivity_weight_rows(mesh, n, a)
            np.testing.assert_allclose(rows, reference, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("order", [lambda t: np.full_like(t, 0.5), lambda t: 0.3 + 0.2 * t])
    def test_rows_bitwise_against_reference(self, order):
        # the blocks of order_sensitivities at M = 256, and one block of 1,000 nodes
        small, large = TimeMesh(1.0, 256, 2.0 / 0.7), TimeMesh(1.0, 1000, 2.0 / 0.7)
        cases = [(small, np.arange(first, first + SENSITIVITY_BLOCK))
                 for first in range(1, 257, SENSITIVITY_BLOCK)]
        for mesh, n in cases + [(large, np.arange(1, 1001))]:
            a = order(mesh.nodes[n])
            rows = fracops._sensitivity_weight_rows(mesh, n, a)
            assert np.array_equal(rows, reference_sensitivity_rows(mesh, n, a))

    @pytest.mark.parametrize("r", [1.0, 2.5, 4.0])
    def test_rows_match_mpmath_order_derivative(self, r):
        # whole rows against a 40-digit d/da of the L1 increment row
        # (p_{j-1} - p_j) / Gamma(2-a), p_j = (t_n - t_j)^(1-a), on the same
        # double nodes; the error is relative to the row's largest entry
        import mpmath

        mesh = TimeMesh(1.0, 200, r)
        n = np.array([1, 2, 37, 200])
        for order in (0.0, 0.3, 0.538, 0.95, 0.99):
            rows = fracops._sensitivity_weight_rows(mesh, n, np.full(n.size, order))
            with mpmath.workdps(40):
                oma = 1 - mpmath.mpf(order)
                psi, gam = mpmath.digamma(1 + oma), mpmath.gamma(1 + oma)
                for row, m in zip(rows, n):
                    tau = [mpmath.mpf(mesh.nodes[m]) - mpmath.mpf(x) for x in mesh.nodes[: m + 1]]
                    p = [x**oma if x > 0 else mpmath.mpf(0) for x in tau]
                    q = [pj * mpmath.log(x) if x > 0 else mpmath.mpf(0) for pj, x in zip(p, tau)]
                    exact = np.array(
                        [float((psi * (p[j - 1] - p[j]) - (q[j - 1] - q[j])) / gam)
                         for j in range(1, m + 1)]
                    )
                    assert np.all(row[m:] == 0.0)
                    err = np.abs(row[:m] - exact).max() / np.abs(exact).max()
                    assert err <= 1e-14, (order, m, err)

    def test_blocked_rejects_bad_order(self):
        mesh = TimeMesh(1.0, 16, 1.0)
        a = np.full(17, 0.5)
        a[9] = 1.0
        with pytest.raises(DomainError, match="order value 1.0"):
            order_sensitivities(mesh, a, np.ones((2, 16)))

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
    worst_g = max(
        abs(math.gamma(x) - float(mpmath.gamma(x))) / float(mpmath.gamma(x)) for x in xs
    )
    worst_d = max(
        abs(fracops._digamma(x) - float(mpmath.digamma(x)))
        / max(1e-3, abs(float(mpmath.digamma(x))))
        for x in xs
    )
    assert worst_g <= 1e-12
    assert worst_d <= 1e-12


def test_digamma_matches_mpmath_where_the_operators_use_it():
    # the operators take psi(1 - a) with 0 <= a <= alpha_star < 1, so x in (0, 1]
    import mpmath

    xs = np.concatenate([np.linspace(0.0, 1.0, 2001)[1:], np.geomspace(1e-8, 1.0, 200)])
    with mpmath.workdps(30):
        exact = np.array([float(mpmath.digamma(mpmath.mpf(x))) for x in xs])
    np.testing.assert_allclose(fracops._digamma(xs), exact, rtol=1e-14, atol=0.0)
