import math
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import exact_mode, manufactured_mode, reference_block_inverses
from vordiff import (
    DomainError,
    ModelSpec,
    NumericalError,
    OrderFunction,
    TimeMesh,
    default_grading,
    l1_weights,
    solve_forward,
    solve_mode,
    stability_ratio,
    step_modes,
)
import vordiff.forward
from vordiff.forward import CHUNK_INVERSES, SOE_MIN_M, STEP_BLOCK, _block_tables

L = np.pi
MODE1 = lambda x: np.sqrt(2.0 / L) * np.sin(np.asarray(x))
PARABOLA = lambda x: np.asarray(x) * (L - np.asarray(x))

# regression oracle for the constant-order 0.5 mode problem
# (k = 1, lam = 1, u0i = 1), frozen from a reference run at M = 16384, r = 4
REFERENCE_MODE_VALUE = 0.5932503284447019
REFERENCE_MODE_MESH = (16384, 4.0)

# regression values for the full model u0 = x(L - x), k = 1,
# alpha(t) = 0.3 + 0.2 t, N = 8, M = 512, r = 2/(1 - 0.3)
REFERENCE_FIELD_MIDPOINT = 1.4854624041662658


def spec_with(alpha, k=1.0, T=1.0, u0=MODE1):
    return ModelSpec(K=1.0, L=L, T=T, k_coeffs=(k,), alpha=alpha, u0=u0)


def reference_step_modes(mesh, a, k, lam, u0, forcing=None):
    """The scheme of step_modes written on increments with whole L1 weight
    rows: w[-1] is the implicit weight, w[:-1] weighs u_j - u_{j-1}."""
    lam = np.asarray(lam, dtype=float)
    u = np.empty((lam.size, mesh.M + 1))
    u[:, 0] = u0
    for n in range(1, mesh.M + 1):
        w = l1_weights(mesh, n, a[n])
        d = 1.0 / mesh.spacing[n - 1] + k[n] * w[-1]
        rhs = u[:, n - 1] * d - k[n] * (np.diff(u[:, :n], axis=1) @ w[:-1])
        if forcing is not None:
            rhs += forcing[:, n]
        u[:, n] = rhs / (d + lam)
    return u


class TestDefaultGrading:
    def test_values(self):
        assert default_grading(0.0) == 1.0
        assert default_grading(0.3) == pytest.approx(2.0 / 0.7)
        assert default_grading(0.5) == 4.0
        assert default_grading(0.8) == 4.0  # capped


class TestSolveMode:
    def test_heat_limit(self):
        spec = spec_with(OrderFunction((0.5,), 0.9, 1.0), k=0.0)
        mesh = TimeMesh(1.0, 2048, 1.0)
        traj = solve_mode(1.0, 1.0, spec, mesh)
        assert traj[-1] == pytest.approx(np.exp(-1.0), abs=1e-4)
        assert np.abs(traj - np.exp(-mesh.nodes)).max() <= 1e-4

    def test_identity_limit_closed_form(self):
        # alpha = 0 collapses the memory term: u' = -(lam + k) u + k u0,
        # so u(t) = u0 (k + lam exp(-(lam + k) t)) / (lam + k).
        spec = spec_with(OrderFunction((0.0,), 0.5, 1.0), k=1.0)
        mesh = TimeMesh(1.0, 2048, 1.0)
        traj = solve_mode(1.0, 1.0, spec, mesh)
        exact = (1.0 + np.exp(-2.0 * mesh.nodes)) / 2.0
        assert traj[-1] == pytest.approx((1.0 + np.exp(-2.0)) / 2.0, abs=1e-4)
        assert np.abs(traj - exact).max() <= 1e-4

    def test_fine_mesh_regression_value(self):
        spec = spec_with(OrderFunction((0.5,), 0.9, 1.0))
        M, r = REFERENCE_MODE_MESH
        coarse = solve_mode(1.0, 1.0, spec, TimeMesh(1.0, 2048, r))
        assert coarse[-1] == pytest.approx(REFERENCE_MODE_VALUE, abs=2e-4)

    def test_discrete_decay(self):
        for coeffs in ((0.0, 0.4), (0.3,), (0.5,), (0.8,)):
            spec = spec_with(OrderFunction(coeffs, 0.9, 1.0), k=2.0)
            for r in (1.0, 2.0, 4.0):
                traj = solve_mode(3.0, -2.0, spec, TimeMesh(1.0, 256, r))
                assert np.all(np.abs(traj) <= abs(traj[0]) * (1 + 1e-14))

    def test_requires_positive_eigenvalue(self):
        spec = spec_with(OrderFunction((0.5,), 0.9, 1.0))
        with pytest.raises(DomainError):
            solve_mode(0.0, 1.0, spec, TimeMesh(1.0, 16, 1.0))

    def test_non_invertible_step_reported(self):
        # strongly negative reaction coefficient flips the step coefficient
        spec = spec_with(OrderFunction((0.5,), 0.9, 1.0), k=-1e6)
        with pytest.raises(NumericalError, match="step coefficient"):
            solve_mode(1.0, 1.0, spec, TimeMesh(1.0, 64, 1.0))

    def test_step_failing_mid_mesh_reported_at_its_node(self):
        # k(t) = 1e6 (1 - 2t) turns negative after t = 0.5 = t_32; the solve
        # must stop at node 33 before any step divides by a negative coefficient
        spec = ModelSpec(K=1.0, L=L, T=1.0, k_coeffs=(1e6, -2e6),
                         alpha=OrderFunction((0.5,), 0.9, 1.0), u0=MODE1)
        with pytest.raises(NumericalError, match="step coefficient .* at node 33 "):
            solve_mode(1.0, 1.0, spec, TimeMesh(1.0, 64, 1.0))

    def test_step_coefficients_checked_before_any_step(self, monkeypatch):
        # k(t) = 1 - 16 t turns negative at t = 1/16; at node 33 (k = -7.25)
        # the coefficient of lam = 1 is the first to fail while lam = 4 passes
        mesh = TimeMesh(1.0, 64, 1.0)
        rows = []
        increments = vordiff.forward._kernel_increments
        monkeypatch.setattr(vordiff.forward, "_kernel_increments",
                            lambda *args: rows.append(args) or increments(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"at node 33 \(.*, lam = 1, "):
                step_modes(mesh, np.full(65, 0.5), 1.0 - 16.0 * mesh.nodes, [4.0, 1.0], [1.0, 1.0])
        assert rows == []  # no node was stepped

    @pytest.mark.parametrize("bad", ["u0", "forcing", "order_one", "a_short", "k_short", "order_negative"])
    def test_inputs_checked_before_any_row(self, monkeypatch, bad):
        # mesh M = 8, two modes: a mis-shaped input must not be broadcast,
        # and an order outside [0, 1) must not reach the kernel rows
        mesh = TimeMesh(1.0, 8, 1.0)
        inputs = dict(a=np.full(9, 0.5), k=np.ones(9), u0=np.array([1.0, 0.5]),
                      forcing=np.zeros((2, 9)))
        inputs.update({
            "u0": dict(u0=np.array([1.0])),
            "forcing": dict(forcing=np.zeros((1, 9))),
            "order_one": dict(a=np.ones(9)),
            "a_short": dict(a=np.full(8, 0.5)),
            "k_short": dict(k=np.ones(8)),
            "order_negative": dict(a=np.r_[np.full(8, 0.5), -0.1]),
        }[bad])
        rows = []
        increments = vordiff.forward._kernel_increments
        monkeypatch.setattr(vordiff.forward, "_kernel_increments",
                            lambda *args: rows.append(args) or increments(*args))
        with pytest.raises(DomainError):
            step_modes(mesh, inputs["a"], inputs["k"], [1.0, 4.0], inputs["u0"], inputs["forcing"])
        assert rows == []
        # the patched builder sees every block's history rows of a valid call,
        # and the band of each of its two table builds (see the next test)
        step_modes(TimeMesh(1.0, 33, 1.0), np.full(34, 0.5), np.ones(34), [1.0, 4.0], [1.0, 0.5])
        assert len(rows) == -(-33 // STEP_BLOCK) + 2

    @pytest.mark.parametrize("bad", ["u0", "forcing", "order_one", "order_negative", "a_short",
                                     "coefficient"])
    def test_inputs_checked_before_any_table(self, monkeypatch, bad):
        # mis-shaped inputs, orders outside [0, 1) and a failing step
        # coefficient (k = -1e6) must stop the call before any block table
        mesh = TimeMesh(1.0, 8, 1.0)
        inputs = dict(a=np.full(9, 0.5), k=np.ones(9), u0=np.array([1.0, 0.5]), forcing=None)
        inputs.update({
            "u0": dict(u0=np.array([1.0])),
            "forcing": dict(forcing=np.zeros((1, 9))),
            "order_one": dict(a=np.ones(9)),
            "order_negative": dict(a=np.r_[np.full(8, 0.5), -0.1]),
            "a_short": dict(a=np.full(8, 0.5)),
            "coefficient": dict(k=np.full(9, -1e6)),
        }[bad])
        built = []
        block_tables = vordiff.forward._block_tables
        monkeypatch.setattr(
            vordiff.forward, "_block_tables", lambda *args: built.append(args) or block_tables(*args)
        )
        with pytest.raises(DomainError if bad != "coefficient" else NumericalError):
            step_modes(mesh, inputs["a"], inputs["k"], [1.0, 4.0], inputs["u0"], inputs["forcing"],
                       tables={})
        assert built == []
        # the patched builder sees the tables of a valid call: M = 33 is two
        # full blocks in one chunk and a one-node block alone
        step_modes(TimeMesh(1.0, 33, 1.0), np.full(34, 0.5), np.ones(34), [1.0, 4.0], [1.0, 0.5])
        assert [args[-2:] for args in built] == [(2, STEP_BLOCK), (1, 1)]

    def test_needs_order(self):
        spec = spec_with(None)
        with pytest.raises(DomainError):
            solve_mode(1.0, 1.0, spec, TimeMesh(1.0, 16, 1.0))

    def test_non_finite_trajectory_reported(self):
        # a NaN start value passes the shape, order and coefficient checks
        with pytest.raises(NumericalError, match="trajectory contains non-finite values"):
            step_modes(TimeMesh(1.0, 16, 1.0), np.full(17, 0.5), np.ones(17), [1.0], [np.nan])


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("coeffs", [(0.5,), (0.3, 0.2), (0.0, 0.4), (0.0,), (0.9,)])
@pytest.mark.parametrize("r", [1.0, 2.5, 4.0])
# M = 1, 15, 16, 17, 33: one node, a block less one, one block, a block
# plus one, two blocks plus one
@pytest.mark.parametrize("M", [64, 300, 2048, 1, 15, 16, 17, 33])
def test_step_modes_matches_weight_row_stepper(M, r, coeffs, forced):
    mesh = TimeMesh(1.0, M, r)
    a = OrderFunction(coeffs, 0.95, 1.0)(mesh.nodes)
    k = 1.0 + 0.5 * mesh.nodes
    lam = np.array([1.0, 4.0, 9.0, 25.0])
    u0 = np.array([1.0, -0.5, 0.25, 0.1])
    forcing = np.cos(np.outer(lam, mesh.nodes)) if forced else None
    got = step_modes(mesh, a, k, lam, u0, forcing)
    want = reference_step_modes(mesh, a, k, lam, u0, forcing)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("coeffs", [(0.5,), (0.0, 0.4)])
def test_step_modes_matches_weight_row_stepper_m8192(coeffs):
    # the forward_fine benchmark's mesh, M = 8192 and r = 4, where h_1 = 2.2e-16;
    # kept out of the cross-product above because the reference stepper
    # takes about a second here
    mesh = TimeMesh(1.0, 8192, 4.0)
    a = OrderFunction(coeffs, 0.95, 1.0)(mesh.nodes)
    k = 1.0 + 0.5 * mesh.nodes
    lam = np.array([1.0, 4.0, 9.0, 25.0])
    u0 = np.array([1.0, -0.5, 0.25, 0.1])
    got = step_modes(mesh, a, k, lam, u0)
    want = reference_step_modes(mesh, a, k, lam, u0)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("M, r", [(1024, 8.0), (1024, 10.0), (1024, 12.0), (SOE_MIN_M - 1, 12.0)],
                         ids=["steep_r8", "steep_r10", "steep_r12", "steep_r12_below_soe"])
def test_exact_history_on_steep_grading(M, r):
    # r = (2 - a) / a resolves t^a at a(0) = a, and r > 6 below a(0) = 0.29;
    # the exact history keeps the gate however small h_1 / t_n gets
    mesh = TimeMesh(1.0, M, r)
    a, k, lam, u0 = np.full(M + 1, 0.5), np.ones(M + 1), [1.0, 4.0], [1.0, 0.5]
    want = reference_step_modes(mesh, a, k, lam, u0)
    assert np.abs(step_modes(mesh, a, k, lam, u0) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("M", [48, 64, pytest.param(2056, id="soe2056"),
                               pytest.param(2048, id="soe2048")])
def test_step_modes_order_zero_inside_block(M, forced):
    # alpha(t) = 0.4 - 1.6 t + 1.6 t^2 vanishes at t = 0.5 only: at node 24,
    # mid-block, for M = 48 and at node 32, a block's last node, for M = 64;
    # likewise at nodes 1028 and 1024 on the sum of exponentials, whose
    # weights vanish there and leave the identity limit
    mesh = TimeMesh(1.0, M, 1.0)
    a = OrderFunction((0.4, -1.6, 1.6), 0.95, 1.0)(mesh.nodes)
    assert a[M // 2] == 0.0 and np.all(np.delete(a, M // 2) > 0.0)
    k = 1.0 + 0.5 * mesh.nodes
    lam = np.array([1.0, 4.0, 9.0])
    u0 = np.array([1.0, -0.5, 0.25])
    forcing = np.cos(np.outer(lam, mesh.nodes)) if forced else None
    got = step_modes(mesh, a, k, lam, u0, forcing)
    want = reference_step_modes(mesh, a, k, lam, u0, forcing)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("M", [17, 2048])
def test_step_modes_batch_bitwise(M):
    # every mode's trajectory is bitwise the one it gets alone, also when
    # the batch repeats an eigenvalue, and at M = 2048, where one history
    # product is large enough for BLAS to split it over threads
    mesh = TimeMesh(1.0, M, 2.5)
    a = OrderFunction((0.3, 0.2), 0.95, 1.0)(mesh.nodes)
    k = 1.0 + 0.5 * mesh.nodes
    lam = np.array([1.0, 4.0, 9.0, 1.0, 25.0, 4.0])
    u0 = np.array([1.0, -0.5, 0.25, 0.0, 0.1, 2.0])
    forcing = np.cos(np.outer(np.arange(1.0, 7.0), mesh.nodes))
    for f in (None, forcing):
        batch = step_modes(mesh, a, k, lam, u0, f)
        for i in range(lam.size):
            solo = step_modes(mesh, a, k, lam[i : i + 1], u0[i : i + 1],
                              None if f is None else f[i : i + 1])
            assert np.array_equal(solo[0], batch[i])


def assert_stacked_rhs_bitwise(M, kept, forced):
    mesh = TimeMesh(1.0, M, 2.5)
    a = OrderFunction((0.3, 0.2), 0.95, 1.0)(mesh.nodes)
    k = 1.0 + 0.5 * mesh.nodes
    lam = np.array([1.0, 4.0, 9.0, 25.0])
    u0 = np.array([[1.0, -0.5, 0.25, 0.1], [0.0, 0.0, 0.0, 0.0], [2.0, 1.0, -1.0, 0.5]])
    forcing = np.cos(np.arange(1.0, 4.0)[:, None, None] * np.outer(lam, mesh.nodes))
    forcing = forcing if forced else None
    tables = {} if kept else None
    stacked = step_modes(mesh, a, k, lam, u0, forcing, tables)
    assert stacked.shape == (3, 4, M + 1)
    for i in range(3):
        row = step_modes(mesh, a, k, lam, u0[i], None if forcing is None else forcing[i], tables)
        assert np.array_equal(row, stacked[i])


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("kept", [False, True])
def test_step_modes_stacked_rhs_bitwise(kept, forced):
    # right-hand sides stacked on a leading axis, as the Jacobian's
    # coefficient columns are, each step bitwise as they do alone; M = 33
    # ends on a one-node block
    assert_stacked_rhs_bitwise(33, kept, forced)


def test_step_tables_read_only_for_their_inputs(monkeypatch):
    mesh = TimeMesh(1.0, 40, 1.0)
    base = dict(mesh=mesh, a=np.full(41, 0.5), k=np.ones(41), lam=[1.0, 4.0])
    tables = {}
    first = step_modes(base["mesh"], base["a"], base["k"], base["lam"], [1.0, 0.5], tables=tables)
    for change in (dict(mesh=TimeMesh(1.0, 40, 2.0)), dict(a=np.full(41, 0.4)),
                   dict(k=np.full(41, 2.0)), dict(lam=[1.0, 9.0]), dict(lam=[4.0, 1.0])):
        args = {**base, **change}
        with pytest.raises(DomainError, match="step tables"):
            step_modes(args["mesh"], args["a"], args["k"], args["lam"], [1.0, 0.5], tables=tables)
    # stacked right-hand sides on the same eigenvalues read the tables
    built = []
    monkeypatch.setattr(vordiff.forward, "_block_tables", lambda *args: built.append(args))
    again = step_modes(mesh, base["a"], base["k"], base["lam"], [[0.0, 0.0], [1.0, 0.5]],
                       tables=tables)
    assert built == [] and np.array_equal(again[1], first) and not again[0].any()


@pytest.mark.parametrize("M, r, coeffs, lam", [
    (8192, 4.0, (0.5,), [1.0, 4.0]),  # forward_fine's first chunk, h_1 = 2.2e-16
    (256, 2.0 / 0.7, (0.3, 0.2), np.geomspace(1.0, 1e6, 16)),
    (33, 2.5, (0.3, 0.2), [1.0, 1e3, 1e6]),  # short last blocks of 1, 7 and 15 nodes
    (39, 2.5, (0.3, 0.2), [1.0, 1e3, 1e6]),
    (47, 2.5, (0.0, 0.4), [1.0, 1e3, 1e6]),
])
def test_block_inverses_bitwise_per_eigenvalue(M, r, coeffs, lam):
    # the in-block inverses agree with forward substitution (measured 1.2e-15
    # of max|inv| at worst), and each is bitwise the one it gets alone: as
    # the only eigenvalue of its chunk and as the only block
    mesh = TimeMesh(1.0, M, r)
    a = OrderFunction(coeffs, 0.95, 1.0)(mesh.nodes)
    k_gam = 1.0 / np.fromiter(map(math.gamma, 2.0 - a[1:]), float, M)
    lam = np.asarray(lam)
    b = M % STEP_BLOCK or STEP_BLOCK
    first, count = (1, min(CHUNK_INVERSES // lam.size, M // b)) if b == STEP_BLOCK else (M - b + 1, 1)
    inv = _block_tables(mesh, a, k_gam, lam, first, count, b)[1]
    assert inv.shape == (count, lam.size, b, b)
    want = reference_block_inverses(mesh, a, k_gam, lam, first, count, b)
    scale = np.abs(want).max(axis=(2, 3), keepdims=True)
    assert np.all(np.abs(inv - want) <= 1e-14 * scale)
    for i in range(lam.size):
        alone = _block_tables(mesh, a, k_gam, lam[i : i + 1], first, count, b)[1]
        assert np.array_equal(alone[:, 0], inv[:, i])
    assert np.array_equal(_block_tables(mesh, a, k_gam, lam, first, 1, b)[1][0], inv[0])


def test_step_modes_memory_ceiling():
    # the tables of one chunk at a time are kept: at M = 8192, N = 2 the
    # whole call, with its one (16, M) row buffer, peaks below 2.6 MiB
    mesh = TimeMesh(1.0, 8192, 4.0)
    a = OrderFunction((0.5,), 0.95, 1.0)(mesh.nodes)
    k, lam, u0 = np.ones(8193), np.array([1.0, 4.0]), np.array([1.0, 0.5])
    tracemalloc.start()
    try:
        step_modes(mesh, a, k, lam, u0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 2**20


# Meshes of SOE_MIN_M or more intervals sum the history by exponentials;
# each case below is gated against the weight-row stepper at the exact
# path's 1e-13, with four modes and k = 1 + 0.5 t / T.
SOE_LAM, SOE_U0 = np.array([1.0, 4.0, 9.0, 25.0]), np.array([1.0, -0.5, 0.25, 0.1])


def soe_case(mesh, coeffs, forced):
    """(a, k, forcing) at the nodes for the order sum_j coeffs[j] (t / T)^j."""
    assert mesh.M >= SOE_MIN_M
    scaled = [c / mesh.T**j for j, c in enumerate(coeffs)]
    a = OrderFunction(scaled, 0.95, mesh.T)(mesh.nodes)
    forcing = np.cos(np.outer(SOE_LAM, mesh.nodes / mesh.T)) if forced else None
    return a, 1.0 + 0.5 * mesh.nodes / mesh.T, forcing


def assert_soe_matches_weight_rows(mesh, a, k, forcing):
    got = step_modes(mesh, a, k, SOE_LAM, SOE_U0, forcing)
    want = reference_step_modes(mesh, a, k, SOE_LAM, SOE_U0, forcing)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("coeffs", [(0.5,), (0.05, 0.85)])
@pytest.mark.parametrize("T", [0.01, 10.0])
def test_soe_history_matches_weight_row_stepper_on_horizon(T, coeffs, forced):
    # the exponentials start at x = e^-33 / T, so T moves the whole sum
    mesh = TimeMesh(T, 2048, 2.5)
    assert_soe_matches_weight_rows(mesh, *soe_case(mesh, coeffs, forced))


@pytest.mark.parametrize("coeffs", [(0.5,), (0.3, 0.2)])
def test_soe_history_on_explicit_nodes(coeffs):
    # jittered steps, not monotone, with one step of 1e-9 late in the mesh:
    # every block before it keeps the exponentials that step needs
    h = np.random.default_rng(29).uniform(0.2, 1.8, 2100)
    h[1500] = 1e-9 * h.sum()
    mesh = TimeMesh.from_nodes(np.concatenate(([0.0], np.cumsum(h) / h.sum())))
    assert_soe_matches_weight_rows(mesh, *soe_case(mesh, coeffs, True))


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("coeffs", [(0.5,), (0.3, 0.2)])
@pytest.mark.parametrize("M", [2050, 2063], ids=["graded_last2", "explicit_last15"])
def test_soe_history_on_short_last_blocks(M, coeffs, forced):
    # a short last block of 2 or 15 nodes reads its history rows and its
    # decay rows from the same padded exponent table as the full blocks
    h = np.random.default_rng(33).uniform(0.2, 1.8, M)  # jittered steps for the explicit nodes
    nodes = np.concatenate(([0.0], np.cumsum(h) / h.sum()))
    mesh = TimeMesh(1.0, M, 2.5) if M == 2050 else TimeMesh.from_nodes(nodes)
    assert M % STEP_BLOCK in (2, 15)
    assert_soe_matches_weight_rows(mesh, *soe_case(mesh, coeffs, forced))


@pytest.mark.parametrize("M", [300, 2050])
def test_constant_order_gamma_bitwise(M):
    # a constant order takes Gamma(2 - a) from one math.gamma call: given as
    # (0.5,) or as (0.5, 0.0) it steps bitwise alike, and an order that
    # leaves 0.5 only at the last node, so that every node gets its own
    # math.gamma, steps bitwise alike up to the short last block, whose
    # tables are built alone
    mesh = TimeMesh(1.0, M, 4.0)
    k = 1.0 + 0.5 * mesh.nodes
    const = step_modes(mesh, OrderFunction((0.5,), 0.95, 1.0)(mesh.nodes), k, SOE_LAM, SOE_U0)
    a = OrderFunction((0.5, 0.0), 0.95, 1.0)(mesh.nodes)
    assert np.array_equal(step_modes(mesh, a, k, SOE_LAM, SOE_U0), const)
    a[-1], first = 0.4, M - M % STEP_BLOCK + 1
    assert np.array_equal(step_modes(mesh, a, k, SOE_LAM, SOE_U0)[:, :first], const[:, :first])


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("kept", [False, True])
def test_soe_history_stacked_rhs_bitwise(kept, forced):
    # each stacked right-hand side carries its own exponential state;
    # M = 2049 ends on a one-node block
    assert 2049 >= SOE_MIN_M
    assert_stacked_rhs_bitwise(2049, kept, forced)


def test_soe_history_on_steep_grading():
    # r = 40 puts h_1 at 3.5e-133: the sum of exponentials keeps the gate
    # (measured 1e-14), where the exact sum by parts is off by 1e65
    mesh = TimeMesh(1.0, 2048, 40.0)
    assert_soe_matches_weight_rows(mesh, *soe_case(mesh, (0.5,), False))


@pytest.mark.parametrize("T, r", [(1e290, 1.0), (1.0, 92.7)], ids=["long_horizon", "h_1e-307"])
def test_soe_history_not_past_the_float_range(T, r, monkeypatch):
    # x_l from e^-33 / T to 45 / h_min would leave the normal floats
    # (45 / h_min overflows at h_1 = 1.1e-307): the exact sum runs instead
    mesh = TimeMesh(T, SOE_MIN_M, r)
    args = (mesh, np.full(SOE_MIN_M + 1, 0.5), np.ones(SOE_MIN_M + 1), SOE_LAM, SOE_U0)
    got = step_modes(*args)
    monkeypatch.setattr(vordiff.forward, "SOE_MIN_M", SOE_MIN_M + 1)
    assert np.array_equal(got, step_modes(*args))


def test_soe_history_only_from_soe_min_m(monkeypatch):
    # one interval less runs the exact sum, bitwise what it was; from
    # SOE_MIN_M on the result moves, by rounding only
    def pair(M):
        mesh = TimeMesh(1.0, M, 4.0)
        a = OrderFunction((0.5, 0.2), 0.95, 1.0)(mesh.nodes)
        k = 1.0 + 0.5 * mesh.nodes
        got = step_modes(mesh, a, k, SOE_LAM, SOE_U0)
        with monkeypatch.context() as m:
            m.setattr(vordiff.forward, "SOE_MIN_M", M + 1)
            return got, step_modes(mesh, a, k, SOE_LAM, SOE_U0)
    below, exact = pair(SOE_MIN_M - 1)
    assert np.array_equal(below, exact)
    soe, exact = pair(SOE_MIN_M)
    assert not np.array_equal(soe, exact)
    assert np.abs(soe - exact).max() <= 1e-13 * np.abs(exact).max()


MANUFACTURED_ORDERS = {
    "0.5": (0.5,), "0.5+0.2t": (0.5, 0.2), "0.3+0.2t": (0.3, 0.2),
    "0.05+0.85t": (0.05, 0.85), "0.6t-0.3t^2": (0.0, 0.6, -0.3),
}


def manufactured_run(alpha, k, lam, terms, mesh):
    """step_modes on one mode against manufactured_mode: (computed, exact)."""
    u, f = manufactured_mode(alpha, k, lam, terms, mesh)
    a = np.polynomial.polynomial.polyval(mesh.nodes, alpha)
    kn = np.polynomial.polynomial.polyval(mesh.nodes, k)
    return step_modes(mesh, a, kn, [lam], [u[0]], f[None])[0], u


class TestManufacturedReference:
    """u = 1 - t + t^(2 - alpha(0)) has the true solution's t^(-alpha(0))
    blow-up in u''; manufactured_mode makes it an exact solution at a
    varying order and a varying k.  Gates fixed from a probe before this
    test: M * max nodal error 0.15-0.46 at r = 1 and 0.29-0.70 at the
    default grading, rates 0.994-1.034 (M = 256 and 1024)."""

    @staticmethod
    def assert_first_order(alpha, r, gate, meshes):
        terms = [(1.0, 0.0), (-1.0, 1.0), (1.0, 2.0 - alpha[0])]
        r = default_grading(alpha[0]) if r is None else r
        for k in [(1.0,), (1.0, 0.5), (2.0, -1.0)]:
            for lam in (1.0, 4.0):
                errs = []
                for M in meshes:
                    got, exact = manufactured_run(alpha, k, lam, terms, TimeMesh(1.0, M, r))
                    errs.append(np.abs(got - exact).max())
                    assert M * errs[-1] <= gate, (k, lam, M, M * errs[-1])
                rate = np.log(errs[0] / errs[1]) / np.log(4.0)
                assert 0.95 <= rate <= 1.10, (k, lam, rate)

    @pytest.mark.parametrize("r, gate", [(1.0, 0.5), (None, 0.8)], ids=["uniform", "graded"])
    @pytest.mark.parametrize("alpha", MANUFACTURED_ORDERS.values(), ids=MANUFACTURED_ORDERS)
    def test_first_order_at_every_node(self, alpha, r, gate):
        self.assert_first_order(alpha, r, gate, (256, 1024))

    @pytest.mark.parametrize("r, gate", [(1.0, 0.5), (None, 0.8)], ids=["uniform", "graded"])
    @pytest.mark.parametrize("alpha", MANUFACTURED_ORDERS.values(), ids=MANUFACTURED_ORDERS)
    def test_first_order_on_soe_mesh(self, alpha, r, gate):
        # M = 4096 takes the sum-of-exponentials history: the same gates and
        # rate window, from the exact path's M = 1024
        assert 1024 < SOE_MIN_M <= 4096
        self.assert_first_order(alpha, r, gate, (1024, 4096))

    def test_stacked_solutions_match_single_calls(self):
        # three manufactured solutions on two modes in one call: each is
        # bitwise its own call
        alpha, k, lam, M = (0.3, 0.2), (1.0, 0.5), [1.0, 4.0], 256
        mesh = TimeMesh(1.0, M, default_grading(alpha[0]))
        term_sets = ([(1.0, 0.0), (-1.0, 1.0), (1.0, 1.7)], [(2.0, 1.0), (0.5, 1.5)],
                     [(-1.0, 0.0), (3.0, 2.0)])
        pairs = [[manufactured_mode(alpha, k, l, terms, mesh) for l in lam] for terms in term_sets]
        exact = np.array([[u for u, _ in modes] for modes in pairs])
        forcing = np.array([[f for _, f in modes] for modes in pairs])
        a = np.polynomial.polynomial.polyval(mesh.nodes, alpha)
        kn = np.polynomial.polynomial.polyval(mesh.nodes, k)
        stacked = step_modes(mesh, a, kn, lam, exact[:, :, 0], forcing)
        for i in range(len(term_sets)):
            alone = step_modes(mesh, a, kn, lam, exact[i, :, 0], forcing[i])
            assert np.array_equal(stacked[i], alone)


class TestExactReference:
    """One mode with k = lam = u0 = 1 and T = 1 against its inverted Laplace
    transform; measured errors at T are 6.6-7.6e-4 (M = 256) and 1.55-1.87e-4
    (M = 1024) at the default grading, rates 1.00-1.04."""

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
    def test_first_order_error_at_T(self, a):
        exact = exact_mode(a, 1.0, 1.0, 1.0, 1.0)
        errs = []
        for M in (256, 1024):
            mesh = TimeMesh(1.0, M, default_grading(a))
            u = step_modes(mesh, np.full(M + 1, a), np.ones(M + 1), [1.0], [1.0])[0]
            errs.append(abs(u[-1] - exact))
            assert errs[-1] <= 0.25 / M, (a, M, errs[-1])
        rate = np.log(errs[0] / errs[1]) / np.log(4.0)
        assert 0.95 <= rate <= 1.10, (a, rate)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
    def test_first_order_error_at_coarse_nodes(self, a):
        # the 17 nodes of TimeMesh(1, 16, r) are nodes of each finer mesh;
        # measured M * max error 0.159-0.195, rates 1.00-1.04
        coarse = TimeMesh(1.0, 16, default_grading(a))
        exact = [1.0] + [exact_mode(a, 1.0, 1.0, 1.0, t) for t in coarse.nodes[1:]]
        errs = []
        for M in (256, 1024):
            mesh = TimeMesh(1.0, M, default_grading(a))
            assert np.array_equal(mesh.nodes[:: M // 16], coarse.nodes)
            u = step_modes(mesh, np.full(M + 1, a), np.ones(M + 1), [1.0], [1.0])[0]
            errs.append(np.abs(u[:: M // 16] - exact).max())
            assert errs[-1] <= 0.25 / M, (a, M, errs[-1])
        rate = np.log(errs[0] / errs[1]) / np.log(4.0)
        assert 0.95 <= rate <= 1.10, (a, rate)

    def test_talbot_agrees_with_de_hoog(self):
        talbot = exact_mode(0.5, 1.0, 1.0, 1.0, 1.0)
        assert abs(talbot - exact_mode(0.5, 1.0, 1.0, 1.0, 1.0, method="dehoog")) <= 1e-14
        assert talbot == pytest.approx(0.593238799137824, abs=1e-14)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
    def test_first_derivative_starts_at_minus_lam_u0(self, a):
        # u'(0) = -lam u0; measured offsets 4.4e-9, 1.1e-6 and 4.3e-3 at t = 1e-12
        assert exact_mode(a, 1.0, 1.0, 1.0, 1e-12, derivative=1) == pytest.approx(-1.0, rel=1e-2)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.8])
    def test_second_derivative_blow_up_constant(self, a):
        # t^a u''(t) -> k lam u0 / Gamma(1 - a) as t -> 0: measured offsets
        # 3.3e-4, 2.0e-12 and 8.2e-3 at t = 1e-12, where Talbot and de Hoog
        # agree to 5.2e-10 at worst (a = 0.3, mpmath 1.3.0)
        t = 1e-12
        talbot = exact_mode(a, 1.0, 1.0, 1.0, t, derivative=2)
        assert t**a * talbot * math.gamma(1.0 - a) == pytest.approx(1.0, rel=2e-2)
        dehoog = exact_mode(a, 1.0, 1.0, 1.0, t, method="dehoog", derivative=2)
        assert abs(talbot - dehoog) <= 1e-8 * abs(dehoog)

    def test_frozen_reference_distance_from_truth(self):
        # REFERENCE_MODE_VALUE is the scheme's own M = 16384 value, 1.15e-5
        # from the truth: within the first-order gate at that mesh
        M, _ = REFERENCE_MODE_MESH
        assert abs(REFERENCE_MODE_VALUE - exact_mode(0.5, 1.0, 1.0, 1.0, 1.0)) <= 0.25 / M


class TestSolveForward:
    def test_single_mode_initial_datum_decouples(self):
        spec = spec_with(OrderFunction((0.5,), 0.9, 1.0), k=0.0)
        field = solve_forward(spec, TimeMesh(1.0, 128, 1.0), 4)
        U = field.values
        assert np.abs(U[1:]).max() <= 1e-10
        assert U[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_zero_initial_datum(self):
        spec = spec_with(OrderFunction((0.5,), 0.9, 1.0), u0=lambda x: 0.0 * np.asarray(x))
        field = solve_forward(spec, TimeMesh(1.0, 64, 1.0), 4)
        assert np.all(field.values == 0.0)

    def test_full_model_regression(self):
        spec = spec_with(OrderFunction((0.3, 0.2), 0.95, 1.0), u0=PARABOLA)
        mesh = TimeMesh(1.0, 512, default_grading(0.3))
        field = solve_forward(spec, mesh, 8)
        (u_mid,) = field.basis.design_matrix([L / 2]) @ field.values[:, 512]
        assert u_mid == pytest.approx(REFERENCE_FIELD_MIDPOINT, abs=1e-12)

    def test_mode_decoupling_bitwise(self):
        spec = spec_with(OrderFunction((0.3, 0.2), 0.95, 1.0), u0=PARABOLA)
        meshes = (TimeMesh(1.0, 64, 2.0), TimeMesh(1.0, 300, default_grading(0.3)))
        for mesh in meshes:
            for N in (1, 4, 9):
                field = solve_forward(spec, mesh, N)
                basis = spec.basis(N)
                c0 = spec.u0_coefficients(basis)
                for i in range(N):
                    solo = solve_mode(
                        float(basis.eigenvalues()[i]), float(c0[i]), spec, mesh
                    )
                    assert np.array_equal(solo, field.values[i])

    def test_repeat_run_bitwise_identical(self):
        spec = spec_with(OrderFunction((0.3, 0.2), 0.95, 1.0), u0=PARABOLA)
        mesh = TimeMesh(1.0, 64, 2.0)
        a = solve_forward(spec, mesh, 4).values
        b = solve_forward(spec, mesh, 4).values
        assert np.array_equal(a, b)

    def test_order_horizon_must_match_model(self):
        with pytest.raises(DomainError, match="order horizon 2.0 does not match model horizon 1.0"):
            spec_with(OrderFunction((0.5,), 0.9, 2.0))

    def test_field_shape_must_match_basis_and_mesh(self):
        field = solve_forward(spec_with(OrderFunction((0.5,), 0.9, 1.0)), TimeMesh(1.0, 8, 1.0), 2)
        with pytest.raises(DomainError, match=r"shape \(2, 8\) does not match N = 2 modes on 9"):
            vordiff.forward.SolutionField(field.basis, field.mesh, field.values[:, :-1])


class TestStabilityRatio:
    def test_heat_decay_bounded_by_one(self):
        spec = spec_with(OrderFunction((0.5,), 0.9, 1.0), k=0.0, u0=PARABOLA)
        field = solve_forward(spec, TimeMesh(1.0, 256, 1.0), 8)
        ratio = stability_ratio(field, 0.0)
        assert ratio <= 1.0 + 1e-8

    def test_single_mode_identity(self):
        spec = spec_with(OrderFunction((0.5,), 0.9, 1.0))
        field = solve_forward(spec, TimeMesh(1.0, 128, 1.0), 3)
        ratio = stability_ratio(field, 1.5)
        u1 = field.values[0]
        assert ratio == pytest.approx(np.abs(u1).max() / abs(u1[0]), rel=1e-10)

    @pytest.mark.parametrize("n_modes, gamma", [(8, 0.0), (32, 1.0)])
    def test_full_model_monitored_value(self, n_modes, gamma):
        spec = spec_with(OrderFunction((0.3, 0.2), 0.95, 1.0), u0=PARABOLA)
        field = solve_forward(spec, TimeMesh(1.0, 512, default_grading(0.3)), n_modes)
        # decaying problem: the norm peaks at t = 0, so the ratio is 1 to the bit
        assert stability_ratio(field, gamma) == 1.0

    def test_zero_datum_rejected(self):
        spec = spec_with(OrderFunction((0.5,), 0.9, 1.0), u0=lambda x: 0.0 * np.asarray(x))
        field = solve_forward(spec, TimeMesh(1.0, 128, 1.0), 3)
        with pytest.raises(DomainError):
            stability_ratio(field, 0.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        # gamma reaches sobolev_norm, which took NaN and inf and made the ratio non-finite
        field = solve_forward(spec_with(OrderFunction((0.5,), 0.9, 1.0)), TimeMesh(1.0, 16, 1.0), 3)
        with pytest.raises(DomainError, match="gamma must be finite and >= 0"):
            stability_ratio(field, gamma)
