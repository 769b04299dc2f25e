import dataclasses

import numpy as np
import pytest

from vordiff import (
    DomainError,
    IllPosedExtractionError,
    InversionConfig,
    InversionResult,
    ModelSpec,
    ObservationSet,
    OrderFunction,
    ScanResult,
    SpectralBasis,
    TimeMesh,
    csvio,
    extract_modes,
    jacobian,
    recover_order,
    residual,
    solve_forward,
    synthesize_observations,
    uniqueness_scan,
)
import vordiff.forward
import vordiff.fracops
import vordiff.inverse
from vordiff.forward import SOE_MIN_M, default_grading

L = np.pi
PARABOLA = lambda x: np.asarray(x) * (L - np.asarray(x))
WINDOW = (0.2 * L, 0.8 * L)


def template(u0=PARABOLA, k=(1.0,), T=1.0):
    return ModelSpec(K=1.0, L=L, T=T, k_coeffs=k, alpha=None, u0=u0)


def twin_observations(truth_coeffs, t_count=128, noise=0.0, seed=1, refine=4,
                      u0=PARABOLA, T=1.0, n_modes=8, x_count=16):
    model = template(u0=u0, T=T)
    truth = OrderFunction(truth_coeffs, 0.95, T)
    return synthesize_observations(
        model.with_alpha(truth), WINDOW, x_count, t_count, noise, seed,
        refine=refine, n_modes=n_modes,
    )


class TestSynthesizeObservations:
    def test_noise_free_matches_forward_samples(self):
        obs = twin_observations((0.3, 0.2), t_count=64)
        model = template().with_alpha(OrderFunction((0.3, 0.2), 0.95, 1.0))
        fine = solve_forward(model, TimeMesh(1.0, 256, default_grading(0.3)), 8)
        phi = fine.basis.design_matrix(obs.x_points)
        expected = phi @ fine.values[:, 4 * np.arange(1, 65)]
        assert np.array_equal(obs.values, expected)

    def test_deterministic_under_seed(self):
        a = twin_observations((0.5,), noise=1e-3, seed=99)
        b = twin_observations((0.5,), noise=1e-3, seed=99)
        assert np.array_equal(a.values, b.values)
        c = twin_observations((0.5,), noise=1e-3, seed=100)
        assert not np.array_equal(a.values, c.values)

    def test_noise_rms_near_requested_level(self):
        clean = twin_observations((0.5,), t_count=128, noise=0.0, seed=7)
        noisy = twin_observations((0.5,), t_count=128, noise=1e-3, seed=7)
        rel = (noisy.values - clean.values) / clean.values
        assert rel.size >= 1000
        rms = float(np.sqrt(np.mean(rel**2)))
        assert 0.5e-3 <= rms <= 2e-3

    def test_window_validation(self):
        model = template().with_alpha(OrderFunction((0.5,), 0.95, 1.0))
        with pytest.raises(DomainError):
            synthesize_observations(model, (0.5 * L, 1.5 * L), 8, 16, 0.0, 0)
        with pytest.raises(DomainError):
            synthesize_observations(model, WINDOW, 8, 16, 0.5, 0)

    def test_negative_seed_rejected_before_the_solve(self, monkeypatch):
        # noise-free data draws no noise, so the seed must be checked up front
        solves = []
        solve = vordiff.inverse.solve_forward
        monkeypatch.setattr(vordiff.inverse, "solve_forward",
                            lambda *args: solves.append(args) or solve(*args))
        model = template().with_alpha(OrderFunction((0.5,), 0.95, 1.0))
        with pytest.raises(DomainError, match="seed"):
            synthesize_observations(model, WINDOW, 8, 16, 0.0, -1)
        assert solves == []

    def test_t_points_reach_near_both_ends(self):
        obs = twin_observations((0.5,), t_count=128)
        assert obs.t_points[-1] == 1.0
        assert obs.t_points[0] <= 1e-3  # graded mesh clusters toward t = 0

    def test_x_points_strictly_inside(self):
        obs = twin_observations((0.5,), t_count=16)
        assert obs.x_points.min() > WINDOW[0]
        assert obs.x_points.max() < WINDOW[1]


@pytest.mark.parametrize("x_count, t_count", [(0, 4), (3, 0), (0, 0)])
def test_empty_observation_set_rejected(x_count, t_count):
    xs = WINDOW[0] + (WINDOW[1] - WINDOW[0]) * np.arange(1, x_count + 1) / (x_count + 1)
    ts = np.linspace(0.25, 1.0, t_count)
    with pytest.raises(DomainError, match="at least one x point and one t point"):
        ObservationSet(WINDOW, xs, ts, np.zeros((x_count, t_count)), 0.0, 0)


@pytest.mark.parametrize("window, xs, values, match", [
    ((2.0, 1.0), [1.5], [[1.0]], r"window \(2.0, 1.0\) must satisfy a < b"),
    ((1.0, 1.0), [1.0], [[1.0]], r"window \(1.0, 1.0\) must satisfy a < b"),
    ((1.0, 2.0), [2.5], [[1.0]], "x points must lie strictly inside the window"),
    ((1.0, 2.0), [1.5], [[1.0, 2.0]],
     r"values shape \(1, 2\) inconsistent with 1 x points and 1 t points"),
], ids=["window_reversed", "window_empty", "x_outside", "values_shape"])
def test_malformed_observation_set_rejected(window, xs, values, match):
    with pytest.raises(DomainError, match=match):
        ObservationSet(window, xs, [0.5], values, 0.0, 0)


COUNT_SITES = {
    "TimeMesh.M": lambda v: TimeMesh(1.0, v),
    "synthesis_mesh.M": lambda v: ObservationSet(WINDOW, [1.0], [0.5], [[1.0]], 0.0, 0,
                                                 synthesis_mesh=(v, 1.0)),
    "SpectralBasis.N": lambda v: SpectralBasis(1.0, L, v),
    "degree": lambda v: InversionConfig(degree=v),
    "max_iter": lambda v: InversionConfig(max_iter=v),
    "n_modes": lambda v: InversionConfig(n_modes=v),
    "x_count": lambda v: twin_observations((0.5,), x_count=v),
    "t_count": lambda v: twin_observations((0.5,), t_count=v),
    "refine": lambda v: twin_observations((0.5,), refine=v),
    "extract_modes": lambda v: extract_modes(
        ObservationSet(WINDOW, np.linspace(1.0, 2.0, 8), [0.5], np.ones((8, 1)), 0.0, 0),
        SpectralBasis(1.0, L, 4), v),
}


@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("site", list(COUNT_SITES))
def test_counts_must_be_integers(site, value, monkeypatch):
    # SpectralBasis(1, pi, 2.5) had 3 eigenvalues, InversionConfig(degree=1.5)
    # failed inside recover_order with a TypeError; no count reaches a solve
    monkeypatch.setattr(vordiff.inverse, "solve_forward", None)
    with pytest.raises(DomainError, match="integer"):
        COUNT_SITES[site](value)


@pytest.mark.parametrize("seed", [2.5, True, np.float64(3.0)], ids=["float", "bool", "numpy_float"])
def test_seed_must_be_an_integer(seed, monkeypatch):
    # these seeds were accepted; with noise, the synthesis then died in
    # default_rng with a bare TypeError after the whole forward solve
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        ObservationSet(WINDOW, [1.0], [0.5], [[1.0]], 1e-3, seed)
    monkeypatch.setattr(vordiff.inverse, "solve_forward", None)  # checked before the solve
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        twin_observations((0.5,), noise=1e-3, seed=seed)


def test_integer_seeds_kept_as_int():
    obs = ObservationSet(WINDOW, [1.0], [0.5], [[1.0]], 1e-3, np.int64(7))
    assert obs.seed == 7 and type(obs.seed) is int


def test_inversion_order_bound_below_one():
    with pytest.raises(DomainError, match=r"alpha_star must lie in \(0, 1\), got 1.0"):
        InversionConfig(alpha_star=1.0)


def test_synthesis_needs_the_true_order():
    with pytest.raises(DomainError, match="synthesis needs the true order"):
        synthesize_observations(template(), WINDOW, 4, 4, 0.0, 0)


def test_mode_count_above_basis_rejected():
    obs = ObservationSet(WINDOW, np.linspace(1.0, 2.0, 12), [0.5], np.ones((12, 1)), 0.0, 0)
    with pytest.raises(DomainError, match=r"mode count 5 outside 1\.\.4"):
        extract_modes(obs, SpectralBasis(1.0, L, 4), 5)


class TestExtractModes:
    def test_single_mode(self):
        u0 = lambda x: np.sqrt(2 / L) * np.sin(np.asarray(x))
        obs = twin_observations((0.4,), t_count=64, u0=u0, n_modes=1)
        ext = extract_modes(obs, SpectralBasis(1.0, L, 1), 1)
        model = template(u0=u0).with_alpha(OrderFunction((0.4,), 0.95, 1.0))
        fine = solve_forward(model, TimeMesh(1.0, 256, default_grading(0.4)), 1)
        truth = fine.values[:, 4 * np.arange(1, 65)]
        assert np.abs(ext.values - truth).max() <= 1e-8

    def test_four_modes_high_accuracy(self):
        basis = SpectralBasis(1.0, L, 4)
        weights = np.array([1.0, 0.8, 0.6, 0.4])
        u0 = lambda x: basis.design_matrix(np.atleast_1d(x)) @ weights
        obs = twin_observations((0.4,), t_count=64, u0=u0, T=0.5, n_modes=4)
        ext = extract_modes(obs, basis, 4)
        model = template(u0=u0, T=0.5).with_alpha(OrderFunction((0.4,), 0.95, 0.5))
        fine = solve_forward(model, TimeMesh(0.5, 256, default_grading(0.4)), 4)
        truth = fine.values[:, 4 * np.arange(1, 65)]
        rel = np.abs(ext.values - truth) / np.abs(truth)
        assert rel.max() <= 1e-6
        assert ext.condition_number < 10.0

    def test_narrow_window_ill_posed(self):
        # (0.47 L, 0.53 L) with 8 modes: measured condition number ~1e9
        basis = SpectralBasis(1.0, L, 8)
        model = template().with_alpha(OrderFunction((0.4,), 0.95, 1.0))
        obs = synthesize_observations(
            model, (0.47 * L, 0.53 * L), 16, 16, 0.0, 0, refine=4, n_modes=8
        )
        with pytest.raises(IllPosedExtractionError, match="condition number"):
            extract_modes(obs, basis, 8)

    def test_condition_number_reported(self):
        # the window of the ill-posed example from a slightly wider cut
        # stays (barely) below the refusal threshold and must be reported
        basis = SpectralBasis(1.0, L, 8)
        model = template().with_alpha(OrderFunction((0.4,), 0.95, 1.0))
        obs = synthesize_observations(
            model, (0.45 * L, 0.55 * L), 16, 16, 0.0, 0, refine=4, n_modes=8
        )
        ext = extract_modes(obs, basis, 8)
        assert 1e6 < ext.condition_number < 1e8

    def test_needs_enough_points(self):
        obs = twin_observations((0.4,), t_count=16)
        with pytest.raises(DomainError, match="observation x points"):
            extract_modes(obs, SpectralBasis(1.0, L, 16), 16)


class TestResidual:
    def test_truth_on_matched_meshes_is_exact_fixed_point(self):
        model = template()
        truth = OrderFunction((0.5,), 0.95, 1.0)
        obs = synthesize_observations(
            model.with_alpha(truth), WINDOW, 16, 128, 0.0, 0, refine=1, n_modes=8
        )
        r = residual((0.5,), obs, model, InversionConfig(n_modes=8))
        assert np.linalg.norm(r) == 0.0

    def test_truth_misfit_at_discretization_floor(self):
        obs = twin_observations((0.3,), t_count=256)
        cfg = InversionConfig(n_modes=8)
        model = template()
        floor = np.linalg.norm(residual((0.3,), obs, model, cfg))
        assert 0.0 < floor < 0.05  # recorded scale for this configuration

    def test_wrong_candidate_far_above_floor(self):
        obs = twin_observations((0.3,), t_count=256)
        cfg = InversionConfig(n_modes=8)
        model = template()
        floor = np.linalg.norm(residual((0.3,), obs, model, cfg))
        wrong = np.linalg.norm(residual((0.9,), obs, model, cfg))
        assert wrong >= 100.0 * floor

    def test_zero_data_zero_datum_degenerate(self):
        zero_u0 = lambda x: 0.0 * np.asarray(x)
        model = template(u0=zero_u0)
        xs = WINDOW[0] + (WINDOW[1] - WINDOW[0]) * np.arange(1, 9) / 9.0
        ts = TimeMesh(1.0, 16, 1.0).nodes[1:]
        obs = ObservationSet(WINDOW, xs, ts, np.zeros((8, 16)), 0.0, 0)
        for cand in ((0.2,), (0.7,)):
            assert np.linalg.norm(residual(cand, obs, model, InversionConfig())) == 0.0


# frozen from the per-mode sensitivity recurrence: jacobian((0.45, 0.1), ...)
# on twin_observations((0.3, 0.2), t_count=64) with degree 1 and 8 modes
REFERENCE_JACOBIAN_ENTRIES = {
    (0, 0): 2.4209094774834033e-07,
    (0, 1): 1.6728782675151729e-12,
    (100, 0): 0.1448234769214897,
    (100, 1): 0.016974678502696544,
    (517, 0): 0.00030770030714927547,
    (517, 1): 2.6037178452910565e-07,
    (1023, 0): 0.043070470732328774,
    (1023, 1): -0.023085272888647798,
}
REFERENCE_JACOBIAN_COLUMN_NORMS = (3.9815907447496097, 0.7717478338746305)


class TestJacobian:
    def test_frozen_oracle(self):
        obs = twin_observations((0.3, 0.2), t_count=64)
        cfg = InversionConfig(degree=1, n_modes=8)
        J = jacobian((0.45, 0.1), obs, template(), cfg)
        assert J.shape == (1024, 2)
        for idx, value in REFERENCE_JACOBIAN_ENTRIES.items():
            assert J[idx] == pytest.approx(value, abs=1e-12)
        for q, norm in enumerate(REFERENCE_JACOBIAN_COLUMN_NORMS):
            assert np.linalg.norm(J[:, q]) == pytest.approx(norm, abs=1e-12)

    @pytest.mark.parametrize("point", [(0.45,), (0.45, 0.05), (0.4, 0.1, -0.05)],
                             ids=["degree0", "degree1", "degree2"])
    def test_matches_finite_differences(self, point):
        # one stacked right-hand side per coefficient: degrees 0, 1 and 2
        obs = twin_observations((0.3, 0.2), t_count=64)
        cfg = InversionConfig(degree=len(point) - 1, n_modes=8)
        model = template()
        point = np.array(point)
        J = jacobian(point, obs, model, cfg)
        eps = 1e-5
        for q in range(point.size):
            up, dn = point.copy(), point.copy()
            up[q] += eps
            dn[q] -= eps
            fd = (residual(up, obs, model, cfg) - residual(dn, obs, model, cfg)) / (2 * eps)
            rel = np.linalg.norm(J[:, q] - fd) / np.linalg.norm(fd)
            assert rel <= 1e-3

    def test_soe_history_matches_finite_differences_and_exact_path(self, monkeypatch):
        # t_count = SOE_MIN_M: the solve and the stacked tangent solve both
        # sum the history by exponentials, on the observation times' nodes
        obs = twin_observations((0.3, 0.2), t_count=SOE_MIN_M, refine=1)
        cfg = InversionConfig(degree=1, n_modes=8)
        model = template()
        point = np.array([0.45, 0.05])
        J = jacobian(point, obs, model, cfg)
        eps = 1e-5
        for q in range(point.size):
            up, dn = point.copy(), point.copy()
            up[q] += eps
            dn[q] -= eps
            fd = (residual(up, obs, model, cfg) - residual(dn, obs, model, cfg)) / (2 * eps)
            assert np.linalg.norm(J[:, q] - fd) <= 1e-3 * np.linalg.norm(fd)
        monkeypatch.setattr(vordiff.forward, "SOE_MIN_M", SOE_MIN_M + 1)
        exact = jacobian(point, obs, model, cfg)
        assert not np.array_equal(J, exact)
        gap = np.linalg.norm(J - exact, axis=0)
        assert np.all(gap <= 1e-12 * np.linalg.norm(exact, axis=0))

    def test_sensitivity_sign_structure(self):
        # dominant mode starts positive and decays; for small t the order
        # sensitivity of its Caputo value is negative (log kernel dominates)
        from vordiff import SampledFunction, caputo_order_sensitivity

        model = template().with_alpha(OrderFunction((0.3,), 0.95, 1.0))
        field = solve_forward(model, TimeMesh(1.0, 256, 2.0), 4)
        traj = field.values[0]
        assert traj[0] > 0
        g = SampledFunction(field.mesh, traj)
        for n in (1, 4, 16):
            t_n = field.mesh.nodes[n]
            assert t_n < 0.05
            assert caputo_order_sensitivity(g, 0.3, n) < 0.0


class TestRecoverOrder:
    def test_linear_truth_recovered(self):
        obs = twin_observations((0.3, 0.2), t_count=256)
        cfg = InversionConfig(degree=1, max_iter=30, gn_tolerance=1e-8, n_modes=8,
                              init_coeffs=(0.5, 0.0))
        res = recover_order(obs, template(), cfg)
        assert res.converged
        assert res.coeffs[0] == pytest.approx(0.3, abs=1e-2)
        assert res.coeffs[1] == pytest.approx(0.2, abs=1e-2)
        assert res.inverse_crime is False

    def test_monotone_residual_history(self):
        obs = twin_observations((0.3, 0.2), t_count=128)
        cfg = InversionConfig(degree=1, n_modes=8, init_coeffs=(0.5, 0.0))
        res = recover_order(obs, template(), cfg)
        hist = np.asarray(res.residual_history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_truth_start_converges_immediately(self):
        obs = twin_observations((0.5,), t_count=256)
        cfg = InversionConfig(degree=0, gn_tolerance=1e-2, n_modes=8,
                              init_coeffs=(0.5,))
        res = recover_order(obs, template(), cfg)
        floor = np.linalg.norm(residual((0.5,), obs, template(), cfg))
        assert res.converged
        assert res.iterations <= 1
        assert floor / 10.0 <= res.final_misfit <= floor

    def test_noisy_constant_truth(self):
        obs = twin_observations((0.5,), t_count=256, noise=1e-3, seed=20260809)
        cfg = InversionConfig(degree=0, tikhonov=1e-6, n_modes=8, init_coeffs=(0.3,))
        res = recover_order(obs, template(), cfg)
        assert res.converged
        assert res.coeffs[0] == pytest.approx(0.5, abs=5e-2)

    def test_error_decreases_with_time_sampling(self):
        cfg = InversionConfig(degree=0, n_modes=8, init_coeffs=(0.3,))
        errs = []
        for t_count in (128, 256):
            obs = twin_observations((0.5,), t_count=t_count)
            res = recover_order(obs, template(), cfg)
            errs.append(abs(res.coeffs[0] - 0.5))
        assert errs[1] <= errs[0]

    def test_inverse_crime_flagged(self):
        model = template()
        truth = OrderFunction((0.5,), 0.95, 1.0)
        obs = synthesize_observations(
            model.with_alpha(truth), WINDOW, 16, 64, 0.0, 0, refine=1, n_modes=8
        )
        cfg = InversionConfig(degree=0, gn_tolerance=1e-2, n_modes=8, init_coeffs=(0.5,))
        res = recover_order(obs, model, cfg)
        assert res.inverse_crime is True

    def test_start_at_the_truth_stops_at_once(self):
        # the inverse crime's data are the start's own trajectory: the first
        # misfit is exactly 0, and the drop test relative to it stops the loop
        model = template()
        obs = synthesize_observations(
            model.with_alpha(OrderFunction((0.5,), 0.95, 1.0)), WINDOW, 16, 64, 0.0, 0,
            refine=1, n_modes=8,
        )
        res = recover_order(obs, model, InversionConfig(n_modes=8, init_coeffs=(0.5,)))
        assert (res.stop_reason, res.iterations) == ("tolerance", 1)
        assert res.residual_history == [0.0, 0.0]

    def test_recovered_order_admissible(self):
        obs = twin_observations((0.3, 0.2), t_count=128)
        cfg = InversionConfig(degree=1, n_modes=8)
        res = recover_order(obs, template(), cfg)
        OrderFunction(res.coeffs, cfg.alpha_star, 1.0)  # must not raise

    def test_zero_datum_rejected(self):
        obs = twin_observations((0.5,), t_count=16)
        zero_model = template(u0=lambda x: 0.0 * np.asarray(x))
        with pytest.raises(DomainError, match="nonzero initial datum"):
            recover_order(obs, zero_model, InversionConfig(n_modes=8))

    def test_vanishing_reaction_rejected(self):
        obs = twin_observations((0.5,), t_count=16)
        dead_model = template(k=(0.0,))
        with pytest.raises(DomainError, match="k\\(0\\)"):
            recover_order(obs, dead_model, InversionConfig(n_modes=8))

    @pytest.mark.parametrize("edit", ["shifted_window", "late_time"])
    def test_observations_off_the_model_rejected(self, edit):
        # x points and window moved by +L lie off the rod [0, L]; t = 2 is past T = 1
        obs = twin_observations((0.3, 0.2), t_count=64)
        if edit == "shifted_window":
            obs = dataclasses.replace(obs, window=(obs.window[0] + L, obs.window[1] + L),
                                      x_points=obs.x_points + L)
            match = "observation window"
        else:
            obs = dataclasses.replace(obs, t_points=np.append(obs.t_points[:-1], 2.0))
            match = "observation times"
        cfg = InversionConfig(degree=1, n_modes=8)
        for run in (
            lambda: recover_order(obs, template(), cfg),
            lambda: uniqueness_scan(obs, template(), [(0.3, 0.2)], cfg),
            lambda: residual((0.3, 0.2), obs, template(), cfg),
            lambda: jacobian((0.3, 0.2), obs, template(), cfg),
        ):
            with pytest.raises(DomainError, match=match):
                run()


class TestInverseCrime:
    """The flag is true exactly when the data came from the mesh that the
    inversion steps on, the observation times plus t = 0."""

    CFG = InversionConfig(degree=0, max_iter=1, n_modes=8, init_coeffs=(0.5,))

    def flag(self, obs):
        return recover_order(obs, template(), self.CFG).inverse_crime

    @pytest.mark.parametrize("refine", [2, 4])  # refine 1: test_inverse_crime_flagged
    def test_finer_synthesis_is_no_crime(self, refine):
        assert self.flag(twin_observations((0.5,), t_count=64, refine=refine)) is False

    def test_thinned_times_are_off_the_data_mesh(self):
        obs = twin_observations((0.5,), t_count=64, refine=1)
        thin = dataclasses.replace(obs, t_points=obs.t_points[1::2], values=obs.values[:, 1::2])
        assert self.flag(thin) is False

    def test_other_grading_is_not_the_data_mesh(self):
        obs = twin_observations((0.5,), t_count=64, refine=1)
        M, r = obs.synthesis_mesh
        assert self.flag(dataclasses.replace(obs, synthesis_mesh=(M, r + 0.5))) is False

    def test_unknown_synthesis_mesh(self):
        obs = twin_observations((0.5,), t_count=64, refine=1)
        assert self.flag(dataclasses.replace(obs, synthesis_mesh=None)) is None

    def test_inversion_mesh_comments_ignored(self, tmp_path):
        # files written before the inversion mesh was dropped still carry it
        obs = twin_observations((0.3, 0.2), t_count=64)
        path, old = tmp_path / "observations.csv", tmp_path / "old.csv"
        csvio.write_observations_csv(path, obs)
        lines = path.read_text().splitlines()
        at = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        extra = ["# inversion_M = 64", f"# inversion_r = {obs.synthesis_mesh[1]!r}"]
        old.write_text("\n".join(lines[:at] + extra + lines[at:]) + "\n")
        cfg = InversionConfig(degree=1, n_modes=8, init_coeffs=(0.5, 0.0))
        res = recover_order(csvio.read_observations_csv(path), template(), cfg)
        assert recover_order(csvio.read_observations_csv(old), template(), cfg) == res


class TestOnePointData:
    """One interior x point, x = L/2, and 256 times still determine the order."""

    def test_linear_truth_recovered(self):
        obs = twin_observations((0.3, 0.2), t_count=256, n_modes=16, x_count=1)
        assert obs.x_points == pytest.approx([L / 2])
        cfg = InversionConfig(degree=1, n_modes=16, init_coeffs=(0.5, 0.0))
        res = recover_order(obs, template(), cfg)
        assert res.stop_reason == "tolerance"
        assert np.abs(np.subtract(res.coeffs, (0.3, 0.2))).max() <= 1.5e-2

    def test_scan_has_a_strict_minimum_at_the_truth(self):
        obs = twin_observations((0.5,), t_count=256, n_modes=16, x_count=1)
        grid = [(c,) for c in np.linspace(0.10, 0.90, 17)]
        scan = uniqueness_scan(obs, template(), grid, InversionConfig(n_modes=16))
        assert scan.candidates[scan.best_index][0] == pytest.approx(0.5, abs=1e-12)
        ranked = np.sort(scan.misfits)
        assert ranked[0] < ranked[1]
        assert ranked[1] >= 5.0 * ranked[0]


class TestStopReason:
    @pytest.mark.parametrize(
        "stop_reason, history, converged",
        [("tolerance", [1.0, 0.5, 0.25], True), ("max_iter", [1.0, 0.5], False),
         ("no_descent", [1.0], False)],
    )
    def test_result_derives_from_stop_reason_and_history(self, stop_reason, history,
                                                         converged):
        res = InversionResult((0.3,), history, stop_reason, inverse_crime=None)
        assert res.converged is converged
        assert res.final_misfit == history[-1]
        assert res.iterations == len(history) - 1

    def test_truth_start_stops_on_tolerance(self):
        obs = twin_observations((0.5,), t_count=256)
        cfg = InversionConfig(degree=0, gn_tolerance=1e-2, n_modes=8, init_coeffs=(0.5,))
        res = recover_order(obs, template(), cfg)
        assert res.converged and res.stop_reason == "tolerance"

    def test_one_iteration_from_far_start_stops_on_max_iter(self):
        obs = twin_observations((0.3, 0.2), t_count=256)
        cfg = InversionConfig(degree=1, max_iter=1, n_modes=8, init_coeffs=(0.8, 0.0))
        res = recover_order(obs, template(), cfg)
        assert not res.converged and res.stop_reason == "max_iter"
        assert res.iterations == 1

    @pytest.mark.parametrize("degree", [1, 2])
    def test_single_observation_time_converges(self, degree):
        # one time, t = 6.9e-6: the columns of J differ by powers of t, so
        # J^T J is numerically singular and the step must come from J itself
        obs = twin_observations((0.3, 0.2), t_count=64)
        obs = dataclasses.replace(obs, t_points=obs.t_points[:1], values=obs.values[:, :1])
        cfg = InversionConfig(degree=degree, tikhonov=0.0, n_modes=8)
        res = recover_order(obs, template(), cfg)
        assert res.stop_reason == "tolerance"
        assert res.final_misfit <= 1e-8

    def test_bound_stall_stops_on_no_descent(self, monkeypatch):
        # a Jacobian of the wrong sign makes every step an ascent, so no
        # halving decreases the misfit
        jacobian = vordiff.inverse._Inversion.jacobian
        monkeypatch.setattr(vordiff.inverse._Inversion, "jacobian",
                            lambda *args: -jacobian(*args))
        obs = twin_observations((0.3, 0.2), t_count=128)
        cfg = InversionConfig(degree=1, n_modes=8, init_coeffs=(0.5, 0.0))
        res = recover_order(obs, template(), cfg)
        assert not res.converged and res.stop_reason == "no_descent"
        assert res.iterations == 0


def test_truth_on_admissible_bound_recovered():
    obs = twin_observations((0.0, 0.3), t_count=256)
    res = recover_order(obs, template(), InversionConfig(degree=1, n_modes=8))
    assert res.converged


def test_converged_run_fits_as_well_as_the_truth():
    # one x point and the 51 times t <= 0.01: a step blind to the bounds stops
    # with "tolerance" at (0.4836, -0.4836), misfit 2.0e-3, against 1.9e-5 at
    # the truth
    obs = synthesize_observations(
        template().with_alpha(OrderFunction((0.3, 0.2), 0.95, 1.0)), (0.5, 2.5), 1, 256,
        0.0, 1, n_modes=16,
    )
    early = obs.t_points <= 0.01
    obs = dataclasses.replace(obs, t_points=obs.t_points[early], values=obs.values[:, early])
    cfg = InversionConfig(degree=1, n_modes=16)
    res = recover_order(obs, template(), cfg)
    truth_misfit = np.linalg.norm(residual((0.3, 0.2), obs, template(), cfg))
    assert res.converged
    assert res.final_misfit <= 10.0 * truth_misfit


def test_degree_two_truth_on_admissible_bound_converges():
    # a step blind to the bounds stops the truth (0, 0.6, -0.3) at t_count 128
    # with "no_descent" after 4 iterations at (0, 0.536, -0.232), misfit
    # 0.0242; Gauss-Newton on c1, c2
    # with c0 held at 0 reaches (0, 0.5057, -0.1577), misfit 0.01990, so the
    # bound-constrained minimum lies at or below that
    obs = twin_observations((0.0, 0.6, -0.3), t_count=128)
    res = recover_order(obs, template(), InversionConfig(degree=2, n_modes=8))
    assert res.converged
    assert res.final_misfit <= 0.021


def test_degree_two_interior_minimum_recovered():
    # 0.25 - 0.8 t + 0.8 t^2 keeps to [0.05, 0.25] but has the Bernstein
    # coefficients (0.25, -0.15, 0.25); the first step from 0.5 clips the inner
    # one to 0, and a hold on it stopped the run with "tolerance" at
    # (0.1866, -0.3733, 0.1974), misfit 5.4e-2 against 6.6e-3 at the minimum
    truth = (0.25, -0.8, 0.8)
    obs = twin_observations(truth, t_count=128)
    cfg = InversionConfig(degree=2, n_modes=8, init_coeffs=(0.5,))
    res = recover_order(obs, template(), cfg)
    assert res.converged
    assert res.final_misfit <= np.linalg.norm(residual(truth, obs, template(), cfg))
    assert np.abs(np.subtract(res.coeffs, truth)).max() <= 0.05


def test_short_window_run_fits_as_well_as_the_truth():
    # 16 x points and the 89 times t <= 0.05: a step blind to the bounds takes
    # one iteration, then "no_descent" at (0.4415, -0.4415), misfit 5.50e-2
    # against 1.04e-3 at the truth
    obs = synthesize_observations(
        template().with_alpha(OrderFunction((0.3, 0.2), 0.95, 1.0)), (0.5, 2.5), 16, 256,
        0.0, 1, n_modes=16,
    )
    early = obs.t_points <= 0.05
    obs = dataclasses.replace(obs, t_points=obs.t_points[early], values=obs.values[:, early])
    cfg = InversionConfig(degree=1, n_modes=16)
    res = recover_order(obs, template(), cfg)
    truth_misfit = np.linalg.norm(residual((0.3, 0.2), obs, template(), cfg))
    assert res.converged
    assert res.final_misfit <= 10.0 * truth_misfit


@pytest.mark.xfail(reason="ROADMAP item 21: the first undamped step is huge, the clip turns "
                   "it into a bang-bang order, and no halving descends from there")
@pytest.mark.parametrize("degree", [5, 6])
def test_high_degree_fits_as_well_as_the_truth(degree):
    # from the default start, degree 5 stops on no_descent at misfit 0.984
    # after 2 iterations and degree 6 at 0.615 after 1, against 0.0626 at
    # the truth
    truth = (0.3, -0.3) + (0.0,) * (degree - 1)
    obs = twin_observations(truth[:2])
    cfg = InversionConfig(degree=degree, n_modes=8)
    res = recover_order(obs, template(), cfg)
    assert res.stop_reason == "tolerance"
    assert res.final_misfit <= np.linalg.norm(residual(truth, obs, template(), cfg))


def test_start_on_a_bound_is_held_then_released(monkeypatch):
    # from (0, 0.5) the first step would take alpha(0) below 0, so that
    # Bernstein coefficient is held on its bound and lstsq solves for the
    # other one; the gradient then points inward, the hold is released, and
    # the run leaves the bound for the interior truth
    columns = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda A, *args, **kw: columns.append(A.shape[1]) or lstsq(A, *args, **kw))
    obs = twin_observations((0.05, 0.3), t_count=128)
    cfg = InversionConfig(degree=1, n_modes=8, init_coeffs=(0.0, 0.5))
    res = recover_order(obs, template(), cfg)
    assert columns[0] == 1 and columns[-1] == 2
    assert res.converged
    assert res.coeffs[0] > 0.0
    assert np.abs(np.subtract(res.coeffs, (0.05, 0.3))).max() <= 1.5e-2


@pytest.mark.parametrize("degree", range(vordiff.fracops.MAX_ORDER_DEGREE + 1))
def test_clipped_end_values_lie_on_the_bound(degree):
    # project_admissible keeps alpha(T) a rounding margin inside the bound,
    # 3.9e-12 alpha_star at degree 6: a hold within 1e-12 alpha_star missed it
    Q = vordiff.fracops._bernstein_maps(degree)[1]
    rng = np.random.default_rng(degree)
    for _ in range(200):
        c, T = rng.uniform(-2.0, 2.0, degree + 1), rng.uniform(0.1, 10.0)
        b = Q @ vordiff.fracops._in_s(vordiff.inverse.project_admissible(c, T, 0.95), T)
        raw = Q @ vordiff.fracops._in_s(c, T)
        for j in (0, -1):
            bound = 0.0 if raw[j] < 0.0 else 0.95 if raw[j] > 0.95 else b[j]
            assert abs(b[j] - bound) <= vordiff.inverse._ON_BOUND * 0.95


def test_jacobian_reuses_the_accepted_trial_solve(monkeypatch):
    passes = {"forward": 0, "sensitivity": 0, "trials": 0}
    step_modes = vordiff.inverse.step_modes
    project = vordiff.inverse.project_admissible

    def counting_step_modes(mesh, a, k, lam, u0, forcing=None, tables=None):
        passes["forward" if forcing is None else "sensitivity"] += 1
        return step_modes(mesh, a, k, lam, u0, forcing, tables)

    def counting_project(*args):
        passes["trials"] += 1  # the start point, then one per trial step
        return project(*args)

    monkeypatch.setattr(vordiff.inverse, "step_modes", counting_step_modes)
    monkeypatch.setattr(vordiff.inverse, "project_admissible", counting_project)
    obs = twin_observations((0.3, 0.2), t_count=128)
    cfg = InversionConfig(degree=1, n_modes=8, init_coeffs=(0.5, 0.0))
    res = recover_order(obs, template(), cfg)
    assert res.converged
    assert passes["forward"] == passes["trials"]
    assert passes["sensitivity"] == res.iterations  # one Jacobian per iteration


class TestUniquenessScan:
    def test_best_index_follows_misfits(self):
        scan = ScanResult(candidates=[(0.1,), (0.5,), (0.9,)], misfits=[3.0, 0.001, 2.0])
        assert scan.best_index == 1
        scan.misfits[2] = 0.0
        assert scan.best_index == 2

    def test_unique_minimum_at_truth(self):
        obs = twin_observations((0.5,), t_count=128)
        grid = [(c,) for c in (0.3, 0.4, 0.5, 0.6, 0.7)]
        scan = uniqueness_scan(obs, template(), grid, InversionConfig(n_modes=8))
        assert scan.candidates[scan.best_index] == (0.5,)
        ranked = np.sort(scan.misfits)
        assert ranked[1] > 2.0 * ranked[0]

    def test_empty_grid_rejected(self):
        obs = twin_observations((0.5,), t_count=16)
        with pytest.raises(DomainError):
            uniqueness_scan(obs, template(), [], InversionConfig(n_modes=8))

    def test_misfits_match_residual(self):
        obs = twin_observations((0.3, 0.2), t_count=64)
        cfg = InversionConfig(n_modes=8)
        grid = [(0.2, 0.1), (0.3, 0.2), (0.5, 0.0)]
        scan = uniqueness_scan(obs, template(), grid, cfg)
        for cand, misfit in zip(grid, scan.misfits):
            assert misfit == np.linalg.norm(residual(cand, obs, template(), cfg))


@pytest.mark.parametrize("coeffs", [(0.5, 0.0), (0.3, 0.2)])
def test_jacobian_reused_blocks_bitwise(monkeypatch, coeffs):
    # the benchmark's invert config: M = 256, 16 modes, 32 x points, noise 1e-5
    model = template()
    truth = OrderFunction((0.3, 0.2), 0.95, 1.0)
    obs = synthesize_observations(model.with_alpha(truth), WINDOW, 32, 256, 1e-5, 0, n_modes=16)
    cfg = InversionConfig(degree=1, n_modes=16, init_coeffs=(0.5,))
    inv = vordiff.inverse._Inversion(obs, model, cfg)
    tables = {}
    a, u, _ = inv.solve(coeffs, tables)
    built = []
    block_tables = vordiff.forward._block_tables
    monkeypatch.setattr(
        vordiff.forward, "_block_tables", lambda *args: built.append(args) or block_tables(*args)
    )
    reused = inv.jacobian(len(coeffs), a, u, tables)
    assert built == []  # the tangent pass read the trial's tables
    fresh = jacobian(coeffs, obs, model, cfg)
    assert built  # while a fresh Jacobian builds its own
    assert np.array_equal(reused, fresh)
