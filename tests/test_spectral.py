import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad, simpson

import vordiff
from vordiff import (
    DomainError,
    SpectralBasis,
    analyze,
    analyze_function,
    sobolev_norm,
)
from vordiff.spectral import default_grid_points


class TestEigenpairs:
    def test_example_k1_lpi(self):
        basis = SpectralBasis(1.0, np.pi, 8)
        lam = basis.eigenvalues()[2]
        phi = basis.design_matrix([0.0, np.pi])[:, 2]
        assert lam == pytest.approx(9.0, rel=1e-14)
        assert phi[0] == pytest.approx(0.0, abs=1e-14)
        assert phi[1] == pytest.approx(0.0, abs=1e-12)
        x = np.linspace(0, np.pi, 7)
        assert np.allclose(basis.design_matrix(x)[:, 2], np.sqrt(2 / np.pi) * np.sin(3 * x))

    def test_example_k2_l1(self):
        lam = SpectralBasis(2.0, 1.0, 4).eigenvalues()[0]
        assert lam == pytest.approx(2.0 * np.pi**2, rel=1e-14)

    def test_eigen_residual_by_finite_differences(self):
        basis = SpectralBasis(1.0, 1.0, 6)
        x = np.linspace(0.0, 1.0, 20001)
        h = x[1] - x[0]
        for i in (1, 4, 6):
            lam = basis.eigenvalues()[i - 1]
            v = basis.design_matrix(x)[:, i - 1]
            resid = -(v[:-2] - 2 * v[1:-1] + v[2:]) / h**2 - lam * v[1:-1]
            assert np.abs(resid).max() <= 1e-4 * max(1.0, lam)

    def test_eigenvalues_increasing_distinct(self):
        lam = SpectralBasis(0.7, 2.0, 16).eigenvalues()
        assert np.all(np.diff(lam) > 0)

    @pytest.mark.parametrize("K, L", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)])
    def test_non_finite_k_or_l_rejected(self, K, L):
        with pytest.raises(DomainError, match="positive and finite"):
            SpectralBasis(K, L, 4)


class TestAnalyze:
    def test_pure_mode_roundtrip(self):
        basis = SpectralBasis(1.0, 1.0, 5)
        c = analyze_function(basis, lambda x: basis.design_matrix(x)[:, 1])
        expected = np.zeros(5)
        expected[1] = 1.0
        assert np.abs(c - expected).max() <= 1e-8

    def test_zero(self):
        basis = SpectralBasis(1.0, 1.0, 3)
        c = analyze(basis, np.zeros(4 * 3 + 1 + 2))
        assert np.all(c == 0.0)

    def test_parabola_coefficients(self):
        # int_0^1 x(1-x) sqrt(2) sin(i pi x) dx = 4 sqrt(2)/(i pi)^3 for odd i,
        # 0 for even i (sympy and adaptive quadrature agree).
        basis = SpectralBasis(1.0, 1.0, 3)
        c = analyze_function(basis, lambda x: x * (1 - x))
        assert c[0] == pytest.approx(4 * np.sqrt(2) / np.pi**3, rel=1e-9)
        assert abs(c[1]) <= 1e-12
        assert c[2] == pytest.approx(4 * np.sqrt(2) / (27 * np.pi**3), rel=1e-9)

    def test_parabola_against_quadrature(self):
        basis = SpectralBasis(1.0, 1.0, 3)
        c = analyze_function(basis, lambda x: x * (1 - x))
        for i in (1, 2, 3):
            oracle, _ = quad(
                lambda s, i=i: s * (1 - s) * np.sqrt(2) * np.sin(i * np.pi * s),
                0.0,
                1.0,
                epsabs=1e-13,
            )
            assert c[i - 1] == pytest.approx(oracle, abs=1e-10)

    def test_boundary_violation_rejected(self):
        basis = SpectralBasis(1.0, 1.0, 2)
        bad = np.linspace(0.5, 0.0, 4 * 2 + 3)
        with pytest.raises(DomainError, match="Dirichlet"):
            analyze(basis, bad)

    def test_boundary_rule_scales_with_samples(self):
        basis = SpectralBasis(1.0, 1.0, 2)
        with pytest.raises(DomainError, match="Dirichlet"):
            analyze(basis, 1e-20 * np.linspace(0.5, 0.0, 4 * 2 + 3))
        with pytest.raises(DomainError, match="Dirichlet"):  # an infinite end fails too
            analyze(basis, np.r_[np.zeros(4 * 2 + 2), np.inf])
        # sin(pi) = 1.2e-16 is rounding, whatever the amplitude
        c = analyze(basis, 1e4 * np.sin(np.pi * np.linspace(0.0, 1.0, 4 * 2 + 3)))
        assert c[0] > 0.0

    def test_too_few_points_rejected(self):
        basis = SpectralBasis(1.0, 1.0, 8)
        with pytest.raises(DomainError):
            analyze(basis, np.zeros(17))

    def test_even_point_count_rejected(self):
        basis = SpectralBasis(1.0, 1.0, 2)
        with pytest.raises(DomainError, match="odd"):
            analyze(basis, np.zeros(12))

    @pytest.mark.parametrize("N", [2, 8, 16])
    @pytest.mark.parametrize("profile", ["parabola", "pure_mode", "random_band"])
    def test_simpson_weights_match_scipy_simpson(self, N, profile):
        basis = SpectralBasis(1.3, np.pi, N)
        x = np.linspace(0.0, basis.L, default_grid_points(N))
        G = basis.design_matrix(x)
        if profile == "parabola":
            samples = x * (basis.L - x)
        elif profile == "pure_mode":
            samples = G[:, N // 2]
        else:
            samples = G @ np.random.default_rng(N).standard_normal(N)
        c = analyze(basis, samples)
        oracle = simpson(samples[:, None] * G, x=x, axis=0)
        assert np.abs(c - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(DomainError, match="samples must be a vector"):
            analyze(SpectralBasis(1.0, 1.0, 2), np.zeros((2, 11)))


class TestSynthesize:
    def test_roundtrips(self):
        basis = SpectralBasis(1.0, 1.0, 3)
        npts = default_grid_points(3)
        x = np.linspace(0.0, 1.0, npts)
        for fn in (
            lambda s: s * (1 - s) * 0.0,
            lambda s: np.sqrt(2) * np.sin(2 * np.pi * s),
            lambda s: np.sqrt(2) * (0.3 * np.sin(np.pi * s) - 1.2 * np.sin(3 * np.pi * s)),
        ):
            c = analyze(basis, fn(x))
            back = basis.design_matrix(x) @ c
            assert np.abs(back - fn(x)).max() <= 1e-8


class TestSobolevNorm:
    def test_gamma_zero_is_l2(self):
        basis = SpectralBasis(1.0, 1.0, 40)
        npts = default_grid_points(40)
        x = np.linspace(0.0, 1.0, npts)
        f = np.sqrt(2) * (np.sin(np.pi * x) - 0.5 * np.sin(5 * np.pi * x))
        c = analyze(basis, f)
        l2 = np.sqrt(simpson(f**2, x=x))
        assert sobolev_norm(basis, c, 0.0) == pytest.approx(l2, abs=1e-8)

    def test_single_mode(self):
        basis = SpectralBasis(2.0, 1.5, 4)
        c = np.array([1.0, 0.0, 0.0, 0.0])
        lam1 = basis.eigenvalues()[0]
        for g in (0.0, 1.0, 2.5):
            assert sobolev_norm(basis, c, g) == pytest.approx(lam1 ** (g / 2), rel=1e-13)

    def test_gamma_two_matches_second_derivative_norm(self):
        # |v|_{H^2} = ||v''||_{L2} = 2 for v = x(1-x); tail of the truncated
        # series at N = 400 contributes ~1e-3.
        basis = SpectralBasis(1.0, 1.0, 400)
        c = analyze_function(basis, lambda x: x * (1 - x))
        assert sobolev_norm(basis, c, 2.0) == pytest.approx(2.0, abs=2e-3)

    def test_negative_gamma_rejected(self):
        basis = SpectralBasis(1.0, 1.0, 2)
        c = np.array([1.0, 0.0])
        with pytest.raises(DomainError):
            sobolev_norm(basis, c, -1.0)

    @pytest.mark.parametrize("gamma", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, gamma):
        # the config already refused both; the library returned a non-finite norm
        basis = SpectralBasis(1.0, 1.0, 2)
        with pytest.raises(DomainError, match="gamma must be finite and >= 0"):
            sobolev_norm(basis, np.array([1.0, 0.0]), gamma)

    @pytest.mark.parametrize("K, gamma, kind, i", [
        (1e300, 3.0, "overflow", 1), (5e153, 2.0, "overflow", 2),  # lambda_2^2 = 4e308
        (1e-300, 3.0, "underflow", 1), (1e-162, 2.0, "underflow", 1),  # lambda_2^2 = 1.6e-323
    ])
    def test_weight_outside_float_range_named(self, K, gamma, kind, i):
        # lambda_i = K i^2 at L = pi: the first mode whose weight is inf or 0 is named
        basis = SpectralBasis(K, np.pi, 2)
        lam = basis.eigenvalues()[i - 1]
        msg = rf"^{kind}: .*gamma = {gamma:g}.*lambda_{i} = {re.escape(f'{lam:.6g}')}$"
        with pytest.raises(DomainError, match=msg):
            sobolev_norm(basis, np.array([1.0, 1.0]), gamma)

    def test_leading_dimension_must_be_n(self):
        basis = SpectralBasis(1.0, 1.0, 3)
        for bad in (np.ones(4), np.ones((2, 5)), np.ones((1, 3)), np.float64(1.0)):
            with pytest.raises(DomainError, match="does not match basis N = 3"):
                sobolev_norm(basis, bad, 1.0)

    def test_columns_match_one_column_calls(self):
        basis = SpectralBasis(1.0, np.pi, 16)
        C = np.random.default_rng(3).standard_normal((16, 7))
        for g in (0.0, 1.5):
            one_by_one = [sobolev_norm(basis, C[:, j], g) for j in range(7)]
            assert np.array_equal(sobolev_norm(basis, C, g), one_by_one)


def test_cli_import_does_not_load_scipy_integrate():
    code = (
        "import sys, vordiff.cli; print('scipy.integrate' in sys.modules); "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    src = pathlib.Path(vordiff.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split() == ["False", "[]"]


def test_cli_forward_does_not_load_numpy_polynomial(tmp_path):
    # numpy < 2 imports numpy.polynomial with numpy itself: there only a
    # load by vordiff would count, and none can be seen
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("model.K = 1.0\nmodel.L = 3.141592653589793\nmodel.T = 1.0\n"
                   "model.k_coeffs = 1.0\nmodel.alpha_coeffs = 0.3, 0.2\n"
                   "model.alpha_star = 0.95\nmodel.u0 = parabola\nmesh.M = 16\nbasis.N = 2\n")
    argv = ["forward", "--config", str(cfg), "--out", str(tmp_path / "out")]
    code = (
        "import sys, numpy; before = 'numpy.polynomial' in sys.modules; "
        f"from vordiff.cli import main; print(main({argv!r}), "
        "before or 'numpy.polynomial' not in sys.modules)"
    )
    src = pathlib.Path(vordiff.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.split()[-2:] == ["0", "True"]


def test_orthonormality_on_default_grid():
    basis = SpectralBasis(1.0, 1.0, 32)
    npts = default_grid_points(32)
    x = np.linspace(0.0, 1.0, npts)
    G = basis.design_matrix(x)
    gram = simpson(G[:, :, None] * G[:, None, :], x=x, axis=0)
    assert np.abs(gram - np.eye(32)).max() <= 1e-8
