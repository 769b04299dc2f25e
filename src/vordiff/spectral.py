"""Dirichlet sine basis, series analysis/synthesis, and spectral norms.

The basis is orthonormalized: phi_i(x) = sqrt(2/L) sin(i pi x / L), so
analysis and synthesis are exact inverses on band-limited data and
Parseval holds without stray L/2 factors.  SpectralBasis.eigenvalues()
and .design_matrix(x) are the only places lambda_i and phi_i are written.
Synthesis is the product design_matrix(x) @ coefficients: an (N,) vector
gives values at x, an (N, K) array one column of values per column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _count, _real

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class SpectralBasis:
    """Eigenpairs of -K d^2/dx^2 on (0, L) with Dirichlet ends, modes 1..N."""

    K: float
    L: float
    N: int

    def __post_init__(self):
        _real(self.K, "diffusivity K", positive=True)
        _real(self.L, "domain length L", positive=True)
        _count(self.N, "mode count N")

    def eigenvalues(self):
        """lambda_i = K (i pi / L)^2 for i = 1..N, as an (N,) array."""
        i = np.arange(1, self.N + 1, dtype=float)
        return self.K * (i * np.pi / self.L) ** 2

    def design_matrix(self, x):
        """phi_i(x_j) as an (len(x), N) array; column i-1 holds mode i."""
        x = np.asarray(x, dtype=float)
        i = np.arange(1, self.N + 1, dtype=float)
        return np.sqrt(2.0 / self.L) * np.sin(np.outer(x, i * np.pi / self.L))


def default_grid_points(N):
    """Grid fine enough that composite Simpson resolves mode N to ~1e-9."""
    return max(4 * N + 1, 8193)


def analyze(basis: SpectralBasis, samples) -> np.ndarray:
    """Sine coefficients c_i = (v, phi_i) of samples on a uniform grid over [0, L].

    The grid is inferred from the sample count (endpoints included) and
    must have at least 4N+1 points, an odd number of them so composite
    Simpson applies: the weights (1, 4, 2, 4, ..., 2, 4, 1) dx/3 are
    applied to the design matrix in one product.  Homogeneous Dirichlet
    data is required: the series cannot represent nonzero boundary values.
    An end sample above BOUNDARY_TOL times the largest interior |sample| fails.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise DomainError("samples must be a vector on a uniform grid")
    npts = samples.size
    if npts < 4 * basis.N + 1:
        raise DomainError(
            f"need at least {4 * basis.N + 1} samples for N = {basis.N}, got {npts}"
        )
    if npts % 2 == 0:
        raise DomainError("composite Simpson needs an odd number of samples")
    if max(abs(samples[0]), abs(samples[-1])) > BOUNDARY_TOL * np.abs(samples[1:-1]).max():
        raise DomainError(
            f"boundary values ({samples[0]:.3e}, {samples[-1]:.3e}) violate the homogeneous "
            f"Dirichlet condition beyond {BOUNDARY_TOL} times the largest interior sample"
        )
    x = np.linspace(0.0, basis.L, npts)
    w = np.where(np.arange(npts) % 2 == 1, 4.0, 2.0)
    w[[0, -1]] = 1.0
    return (w * samples) @ basis.design_matrix(x) * (basis.L / (npts - 1) / 3.0)


def analyze_function(basis: SpectralBasis, fn) -> np.ndarray:
    """Sample fn on the default uniform grid and analyze."""
    x = np.linspace(0.0, basis.L, default_grid_points(basis.N))
    return analyze(basis, np.asarray(fn(x), dtype=float))


def sobolev_norm(basis: SpectralBasis, coeffs, gamma: float):
    """Spectral Sobolev norm sqrt(sum_i lambda_i^gamma c_i^2).

    An (N,) coefficient vector gives a float; an (N, K) array gives one
    norm per column as a (K,) array.  Each column adds its modes in order
    and a vector is summed as one column, so a column's norm does not depend
    on the columns beside it.  gamma = 0 is the L2 norm by Parseval;
    gamma = 2 matches the L2 norm of the second spatial derivative for
    boundary-compatible functions.  This is the library's one spectral
    norm: the stability ratio and the regularity diagnostics all call it.
    """
    gamma = _real(gamma, "gamma")
    c = np.asarray(coeffs, dtype=float)
    if c.ndim not in (1, 2) or c.shape[0] != basis.N:
        raise DomainError(f"coefficient shape {c.shape} does not match basis N = {basis.N}")
    with np.errstate(over="ignore", under="ignore"):
        weight = (lam := basis.eigenvalues()) ** gamma
    i = int(np.argmax((weight == 0.0) | (weight == np.inf)))  # the first weight out of range
    if weight[i] in (0.0, np.inf):
        raise DomainError(f"{'underflow' if weight[i] == 0.0 else 'overflow'}: lambda_i^gamma "
                          f"leaves the float range at gamma = {gamma:g}, lambda_{i + 1} = {lam[i]:.6g}")
    cols = c[:, None] if c.ndim == 1 else c
    norms = np.sqrt(np.add.accumulate(weight[:, None] * cols**2)[-1])
    return float(norms[0]) if c.ndim == 1 else norms
